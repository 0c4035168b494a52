//! Regenerates the paper's fig11 artifact.

fn main() {
    safetypin_bench::figures::fig11::run();
}
