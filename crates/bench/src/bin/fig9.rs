//! Regenerates the paper's fig9 artifact.

fn main() {
    safetypin_bench::figures::fig9::run();
}
