//! Regenerates the paper's fig13 artifact.

fn main() {
    safetypin_bench::figures::fig13::run();
}
