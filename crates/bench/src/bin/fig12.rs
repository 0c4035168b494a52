//! Regenerates the paper's fig12 artifact.

fn main() {
    safetypin_bench::figures::fig12::run();
}
