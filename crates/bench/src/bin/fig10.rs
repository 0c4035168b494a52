//! Regenerates the paper's fig10 artifact.

fn main() {
    safetypin_bench::figures::fig10::run();
}
