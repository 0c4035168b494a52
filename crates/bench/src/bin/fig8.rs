//! Regenerates the paper's fig8 artifact.

fn main() {
    safetypin_bench::figures::fig8::run();
}
