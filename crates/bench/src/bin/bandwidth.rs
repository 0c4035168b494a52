//! Regenerates the paper's bandwidth artifact.

fn main() {
    safetypin_bench::figures::bandwidth::run();
}
