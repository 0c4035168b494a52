//! Regenerates the paper's table14 artifact.

fn main() {
    safetypin_bench::figures::table14::run();
}
