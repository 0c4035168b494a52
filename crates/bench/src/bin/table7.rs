//! Regenerates the paper's table7 artifact.

fn main() {
    safetypin_bench::figures::table7::run();
}
