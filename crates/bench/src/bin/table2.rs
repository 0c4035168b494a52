//! Regenerates the paper's table2 artifact.

fn main() {
    safetypin_bench::figures::table2::run();
}
