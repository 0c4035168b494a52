//! Regenerates every table and figure in the paper's evaluation,
//! mirroring each to `bench_out/`.

fn main() {
    println!("regenerating all SafetyPin evaluation artifacts...\n");
    safetypin_bench::figures::table2::run();
    safetypin_bench::figures::table7::run();
    safetypin_bench::figures::fig8::run();
    safetypin_bench::figures::fig9::run();
    safetypin_bench::figures::fig10::run();
    safetypin_bench::figures::fig11::run();
    safetypin_bench::figures::fig12::run();
    safetypin_bench::figures::fig13::run();
    safetypin_bench::figures::table14::run();
    safetypin_bench::figures::bandwidth::run();
    println!("done; outputs mirrored under bench_out/");
}
