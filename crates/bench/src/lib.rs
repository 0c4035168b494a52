//! Benchmark harness regenerating every table and figure in the SafetyPin
//! evaluation (paper §9).
//!
//! Each `figures::*` module regenerates one table or figure; the binaries
//! under `src/bin/` are thin wrappers, and `all_figures` runs everything
//! and writes the output under `bench_out/`. Each module and binary is
//! named after the paper artifact it regenerates, and each report prints
//! the paper's numbers beside ours; README's *Benchmarks* section says
//! which of them the repository stands behind.
//!
//! Methodology: protocols execute with real cryptography on the host while
//! meters count resource-relevant operations; device time is then priced
//! with the paper's own Table 7 SoloKey rates (see `safetypin_sim`). Where
//! an experiment needs paper-scale state (100M-entry logs, 64 MB keys,
//! 3,100-HSM fleets), we run a scaled configuration and report the scaling
//! rule alongside the numbers — the same approach the paper takes in
//! treating its 100-SoloKey cluster as a slice of a 3,100-HSM deployment.

#![forbid(unsafe_code)]

pub mod figures;
pub mod report;

use std::time::Instant;

/// Measures the wall-clock seconds of one closure invocation.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Ops/sec for a closure run repeatedly for ~`budget_secs`.
pub fn ops_per_sec(budget_secs: f64, mut f: impl FnMut()) -> f64 {
    // Warmup + calibration run.
    let t1 = {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let iters = ((budget_secs / t1.max(1e-9)).ceil() as u64).clamp(1, 5_000_000);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    iters as f64 / start.elapsed().as_secs_f64()
}
