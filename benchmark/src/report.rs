//! Turns a run's measurements into named metrics, the result file and
//! the driver's one-line result.

use std::path::PathBuf;

use crate::e2e::{Outcome, Sample};
use crate::host::{self, Calibration};
use crate::json::{obj, Json};
use crate::spec::{Metric, Scale, END_TO_END, PER_LAYER};
use crate::stats;

/// Share of the timed operations treated as warm-up.
const WARMUP: f64 = 0.10;

/// Consecutive blocks the post-warm-up operations are split into. Each
/// end-to-end timing is the median of the per-block statistic, so a
/// stall of the host spoils one block, not the run, and each block is
/// corrected by the canary ticks of its own seconds. Odd, so the median
/// is a value some block measured.
const BLOCKS: usize = 5;

/// Named values in manifest order.
pub type Values = Vec<(&'static str, f64)>;

fn timed_samples(outcome: &Outcome) -> &[Sample] {
    let samples = &outcome.tally.samples;
    let skip = (samples.len() as f64 * WARMUP).ceil() as usize;
    &samples[skip.min(samples.len())..]
}

fn latencies(block: &[Sample]) -> Vec<f64> {
    block.iter().map(|s| s.ms).collect()
}

/// How much slower than the reference the host ran while `block` ran:
/// the block's median canary tick over the reference tick.
fn slowdown(block: &[Sample]) -> f64 {
    let ticks: Vec<f64> = block.iter().map(|s| s.tick_ms).collect();
    stats::median(&ticks) / host::CANARY_REF_MS
}

/// The median over blocks of `stat`, each block's value divided by its
/// own slowdown when `corrected`.
fn block_median(samples: &[Sample], corrected: bool, stat: impl Fn(&[Sample]) -> f64) -> f64 {
    let per_block: Vec<f64> = stats::blocks(samples, BLOCKS)
        .into_iter()
        .map(|b| stat(b) / if corrected { slowdown(b) } else { 1.0 })
        .collect();
    stats::median(&per_block)
}

/// The six end-to-end metrics of one run. With `corrected`, timings
/// are scaled to the reference CPU speed by the canary ticks taken
/// beside them (see [`host::canary_tick`]); without, they are raw.
pub fn end_to_end(outcome: &Outcome, corrected: bool) -> Values {
    let timed = timed_samples(outcome);
    let ops = |b: &[Sample]| b.iter().map(|s| s.ops).sum::<usize>() as f64;
    let setup = &outcome.setup;
    let setup_slowdown = if corrected {
        setup.tick_ms / host::CANARY_REF_MS
    } else {
        1.0
    };
    // A rate falls when the host slows, so its correction is inverted.
    let ms_per_op = block_median(timed, corrected, |b| {
        b.iter().map(|s| s.ms).sum::<f64>() / ops(b)
    });
    vec![
        ("setup_s", setup.seconds / setup_slowdown),
        (
            "op_p50_ms",
            block_median(timed, corrected, |b| stats::percentile(&latencies(b), 0.50)),
        ),
        (
            "op_p90_ms",
            block_median(timed, corrected, |b| stats::percentile(&latencies(b), 0.90)),
        ),
        ("ops_per_s", 1e3 / ms_per_op),
        (
            "cpu_ms_per_op",
            block_median(timed, corrected, |b| {
                b.iter().map(|s| s.cpu_ms).sum::<f64>() / ops(b)
            }),
        ),
        ("peak_rss_mb", host::peak_rss_mb()),
    ]
}

/// The samples behind the percentiles, and the uncorrected metrics, for
/// the result file.
fn sample_summary(outcome: &Outcome) -> Json {
    let timed = timed_samples(outcome);
    let all = latencies(timed);
    let ticks: Vec<f64> = timed.iter().map(|s| s.tick_ms).collect();
    let column = |f: fn(&Sample) -> f64| {
        Json::Arr(outcome.tally.samples.iter().map(|s| f(s).into()).collect())
    };
    obj([
        ("timed_samples", outcome.tally.samples.len().into()),
        (
            "warmup_samples_excluded",
            (outcome.tally.samples.len() - timed.len()).into(),
        ),
        ("blocks", BLOCKS.min(timed.len()).into()),
        ("ops_per_sample", timed.first().map_or(0, |s| s.ops).into()),
        ("samples_beyond_p90", (timed.len() / 10).into()),
        ("window_s", outcome.window_s.into()),
        (
            "uncorrected",
            Json::Obj(
                end_to_end(outcome, false)
                    .into_iter()
                    .map(|(name, value)| (name.to_string(), value.into()))
                    .collect(),
            ),
        ),
        ("uncorrected_p99_ms", stats::percentile(&all, 0.99).into()),
        ("uncorrected_max_ms", stats::percentile(&all, 1.0).into()),
        ("canary_ref_ms", host::CANARY_REF_MS.into()),
        ("canary_median_ms", stats::median(&ticks).into()),
        ("canary_setup_ms", outcome.setup.tick_ms.into()),
        ("shutdown_persist_s", outcome.persist_s.into()),
        // Not end-to-end metrics: on the reference host a persist and a
        // restore are each bimodal (see the README), so they are
        // recorded, not bounded.
        ("restart_s", outcome.restart_s.into()),
        ("op_ms", column(|s| s.ms)),
        ("op_cpu_ms", column(|s| s.cpu_ms)),
        ("op_canary_ms", column(|s| s.tick_ms)),
    ])
}

/// Everything a result file says about where its numbers came from.
pub struct Provenance {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub scale: Scale,
    pub store_fs: String,
    pub before: Calibration,
    pub after: Calibration,
}

impl Provenance {
    /// The canary moved by more than 10 % across the run.
    pub fn noisy(&self) -> bool {
        host::drifted(self.before, self.after)
    }

    fn to_json(&self) -> Json {
        let calib = |c: Calibration| {
            obj([
                ("host.calib_cpu_ms", c.cpu_ms.into()),
                ("host.calib_fsync_ms", c.fsync_ms.into()),
            ])
        };
        obj([
            ("workload", self.workload.as_str().into()),
            ("seed", self.seed.into()),
            ("seconds", self.seconds.into()),
            ("traced", self.traced.into()),
            (
                "git_commit",
                std::env::var("BENCH_GIT_COMMIT")
                    .unwrap_or_else(|_| "unknown".to_string())
                    .into(),
            ),
            ("nproc", host::nproc().into()),
            ("store_fs", self.store_fs.as_str().into()),
            ("scale", self.scale.to_json()),
            ("calibration_before", calib(self.before)),
            ("calibration_after", calib(self.after)),
            ("noisy", self.noisy().into()),
        ])
    }
}

/// The value measured for `name`; a metric that does not apply to the
/// workload reads 0.
fn value_of(values: &Values, name: &str) -> f64 {
    values
        .iter()
        .find(|(measured, _)| *measured == name)
        .map_or(0.0, |(_, value)| *value)
}

fn metric_entries(defs: &[Metric], values: &Values) -> Json {
    Json::Obj(
        defs.iter()
            .map(|def| {
                let value = value_of(values, def.name);
                (
                    def.name.to_string(),
                    obj([("value", value.into()), ("unit", def.unit.into())]),
                )
            })
            .collect(),
    )
}

/// The result file of one run of `workload`.
pub fn result_path(workload: &str, seed: u64, traced: bool, smoke: bool) -> PathBuf {
    crate::out_dir().join(format!(
        "result_{workload}_seed{seed}_trace{}{}.json",
        u8::from(traced),
        if smoke { "_smoke" } else { "" },
    ))
}

/// One finished run, ready to print and store.
pub struct RunReport {
    pub provenance: Provenance,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Free-form sections of the result file (samples, budget table…).
    pub sections: Vec<(&'static str, Json)>,
}

impl RunReport {
    pub fn from_outcome(provenance: Provenance, outcome: &Outcome) -> Self {
        Self {
            attempted: outcome.tally.attempted,
            failed: outcome.tally.failed,
            values: end_to_end(outcome, true),
            sections: vec![
                ("samples", sample_summary(outcome)),
                ("detail", outcome.detail.clone()),
            ],
            provenance,
        }
    }

    fn defs(&self) -> &'static [Metric] {
        if self.provenance.traced {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The driver's contract: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, on one line.
    pub fn contract_line(&self) -> String {
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", metric_entries(self.defs(), &self.values)),
        ])
        .render()
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("provenance".to_string(), self.provenance.to_json()),
            ("correct".to_string(), self.correct().into()),
            ("attempted".to_string(), self.attempted.into()),
            ("failed".to_string(), self.failed.into()),
            (
                "failed_frac".to_string(),
                (self.failed as f64 / self.attempted.max(1) as f64).into(),
            ),
            (
                "metrics".to_string(),
                metric_entries(self.defs(), &self.values),
            ),
        ];
        for (name, section) in &self.sections {
            fields.push(((*name).to_string(), section.clone()));
        }
        Json::Obj(fields)
    }

    /// Where this run's result file goes.
    pub fn path(&self) -> PathBuf {
        let p = &self.provenance;
        result_path(&p.workload, p.seed, p.traced, p.scale.smoke)
    }

    /// Prints every metric by name with its unit.
    pub fn print(&self) {
        let p = &self.provenance;
        println!(
            "workload {} seed {} scale {} trace {}",
            p.workload,
            p.seed,
            if p.scale.smoke { "smoke" } else { "full" },
            u8::from(p.traced)
        );
        for def in self.defs() {
            let value = value_of(&self.values, def.name);
            println!("  {:<34} {:>14.4} {}", def.name, value, def.unit);
        }
        println!(
            "  {:<34} {:>14} of {} (failed_frac {})",
            "failed",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        println!(
            "  host.calib_cpu_ms {:.2} -> {:.2}, host.calib_fsync_ms {:.2} -> {:.2}, noisy: {}",
            p.before.cpu_ms,
            p.after.cpu_ms,
            p.before.fsync_ms,
            p.after.fsync_ms,
            p.noisy()
        );
    }
}
