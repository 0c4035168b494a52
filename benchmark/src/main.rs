//! The SafetyPin service benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! run.sh [--seed N] [--workload W] [--traced] [--smoke]  every workload, one result set
//! run.sh compare A.json B.json                           two result sets, metric by metric
//! run.sh spread RESULT.json...                           quartile spread across runs
//! run.sh manifest                                        prints BENCHMARK.json
//! ```

mod compare;
mod e2e;
mod flows;
mod gen;
mod host;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod suite;
mod trace;
mod traced;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use flows::Error;
use report::{Provenance, RunReport};
use spec::{Scale, RUN_SECONDS, WORKLOADS};

/// Where result files, traces and scratch directories go: inside the
/// benchmark's own directory, wherever the checkout is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Parsed command line of a single run or a suite.
pub struct Options {
    pub workloads: Vec<String>,
    pub seed: u64,
    pub seconds: u64,
    /// `--trace 0|1`: present only in the driver's single-run form.
    pub trace: Option<bool>,
    /// `--traced`: the suite also makes the traced runs.
    pub traced: bool,
    pub smoke: bool,
    pub label: Option<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Self, Error> {
        let mut options = Options {
            workloads: Vec::new(),
            seed: 1,
            seconds: RUN_SECONDS,
            trace: None,
            traced: false,
            smoke: false,
            label: None,
        };
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    if !WORKLOADS.iter().any(|w| w.name == name) {
                        return Err(format!("unknown workload {name}").into());
                    }
                    options.workloads.push(name.to_string());
                }
                "--seed" => options.seed = value()?.parse()?,
                "--seconds" => options.seconds = value()?.parse()?,
                "--trace" => {
                    options.trace = Some(match value()? {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                    })
                }
                "--traced" => options.traced = true,
                "--smoke" => options.smoke = true,
                "--label" => options.label = Some(value()?.to_string()),
                other => return Err(format!("unknown argument {other}").into()),
            }
        }
        Ok(options)
    }

    pub fn scale(&self) -> Scale {
        if self.smoke {
            Scale::smoke()
        } else {
            Scale::full()
        }
    }
}

/// One run of one workload: the driver's contract. Prints every metric,
/// writes the result file, and ends with the one-line JSON result.
fn run_one(options: &Options, workload: &str, traced: bool) -> Result<bool, Error> {
    let scale = options.scale();
    let limit = Duration::from_secs(options.seconds);
    host::drain_dirty_pages();
    let canary_dir = host::TempDir::new("canary")?;
    let before = host::calibrate(canary_dir.path())?;
    let mut provenance = Provenance {
        workload: workload.to_string(),
        seed: options.seed,
        seconds: options.seconds,
        traced,
        scale,
        // Every store directory of the run is a sibling of this one.
        store_fs: host::fs_type(canary_dir.path()),
        before,
        after: before,
    };
    let report = if traced {
        let run = traced::run(workload, &scale, options.seed)?;
        provenance.after = host::calibrate(canary_dir.path())?;
        run.into_report(provenance)
    } else {
        let outcome = match workload {
            "recover_solo" => e2e::recover_solo(&scale, options.seed, limit),
            "recover_wave" => e2e::recover_wave(&scale, options.seed, limit),
            "save_mixed" => e2e::save_mixed(&scale, options.seed, limit),
            "inproc_wave" => e2e::inproc_wave(&scale, options.seed, limit),
            other => return Err(format!("unknown workload {other}").into()),
        }?;
        provenance.after = host::calibrate(canary_dir.path())?;
        RunReport::from_outcome(provenance, &outcome)
    };
    drop(canary_dir);
    report.print();
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(report.path(), report.to_json().pretty())?;
    println!("result file: {}", report.path().display());
    println!("{}", report.contract_line());
    Ok(report.correct())
}

fn run(args: &[String]) -> Result<bool, Error> {
    match args.first().map(String::as_str) {
        Some("compare") => compare::compare(&args[1..]),
        Some("spread") => compare::spread(&args[1..]),
        Some("manifest") => {
            print!("{}", spec::manifest().pretty());
            Ok(true)
        }
        _ => {
            let options = Options::parse(args)?;
            match (options.trace, options.workloads.as_slice()) {
                (Some(traced), [workload]) => run_one(&options, workload, traced),
                (Some(_), _) => Err("--trace needs exactly one --workload".into()),
                (None, _) => suite::run(&options),
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}
