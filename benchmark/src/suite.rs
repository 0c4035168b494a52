//! The one command: every workload, each in a process of its own (peak
//! memory and the telemetry registry are per process), gathered into
//! one result set.

use std::path::PathBuf;
use std::process::Command;

use crate::flows::Error;
use crate::json::{obj, Json};
use crate::report;
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::Options;

/// Checks a run's one-line result against the contract: exactly the
/// four keys, and exactly the manifest's metrics with their units.
fn check_contract_line(line: &str, traced: bool) -> Result<(), Error> {
    let result = Json::parse(line)?;
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result line has keys {keys:?}").into());
    }
    let defs: &[spec::Metric] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = result.get("metrics").map_or(&[][..], Json::fields);
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = defs.iter().map(|d| d.name).collect();
    if names != wanted {
        return Err(format!("result line has metrics {names:?}, the manifest {wanted:?}").into());
    }
    for (def, (_, entry)) in defs.iter().zip(metrics) {
        let unit_ok = entry.get("unit").and_then(Json::str) == Some(def.unit);
        if !unit_ok || entry.get("value").and_then(Json::num).is_none() {
            return Err(
                format!("metric {} lacks a value or its unit {}", def.name, def.unit).into(),
            );
        }
    }
    Ok(())
}

/// The root `BENCHMARK.json`, when the benchmark sits in a checkout, must
/// be what `manifest` prints.
fn check_manifest() -> Result<(), Error> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let Ok(text) = std::fs::read_to_string(&path) else {
        return Ok(());
    };
    if Json::parse(&text)? != spec::manifest() {
        return Err("BENCHMARK.json differs from `run.sh manifest`; regenerate it".into());
    }
    Ok(())
}

pub fn run(options: &Options) -> Result<bool, Error> {
    check_manifest()?;
    let workloads: Vec<&str> = if options.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        options.workloads.iter().map(String::as_str).collect()
    };
    let exe = std::env::current_exe()?;
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &workloads {
        for traced in [false, true] {
            if traced && !options.traced {
                continue;
            }
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload])
                .args(["--seed", &options.seed.to_string()])
                .args(["--seconds", &options.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if options.smoke {
                command.arg("--smoke");
            }
            let output = command.output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            // Exit code 1 is a run that finished with wrong outputs; it
            // still has a result to keep. Anything else has none.
            if !matches!(output.status.code(), Some(0 | 1)) {
                return Err(
                    format!("{workload} (trace {}) did not finish", u8::from(traced)).into(),
                );
            }
            check_contract_line(stdout.lines().last().unwrap_or(""), traced)?;
            all_correct &= output.status.success();
            let path = report::result_path(workload, options.seed, traced, options.smoke);
            results.push(Json::parse(&std::fs::read_to_string(path)?)?);
        }
    }

    let label = options.label.clone().unwrap_or_else(|| {
        format!(
            "seed{}{}",
            options.seed,
            if options.smoke { "_smoke" } else { "" }
        )
    });
    let set = obj([
        ("label", label.as_str().into()),
        ("seed", options.seed.into()),
        ("scale", options.scale().to_json()),
        ("claim", Json::Null),
        ("results", Json::Arr(results)),
    ]);
    let path = crate::out_dir().join(format!("set_{label}.json"));
    std::fs::write(&path, set.pretty())?;
    println!("result set: {}", path.display());
    if options.smoke {
        println!("smoke numbers exercise the code paths only: never compare them");
    }
    Ok(all_correct)
}
