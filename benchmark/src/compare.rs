//! `compare`: two result sets of the same benchmark, metric by metric
//! against the bounds. `spread`: the driver's steadiness measure over
//! many runs.

use std::collections::BTreeMap;

use crate::flows::Error;
use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;

/// A failed fraction may rise by this much (absolute) before it counts
/// as worse.
const FAILED_FRAC_SLACK: f64 = 0.002;

/// The results in a file: a result set holds many, a result file one.
fn load(path: &str) -> Result<Vec<Json>, Error> {
    let json = Json::parse(&std::fs::read_to_string(path)?).map_err(|e| format!("{path}: {e}"))?;
    Ok(match json.get("results") {
        Some(results) => results.arr().to_vec(),
        None => vec![json],
    })
}

fn provenance<'a>(result: &'a Json, key: &str) -> Option<&'a Json> {
    result.get("provenance").and_then(|p| p.get(key))
}

fn find<'a>(results: &'a [Json], workload: &str, traced: bool) -> Option<&'a Json> {
    results.iter().find(|r| {
        provenance(r, "workload").and_then(Json::str) == Some(workload)
            && provenance(r, "traced").and_then(Json::bool) == Some(traced)
    })
}

fn metric(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.num()
}

fn noisy(result: &Json) -> bool {
    provenance(result, "noisy").and_then(Json::bool) == Some(true)
}

fn is_smoke(result: &Json) -> bool {
    provenance(result, "scale")
        .and_then(|s| s.get("label"))
        .and_then(Json::str)
        == Some("smoke")
}

/// `compare A B`: per workload × end-to-end metric, the two values, how
/// much worse B is than A as a share of A, the bound, and a verdict —
/// `ok`, `worse`, or `unresolved(noisy)` when B reads worse but the
/// canary marked either run noisy. Then, for traced results, whether
/// the exact per-operation counts agree. Fails when anything is `worse`.
pub fn compare(args: &[String]) -> Result<bool, Error> {
    let [a_path, b_path] = args else {
        return Err("compare takes two result files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if a.iter().chain(&b).any(is_smoke) {
        return Err("smoke results are never compared".into());
    }
    let mut all_ok = true;
    for workload in WORKLOADS.iter().map(|w| w.name) {
        if let (Some(ra), Some(rb)) = (find(&a, workload, false), find(&b, workload, false)) {
            let unsteady = noisy(ra) || noisy(rb);
            println!(
                "{workload} (seeds {} / {}{})",
                provenance(ra, "seed").and_then(Json::num).unwrap_or(0.0),
                provenance(rb, "seed").and_then(Json::num).unwrap_or(0.0),
                if unsteady { ", noisy" } else { "" }
            );
            println!(
                "  {:<16} {:>12} {:>12} {:>9} {:>7}  verdict",
                "metric", "A", "B", "worse by", "bound"
            );
            for def in &END_TO_END {
                let (Some(va), Some(vb)) = (metric(ra, def.name), metric(rb, def.name)) else {
                    return Err(format!("{workload} lacks {}", def.name).into());
                };
                let worse_by = if def.better == "lower" {
                    (vb - va) / va
                } else {
                    (va - vb) / va
                };
                let bound = def.bound.unwrap_or(0.0);
                let verdict = match (worse_by <= bound, unsteady) {
                    (true, _) => "ok",
                    (false, true) => "unresolved(noisy)",
                    (false, false) => "worse",
                };
                all_ok &= verdict != "worse";
                println!(
                    "  {:<16} {:>12.4} {:>12.4} {:>8.1}% {:>6.0}%  {verdict}",
                    def.name,
                    va,
                    vb,
                    100.0 * worse_by,
                    100.0 * bound
                );
            }
            let frac = |r: &Json| r.get("failed_frac").and_then(Json::num).unwrap_or(1.0);
            let verdict = if frac(rb) <= frac(ra) + FAILED_FRAC_SLACK {
                "ok"
            } else {
                "worse"
            };
            all_ok &= verdict == "ok";
            println!(
                "  {:<16} {:>12.4} {:>12.4} {:>9} {:>7}  {verdict}",
                "failed_frac",
                frac(ra),
                frac(rb),
                "",
                "+0.002"
            );
        }
        if let (Some(ra), Some(rb)) = (find(&a, workload, true), find(&b, workload, true)) {
            let differing: Vec<&str> = PER_LAYER
                .iter()
                .filter(|def| matches!(def.unit, "count" | "B"))
                .filter(|def| metric(ra, def.name) != metric(rb, def.name))
                .map(|def| def.name)
                .collect();
            println!(
                "{workload} traced: per-operation counts {}",
                if differing.is_empty() {
                    "identical".to_string()
                } else {
                    format!("differ in {}", differing.join(", "))
                }
            );
        }
    }
    Ok(all_ok)
}

/// `spread RESULT...`: for each workload, over all the given untraced
/// runs, each end-to-end metric's median and the distance between its
/// first and third quartile as a share of the median — what the driver
/// accepts only within the metric's bound, and this benchmark aims to
/// keep below a third of it.
pub fn spread(args: &[String]) -> Result<bool, Error> {
    let mut runs: BTreeMap<String, Vec<Json>> = BTreeMap::new();
    for path in args {
        for result in load(path)? {
            let traced = provenance(&result, "traced").and_then(Json::bool) == Some(true);
            let workload = provenance(&result, "workload").and_then(Json::str);
            if let (false, Some(workload)) = (traced || is_smoke(&result), workload) {
                runs.entry(workload.to_string()).or_default().push(result);
            }
        }
    }
    let mut steady = true;
    for (workload, results) in &runs {
        println!("{workload}: {} runs", results.len());
        println!(
            "  {:<16} {:>12} {:>8} {:>7}  verdict",
            "metric", "median", "spread", "bound"
        );
        for def in &END_TO_END {
            let values: Vec<f64> = results.iter().filter_map(|r| metric(r, def.name)).collect();
            let spread = stats::quartile_spread(&values);
            let bound = def.bound.unwrap_or(0.0);
            // The driver puts no limit on the spread of set-up time.
            let verdict = if def.name == "setup_s" {
                "-"
            } else if spread <= bound / 3.0 {
                "steady"
            } else if spread <= bound {
                "within bound"
            } else {
                "too wide"
            };
            steady &= verdict != "too wide";
            println!(
                "  {:<16} {:>12.4} {:>7.1}% {:>6.0}%  {verdict}",
                def.name,
                stats::median(&values),
                100.0 * spread,
                100.0 * bound
            );
        }
    }
    Ok(steady)
}
