//! `safetypin-load` — the over-the-wire load generator.
//!
//! Drives save/recover storms against a running `safetypind` (see
//! `safetypin_daemon::load`) and prints the measured rates and latency
//! percentiles. The repository's recorded numbers come from
//! `benchmark/` (see `benchmark/README.md`), not from this tool.

use std::process::ExitCode;

use safetypin_daemon::load::{self, percentile_ms, LoadOptions};

const USAGE: &str = "\
usage: safetypin-load <addr> [options]

options:
  --users N    total users (default 24; half solo, half batch wave)
  --threads T  concurrent connections (default 4)
  --quick      CI scale: 6 users over 2 connections
";

fn parse_args() -> Result<LoadOptions, String> {
    let mut argv = std::env::args().skip(1);
    let addr = argv.next().ok_or_else(|| USAGE.to_string())?;
    let mut opts = LoadOptions::new(addr);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--users" => {
                opts.users = value("a count")?
                    .parse()
                    .map_err(|e| format!("--users: {e}"))?
            }
            "--threads" => {
                opts.threads = value("a count")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--quick" => opts = opts.quick(),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if opts.users == 0 {
        return Err("--users must be positive".to_string());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("safetypin-load: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match load::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("safetypin-load: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "saved {} backups in {:.2}s ({:.1}/s)",
        report.users,
        report.save_secs,
        report.users as f64 / report.save_secs.max(1e-9),
    );
    println!(
        "saved {} backups in one SaveBatch wave in {:.2}s ({:.1}/s over the wire)",
        report.users,
        report.wave_save_secs,
        report.users as f64 / report.wave_save_secs.max(1e-9),
    );
    println!(
        "recovered {} users solo in {:.2}s ({:.2}/s over the wire)",
        report.solo_recoveries,
        report.recover_secs,
        report.solo_recoveries as f64 / report.recover_secs.max(1e-9),
    );
    println!(
        "recovered {} users in one batch wave in {:.2}s ({:.2}/s over the wire)",
        report.wave_recoveries,
        report.wave_secs,
        report.wave_recoveries as f64 / report.wave_secs.max(1e-9),
    );
    for (what, samples) in [
        ("save", &report.save_samples_us),
        ("recover", &report.recover_samples_us),
    ] {
        println!(
            "{what} latency p50 {:.1}ms / p95 {:.1}ms / p99 {:.1}ms",
            percentile_ms(samples, 0.50),
            percentile_ms(samples, 0.95),
            percentile_ms(samples, 0.99),
        );
    }
    ExitCode::SUCCESS
}
