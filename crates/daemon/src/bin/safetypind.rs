//! `safetypind` — the SafetyPin provider daemon.
//!
//! Boots (or restores) a fleet from a snapshot directory and serves it
//! over framed TCP until a client sends a shutdown request, then
//! drains and persists. See `safetypin_daemon` for the protocol.

use std::process::ExitCode;
use std::time::Duration;

use safetypin::SystemParams;
use safetypin_daemon::{Daemon, DaemonConfig};
use safetypin_store::Durability;

const USAGE: &str = "\
usage: safetypind --store-dir DIR [options]

options:
  --listen ADDR        listen address (default 127.0.0.1:4460; port 0 picks one)
  --store-dir DIR      snapshot directory (required; created on first boot)
  --fleet N            test-scale fleet of N HSMs (default 8)
  --scaled N CLUSTER SLOTS
                       paper-scale fleet: N HSMs, CLUSTER-HSM clusters,
                       SLOTS-slot puncturable keys
  --relaxed            skip fsync (CI knob; WAL discipline unchanged)
  --max-connections M  concurrent-connection ceiling (default 64; 0 = unlimited)
  --rate-limit R       per-connection requests/second (default 0 = unlimited)
  --io-timeout-secs S  per-connection socket timeout (default 30)
  --seed S             RNG seed for first-boot provisioning and, on every
                       start, for serving requests (default 0)
";

struct Args {
    listen: String,
    store_dir: Option<String>,
    fleet: u64,
    scaled: Option<(u64, usize, u64)>,
    relaxed: bool,
    max_connections: usize,
    rate_limit: u32,
    io_timeout_secs: u64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:4460".to_string(),
        store_dir: None,
        fleet: 8,
        scaled: None,
        relaxed: false,
        max_connections: 64,
        rate_limit: 0,
        io_timeout_secs: 30,
        seed: 0,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--listen" => args.listen = value("an address")?,
            "--store-dir" => args.store_dir = Some(value("a directory")?),
            "--fleet" => {
                args.fleet = value("a count")?
                    .parse()
                    .map_err(|e| format!("--fleet: {e}"))?
            }
            "--scaled" => {
                let total = value("a fleet size")?
                    .parse()
                    .map_err(|e| format!("--scaled N: {e}"))?;
                let cluster = value("a cluster size")?
                    .parse()
                    .map_err(|e| format!("--scaled CLUSTER: {e}"))?;
                let slots = value("a slot count")?
                    .parse()
                    .map_err(|e| format!("--scaled SLOTS: {e}"))?;
                args.scaled = Some((total, cluster, slots));
            }
            "--relaxed" => args.relaxed = true,
            "--max-connections" => {
                args.max_connections = value("a count")?
                    .parse()
                    .map_err(|e| format!("--max-connections: {e}"))?
            }
            "--rate-limit" => {
                args.rate_limit = value("a rate")?
                    .parse()
                    .map_err(|e| format!("--rate-limit: {e}"))?
            }
            "--io-timeout-secs" => {
                args.io_timeout_secs = value("seconds")?
                    .parse()
                    .map_err(|e| format!("--io-timeout-secs: {e}"))?
            }
            "--seed" => {
                args.seed = value("a seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("safetypind: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(store_dir) = args.store_dir else {
        eprintln!("safetypind: --store-dir is required");
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let params = match args.scaled {
        Some((total, cluster, slots)) => match SystemParams::scaled(total, cluster, slots) {
            Ok(params) => params,
            Err(e) => {
                eprintln!("safetypind: invalid --scaled parameters: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => SystemParams::test_small(args.fleet),
    };
    let config = DaemonConfig::new(store_dir, params)
        .listen(args.listen)
        .durability(if args.relaxed {
            Durability::Relaxed
        } else {
            Durability::Strict
        })
        .max_connections(args.max_connections)
        .rate_limit(args.rate_limit)
        .io_timeout(Duration::from_secs(args.io_timeout_secs))
        .seed(args.seed);
    let handle = match Daemon::bind(config) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("safetypind: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The line scripts wait for: address first, on stdout, flushed.
    println!("safetypind listening on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match handle.wait() {
        Ok(meta) => {
            println!(
                "safetypind drained; persisted fleet of {} (epoch count {})",
                meta.fleet_size, meta.epoch_count
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("safetypind: {e}");
            ExitCode::FAILURE
        }
    }
}
