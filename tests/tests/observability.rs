//! Observability acceptance tests: a running `safetypind` must answer
//! `ProviderRequest::Metrics` with live series covering every layer
//! (daemon, deployment phases, store, transport), injected transport
//! faults must land in telemetry counters exactly, and leaving the
//! registry enabled must not cost a load storm more than 10% of its
//! untelemetered throughput.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::proto::{FaultPlan, Faulty, Serialized, Transport};
use safetypin::{DeploymentBuilder, SystemParams};
use safetypin_client::remote::{self, RecoverySession};
use safetypin_client::Client;
use safetypin_daemon::{Daemon, DaemonConfig, DaemonHandle};
use safetypin_proto::tcp::{Tcp, TcpConfig};
use safetypin_proto::{MetricsReport, ProviderRequest, ProviderResponse};
use safetypin_store::Durability;
use safetypin_telemetry::Registry;

/// Tests here flip or assert on the process-wide registry; serialize
/// them so a disabled window in one cannot freeze another's counters.
static GLOBAL_TELEMETRY: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("safetypin-obs-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(tag: &str, seed: u64) -> DaemonHandle {
    let config = DaemonConfig::new(tmpdir(tag), SystemParams::test_small(6))
        .durability(Durability::Relaxed)
        .io_timeout(Duration::from_secs(5))
        .seed(seed);
    Daemon::bind(config).unwrap()
}

fn scrape(addr: &str) -> MetricsReport {
    let mut tcp = Tcp::connect(TcpConfig::new(addr)).unwrap();
    match tcp.call(ProviderRequest::Metrics).unwrap() {
        ProviderResponse::Metrics(report) => report,
        other => panic!("expected a Metrics reply, got {other:?}"),
    }
}

fn histogram_count(report: &MetricsReport, name: &str) -> u64 {
    report.histogram(name).map_or(0, |h| h.count)
}

/// Acceptance criterion: after a save and a recovery over the wire,
/// the daemon's Metrics reply carries non-zero series from every layer
/// — daemon policy/latency, deployment phase spans, store WAL meters,
/// and framed-TCP transport counters.
#[test]
fn daemon_metrics_cover_every_layer_over_the_wire() {
    let _guard = GLOBAL_TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());
    safetypin_telemetry::global().set_enabled(true);

    let handle = boot("layers", 0x0B5_E001);
    let addr = handle.addr().to_string();
    let before = scrape(&addr);

    // One full save + recover through the public client protocol. Every
    // request sent below is a status or fleet request, and `sent`
    // counts them.
    let mut sent = 0u64;
    let mut conn = Tcp::connect(TcpConfig::new(addr.clone())).unwrap();
    let mut tcp = |request: ProviderRequest| {
        sent += 1;
        conn.call(request)
    };
    let mut rng = StdRng::seed_from_u64(7);
    let mut client = remote::connect(&mut tcp, b"obs-user").unwrap();
    remote::save(&mut tcp, &mut client, b"482911", b"observed", &mut rng).unwrap();
    let artifact = remote::fetch_backup(&mut tcp, b"obs-user").unwrap();
    let plaintext = remote::recover(&mut tcp, &client, b"482911", &artifact, &mut rng).unwrap();
    assert_eq!(plaintext, b"observed");

    // One single-frame save wave so the grouped save path fires too.
    let mut wave_client = remote::connect(&mut tcp, b"obs-wave-user").unwrap();
    let wave_artifact = wave_client.backup(b"111222", b"wave", 0, &mut rng).unwrap();
    let saves = vec![safetypin_proto::SaveRequest {
        username: b"obs-wave-user".to_vec(),
        blob: remote::encode_artifact(&wave_artifact),
    }];
    match tcp(ProviderRequest::SaveBatch(saves)).unwrap() {
        ProviderResponse::SavedBatch(outcomes) => assert_eq!(outcomes.len(), 1),
        other => panic!("expected a SavedBatch reply, got {other:?}"),
    }
    drop(conn);

    let report = scrape(&addr);
    handle.shutdown().unwrap();

    // Daemon layer: request accounting and end-to-end latency.
    assert!(report.counter("daemon.requests").unwrap_or(0) > 0);
    assert!(histogram_count(&report, "daemon.request") > 0);
    // Exactly one fleet-lock wait per status or fleet request: the
    // series the benchmark scrapes as `daemon.lock_wait_ms`.
    assert!(sent > 0);
    assert_eq!(
        histogram_count(&report, "daemon.lock_wait") - histogram_count(&before, "daemon.lock_wait"),
        sent,
        "daemon.lock_wait must record one wait per status or fleet request"
    );

    // Deployment layer: the Figure-10 phase spans fired on the
    // wire-facing dispatch (the same histograms `Deployment::recover`
    // feeds in process).
    for phase in [
        "recover.log_insert",
        "recover.epoch",
        "recover.inclusion",
        "recover.cluster_round",
        "save.commit",
    ] {
        assert!(
            histogram_count(&report, phase) > 0,
            "phase histogram {phase} never recorded"
        );
    }

    // Provider layer: what certifying the recovery's epoch cost the
    // fleet — chunks cut, audit packages shipped, their bytes.
    for series in ["epoch.chunks", "epoch.audit_packages", "epoch.audit_bytes"] {
        assert!(
            report.counter(series).unwrap_or(0) > 0,
            "epoch cost counter {series} never recorded"
        );
    }

    // Store layer: the fleet's WAL took appends during provisioning
    // and the save/recover traffic.
    assert!(report.counter("store.wal_appends").unwrap_or(0) > 0);
    assert!(report.counter("store.wal_bytes").unwrap_or(0) > 0);

    // Transport layer: the daemon's framed-TCP server counted our
    // frames in both directions.
    assert!(report.counter("tcp.frames_in").unwrap_or(0) > 0);
    assert!(report.counter("tcp.frames_out").unwrap_or(0) > 0);
    assert!(report.counter("tcp.bytes_in").unwrap_or(0) > 0);
    assert!(report.counter("tcp.bytes_out").unwrap_or(0) > 0);

    // The text exposition renders every asserted series.
    let text = report.render_text();
    for series in ["daemon.requests", "recover.epoch", "store.wal_appends"] {
        assert!(text.contains(series), "text exposition missing {series}");
    }
}

/// Acceptance criterion: every fault a `Faulty` transport injects is
/// counted — the private-registry counters equal the transport's own
/// fault statistics exactly, so chaos tests can assert "exactly N
/// faults fired" instead of inferring from recovery outcomes.
#[test]
fn faulty_injections_land_in_telemetry_exactly() {
    let registry = Registry::new();
    // The recovery round only touches one cluster (a handful of HSMs),
    // so the probabilities are high to make the deterministic seed
    // fire at least one drop.
    let plan = FaultPlan::drop(0.5).with_corrupt(0.2).recovery_only();
    let transport: Box<dyn Transport> =
        Box::new(Faulty::new(Box::new(Serialized::cdc()), plan, 0xFA17).with_registry(&registry));
    let mut rng = StdRng::seed_from_u64(0xFA17_5EED);
    let mut d = DeploymentBuilder::test_small(16)
        .transport(transport)
        .provision(&mut rng)
        .unwrap();

    let mut client = d.new_client(b"chaos-user").unwrap();
    let artifact = client
        .backup(b"630172", b"chaos secret", 0, &mut rng)
        .unwrap();
    let outcome = d.recover(&client, b"630172", &artifact, &mut rng).unwrap();
    assert_eq!(outcome.message, b"chaos secret");

    let stats = d.datacenter.transport_stats();
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("faults.injected_drop").unwrap_or(0),
        stats.dropped,
        "drop counter diverged from the transport's own ledger"
    );
    assert_eq!(
        snapshot.counter("faults.injected_corrupt").unwrap_or(0),
        stats.corrupted,
        "corrupt counter diverged from the transport's own ledger"
    );
    assert!(
        stats.dropped > 0,
        "the plan never fired a drop — the assertion above proved nothing"
    );
    // The private registry kept the process-wide ledger untouched.
    let global = safetypin_telemetry::global().snapshot();
    assert_eq!(global.counter("faults.injected_drop").unwrap_or(0), 0);
}

/// One storm: twelve users save one at a time, then six of them recover
/// in two waves of three, over one real TCP connection (closed on
/// return, so the daemon drains at once); every plaintext is checked.
fn save_recover_storm(addr: &str, seed: u64) {
    let mut tcp = Tcp::connect(TcpConfig::new(addr)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (params, enrollments) = remote::fetch_fleet(&mut tcp).unwrap();
    let users: Vec<_> = (0..12)
        .map(|i| {
            let name = format!("storm-user-{i}");
            let pin = format!("{:06}", 1319 * i + 71).into_bytes();
            let mut client = Client::new(name.as_bytes(), params, enrollments.clone()).unwrap();
            let artifact =
                remote::save(&mut tcp, &mut client, &pin, name.as_bytes(), &mut rng).unwrap();
            (client, pin, artifact)
        })
        .collect();
    let sessions: Vec<_> = users[..6]
        .iter()
        .map(|(client, pin, artifact)| RecoverySession {
            client,
            pin,
            artifact,
        })
        .collect();
    let recovered = sessions
        .chunks(3)
        .flat_map(|wave| remote::recover_many(&mut tcp, wave, &mut rng));
    for (i, recovered) in recovered.enumerate() {
        assert_eq!(
            recovered.unwrap().message,
            format!("storm-user-{i}").into_bytes()
        );
    }
}

/// Acceptance criterion: a load storm with telemetry enabled stays
/// within 10% of untelemetered throughput — the storm is dominated by
/// P-256 crypto, so the counters' relaxed atomics are far below the
/// bound.
///
/// A storm is ~0.15 s of wall clock and this host's speed drifts by
/// more than the bound within seconds (storm times spread ±12%, with
/// a long fast tail), so comparing two minima of two runs each failed
/// about one run in twenty on an idle machine. The drift is common to
/// storms run back to back: each round runs one storm per mode on the
/// same seed (so both modes serve the same users and bytes), adjacent in
/// time and in alternating order, against fresh daemons, and the
/// **median of the per-round ratios** is held to the bound.
const OVERHEAD_ROUNDS: usize = 11;

#[test]
fn telemetry_overhead_stays_within_ten_percent() {
    let _guard = GLOBAL_TELEMETRY.lock().unwrap_or_else(|e| e.into_inner());

    let storm = |seed: u64, enabled: bool| -> f64 {
        safetypin_telemetry::global().set_enabled(enabled);
        let handle = boot(if enabled { "on" } else { "off" }, seed);
        let start = Instant::now();
        save_recover_storm(&handle.addr().to_string(), seed);
        let secs = start.elapsed().as_secs_f64();
        handle.shutdown().unwrap();
        secs
    };

    let mut ratios: Vec<f64> = (0..OVERHEAD_ROUNDS as u64)
        .map(|round| {
            let enabled_first = round % 2 == 1;
            let seed = 0x0FF_000 + round;
            let first = storm(seed, enabled_first);
            let second = storm(seed, !enabled_first);
            if enabled_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    safetypin_telemetry::global().set_enabled(true);

    ratios.sort_by(f64::total_cmp);
    let median = ratios[OVERHEAD_ROUNDS / 2];
    assert!(
        median <= 1.10,
        "telemetry-enabled storms took {median:.3}x the untelemetered ones          (median of {ratios:.3?}; more than 10% slower)"
    );
}
