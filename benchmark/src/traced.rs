//! The traced run (`--trace 1`): every per-layer metric of one
//! workload, and its per-operation budget table.
//!
//! It has up to four parts, none of them timed for the end-to-end
//! metrics:
//!
//! 1. a short session against a real daemon, for what only the daemon
//!    can say (its own request and lock-wait histograms by scrape, the
//!    fixed cost of a frame, persist and restore times) and for the
//!    whole the budget is checked against — the untraced wire
//!    operation;
//! 2. an in-process replay of the workload's operations through
//!    [`TracedEndpoint`] and [`TracedTransport`] on the same persisted
//!    fleet, in interleaved blocks of three modes — spans off, spans on,
//!    telemetry off — so the two overhead ratios compare like with like;
//! 3. the layer drivers of [`crate::layers`];
//! 4. the budget table: per-operation self time by span, the per-frame
//!    cost the replay does not have, and what is left unattributed.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;

use safetypin::{Deployment, DeploymentBuilder};
use safetypin_client::remote::{self, ProviderEndpoint};
use safetypin_proto::{MetricsReport, ProviderRequest, ProviderResponse, TransportStats};
use safetypin_seckv::{BlockStore, StoreStats};
use safetypin_store::FileOptions;

use crate::e2e::{self, Tally, Wire};
use crate::flows::{self, Error, Fleet, Seeded};
use crate::gen::{self, User};
use crate::host::{self, TempDir};
use crate::json::{obj, Json};
use crate::layers;
use crate::report::{Provenance, RunReport, Values};
use crate::spec::{Scale, WAVE};
use crate::stats;
use crate::trace::{TracedEndpoint, TracedTransport, Tracer};

pub struct TracedRun {
    values: Values,
    attempted: u64,
    failed: u64,
    budget: Json,
}

impl TracedRun {
    pub fn into_report(mut self, provenance: Provenance) -> RunReport {
        self.values
            .push(("host.calib_cpu_ms", provenance.after.cpu_ms));
        self.values
            .push(("host.calib_fsync_ms", provenance.after.fsync_ms));
        RunReport {
            provenance,
            attempted: self.attempted,
            failed: self.failed,
            values: self.values,
            sections: vec![("budget", self.budget)],
        }
    }
}

/// How the replay runs a block of operations.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Spans off, telemetry as shipped: the baseline of both ratios.
    Plain,
    /// Spans on: the source of every traced number.
    Traced,
    /// Spans off, telemetry registry disabled.
    TelemetryOff,
}

const MODES: [Mode; 3] = [Mode::Plain, Mode::Traced, Mode::TelemetryOff];

/// Counters read around the traced blocks.
#[derive(Default)]
struct Counters {
    group: p256::OpCounts,
    fleet: StoreStats,
    wal: StoreStats,
    transport: TransportStats,
    wal_bytes: u64,
}

impl Counters {
    fn read<S: BlockStore + Send>(deployment: &Deployment<S>) -> Self {
        let dc = &deployment.datacenter;
        Self {
            group: p256::op_counts(),
            fleet: dc.fleet_store_stats(),
            wal: dc.log_wal_stats().unwrap_or_default(),
            transport: dc.transport_stats(),
            wal_bytes: safetypin_telemetry::global()
                .counter("store.wal_bytes")
                .get(),
        }
    }

    /// Adds `after − before` into `self`.
    fn absorb_delta(&mut self, before: &Counters, after: &Counters) {
        let g = &mut self.group;
        g.var_mults += after.group.var_mults - before.group.var_mults;
        g.fixed_mults += after.group.fixed_mults - before.group.fixed_mults;
        g.msm_calls += after.group.msm_calls - before.group.msm_calls;
        g.msm_terms += after.group.msm_terms - before.group.msm_terms;
        for (total, before, after) in [
            (&mut self.fleet, &before.fleet, &after.fleet),
            (&mut self.wal, &before.wal, &after.wal),
        ] {
            total.reads += after.reads - before.reads;
            total.writes += after.writes - before.writes;
            total.cache_hits += after.cache_hits - before.cache_hits;
            total.cache_misses += after.cache_misses - before.cache_misses;
            total.flushes += after.flushes - before.flushes;
        }
        self.transport
            .absorb(&after.transport.since(&before.transport));
        self.wal_bytes += after.wal_bytes - before.wal_bytes;
    }
}

/// What the replay measured, per mode.
struct Replay {
    tallies: [Tally; 3],
    counters: Counters,
}

impl Replay {
    fn tally(&self, mode: Mode) -> &Tally {
        &self.tallies[MODES.iter().position(|m| *m == mode).expect("a known mode")]
    }

    fn traced_ops(&self) -> f64 {
        self.tally(Mode::Traced).ops().max(1) as f64
    }
}

/// Runs `blocks` in rotating modes; `run_block` executes one block's
/// operations into the tally it is given.
fn replay<B>(
    tracer: &Tracer,
    blocks: Vec<B>,
    mut read_counters: impl FnMut() -> Counters,
    mut run_block: impl FnMut(B, &mut Tally) -> Result<(), Error>,
) -> Result<Replay, Error> {
    let mut out = Replay {
        tallies: Default::default(),
        counters: Counters::default(),
    };
    for (i, block) in blocks.into_iter().enumerate() {
        let slot = i % MODES.len();
        let mode = MODES[slot];
        tracer.set_enabled(mode == Mode::Traced);
        safetypin_telemetry::global().set_enabled(mode != Mode::TelemetryOff);
        let before = read_counters();
        let outcome = run_block(block, &mut out.tallies[slot]);
        let after = read_counters();
        tracer.set_enabled(false);
        safetypin_telemetry::global().set_enabled(true);
        outcome?;
        if mode == Mode::Traced {
            out.counters.absorb_delta(&before, &after);
        }
    }
    Ok(out)
}

/// The daemon's own account of a session, by `Metrics` scrape.
fn scrape<E: ProviderEndpoint>(endpoint: &mut E) -> Result<MetricsReport, Error> {
    match endpoint.call(ProviderRequest::Metrics)? {
        ProviderResponse::Metrics(report) => Ok(report),
        _ => Err("expected a Metrics reply".into()),
    }
}

/// Microseconds a histogram gained between two scrapes.
fn histogram_delta(before: &MetricsReport, after: &MetricsReport, name: &str) -> f64 {
    let sum = |r: &MetricsReport| r.histogram(name).map_or(0, |h| h.sum);
    (sum(after) - sum(before)) as f64
}

/// Part 1: what the daemon session measured.
struct WireSession {
    values: Values,
    /// Mean untraced wire operation (after a warm-up quarter), the
    /// whole of the budget.
    whole_op_ms: f64,
    /// Of which, waiting for `save_mixed`'s client-side epoch lock.
    lock_wait_ms: f64,
    ping_ms: f64,
    tally: Tally,
}

/// Runs `ops` against the daemon between two scrapes, then pings,
/// persists and restores it. Leaves the fleet persisted in
/// `wire.dir` and the daemon stopped.
fn wire_session(
    mut wire: Wire,
    ops: impl FnOnce(&mut Wire, &mut Tally) -> Result<(), Error>,
) -> Result<(WireSession, TempDir, Fleet), Error> {
    let before = scrape(&mut wire.tcp)?;
    let mut tally = Tally::default();
    ops(&mut wire, &mut tally)?;
    let after = scrape(&mut wire.tcp)?;
    let op_count = tally.ops().max(1) as f64;

    let mut values = Values::new();
    let request_us = histogram_delta(&before, &after, "daemon.request");
    let lock_us = histogram_delta(&before, &after, "daemon.lock_wait");
    values.push(("daemon.request_ms", request_us / 1e3 / op_count));
    values.push(("daemon.lock_wait_ms", lock_us / 1e3 / op_count));
    let refused: u64 = after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("daemon.refused."))
        .map(|(name, total)| total - before.counter(name).unwrap_or(0))
        .sum();
    values.push(("daemon.refused", refused as f64));

    let pings: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            flows::status(&mut wire.tcp).map(|_| start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, _>>()?;
    let ping_ms = stats::median(&pings);
    values.push(("proto.ping_ms", ping_ms));

    let backups = flows::status(&mut wire.tcp)?.backups.max(1);
    let Wire {
        dir,
        config,
        handle,
        tcp,
        fleet,
    } = wire;
    drop(tcp);
    let start = Instant::now();
    handle.shutdown()?;
    values.push(("daemon.persist_s", start.elapsed().as_secs_f64()));
    values.push((
        "store.dir_bytes_per_user",
        host::dir_bytes(&config.store_dir) as f64 / backups as f64,
    ));
    let start = Instant::now();
    let handle = safetypin_daemon::Daemon::bind(config)?;
    values.push(("daemon.restore_s", start.elapsed().as_secs_f64()));
    handle.shutdown()?;

    let session = WireSession {
        values,
        whole_op_ms: tally.mean_op_ms(tally.samples.len() / 4),
        lock_wait_ms: tally.lock_wait_ms / op_count,
        ping_ms,
        tally,
    };
    Ok((session, dir, fleet))
}

/// One save per saver through `endpoint`, with a background solo
/// recovery after every second save — the mix of `save_mixed` on one
/// thread, so spans nest. Only the saves are operations; the
/// recoveries run with recording paused.
fn mixed_block<E: ProviderEndpoint>(
    endpoint: &mut E,
    fleet: &Fleet,
    savers: &[User],
    background: &[Seeded],
    rng: &mut StdRng,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(), Error> {
    let mut background = background.iter();
    for (i, user) in savers.iter().enumerate() {
        let mut client = fleet.client(&user.name)?;
        let (artifact, sample) = e2e::timed(1, Some(tracer), || {
            remote::save(endpoint, &mut client, &user.pin, &user.secret, rng)
        });
        tally.samples.push(sample);
        let stored = artifact.is_ok_and(|a| {
            remote::fetch_backup(endpoint, &user.name)
                .is_ok_and(|got| remote::encode_artifact(&got) == remote::encode_artifact(&a))
        });
        tally.check(stored);
        if i % 2 == 1 {
            if let Some(seeded) = background.next() {
                let u = &seeded.user;
                let client = fleet.client(&u.name)?;
                let recovered =
                    tracer.paused(|| flows::fetch_and_recover(endpoint, &client, u, &u.pin, rng));
                tally.check(recovered.is_ok_and(|bytes| bytes == u.secret));
            }
        }
    }
    Ok(())
}

/// Entries the workload's log holds when its timed phase ends: the size
/// the log drivers run at.
fn log_size(workload: &str, scale: &Scale) -> usize {
    match workload {
        "recover_solo" => 2 * scale.solo_ops,
        "recover_wave" => 2 * scale.wave_ops * WAVE,
        "save_mixed" => scale.save_bg_pool + 2 * scale.save_ops,
        _ => scale.inproc_ops * WAVE,
    }
}

/// Users set aside for the client driver.
const DRIVER_USERS: usize = 6;

/// How many users the traced run replays per mode, and per block of
/// the rotation (four blocks per mode).
struct Sizes {
    per_mode: usize,
    block: usize,
}

impl Sizes {
    fn of(workload: &str, scale: &Scale) -> Self {
        if workload.ends_with("_wave") {
            Self {
                per_mode: scale.traced_waves * WAVE,
                block: (scale.traced_waves / 4).max(1) * WAVE,
            }
        } else {
            Self {
                per_mode: scale.traced_ops,
                block: (scale.traced_ops / 4).max(1),
            }
        }
    }
}

/// What parts 1 and 2 hand to the drivers and the budget.
struct Measured {
    replayed: Replay,
    /// Metrics only this part of the run can measure.
    values: Values,
    /// The whole of the budget: the mean untraced operation.
    whole_op_ms: f64,
    /// Socket + daemon cost of one frame (0 without a socket).
    per_frame_ms: f64,
    lock_wait_ms: f64,
    /// Checks made outside the replay (the daemon session).
    session: Tally,
}

const FAR: Duration = Duration::from_secs(3600);

/// `inproc_wave`: the replay only, on a `MemStore` fleet.
fn measure_inproc(scale: &Scale, seed: u64, tracer: &Tracer) -> Result<Measured, Error> {
    let sizes = Sizes::of("inproc_wave", scale);
    let far = Instant::now() + FAR;
    let mut fleet_rng = gen::rng(seed, "daemon", 0);
    let mut deployment = DeploymentBuilder::new(scale.params()).provision(&mut fleet_rng)?;
    let fleet = Fleet {
        lhe: deployment.params.lhe,
        enrollments: deployment.datacenter.enrollments(),
    };
    let users = gen::users(seed, "user", 3 * sizes.per_mode + DRIVER_USERS);
    let mut seeded = flows::seed_users(&fleet, seed, users, false, 2)?;
    let driver_users = seeded.split_off(3 * sizes.per_mode);
    deployment
        .datacenter
        .set_transport(Box::new(TracedTransport::new(tracer.clone())));
    let mut rng = gen::rng(seed, "inproc", 0);
    let deployment = std::cell::RefCell::new(deployment);
    let replayed = replay(
        tracer,
        seeded.chunks(sizes.block).collect(),
        || Counters::read(&deployment.borrow()),
        |pool, tally| {
            e2e::inproc_ops(
                &mut deployment.borrow_mut(),
                &fleet,
                pool,
                &mut rng,
                far,
                Some(tracer),
                tally,
            )
        },
    )?;
    let mut deployment = deployment.into_inner();
    let mut handle_rng = gen::rng(seed, "driver-handle", 0);
    let mut endpoint = |request: ProviderRequest| Ok(deployment.handle(request, &mut handle_rng));
    let mut values = layers::client_side(
        &mut endpoint,
        &fleet,
        &driver_users,
        &mut gen::rng(seed, "driver-client", 0),
    )?;
    let recover_many = tracer
        .totals()
        .get("core.recover_many")
        .map_or(0.0, |t| t.0);
    values.push(("core.recover_many_ms", recover_many / replayed.traced_ops()));
    Ok(Measured {
        whole_op_ms: replayed.tally(Mode::Plain).mean_op_ms(0),
        replayed,
        values,
        per_frame_ms: 0.0,
        lock_wait_ms: 0.0,
        session: Tally::default(),
    })
}

/// A wire workload: the daemon session, then the replay on the fleet it
/// persisted.
fn measure_wire(
    workload: &str,
    scale: &Scale,
    seed: u64,
    tracer: &Tracer,
    scratch: &TempDir,
) -> Result<Measured, Error> {
    let sizes = Sizes::of(workload, scale);
    let far = Instant::now() + FAR;
    let waves = workload == "recover_wave";

    // Part 1: the daemon session. One pool of users for it, one per
    // replay mode, and the client driver's.
    let mut wire = Wire::boot(scale, seed, workload)?;
    let pool_users = 4 * sizes.per_mode;
    let users = gen::users(seed, "user", pool_users + DRIVER_USERS);
    let mut seeded = flows::seed_users(&wire.fleet, seed, users, waves, 2)?;
    flows::upload(&mut wire.tcp, &seeded)?;
    let driver_users = seeded.split_off(pool_users);
    let replay_pool = seeded.split_off(sizes.per_mode);
    let wire_pool = seeded;
    let savers = gen::users(seed, "saver", 4 * sizes.per_mode);
    let (wire_savers, replay_savers) = savers.split_at(sizes.per_mode);

    let (session, dir, fleet) = wire_session(wire, |wire, tally| match workload {
        "recover_solo" => e2e::solo_ops(
            &mut wire.tcp,
            &wire.fleet,
            &wire_pool,
            &mut gen::rng(seed, "solo", 0),
            far,
            None,
            tally,
        ),
        "recover_wave" => e2e::wave_ops(&mut wire.tcp, &wire_pool, far, None, tally),
        _ => e2e::mixed_ops(wire, &wire_pool, wire_savers, seed, far, tally).map(|_| ()),
    })?;

    // Part 2: the in-process replay on the persisted fleet.
    let options = FileOptions::default().with_durability(scale.durability);
    let (mut deployment, _) = DeploymentBuilder::new(scale.params())
        .store_dir(dir.path().join("fleet"))
        .file_options(options)
        .open(&mut gen::rng(seed, "replay-open", 0))?;
    deployment
        .datacenter
        .set_transport(Box::new(TracedTransport::new(tracer.clone())));
    let endpoint = std::cell::RefCell::new(TracedEndpoint {
        deployment,
        rng: gen::rng(seed, "replay-fleet", 0),
        tracer: tracer.clone(),
    });
    let mut rng = gen::rng(seed, "replay", 0);
    let counters = || Counters::read(&endpoint.borrow().deployment);
    let replayed = if workload == "save_mixed" {
        let blocks: Vec<_> = replay_savers
            .chunks(sizes.block)
            .zip(replay_pool.chunks(sizes.block))
            .collect();
        replay(tracer, blocks, counters, |(savers, background), tally| {
            let endpoint = &mut *endpoint.borrow_mut();
            mixed_block(
                endpoint, &fleet, savers, background, &mut rng, tracer, tally,
            )
        })?
    } else {
        let blocks = replay_pool.chunks(sizes.block).collect();
        replay(tracer, blocks, counters, |pool, tally| {
            let endpoint = &mut *endpoint.borrow_mut();
            if waves {
                e2e::wave_ops(endpoint, pool, far, Some(tracer), tally)
            } else {
                e2e::solo_ops(endpoint, &fleet, pool, &mut rng, far, Some(tracer), tally)
            }
        })?
    };

    let mut values = session.values;
    values.extend(layers::client_side(
        &mut endpoint.into_inner(),
        &fleet,
        &driver_users,
        &mut gen::rng(seed, "driver-client", 0),
    )?);
    values.extend(layers::file_store(scratch.path())?);
    Ok(Measured {
        replayed,
        values,
        whole_op_ms: session.whole_op_ms,
        // A ping is one round trip: two frames.
        per_frame_ms: session.ping_ms / 2.0,
        lock_wait_ms: session.lock_wait_ms,
        session: session.tally,
    })
}

/// One row of the budget table.
fn budget_row(span: &str, total_ms: f64, self_ms: f64, whole_ms: f64) -> Json {
    obj([
        ("span", span.into()),
        ("total_ms_per_op", total_ms.into()),
        ("self_ms_per_op", self_ms.into()),
        ("share_of_whole", (self_ms / whole_ms).into()),
    ])
}

pub fn run(workload: &str, scale: &Scale, seed: u64) -> Result<TracedRun, Error> {
    let tracer = Tracer::new();
    let scratch = TempDir::new(&format!("{workload}-drivers"))?;
    let Measured {
        replayed,
        mut values,
        whole_op_ms,
        per_frame_ms,
        lock_wait_ms,
        session,
    } = if workload == "inproc_wave" {
        measure_inproc(scale, seed, &tracer)?
    } else {
        measure_wire(workload, scale, seed, &tracer, &scratch)?
    };
    let checked = replayed.tallies.iter().chain([&session]);
    let attempted = checked.clone().map(|t| t.attempted).sum();
    let failed = checked.map(|t| t.failed).sum();

    // Part 3: the remaining layer drivers.
    values.extend(layers::log_and_multisig(
        scale,
        log_size(workload, scale),
        seed,
    ));
    let (bfe_values, aead_per_request) = layers::bfe_and_seckv(scale, seed)?;
    values.extend(bfe_values);
    values.extend(layers::primitives(seed));

    // What the spans and counts of the traced blocks say, per operation.
    let ops = replayed.traced_ops();
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0.0, |(total, _)| total / ops);
    let count = |name: &str| tracer.get(name) / ops;
    let c = &replayed.counters;
    let per_op = |n: u64| n as f64 / ops;
    values.extend([
        ("proto.encode_ms", total("proto.encode")),
        ("proto.decode_ms", total("proto.decode")),
        ("proto.wire_bytes_per_op", count("proto.wire_bytes")),
        ("proto.frames_per_op", count("proto.frames")),
        ("provider.insert_log_ms", total("provider.insert_log")),
        ("provider.run_epoch_ms", total("provider.run_epoch")),
        (
            "provider.prove_inclusion_ms",
            total("provider.prove_inclusion"),
        ),
        ("provider.recover_round_ms", total("provider.recover_round")),
        ("provider.put_backup_ms", total("provider.put_backup")),
        (
            "provider.self_ms",
            totals
                .iter()
                .filter(|(name, _)| name.starts_with("provider."))
                .map(|(_, (_, own))| own / ops)
                .sum::<f64>()
                // An empty float sum is -0.0.
                + 0.0,
        ),
        ("provider.hsm_rounds_per_op", count("hsm.rounds")),
        ("provider.hsm_messages_per_op", per_op(c.transport.messages)),
        ("hsm.recover_round_ms", total("hsm.recover_round")),
        ("hsm.epoch_round_ms", total("hsm.epoch_round")),
        ("hsm.enroll_round_ms", total("hsm.enroll_round")),
        (
            "hsm.requests_per_group",
            tracer.get("hsm.recover_requests") / tracer.get("hsm.recover_groups").max(1.0),
        ),
        (
            "hsm.shares_ok_frac",
            tracer.get("hsm.shares_served") / tracer.get("hsm.shares_asked").max(1.0),
        ),
        (
            "seckv.aead_ops_per_op",
            aead_per_request * count("hsm.recover_requests"),
        ),
        ("seckv.blocks_fetched_per_op", per_op(c.fleet.reads)),
        ("seckv.blocks_written_per_op", per_op(c.fleet.writes)),
        (
            "store.fsyncs_per_op",
            per_op(c.fleet.flushes + c.wal.flushes),
        ),
        ("store.wal_bytes_per_op", per_op(c.wal_bytes)),
        (
            "store.cache_hit_rate",
            c.fleet.cache_hit_rate().unwrap_or(0.0),
        ),
        ("primitives.var_mults_per_op", per_op(c.group.var_mults)),
        ("primitives.fixed_mults_per_op", per_op(c.group.fixed_mults)),
        ("primitives.msm_terms_per_op", per_op(c.group.msm_terms)),
        ("primitives.msm_calls_per_op", per_op(c.group.msm_calls)),
    ]);

    // Part 4: ratios and the budget.
    let plain_ms = replayed.tally(Mode::Plain).corrected_mean_op_ms();
    let traced_ms = replayed.tally(Mode::Traced).corrected_mean_op_ms();
    let quiet_ms = replayed.tally(Mode::TelemetryOff).corrected_mean_op_ms();
    let frames_ms = count("proto.frames") * per_frame_ms;
    let parts_ms: f64 =
        totals.values().map(|(_, own)| own / ops).sum::<f64>() + frames_ms + lock_wait_ms;
    values.extend([
        ("telemetry.overhead_ratio", plain_ms / quiet_ms),
        ("trace.overhead_ratio", traced_ms / plain_ms),
        ("trace.attributed_frac", parts_ms / whole_op_ms),
    ]);

    // Rows in call order: client, codec, provider, engine, HSM rounds.
    let layer_rank = |name: &str| {
        ["op", "proto.", "provider.", "core.", "hsm."]
            .iter()
            .position(|prefix| name.starts_with(prefix))
    };
    let mut ordered: Vec<_> = totals.iter().collect();
    ordered.sort_by_key(|(name, _)| layer_rank(name));
    let mut rows: Vec<Json> = ordered
        .into_iter()
        .map(|(name, (total, own))| {
            // The root span's own time is the client crate's work in a
            // wire flow: `remote::*` and the wave flow only call the
            // endpoint and `Client`/`RecoveryAttempt` methods.
            let label = if *name == "op" {
                "client (op self)"
            } else {
                name
            };
            budget_row(label, total / ops, own / ops, whole_op_ms)
        })
        .collect();
    for (label, ms) in [
        ("socket+daemon (frames_per_op/2 x ping_ms)", frames_ms),
        ("epoch-lock wait behind a recovery", lock_wait_ms),
    ] {
        if ms > 0.0 {
            rows.push(budget_row(label, ms, ms, whole_op_ms));
        }
    }
    let rest_ms = whole_op_ms - parts_ms;
    rows.push(budget_row("unattributed", rest_ms, rest_ms, whole_op_ms));
    println!("budget per op of {workload} (whole = {whole_op_ms:.4} ms, untraced)");
    println!(
        "  {:<44} {:>12} {:>12} {:>8}",
        "span", "total ms", "self ms", "share"
    );
    for row in &rows {
        let field = |key: &str| row.get(key).and_then(Json::num).unwrap_or(0.0);
        println!(
            "  {:<44} {:>12.4} {:>12.4} {:>7.1}%",
            row.get("span").and_then(Json::str).unwrap_or(""),
            field("total_ms_per_op"),
            field("self_ms_per_op"),
            100.0 * field("share_of_whole"),
        );
    }

    std::fs::create_dir_all(crate::out_dir())?;
    let trace_path = crate::out_dir().join(format!("trace_{workload}.jsonl"));
    tracer.write_jsonl(&trace_path)?;
    println!("spans: {}", trace_path.display());

    let budget = obj([
        ("whole_op_ms", whole_op_ms.into()),
        (
            "whole_is",
            if per_frame_ms > 0.0 {
                "mean untraced operation over TCP against the daemon"
            } else {
                "mean untraced in-process operation"
            }
            .into(),
        ),
        ("traced_ops", ops.into()),
        ("replay_plain_op_ms_at_ref_speed", plain_ms.into()),
        ("replay_traced_op_ms_at_ref_speed", traced_ms.into()),
        ("replay_telemetry_off_op_ms_at_ref_speed", quiet_ms.into()),
        ("rows", Json::Arr(rows)),
        ("spans_file", trace_path.display().to_string().into()),
    ]);
    Ok(TracedRun {
        values,
        attempted,
        failed,
        budget,
    })
}
