//! The four workloads, measured end to end with tracing off.
//!
//! Every run has the same shape: set up (timed as `setup_s`), run the
//! workload's fixed list of operations until it is done or `--seconds`
//! have passed, check every output byte, probe the refusals that must
//! hold, then restart the service and recover a held-back user. Generator work between operations (`Client::new`,
//! fetching the stored backup) is outside the per-operation timers.
//!
//! The operation loops (`solo_ops`, `wave_ops`, `inproc_ops`) take any
//! endpoint and an optional tracer, so the traced run replays exactly
//! the operations the end-to-end run times.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use safetypin::{Deployment, DeploymentBuilder, RecoverManyOptions, RecoverySession};
use safetypin_bfe::BfeParams;
use safetypin_client::remote::{self, ProviderEndpoint};
use safetypin_daemon::{Daemon, DaemonConfig, DaemonHandle};
use safetypin_proto::tcp::{Tcp, TcpConfig};
use safetypin_seckv::BlockStore;
use safetypin_store::FileOptions;

use crate::flows::{self, Error, Fleet, Seeded};
use crate::gen::{self, User};
use crate::host::{self, TempDir};
use crate::json::{obj, Json};
use crate::spec::{Scale, PROBES, WAVE};
use crate::trace::Tracer;

/// One timed operation (a wave counts its users in `ops`).
#[derive(Clone, Copy)]
pub struct Sample {
    pub ms: f64,
    pub cpu_ms: f64,
    pub ops: usize,
    /// The speed canary's tick taken right after the operation.
    pub tick_ms: f64,
}

/// Set-up, timed as one piece, with the median canary tick sampled
/// while it ran.
#[derive(Clone, Copy, Default)]
pub struct Phase {
    pub seconds: f64,
    pub tick_ms: f64,
}

impl Phase {
    fn time<T>(f: impl FnOnce() -> Result<T, Error>) -> Result<(T, Phase), Error> {
        let canary = host::CanarySampler::start();
        let start = Instant::now();
        let value = f();
        let seconds = start.elapsed().as_secs_f64();
        let tick_ms = canary.finish();
        Ok((value?, Phase { seconds, tick_ms }))
    }
}

/// Runs `f`, returning its value and the seconds it took.
fn seconds<T>(f: impl FnOnce() -> Result<T, Error>) -> Result<(T, f64), Error> {
    let start = Instant::now();
    let value = f()?;
    Ok((value, start.elapsed().as_secs_f64()))
}

/// What a series of timed operations measured.
#[derive(Default)]
pub struct Tally {
    /// Timed operations in issue order, warm-up included.
    pub samples: Vec<Sample>,
    /// Operations attempted and failed (wrong bytes, refusals, errors).
    pub attempted: u64,
    pub failed: u64,
    /// Shares an HSM refused on the wave workloads (see
    /// [`flows::recover_wave`]).
    pub wasted_shares: u64,
    /// Time `save_mixed`'s saves waited for the epoch lock, in total;
    /// it is inside their timers.
    pub lock_wait_ms: f64,
}

impl Tally {
    pub fn check(&mut self, right: bool) {
        self.attempted += 1;
        self.failed += u64::from(!right);
    }

    pub fn ops(&self) -> usize {
        self.samples.iter().map(|s| s.ops).sum()
    }

    /// Mean timed milliseconds per operation (per user on waves) over
    /// the samples after the first `skip`.
    pub fn mean_op_ms(&self, skip: usize) -> f64 {
        let samples = &self.samples[skip.min(self.samples.len())..];
        let ops: usize = samples.iter().map(|s| s.ops).sum();
        samples.iter().map(|s| s.ms).sum::<f64>() / ops.max(1) as f64
    }

    /// [`mean_op_ms`](Self::mean_op_ms) with every sample scaled to the
    /// reference CPU speed by its own canary tick.
    pub fn corrected_mean_op_ms(&self) -> f64 {
        let scaled = |s: &Sample| s.ms * host::CANARY_REF_MS / s.tick_ms;
        self.samples.iter().map(scaled).sum::<f64>() / self.ops().max(1) as f64
    }
}

/// What one end-to-end run measured.
pub struct Outcome {
    pub setup: Phase,
    /// The graceful shutdown before the restart: drain + persist.
    pub persist_s: f64,
    /// The restart proper: bind on the persisted directory, first
    /// `Status`, the held-back user's recovery.
    pub restart_s: f64,
    pub tally: Tally,
    /// Wall time of the timed phase, generator work included.
    pub window_s: f64,
    /// Workload-specific facts for the result file.
    pub detail: Json,
}

impl Outcome {
    /// An outcome with set-up done and nothing else measured yet.
    fn after_setup(setup: Phase) -> Self {
        Self {
            setup,
            persist_s: 0.0,
            restart_s: 0.0,
            tally: Tally::default(),
            window_s: 0.0,
            detail: Json::Null,
        }
    }
}

/// Runs `f` (under an `op` root span when tracing), returning its value
/// and the wall/CPU time it took.
pub fn timed<T>(ops: usize, tracer: Option<&Tracer>, f: impl FnOnce() -> T) -> (T, Sample) {
    let op = tracer.map(|t| t.op("op"));
    let cpu = host::process_cpu_ms();
    let start = Instant::now();
    let value = f();
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let cpu_ms = host::process_cpu_ms() - cpu;
    drop(op);
    let tick_ms = host::op_tick(ms);
    let sample = Sample {
        ms,
        cpu_ms,
        ops,
        tick_ms,
    };
    (value, sample)
}

/// Solo recoveries of `pool`, back to back, until `deadline`: fetch the
/// stored backup and build the client (generator work), then the timed
/// `remote::recover`.
pub fn solo_ops<E: ProviderEndpoint>(
    endpoint: &mut E,
    fleet: &Fleet,
    pool: &[Seeded],
    rng: &mut StdRng,
    deadline: Instant,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<(), Error> {
    for seeded in pool {
        if Instant::now() >= deadline {
            break;
        }
        let user = &seeded.user;
        let client = fleet.client(&user.name)?;
        let artifact = remote::fetch_backup(endpoint, &user.name)?;
        let stored_intact = remote::encode_artifact(&artifact) == seeded.blob;
        let (recovered, sample) = timed(1, tracer, || {
            remote::recover(endpoint, &client, &user.pin, &artifact, rng)
        });
        tally.samples.push(sample);
        tally.check(stored_intact && recovered.is_ok_and(|bytes| bytes == user.secret));
    }
    Ok(())
}

/// Waves of [`WAVE`] users from `pool` through one `RecoverBatch` each.
/// The attempts were prepared while seeding, so a wave is operations
/// only.
pub fn wave_ops<E: ProviderEndpoint>(
    endpoint: &mut E,
    pool: &[Seeded],
    deadline: Instant,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<(), Error> {
    for wave in pool.chunks(WAVE) {
        if Instant::now() >= deadline {
            break;
        }
        let attempts: Vec<_> = wave
            .iter()
            .map(|s| s.attempt.as_ref().expect("wave users carry an attempt"))
            .collect();
        let mut wasted = 0;
        let (recovered, sample) = timed(wave.len(), tracer, || {
            flows::recover_wave(endpoint, &attempts, &mut wasted)
        });
        tally.samples.push(sample);
        tally.wasted_shares += wasted;
        for (seeded, bytes) in wave.iter().zip(recovered?) {
            tally.check(bytes.as_ref() == Ok(&seeded.user.secret));
        }
    }
    Ok(())
}

/// Waves of [`WAVE`] users from `pool` through
/// `Deployment::recover_many`; the wave's clients are built outside the
/// timer.
pub fn inproc_ops<S: BlockStore + Send>(
    deployment: &mut Deployment<S>,
    fleet: &Fleet,
    pool: &[Seeded],
    rng: &mut StdRng,
    deadline: Instant,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> Result<(), Error> {
    for wave in pool.chunks(WAVE) {
        if Instant::now() >= deadline {
            break;
        }
        let clients = wave
            .iter()
            .map(|s| fleet.client(&s.user.name))
            .collect::<Result<Vec<_>, _>>()?;
        let artifacts = wave
            .iter()
            .map(|s| remote::decode_artifact(&s.blob))
            .collect::<Result<Vec<_>, _>>()?;
        let sessions: Vec<_> = wave
            .iter()
            .zip(&clients)
            .zip(&artifacts)
            .map(|((s, client), artifact)| RecoverySession {
                client,
                pin: &s.user.pin,
                artifact,
            })
            .collect();
        let (recovered, sample) = timed(wave.len(), tracer, || {
            let _span = tracer.map(|t| t.span("core.recover_many"));
            deployment.recover_many(&sessions, RecoverManyOptions::default(), rng)
        });
        tally.samples.push(sample);
        for (s, result) in wave.iter().zip(recovered) {
            tally.check(result.is_ok_and(|r| r.message == s.user.secret));
        }
    }
    Ok(())
}

/// Spare users seeded beyond the pool, to replace the few whose recovery
/// would meet a Bloom-filter false positive.
const SPARES: usize = 8;

/// Generator threads: the host has two cores and the generator is one
/// process, so never more than two.
fn seed_threads() -> usize {
    host::nproc().min(2)
}

/// A booted daemon plus one client connection to it.
pub struct Wire {
    pub dir: TempDir,
    pub config: DaemonConfig,
    pub handle: DaemonHandle,
    pub tcp: Tcp,
    pub fleet: Fleet,
}

pub fn connect(handle: &DaemonHandle) -> Result<Tcp, Error> {
    Ok(Tcp::connect(TcpConfig::new(handle.addr().to_string()))?)
}

impl Wire {
    /// First boot: provisions the fleet into a fresh directory,
    /// persists it, restores it live on `FileStore`s and binds.
    pub fn boot(scale: &Scale, seed: u64, label: &str) -> Result<Self, Error> {
        let dir = TempDir::new(label)?;
        let config = DaemonConfig::new(dir.path().join("fleet"), scale.params())
            .durability(scale.durability)
            .seed(gen::mix(seed, "daemon", 0));
        let handle = Daemon::bind(config.clone())?;
        let mut tcp = connect(&handle)?;
        let fleet = Fleet::fetch(&mut tcp)?;
        Ok(Self {
            dir,
            config,
            handle,
            tcp,
            fleet,
        })
    }

    /// Graceful shutdown (drain + persist), then the restart: bind on
    /// the same directory, first `Status`, and the held-back user's acked
    /// save must recover byte-identical. Returns both timings and whether
    /// the bytes matched.
    fn restart(self, held_back: &User, seed: u64) -> Result<(f64, f64, bool), Error> {
        let Wire {
            dir,
            config,
            handle,
            tcp,
            fleet,
        } = self;
        drop(tcp);
        let ((), persist_s) = seconds(|| Ok(handle.shutdown().map(|_| ())?))?;
        let ((handle, recovered), restart_s) = seconds(|| {
            let handle = Daemon::bind(config)?;
            let mut tcp = connect(&handle)?;
            flows::status(&mut tcp)?;
            let client = fleet.client(&held_back.name)?;
            let mut rng = gen::rng(seed, "held-back", 0);
            let recovered =
                flows::fetch_and_recover(&mut tcp, &client, held_back, &held_back.pin, &mut rng);
            Ok((handle, recovered))
        })?;
        handle.shutdown()?;
        drop(dir);
        let intact = recovered.is_ok_and(|bytes| bytes == held_back.secret);
        Ok((persist_s, restart_s, intact))
    }
}

/// The users a workload seeds: the timed pool, the user held back for
/// the restart, and the wrong-PIN probes.
pub struct Population {
    pub pool: Vec<Seeded>,
    pub held_back: Seeded,
    pub probes: Vec<Seeded>,
}

/// Builds `pool` + probe + held-back users' backups (and attempts, for
/// wave workloads).
pub fn seed_population(
    fleet: &Fleet,
    bfe: BfeParams,
    seed: u64,
    pool: usize,
    with_attempt: bool,
) -> Result<Population, Error> {
    let recovering = pool + 1;
    let mut users = gen::users(seed, "user", recovering + SPARES);
    users.extend(gen::users(seed, "probe", PROBES));
    let mut seeded = flows::seed_users(fleet, seed, users, with_attempt, seed_threads())?;
    let probes = seeded.split_off(recovering + SPARES);
    let mut pool = flows::drop_false_positives(fleet, bfe, seeded, recovering)?;
    let held_back = pool.pop().expect("the held-back user was seeded");
    Ok(Population {
        pool,
        held_back,
        probes,
    })
}

impl Population {
    pub fn upload<E: ProviderEndpoint>(&self, endpoint: &mut E) -> Result<(), Error> {
        flows::upload(endpoint, &self.pool)?;
        flows::upload(endpoint, std::slice::from_ref(&self.held_back))?;
        flows::upload(endpoint, &self.probes)
    }
}

/// Boot + seed + upload: everything `setup_s` covers on a wire workload.
fn setup_wire(
    scale: &Scale,
    seed: u64,
    label: &str,
    pool: usize,
    with_attempt: bool,
) -> Result<(Wire, Population, Outcome), Error> {
    let ((wire, population), setup) = Phase::time(|| {
        let mut wire = Wire::boot(scale, seed, label)?;
        let population =
            seed_population(&wire.fleet, scale.params().bfe, seed, pool, with_attempt)?;
        population.upload(&mut wire.tcp)?;
        Ok((wire, population))
    })?;
    let outcome = Outcome::after_setup(setup);
    Ok((wire, population, outcome))
}

/// Probes + restart, shared by the three wire workloads.
fn finish_wire(
    mut wire: Wire,
    seed: u64,
    population: &Population,
    held_back: &User,
    outcome: &mut Outcome,
) -> Result<(), Error> {
    let probes = &population.probes;
    let recovered = &population.pool[0].user;
    let tally = &mut outcome.tally;
    tally.attempted += 4 * probes.len() as u64 + 1;
    tally.failed += flows::probe_refusals(&mut wire.tcp, &wire.fleet, seed, probes, recovered)?;
    let (persist_s, restart_s, intact) = wire.restart(held_back, seed)?;
    outcome.persist_s = persist_s;
    outcome.restart_s = restart_s;
    outcome.tally.check(intact);
    Ok(())
}

/// `recover_solo`: one connection, each user runs the full Figure-3
/// `remote::recover` (InsertLog → RunEpoch → ProveInclusion → Recover →
/// finish), back to back.
pub fn recover_solo(scale: &Scale, seed: u64, limit: Duration) -> Result<Outcome, Error> {
    let (mut wire, population, mut outcome) =
        setup_wire(scale, seed, "recover_solo", scale.solo_ops, false)?;
    let mut rng = gen::rng(seed, "solo", 0);
    let window = Instant::now();
    solo_ops(
        &mut wire.tcp,
        &wire.fleet,
        &population.pool,
        &mut rng,
        window + limit,
        None,
        &mut outcome.tally,
    )?;
    outcome.window_s = window.elapsed().as_secs_f64();
    finish_wire(
        wire,
        seed,
        &population,
        &population.held_back.user,
        &mut outcome,
    )?;
    Ok(outcome)
}

/// `recover_wave`: one connection, waves of 16 users through one
/// `RecoverBatch` each.
pub fn recover_wave(scale: &Scale, seed: u64, limit: Duration) -> Result<Outcome, Error> {
    let (mut wire, population, mut outcome) =
        setup_wire(scale, seed, "recover_wave", scale.wave_ops * WAVE, true)?;
    let window = Instant::now();
    wave_ops(
        &mut wire.tcp,
        &population.pool,
        window + limit,
        None,
        &mut outcome.tally,
    )?;
    outcome.window_s = window.elapsed().as_secs_f64();
    outcome.detail = obj([("wasted_shares", outcome.tally.wasted_shares.into())]);
    finish_wire(
        wire,
        seed,
        &population,
        &population.held_back.user,
        &mut outcome,
    )?;
    Ok(outcome)
}

/// What the two connections of `save_mixed` did.
pub struct Mixed {
    /// Users whose save was acked, in issue order.
    pub saved: Vec<User>,
    pub background_recoveries: u64,
}

/// Connection A saves `savers` back to back (the op) until `deadline`;
/// connection B runs solo recoveries of `pool` until A is done.
///
/// A save that lands between a recovery's `RunEpoch` and its `Recover`
/// moves the log root, the HSMs reject the inclusion proof, and the
/// user's one attempt is burned. `safetypin-load` serialises that span
/// with a client-side lock and so does this workload: the lock is held
/// across B's `remote::recover` and across A's `remote::save`, and A's
/// wait for it is inside the save's timer, because it is the time a save
/// spends behind a recovery's epoch.
pub fn mixed_ops(
    wire: &mut Wire,
    pool: &[Seeded],
    savers: &[User],
    seed: u64,
    deadline: Instant,
    tally: &mut Tally,
) -> Result<Mixed, Error> {
    let done = AtomicBool::new(false);
    let epoch_lock = Mutex::new(());
    let fleet = &wire.fleet;
    let mut tcp_b = connect(&wire.handle)?;
    let tcp_a = &mut wire.tcp;
    let (foreground, background) = std::thread::scope(|scope| {
        let background = scope.spawn(|| -> Result<Tally, Error> {
            let mut rng = gen::rng(seed, "mixed-recover", 0);
            let mut tally = Tally::default();
            for seeded in pool {
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let user = &seeded.user;
                let client = fleet.client(&user.name)?;
                let artifact = remote::fetch_backup(&mut tcp_b, &user.name)?;
                let recovered = {
                    let _epoch = epoch_lock.lock().expect("no lock holder panics");
                    remote::recover(&mut tcp_b, &client, &user.pin, &artifact, &mut rng)
                };
                tally.check(recovered.is_ok_and(|bytes| bytes == user.secret));
            }
            Ok(tally)
        });
        let foreground = (|| -> Result<Vec<Vec<u8>>, Error> {
            let mut rng = gen::rng(seed, "mixed-save", 0);
            let mut blobs = Vec::with_capacity(savers.len());
            for user in savers {
                if Instant::now() >= deadline {
                    break;
                }
                let mut client = fleet.client(&user.name)?;
                let mut waited = 0.0;
                let (artifact, sample) = timed(1, None, || {
                    let asked = Instant::now();
                    let _epoch = epoch_lock.lock().expect("no lock holder panics");
                    waited = asked.elapsed().as_secs_f64() * 1e3;
                    remote::save(tcp_a, &mut client, &user.pin, &user.secret, &mut rng)
                });
                tally.samples.push(sample);
                tally.lock_wait_ms += waited;
                // A refused save is checked against an impossible blob.
                blobs.push(artifact.map_or_else(|_| Vec::new(), |a| remote::encode_artifact(&a)));
            }
            Ok(blobs)
        })();
        done.store(true, Ordering::SeqCst);
        let background = background
            .join()
            .unwrap_or_else(|_| Err("the background recovery thread panicked".into()));
        (foreground, background)
    });
    let blobs = foreground?;
    let background = background?;

    // Every acked save must be stored byte for byte.
    for (user, blob) in savers.iter().zip(&blobs) {
        let stored = remote::fetch_backup(tcp_a, &user.name)
            .is_ok_and(|got| remote::encode_artifact(&got) == *blob);
        tally.check(stored);
    }
    tally.attempted += background.attempted;
    tally.failed += background.failed;
    Ok(Mixed {
        saved: savers[..blobs.len()].to_vec(),
        background_recoveries: background.attempted,
    })
}

/// `save_mixed`: saves on one connection beside solo recoveries on
/// another (see [`mixed_ops`]).
pub fn save_mixed(scale: &Scale, seed: u64, limit: Duration) -> Result<Outcome, Error> {
    let (mut wire, population, mut outcome) =
        setup_wire(scale, seed, "save_mixed", scale.save_bg_pool, false)?;
    let savers = gen::users(seed, "saver", scale.save_ops);
    let window = Instant::now();
    let mixed = mixed_ops(
        &mut wire,
        &population.pool,
        &savers,
        seed,
        window + limit,
        &mut outcome.tally,
    )?;
    outcome.window_s = window.elapsed().as_secs_f64();
    outcome.detail = obj([
        (
            "epoch_lock_wait_ms_per_save",
            (outcome.tally.lock_wait_ms / mixed.saved.len().max(1) as f64).into(),
        ),
        ("background_recoveries", mixed.background_recoveries.into()),
        (
            "background_recoveries_per_save",
            (mixed.background_recoveries as f64 / mixed.saved.len().max(1) as f64).into(),
        ),
    ]);
    // The held-back user of this workload is one whose save was acked
    // in the timed phase: the restart must not lose it.
    let held_back = mixed.saved[mixed.saved.len() / 2].clone();
    finish_wire(wire, seed, &population, &held_back, &mut outcome)?;
    Ok(outcome)
}

/// `inproc_wave`: no sockets, no daemon, no files — a `MemStore` fleet
/// over the `Direct` transport, waves of 16 through
/// `Deployment::recover_many`.
pub fn inproc_wave(scale: &Scale, seed: u64, limit: Duration) -> Result<Outcome, Error> {
    let ((mut deployment, fleet, population), setup) = Phase::time(|| {
        let mut fleet_rng = gen::rng(seed, "daemon", 0);
        let deployment = DeploymentBuilder::new(scale.params()).provision(&mut fleet_rng)?;
        let fleet = Fleet {
            lhe: deployment.params.lhe,
            enrollments: deployment.datacenter.enrollments(),
        };
        let population = seed_population(
            &fleet,
            scale.params().bfe,
            seed,
            scale.inproc_ops * WAVE,
            false,
        )?;
        Ok((deployment, fleet, population))
    })?;
    let dir = TempDir::new("inproc_wave")?;
    let mut outcome = Outcome::after_setup(setup);

    let mut rng = gen::rng(seed, "inproc", 0);
    let window = Instant::now();
    inproc_ops(
        &mut deployment,
        &fleet,
        &population.pool,
        &mut rng,
        window + limit,
        None,
        &mut outcome.tally,
    )?;
    outcome.window_s = window.elapsed().as_secs_f64();

    // Refusal probes, in process: a wrong PIN fails typed and burns the
    // attempt (one new log entry, a right-PIN retry refused without
    // another); a second recovery of a recovered user is refused.
    let tally = &mut outcome.tally;
    let mut recover = |deployment: &mut Deployment, s: &Seeded, pin: &[u8]| {
        let client = fleet.client(&s.user.name)?;
        let artifact = remote::decode_artifact(&s.blob)?;
        Ok::<_, Error>(deployment.recover(&client, pin, &artifact, &mut rng))
    };
    for probe in &population.probes {
        let before = deployment.datacenter.log_entries().len();
        let wrong = recover(&mut deployment, probe, &gen::wrong_pin(&probe.user.pin))?;
        tally.check(wrong.is_err());
        tally.check(deployment.datacenter.log_entries().len() == before + 1);
        let retry = recover(&mut deployment, probe, &probe.user.pin)?;
        tally.check(retry.is_err());
        tally.check(deployment.datacenter.log_entries().len() == before + 1);
    }
    let first = &population.pool[0];
    tally.check(recover(&mut deployment, first, &first.user.pin)?.is_err());

    // Persist, then the restart: restore live on FileStores and recover
    // the held-back user on the restored fleet.
    let held = &population.held_back;
    let options = FileOptions::default().with_durability(scale.durability);
    let fleet_dir = dir.path().join("fleet");
    ((), outcome.persist_s) = seconds(|| {
        deployment.persist(&fleet_dir, options, &mut rng)?;
        Ok(())
    })?;
    drop(deployment);
    let recovered;
    (recovered, outcome.restart_s) = seconds(|| {
        let (mut restored, _) = Deployment::restore_from(&fleet_dir, options)?;
        let client = fleet.client(&held.user.name)?;
        let artifact = remote::decode_artifact(&held.blob)?;
        Ok(restored.recover(&client, &held.user.pin, &artifact, &mut rng))
    })?;
    outcome
        .tally
        .check(recovered.is_ok_and(|r| r.message == held.user.secret));
    Ok(outcome)
}
