//! The named scenarios: composed fault injections under live traffic,
//! each ending in an invariant audit. Every scenario is a pure function
//! of one `u64` seed — replay a failure by re-running with the seed the
//! report (or the CI log) printed.
//!
//! | scenario | failure composition | headline invariants |
//! |---|---|---|
//! | `hsm-loss-recovery-storm` | 2 HSMs fail-stop + lossy recovery wire, then restore + rotate | attempts exact, survivors byte-identical, burned id refused |
//! | `guessing-storm-burns-exactly-n` | wrong-PIN storm, no transport faults | one log insert per user, punctures bounded, true PIN refused after burn |
//! | `crash-restart-churn` | persist/reopen frames + torn WAL commit | log digest stable, exactly the pre-crash prefix survives |
//! | `corrupted-wire-storm` | drop+corrupt on the client hop, retries on | acked saves observed exactly once, ledger == telemetry |
//! | `exhaustion-rotation-under-load` | puncture budget spent, rotation mid-load | rotation resets the budget, post-rotation traffic byte-identical |
//! | `drain-during-storm` | live daemon drained mid-storm, restarted | shutdown acked, later fleet work refused SHUTTING_DOWN while status answers, the drain finishes, every acked save durable exactly once |

use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::bfe::BfeParams;
use safetypin::{Deployment, SystemParams};
use safetypin_client::remote::{self, RemoteError};
use safetypin_client::retry::{RetryPolicy, Retrying};
use safetypin_client::BackupArtifact;
use safetypin_daemon::{Daemon, DaemonConfig, DaemonError};
use safetypin_proto::{codes, FaultPlan, ProviderRequest, ProviderResponse, Tcp, TcpConfig};
use safetypin_provider::save_record;
use safetypin_store::{CrashingStore, Durability, FileOptions};

use crate::audit::ScenarioReport;
use crate::injector::{ChaosError, Harness, SharedStore};
use crate::plan::{mix, ChaosEvent, ChaosPlan};
use crate::traffic::{
    pin, punch_until_rotation_needed, recover_solo, recover_wave, save_storm, secret, user,
    wrong_pin, WaveSession,
};

/// A scenario entry point: seed in, audited report out.
pub type ScenarioFn = fn(u64) -> Result<ScenarioReport, ChaosError>;

/// Every named scenario, in documentation order.
pub const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("hsm-loss-recovery-storm", hsm_loss_recovery_storm),
    (
        "guessing-storm-burns-exactly-n",
        guessing_storm_burns_exactly_n,
    ),
    ("crash-restart-churn", crash_restart_churn),
    ("corrupted-wire-storm", corrupted_wire_storm),
    (
        "exhaustion-rotation-under-load",
        exhaustion_rotation_under_load,
    ),
    ("drain-during-storm", drain_during_storm),
];

/// Runs one scenario by name (`None` for an unknown name).
pub fn run_scenario(name: &str, seed: u64) -> Option<Result<ScenarioReport, ChaosError>> {
    SCENARIOS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, f)| f(seed))
}

/// Runs every scenario at `seed`, in order.
pub fn run_all(seed: u64) -> Result<Vec<ScenarioReport>, ChaosError> {
    SCENARIOS.iter().map(|(_, f)| f(seed)).collect()
}

/// Test-small parameters tuned for chaos: the default fail-stop budget
/// (`f_live = 1/64`) rounds to *zero* tolerated failures at fleet sizes
/// this small, so every kill scenario would stall its epochs. `1/4`
/// gives a fleet of 8 a budget of 2 — the paper's liveness story at
/// chaos scale.
fn chaos_params(total: u64) -> SystemParams {
    let mut params = SystemParams::test_small(total);
    params.f_live_inv = 4;
    params
}

/// Storm-side retry policy: aggressive attempts, token backoffs (the
/// sleeper is a no-op in deterministic scenarios anyway), generous
/// deadline so attempt count — not wall clock — bounds the retries.
fn storm_policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(8),
        deadline: Duration::from_secs(60),
    }
}

/// A scenario-private scratch directory under the system temp dir.
fn scratch_dir(tag: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "safetypin-chaos-{tag}-{}-{seed:016x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fetches an artifact a clean storm must have produced.
fn required(
    artifacts: &[Option<BackupArtifact>],
    slot: usize,
) -> Result<&BackupArtifact, ChaosError> {
    artifacts
        .get(slot)
        .and_then(Option::as_ref)
        .ok_or_else(|| ChaosError::Check(format!("clean save storm lost artifact {slot}")))
}

fn daemon_err(e: DaemonError) -> ChaosError {
    ChaosError::Check(format!("daemon: {e}"))
}

// ---------------------------------------------------------------------
// 1. HSM loss + threshold recovery + rotation during a recovery storm
// ---------------------------------------------------------------------

/// Two HSMs fail-stop while solo and batched recovery storms run over a
/// lossy recovery wire; the fleet then heals (restore + key rotation)
/// and serves clean traffic. Invariants: the attempt ledger is exact
/// (every recovery burned exactly one insert, retried or not), every
/// recovery that *reported* success returned byte-identical plaintext,
/// and a burned identifier stays refused.
pub fn hsm_loss_recovery_storm(seed: u64) -> Result<ScenarioReport, ChaosError> {
    let mut report = ScenarioReport::new("hsm-loss-recovery-storm", seed);
    let plan = ChaosPlan::new()
        .at(
            1,
            ChaosEvent::SetFleetFaults {
                plan: FaultPlan::drop(0.04).with_corrupt(0.02).recovery_only(),
                seed: mix(seed, 101),
            },
        )
        .at(2, ChaosEvent::KillHsm(2))
        .at(2, ChaosEvent::KillHsm(5))
        .at(3, ChaosEvent::ClearFleetFaults)
        .at(3, ChaosEvent::RestoreHsm(2))
        .at(3, ChaosEvent::RestoreHsm(5))
        .at(4, ChaosEvent::RotateHsm(2));
    let mut h = Harness::provision(chaos_params(8), plan, seed)?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 102));
    let policy = storm_policy();

    let (artifacts, saves) = save_storm(&mut h, 0..12, policy, &mut rng)?;
    report.check_eq("clean save storm fully acked", saves.succeeded, 12);

    h.tick()?; // recovery wire goes lossy
    h.tick()?; // HSMs 2 and 5 fail-stop

    // Solo recovery storm under fire: every attempt burns exactly one
    // log insert whether or not the shares survive the wire.
    let mut solo_ok = 0u64;
    let mut mismatched = 0u64;
    for i in 0..6 {
        let artifact = required(&artifacts, i)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if let Ok(plaintext) = outcome {
            solo_ok += 1;
            if plaintext != secret(i) {
                mismatched += 1;
            }
        }
    }

    // The second half recovers as one batched wave, still under fire.
    let mut sessions = Vec::new();
    for i in 6..12 {
        sessions.push(WaveSession {
            index: i,
            pin: pin(i),
            artifact: required(&artifacts, i)?,
        });
    }
    let (wave_results, _) = recover_wave(&mut h, &sessions, policy, &mut rng)?;
    let mut wave_ok = 0u64;
    for (k, outcome) in wave_results.iter().enumerate() {
        if let Ok(plaintext) = outcome {
            wave_ok += 1;
            if *plaintext != secret(6 + k) {
                mismatched += 1;
            }
        }
    }
    report.check(
        "every successful recovery under fire was byte-identical",
        mismatched == 0,
        format!(
            "{mismatched} of {} successes returned wrong bytes",
            solo_ok + wave_ok
        ),
    );
    report.check(
        "the threshold carried recoveries through the storm",
        solo_ok + wave_ok >= 1,
        format!("{solo_ok} solo + {wave_ok} wave of 12 landed with 2 HSMs down"),
    );

    h.tick()?; // wire heals, HSMs restored
    h.tick()?; // HSM 2 rotates its punctured key
    report.check_eq(
        "rotation bumped the key epoch",
        h.deployment.datacenter.hsm(2)?.key_epoch(),
        1,
    );

    // Post-heal traffic is clean end to end.
    let (fresh, fresh_saves) = save_storm(&mut h, 12..16, policy, &mut rng)?;
    report.check_eq("post-rotation saves fully acked", fresh_saves.succeeded, 4);
    let mut fresh_ok = 0u64;
    for i in 12..16 {
        let artifact = required(&fresh, i - 12)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(outcome, Ok(plaintext) if plaintext == secret(i)) {
            fresh_ok += 1;
        }
    }
    report.check_eq("post-rotation recoveries byte-identical", fresh_ok, 4);

    // Attempt accounting: 16 saves + 16 recovery attempts, no more, no
    // less — a lost reply must not un-burn, a retry must not double-burn.
    report.check_eq(
        "log holds exactly saves + burned attempts",
        h.deployment.datacenter.log_entries().len() as u64,
        32,
    );
    let artifact = required(&artifacts, 0)?;
    let (second, _) = recover_solo(&mut h, 0, &pin(0), artifact, policy, &mut rng)?;
    report.check(
        "burned identifier refused on a second attempt",
        matches!(second, Err(RemoteError::Refused(_))),
        format!("second attempt for user 0 returned {second:?}"),
    );
    report.check_eq(
        "refused attempt did not grow the log",
        h.deployment.datacenter.log_entries().len() as u64,
        32,
    );

    report.steps = h.step();
    let (ledger, injections) = h.settle();
    report.injections = injections;
    report.reconcile(ledger, h.injected_counters());
    Ok(report)
}

// ---------------------------------------------------------------------
// 2. Guessing storm burns exactly N attempts
// ---------------------------------------------------------------------

/// A wrong-PIN storm against 6 users on a healthy fleet. Invariants:
/// each guess fails yet burns exactly one log insert; punctures stay
/// within the guess-clusters' distinct-HSM bound (HSMs that refuse
/// before reaching their secret array puncture nothing — they can burn
/// *less* than the bound, never more); the second guess — *and the
/// true PIN* — are refused afterward, growing neither the log nor the
/// puncture counters. This is the paper's attempt-limit story under
/// storm conditions.
pub fn guessing_storm_burns_exactly_n(seed: u64) -> Result<ScenarioReport, ChaosError> {
    const USERS: usize = 6;
    let mut report = ScenarioReport::new("guessing-storm-burns-exactly-n", seed);
    let mut h = Harness::provision(chaos_params(8), ChaosPlan::new(), seed)?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 202));
    let policy = storm_policy();

    let (artifacts, saves) = save_storm(&mut h, 0..USERS, policy, &mut rng)?;
    report.check_eq("save storm fully acked", saves.succeeded, USERS as u64);

    let fleet = h.deployment.params.total();
    let punctures_at = |h: &Harness| -> Result<u64, ChaosError> {
        let mut total = 0;
        for id in 0..fleet {
            total += h.deployment.datacenter.hsm(id)?.punctures();
        }
        Ok(total)
    };
    report.check_eq("no punctures before the storm", punctures_at(&h)?, 0);

    // The guess cluster is a pure function of (params, salt, ct) — the
    // distinct-HSM total is a *ceiling* on the puncture bill: an HSM can
    // refuse an attempt before touching its secret array, but nothing
    // outside the clusters may ever be punctured.
    let mut puncture_bound = 0u64;
    for i in 0..USERS {
        let artifact = required(&artifacts, i)?;
        let client = h.deployment.new_client(&user(i))?;
        let attempt = client
            .start_recovery(&wrong_pin(i), &artifact.ciphertext, false, &mut rng)
            .map_err(|e| ChaosError::Remote(RemoteError::Client(e)))?;
        let mut cluster: Vec<u64> = attempt.cluster().to_vec();
        cluster.sort_unstable();
        cluster.dedup();
        puncture_bound += cluster.len() as u64;
    }

    let mut failed = 0u64;
    let mut leaked = Vec::new();
    for i in 0..USERS {
        let artifact = required(&artifacts, i)?;
        let (outcome, _) = recover_solo(&mut h, i, &wrong_pin(i), artifact, policy, &mut rng)?;
        match outcome {
            Err(_) => failed += 1,
            Ok(_) => leaked.push(i),
        }
    }
    report.check(
        "every wrong guess was rejected",
        failed == USERS as u64,
        format!("{failed}/{USERS} rejected, secrets leaked to users {leaked:?}"),
    );
    report.check_eq(
        "guessing storm burned exactly one insert per user",
        h.deployment.datacenter.log_entries().len() as u64,
        2 * USERS as u64,
    );
    let punctures_after = punctures_at(&h)?;
    report.check(
        "punctures stay within the guess-cluster bound",
        punctures_after <= puncture_bound,
        format!("{punctures_after} punctures against a bound of {puncture_bound}"),
    );

    // Both a repeat guess and the *true* PIN are refused now: the
    // attempt is spent, which is the whole point of the log.
    let mut repeat_refused = 0u64;
    let mut true_pin_refused = 0u64;
    for i in 0..USERS {
        let artifact = required(&artifacts, i)?;
        let (again, _) = recover_solo(&mut h, i, &wrong_pin(i), artifact, policy, &mut rng)?;
        if matches!(again, Err(RemoteError::Refused(_))) {
            repeat_refused += 1;
        }
        let (honest, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(honest, Err(RemoteError::Refused(_))) {
            true_pin_refused += 1;
        }
    }
    report.check_eq("repeat guesses refused", repeat_refused, USERS as u64);
    report.check_eq(
        "true PIN refused after the burn",
        true_pin_refused,
        USERS as u64,
    );
    report.check_eq(
        "refusals grew no log entries",
        h.deployment.datacenter.log_entries().len() as u64,
        2 * USERS as u64,
    );
    report.check_eq(
        "refusals punctured nothing",
        punctures_at(&h)?,
        punctures_after,
    );

    report.steps = h.step();
    let (ledger, injections) = h.settle();
    report.injections = injections;
    report.reconcile(ledger, h.injected_counters());
    Ok(report)
}

// ---------------------------------------------------------------------
// 3. Crash/restart churn mid-epoch, including a torn WAL commit
// ---------------------------------------------------------------------

/// Part one: a persistent fleet is persisted and reopened between
/// frames of save/kill/epoch churn — the log digest must survive every
/// restart — then serves recoveries and is killed *without* a persist:
/// the served users must stay refused, the puncture counters must not
/// move, and every bystander must still recover byte-identical. Part
/// two: the provider's journal suffers a torn write on its Nth commit
/// ([`CrashingStore::on_nth_commit`]); replaying the WAL into a fresh
/// fleet must yield **exactly** the pre-crash prefix, and the revived
/// fleet must accept fresh saves.
pub fn crash_restart_churn(seed: u64) -> Result<ScenarioReport, ChaosError> {
    let mut report = ScenarioReport::new("crash-restart-churn", seed);
    let mut rng = StdRng::seed_from_u64(mix(seed, 302));
    let policy = storm_policy();
    let params = chaos_params(6);

    // Part one: persist/reopen frames.
    let dir = scratch_dir("churn", seed);
    let mut boot_rng = StdRng::seed_from_u64(mix(seed, 301));
    let (deployment, _meta) = safetypin::DeploymentBuilder::new(params)
        .store_dir(&dir)
        .durability(Durability::Relaxed)
        .open(&mut boot_rng)?;
    let mut h = Harness::from_deployment(deployment, ChaosPlan::new(), seed);
    let mut artifacts = Vec::new();
    let mut restarts = 0u64;
    for frame in 0..3u64 {
        let lo = (frame as usize) * 3;
        let (frame_artifacts, saves) = save_storm(&mut h, lo..lo + 3, policy, &mut rng)?;
        report.check_eq(
            "frame saves fully acked",
            saves.succeeded + frame * 3, // cumulative, so the check name stays unique-ish
            (frame + 1) * 3,
        );
        artifacts.extend(frame_artifacts);

        // Mid-frame structural churn: one HSM dies, an epoch is cut
        // with it down, then it comes back before the frame persists.
        let victim = frame % params.total();
        h.apply(ChaosEvent::KillHsm(victim))?;
        h.deployment
            .datacenter
            .run_epoch()
            .map_err(|e| ChaosError::Check(format!("mid-churn epoch failed: {e}")))?;
        h.apply(ChaosEvent::RestoreHsm(victim))?;

        let digest_before = h.deployment.datacenter.log_digest();
        h.deployment
            .persist(&dir, FileOptions::default(), &mut rng)
            .map_err(safetypin::DeploymentError::from)?;
        h.note_restart();
        restarts += 1;
        let (ledger, injections) = h.settle();
        report.ledger.absorb(ledger);
        report.injections.kills += injections.kills;
        report.injections.restores += injections.restores;
        report.injections.rotations += injections.rotations;
        report.injections.restarts += injections.restarts;

        let (reopened, _meta) = Deployment::restore_from(&dir, FileOptions::default())
            .map_err(safetypin::DeploymentError::from)?;
        report.check(
            "log digest survived the restart",
            reopened.datacenter.log_digest() == digest_before,
            format!("frame {frame}"),
        );
        h = Harness::from_deployment(reopened, ChaosPlan::new(), mix(seed, 310 + frame));
    }
    // The kill frame: the live fleet serves recoveries for the first
    // three users, then dies **without persisting** — whatever its
    // commits left on disk is all the next boot gets.
    const SERVED: usize = 3;
    let mut recovered = 0u64;
    for i in 0..SERVED {
        let artifact = required(&artifacts, i)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(outcome, Ok(plaintext) if plaintext == secret(i)) {
            recovered += 1;
        }
    }
    let punctures = |d: &Deployment<safetypin_store::FileStore>| -> Vec<u64> {
        (0..params.total())
            .map(|id| d.datacenter.hsm(id).map_or(0, |hsm| hsm.punctures()))
            .collect()
    };
    let punctures_before = punctures(&h.deployment);
    let digest_before = h.deployment.datacenter.log_digest();
    h.note_restart();
    restarts += 1;
    let (ledger, injections) = h.settle();
    report.ledger.absorb(ledger);
    report.injections.restarts += injections.restarts;
    drop(h);
    let (reopened, _meta) = Deployment::restore_from(&dir, FileOptions::default())
        .map_err(safetypin::DeploymentError::from)?;
    report.check(
        "log digest and puncture counters survived the kill",
        reopened.datacenter.log_digest() == digest_before
            && punctures(&reopened) == punctures_before,
        format!("punctures per HSM {punctures_before:?}"),
    );
    let mut h = Harness::from_deployment(reopened, ChaosPlan::new(), mix(seed, 315));
    let mut refused = 0u64;
    for i in 0..SERVED {
        let artifact = required(&artifacts, i)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(outcome, Err(RemoteError::Refused(_))) {
            refused += 1;
        }
    }
    report.check_eq(
        "served users stay refused after the kill",
        refused,
        SERVED as u64,
    );
    // The bystanders — saved on the same devices, never recovered —
    // are all still there.
    for i in SERVED..artifacts.len() {
        let artifact = required(&artifacts, i)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(outcome, Ok(plaintext) if plaintext == secret(i)) {
            recovered += 1;
        }
    }
    report.check_eq(
        "every artifact recovered byte-identical after 3 restarts and a kill",
        recovered,
        artifacts.len() as u64,
    );
    report.check_eq("restarts recorded", restarts, 4);
    let _ = std::fs::remove_dir_all(&dir);

    // Part two: a torn write on the 4th WAL commit.
    const CRASH_AT: u64 = 4;
    let shared = SharedStore::new();
    let mut wal_rng = StdRng::seed_from_u64(mix(seed, 320));
    let mut d1 = Deployment::provision(params, &mut wal_rng)?;
    d1.datacenter
        .attach_log_wal(Box::new(CrashingStore::on_nth_commit(
            shared.clone(),
            CRASH_AT,
        )))?;
    let mut save_rng = StdRng::seed_from_u64(mix(seed, 321));
    let mut survivors = Vec::new();
    for i in 100..106usize {
        survivors.push(d1.save(&user(i), &pin(i), &secret(i), &mut save_rng)?);
    }
    report.check_eq(
        "the in-memory fleet kept all saves despite the WAL crash",
        d1.datacenter.log_entries().len() as u64,
        6,
    );

    // A second fleet, provisioned from the same seed, replays the WAL:
    // exactly the committed prefix survives the torn write.
    let mut wal_rng2 = StdRng::seed_from_u64(mix(seed, 320));
    let mut d2 = Deployment::provision(params, &mut wal_rng2)?;
    let replayed = d2.datacenter.attach_log_wal(Box::new(shared.clone()))?;
    report.check_eq(
        "replay recovered exactly the pre-crash prefix",
        replayed,
        CRASH_AT - 1,
    );
    let d1_ids: Vec<Vec<u8>> = d1
        .datacenter
        .log_entries()
        .iter()
        .take((CRASH_AT - 1) as usize)
        .map(|e| e.id.clone())
        .collect();
    let d2_ids: Vec<Vec<u8>> = d2
        .datacenter
        .log_entries()
        .iter()
        .map(|e| e.id.clone())
        .collect();
    report.check(
        "the replayed prefix is byte-identical and in order",
        d1_ids == d2_ids,
        format!("{} replayed ids", d2_ids.len()),
    );

    // The revived fleet serves recoveries for a survivor (both fleets
    // share provisioning randomness, so d1's artifact is valid on d2)
    // and accepts fresh saves past the replayed WAL sequence.
    let mut fresh_rng = StdRng::seed_from_u64(mix(seed, 322));
    let survivor_client = d2.new_client(&user(100))?;
    #[expect(
        clippy::indexing_slicing,
        reason = "the save loop above pushed six artifacts, user 100's first"
    )]
    let survivor = d2.recover(&survivor_client, &pin(100), &survivors[0], &mut fresh_rng);
    report.check(
        "a pre-crash save recovered byte-identical after replay",
        matches!(&survivor, Ok(o) if o.message == secret(100)),
        "user 100 through the revived fleet",
    );
    let artifact = d2.save(&user(200), &pin(200), &secret(200), &mut fresh_rng)?;
    let fresh_client = d2.new_client(&user(200))?;
    let outcome = d2.recover(&fresh_client, &pin(200), &artifact, &mut fresh_rng);
    report.check(
        "post-replay save and recovery round-tripped",
        matches!(&outcome, Ok(o) if o.message == secret(200)),
        "user 200 through the revived fleet",
    );

    report.reconcile(report.ledger, report.ledger); // no transport faults in this scenario
    Ok(report)
}

// ---------------------------------------------------------------------
// 4. Corrupted-wire storm with client retry
// ---------------------------------------------------------------------

/// The client→provider hop drops and corrupts aggressively while a save
/// storm runs with typed retry. Invariants: every save the client saw
/// acked appears in the provider log **exactly once** (content-addressed
/// saves make retries idempotent), the retry layer actually fired, and
/// the telemetry fault counters equal the injector's ledger.
pub fn corrupted_wire_storm(seed: u64) -> Result<ScenarioReport, ChaosError> {
    let mut report = ScenarioReport::new("corrupted-wire-storm", seed);
    let plan = ChaosPlan::new()
        .at(
            1,
            ChaosEvent::SetClientFaults {
                plan: FaultPlan::drop(0.12).with_corrupt(0.12),
                seed: mix(seed, 401),
            },
        )
        .at(2, ChaosEvent::ClearClientFaults);
    let mut h = Harness::provision(chaos_params(6), plan, seed)?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 402));

    h.tick()?; // the wire goes bad
    let (artifacts, storm) = save_storm(&mut h, 0..12, storm_policy(), &mut rng)?;
    h.tick()?; // the wire heals

    report.check_eq(
        "every save resolved to exactly one outcome",
        storm.succeeded + storm.refused + storm.transport_failures,
        storm.attempted,
    );

    // Acked ⇒ in the log exactly once, under the content address the
    // client computed. Retries must never double-insert.
    let mut acked = 0u64;
    let mut missing = 0u64;
    let mut duplicated = 0u64;
    for (i, artifact) in artifacts.iter().enumerate() {
        let Some(artifact) = artifact else { continue };
        acked += 1;
        let blob = remote::encode_artifact(artifact);
        let (id, _) = save_record(&user(i), &blob);
        let copies = h
            .deployment
            .datacenter
            .log_entries()
            .iter()
            .filter(|e| e.id == id)
            .count();
        match copies {
            0 => missing += 1,
            1 => {}
            _ => duplicated += 1,
        }
    }
    report.check(
        "every acked save is in the log",
        missing == 0,
        format!("{missing} of {acked} acked saves missing"),
    );
    report.check(
        "no acked save was observed twice",
        duplicated == 0,
        format!("{duplicated} of {acked} acked saves duplicated"),
    );

    report.steps = h.step();
    let (ledger, injections) = h.settle();
    report.injections = injections;
    report.reconcile(ledger, h.injected_counters());
    report.check(
        "the storm actually faulted the wire",
        report.ledger.total() > 0,
        format!("{} faults injected", report.ledger.total()),
    );
    if report.ledger.dropped + report.ledger.corrupted > 0 {
        report.check(
            "the retry layer fired on the injected faults",
            storm.retries.retries > 0,
            format!(
                "{} retries for {} drop/corrupt faults",
                storm.retries.retries,
                report.ledger.dropped + report.ledger.corrupted
            ),
        );
    }

    // The acked set stays recoverable once the wire heals.
    let mut verified = 0u64;
    let mut sampled = 0u64;
    for (i, artifact) in artifacts.iter().enumerate().take(4) {
        let Some(artifact) = artifact else { continue };
        sampled += 1;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, storm_policy(), &mut rng)?;
        if matches!(outcome, Ok(plaintext) if plaintext == secret(i)) {
            verified += 1;
        }
    }
    report.check_eq(
        "sampled acked saves recovered byte-identical",
        verified,
        sampled,
    );
    Ok(report)
}

// ---------------------------------------------------------------------
// 5. Puncture exhaustion drives rotation under load
// ---------------------------------------------------------------------

/// A tiny BFE key (6-puncture budget) is spent by live recoveries until
/// the HSM asks for rotation; the key rotates while traffic keeps
/// flowing. Invariants: exhaustion is actually reached, rotation resets
/// the puncture budget and clears the flag, and post-rotation traffic
/// is byte-identical end to end.
pub fn exhaustion_rotation_under_load(seed: u64) -> Result<ScenarioReport, ChaosError> {
    let mut report = ScenarioReport::new("exhaustion-rotation-under-load", seed);
    let mut params = chaos_params(4);
    if let Ok(bfe) = BfeParams::new(24, 2) {
        params.bfe = bfe; // max_punctures = 24 / (2·2) = 6
    }
    let mut h = Harness::provision(params, ChaosPlan::new(), seed)?;
    let mut rng = StdRng::seed_from_u64(mix(seed, 502));
    let policy = storm_policy();

    let rounds = punch_until_rotation_needed(&mut h, 0, 0, 40, policy, &mut rng)?;
    report.check(
        "live recoveries exhausted the puncture budget",
        h.deployment.datacenter.hsm(0)?.needs_rotation(),
        format!("{rounds} save/recover rounds to exhaustion"),
    );
    let spent = h.deployment.datacenter.hsm(0)?.punctures();
    report.check(
        "punctures accumulated toward the budget",
        spent > 0,
        format!("{spent} punctures at exhaustion"),
    );

    // Rotate the whole fleet: the punch storm sprayed punctures across
    // every cluster, and with the deliberately tiny filter any residual
    // puncture can collide with a fresh user's slots. Rotation is the
    // paper's cure for exactly that accumulated degradation (§5.3).
    for id in 0..params.total() {
        h.apply(ChaosEvent::RotateHsm(id))?;
    }
    report.check_eq(
        "rotation reset the puncture counter",
        h.deployment.datacenter.hsm(0)?.punctures(),
        0,
    );
    report.check(
        "rotation cleared the rotation flag",
        !h.deployment.datacenter.hsm(0)?.needs_rotation(),
        "needs_rotation still set after rotate",
    );
    report.check_eq(
        "rotation bumped the key epoch",
        h.deployment.datacenter.hsm(0)?.key_epoch(),
        1,
    );

    // Load continues across the rotation: fresh users save and recover
    // against the rotated fleet, byte for byte. Each true-PIN recovery
    // punctures fresh slots of its own, and on a filter this small those
    // can collide with the *next* user's slots — so the fleet rotates
    // between users, the rotate-per-burst regime a 6-puncture budget
    // forces. On a freshly rotated key a round-trip must succeed at any
    // seed.
    let mut post_ok = 0u64;
    for (n, i) in (300..303usize).enumerate() {
        if n > 0 {
            for id in 0..params.total() {
                h.apply(ChaosEvent::RotateHsm(id))?;
            }
        }
        let (artifacts, _) = save_storm(&mut h, i..i + 1, policy, &mut rng)?;
        let artifact = required(&artifacts, 0)?;
        let (outcome, _) = recover_solo(&mut h, i, &pin(i), artifact, policy, &mut rng)?;
        if matches!(outcome, Ok(plaintext) if plaintext == secret(i)) {
            post_ok += 1;
        }
    }
    report.check_eq("post-rotation round-trips byte-identical", post_ok, 3);

    report.steps = h.step();
    let (ledger, injections) = h.settle();
    report.injections = injections;
    report.reconcile(ledger, h.injected_counters());
    Ok(report)
}

// ---------------------------------------------------------------------
// 6. Drain during storm: the live daemon drains mid-storm and returns
// ---------------------------------------------------------------------

/// Acked saves the storm must land before the control connection
/// drains the daemon, so the drain always meets saves in flight.
const SAVES_BEFORE_DRAIN: usize = 256;

/// The only wall-clock scenario: a real `safetypind` serves a
/// multi-threaded save storm over TCP, a control connection drains it
/// while the storm is still saving, and the daemon restarts from its
/// store. Thread interleaving is not deterministic, so the invariants
/// are the ones that must hold under *any* interleaving: the drain is
/// acknowledged, fleet work after it is refused typed while status
/// still answers, the drain finishes once the storm's connections
/// close, and every save the storm saw acked is durable — exactly
/// once, byte-identical — across the restart.
pub fn drain_during_storm(seed: u64) -> Result<ScenarioReport, ChaosError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    let mut report = ScenarioReport::new("drain-during-storm", seed);
    let dir = scratch_dir("drain", seed);
    let params = chaos_params(4);
    let config = DaemonConfig::new(&dir, params)
        .durability(Durability::Relaxed)
        .seed(mix(seed, 601))
        .io_timeout(Duration::from_secs(5));
    let handle = Daemon::bind(config).map_err(daemon_err)?;
    let addr = handle.addr().to_string();
    let mut control = Tcp::connect(TcpConfig::new(addr.clone()))?;

    // Three client threads storm saves through the retry layer; every
    // artifact the daemon acks is recorded with its encoded bytes.
    let stop = Arc::new(AtomicBool::new(false));
    type AckedSaves = Arc<Mutex<Vec<(usize, Vec<u8>)>>>;
    let acked: AckedSaves = Arc::new(Mutex::new(Vec::new()));
    let mut workers = Vec::new();
    for t in 0..3usize {
        let addr = addr.clone();
        let stop = stop.clone();
        let acked = acked.clone();
        let worker_seed = mix(seed, 610 + t as u64);
        workers.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(worker_seed);
            let Ok(tcp) = Tcp::connect(TcpConfig::new(addr)) else {
                return;
            };
            let policy = RetryPolicy {
                max_attempts: 12,
                base_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(20),
                deadline: Duration::from_secs(8),
            };
            let mut ep = Retrying::new(tcp, policy);
            let mut k = 0usize;
            while !stop.load(Ordering::Relaxed) && k < 400 {
                let i = 1000 * (t + 1) + k;
                let connected = remote::connect(&mut ep, &user(i));
                if let Ok(mut client) = connected {
                    if let Ok(artifact) =
                        remote::save(&mut ep, &mut client, &pin(i), &secret(i), &mut rng)
                    {
                        let blob = remote::encode_artifact(&artifact);
                        acked
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push((i, blob));
                    }
                }
                k += 1;
            }
        }));
    }

    // Mid-storm: once the storm has landed some saves, drain the
    // daemon while the workers are still saving.
    let patience = Instant::now() + Duration::from_secs(10);
    let acked_count = || acked.lock().unwrap_or_else(|e| e.into_inner()).len();
    while acked_count() < SAVES_BEFORE_DRAIN && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }
    let drain = control.call(ProviderRequest::Shutdown)?;
    report.check(
        "a shutdown mid-storm is acknowledged",
        matches!(drain, ProviderResponse::Ack),
        format!("{drain:?}"),
    );
    let probe = control.call(ProviderRequest::FetchBackup { username: user(0) })?;
    report.check(
        "a fleet request after the drain is refused SHUTTING_DOWN",
        matches!(&probe, ProviderResponse::Error(e) if e.code == codes::SHUTTING_DOWN),
        format!("{probe:?}"),
    );
    let status = control.call(ProviderRequest::Status)?;
    report.check(
        "status still answers while draining",
        matches!(&status, ProviderResponse::Status(s) if s.draining),
        "draining: true on the control connection",
    );
    stop.store(true, Ordering::Relaxed);
    for worker in workers {
        let _ = worker.join();
    }
    drop(control);
    let drained = handle.wait();
    report.check(
        "the drain finishes once the storm's connections close",
        drained.is_ok(),
        match &drained {
            Ok(_) => "handle.wait() returned the checkpoint".to_string(),
            Err(e) => e.to_string(),
        },
    );

    // Restart from the store.
    report.injections.restarts += 1;
    let handle = Daemon::bind(
        DaemonConfig::new(&dir, params)
            .durability(Durability::Relaxed)
            .seed(mix(seed, 601))
            .io_timeout(Duration::from_secs(5)),
    )
    .map_err(daemon_err)?;
    let mut tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string()))?;

    let acked = acked.lock().unwrap_or_else(|e| e.into_inner());
    report.check(
        "the storm landed some saves",
        !acked.is_empty(),
        format!("{} saves acked before the drain", acked.len()),
    );
    let mut missing = 0u64;
    let mut mismatched = 0u64;
    for (i, blob) in acked.iter() {
        match tcp.call(ProviderRequest::FetchBackup { username: user(*i) })? {
            ProviderResponse::Backup(Some(stored)) if stored == *blob => {}
            ProviderResponse::Backup(Some(_)) => mismatched += 1,
            _ => missing += 1,
        }
    }
    report.check(
        "every acked save survived the drain/restart byte-identical",
        missing == 0 && mismatched == 0,
        format!(
            "{missing} missing, {mismatched} mismatched of {}",
            acked.len()
        ),
    );

    // One full recovery through the restarted daemon.
    if let Some((i, _)) = acked.first() {
        let mut rng = StdRng::seed_from_u64(mix(seed, 620));
        let client = remote::connect(&mut tcp, &user(*i))?;
        let artifact = remote::fetch_backup(&mut tcp, &user(*i))?;
        let outcome = remote::recover(&mut tcp, &client, &pin(*i), &artifact, &mut rng);
        report.check(
            "post-restart recovery byte-identical",
            matches!(&outcome, Ok(plaintext) if *plaintext == secret(*i)),
            format!("user {i} through the restarted daemon"),
        );
    }
    handle.shutdown().map_err(daemon_err)?;
    let _ = std::fs::remove_dir_all(&dir);

    report.reconcile(report.ledger, report.ledger); // no Faulty links in this scenario
    Ok(report)
}
