//! The traffic plane: deterministic save/recover storms driven through
//! a [`Harness`], with the client-side retry wrapper
//! ([`Retrying`]) in the loop so
//! scenarios exercise exactly the resilience path a real client would.
//!
//! Everything here is a thin, seeded driver — the corpus generators
//! ([`user`]/[`pin`]/[`secret`]) are pure functions of the index, and
//! every RNG a storm consumes comes in from the scenario, so the same
//! seed replays the same storm byte for byte.

use rand::rngs::StdRng;

use safetypin_client::remote::{self, RecoverySession, RemoteError};
use safetypin_client::retry::{RetryPolicy, RetryStats, Retrying};
use safetypin_client::BackupArtifact;
use safetypin_seckv::BlockStore;

use crate::injector::{ChaosError, Harness};

/// The deterministic username for corpus index `i`.
pub fn user(i: usize) -> Vec<u8> {
    format!("chaos-user-{i:04}").into_bytes()
}

/// The deterministic (correct) PIN for corpus index `i`.
pub fn pin(i: usize) -> Vec<u8> {
    format!("{:04}", (i * 37 + 11) % 10_000).into_bytes()
}

/// A PIN guaranteed wrong for corpus index `i` (differs from
/// [`pin`]`(i)` in its prefix, not just its digits).
pub fn wrong_pin(i: usize) -> Vec<u8> {
    format!("not-{:04}", (i * 37 + 11) % 10_000).into_bytes()
}

/// The deterministic secret for corpus index `i`.
pub fn secret(i: usize) -> Vec<u8> {
    format!("disk-encryption-key-{i:04}").into_bytes()
}

/// One storm's aggregate outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormReport {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that completed successfully.
    pub succeeded: u64,
    /// Operations ending in a typed refusal.
    pub refused: u64,
    /// Operations ending in a transport-level failure (after retries).
    pub transport_failures: u64,
    /// Retry accounting summed over every wrapped endpoint the storm
    /// created.
    pub retries: RetryStats,
}

impl StormReport {
    fn absorb_retries(&mut self, stats: RetryStats) {
        self.retries.retries += stats.retries;
        self.retries.exhausted += stats.exhausted;
        self.retries.passthrough += stats.passthrough;
    }
}

/// Saves users `range` through the harness (one [`Retrying`] endpoint
/// per user, backoff sleeps elided). Returns the artifacts —
/// position-aligned with `range`, `None` where the save failed — plus
/// the storm report.
pub fn save_storm<S: BlockStore + Send>(
    harness: &mut Harness<S>,
    range: core::ops::Range<usize>,
    policy: RetryPolicy,
    rng: &mut StdRng,
) -> Result<(Vec<Option<BackupArtifact>>, StormReport), ChaosError> {
    let mut report = StormReport::default();
    let mut artifacts = Vec::with_capacity(range.len());
    for i in range {
        let mut client = harness.deployment.new_client(&user(i))?;
        let mut ep = Retrying::new(harness.endpoint(), policy).with_sleeper(|_| {});
        report.attempted += 1;
        match remote::save(&mut ep, &mut client, &pin(i), &secret(i), rng) {
            Ok(artifact) => {
                report.succeeded += 1;
                artifacts.push(Some(artifact));
            }
            Err(RemoteError::Refused(_)) => {
                report.refused += 1;
                artifacts.push(None);
            }
            Err(RemoteError::Transport(_)) | Err(RemoteError::Protocol(_)) => {
                report.transport_failures += 1;
                artifacts.push(None);
            }
            Err(e) => return Err(e.into()),
        }
        report.absorb_retries(ep.stats());
    }
    Ok((artifacts, report))
}

/// Runs one solo recovery for corpus index `i` with an explicit PIN
/// (pass [`wrong_pin`] to drive a guessing storm). The client is built
/// fresh from the fleet's *current* enrollments, so storms straddling a
/// key rotation see the rotated keys exactly as a real client would.
pub fn recover_solo<S: BlockStore + Send>(
    harness: &mut Harness<S>,
    i: usize,
    pin_bytes: &[u8],
    artifact: &BackupArtifact,
    policy: RetryPolicy,
    rng: &mut StdRng,
) -> Result<(Result<Vec<u8>, RemoteError>, RetryStats), ChaosError> {
    let client = harness.deployment.new_client(&user(i))?;
    let mut ep = Retrying::new(harness.endpoint(), policy).with_sleeper(|_| {});
    let outcome = remote::recover(&mut ep, &client, pin_bytes, artifact, rng);
    let stats = ep.stats();
    Ok((outcome, stats))
}

/// Per-user outcomes of a [`recover_wave`], position-aligned with the
/// input sessions.
pub type WaveOutcomes = Vec<Result<Vec<u8>, RemoteError>>;

/// One member of a [`recover_wave`].
pub struct WaveSession<'a> {
    /// Corpus index (selects username via [`user`]).
    pub index: usize,
    /// The PIN to present.
    pub pin: Vec<u8>,
    /// The artifact to recover from.
    pub artifact: &'a BackupArtifact,
}

/// Recovers a whole wave through the one Figure 3 flow
/// ([`remote::recover_many`]): **one** `RecoverBatch` frame, in which
/// the provider logs every attempt, cuts one epoch and attaches each
/// inclusion proof, then per-user client-side reconstruction. Per-user
/// failures (a refused log insert, a cluster that lost too many
/// replies) come back in that user's slot; a failed shared frame fails
/// every user it carried. Clients are built fresh from the fleet's
/// *current* enrollments.
pub fn recover_wave<S: BlockStore + Send>(
    harness: &mut Harness<S>,
    sessions: &[WaveSession<'_>],
    policy: RetryPolicy,
    rng: &mut StdRng,
) -> Result<(WaveOutcomes, StormReport), ChaosError> {
    let mut report = StormReport {
        attempted: sessions.len() as u64,
        ..StormReport::default()
    };
    let mut clients = Vec::with_capacity(sessions.len());
    for session in sessions {
        clients.push(harness.deployment.new_client(&user(session.index))?);
    }
    let wave: Vec<RecoverySession<'_>> = clients
        .iter()
        .zip(sessions)
        .map(|(client, session)| RecoverySession {
            client,
            pin: &session.pin,
            artifact: session.artifact,
        })
        .collect();
    let mut ep = Retrying::new(harness.endpoint(), policy).with_sleeper(|_| {});
    let results: WaveOutcomes = remote::recover_many(&mut ep, &wave, rng)
        .into_iter()
        .map(|outcome| outcome.map(|recovered| recovered.message))
        .collect();
    report.absorb_retries(ep.stats());
    for outcome in &results {
        match outcome {
            Ok(_) => report.succeeded += 1,
            Err(RemoteError::Refused(_)) => report.refused += 1,
            Err(_) => report.transport_failures += 1,
        }
    }
    Ok((results, report))
}

/// Drives solo recoveries against `i`'s artifact until HSM `hsm` asks
/// for rotation (its puncture budget is spent) or `max_rounds` runs
/// out. Each round burns a fresh corpus user's attempt so no identifier
/// repeats. Returns the number of recoveries driven.
pub fn punch_until_rotation_needed<S: BlockStore + Send>(
    harness: &mut Harness<S>,
    hsm: u64,
    base_index: usize,
    max_rounds: usize,
    policy: RetryPolicy,
    rng: &mut StdRng,
) -> Result<usize, ChaosError> {
    for round in 0..max_rounds {
        if harness.deployment.datacenter.hsm(hsm)?.needs_rotation() {
            return Ok(round);
        }
        let i = base_index + round;
        let mut client = harness.deployment.new_client(&user(i))?;
        let mut ep = Retrying::new(harness.endpoint(), policy).with_sleeper(|_| {});
        remote::save(&mut ep, &mut client, &pin(i), &secret(i), rng)?;
        drop(ep);
        let artifact = {
            let mut ep = Retrying::new(harness.endpoint(), policy).with_sleeper(|_| {});
            remote::fetch_backup(&mut ep, &user(i))?
        };
        // Near exhaustion the tiny BFE filter's hash slots collide across
        // users, so individual recoveries may fail with DECRYPT_FAILED —
        // that degradation is exactly what rotation exists to clear.
        // Saves and fetches above stay strict; only the recovery outcome
        // is tolerated here.
        let (outcome, _) = recover_solo(harness, i, &pin(i), &artifact, policy, rng)?;
        let _ = outcome;
    }
    Ok(max_rounds)
}
