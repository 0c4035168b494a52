//! The service provider / datacenter (paper §2, §4, §6.2).
//!
//! The datacenter physically hosts the HSM fleet, the outsourced
//! block stores backing each HSM's Bloom-filter-encryption secret array,
//! and the full log state. It batches client log insertions into epochs,
//! runs the Figure 5 update protocol (including the Appendix B.3 re-audit
//! path when HSMs fail mid-epoch), aggregates the HSMs' BLS signatures,
//! serves inclusion proofs, routes recovery requests, and keeps copies of
//! recovery replies for the failure-during-recovery flow (§8).
//!
//! **All HSM traffic flows through a pluggable [`Transport`]**: every
//! fleet round — recovery, epoch audit and accept, GC, rotation — is one
//! [`HsmRequest`] group per addressed HSM, served by
//! [`Hsm::handle_batch`] (a lone request is a group of one), and the
//! transport decides whether messages pass
//! in-process ([`safetypin_proto::Direct`]), round-trip through the
//! canonical wire codec with byte metering
//! ([`safetypin_proto::Serialized`]), or suffer
//! injected faults ([`safetypin_proto::Faulty`]). The client-facing
//! operations are exposed as one
//! [`ProviderRequest`]/[`ProviderResponse`] dispatch,
//! [`Datacenter::handle`] — the only entry point a client (in process
//! or through `safetypind`'s socket) can reach; HSM-level traffic
//! originates inside the datacenter only.
//!
//! The provider is **untrusted** in SafetyPin's threat model: every check
//! that matters runs on the HSMs or the client. This crate's tests play
//! both roles — the honest orchestrator and the cheating provider the
//! HSMs must catch.

// Serve-path panic discipline ([workspace.lints.clippy] plus the
// `assert!` ban in this crate's clippy.toml): no unwrap, expect, raw
// indexing or panicking macro in library code; tests allow them.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::disallowed_macros,
        reason = "test code fails by panicking"
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod epoch;
mod fanout;
mod fleet;
mod persist;

pub use epoch::EpochCert;

use rand::{CryptoRng, RngCore};
use safetypin_authlog::distributed::UpdateMessage;
use safetypin_authlog::log::{Log, LogEntry, LogError};
use safetypin_authlog::trie::InclusionProof;
use safetypin_hsm::{Hsm, HsmError, RecoveryRequest, RecoveryResponse};
use safetypin_multisig::Signature;
use safetypin_primitives::commit;
use safetypin_primitives::hashes::{hash_parts, Domain};
use safetypin_proto::{
    codes, ErrorReply, HsmRequest, HsmResponse, ProtoError, ProviderRequest, ProviderResponse,
    SaveOutcome, SaveRequest, StatusReport, Transport, TransportStats,
};
use safetypin_seckv::{BlockStore, MemStore};
use safetypin_store::SnapshotBlocks;

/// Errors from datacenter orchestration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderError {
    /// Log-insertion failure (duplicate identifier = recovery attempt
    /// already consumed).
    Log(LogError),
    /// The epoch protocol could not assemble a quorum.
    EpochFailed(&'static str),
    /// No HSM with that id.
    UnknownHsm(u64),
    /// An HSM refused an operation.
    Hsm(HsmError),
    /// The transport failed to carry a message.
    Transport(ProtoError),
    /// The journal cannot be replayed (or adopted).
    Journal(&'static str),
}

impl core::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProviderError::Log(e) => write!(f, "log error: {e}"),
            ProviderError::EpochFailed(why) => write!(f, "epoch failed: {why}"),
            ProviderError::UnknownHsm(id) => write!(f, "unknown HSM {id}"),
            ProviderError::Hsm(e) => write!(f, "HSM error: {e}"),
            ProviderError::Transport(e) => write!(f, "transport error: {e}"),
            ProviderError::Journal(why) => write!(f, "provider journal: {why}"),
        }
    }
}

impl std::error::Error for ProviderError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProviderError::Log(e) => Some(e),
            ProviderError::Hsm(e) => Some(e),
            ProviderError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LogError> for ProviderError {
    fn from(e: LogError) -> Self {
        ProviderError::Log(e)
    }
}

impl From<HsmError> for ProviderError {
    fn from(e: HsmError) -> Self {
        ProviderError::Hsm(e)
    }
}

impl From<ProtoError> for ProviderError {
    fn from(e: ProtoError) -> Self {
        ProviderError::Transport(e)
    }
}

/// The outcome of one epoch update.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The certified message `(d, d', R)`.
    pub message: UpdateMessage,
    /// Fleet indices that signed.
    pub signers: Vec<usize>,
    /// The aggregate signature.
    pub aggregate: Signature,
    /// HSMs skipped because they had failed.
    pub skipped: Vec<u64>,
    /// Total audit bytes shipped to HSMs this epoch (bandwidth
    /// accounting for Figure 8).
    pub audit_bytes: u64,
}

/// The datacenter: HSM fleet + outsourced stores + log state, fronted by
/// a message [`Transport`].
///
/// Generic over the outsourced-block backend `S`: a freshly provisioned
/// fleet runs on in-memory [`MemStore`]s (the default), while a fleet
/// restored from a store directory runs live on crash-safe
/// [`FileStore`](safetypin_store::FileStore)s — same orchestration code
/// either way, durable state included: each device keeps its own in its
/// store, the provider keeps its own in the journal (see `persist.rs`).
pub struct Datacenter<S: BlockStore = MemStore> {
    hsms: Vec<Hsm>,
    stores: Vec<S>,
    log: Log,
    archived_logs: Vec<Vec<LogEntry>>,
    update_history: Vec<UpdateMessage>,
    /// Quorum certificates parallel to `update_history` (same indices);
    /// the replayable chain [`resync_hsm`](Self::resync_hsm) walks.
    epoch_certs: Vec<EpochCert>,
    /// Where in `update_history` the current log generation's chain
    /// starts (everything before it certified since-collected logs).
    chain_start: usize,
    reply_copies: Vec<(Vec<u8>, RecoveryResponse)>,
    backups: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    transport: Box<dyn Transport>,
    /// Every mutation of the fields above, one record per block — the
    /// provider's whole durable state.
    journal: Box<dyn SnapshotBlocks + Send>,
    /// Next free journal address.
    journal_len: u64,
}

/// Derives the content-addressed log entry a save appends: the id and
/// value are domain-separated hashes of `(username, blob)`, computed
/// provider-side, so an identical re-save is a detectable duplicate
/// rather than a fresh entry.
pub fn save_record(username: &[u8], blob: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let id = hash_parts(Domain::LogEntry, &[b"save-id", username, blob]);
    let value = hash_parts(Domain::LogEntry, &[b"save-commit", username, blob]);
    (id.to_vec(), value.to_vec())
}

/// The reply for an attempt the log would not take.
fn log_refused(e: ProviderError) -> ErrorReply {
    ErrorReply::new(codes::LOG_REFUSED, e.to_string())
}

/// The reply for a recovery round the fleet transport failed as a whole.
fn round_failed(e: impl Into<ProviderError>) -> ErrorReply {
    match e.into() {
        ProviderError::Transport(ProtoError::Dropped) => ErrorReply::dropped(),
        e => ErrorReply::new(codes::CORRUPTED, e.to_string()),
    }
}

/// The replies of a round that sent each device a one-request group,
/// as one `(id, response)` per device.
fn each_reply(groups: Vec<(u64, Vec<HsmResponse>)>) -> impl Iterator<Item = (u64, HsmResponse)> {
    groups
        .into_iter()
        .flat_map(|(id, responses)| responses.into_iter().map(move |resp| (id, resp)))
}

impl<S: BlockStore + Send> Datacenter<S> {
    /// Swaps the transport backend (e.g. to `Serialized` for byte-true
    /// accounting, or to `Faulty` for failure scenarios). Accumulated
    /// stats of the old transport are discarded with it.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// Accumulated transport accounting (bytes, messages, faults,
    /// simulated seconds).
    pub fn transport_stats(&self) -> TransportStats {
        self.transport.stats()
    }

    /// Drains the transport accounting, returning the old value.
    pub fn take_transport_stats(&mut self) -> TransportStats {
        self.transport.take_stats()
    }

    /// One transport round against the fleet's serve side: one request
    /// group per addressed HSM, answered under per-device streams
    /// seeded from `rng` ([`fanout::serve_traffic`]).
    fn fleet_round<R: RngCore + CryptoRng>(
        &mut self,
        rng: &mut R,
        groups: Vec<(u64, Vec<HsmRequest>)>,
    ) -> Result<Vec<(u64, Vec<HsmResponse>)>, ProviderError> {
        let Self {
            hsms,
            stores,
            transport,
            ..
        } = self;
        Ok(transport.exchange_grouped(groups, &mut fanout::serve_traffic(hsms, stores, rng))?)
    }

    /// The full current log (external auditors, §6.3).
    pub fn log_entries(&self) -> &[LogEntry] {
        self.log.entries()
    }

    /// The authenticated log's current Merkle root digest. Two
    /// datacenters that served the same requests — in waves of any
    /// size — must agree byte for byte.
    pub fn log_digest(&self) -> safetypin_primitives::hashes::Hash256 {
        self.log.digest()
    }

    /// The digest as of the last certified epoch (the empty digest
    /// before the first, and again after a garbage collection): what
    /// every in-sync HSM holds.
    pub fn certified_digest(&self) -> safetypin_primitives::hashes::Hash256 {
        self.log.certified_digest()
    }

    /// Archived (garbage-collected) logs, oldest first.
    pub fn archived_logs(&self) -> &[Vec<LogEntry>] {
        &self.archived_logs
    }

    /// History of certified update messages.
    pub fn update_history(&self) -> &[UpdateMessage] {
        &self.update_history
    }

    /// Accepts a client's log-insertion request (Figure 3, step 3): the
    /// entry is committed to the journal before the call returns.
    pub fn insert_log(&mut self, id: &[u8], value: &[u8]) -> Result<(), ProviderError> {
        self.log.insert(id, value)?;
        self.journal_append(persist::INSERT, |w| {
            w.put_bytes(id);
            w.put_bytes(value);
        });
        self.journal_commit();
        Ok(())
    }

    /// The save path: accepts a whole wave of saves — one
    /// [`Log::insert`] per save, in request order ([`Log::insert_many`];
    /// every save appends its content-addressed audit record, and an
    /// identical re-save is idempotent) — under **one** group-commit
    /// journal flush. A backup involves the client and the provider only
    /// (paper §3–4): the client encrypted to the published keys
    /// ([`enrollments`](Self::enrollments)), so a save moves no HSM
    /// message and succeeds with the whole fleet down. A solo save
    /// (`PutBackup`) is a wave of one. Per-user outcomes come back in
    /// request order; the log — digest, entry order, and the layout of
    /// the epoch that certifies it — is independent of how the saves were
    /// split into waves, and is what replaying the journal rebuilds.
    pub fn save_many(&mut self, saves: &[SaveRequest]) -> Vec<SaveOutcome> {
        let items: Vec<(Vec<u8>, Vec<u8>)> = saves
            .iter()
            .map(|s| save_record(&s.username, &s.blob))
            .collect();
        let results = self.log.insert_many(&items);
        let mut outcomes = Vec::with_capacity(saves.len());
        let mut staged = false;
        for (save, result) in saves.iter().zip(results) {
            let error = match result {
                Ok(()) => {
                    self.journal_append(persist::SAVE, |w| {
                        w.put_bytes(&save.username);
                        w.put_bytes(&save.blob);
                    });
                    staged = true;
                    None
                }
                // An identical re-save: already recorded, idempotent.
                Err(LogError::DuplicateIdentifier) => None,
                Err(e) => Some(ErrorReply::new(codes::LOG_REFUSED, e.to_string())),
            };
            if error.is_none() {
                self.backups
                    .insert(save.username.clone(), save.blob.clone());
            }
            outcomes.push(SaveOutcome {
                username: save.username.clone(),
                error,
            });
        }
        if staged {
            self.journal_commit();
        }
        outcomes
    }

    /// Serves an inclusion proof (Figure 3, step 5) against the live log:
    /// the legacy `ProveInclusion`. A recovery round proves its own.
    pub fn prove_inclusion(&self, id: &[u8], value: &[u8]) -> Option<InclusionProof> {
        self.log.prove_includes(id, value)
    }

    /// The recovery round behind `Recover`/`RecoverBatch`, Figure 3 steps
    /// 3–7 under one `&mut self` for one per-HSM request list per user
    /// (one user is a wave of one): each user's attempt, the `(username,
    /// commitment_of(opening))` all its requests carry, is logged (an
    /// earlier `InsertLog` of it is fine) and proved — a user without a
    /// proof gets `LOG_REFUSED` in every slot and touches no HSM — then,
    /// if anyone is routed and insertions are pending, **one** epoch
    /// certifies them (the cut leaves the trie alone, so the proofs hold
    /// against the digest every HSM then has). Each routed request gets
    /// the provider's proof, and every request bound for the same HSM —
    /// across users — travels in **one envelope per HSM per direction**,
    /// each device serving its group under one group-commit durability
    /// barrier ([`Hsm::handle_batch`]). Nothing lands between logging an
    /// attempt and serving it, so a logged attempt always gets its shares.
    ///
    /// Per-user replies come back in request order. A lost or refused
    /// reply is that item's [`HsmResponse::Error`], so the caller can
    /// reconstruct from whatever cleared the threshold; only a failed
    /// epoch (`EPOCH_FAILED`) or transport round is `Err`. Cleared shares
    /// are copied for §8 and journaled before any share is returned.
    pub fn route_recovery<R: RngCore + CryptoRng>(
        &mut self,
        users: Vec<Vec<(u64, RecoveryRequest)>>,
        rng: &mut R,
    ) -> Result<Vec<Vec<(u64, HsmResponse)>>, ErrorReply> {
        let mut logged = Vec::with_capacity(users.len());
        for round in &users {
            safetypin_telemetry::span!("recover.log_insert");
            logged.push(self.log_attempt(round));
        }
        let mut proofs = Vec::with_capacity(users.len());
        for attempt in logged {
            safetypin_telemetry::span!("recover.inclusion");
            // A logged identifier with no proof holds another attempt.
            proofs.push(attempt.and_then(|(id, value)| {
                self.log
                    .prove_includes(&id, &value)
                    .ok_or_else(|| log_refused(LogError::DuplicateIdentifier.into()))
            }));
        }
        if proofs.iter().any(Result::is_ok) && self.log.pending_count() > 0 {
            safetypin_telemetry::span!("recover.epoch");
            self.run_epoch()
                .map_err(|e| ErrorReply::new(codes::EPOCH_FAILED, e.to_string()))?;
        }

        safetypin_telemetry::span!("recover.cluster_round");
        // Coalesce across users: one group per addressed HSM, items in
        // (user, position) order, with a slot map to reassemble.
        let mut groups: std::collections::BTreeMap<u64, Vec<HsmRequest>> = Default::default();
        let mut slots: std::collections::BTreeMap<u64, Vec<(usize, usize, Vec<u8>)>> =
            Default::default();
        let mut out: Vec<Vec<(u64, HsmResponse)>> = Vec::with_capacity(users.len());
        for (user, (round, proof)) in users.into_iter().zip(proofs).enumerate() {
            let mut user_out = Vec::with_capacity(round.len());
            for (pos, (id, mut request)) in round.into_iter().enumerate() {
                match &proof {
                    Ok(proof) => request.inclusion = proof.clone(),
                    Err(refusal) => {
                        user_out.push((id, HsmResponse::Error(refusal.clone())));
                        continue;
                    }
                }
                slots
                    .entry(id)
                    .or_default()
                    .push((user, pos, request.username.clone()));
                groups
                    .entry(id)
                    .or_default()
                    .push(HsmRequest::RecoverShare(request));
                // Placeholder, overwritten from the served group below.
                user_out.push((id, HsmResponse::Error((&HsmError::Unavailable).into())));
            }
            out.push(user_out);
        }

        let replies = self
            .fleet_round(rng, groups.into_iter().collect())
            .map_err(round_failed)?;

        let mut copies = Vec::new();
        for (id, responses) in replies {
            let Some(slot_list) = slots.remove(&id) else {
                return Err(round_failed(ProtoError::UnexpectedMessage(
                    "group response for an HSM that was never addressed",
                )));
            };
            if slot_list.len() != responses.len() {
                return Err(round_failed(ProtoError::UnexpectedMessage(
                    "group response count does not match the request group",
                )));
            }
            for ((user, pos, username), resp) in slot_list.into_iter().zip(responses) {
                if let HsmResponse::RecoveryShare { response } = &resp {
                    copies.push((username, response.clone()));
                }
                if let Some(slot) = out.get_mut(user).and_then(|items| items.get_mut(pos)) {
                    *slot = (id, resp);
                }
            }
        }
        if !copies.is_empty() {
            self.journal_append(persist::REPLIES, |w| w.put_seq(&copies));
            self.journal_commit();
            self.reply_copies.extend(copies);
        }
        Ok(out)
    }

    /// Logs the attempt all of one user's requests carry, `(username,
    /// commitment_of(opening))`. A defined identifier is left to the proof,
    /// which holds only for this very attempt (an earlier `InsertLog`).
    fn log_attempt(
        &mut self,
        round: &[(u64, RecoveryRequest)],
    ) -> Result<(Vec<u8>, Vec<u8>), ErrorReply> {
        use safetypin_primitives::wire::Encode;
        let attempts: Vec<_> = round
            .iter()
            .map(|(_, r)| (&r.username, commit::commitment_of(&r.opening)))
            .collect();
        let Some(&(username, commitment)) = attempts
            .first()
            .filter(|first| attempts.iter().all(|attempt| attempt == *first))
        else {
            return Err(ErrorReply::new(
                codes::LOG_REFUSED,
                "the user's requests carry no single attempt",
            ));
        };
        let (id, value) = (username.clone(), commitment.to_bytes());
        match self.insert_log(&id, &value) {
            Ok(()) | Err(ProviderError::Log(LogError::DuplicateIdentifier)) => Ok((id, value)),
            Err(e) => Err(log_refused(e)),
        }
    }

    /// The `PutBackup`/`SaveBatch` arms: one
    /// [`save_many`](Self::save_many) wave under the `save.commit` span.
    /// A wave never fails whole (per-save refusals come back as
    /// outcomes).
    fn save_wave(&mut self, saves: &[SaveRequest]) -> Vec<SaveOutcome> {
        safetypin_telemetry::span!("save.commit");
        self.save_many(saves)
    }

    /// Single dispatch for the client-facing message set: every
    /// [`ProviderRequest`] maps onto the corresponding orchestration
    /// method, with failures encoded as [`ProviderResponse::Error`]
    /// replies. This is the surface a network front-end would expose.
    pub fn handle<R: RngCore + CryptoRng>(
        &mut self,
        request: ProviderRequest,
        rng: &mut R,
    ) -> ProviderResponse {
        // The Figure-10 phase spans are opened in `route_recovery` and
        // `save_wave` only, which every flow reaches through this
        // dispatch; the legacy InsertLog/ProveInclusion/RunEpoch arms
        // open none, so a client still sending them is not counted twice.
        match request {
            ProviderRequest::FetchEnrollments => ProviderResponse::Enrollments(self.enrollments()),
            ProviderRequest::InsertLog { id, value } => match self.insert_log(&id, &value) {
                Ok(()) => ProviderResponse::Ack,
                Err(e) => ProviderResponse::Error(log_refused(e)),
            },
            ProviderRequest::ProveInclusion { id, value } => {
                ProviderResponse::Inclusion(self.prove_inclusion(&id, &value))
            }
            ProviderRequest::RunEpoch => match self.run_epoch() {
                Ok(outcome) => ProviderResponse::EpochCertified {
                    message: outcome.message,
                    signer_count: outcome.signers.len() as u32,
                },
                Err(e) => {
                    ProviderResponse::Error(ErrorReply::new(codes::EPOCH_FAILED, e.to_string()))
                }
            },
            ProviderRequest::Recover(requests) => match self.route_recovery(vec![requests], rng) {
                Ok(mut per_user) => ProviderResponse::Recovered(per_user.pop().unwrap_or_default()),
                Err(refusal) => ProviderResponse::Error(refusal),
            },
            ProviderRequest::FetchReplyCopies { username } => ProviderResponse::ReplyCopies(
                self.reply_copies_for(&username)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
            ProviderRequest::RecoverBatch(users) => match self.route_recovery(users, rng) {
                Ok(per_user) => ProviderResponse::RecoveredBatch(per_user),
                Err(refusal) => ProviderResponse::Error(refusal),
            },
            // The full save path, not a bare blob insert: the save's
            // content-addressed audit record lands in the log (an
            // identical re-save is idempotent), so a wire-level retry
            // of PutBackup can never double-record a save.
            ProviderRequest::PutBackup { username, blob } => {
                let mut outcomes = self.save_wave(&[SaveRequest { username, blob }]);
                match outcomes.pop().and_then(|o| o.error) {
                    None => ProviderResponse::Ack,
                    Some(e) => ProviderResponse::Error(e),
                }
            }
            ProviderRequest::SaveBatch(saves) => {
                ProviderResponse::SavedBatch(self.save_wave(&saves))
            }
            ProviderRequest::FetchBackup { username } => {
                ProviderResponse::Backup(self.backups.get(&username).cloned())
            }
            ProviderRequest::Status => ProviderResponse::Status(self.status_report()),
            // Every serving role shares the one process-wide registry,
            // so a bare datacenter answers with the same snapshot the
            // daemon would.
            ProviderRequest::Metrics => {
                ProviderResponse::Metrics(safetypin_proto::MetricsReport::from_global())
            }
            // Shutdown is a service-level request: it drains connections
            // and persists state, which only the daemon wrapping this
            // datacenter can do.
            ProviderRequest::Shutdown => ProviderResponse::Error(ErrorReply::new(
                codes::UNSUPPORTED,
                "no daemon attached; shutdown is a service-level request",
            )),
        }
    }

    /// A point-in-time summary of this datacenter's fleet-level
    /// counters. The LHE parameters (cluster/threshold/PIN space) live a
    /// layer up — `Deployment::status_report` in the core crate fills
    /// them in, and the daemon fills the connection/admission fields,
    /// before a [`StatusReport`] goes over the wire.
    pub fn status_report(&self) -> StatusReport {
        StatusReport {
            fleet_size: self.hsms.len() as u64,
            epoch_count: self.update_history.len() as u64,
            log_entries: self.log.entries().len() as u64,
            backups: self.backups.len() as u64,
            reply_copies: self.reply_copies.len() as u64,
            ..StatusReport::default()
        }
    }

    /// Stored reply copies for `username` (replacement-device recovery,
    /// §8).
    pub fn reply_copies_for(&self, username: &[u8]) -> Vec<&RecoveryResponse> {
        self.reply_copies
            .iter()
            .filter(|(u, _)| u == username)
            .map(|(_, r)| r)
            .collect()
    }
}

#[cfg(test)]
mod tests;
