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
//! operation is a [`HsmRequest`]/[`HsmResponse`] exchange served by
//! [`Hsm::handle_batch`] (a solo request is a group of one), and the
//! transport decides whether messages pass
//! in-process ([`Direct`]), round-trip through the canonical wire codec
//! with byte metering ([`safetypin_proto::Serialized`]), or suffer
//! injected faults ([`safetypin_proto::Faulty`]). The client-facing
//! operations are likewise exposed as one
//! [`ProviderRequest`]/[`ProviderResponse`] dispatch via
//! [`Datacenter::handle`], and the whole serve side — every
//! [`Traffic`] class a transport or a network front-end can deliver —
//! as [`Datacenter::serve_round`] (this is what `safetypind` plugs its
//! connections into).
//!
//! The provider is **untrusted** in SafetyPin's threat model: every check
//! that matters runs on the HSMs or the client. This crate's tests play
//! both roles — the honest orchestrator and the cheating provider the
//! HSMs must catch.

// Serve-path panic discipline ([workspace.lints] + crates/audit):
// unwrap/expect stay warnings in library code, allowed in tests.
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fanout;

use rand::{CryptoRng, RngCore};
use safetypin_authlog::distributed::{EpochUpdate, UpdateMessage};
use safetypin_authlog::log::{Log, LogEntry, LogError};
use safetypin_authlog::trie::InclusionProof;
use safetypin_hsm::{
    EnrollmentRecord, Hsm, HsmConfig, HsmError, RecoveryRequest, RecoveryResponse,
};
use safetypin_multisig::{aggregate_signatures, Signature};
use safetypin_primitives::hashes::{hash_parts, Domain};
use safetypin_proto::{
    codes, Direct, ErrorReply, HsmRequest, HsmResponse, ProtoError, ProviderRequest,
    ProviderResponse, SaveOutcome, SaveRequest, StatusReport, Traffic, TrafficReply, Transport,
    TransportStats,
};
use safetypin_seckv::{BlockStore, MemStore};
use safetypin_sim::OpCosts;
use safetypin_store::{FileOptions, FileStore, SnapshotBlocks, StoreError};

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
}

impl core::fmt::Display for ProviderError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ProviderError::Log(e) => write!(f, "log error: {e}"),
            ProviderError::EpochFailed(why) => write!(f, "epoch failed: {why}"),
            ProviderError::UnknownHsm(id) => write!(f, "unknown HSM {id}"),
            ProviderError::Hsm(e) => write!(f, "HSM error: {e}"),
            ProviderError::Transport(e) => write!(f, "transport error: {e}"),
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

/// The quorum certificate retained for one entry of the update history:
/// who signed and the aggregate over `(d, d', R)`. Kept so a restored
/// (or replacement, §7.1) HSM can be caught up by *replaying* the
/// certified chain — the HSM verifies every aggregate itself, so
/// catch-up extends no trust beyond live participation.
#[derive(Debug, Clone)]
pub struct EpochCert {
    /// Fleet indices whose keys are aggregated.
    pub signers: Vec<u64>,
    /// The aggregate signature over the update's signing bytes.
    pub aggregate: Signature,
}

impl safetypin_primitives::wire::Encode for EpochCert {
    fn encode(&self, w: &mut safetypin_primitives::wire::Writer) {
        w.put_seq(&self.signers);
        self.aggregate.encode(w);
    }
}

impl safetypin_primitives::wire::Decode for EpochCert {
    fn decode(
        r: &mut safetypin_primitives::wire::Reader<'_>,
    ) -> Result<Self, safetypin_primitives::error::WireError> {
        Ok(Self {
            signers: r.get_seq()?,
            aggregate: Signature::decode(r)?,
        })
    }
}

/// The datacenter: HSM fleet + outsourced stores + log state, fronted by
/// a message [`Transport`].
///
/// Generic over the outsourced-block backend `S`: a freshly provisioned
/// fleet runs on in-memory [`MemStore`]s (the default), while a fleet
/// restored from a snapshot runs live on crash-safe
/// [`FileStore`]s — same orchestration code either way.
pub struct Datacenter<S: BlockStore = MemStore> {
    hsms: Vec<Hsm>,
    stores: Vec<S>,
    log: Log,
    archived_logs: Vec<Vec<LogEntry>>,
    update_history: Vec<UpdateMessage>,
    /// Quorum certificates parallel to `update_history` (same indices);
    /// the replayable chain [`resync_hsm`](Self::resync_hsm) walks.
    epoch_certs: Vec<EpochCert>,
    reply_copies: Vec<(Vec<u8>, RecoveryResponse)>,
    backups: std::collections::BTreeMap<Vec<u8>, Vec<u8>>,
    epoch_chunks: usize,
    transport: Box<dyn Transport>,
    /// Write-ahead log for provider-log mutations (saves + insertions)
    /// between snapshots; `None` runs without inter-snapshot durability
    /// (the freshly provisioned in-memory configuration).
    log_wal: Option<Box<dyn BlockStore + Send>>,
    /// Next free WAL block address.
    wal_seq: u64,
}

/// WAL record kind: a raw `insert_log` entry (`id`, `value`).
const WAL_INSERT: u8 = 0;
/// WAL record kind: a save (`username`, `blob`); the log entry is
/// re-derived on replay via [`save_record`].
const WAL_SAVE: u8 = 1;

/// Frames one provider-log WAL record.
fn wal_record(kind: u8, a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut w = safetypin_primitives::wire::Writer::new();
    w.put_u8(kind);
    w.put_bytes(a);
    w.put_bytes(b);
    w.into_bytes()
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

/// The typed refusal for a round that failed as a whole in transit.
fn transport_refusal(e: &ProviderError) -> ProviderResponse {
    ProviderResponse::Error(match e {
        ProviderError::Transport(ProtoError::Dropped) => ErrorReply::dropped(),
        _ => ErrorReply::new(codes::CORRUPTED, e.to_string()),
    })
}

impl Datacenter<MemStore> {
    /// Provisions a fleet of `total` HSMs and registers the fleet keys on
    /// every device (each HSM verifies every proof of possession itself).
    /// Messages flow over the zero-copy [`Direct`] transport; use
    /// [`provision_with_transport`](Self::provision_with_transport) or
    /// [`set_transport`](Self::set_transport) for other backends.
    pub fn provision<R: RngCore + CryptoRng>(
        total: u64,
        config_for: impl Fn(u64) -> HsmConfig,
        rng: &mut R,
    ) -> Result<Self, ProviderError> {
        Self::provision_with_transport(total, config_for, Box::new(Direct::new()), rng)
    }

    /// [`provision`](Self::provision) with an explicit transport backend.
    /// Provisioning fans out across all available cores; see
    /// [`provision_with_workers`](Self::provision_with_workers) to cap
    /// the worker count (1 = the serial baseline).
    pub fn provision_with_transport<R: RngCore + CryptoRng>(
        total: u64,
        config_for: impl Fn(u64) -> HsmConfig,
        transport: Box<dyn Transport>,
        rng: &mut R,
    ) -> Result<Self, ProviderError> {
        Self::provision_with_workers(total, config_for, transport, usize::MAX, rng)
    }

    /// [`provision_with_transport`](Self::provision_with_transport) with
    /// an explicit worker-thread cap for the per-HSM key generation and
    /// fleet-key registration fan-outs. The provisioned fleet is a
    /// deterministic function of `rng` regardless of `workers` (each HSM
    /// runs under its own sequentially-derived seed), so `workers: 1`
    /// serves as a byte-identical serial baseline for benchmarks.
    pub fn provision_with_workers<R: RngCore + CryptoRng>(
        total: u64,
        config_for: impl Fn(u64) -> HsmConfig,
        transport: Box<dyn Transport>,
        workers: usize,
        rng: &mut R,
    ) -> Result<Self, ProviderError> {
        let configs: Vec<HsmConfig> = (0..total).map(config_for).collect();
        let (mut hsms, stores): (Vec<Hsm>, Vec<MemStore>) =
            fanout::provision_fleet(configs, workers, rng)?
                .into_iter()
                .unzip();
        let fleet: Vec<_> = hsms
            .iter()
            .map(|h| {
                let e = h.enrollment();
                (e.sig_vk, e.sig_pop)
            })
            .collect();
        fanout::register_fleet_parallel(&mut hsms, &fleet, workers)?;
        let epoch_chunks = hsms.len();
        Ok(Self {
            hsms,
            stores,
            log: Log::new(),
            archived_logs: Vec::new(),
            update_history: Vec::new(),
            epoch_certs: Vec::new(),
            reply_copies: Vec::new(),
            backups: Default::default(),
            epoch_chunks,
            transport,
            log_wal: None,
            wal_seq: 0,
        })
    }
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

    /// Number of HSMs in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.hsms.len()
    }

    /// The published enrollment records — what a client downloads as the
    /// "master public key" `mpk` (§3). Reads live device state
    /// in-process (so rotated keys are already reflected);
    /// [`fetch_enrollments`](Self::fetch_enrollments) performs the same
    /// read as a metered transport round and skips unreachable devices.
    pub fn enrollments(&self) -> Vec<EnrollmentRecord> {
        self.hsms.iter().map(|h| h.enrollment()).collect()
    }

    /// Fetches every HSM's current enrollment record over the transport
    /// (one batched `GetEnrollment` round) — picks up rotated BFE keys.
    /// Failed or unreachable devices are skipped.
    pub fn fetch_enrollments(&mut self) -> Result<Vec<EnrollmentRecord>, ProviderError> {
        let batch: Vec<_> = (0..self.hsms.len() as u64)
            .map(|id| (id, HsmRequest::GetEnrollment))
            .collect();
        let mut rng = rand::thread_rng();
        let Self {
            hsms,
            stores,
            transport,
            ..
        } = self;
        let replies =
            transport.exchange_batch(batch, &mut fanout::serve_traffic(hsms, stores, &mut rng))?;
        Ok(replies
            .into_iter()
            .filter_map(|(_, resp)| match resp {
                HsmResponse::Enrollment(e) => Some(e),
                _ => None,
            })
            .collect())
    }

    /// Read access to one HSM (experiments).
    pub fn hsm(&self, id: u64) -> Result<&Hsm, ProviderError> {
        self.hsms
            .get(id as usize)
            .ok_or(ProviderError::UnknownHsm(id))
    }

    /// Mutable access to one HSM (failure/compromise injection).
    pub fn hsm_mut(&mut self, id: u64) -> Result<&mut Hsm, ProviderError> {
        self.hsms
            .get_mut(id as usize)
            .ok_or(ProviderError::UnknownHsm(id))
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

    /// Archived (garbage-collected) logs, oldest first.
    pub fn archived_logs(&self) -> &[Vec<LogEntry>] {
        &self.archived_logs
    }

    /// History of certified update messages.
    pub fn update_history(&self) -> &[UpdateMessage] {
        &self.update_history
    }

    /// Accepts a client's log-insertion request (Figure 3, step 3).
    /// Durable when a WAL is attached: the entry is committed to the
    /// provider-log WAL before the call returns.
    pub fn insert_log(&mut self, id: &[u8], value: &[u8]) -> Result<(), ProviderError> {
        self.log.insert(id, value)?;
        self.wal_append(WAL_INSERT, id, value);
        self.wal_flush();
        Ok(())
    }

    /// Attaches a write-ahead log for provider-log mutations, replaying
    /// any records the backend already holds (records whose entries are
    /// already in the log — e.g. captured by a newer snapshot — replay
    /// as idempotent no-ops). Returns the number of entries the replay
    /// actually added.
    pub fn attach_log_wal(
        &mut self,
        mut wal: Box<dyn BlockStore + Send>,
    ) -> Result<u64, ProviderError> {
        const MALFORMED: ProviderError = ProviderError::Log(LogError::InvalidSnapshot(
            "malformed provider-log WAL record",
        ));
        let mut seq = 0u64;
        let mut replayed = 0u64;
        while let Some(bytes) = wal.get(seq) {
            let mut r = safetypin_primitives::wire::Reader::new(&bytes);
            let kind = r.get_u8().map_err(|_| MALFORMED)?;
            let a = r.get_bytes().map_err(|_| MALFORMED)?.to_vec();
            let b = r.get_bytes().map_err(|_| MALFORMED)?.to_vec();
            match kind {
                WAL_INSERT => match self.log.insert(&a, &b) {
                    Ok(()) => replayed += 1,
                    Err(LogError::DuplicateIdentifier) => {}
                    Err(e) => return Err(e.into()),
                },
                WAL_SAVE => {
                    let (id, value) = save_record(&a, &b);
                    match self.log.insert(&id, &value) {
                        Ok(()) => replayed += 1,
                        Err(LogError::DuplicateIdentifier) => {}
                        Err(e) => return Err(e.into()),
                    }
                    self.backups.insert(a, b);
                }
                _ => return Err(MALFORMED),
            }
            seq += 1;
        }
        self.log_wal = Some(wal);
        self.wal_seq = seq;
        Ok(replayed)
    }

    /// The attached provider-log WAL's I/O statistics (fsyncs land in
    /// `flushes`), or `None` when running without a WAL.
    pub fn log_wal_stats(&self) -> Option<safetypin_seckv::StoreStats> {
        self.log_wal.as_ref().map(|w| w.io_stats())
    }

    /// Stages one WAL record (no-op without an attached WAL).
    fn wal_append(&mut self, kind: u8, a: &[u8], b: &[u8]) {
        if let Some(wal) = &mut self.log_wal {
            wal.put(self.wal_seq, &wal_record(kind, a, b));
            self.wal_seq += 1;
        }
    }

    /// Commits staged WAL records — the group-commit boundary.
    fn wal_flush(&mut self) {
        if let Some(wal) = &mut self.log_wal {
            wal.flush();
        }
    }

    /// The save path: accepts a whole wave of saves under **one**
    /// enrollment-refresh round (mirroring what each saving client
    /// observes), **one** batched log insertion ([`Log::insert_many`] —
    /// each touched trie node hashed once per wave; every save appends
    /// its content-addressed audit record, and an identical re-save is
    /// idempotent), and **one** group-commit WAL flush. A solo save
    /// (`PutBackup`) is a wave of one. Per-user outcomes come back in
    /// request order; log state and digests are independent of how the
    /// saves were split into waves.
    pub fn save_many(&mut self, saves: &[SaveRequest]) -> Result<Vec<SaveOutcome>, ProviderError> {
        if saves.is_empty() {
            return Ok(Vec::new());
        }
        self.fetch_enrollments()?;
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
                    self.wal_append(WAL_SAVE, &save.username, &save.blob);
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
            self.wal_flush();
        }
        Ok(outcomes)
    }

    /// Serves an inclusion proof (Figure 3, step 5). Valid against the
    /// digest the HSMs hold once the covering epoch has run.
    pub fn prove_inclusion(&self, id: &[u8], value: &[u8]) -> Option<InclusionProof> {
        self.log.prove_includes(id, value)
    }

    /// Runs the Figure 5 epoch-update protocol: cut, commit, audit
    /// (including B.3 re-audits for failed HSMs), aggregate, distribute.
    ///
    /// Both the audit fan-out and the certified-digest distribution are
    /// batched transport rounds. An HSM whose audit reply is lost to a
    /// transport fault simply misses this epoch's signer set; the epoch
    /// still certifies if the quorum holds.
    pub fn run_epoch(&mut self) -> Result<EpochOutcome, ProviderError> {
        // Streaming certification: the chunk-boundary digests were
        // recorded incrementally as entries arrived (`Log` digest
        // marks), so assembling the update replays no insert steps —
        // cutting an epoch is O(chunks), not O(pending · path length).
        let (cut, chunk_digests) = self.log.cut_epoch_certified(self.epoch_chunks);
        let update = EpochUpdate::from_certified(&cut, chunk_digests)
            .map_err(|_| ProviderError::EpochFailed("broken chain"))?;
        let message = update.message();

        let active_ids: Vec<u64> = self
            .hsms
            .iter()
            .filter(|h| h.status() != safetypin_hsm::HsmStatus::Failed)
            .map(|h| h.id())
            .collect();
        let failed_ids: Vec<u64> = self
            .hsms
            .iter()
            .filter(|h| h.status() == safetypin_hsm::HsmStatus::Failed)
            .map(|h| h.id())
            .collect();
        if active_ids.is_empty() {
            return Err(ProviderError::EpochFailed("no active HSMs"));
        }

        // Assemble each active HSM's audit packages (deterministic
        // Appendix B.3 assignment, recomputed provider-side).
        let mut audit_batch = Vec::with_capacity(active_ids.len());
        let mut audit_bytes = 0u64;
        for hsm in self.hsms.iter().filter(|h| active_ids.contains(&h.id())) {
            let mut chunks: std::collections::BTreeSet<u32> =
                hsm.audit_assignment(&message).into_iter().collect();
            chunks.extend(safetypin_authlog::distributed::reaudit_chunks_for(
                hsm.id(),
                &active_ids,
                &failed_ids,
                &message.root,
                message.chunk_count,
                hsm.audits_per_epoch(),
            ));
            let mut packages = Vec::with_capacity(chunks.len());
            for &c in &chunks {
                packages.push(
                    update
                        .audit_package(c)
                        .map_err(|_| ProviderError::EpochFailed("audit chunk out of range"))?,
                );
            }
            audit_bytes += packages.iter().map(|p| p.proof_bytes() as u64).sum::<u64>();
            audit_batch.push((
                hsm.id(),
                HsmRequest::AuditAndSign {
                    message,
                    active_ids: active_ids.clone(),
                    failed_ids: failed_ids.clone(),
                    packages,
                },
            ));
        }

        let mut rng = rand::thread_rng();
        let mut sigs = Vec::new();
        let mut signers = Vec::new();
        {
            let Self {
                hsms,
                stores,
                transport,
                ..
            } = &mut *self;
            let replies = transport.exchange_batch(
                audit_batch,
                &mut fanout::serve_traffic(hsms, stores, &mut rng),
            )?;
            for (id, resp) in replies {
                match resp {
                    HsmResponse::Signed(sig) => {
                        sigs.push(sig);
                        signers.push(id as usize);
                    }
                    HsmResponse::Error(e) if e.is_transport_fault() => continue,
                    // An HSM holding a stale digest (restored after
                    // missing updates, or a lost Ack last epoch) cannot
                    // sign this delta — but it must not veto the fleet.
                    // Skip it; the quorum check below still gates
                    // certification, and `resync_hsm` heals it.
                    HsmResponse::Error(e) if e.code == codes::STALE_DIGEST => continue,
                    HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                    _ => {
                        return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                            "expected Signed reply to AuditAndSign",
                        )))
                    }
                }
            }
        }

        let aggregate = aggregate_signatures(&sigs)
            .ok_or(ProviderError::EpochFailed("no signatures to aggregate"))?;

        let accept_batch: Vec<_> = active_ids
            .iter()
            .map(|&id| {
                (
                    id,
                    HsmRequest::AcceptUpdate {
                        message,
                        signers: signers.iter().map(|&s| s as u64).collect(),
                        aggregate,
                    },
                )
            })
            .collect();
        {
            let Self {
                hsms,
                stores,
                transport,
                ..
            } = &mut *self;
            let replies = transport.exchange_batch(
                accept_batch,
                &mut fanout::serve_traffic(hsms, stores, &mut rng),
            )?;
            for (_, resp) in replies {
                match resp {
                    HsmResponse::Ack => {}
                    // A lost Ack (or a stale HSM that couldn't sign
                    // this delta) means that HSM missed the certified
                    // digest — it will answer StaleDigest until
                    // [`resync_hsm`](Self::resync_hsm) replays the
                    // chain to it. The epoch itself still stands,
                    // exactly like the audit phase above.
                    HsmResponse::Error(e) if e.is_transport_fault() => continue,
                    HsmResponse::Error(e) if e.code == codes::STALE_DIGEST => continue,
                    HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                    _ => {
                        return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                            "expected Ack reply to AcceptUpdate",
                        )))
                    }
                }
            }
        }
        self.update_history.push(message);
        self.epoch_certs.push(EpochCert {
            signers: signers.iter().map(|&s| s as u64).collect(),
            aggregate,
        });
        Ok(EpochOutcome {
            message,
            signers,
            aggregate,
            skipped: failed_ids,
            audit_bytes,
        })
    }

    /// Replays the certified update chain to HSM `id` until it holds
    /// the current log digest, returning how many updates it accepted.
    /// A restored HSM ([`restore_hsm`](Self::restore_hsm)) missed every
    /// epoch cut while it was failed; its held digest is stale and it
    /// would (correctly) refuse the next incremental update. Catch-up
    /// is pure replay: for each missed epoch the HSM re-verifies the
    /// retained quorum aggregate ([`EpochCert`]) before advancing, so a
    /// malicious provider can no more rewrite history here than it
    /// could live (§6.2/§7.1 trust model).
    ///
    /// Errors if the HSM's digest is not on the certified chain (e.g.
    /// it predates a garbage collection that archived the chain) — that
    /// HSM needs re-provisioning, not replay.
    pub fn resync_hsm(&mut self, id: u64) -> Result<u64, ProviderError> {
        let held = self.hsm(id)?.log_digest();
        if self.update_history.last().map(|u| u.new_digest) == Some(held)
            || self.update_history.is_empty()
        {
            return Ok(0);
        }
        let Some(start) = self
            .update_history
            .iter()
            .position(|u| u.old_digest == held)
        else {
            return Err(ProviderError::EpochFailed(
                "restored HSM's digest is not on the certified chain",
            ));
        };
        let mut replayed = 0u64;
        for i in start..self.update_history.len() {
            let message = self.update_history[i];
            let cert = self.epoch_certs[i].clone();
            let signers: Vec<usize> = cert.signers.iter().map(|&s| s as usize).collect();
            self.hsm_mut(id)?
                .accept_update(&message, &signers, &cert.aggregate)
                .map_err(ProviderError::Hsm)?;
            replayed += 1;
        }
        Ok(replayed)
    }

    /// Restores a failed HSM and immediately resyncs it
    /// ([`resync_hsm`](Self::resync_hsm)) so it rejoins the fleet
    /// holding the current certified digest — the provider-side half of
    /// fail-stop self-healing. Returns the number of replayed updates.
    pub fn restore_hsm(&mut self, id: u64) -> Result<u64, ProviderError> {
        self.hsm_mut(id)?.restore();
        self.resync_hsm(id)
    }

    /// The recovery round (Figure 3 steps 6–7, the serving engine's
    /// transport leg): takes one per-HSM request list per user,
    /// coalesces every request bound for the same HSM — across users —
    /// into **one envelope per HSM per direction**, and lets each device
    /// serve its whole group under a single group-commit durability
    /// barrier ([`Hsm::handle_batch`]). One user is a wave of one.
    ///
    /// Per-user replies come back in request order. A lost or refused
    /// reply is that item's [`HsmResponse::Error`], so the caller can
    /// reconstruct from whatever cleared the threshold; only a
    /// whole-round transport failure is `Err`. Every share that cleared
    /// is copied for the §8 failure-during-recovery flow.
    pub fn route_recovery<R: RngCore + CryptoRng>(
        &mut self,
        users: Vec<Vec<(u64, RecoveryRequest)>>,
        rng: &mut R,
    ) -> Result<Vec<Vec<(u64, HsmResponse)>>, ProviderError> {
        // Coalesce across users: one group per addressed HSM, items in
        // (user, position) order, with a slot map to reassemble.
        let mut groups: std::collections::BTreeMap<u64, Vec<HsmRequest>> = Default::default();
        let mut slots: std::collections::BTreeMap<u64, Vec<(usize, usize, Vec<u8>)>> =
            Default::default();
        let mut out: Vec<Vec<(u64, HsmResponse)>> = Vec::with_capacity(users.len());
        for (user, round) in users.into_iter().enumerate() {
            let mut user_out = Vec::with_capacity(round.len());
            for (pos, (id, request)) in round.into_iter().enumerate() {
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

        let grouped: Vec<(u64, Vec<HsmRequest>)> = groups.into_iter().collect();
        let replies = {
            let Self {
                hsms,
                stores,
                transport,
                ..
            } = &mut *self;
            transport.exchange_grouped(grouped, &mut fanout::serve_traffic(hsms, stores, rng))?
        };

        for (id, responses) in replies {
            let Some(slot_list) = slots.remove(&id) else {
                return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                    "group response for an HSM that was never addressed",
                )));
            };
            if slot_list.len() != responses.len() {
                return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                    "group response count does not match the request group",
                )));
            }
            for ((user, pos, username), resp) in slot_list.into_iter().zip(responses) {
                if let HsmResponse::RecoveryShare { response, .. } = &resp {
                    self.reply_copies.push((username, response.clone()));
                }
                if let Some(slot) = out.get_mut(user).and_then(|items| items.get_mut(pos)) {
                    *slot = (id, resp);
                }
            }
        }
        Ok(out)
    }

    /// The `Recover`/`RecoverBatch` arms: one
    /// [`route_recovery`](Self::route_recovery) round under the
    /// `recover.cluster_round` span. It only fails whole-round on a
    /// transport-level error (per-HSM refusals come back as items), so
    /// the refusal carries a transport code.
    fn recovery_round<R: RngCore + CryptoRng>(
        &mut self,
        users: Vec<Vec<(u64, RecoveryRequest)>>,
        rng: &mut R,
    ) -> Result<Vec<Vec<(u64, HsmResponse)>>, ProviderResponse> {
        safetypin_telemetry::span!("recover.cluster_round");
        self.route_recovery(users, rng)
            .map_err(|e| transport_refusal(&e))
    }

    /// The `PutBackup`/`SaveBatch` arms: one
    /// [`save_many`](Self::save_many) wave under the `save.commit` span.
    /// It only fails whole-wave on a transport-level error in the
    /// enrollment-refresh round (per-save refusals come back as
    /// outcomes).
    fn save_wave(&mut self, saves: &[SaveRequest]) -> Result<Vec<SaveOutcome>, ProviderResponse> {
        safetypin_telemetry::span!("save.commit");
        self.save_many(saves).map_err(|e| transport_refusal(&e))
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
        // The Figure-10 phase spans are opened here and nowhere else:
        // every flow — in-process `Deployment` calls included — reaches
        // the provider through this dispatch, so a client driving the
        // protocol over a daemon lands in the same histograms as one
        // calling the library directly.
        match request {
            ProviderRequest::FetchEnrollments => ProviderResponse::Enrollments(self.enrollments()),
            ProviderRequest::InsertLog { id, value } => {
                safetypin_telemetry::span!("recover.log_insert");
                match self.insert_log(&id, &value) {
                    Ok(()) => ProviderResponse::Ack,
                    Err(e) => {
                        ProviderResponse::Error(ErrorReply::new(codes::LOG_REFUSED, e.to_string()))
                    }
                }
            }
            ProviderRequest::ProveInclusion { id, value } => {
                safetypin_telemetry::span!("recover.inclusion");
                ProviderResponse::Inclusion(self.prove_inclusion(&id, &value))
            }
            ProviderRequest::RunEpoch => {
                safetypin_telemetry::span!("recover.epoch");
                match self.run_epoch() {
                    Ok(outcome) => ProviderResponse::EpochCertified {
                        message: outcome.message,
                        signer_count: outcome.signers.len() as u32,
                    },
                    Err(e) => {
                        ProviderResponse::Error(ErrorReply::new(codes::EPOCH_FAILED, e.to_string()))
                    }
                }
            }
            ProviderRequest::Recover(requests) => match self.recovery_round(vec![requests], rng) {
                Ok(mut per_user) => ProviderResponse::Recovered(per_user.pop().unwrap_or_default()),
                Err(refusal) => refusal,
            },
            ProviderRequest::FetchReplyCopies { username } => ProviderResponse::ReplyCopies(
                self.reply_copies_for(&username)
                    .into_iter()
                    .cloned()
                    .collect(),
            ),
            ProviderRequest::RecoverBatch(users) => match self.recovery_round(users, rng) {
                Ok(per_user) => ProviderResponse::RecoveredBatch(per_user),
                Err(refusal) => refusal,
            },
            // The full save path, not a bare blob insert: the save's
            // content-addressed audit record lands in the log (an
            // identical re-save is idempotent), so a wire-level retry
            // of PutBackup can never double-record a save.
            ProviderRequest::PutBackup { username, blob } => {
                match self.save_wave(&[SaveRequest { username, blob }]) {
                    Ok(mut outcomes) => match outcomes.pop().and_then(|o| o.error) {
                        None => ProviderResponse::Ack,
                        Some(e) => ProviderResponse::Error(e),
                    },
                    Err(refusal) => refusal,
                }
            }
            ProviderRequest::SaveBatch(saves) => match self.save_wave(&saves) {
                Ok(outcomes) => ProviderResponse::SavedBatch(outcomes),
                Err(refusal) => refusal,
            },
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

    /// Serves one round of any [`Traffic`] class against this
    /// datacenter: provider-level requests go through [`Self::handle`],
    /// HSM-level traffic (single/batch/grouped) is dispatched straight
    /// into the fleet. This is the single entry point a network
    /// front-end (`safetypind`) plugs each decoded frame into.
    pub fn serve_round<R: RngCore + CryptoRng>(
        &mut self,
        traffic: Traffic,
        rng: &mut R,
    ) -> TrafficReply {
        match traffic {
            Traffic::Provider(request) => TrafficReply::Provider(self.handle(request, rng)),
            other => {
                let Self { hsms, stores, .. } = self;
                (fanout::serve_traffic(hsms, stores, rng))(other)
            }
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

    /// Rotates one HSM's BFE keys over the transport (provider schedules
    /// rotations as keys fill up; §9.1).
    pub fn rotate_hsm<R: RngCore + CryptoRng>(
        &mut self,
        hsm_id: u64,
        rng: &mut R,
    ) -> Result<(), ProviderError> {
        if hsm_id as usize >= self.hsms.len() {
            return Err(ProviderError::UnknownHsm(hsm_id));
        }
        let reply = {
            let Self {
                hsms,
                stores,
                transport,
                ..
            } = &mut *self;
            transport.exchange(
                hsm_id,
                HsmRequest::RotateKeys,
                &mut fanout::serve_traffic(hsms, stores, rng),
            )?
        };
        match reply {
            HsmResponse::Rotated(_) => Ok(()),
            HsmResponse::Error(e) => Err(ProviderError::Hsm((&e).into())),
            _ => Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                "expected Rotated reply",
            ))),
        }
    }

    /// Garbage-collects the log: archives entries, resets the log, and
    /// asks every live HSM (one batched round) to follow — each enforces
    /// its own GC budget.
    pub fn garbage_collect(&mut self) -> Result<(), ProviderError> {
        let batch: Vec<_> = self
            .hsms
            .iter()
            .filter(|h| h.status() != safetypin_hsm::HsmStatus::Failed)
            .map(|h| (h.id(), HsmRequest::GarbageCollect))
            .collect();
        let mut rng = rand::thread_rng();
        {
            let Self {
                hsms,
                stores,
                transport,
                ..
            } = &mut *self;
            let replies = transport
                .exchange_batch(batch, &mut fanout::serve_traffic(hsms, stores, &mut rng))?;
            for (_, resp) in replies {
                match resp {
                    HsmResponse::Ack => {}
                    // A lost Ack: that HSM keeps the old digest and its
                    // GC budget untouched; the collection proceeds.
                    HsmResponse::Error(e) if e.is_transport_fault() => continue,
                    HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                    _ => {
                        return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                            "expected Ack reply to GarbageCollect",
                        )))
                    }
                }
            }
        }
        let archived = self.log.garbage_collect();
        self.archived_logs.push(archived);
        Ok(())
    }

    /// Records a fleet-membership event in the log (§6 / the
    /// `authlog::membership` extension). The event becomes immutable once
    /// the next epoch certifies it.
    pub fn record_membership(
        &mut self,
        seq: u64,
        event: &safetypin_authlog::MembershipEvent,
    ) -> Result<(), ProviderError> {
        safetypin_authlog::membership::record_event(&mut self.log, seq, event)?;
        Ok(())
    }

    /// Reconstructs the fleet roster from the log's membership events
    /// (what a client or auditor computes from replayed entries).
    pub fn roster(
        &self,
    ) -> Result<safetypin_authlog::Roster, safetypin_authlog::membership::RosterError> {
        safetypin_authlog::Roster::from_entries(self.log.entries())
    }

    /// Sum of all HSMs' metered costs since the last drain.
    pub fn drain_fleet_costs(&mut self) -> OpCosts {
        let mut total = OpCosts::new();
        for hsm in self.hsms.iter_mut() {
            total.add(&hsm.take_costs());
        }
        total
    }

    /// Sum of the fleet's outsourced-store I/O statistics (reads,
    /// writes, cache hits/misses — nonzero only on instrumented
    /// backends like `MemStore` and `FileStore`).
    pub fn fleet_store_stats(&self) -> safetypin_seckv::StoreStats {
        let mut total = safetypin_seckv::StoreStats::default();
        for store in &self.stores {
            total.add(&store.io_stats());
        }
        total
    }

    /// Which HSMs currently need key rotation.
    pub fn rotation_queue(&self) -> Vec<u64> {
        self.hsms
            .iter()
            .filter(|h| h.needs_rotation())
            .map(|h| h.id())
            .collect()
    }
}

// ---------------------------------------------------------------------
// Persistence (crash-safe snapshots; see safetypin-store)
// ---------------------------------------------------------------------

/// Snapshot-directory filenames.
mod snapshot_files {
    /// Versioned snapshot metadata (a proto [`Envelope`](safetypin_proto::Envelope)).
    pub const META: &str = "snapshot.meta";
    /// The fleet's device keys (stands in for on-chip flash — see
    /// [`safetypin_store::Keyring`]).
    pub const KEYRING: &str = "devices.keys";
    /// Plaintext provider state (log, archives, update history, reply
    /// copies).
    pub const PROVIDER: &str = "provider.bin";
    /// Per-HSM outsourced block stores live under `blocks/hsm-<id>/`.
    pub const BLOCKS_DIR: &str = "blocks";
}

fn blocks_dir(dir: &std::path::Path, id: u64) -> std::path::PathBuf {
    dir.join(snapshot_files::BLOCKS_DIR)
        .join(format!("hsm-{id}"))
}

/// Provider-side plaintext state, bundled for `provider.bin`.
struct ProviderState {
    log: safetypin_authlog::LogSnapshot,
    archived_logs: Vec<Vec<LogEntry>>,
    update_history: Vec<UpdateMessage>,
    epoch_certs: Vec<EpochCert>,
    reply_copies: Vec<(Vec<u8>, RecoveryResponse)>,
    backups: Vec<(Vec<u8>, Vec<u8>)>,
    epoch_chunks: u64,
}

impl safetypin_primitives::wire::Encode for ProviderState {
    fn encode(&self, w: &mut safetypin_primitives::wire::Writer) {
        self.log.encode(w);
        w.put_u32(self.archived_logs.len() as u32);
        for archive in &self.archived_logs {
            w.put_seq(archive);
        }
        w.put_seq(&self.update_history);
        w.put_seq(&self.epoch_certs);
        w.put_seq(&self.reply_copies);
        w.put_seq(&self.backups);
        w.put_u64(self.epoch_chunks);
    }
}

impl safetypin_primitives::wire::Decode for ProviderState {
    fn decode(
        r: &mut safetypin_primitives::wire::Reader<'_>,
    ) -> Result<Self, safetypin_primitives::error::WireError> {
        let log = safetypin_authlog::LogSnapshot::decode(r)?;
        let n = r.get_u32()? as usize;
        if n > r.remaining() {
            return Err(safetypin_primitives::error::WireError::LengthOutOfRange);
        }
        let mut archived_logs = Vec::with_capacity(n);
        for _ in 0..n {
            archived_logs.push(r.get_seq()?);
        }
        Ok(Self {
            log,
            archived_logs,
            update_history: r.get_seq()?,
            epoch_certs: r.get_seq()?,
            reply_copies: r.get_seq()?,
            backups: r.get_seq()?,
            epoch_chunks: r.get_u64()?,
        })
    }
}

impl<S: SnapshotBlocks + Send> Datacenter<S> {
    /// Persists the whole datacenter into `dir`:
    ///
    /// * each HSM's trusted state, **sealed** under its per-device key
    ///   ([`safetypin_hsm::Hsm::persist`]) — reused from an existing
    ///   snapshot's keyring when re-persisting, freshly generated
    ///   otherwise;
    /// * the device [`Keyring`](safetypin_store::Keyring) (standing in
    ///   for the fleet's on-chip flash — kept in its own file so the
    ///   trust boundary is explicit);
    /// * each HSM's outsourced block store, checkpointed
    ///   plaintext-on-host (it is AEAD ciphertext already);
    /// * the provider's plaintext state (log + archives + certified
    ///   update history + §8 reply copies);
    /// * a versioned [`SnapshotMeta`](safetypin_proto::SnapshotMeta)
    ///   envelope, checked before anything else on restore.
    ///
    /// Returns the metadata that was stamped onto the snapshot. `rng`
    /// feeds device-key generation and sealing nonces only — persisting
    /// never perturbs protocol state.
    pub fn persist<R: RngCore + CryptoRng>(
        &mut self,
        dir: &std::path::Path,
        opts: FileOptions,
        rng: &mut R,
    ) -> Result<safetypin_proto::SnapshotMeta, StoreError> {
        use safetypin_primitives::wire::Encode;
        std::fs::create_dir_all(dir)?;

        // Re-persisting over an existing snapshot reuses its device keys
        // and writes the keyring *before* any sealed file is replaced:
        // with a stable ring, a crash mid-persist leaves every sealed
        // file openable (per-device staleness surfaces as typed AEAD
        // errors for that device, never total snapshot loss). Fresh keys
        // are generated only when no usable ring covers the fleet —
        // i.e. when there is no prior snapshot worth preserving.
        let keyring_path = dir.join(snapshot_files::KEYRING);
        let keyring = match safetypin_store::Keyring::load(&keyring_path) {
            Ok(ring) if ring.len() >= self.hsms.len() => ring,
            Ok(_) | Err(StoreError::MissingComponent(_)) | Err(StoreError::Wire(_)) => {
                safetypin_store::Keyring::generate(self.hsms.len(), rng)
            }
            Err(e) => return Err(e),
        };
        keyring.save(&keyring_path)?;
        for (hsm, store) in self.hsms.iter().zip(self.stores.iter_mut()) {
            let key = keyring
                .device(hsm.id())
                .ok_or(StoreError::Inconsistent("keyring does not cover the fleet"))?;
            hsm.persist(dir, key, rng)?;
            store.checkpoint_into(&blocks_dir(dir, hsm.id()), opts)?;
        }

        let state = ProviderState {
            log: self.log.snapshot(),
            archived_logs: self.archived_logs.clone(),
            update_history: self.update_history.clone(),
            epoch_certs: self.epoch_certs.clone(),
            reply_copies: self.reply_copies.clone(),
            backups: self
                .backups
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            epoch_chunks: self.epoch_chunks as u64,
        };
        safetypin_store::write_atomic(&dir.join(snapshot_files::PROVIDER), &state.to_bytes())?;

        let meta = safetypin_proto::SnapshotMeta {
            proto_version: safetypin_proto::PROTO_VERSION,
            fleet_size: self.hsms.len() as u64,
            epoch_count: self.update_history.len() as u64,
            log_generation: self.log.generation(),
            key_epochs: self.hsms.iter().map(|h| h.key_epoch()).collect(),
        };
        let envelope =
            safetypin_proto::Envelope::seal(safetypin_proto::Message::SnapshotMeta(meta.clone()));
        safetypin_store::write_atomic(&dir.join(snapshot_files::META), &envelope.to_bytes())?;

        // The snapshot now captures every WAL-staged mutation; reset the
        // WAL so replay-on-restore stays proportional to the saves since
        // the last persist. (A crash between the snapshot write and this
        // reset is benign: the leftover records replay as idempotent
        // duplicates.)
        if let Some(wal) = &mut self.log_wal {
            for addr in 0..self.wal_seq {
                wal.remove(addr);
            }
            wal.flush();
            self.wal_seq = 0;
        }
        Ok(meta)
    }
}

impl Datacenter<FileStore> {
    /// Restores a datacenter from a snapshot directory, running **live**
    /// on the snapshot's crash-safe block files (every subsequent
    /// puncture and rotation is WAL-committed in place).
    ///
    /// The restored fleet re-handshakes versions first: the metadata
    /// envelope is decoded before any sealed state is touched, so a
    /// snapshot written by a build speaking a different
    /// [`PROTO_VERSION`](safetypin_proto::PROTO_VERSION) fails with a
    /// typed [`StoreError::VersionMismatch`]. Messages flow over the
    /// zero-copy [`Direct`] transport; use
    /// [`set_transport`](Self::set_transport) afterwards for others.
    pub fn restore_from(
        dir: &std::path::Path,
        opts: FileOptions,
    ) -> Result<(Self, safetypin_proto::SnapshotMeta), StoreError> {
        use safetypin_primitives::wire::Decode;

        let meta_bytes =
            safetypin_store::read_component(&dir.join(snapshot_files::META), "snapshot metadata")?;
        let envelope = safetypin_proto::Envelope::from_bytes(&meta_bytes).map_err(|e| match e {
            safetypin_primitives::error::WireError::UnsupportedVersion(found) => {
                StoreError::VersionMismatch {
                    found,
                    expected: safetypin_proto::PROTO_VERSION,
                }
            }
            other => StoreError::Wire(other),
        })?;
        let safetypin_proto::Message::SnapshotMeta(meta) = envelope.msg else {
            return Err(StoreError::Inconsistent(
                "snapshot.meta does not carry a SnapshotMeta message",
            ));
        };

        let keyring = safetypin_store::Keyring::load(&dir.join(snapshot_files::KEYRING))?;
        if (keyring.len() as u64) < meta.fleet_size {
            return Err(StoreError::Inconsistent("keyring does not cover the fleet"));
        }

        let mut hsms = Vec::with_capacity(meta.fleet_size as usize);
        let mut stores = Vec::with_capacity(meta.fleet_size as usize);
        for id in 0..meta.fleet_size {
            let key = keyring
                .device(id)
                .ok_or(StoreError::Inconsistent("keyring does not cover the fleet"))?;
            hsms.push(Hsm::restore_from(dir, id, key)?);
            stores.push(FileStore::open(blocks_dir(dir, id), opts)?);
        }

        let provider_bytes =
            safetypin_store::read_component(&dir.join(snapshot_files::PROVIDER), "provider state")?;
        let state = ProviderState::from_bytes(&provider_bytes)?;
        let log = Log::from_snapshot(state.log)
            .map_err(|_| StoreError::Inconsistent("provider log failed to replay"))?;

        let mut dc = Self {
            hsms,
            stores,
            log,
            archived_logs: state.archived_logs,
            update_history: state.update_history,
            epoch_certs: state.epoch_certs,
            reply_copies: state.reply_copies,
            backups: state.backups.into_iter().collect(),
            epoch_chunks: state.epoch_chunks as usize,
            transport: Box::new(Direct::new()),
            log_wal: None,
            wal_seq: 0,
        };
        // Attach (and replay) the provider-log WAL: saves committed
        // after the snapshot was written — including a wave whose group
        // commit landed but whose response was lost to a crash — are
        // rolled forward to their commit boundary.
        let wal = FileStore::open(
            dir.join(snapshot_files::BLOCKS_DIR).join("provider-log"),
            opts,
        )?;
        dc.attach_log_wal(Box::new(wal))
            .map_err(|_| StoreError::Inconsistent("provider-log WAL failed to replay"))?;
        Ok((dc, meta))
    }
}

#[cfg(test)]
mod tests;
