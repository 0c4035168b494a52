//! The request/response message sets for both role boundaries.
//!
//! [`HsmRequest`]/[`HsmResponse`] cover everything the datacenter sends
//! to (and receives from) an HSM: enrollment fetch, recovery shares,
//! epoch audit-and-sign, digest acceptance, garbage collection, and key
//! rotation. [`ProviderRequest`]/[`ProviderResponse`] cover the
//! untrusted-provider-facing operations a client drives: enrollment
//! download, log insertion, inclusion proofs, epoch runs, recovery
//! rounds, and §8 reply-copy fetches.
//!
//! Every variant has a stable one-byte tag; adding a message appends a
//! new tag (and, if the change is not backwards-compatible, bumps
//! [`PROTO_VERSION`](crate::PROTO_VERSION)).

use safetypin_authlog::distributed::{ChunkAudit, UpdateMessage};
use safetypin_authlog::trie::InclusionProof;
use safetypin_multisig::Signature;
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

use crate::messages::{EnrollmentRecord, RecoveryRequest, RecoveryResponse, StatusReport};
use crate::metrics::MetricsReport;

/// A wire error code: one of the [`codes`] constants, or a code this
/// build does not know, preserved as decoded. The field is private, so
/// only [`codes`] and the decoder can make one: a reply site cannot
/// carry a bare number. `Debug` and `Display` print the number.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct ErrorCode(u16);

impl core::fmt::Debug for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Debug::fmt(&self.0, f)
    }
}

impl core::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        core::fmt::Display::fmt(&self.0, f)
    }
}

/// Stable numeric codes carried by [`ErrorReply`] messages.
///
/// Codes 1–16 mirror the HSM's refusal reasons; 32+ are transport-layer
/// outcomes a faulty link can synthesize.
pub mod codes {
    use super::ErrorCode;

    /// The HSM has fail-stopped.
    pub const UNAVAILABLE: ErrorCode = ErrorCode(1);
    /// The log-inclusion proof did not verify.
    pub const BAD_INCLUSION_PROOF: ErrorCode = ErrorCode(2);
    /// The HSM is not the committed cluster member for a requested slot.
    pub const NOT_IN_CLUSTER: ErrorCode = ErrorCode(3);
    /// The presented ciphertext does not match the committed hash.
    pub const CIPHERTEXT_MISMATCH: ErrorCode = ErrorCode(4);
    /// Share decryption failed (punctured, wrong key, or malformed).
    pub const DECRYPT_FAILED: ErrorCode = ErrorCode(5);
    /// The decrypted share was not bound to the requesting username.
    pub const USERNAME_MISMATCH: ErrorCode = ErrorCode(6);
    /// A chunk audit failed.
    pub const AUDIT_FAILED: ErrorCode = ErrorCode(7);
    /// Audit packages do not match the deterministic assignment.
    pub const WRONG_AUDIT_SET: ErrorCode = ErrorCode(8);
    /// The update's old digest does not match the held digest.
    pub const STALE_DIGEST: ErrorCode = ErrorCode(9);
    /// Too few signers behind an aggregate signature.
    pub const QUORUM_TOO_SMALL: ErrorCode = ErrorCode(10);
    /// The aggregate signature did not verify.
    pub const BAD_AGGREGATE: ErrorCode = ErrorCode(11);
    /// A fleet key's proof of possession failed.
    pub const BAD_PROOF_OF_POSSESSION: ErrorCode = ErrorCode(12);
    /// A designated-auditor endorsement was missing or invalid.
    pub const MISSING_AUDITOR_ENDORSEMENT: ErrorCode = ErrorCode(13);
    /// The provider exhausted its garbage-collection budget.
    pub const GC_LIMIT_REACHED: ErrorCode = ErrorCode(14);
    /// Malformed wire input inside a payload.
    pub const WIRE: ErrorCode = ErrorCode(15);
    /// An underlying cryptographic failure.
    pub const CRYPTO: ErrorCode = ErrorCode(16);
    /// The addressed HSM does not exist.
    pub const UNKNOWN_HSM: ErrorCode = ErrorCode(17);
    /// A log insertion was refused (attempt already consumed).
    pub const LOG_REFUSED: ErrorCode = ErrorCode(18);
    /// The epoch protocol failed to assemble a quorum.
    pub const EPOCH_FAILED: ErrorCode = ErrorCode(19);
    /// The transport dropped the message.
    pub const DROPPED: ErrorCode = ErrorCode(32);
    /// The transport corrupted the message beyond parsing.
    pub const CORRUPTED: ErrorCode = ErrorCode(33);
    /// The service refused the request because the connection exceeded
    /// its request-rate budget; retry after backing off.
    pub const RATE_LIMITED: ErrorCode = ErrorCode(34);
    /// The service refused the connection or request because it is at
    /// its concurrent-client capacity.
    pub const OVERLOADED: ErrorCode = ErrorCode(35);
    /// The service is draining toward a persist-on-shutdown and accepts
    /// no new work.
    pub const SHUTTING_DOWN: ErrorCode = ErrorCode(36);
    /// The endpoint cannot serve this request class (e.g. raw HSM
    /// traffic sent to a fleet-less endpoint, or a service-level
    /// request sent to a bare datacenter).
    pub const UNSUPPORTED: ErrorCode = ErrorCode(37);
    /// The service hit an internal fault (e.g. a fan-out worker died)
    /// and could not produce a real reply for this request.
    pub const INTERNAL: ErrorCode = ErrorCode(38);
    // 39 is retired: it meant "the fleet stayed held past the request
    // budget", a refusal the daemon no longer makes. Peers may have
    // seen it, so it must never be reused for another meaning.
}

/// A wire-transportable refusal: a stable numeric code plus a
/// human-readable detail string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// One of the [`codes`] constants (unknown codes are preserved).
    pub code: ErrorCode,
    /// Human-readable context; never interpreted programmatically.
    pub detail: String,
}

impl ErrorReply {
    /// Builds a reply from a code and detail text.
    pub fn new(code: ErrorCode, detail: impl Into<String>) -> Self {
        Self {
            code,
            detail: detail.into(),
        }
    }

    /// The reply a transport synthesizes for a dropped message.
    pub fn dropped() -> Self {
        Self::new(codes::DROPPED, "message dropped in transit")
    }

    /// The reply a transport synthesizes for an unparseable message.
    pub fn corrupted() -> Self {
        Self::new(codes::CORRUPTED, "message corrupted in transit")
    }

    /// True for the transport-fault codes a caller should treat like a
    /// fail-stopped HSM (skip and carry on) rather than a protocol error.
    pub fn is_transport_fault(&self) -> bool {
        self.code == codes::DROPPED || self.code == codes::CORRUPTED
    }

    /// True for refusals that describe a *transient* service condition —
    /// rate limiting, admission-control overload — where the same
    /// request may well succeed after a backoff. Protocol-level
    /// refusals (bad proof, consumed attempt, version mismatch) are
    /// permanent and return `false`.
    pub fn is_transient(&self) -> bool {
        matches!(self.code, codes::RATE_LIMITED | codes::OVERLOADED)
    }
}

impl core::fmt::Display for ErrorReply {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "error {}: {}", self.code, self.detail)
    }
}

impl Encode for ErrorReply {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.code.0);
        w.put_bytes(self.detail.as_bytes());
    }
}

impl Decode for ErrorReply {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let code = ErrorCode(r.get_u16()?);
        // Detail is advisory text; tolerate (lossily repair) non-UTF-8 so
        // a mangled detail string never masks the code it carries.
        let detail = String::from_utf8_lossy(r.get_bytes()?).into_owned();
        Ok(Self { code, detail })
    }
}

/// Datacenter → HSM operations.
#[derive(Debug, Clone, PartialEq)]
pub enum HsmRequest {
    /// Fetch the HSM's enrollment record (identity, BLS, and BFE keys).
    GetEnrollment,
    /// Process one recovery-share request (§4.2 check list + puncture).
    RecoverShare(RecoveryRequest),
    /// Audit the supplied chunk packages for an epoch update and, if
    /// every assigned chunk verifies, sign `(d, d', R)` (Figure 5 +
    /// Appendix B.3 re-audits).
    AuditAndSign {
        /// The update tuple to sign.
        message: UpdateMessage,
        /// Ids of HSMs participating this epoch.
        active_ids: Vec<u64>,
        /// Ids of fail-stopped HSMs whose chunks must be re-audited.
        failed_ids: Vec<u64>,
        /// The audit packages covering this HSM's assignment.
        packages: Vec<ChunkAudit>,
    },
    /// Accept a new digest under a quorum aggregate signature.
    AcceptUpdate {
        /// The certified update tuple.
        message: UpdateMessage,
        /// Fleet indices whose keys are aggregated.
        signers: Vec<u64>,
        /// The aggregate BLS signature.
        aggregate: Signature,
    },
    /// Follow a provider garbage collection (bounded per HSM, §6.2).
    GarbageCollect,
    /// Rotate the BFE keypair (§7.1 / §9.1).
    RotateKeys,
}

impl Encode for HsmRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            HsmRequest::GetEnrollment => w.put_u8(0),
            HsmRequest::RecoverShare(req) => {
                w.put_u8(1);
                req.encode(w);
            }
            HsmRequest::AuditAndSign {
                message,
                active_ids,
                failed_ids,
                packages,
            } => {
                w.put_u8(2);
                message.encode(w);
                w.put_seq(active_ids);
                w.put_seq(failed_ids);
                w.put_seq(packages);
            }
            HsmRequest::AcceptUpdate {
                message,
                signers,
                aggregate,
            } => {
                w.put_u8(3);
                message.encode(w);
                w.put_seq(signers);
                aggregate.encode(w);
            }
            HsmRequest::GarbageCollect => w.put_u8(4),
            HsmRequest::RotateKeys => w.put_u8(5),
        }
    }
}

impl Decode for HsmRequest {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(HsmRequest::GetEnrollment),
            1 => Ok(HsmRequest::RecoverShare(RecoveryRequest::decode(r)?)),
            2 => Ok(HsmRequest::AuditAndSign {
                message: UpdateMessage::decode(r)?,
                active_ids: r.get_seq()?,
                failed_ids: r.get_seq()?,
                packages: r.get_seq()?,
            }),
            3 => Ok(HsmRequest::AcceptUpdate {
                message: UpdateMessage::decode(r)?,
                signers: r.get_seq()?,
                aggregate: Signature::decode(r)?,
            }),
            4 => Ok(HsmRequest::GarbageCollect),
            5 => Ok(HsmRequest::RotateKeys),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

impl HsmRequest {
    /// True for recovery-share traffic (the messages a
    /// [`Faulty`](crate::transport::Faulty) transport scoped to
    /// recovery faults will touch).
    pub fn is_recovery(&self) -> bool {
        matches!(self, HsmRequest::RecoverShare(_))
    }
}

/// HSM → datacenter replies, one per [`HsmRequest`] variant plus a
/// typed refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum HsmResponse {
    /// Reply to [`HsmRequest::GetEnrollment`].
    Enrollment(EnrollmentRecord),
    /// Reply to [`HsmRequest::RecoverShare`]: the shares and nothing
    /// else. The device's cost meter never leaves it.
    RecoveryShare {
        /// The decrypted (or §8-encrypted) shares.
        response: RecoveryResponse,
    },
    /// Reply to [`HsmRequest::AuditAndSign`]: this HSM's BLS signature
    /// over `(d, d', R)`.
    Signed(Signature),
    /// Success reply for requests with no payload (digest acceptance,
    /// garbage collection).
    Ack,
    /// Reply to [`HsmRequest::RotateKeys`]: the refreshed enrollment
    /// record carrying the new BFE public key and epoch.
    Rotated(EnrollmentRecord),
    /// The HSM (or the transport on its behalf) refused the request.
    Error(ErrorReply),
}

impl Encode for HsmResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            HsmResponse::Enrollment(e) => {
                w.put_u8(0);
                e.encode(w);
            }
            HsmResponse::RecoveryShare { response } => {
                w.put_u8(1);
                response.encode(w);
            }
            HsmResponse::Signed(sig) => {
                w.put_u8(2);
                sig.encode(w);
            }
            HsmResponse::Ack => w.put_u8(3),
            HsmResponse::Rotated(e) => {
                w.put_u8(4);
                e.encode(w);
            }
            HsmResponse::Error(e) => {
                w.put_u8(5);
                e.encode(w);
            }
        }
    }
}

impl Decode for HsmResponse {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(HsmResponse::Enrollment(EnrollmentRecord::decode(r)?)),
            1 => Ok(HsmResponse::RecoveryShare {
                response: RecoveryResponse::decode(r)?,
            }),
            2 => Ok(HsmResponse::Signed(Signature::decode(r)?)),
            3 => Ok(HsmResponse::Ack),
            4 => Ok(HsmResponse::Rotated(EnrollmentRecord::decode(r)?)),
            5 => Ok(HsmResponse::Error(ErrorReply::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Client → untrusted-provider operations (Figure 3's numbered steps).
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderRequest {
    /// Download the fleet's enrollment records (the master public key).
    FetchEnrollments,
    /// Legacy (step 3): insert a recovery-attempt record into the log.
    /// The recovery round does steps 3–5 itself; no client here sends it.
    InsertLog {
        /// Log identifier (the username).
        id: Vec<u8>,
        /// Log value (the serialized commitment).
        value: Vec<u8>,
    },
    /// Legacy (step 5): fetch an inclusion proof for a logged entry.
    /// The recovery round attaches its own; no client here sends it.
    ProveInclusion {
        /// Log identifier.
        id: Vec<u8>,
        /// Log value.
        value: Vec<u8>,
    },
    /// Legacy (step 4): run one Figure 5 epoch update over all pending
    /// insertions. The recovery round cuts its own; no client here sends it.
    RunEpoch,
    /// One user's recovery round (steps 3–7: log, epoch, proof, cluster
    /// round — see `RecoverBatch`); one entry per distinct HSM.
    Recover(Vec<(u64, RecoveryRequest)>),
    /// Fetch the provider's stored §8 reply copies for a username
    /// (replacement-device recovery).
    FetchReplyCopies {
        /// The username whose reply copies to return.
        username: Vec<u8>,
    },
    /// Route **many users'** recovery rounds in one request (steps 3–7
    /// across the whole batch): one entry per user, each a per-HSM
    /// request list exactly as [`ProviderRequest::Recover`] carries for
    /// a single user. The provider logs every user's attempt, certifies
    /// them in **one** epoch, attaches each user's inclusion proof,
    /// coalesces every request bound for the same HSM into one envelope
    /// per device per direction, and the devices serve each coalesced
    /// group under a single group-commit durability barrier. Decoding
    /// rejects batches larger than [`MAX_RECOVER_BATCH_USERS`] with a
    /// typed error.
    RecoverBatch(Vec<Vec<(u64, RecoveryRequest)>>),
    /// Store a user's encrypted backup blob with the provider (the
    /// provider is untrusted storage: the blob is the client-sealed
    /// recovery ciphertext plus public envelope fields). Overwrites any
    /// previous blob for the same username.
    PutBackup {
        /// The owning username.
        username: Vec<u8>,
        /// The opaque client-encoded backup artifact.
        blob: Vec<u8>,
    },
    /// Fetch the stored backup blob for a username (a recovering device
    /// has only the username and PIN).
    FetchBackup {
        /// The username whose blob to return.
        username: Vec<u8>,
    },
    /// Fetch the service's status report: deployment parameters (so a
    /// bare client can configure itself) plus load counters.
    Status,
    /// Ask the service to drain and persist. A bare datacenter refuses
    /// this with [`codes::UNSUPPORTED`]; `safetypind` acks it, stops
    /// accepting connections, and persists its fleet before exiting.
    Shutdown,
    /// Store a **wave** of backup blobs in one request (the save-path
    /// engine's transport leg): the provider batch-inserts every save's
    /// audit record into the log, stores every blob, and makes the whole
    /// wave durable under **one** group-commit flush. Decoding rejects
    /// waves larger than [`MAX_SAVE_BATCH_USERS`] with a typed error.
    SaveBatch(Vec<SaveRequest>),
    /// Fetch a live snapshot of the service's telemetry registry
    /// (counters, gauges, and latency-histogram summaries — see
    /// [`MetricsReport`]). `safetypind`
    /// answers this lock-free, before the fleet mutex, so metrics stay
    /// readable even while the fleet is saturated.
    Metrics,
}

/// One user's save inside a [`ProviderRequest::SaveBatch`] wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveRequest {
    /// The owning username.
    pub username: Vec<u8>,
    /// The opaque client-encoded backup artifact (same bytes a
    /// [`ProviderRequest::PutBackup`] would carry).
    pub blob: Vec<u8>,
}

impl Encode for SaveRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.username);
        w.put_bytes(&self.blob);
    }
}

impl Decode for SaveRequest {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            username: r.get_bytes()?.to_vec(),
            blob: r.get_bytes()?.to_vec(),
        })
    }
}

/// One user's outcome inside a [`ProviderResponse::SavedBatch`] reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveOutcome {
    /// The username this outcome is for (request order is preserved,
    /// but the echo makes each outcome self-describing).
    pub username: Vec<u8>,
    /// `None` when the save is durably stored; the provider's refusal
    /// otherwise.
    pub error: Option<ErrorReply>,
}

impl SaveOutcome {
    /// True when the save was accepted and is durable.
    pub fn saved(&self) -> bool {
        self.error.is_none()
    }
}

impl Encode for SaveOutcome {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.username);
        w.put_option(&self.error);
    }
}

impl Decode for SaveOutcome {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            username: r.get_bytes()?.to_vec(),
            error: r.get_option()?,
        })
    }
}

/// Upper bound on the users one [`ProviderRequest::SaveBatch`] may
/// carry; oversized waves fail decoding with
/// [`WireError::LengthOutOfRange`] before any payload is parsed.
pub const MAX_SAVE_BATCH_USERS: usize = 1024;

/// Decodes a `u32`-counted [`SaveRequest`]/[`SaveOutcome`] wave,
/// enforcing [`MAX_SAVE_BATCH_USERS`] before any payload parses.
fn get_save_wave<T: Decode>(r: &mut Reader<'_>) -> core::result::Result<Vec<T>, WireError> {
    let users = r.get_u32()? as usize;
    if users > MAX_SAVE_BATCH_USERS || users > r.remaining() {
        return Err(WireError::LengthOutOfRange);
    }
    let mut out = Vec::with_capacity(users);
    for _ in 0..users {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Upper bound on the users one [`ProviderRequest::RecoverBatch`] may
/// carry; oversized batches fail decoding with
/// [`WireError::LengthOutOfRange`] before any payload is parsed.
pub const MAX_RECOVER_BATCH_USERS: usize = 1024;

/// Encodes a per-user list-of-rounds structure (`u32` user count, then
/// one `u32`-prefixed per-HSM sequence per user).
fn put_user_rounds<T: Encode>(w: &mut Writer, users: &[Vec<(u64, T)>]) {
    w.put_u32(users.len() as u32);
    for round in users {
        w.put_seq(round);
    }
}

/// Decodes the structure written by [`put_user_rounds`], enforcing
/// [`MAX_RECOVER_BATCH_USERS`].
fn get_user_rounds<T: Decode>(
    r: &mut Reader<'_>,
) -> core::result::Result<Vec<Vec<(u64, T)>>, WireError> {
    let users = r.get_u32()? as usize;
    if users > MAX_RECOVER_BATCH_USERS || users > r.remaining() {
        return Err(WireError::LengthOutOfRange);
    }
    let mut out = Vec::with_capacity(users);
    for _ in 0..users {
        out.push(r.get_seq()?);
    }
    Ok(out)
}

impl ProviderRequest {
    /// Whether a client may safely re-send this request after an
    /// ambiguous failure (reply lost, connection died): `true` means a
    /// duplicate delivery has the same observable effect as a single
    /// one, so blind retry with backoff is sound.
    ///
    /// * Reads (`Status`, `Metrics`, `FetchEnrollments`, `FetchBackup`,
    ///   `FetchReplyCopies`, `ProveInclusion`) are trivially idempotent.
    /// * `PutBackup` / `SaveBatch` are idempotent because the save's
    ///   audit record is content-addressed over `(username, blob)` —
    ///   the provider treats an identical re-save as a duplicate no-op,
    ///   never a fresh log entry.
    /// * `RunEpoch` (legacy) is safe to repeat: an extra epoch
    ///   certifies an empty pending set and invalidates nothing.
    /// * `Shutdown` is a latching flag.
    /// * `Recover` and `RecoverBatch` are **not** idempotent: each logs
    ///   its attempts (the log admits each attempt identifier exactly
    ///   once) and the cluster punctures on service, so a blind retry
    ///   could burn a second attempt. Recovery clients must fail the
    ///   flow and let the *user* decide to spend another attempt.
    ///   Neither is the legacy `InsertLog`, for the same reason.
    pub fn is_idempotent(&self) -> bool {
        match self {
            ProviderRequest::FetchEnrollments
            | ProviderRequest::ProveInclusion { .. }
            | ProviderRequest::RunEpoch
            | ProviderRequest::FetchReplyCopies { .. }
            | ProviderRequest::PutBackup { .. }
            | ProviderRequest::FetchBackup { .. }
            | ProviderRequest::Status
            | ProviderRequest::Shutdown
            | ProviderRequest::SaveBatch(_)
            | ProviderRequest::Metrics => true,
            ProviderRequest::InsertLog { .. }
            | ProviderRequest::Recover(_)
            | ProviderRequest::RecoverBatch(_) => false,
        }
    }
}

impl Encode for ProviderRequest {
    fn encode(&self, w: &mut Writer) {
        match self {
            ProviderRequest::FetchEnrollments => w.put_u8(0),
            ProviderRequest::InsertLog { id, value } => {
                w.put_u8(1);
                w.put_bytes(id);
                w.put_bytes(value);
            }
            ProviderRequest::ProveInclusion { id, value } => {
                w.put_u8(2);
                w.put_bytes(id);
                w.put_bytes(value);
            }
            ProviderRequest::RunEpoch => w.put_u8(3),
            ProviderRequest::Recover(items) => {
                w.put_u8(4);
                w.put_seq(items);
            }
            ProviderRequest::FetchReplyCopies { username } => {
                w.put_u8(5);
                w.put_bytes(username);
            }
            ProviderRequest::RecoverBatch(users) => {
                w.put_u8(6);
                put_user_rounds(w, users);
            }
            ProviderRequest::PutBackup { username, blob } => {
                w.put_u8(7);
                w.put_bytes(username);
                w.put_bytes(blob);
            }
            ProviderRequest::FetchBackup { username } => {
                w.put_u8(8);
                w.put_bytes(username);
            }
            ProviderRequest::Status => w.put_u8(9),
            ProviderRequest::Shutdown => w.put_u8(10),
            ProviderRequest::SaveBatch(saves) => {
                w.put_u8(11);
                w.put_u32(saves.len() as u32);
                for save in saves {
                    save.encode(w);
                }
            }
            ProviderRequest::Metrics => w.put_u8(12),
        }
    }
}

impl Decode for ProviderRequest {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ProviderRequest::FetchEnrollments),
            1 => Ok(ProviderRequest::InsertLog {
                id: r.get_bytes()?.to_vec(),
                value: r.get_bytes()?.to_vec(),
            }),
            2 => Ok(ProviderRequest::ProveInclusion {
                id: r.get_bytes()?.to_vec(),
                value: r.get_bytes()?.to_vec(),
            }),
            3 => Ok(ProviderRequest::RunEpoch),
            4 => Ok(ProviderRequest::Recover(r.get_seq()?)),
            5 => Ok(ProviderRequest::FetchReplyCopies {
                username: r.get_bytes()?.to_vec(),
            }),
            6 => Ok(ProviderRequest::RecoverBatch(get_user_rounds(r)?)),
            7 => Ok(ProviderRequest::PutBackup {
                username: r.get_bytes()?.to_vec(),
                blob: r.get_bytes()?.to_vec(),
            }),
            8 => Ok(ProviderRequest::FetchBackup {
                username: r.get_bytes()?.to_vec(),
            }),
            9 => Ok(ProviderRequest::Status),
            10 => Ok(ProviderRequest::Shutdown),
            11 => Ok(ProviderRequest::SaveBatch(get_save_wave(r)?)),
            12 => Ok(ProviderRequest::Metrics),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Untrusted-provider → client replies.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderResponse {
    /// Reply to [`ProviderRequest::FetchEnrollments`].
    Enrollments(Vec<EnrollmentRecord>),
    /// Success reply for [`ProviderRequest::InsertLog`].
    Ack,
    /// Reply to [`ProviderRequest::ProveInclusion`]; `None` when the
    /// entry is not in the log.
    Inclusion(Option<InclusionProof>),
    /// Reply to [`ProviderRequest::RunEpoch`]: the certified tuple and
    /// how many HSMs signed it.
    EpochCertified {
        /// The certified `(d, d', R, K)` tuple.
        message: UpdateMessage,
        /// Number of fleet signatures aggregated.
        signer_count: u32,
    },
    /// Reply to [`ProviderRequest::Recover`]: per-HSM outcomes, in
    /// request order.
    Recovered(Vec<(u64, HsmResponse)>),
    /// Reply to [`ProviderRequest::FetchReplyCopies`].
    ReplyCopies(Vec<RecoveryResponse>),
    /// The provider refused or failed the request.
    Error(ErrorReply),
    /// Reply to [`ProviderRequest::RecoverBatch`]: per-user outcomes in
    /// request order, each the per-HSM response list a single-user
    /// [`ProviderResponse::Recovered`] would carry.
    RecoveredBatch(Vec<Vec<(u64, HsmResponse)>>),
    /// Reply to [`ProviderRequest::FetchBackup`]; `None` when no blob
    /// is stored for the username.
    Backup(Option<Vec<u8>>),
    /// Reply to [`ProviderRequest::Status`].
    Status(StatusReport),
    /// Reply to [`ProviderRequest::SaveBatch`]: per-user outcomes in
    /// request order.
    SavedBatch(Vec<SaveOutcome>),
    /// Reply to [`ProviderRequest::Metrics`]: the live telemetry
    /// snapshot.
    Metrics(MetricsReport),
}

impl Encode for ProviderResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            ProviderResponse::Enrollments(es) => {
                w.put_u8(0);
                w.put_seq(es);
            }
            ProviderResponse::Ack => w.put_u8(1),
            ProviderResponse::Inclusion(p) => {
                w.put_u8(2);
                w.put_option(p);
            }
            ProviderResponse::EpochCertified {
                message,
                signer_count,
            } => {
                w.put_u8(3);
                message.encode(w);
                w.put_u32(*signer_count);
            }
            ProviderResponse::Recovered(items) => {
                w.put_u8(4);
                w.put_seq(items);
            }
            ProviderResponse::ReplyCopies(rs) => {
                w.put_u8(5);
                w.put_seq(rs);
            }
            ProviderResponse::Error(e) => {
                w.put_u8(6);
                e.encode(w);
            }
            ProviderResponse::RecoveredBatch(users) => {
                w.put_u8(7);
                put_user_rounds(w, users);
            }
            ProviderResponse::Backup(blob) => {
                w.put_u8(8);
                w.put_option(blob);
            }
            ProviderResponse::Status(report) => {
                w.put_u8(9);
                report.encode(w);
            }
            ProviderResponse::SavedBatch(outcomes) => {
                w.put_u8(10);
                w.put_u32(outcomes.len() as u32);
                for outcome in outcomes {
                    outcome.encode(w);
                }
            }
            ProviderResponse::Metrics(report) => {
                w.put_u8(11);
                report.encode(w);
            }
        }
    }
}

impl Decode for ProviderResponse {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ProviderResponse::Enrollments(r.get_seq()?)),
            1 => Ok(ProviderResponse::Ack),
            2 => Ok(ProviderResponse::Inclusion(r.get_option()?)),
            3 => Ok(ProviderResponse::EpochCertified {
                message: UpdateMessage::decode(r)?,
                signer_count: r.get_u32()?,
            }),
            4 => Ok(ProviderResponse::Recovered(r.get_seq()?)),
            5 => Ok(ProviderResponse::ReplyCopies(r.get_seq()?)),
            6 => Ok(ProviderResponse::Error(ErrorReply::decode(r)?)),
            7 => Ok(ProviderResponse::RecoveredBatch(get_user_rounds(r)?)),
            8 => Ok(ProviderResponse::Backup(r.get_option()?)),
            9 => Ok(ProviderResponse::Status(StatusReport::decode(r)?)),
            10 => Ok(ProviderResponse::SavedBatch(get_save_wave(r)?)),
            11 => Ok(ProviderResponse::Metrics(MetricsReport::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}
