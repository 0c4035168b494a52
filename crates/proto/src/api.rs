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
//! Each type here is one [`wire!`] declaration: its fields, their
//! order and length caps, and each variant's explicit one-byte tag are
//! stated once, and the macro derives both directions of the codec from
//! them. Adding a message appends a new tag (and, if the change is not
//! backwards-compatible, bumps [`PROTO_VERSION`](crate::PROTO_VERSION));
//! a retired tag or code stays as a comment so it is never reused.

use safetypin_authlog::distributed::{ChunkAudit, UpdateMessage};
use safetypin_authlog::trie::InclusionProof;
use safetypin_multisig::Signature;
use safetypin_primitives::wire;

use crate::messages::{EnrollmentRecord, RecoveryRequest, RecoveryResponse, StatusReport};
use crate::metrics::MetricsReport;

wire! {
    /// A wire error code: one of the [`codes`] constants, or a code this
    /// build does not know, preserved as decoded. The field is private, so
    /// only [`codes`] and the decoder can make one: a reply site cannot
    /// carry a bare number. `Debug` and `Display` print the number.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct ErrorCode(u16);
}

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
    // 13 is retired: it meant "a designated-auditor endorsement was
    // missing or invalid", a gate the HSM no longer has. Peers may have
    // seen it, so it must never be reused for another meaning.
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

wire! {
    /// A wire-transportable refusal: a stable numeric code plus a
    /// human-readable detail string.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ErrorReply {
        /// One of the [`codes`] constants (unknown codes are preserved).
        pub code: ErrorCode,
        /// Human-readable context; never interpreted programmatically. It
        /// decodes lossily, so a mangled detail never masks the code.
        pub detail: String,
    }
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

wire! {
    /// Datacenter → HSM operations.
    #[derive(Debug, Clone, PartialEq)]
    pub enum HsmRequest {
        /// Fetch the HSM's enrollment record (identity, BLS, and BFE keys).
        GetEnrollment = 0,
        /// Process one recovery-share request (§4.2 check list + puncture).
        RecoverShare(RecoveryRequest) = 1,
        /// Audit the supplied chunk packages for an epoch update and, if
        /// every assigned chunk verifies, sign `(d, d', R)` (Figure 5 +
        /// Appendix B.3 re-audits).
        AuditAndSign {
            /// The update tuple to sign.
            message: UpdateMessage,
            /// Ids of HSMs participating this epoch.
            active_ids: Vec<u64> as seq,
            /// Ids of fail-stopped HSMs whose chunks must be re-audited.
            failed_ids: Vec<u64> as seq,
            /// The audit packages covering this HSM's assignment.
            packages: Vec<ChunkAudit> as seq,
        } = 2,
        /// Accept a new digest under a quorum aggregate signature.
        AcceptUpdate {
            /// The certified update tuple.
            message: UpdateMessage,
            /// Fleet indices whose keys are aggregated.
            signers: Vec<u64> as seq,
            /// The aggregate BLS signature.
            aggregate: Signature,
        } = 3,
        /// Follow a provider garbage collection (bounded per HSM, §6.2).
        GarbageCollect = 4,
        /// Rotate the BFE keypair (§7.1 / §9.1).
        RotateKeys = 5,
    }
}

impl HsmRequest {
    /// True for recovery-share traffic (the messages a
    /// [`Faulty`](crate::transport::Faulty) transport under a
    /// recovery-only plan will fault).
    pub fn is_recovery(&self) -> bool {
        matches!(self, HsmRequest::RecoverShare(_))
    }
}

wire! {
    /// HSM → datacenter replies, one per [`HsmRequest`] variant plus a
    /// typed refusal.
    #[derive(Debug, Clone, PartialEq)]
    pub enum HsmResponse {
        /// Reply to [`HsmRequest::GetEnrollment`].
        Enrollment(EnrollmentRecord) = 0,
        /// Reply to [`HsmRequest::RecoverShare`]: the shares and nothing
        /// else. The device's cost meter never leaves it.
        RecoveryShare {
            /// The decrypted (or §8-encrypted) shares.
            response: RecoveryResponse,
        } = 1,
        /// Reply to [`HsmRequest::AuditAndSign`]: this HSM's BLS signature
        /// over `(d, d', R)`.
        Signed(Signature) = 2,
        /// Success reply for requests with no payload (digest acceptance,
        /// garbage collection).
        Ack = 3,
        /// Reply to [`HsmRequest::RotateKeys`]: the refreshed enrollment
        /// record carrying the new BFE public key and epoch.
        Rotated(EnrollmentRecord) = 4,
        /// The HSM (or the transport on its behalf) refused the request.
        Error(ErrorReply) = 5,
    }
}

wire! {
    /// Client → untrusted-provider operations (Figure 3's numbered steps).
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProviderRequest {
        /// Download the fleet's enrollment records (the master public key).
        FetchEnrollments = 0,
        /// Legacy (step 3): insert a recovery-attempt record into the log.
        /// The recovery round does steps 3–5 itself; no client here sends it.
        InsertLog {
            /// Log identifier (the username).
            id: Vec<u8>,
            /// Log value (the serialized commitment).
            value: Vec<u8>,
        } = 1,
        /// Legacy (step 5): fetch an inclusion proof for a logged entry.
        /// The recovery round attaches its own; no client here sends it.
        ProveInclusion {
            /// Log identifier.
            id: Vec<u8>,
            /// Log value.
            value: Vec<u8>,
        } = 2,
        /// Legacy (step 4): run one Figure 5 epoch update over all pending
        /// insertions. The recovery round cuts its own; no client here sends it.
        RunEpoch = 3,
        /// One user's recovery round (steps 3–7: log, epoch, proof, cluster
        /// round — see `RecoverBatch`); one entry per distinct HSM.
        Recover(Vec<(u64, RecoveryRequest)> as seq) = 4,
        /// Fetch the provider's stored §8 reply copies for a username
        /// (replacement-device recovery).
        FetchReplyCopies {
            /// The username whose reply copies to return.
            username: Vec<u8>,
        } = 5,
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
        RecoverBatch(Vec<Vec<(u64, RecoveryRequest)>> as seqs(MAX_RECOVER_BATCH_USERS)) = 6,
        /// Store a user's encrypted backup blob with the provider (the
        /// provider is untrusted storage: the blob is the client-sealed
        /// recovery ciphertext plus public envelope fields). Overwrites any
        /// previous blob for the same username.
        PutBackup {
            /// The owning username.
            username: Vec<u8>,
            /// The opaque client-encoded backup artifact.
            blob: Vec<u8>,
        } = 7,
        /// Fetch the stored backup blob for a username (a recovering device
        /// has only the username and PIN).
        FetchBackup {
            /// The username whose blob to return.
            username: Vec<u8>,
        } = 8,
        /// Fetch the service's status report: deployment parameters (so a
        /// bare client can configure itself) plus load counters.
        Status = 9,
        /// Ask the service to drain and persist. A bare datacenter refuses
        /// this with [`codes::UNSUPPORTED`]; `safetypind` acks it, stops
        /// accepting connections, and persists its fleet before exiting.
        Shutdown = 10,
        /// Store a **wave** of backup blobs in one request (the save-path
        /// engine's transport leg): the provider batch-inserts every save's
        /// audit record into the log, stores every blob, and makes the whole
        /// wave durable under **one** group-commit flush. Decoding rejects
        /// waves larger than [`MAX_SAVE_BATCH_USERS`] with a typed error.
        SaveBatch(Vec<SaveRequest> as seq(MAX_SAVE_BATCH_USERS)) = 11,
        /// Fetch a live snapshot of the service's telemetry registry
        /// (counters, gauges, and latency-histogram summaries — see
        /// [`MetricsReport`]). `safetypind`
        /// answers this lock-free, before the fleet mutex, so metrics stay
        /// readable even while the fleet is saturated.
        Metrics = 12,
    }
}

wire! {
    /// One user's save inside a [`ProviderRequest::SaveBatch`] wave.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SaveRequest {
        /// The owning username.
        pub username: Vec<u8>,
        /// The opaque client-encoded backup artifact (same bytes a
        /// [`ProviderRequest::PutBackup`] would carry).
        pub blob: Vec<u8>,
    }
}

wire! {
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
}

impl SaveOutcome {
    /// True when the save was accepted and is durable.
    pub fn saved(&self) -> bool {
        self.error.is_none()
    }
}

/// Upper bound on the users one [`ProviderRequest::SaveBatch`] may
/// carry; oversized waves fail decoding with
/// [`WireError::LengthOutOfRange`](safetypin_primitives::error::WireError::LengthOutOfRange)
/// before any payload is parsed.
pub const MAX_SAVE_BATCH_USERS: usize = 1024;

/// Upper bound on the users one [`ProviderRequest::RecoverBatch`] may
/// carry; oversized batches fail decoding with
/// [`WireError::LengthOutOfRange`](safetypin_primitives::error::WireError::LengthOutOfRange)
/// before any payload is parsed.
pub const MAX_RECOVER_BATCH_USERS: usize = 1024;

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

wire! {
    /// Untrusted-provider → client replies.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ProviderResponse {
        /// Reply to [`ProviderRequest::FetchEnrollments`].
        Enrollments(Vec<EnrollmentRecord> as seq) = 0,
        /// Success reply for [`ProviderRequest::InsertLog`].
        Ack = 1,
        /// Reply to [`ProviderRequest::ProveInclusion`]; `None` when the
        /// entry is not in the log.
        Inclusion(Option<InclusionProof>) = 2,
        /// Reply to [`ProviderRequest::RunEpoch`]: the certified tuple and
        /// how many HSMs signed it.
        EpochCertified {
            /// The certified `(d, d', R, K)` tuple.
            message: UpdateMessage,
            /// Number of fleet signatures aggregated.
            signer_count: u32,
        } = 3,
        /// Reply to [`ProviderRequest::Recover`]: per-HSM outcomes, in
        /// request order.
        Recovered(Vec<(u64, HsmResponse)> as seq) = 4,
        /// Reply to [`ProviderRequest::FetchReplyCopies`].
        ReplyCopies(Vec<RecoveryResponse> as seq) = 5,
        /// The provider refused or failed the request.
        Error(ErrorReply) = 6,
        /// Reply to [`ProviderRequest::RecoverBatch`]: per-user outcomes in
        /// request order, each the per-HSM response list a single-user
        /// [`ProviderResponse::Recovered`] would carry.
        RecoveredBatch(Vec<Vec<(u64, HsmResponse)>> as seqs(MAX_RECOVER_BATCH_USERS)) = 7,
        /// Reply to [`ProviderRequest::FetchBackup`]; `None` when no blob
        /// is stored for the username.
        Backup(Option<Vec<u8>>) = 8,
        /// Reply to [`ProviderRequest::Status`].
        Status(StatusReport) = 9,
        /// Reply to [`ProviderRequest::SaveBatch`]: per-user outcomes in
        /// request order.
        SavedBatch(Vec<SaveOutcome> as seq(MAX_SAVE_BATCH_USERS)) = 10,
        /// Reply to [`ProviderRequest::Metrics`]: the live telemetry
        /// snapshot.
        Metrics(MetricsReport) = 11,
    }
}
