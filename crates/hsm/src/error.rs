//! HSM error type.

use core::fmt;

use safetypin_authlog::distributed::AuditError;
use safetypin_primitives::error::WireError;
use safetypin_primitives::CryptoError;

/// Errors an HSM can return.
///
/// Note what is *absent*: there is no "wrong PIN" error. The HSM never sees
/// a PIN — a client with the wrong PIN simply contacts the wrong HSMs,
/// whose decryptions fail. That property is the heart of the design (§5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HsmError {
    /// The HSM has fail-stopped.
    Unavailable,
    /// The log-inclusion proof did not verify against this HSM's digest.
    BadInclusionProof,
    /// This HSM is not the committed cluster member for the requested slot.
    NotInCluster,
    /// The presented recovery ciphertext does not match the committed hash.
    CiphertextMismatch,
    /// Share decryption failed (punctured, wrong key, or malformed).
    DecryptFailed,
    /// The decrypted share was not bound to the requesting username.
    UsernameMismatch,
    /// A chunk audit failed.
    Audit(AuditError),
    /// The audit packages do not match this HSM's deterministic assignment.
    WrongAuditSet,
    /// The update's old digest does not match the digest this HSM holds.
    StaleDigest,
    /// Too few signers behind an aggregate signature.
    QuorumTooSmall {
        /// Signers present.
        got: usize,
        /// Signers required.
        need: usize,
    },
    /// The aggregate signature did not verify (or listed unknown/duplicate
    /// signers).
    BadAggregate,
    /// A fleet key's proof of possession failed.
    BadProofOfPossession,
    /// The provider has exhausted its garbage-collection budget.
    GcLimitReached,
    /// Malformed wire input.
    Wire(WireError),
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
}

impl fmt::Display for HsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HsmError::Unavailable => write!(f, "HSM is unavailable"),
            HsmError::BadInclusionProof => write!(f, "log-inclusion proof rejected"),
            HsmError::NotInCluster => write!(f, "HSM not in committed cluster slot"),
            HsmError::CiphertextMismatch => write!(f, "ciphertext does not match commitment"),
            HsmError::DecryptFailed => write!(f, "share decryption failed"),
            HsmError::UsernameMismatch => write!(f, "share not bound to requesting username"),
            HsmError::Audit(e) => write!(f, "chunk audit failed: {e}"),
            HsmError::WrongAuditSet => write!(f, "audit packages do not match assignment"),
            HsmError::StaleDigest => write!(f, "update does not start from held digest"),
            HsmError::QuorumTooSmall { got, need } => {
                write!(f, "aggregate covers {got} signers, need {need}")
            }
            HsmError::BadAggregate => write!(f, "aggregate signature rejected"),
            HsmError::BadProofOfPossession => write!(f, "fleet key proof-of-possession rejected"),
            HsmError::GcLimitReached => write!(f, "garbage-collection budget exhausted"),
            HsmError::Wire(e) => write!(f, "malformed input: {e}"),
            HsmError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for HsmError {}

impl From<WireError> for HsmError {
    fn from(e: WireError) -> Self {
        HsmError::Wire(e)
    }
}

impl From<CryptoError> for HsmError {
    fn from(e: CryptoError) -> Self {
        HsmError::Crypto(e)
    }
}

impl From<safetypin_proto::ProtoError> for HsmError {
    fn from(e: safetypin_proto::ProtoError) -> Self {
        use safetypin_proto::ProtoError;
        match e {
            ProtoError::Wire(w) => HsmError::Wire(w),
            ProtoError::IndexOutOfRange(_) => HsmError::NotInCluster,
            ProtoError::DecryptFailed => HsmError::DecryptFailed,
            // A dropped or mangled message is indistinguishable from a
            // fail-stopped device to the caller.
            ProtoError::Dropped | ProtoError::Corrupted => HsmError::Unavailable,
            ProtoError::UnexpectedMessage(_) => HsmError::Wire(WireError::InvalidTag(0)),
        }
    }
}

impl From<&HsmError> for safetypin_proto::ErrorReply {
    fn from(e: &HsmError) -> Self {
        use safetypin_proto::{codes, ErrorReply};
        let code = match e {
            HsmError::Unavailable => codes::UNAVAILABLE,
            HsmError::BadInclusionProof => codes::BAD_INCLUSION_PROOF,
            HsmError::NotInCluster => codes::NOT_IN_CLUSTER,
            HsmError::CiphertextMismatch => codes::CIPHERTEXT_MISMATCH,
            HsmError::DecryptFailed => codes::DECRYPT_FAILED,
            HsmError::UsernameMismatch => codes::USERNAME_MISMATCH,
            HsmError::Audit(_) => codes::AUDIT_FAILED,
            HsmError::WrongAuditSet => codes::WRONG_AUDIT_SET,
            HsmError::StaleDigest => codes::STALE_DIGEST,
            HsmError::QuorumTooSmall { .. } => codes::QUORUM_TOO_SMALL,
            HsmError::BadAggregate => codes::BAD_AGGREGATE,
            HsmError::BadProofOfPossession => codes::BAD_PROOF_OF_POSSESSION,
            HsmError::GcLimitReached => codes::GC_LIMIT_REACHED,
            HsmError::Wire(_) => codes::WIRE,
            HsmError::Crypto(_) => codes::CRYPTO,
        };
        ErrorReply::new(code, e.to_string())
    }
}

/// Reconstructs an [`HsmError`] from a wire [`ErrorReply`].
///
/// The mapping is faithful for every data-free variant; parametrized
/// variants (`QuorumTooSmall`, `Audit`, `Wire`, `Crypto`) come back with
/// representative inner values — the human-readable detail survives only
/// in the reply's text. Transport-fault and unknown codes map to
/// [`HsmError::Unavailable`], which callers already treat as "skip this
/// device".
///
/// [`ErrorReply`]: safetypin_proto::ErrorReply
impl From<&safetypin_proto::ErrorReply> for HsmError {
    fn from(reply: &safetypin_proto::ErrorReply) -> Self {
        use safetypin_proto::codes;
        match reply.code {
            codes::UNAVAILABLE => HsmError::Unavailable,
            codes::BAD_INCLUSION_PROOF => HsmError::BadInclusionProof,
            codes::NOT_IN_CLUSTER => HsmError::NotInCluster,
            codes::CIPHERTEXT_MISMATCH => HsmError::CiphertextMismatch,
            codes::DECRYPT_FAILED => HsmError::DecryptFailed,
            codes::USERNAME_MISMATCH => HsmError::UsernameMismatch,
            codes::AUDIT_FAILED => HsmError::Audit(AuditError::BrokenChain),
            codes::WRONG_AUDIT_SET => HsmError::WrongAuditSet,
            codes::STALE_DIGEST => HsmError::StaleDigest,
            codes::QUORUM_TOO_SMALL => HsmError::QuorumTooSmall { got: 0, need: 0 },
            codes::BAD_AGGREGATE => HsmError::BadAggregate,
            codes::BAD_PROOF_OF_POSSESSION => HsmError::BadProofOfPossession,
            codes::GC_LIMIT_REACHED => HsmError::GcLimitReached,
            codes::WIRE => HsmError::Wire(WireError::InvalidTag(0)),
            codes::CRYPTO => HsmError::Crypto(CryptoError::DecryptionFailed),
            _ => HsmError::Unavailable,
        }
    }
}
