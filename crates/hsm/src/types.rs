//! Wire types exchanged with HSMs.
//!
//! The message definitions themselves live in [`safetypin_proto`] (so
//! every role and transport can speak them without depending on the HSM
//! implementation); this module re-exports them and keeps thin wrappers
//! that surface [`HsmError`] instead of the proto-layer error types.

pub use safetypin_proto::messages::{
    build_commit_payload, ciphertext_commit_hash, puncture_tag, EnrollmentRecord, RecoveryRequest,
    RecoveryResponse,
};

use safetypin_bfe::BfeCiphertext;
use safetypin_primitives::hashes::Hash256;

use crate::HsmError;

/// Parses a commitment payload back into `(cluster, ct_hash)`.
pub fn parse_commit_payload(payload: &[u8]) -> Result<(Vec<u64>, Hash256), HsmError> {
    safetypin_proto::messages::parse_commit_payload(payload).map_err(HsmError::Wire)
}

/// Extracts the share ciphertext at cluster position `index` from a
/// serialized recovery ciphertext.
pub fn share_ct_at(ct_bytes: &[u8], index: u32) -> Result<BfeCiphertext, HsmError> {
    safetypin_proto::messages::share_ct_at(ct_bytes, index).map_err(HsmError::from)
}
