//! Typed failures for the persistence subsystem.

use safetypin_primitives::error::WireError;

/// Errors from opening, replaying, or unsealing persisted state.
#[derive(Debug)]
pub enum StoreError {
    /// Host filesystem failure.
    Io(std::io::Error),
    /// A checkpointed segment file failed validation — unlike the WAL
    /// (whose torn tail is expected after a crash and silently
    /// discarded), the segment is published atomically and must replay
    /// end to end.
    CorruptSegment {
        /// Byte offset of the first record that failed validation.
        offset: u64,
        /// What went wrong at that offset.
        reason: &'static str,
    },
    /// A sealed blob failed AEAD authentication: wrong device key,
    /// wrong domain, or tampered state.
    SealBroken,
    /// Persisted plaintext state (provider log, snapshot metadata)
    /// failed to decode.
    Wire(WireError),
    /// The snapshot was written by an incompatible protocol version.
    VersionMismatch {
        /// Version recorded in the snapshot.
        found: u16,
        /// Version this build speaks.
        expected: u16,
    },
    /// A required snapshot component is missing from the directory.
    MissingComponent(&'static str),
    /// The directory's components are mutually inconsistent (e.g. the
    /// provider journal fails to replay, or the keyring does not cover
    /// the fleet).
    Inconsistent(&'static str),
}

impl core::fmt::Display for StoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::CorruptSegment { offset, reason } => {
                write!(f, "corrupt segment at byte {offset}: {reason}")
            }
            StoreError::SealBroken => write!(f, "sealed state failed authentication"),
            StoreError::Wire(e) => write!(f, "persisted state failed to decode: {e}"),
            StoreError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with {expected}")
            }
            StoreError::MissingComponent(what) => {
                write!(f, "snapshot is missing component: {what}")
            }
            StoreError::Inconsistent(why) => {
                write!(f, "snapshot components are inconsistent: {why}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<WireError> for StoreError {
    fn from(e: WireError) -> Self {
        StoreError::Wire(e)
    }
}
