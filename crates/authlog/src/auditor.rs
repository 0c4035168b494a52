//! External transparency auditing (paper §6.3).
//!
//! Anyone can audit the log: given two digests `d` and `d'`, the auditor
//! asks the provider for the full logs `L` and `L'`, recomputes both
//! digests from scratch, and checks that `L'` extends `L` (prefix property
//! plus identifier uniqueness). Auditors add a second layer of protection —
//! they can catch log corruption even if more than `f_secret·N` HSMs are
//! compromised — and they power the user-facing "has anyone tried to
//! recover my backup?" monitoring.

use safetypin_primitives::hashes::Hash256;

use crate::log::LogEntry;
use crate::trie::MerkleTrie;

/// Verdicts from a full-replay audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditorError {
    /// Recomputing `L`'s digest did not give `d`.
    OldDigestMismatch,
    /// Recomputing `L'`'s digest did not give `d'`.
    NewDigestMismatch,
    /// `L` is not a prefix of `L'`.
    NotPrefix,
    /// `L'` defines an identifier twice.
    DuplicateIdentifier(Vec<u8>),
}

impl core::fmt::Display for AuditorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditorError::OldDigestMismatch => write!(f, "old log does not match old digest"),
            AuditorError::NewDigestMismatch => write!(f, "new log does not match new digest"),
            AuditorError::NotPrefix => write!(f, "old log is not a prefix of new log"),
            AuditorError::DuplicateIdentifier(id) => {
                write!(f, "identifier defined twice: {id:02x?}")
            }
        }
    }
}

impl std::error::Error for AuditorError {}

/// Recomputes the digest of a full log from scratch.
pub fn digest_of(entries: &[LogEntry]) -> Result<Hash256, AuditorError> {
    let mut trie = MerkleTrie::new();
    for e in entries {
        trie.insert(&e.id, &e.value)
            .map_err(|_| AuditorError::DuplicateIdentifier(e.id.clone()))?;
    }
    Ok(trie.digest())
}

/// Full-replay audit: verifies that digest `d` represents `old`, `d'`
/// represents `new`, and `new` extends `old`.
pub fn audit_transition(
    old: &[LogEntry],
    old_digest: &Hash256,
    new: &[LogEntry],
    new_digest: &Hash256,
) -> Result<(), AuditorError> {
    if new.len() < old.len() || new[..old.len()] != *old {
        return Err(AuditorError::NotPrefix);
    }
    if digest_of(old)? != *old_digest {
        return Err(AuditorError::OldDigestMismatch);
    }
    match digest_of(new) {
        Ok(d) if d == *new_digest => Ok(()),
        Ok(_) => Err(AuditorError::NewDigestMismatch),
        Err(e) => Err(e),
    }
}

/// Scans a log for recovery attempts recorded against `id` — the §6.2
/// user-facing monitoring use-case ("has anyone tried to recover my
/// backup?"). Old (garbage-collected) logs can be scanned the same way.
pub fn recovery_attempts_for<'a>(entries: &'a [LogEntry], id: &[u8]) -> Vec<&'a LogEntry> {
    entries.iter().filter(|e| e.id == id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::Log;

    fn build_logs() -> (Vec<LogEntry>, Hash256, Vec<LogEntry>, Hash256) {
        let mut log = Log::new();
        for i in 0..10 {
            log.insert(format!("u{i}").as_bytes(), b"v").unwrap();
        }
        let old = log.entries().to_vec();
        let old_d = log.digest();
        for i in 10..15 {
            log.insert(format!("u{i}").as_bytes(), b"v").unwrap();
        }
        (old, old_d, log.entries().to_vec(), log.digest())
    }

    #[test]
    fn honest_transition_passes() {
        let (old, od, new, nd) = build_logs();
        audit_transition(&old, &od, &new, &nd).unwrap();
    }

    #[test]
    fn non_prefix_caught() {
        let (old, od, mut new, nd) = build_logs();
        new[0].value = b"mutated".to_vec();
        assert_eq!(
            audit_transition(&old, &od, &new, &nd).unwrap_err(),
            AuditorError::NotPrefix
        );
    }

    #[test]
    fn truncation_caught() {
        let (old, od, new, _) = build_logs();
        // Provider presents a shorter "new" log than the old one.
        assert_eq!(
            audit_transition(&new, &digest_of(&new).unwrap(), &old, &od).unwrap_err(),
            AuditorError::NotPrefix
        );
    }

    #[test]
    fn wrong_digest_caught() {
        let (old, od, new, _) = build_logs();
        let wrong = [0u8; 32];
        assert_eq!(
            audit_transition(&old, &od, &new, &wrong).unwrap_err(),
            AuditorError::NewDigestMismatch
        );
        let (_, _, new2, nd2) = build_logs();
        assert_eq!(
            audit_transition(&old, &wrong, &new2, &nd2).unwrap_err(),
            AuditorError::OldDigestMismatch
        );
    }

    #[test]
    fn duplicate_identifier_caught() {
        let (old, od, mut new, nd) = build_logs();
        new.push(LogEntry {
            id: b"u3".to_vec(),
            value: b"second-attempt".to_vec(),
        });
        assert!(matches!(
            audit_transition(&old, &od, &new, &nd).unwrap_err(),
            AuditorError::DuplicateIdentifier(_)
        ));
    }

    #[test]
    fn digest_of_matches_incremental() {
        let (_, _, new, nd) = build_logs();
        assert_eq!(digest_of(&new).unwrap(), nd);
    }

    #[test]
    fn recovery_attempt_monitoring() {
        let (_, _, new, _) = build_logs();
        let hits = recovery_attempts_for(&new, b"u3");
        assert_eq!(hits.len(), 1);
        assert!(recovery_attempts_for(&new, b"stranger").is_empty());
    }
}
