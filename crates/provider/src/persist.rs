//! Durable provider state: **the journal is the state.**
//!
//! Every mutation of the provider's state — a log insertion, a save, a
//! certified epoch, a round of reply copies, a garbage collection — is
//! one record appended to the datacenter's journal (a
//! [`BlockStore`](safetypin_seckv::BlockStore): one record per block at
//! addresses `0, 1, 2, …`) and committed before the operation's effect
//! leaves the provider. There is no second serializer: restoring a
//! datacenter is opening its stores, replaying the journal from record
//! 0, and letting every device catch up on the certified chain
//! ([`resync_hsm`](Datacenter::resync_hsm)); a directory is restorable
//! after every group commit, not only after a `persist`.
//!
//! An in-memory fleet journals into a [`MemStore`](safetypin_seckv::MemStore),
//! an on-disk fleet into the crash-safe
//! [`FileStore`] at `blocks/provider-log/` — the same code path, and
//! [`persist`](Datacenter::persist) is nothing but a checkpoint of every
//! store plus two small static files (`devices.keys`, `snapshot.meta`;
//! `Deployment::persist` adds `params.bin`). The journal only grows:
//! folding it into its segment rides `FileStore`'s auto-checkpoint, and
//! compacting superseded records is an open item (ROADMAP item 5).

use rand::{CryptoRng, RngCore};
use safetypin_authlog::distributed::UpdateMessage;
use safetypin_hsm::{Hsm, RecoveryResponse};
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_seckv::BlockStore;
use safetypin_store::{FileOptions, FileStore, Keyring, SnapshotBlocks, StoreError};

use crate::{save_record, Datacenter, EpochCert, ProviderError};

/// Journal record: a raw `insert_log` entry (`id`, `value`).
pub(crate) const INSERT: u8 = 0;
/// Journal record: a save (`username`, `blob`); the log entry is
/// re-derived on replay via [`save_record`].
pub(crate) const SAVE: u8 = 1;
/// Journal record: a certified epoch (`message`, `cert`).
pub(crate) const EPOCH: u8 = 2;
/// Journal record: the §8 reply copies of one recovery round.
pub(crate) const REPLIES: u8 = 3;
/// Journal record: a garbage collection (no body).
pub(crate) const GC: u8 = 4;

impl<S: BlockStore + Send> Datacenter<S> {
    /// Stages one journal record: its kind byte, then `body`.
    pub(crate) fn journal_append(&mut self, kind: u8, body: impl FnOnce(&mut Writer)) {
        let mut w = Writer::new();
        w.put_u8(kind);
        body(&mut w);
        self.journal.put(self.journal_len, &w.into_bytes());
        self.journal_len += 1;
    }

    /// Commits the staged journal records — the provider's group-commit
    /// boundary.
    pub(crate) fn journal_commit(&mut self) {
        self.journal.flush();
    }

    /// A certified epoch takes effect: the log is cut and the quorum
    /// certificate joins the replayable chain.
    pub(crate) fn apply_epoch(&mut self, message: UpdateMessage, cert: EpochCert) {
        self.log.mark_certified();
        self.update_history.push(message);
        self.epoch_certs.push(cert);
    }

    /// A garbage collection takes effect: the log is archived and the
    /// certified chain restarts from the empty digest.
    pub(crate) fn apply_gc(&mut self) {
        let archived = self.log.garbage_collect();
        self.archived_logs.push(archived);
        self.chain_start = self.update_history.len();
    }

    /// Applies one journal record to the in-memory state, returning how
    /// many log entries it added.
    fn replay(&mut self, record: &[u8]) -> Result<u64, ProviderError> {
        const MALFORMED: ProviderError = ProviderError::Journal("malformed record");
        let mut r = Reader::new(record);
        let added = match r.get_u8().map_err(|_| MALFORMED)? {
            INSERT => {
                let id = r.get_bytes().map_err(|_| MALFORMED)?;
                let value = r.get_bytes().map_err(|_| MALFORMED)?;
                self.log.insert(id, value)?;
                1
            }
            SAVE => {
                let username = r.get_bytes().map_err(|_| MALFORMED)?;
                let blob = r.get_bytes().map_err(|_| MALFORMED)?;
                let (id, value) = save_record(username, blob);
                self.log.insert(&id, &value)?;
                self.backups.insert(username.to_vec(), blob.to_vec());
                1
            }
            EPOCH => {
                let message = UpdateMessage::decode(&mut r).map_err(|_| MALFORMED)?;
                let cert = EpochCert::decode(&mut r).map_err(|_| MALFORMED)?;
                if message.old_digest != self.log.certified_digest()
                    || message.new_digest != self.log.digest()
                {
                    return Err(ProviderError::Journal(
                        "epoch record does not certify the replayed log",
                    ));
                }
                self.apply_epoch(message, cert);
                0
            }
            REPLIES => {
                let copies: Vec<(Vec<u8>, RecoveryResponse)> =
                    r.get_seq().map_err(|_| MALFORMED)?;
                self.reply_copies.extend(copies);
                0
            }
            GC => {
                self.apply_gc();
                0
            }
            _ => return Err(MALFORMED),
        };
        if r.is_exhausted() {
            Ok(added)
        } else {
            Err(MALFORMED)
        }
    }

    /// Adopts `journal` as this datacenter's journal, replaying every
    /// record it already holds; from here on mutations are journaled
    /// there. Returns the number of log entries the replay added.
    ///
    /// Only a datacenter that has journaled nothing yet (freshly
    /// provisioned, or being restored) can adopt one — its own records
    /// would otherwise be left behind.
    pub fn attach_log_wal(
        &mut self,
        journal: Box<dyn SnapshotBlocks + Send>,
    ) -> Result<u64, ProviderError> {
        if self.journal_len != 0 {
            return Err(ProviderError::Journal(
                "a datacenter with journaled state cannot adopt another journal",
            ));
        }
        self.journal = journal;
        let mut replayed = 0u64;
        while let Some(record) = self.journal.get(self.journal_len) {
            replayed += self.replay(&record)?;
            self.journal_len += 1;
        }
        Ok(replayed)
    }

    /// The journal's I/O statistics (fsyncs land in `flushes`).
    pub fn log_wal_stats(&self) -> Option<safetypin_seckv::StoreStats> {
        Some(self.journal.io_stats())
    }

    /// The metadata describing this datacenter as it stands.
    pub fn snapshot_meta(&self) -> safetypin_proto::SnapshotMeta {
        safetypin_proto::SnapshotMeta {
            proto_version: safetypin_proto::PROTO_VERSION,
            fleet_size: self.hsms.len() as u64,
            epoch_count: self.update_history.len() as u64,
            log_generation: self.log.generation(),
            key_epochs: self.hsms.iter().map(|h| h.key_epoch()).collect(),
        }
    }
}

/// Store-directory filenames.
mod files {
    /// Versioned metadata (a proto [`Envelope`](safetypin_proto::Envelope)).
    pub const META: &str = "snapshot.meta";
    /// The fleet's device keys (stands in for on-chip flash — see
    /// [`safetypin_store::Keyring`]).
    pub const KEYRING: &str = "devices.keys";
    /// Per-HSM block stores live under `blocks/hsm-<id>/`, the
    /// provider's journal under `blocks/provider-log/`.
    pub const BLOCKS_DIR: &str = "blocks";
}

fn hsm_dir(dir: &std::path::Path, id: u64) -> std::path::PathBuf {
    dir.join(files::BLOCKS_DIR).join(format!("hsm-{id}"))
}

fn journal_dir(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join(files::BLOCKS_DIR).join("provider-log")
}

impl<S: SnapshotBlocks + Send> Datacenter<S> {
    /// Checkpoints the whole datacenter into `dir`:
    ///
    /// * each HSM's block store — the outsourced array plus the
    ///   device's own sealed state blocks — after committing anything
    ///   the device still has staged;
    /// * the provider's journal;
    /// * the device [`Keyring`] (standing in for the fleet's on-chip
    ///   flash — kept in its own file so the trust boundary is
    ///   explicit);
    /// * a versioned [`SnapshotMeta`](safetypin_proto::SnapshotMeta)
    ///   envelope, checked before anything else on restore.
    ///
    /// For a fleet already running on `dir` this folds each WAL into
    /// its segment (nothing more: the stores were restorable already);
    /// for any other fleet it copies every block across. Returns the
    /// metadata that was stamped. `rng` feeds sealing nonces only —
    /// persisting never perturbs protocol state.
    pub fn persist<R: RngCore + CryptoRng>(
        &mut self,
        dir: &std::path::Path,
        opts: FileOptions,
        rng: &mut R,
    ) -> Result<safetypin_proto::SnapshotMeta, StoreError> {
        std::fs::create_dir_all(dir)?;
        let keys = self.hsms.iter().map(|h| h.device_key().clone()).collect();
        Keyring::new(keys).save(&dir.join(files::KEYRING), opts.durability)?;
        for (hsm, store) in self.hsms.iter_mut().zip(self.stores.iter_mut()) {
            hsm.commit(store, rng);
            store.checkpoint_into(&hsm_dir(dir, hsm.id()), opts)?;
        }
        self.journal.checkpoint_into(&journal_dir(dir), opts)?;

        let meta = self.snapshot_meta();
        let envelope =
            safetypin_proto::Envelope::seal(safetypin_proto::Message::SnapshotMeta(meta.clone()));
        safetypin_store::write_atomic(
            &dir.join(files::META),
            &envelope.to_bytes(),
            opts.durability,
        )?;
        Ok(meta)
    }
}

impl Datacenter<FileStore> {
    /// Restores a datacenter from a store directory, running **live**
    /// on its crash-safe files: every device is reopened from its own
    /// block store, the journal is replayed, and each live device is
    /// caught up on the certified chain — so the directory need not
    /// have been [`persist`](Self::persist)ed since its last commit.
    ///
    /// The restored fleet re-handshakes versions first: the metadata
    /// envelope is decoded before any sealed state is touched, so a
    /// directory written by a build speaking a different
    /// [`PROTO_VERSION`](safetypin_proto::PROTO_VERSION) fails with a
    /// typed [`StoreError::VersionMismatch`]. The returned metadata
    /// describes the restored state, not the last checkpoint. Messages
    /// flow over the zero-copy `Direct` transport; use
    /// [`set_transport`](Self::set_transport) afterwards for others.
    pub fn restore_from(
        dir: &std::path::Path,
        opts: FileOptions,
    ) -> Result<(Self, safetypin_proto::SnapshotMeta), StoreError> {
        let meta_bytes =
            safetypin_store::read_component(&dir.join(files::META), "snapshot metadata")?;
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

        let keyring = Keyring::load(&dir.join(files::KEYRING))?;
        let mut hsms = Vec::with_capacity(meta.fleet_size as usize);
        let mut stores = Vec::with_capacity(meta.fleet_size as usize);
        for id in 0..meta.fleet_size {
            let key = keyring
                .device(id)
                .ok_or(StoreError::Inconsistent("keyring does not cover the fleet"))?;
            let mut store = FileStore::open(hsm_dir(dir, id), opts)?;
            hsms.push(Hsm::open(id, &mut store, key.clone())?);
            stores.push(store);
        }

        let mut dc = Self::assemble(hsms, stores);
        dc.attach_log_wal(Box::new(FileStore::open(journal_dir(dir), opts)?))
            .map_err(|_| StoreError::Inconsistent("provider journal failed to replay"))?;
        // An epoch is journaled before the first device hears of it, so
        // a kill in between leaves devices one certificate behind. A
        // device that cannot catch up (fail-stopped, or off the chain)
        // stays stale, exactly as it would in a live fleet.
        for id in 0..meta.fleet_size {
            let _ = dc.resync_hsm(id);
        }
        let meta = dc.snapshot_meta();
        Ok((dc, meta))
    }
}
