//! Durable provider state: the provider-log write-ahead log between
//! snapshots, and crash-safe whole-datacenter snapshots (see
//! `safetypin-store`).

use rand::{CryptoRng, RngCore};
use safetypin_authlog::distributed::UpdateMessage;
use safetypin_authlog::log::{Log, LogEntry, LogError};
use safetypin_hsm::{Hsm, RecoveryResponse};
use safetypin_proto::Direct;
use safetypin_seckv::BlockStore;
use safetypin_store::{FileOptions, FileStore, SnapshotBlocks, StoreError};

use crate::{save_record, Datacenter, EpochCert, ProviderError};

/// WAL record kind: a raw `insert_log` entry (`id`, `value`).
pub(crate) const WAL_INSERT: u8 = 0;
/// WAL record kind: a save (`username`, `blob`); the log entry is
/// re-derived on replay via [`save_record`].
pub(crate) const WAL_SAVE: u8 = 1;

/// Frames one provider-log WAL record.
fn wal_record(kind: u8, a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut w = safetypin_primitives::wire::Writer::new();
    w.put_u8(kind);
    w.put_bytes(a);
    w.put_bytes(b);
    w.into_bytes()
}

impl<S: BlockStore + Send> Datacenter<S> {
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
    pub(crate) fn wal_append(&mut self, kind: u8, a: &[u8], b: &[u8]) {
        if let Some(wal) = &mut self.log_wal {
            wal.put(self.wal_seq, &wal_record(kind, a, b));
            self.wal_seq += 1;
        }
    }

    /// Commits staged WAL records — the group-commit boundary.
    pub(crate) fn wal_flush(&mut self) {
        if let Some(wal) = &mut self.log_wal {
            wal.flush();
        }
    }
}

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
        keyring.save(&keyring_path, opts.durability)?;
        for (hsm, store) in self.hsms.iter().zip(self.stores.iter_mut()) {
            let key = keyring
                .device(hsm.id())
                .ok_or(StoreError::Inconsistent("keyring does not cover the fleet"))?;
            hsm.persist(dir, key, opts.durability, rng)?;
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
        safetypin_store::write_atomic(
            &dir.join(snapshot_files::PROVIDER),
            &state.to_bytes(),
            opts.durability,
        )?;

        let meta = safetypin_proto::SnapshotMeta {
            proto_version: safetypin_proto::PROTO_VERSION,
            fleet_size: self.hsms.len() as u64,
            epoch_count: self.update_history.len() as u64,
            log_generation: self.log.generation(),
            key_epochs: self.hsms.iter().map(|h| h.key_epoch()).collect(),
        };
        let envelope =
            safetypin_proto::Envelope::seal(safetypin_proto::Message::SnapshotMeta(meta.clone()));
        safetypin_store::write_atomic(
            &dir.join(snapshot_files::META),
            &envelope.to_bytes(),
            opts.durability,
        )?;

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
