//! End-to-end deployment orchestration.
//!
//! [`Deployment`] wires the datacenter, HSM fleet, and clients together
//! and exposes the two whole-system operations of §3 — `Backup` and
//! `Recover` — plus the bookkeeping the evaluation needs:
//! vulnerability-window tracking (Figure 4). The per-phase HSM cost of a
//! recovery (Figure 10) is the fleet's own meter, read with
//! [`Datacenter::drain_fleet_costs`] around the call.
//!
//! Neither flow is written here. [`Deployment::recover_many`] and
//! [`Deployment::save_many`] run the client flows of
//! [`safetypin_client::remote`] against an in-process endpoint over
//! [`Deployment::handle`] — the same dispatch `safetypind` serves over
//! TCP — and a solo request ([`Deployment::recover`],
//! [`Deployment::save`]) is a wave of one.

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};
use safetypin_client::remote::{self, RemoteError};
use safetypin_client::{BackupArtifact, Client, ClientError};
use safetypin_primitives::CryptoError;
use safetypin_proto::{
    codes, ProtoError, ProviderRequest, ProviderResponse, SnapshotMeta, StatusReport, Transport,
    TransportStats,
};
use safetypin_provider::{Datacenter, ProviderError};
use safetypin_seckv::{BlockStore, MemStore};
use safetypin_store::{Durability, FileOptions, FileStore, SnapshotBlocks, StoreError};

use crate::params::SystemParams;

/// Errors from deployment-level operations.
#[derive(Debug)]
pub enum DeploymentError {
    /// Provider/datacenter failure.
    Provider(ProviderError),
    /// Client-side failure.
    Client(ClientError),
    /// Persistent-store failure while opening or persisting the
    /// deployment.
    Store(StoreError),
    /// Parameter derivation failed (invalid LHE/BFE shape).
    Params(CryptoError),
    /// The builder was asked for something its configuration cannot do
    /// (e.g. [`DeploymentBuilder::open`] without a store directory).
    Config(&'static str),
    /// The recovery attempt was refused (e.g., attempt already logged for
    /// this identifier — the PIN-guess limit).
    AttemptRefused,
    /// The provider refused a save (e.g. the log rejected the save's
    /// audit record).
    SaveRefused(safetypin_proto::ErrorReply),
}

impl core::fmt::Display for DeploymentError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeploymentError::Provider(e) => write!(f, "provider: {e}"),
            DeploymentError::Client(e) => write!(f, "client: {e}"),
            DeploymentError::Store(e) => write!(f, "store: {e}"),
            DeploymentError::Params(e) => write!(f, "invalid parameters: {e}"),
            DeploymentError::Config(what) => write!(f, "builder misconfigured: {what}"),
            DeploymentError::AttemptRefused => write!(f, "recovery attempt refused"),
            DeploymentError::SaveRefused(e) => write!(f, "save refused: {e}"),
        }
    }
}

impl std::error::Error for DeploymentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeploymentError::Provider(e) => Some(e),
            DeploymentError::Client(e) => Some(e),
            DeploymentError::Store(e) => Some(e),
            DeploymentError::Params(e) => Some(e),
            DeploymentError::Config(_)
            | DeploymentError::AttemptRefused
            | DeploymentError::SaveRefused(_) => None,
        }
    }
}

impl From<ProviderError> for DeploymentError {
    fn from(e: ProviderError) -> Self {
        DeploymentError::Provider(e)
    }
}

impl From<ClientError> for DeploymentError {
    fn from(e: ClientError) -> Self {
        DeploymentError::Client(e)
    }
}

impl From<StoreError> for DeploymentError {
    fn from(e: StoreError) -> Self {
        DeploymentError::Store(e)
    }
}

impl From<CryptoError> for DeploymentError {
    fn from(e: CryptoError) -> Self {
        DeploymentError::Params(e)
    }
}

/// How a recovery-flow failure reads to in-process callers: the log's
/// refusals (attempt already consumed, no inclusion proof) are
/// [`DeploymentError::AttemptRefused`], every other typed refusal keeps
/// its HSM/provider meaning.
impl From<RemoteError> for DeploymentError {
    fn from(e: RemoteError) -> Self {
        let provider = match e {
            RemoteError::Client(e) => return DeploymentError::Client(e),
            RemoteError::Refused(e) if e.code == codes::LOG_REFUSED => {
                return DeploymentError::AttemptRefused
            }
            RemoteError::Refused(e) if e.code == codes::EPOCH_FAILED => {
                ProviderError::EpochFailed("the wave's epoch was not certified")
            }
            RemoteError::Refused(e) => ProviderError::Hsm((&e).into()),
            RemoteError::Transport(e) => ProviderError::Transport(e),
            RemoteError::Protocol(what) => {
                ProviderError::Transport(ProtoError::UnexpectedMessage(what))
            }
            RemoteError::NoBackup => ProviderError::Transport(ProtoError::UnexpectedMessage(
                "no backup stored under this username",
            )),
        };
        DeploymentError::Provider(provider)
    }
}

/// The result of a full recovery run.
#[derive(Debug)]
pub struct RecoveryOutcome {
    /// The recovered plaintext.
    pub message: Vec<u8>,
    /// HSMs that returned shares.
    pub responders: usize,
    /// HSMs contacted.
    pub contacted: usize,
    /// Transport traffic this recovery generated (bytes are nonzero only
    /// on byte-metering transports like `Serialized`).
    pub wire: TransportStats,
}

/// A complete SafetyPin deployment: parameters plus the datacenter.
///
/// Generic over the outsourced-block backend `S` (see
/// [`Datacenter`]): freshly provisioned fleets default to in-memory
/// [`MemStore`]s; [`Deployment::restore_from`] brings an on-disk fleet
/// back live on crash-safe [`FileStore`]s.
pub struct Deployment<S: BlockStore = MemStore> {
    /// Deployment parameters.
    pub params: SystemParams,
    /// The datacenter (fleet + log + storage).
    pub datacenter: Datacenter<S>,
}

impl Deployment<MemStore> {
    /// Provisions the fleet over the zero-copy `Direct` transport;
    /// [`DeploymentBuilder`] covers everything else (another transport,
    /// a persistent store).
    pub fn provision<R: RngCore + CryptoRng>(
        params: SystemParams,
        rng: &mut R,
    ) -> Result<Self, DeploymentError> {
        let datacenter = Datacenter::provision(params.total(), |id| params.hsm_config(id), rng)?;
        Ok(Self { params, datacenter })
    }
}

/// Builder for a [`Deployment`]: the one place to choose anything
/// beyond [`Deployment::provision`]'s defaults — the fleet transport, a
/// persistent store directory, the block-file options.
///
/// ```
/// use safetypin::{DeploymentBuilder, SystemParams};
///
/// let mut rng = rand::thread_rng();
/// let deployment = DeploymentBuilder::new(SystemParams::test_small(8))
///     .transport(Box::new(safetypin::proto::Serialized::cdc()))
///     .provision(&mut rng)
///     .unwrap();
/// assert_eq!(deployment.params.total(), 8);
/// ```
///
/// Two terminal methods:
///
/// * [`provision`](Self::provision) — a fresh in-memory fleet
///   ([`Deployment<MemStore>`]);
/// * [`open`](Self::open) — a persistent fleet at
///   [`store_dir`](Self::store_dir): restores the fleet if one exists
///   there, otherwise provisions and persists a fresh one, either way
///   running live on crash-safe [`FileStore`]s. This is what
///   `safetypind` boots from.
pub struct DeploymentBuilder {
    params: SystemParams,
    transport: Option<Box<dyn Transport>>,
    store_dir: Option<PathBuf>,
    file_options: FileOptions,
}

impl DeploymentBuilder {
    /// Starts a builder from explicit [`SystemParams`].
    pub fn new(params: SystemParams) -> Self {
        Self {
            params,
            transport: None,
            store_dir: None,
            file_options: FileOptions::default(),
        }
    }

    /// Starts from [`SystemParams::scaled`] — `total` HSMs with
    /// `bfe_slots`-slot puncturable keys, paper ratios elsewhere.
    pub fn scaled(total: u64, cluster: usize, bfe_slots: u64) -> Result<Self, DeploymentError> {
        Ok(Self::new(SystemParams::scaled(total, cluster, bfe_slots)?))
    }

    /// Starts from [`SystemParams::test_small`] (unit-test scale).
    pub fn test_small(total: u64) -> Self {
        Self::new(SystemParams::test_small(total))
    }

    /// Message transport between the provider and the fleet (default:
    /// the zero-copy `Direct`). With [`open`](Self::open), the
    /// transport is installed after restore/provision — provisioning
    /// itself always runs `Direct`, so the persisted fleet is
    /// byte-identical regardless of this setting.
    pub fn transport(mut self, transport: Box<dyn Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Store directory for [`open`](Self::open).
    pub fn store_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.store_dir = Some(dir.into());
        self
    }

    /// fsync policy for the block files (shorthand for the
    /// [`file_options`](Self::file_options) field of the same name).
    pub fn durability(mut self, durability: Durability) -> Self {
        self.file_options.durability = durability;
        self
    }

    /// Full [`FileOptions`] for the crash-safe block files.
    pub fn file_options(mut self, opts: FileOptions) -> Self {
        self.file_options = opts;
        self
    }

    /// Provisions a fresh in-memory fleet.
    pub fn provision<R: RngCore + CryptoRng>(
        self,
        rng: &mut R,
    ) -> Result<Deployment<MemStore>, DeploymentError> {
        let mut deployment = Deployment::provision(self.params, rng)?;
        if let Some(transport) = self.transport {
            deployment.datacenter.set_transport(transport);
        }
        Ok(deployment)
    }

    /// Opens the persistent deployment at [`store_dir`](Self::store_dir):
    /// restores the fleet if one exists there (verifying its protocol
    /// version and that it was provisioned under exactly `params`),
    /// otherwise provisions a fresh fleet and persists it first. Either
    /// way the returned deployment runs live on crash-safe
    /// [`FileStore`]s.
    pub fn open<R: RngCore + CryptoRng>(
        self,
        rng: &mut R,
    ) -> Result<(Deployment<FileStore>, SnapshotMeta), DeploymentError> {
        use safetypin_primitives::wire::Encode;
        let dir = self
            .store_dir
            .ok_or(DeploymentError::Config("open requires store_dir"))?;
        if !dir.join("params.bin").exists() {
            Deployment::provision(self.params, rng)?.persist(&dir, self.file_options, rng)?;
        }
        let (mut deployment, meta) = Deployment::restore_from(&dir, self.file_options)?;
        // The whole parameter set, not just the fleet size: a store
        // provisioned under another cluster size, threshold or BFE slot
        // count must not silently keep serving its old parameters.
        if deployment.params.to_bytes() != self.params.to_bytes() {
            return Err(DeploymentError::Store(StoreError::Inconsistent(
                "stored parameters disagree with the builder's",
            )));
        }
        if let Some(transport) = self.transport {
            deployment.datacenter.set_transport(transport);
        }
        Ok((deployment, meta))
    }
}

pub use safetypin_client::remote::{RecoverySession, SaveSession};

/// Tuning for [`Deployment::recover_many`]. The default (`wave: 0`)
/// runs everyone in one wave.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverManyOptions {
    /// Users per wave (`0` = everyone in one wave). Each wave is one log
    /// epoch plus one grouped transport round; smaller waves bound the
    /// per-device group size (and therefore the deferred trusted-memory
    /// obligation per group commit) at the cost of more epochs.
    pub wave: usize,
}

/// A fleet-side RNG stream forked off the caller's: the client flow and
/// the in-process endpoint both need randomness during one call, and
/// this keeps both a deterministic function of the caller's RNG (the
/// idiom the per-HSM fan-out uses for its device streams).
fn fork_rng<R: RngCore + CryptoRng>(rng: &mut R) -> StdRng {
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    StdRng::from_seed(seed)
}

impl<S: BlockStore + Send> Deployment<S> {
    /// Creates a client that has downloaded the fleet's enrollment
    /// records.
    pub fn new_client(&self, username: &[u8]) -> Result<Client, DeploymentError> {
        Ok(Client::new(
            username,
            self.params.lhe,
            self.datacenter.enrollments(),
        )?)
    }

    /// A point-in-time [`StatusReport`]: the datacenter's fleet-level
    /// counters plus this deployment's LHE parameters (cluster size,
    /// threshold, PIN space) — everything a bare remote client needs to
    /// configure itself. The connection/admission fields stay zeroed;
    /// the daemon fills them in before the report goes over the wire.
    pub fn status_report(&self) -> StatusReport {
        StatusReport {
            cluster: self.params.lhe.cluster as u32,
            threshold: self.params.lhe.threshold as u32,
            pin_space: self.params.lhe.pin_space,
            ..self.datacenter.status_report()
        }
    }

    /// Dispatches one client-facing [`ProviderRequest`]. Identical to
    /// [`Datacenter::handle`] except that `Status` is answered here,
    /// where the LHE parameters are known.
    pub fn handle<R: RngCore + CryptoRng>(
        &mut self,
        request: ProviderRequest,
        rng: &mut R,
    ) -> ProviderResponse {
        match request {
            ProviderRequest::Status => ProviderResponse::Status(self.status_report()),
            other => self.datacenter.handle(other, rng),
        }
    }

    /// Saves one user's secret: a [`save_many`](Self::save_many) wave of
    /// one, for a client built from the fleet's current enrollments.
    /// Returns the artifact so the caller can later recover from it.
    pub fn save<R: RngCore + CryptoRng>(
        &mut self,
        username: &[u8],
        pin: &[u8],
        secret: &[u8],
        rng: &mut R,
    ) -> Result<BackupArtifact, DeploymentError> {
        let session = SaveSession {
            client: &mut self.new_client(username)?,
            pin,
            secret,
            epoch: self.datacenter.update_history().len() as u64,
        };
        remote::sole(self.save_many(&mut [session], rng))
    }

    /// Saves a whole wave of users through the one save flow
    /// ([`remote::save_many`]) against this deployment's own
    /// [`handle`](Self::handle): every artifact is built client-side,
    /// then the wave lands as one log insertion per save, in session
    /// order, under **one** group-commit WAL flush (`SaveBatch`),
    /// touching no HSM. Outcomes come back per user in session order;
    /// one user's refusal ([`DeploymentError::SaveRefused`]) never sinks
    /// the wave. Log state, entry order and digests are independent of
    /// how the saves were split into waves.
    pub fn save_many<R: RngCore + CryptoRng>(
        &mut self,
        sessions: &mut [SaveSession<'_>],
        rng: &mut R,
    ) -> Vec<Result<BackupArtifact, DeploymentError>> {
        let mut fleet_rng = fork_rng(rng);
        let mut endpoint = |request: ProviderRequest| -> Result<ProviderResponse, ProtoError> {
            Ok(self.handle(request, &mut fleet_rng))
        };
        remote::save_many(&mut endpoint, sessions, rng)
            .into_iter()
            .map(|saved| {
                saved.map_err(|e| match e {
                    RemoteError::Refused(e) => DeploymentError::SaveRefused(e),
                    other => other.into(),
                })
            })
            .collect()
    }

    /// Runs the full Figure 3 recovery for one user: a
    /// [`recover_many`](Self::recover_many) wave of one.
    ///
    /// Unavailable HSMs (fail-stopped, or their reply lost in transit)
    /// and refused shares are skipped: recovery succeeds as long as the
    /// surviving shares reach the threshold.
    pub fn recover<R: RngCore + CryptoRng>(
        &mut self,
        client: &Client,
        pin: &[u8],
        artifact: &BackupArtifact,
        rng: &mut R,
    ) -> Result<RecoveryOutcome, DeploymentError> {
        let session = RecoverySession {
            client,
            pin,
            artifact,
        };
        remote::sole(self.recover_many(&[session], RecoverManyOptions::default(), rng))
    }

    /// Serves many users' recoveries through the one Figure 3 flow
    /// ([`remote::recover_many`]) against this deployment's own
    /// [`handle`](Self::handle), amortizing everything a one-at-a-time
    /// loop pays per user across each wave:
    ///
    /// * one log epoch certifies every attempt in the wave;
    /// * every request bound for the same HSM travels in **one envelope
    ///   per device per direction** ([`Datacenter::route_recovery`]);
    /// * each device serves its coalesced group with cross-user batched
    ///   punctures, one MSM slot audit, and a **single group-commit
    ///   durability barrier** — punctures for the whole group commit
    ///   before any share leaves any device.
    ///
    /// Outcomes come back per user, in session order; one user's refusal
    /// (attempt already consumed, wrong PIN) never sinks the wave. The
    /// served shares are **byte-identical** for any wave size — wave = 1
    /// ≡ wave = n, pinned by `tests/tests/throughput.rs`; on top of the
    /// flow's result this adapter adds only the Figure-4 `window` and
    /// the `wire` stats, which report the wave's traffic amortized
    /// evenly across its users (the whole point of a wave is that this
    /// number falls as it grows). The per-user counters are
    /// floor-divided, so a fault count smaller than the wave can round
    /// to 0 in every outcome — callers needing exact fault totals should
    /// diff [`Datacenter::transport_stats`] around the call instead.
    pub fn recover_many<R: RngCore + CryptoRng>(
        &mut self,
        sessions: &[RecoverySession<'_>],
        opts: RecoverManyOptions,
        rng: &mut R,
    ) -> Vec<Result<RecoveryOutcome, DeploymentError>> {
        let wave_size = if opts.wave == 0 {
            sessions.len().max(1)
        } else {
            opts.wave
        };
        let mut fleet_rng = fork_rng(rng);
        let mut outcomes = Vec::with_capacity(sessions.len());
        for wave in sessions.chunks(wave_size) {
            let wire_before = self.datacenter.transport_stats();
            let mut endpoint = |request: ProviderRequest| -> Result<ProviderResponse, ProtoError> {
                Ok(self.handle(request, &mut fleet_rng))
            };
            let recovered = remote::recover_many(&mut endpoint, wave, rng);
            let delta = self.datacenter.transport_stats().since(&wire_before);
            let users = wave.len() as u64;
            let wire = TransportStats {
                envelopes: delta.envelopes / users,
                messages: delta.messages / users,
                request_bytes: delta.request_bytes / users,
                response_bytes: delta.response_bytes / users,
                dropped: delta.dropped / users,
                corrupted: delta.corrupted / users,
                seconds: delta.seconds / users as f64,
            };
            outcomes.extend(recovered.into_iter().map(|outcome| {
                let recovered = outcome?;
                Ok(RecoveryOutcome {
                    message: recovered.message,
                    responders: recovered.responders,
                    contacted: recovered.contacted,
                    wire,
                })
            }));
        }
        outcomes
    }
}

impl<S: SnapshotBlocks + Send> Deployment<S> {
    /// Checkpoints the whole deployment into `dir`: every block store
    /// (each HSM's array and sealed state, the provider's journal), the
    /// device keyring, a versioned metadata envelope (see
    /// [`Datacenter::persist`]) and — last, because its presence is what
    /// [`DeploymentBuilder::open`] takes for "a fleet lives here" — the
    /// system parameters. A fleet already running on `dir` was
    /// restorable before the call and merely reopens faster after it.
    /// `rng` feeds sealing only — protocol state is untouched, so
    /// persisting mid-recovery or mid-epoch is always safe.
    pub fn persist<R: RngCore + CryptoRng>(
        &mut self,
        dir: &std::path::Path,
        opts: FileOptions,
        rng: &mut R,
    ) -> Result<SnapshotMeta, StoreError> {
        use safetypin_primitives::wire::Encode;
        let meta = self.datacenter.persist(dir, opts, rng)?;
        safetypin_store::write_atomic(
            &dir.join("params.bin"),
            &self.params.to_bytes(),
            opts.durability,
        )?;
        Ok(meta)
    }
}

impl Deployment<FileStore> {
    /// Restores the deployment stored in `dir`, running live on its
    /// crash-safe block files — whether or not it was
    /// [`persist`](Self::persist)ed since its last commit. The protocol
    /// version is checked before any sealed state is opened
    /// ([`StoreError::VersionMismatch`] on a mismatch), and the restored
    /// fleet completes in-flight work — a recovery whose attempt was
    /// already logged, an epoch cut mid-certification — exactly as the
    /// original would have.
    pub fn restore_from(
        dir: &std::path::Path,
        opts: FileOptions,
    ) -> Result<(Self, SnapshotMeta), StoreError> {
        use safetypin_primitives::wire::Decode;
        let params_bytes = safetypin_store::read_component(&dir.join("params.bin"), "params")?;
        let params = SystemParams::from_bytes(&params_bytes)?;
        let (datacenter, meta) = Datacenter::restore_from(dir, opts)?;
        if meta.fleet_size != params.total() {
            return Err(StoreError::Inconsistent(
                "stored fleet size disagrees with persisted parameters",
            ));
        }
        Ok((Self { params, datacenter }, meta))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use safetypin_sim::CostModel;

    fn deployment(total: u64) -> (Deployment, StdRng) {
        let mut rng = StdRng::seed_from_u64(1_000_000 + total);
        let params = SystemParams::test_small(total);
        let d = Deployment::provision(params, &mut rng).unwrap();
        (d, rng)
    }

    #[test]
    fn builder_provision_matches_positional_constructor() {
        // Same seed, same params: the builder — whatever transport it
        // installs — must provision the exact fleet
        // `Deployment::provision` does.
        let params = SystemParams::test_small(8);
        let mut rng_a = StdRng::seed_from_u64(77);
        let a = Deployment::provision(params, &mut rng_a).unwrap();
        let mut rng_b = StdRng::seed_from_u64(77);
        let b = crate::DeploymentBuilder::new(params)
            .transport(Box::new(safetypin_proto::Serialized::cdc()))
            .provision(&mut rng_b)
            .unwrap();
        let enc = |d: &Deployment| {
            use safetypin_primitives::wire::Encode;
            d.datacenter
                .enrollments()
                .iter()
                .flat_map(|e| e.to_bytes())
                .collect::<Vec<u8>>()
        };
        assert_eq!(enc(&a), enc(&b));
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    #[test]
    fn builder_open_provisions_then_restores() {
        let dir =
            std::env::temp_dir().join(format!("safetypin-builder-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = SystemParams::test_small(8);

        // First open: no snapshot yet — provisions and persists.
        let mut rng = StdRng::seed_from_u64(42);
        let (mut d, meta) = crate::DeploymentBuilder::new(params)
            .store_dir(&dir)
            .file_options(FileOptions::relaxed())
            .open(&mut rng)
            .unwrap();
        assert_eq!(meta.fleet_size, 8);
        let mut client = d.new_client(b"alice").unwrap();
        let artifact = client.backup(b"493201", b"the key", 0, &mut rng).unwrap();
        d.persist(&dir, FileOptions::relaxed(), &mut rng).unwrap();
        drop(d);

        // Second open: the snapshot exists — restores it, and the
        // restored fleet serves the recovery.
        let (mut d, meta) = crate::DeploymentBuilder::new(params)
            .store_dir(&dir)
            .file_options(FileOptions::relaxed())
            .open(&mut rng)
            .unwrap();
        assert_eq!(meta.fleet_size, 8);
        let outcome = d.recover(&client, b"493201", &artifact, &mut rng).unwrap();
        assert_eq!(outcome.message, b"the key");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_open_rejects_a_store_provisioned_under_other_params() {
        let dir =
            std::env::temp_dir().join(format!("safetypin-builder-params-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rng = StdRng::seed_from_u64(43);
        let open = |params: SystemParams, rng: &mut StdRng| {
            crate::DeploymentBuilder::new(params)
                .store_dir(&dir)
                .file_options(FileOptions::relaxed())
                .open(rng)
        };
        let params = SystemParams::test_small(8);
        open(params, &mut rng).unwrap();

        // Same fleet size, different cluster: the persisted fleet must
        // not come back serving its old parameters.
        let mut other = params;
        other.lhe = safetypin_lhe::LheParams::new(8, 6, 3, 10_000).unwrap();
        match open(other, &mut rng) {
            Err(DeploymentError::Store(StoreError::Inconsistent(_))) => {}
            Err(e) => panic!("expected StoreError::Inconsistent, got {e}"),
            Ok(_) => panic!("a store provisioned under another cluster size must not open"),
        }
        // The matching parameters still open it.
        open(params, &mut rng).unwrap();

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn builder_open_without_store_dir_is_a_config_error() {
        let mut rng = StdRng::seed_from_u64(1);
        match crate::DeploymentBuilder::test_small(8).open(&mut rng) {
            Err(DeploymentError::Config(_)) => {}
            Err(e) => panic!("expected a Config error, got {e}"),
            Ok(_) => panic!("open without store_dir must fail"),
        }
    }

    #[test]
    fn status_report_carries_lhe_params_and_counters() {
        let (mut d, mut rng) = deployment(8);
        let mut client = d.new_client(b"fred").unwrap();
        let artifact = client.backup(b"555555", b"m", 0, &mut rng).unwrap();
        d.recover(&client, b"555555", &artifact, &mut rng).unwrap();
        let report = d.status_report();
        assert_eq!(report.fleet_size, 8);
        assert_eq!(report.cluster, d.params.lhe.cluster as u32);
        assert_eq!(report.threshold, d.params.lhe.threshold as u32);
        assert_eq!(report.pin_space, d.params.lhe.pin_space);
        assert_eq!(report.epoch_count, 1);
        assert!(report.log_entries >= 1);
        assert!(report.reply_copies >= 1);
        // Deployment::handle answers Status itself (the datacenter
        // cannot know the LHE parameters).
        let resp = d.handle(ProviderRequest::Status, &mut rng);
        assert_eq!(resp, ProviderResponse::Status(report));
    }

    #[test]
    fn quickstart_backup_recover() {
        let (mut d, mut rng) = deployment(8);
        let mut client = d.new_client(b"alice").unwrap();
        let artifact = client
            .backup(b"493201", b"the disk key", 0, &mut rng)
            .unwrap();
        let outcome = d.recover(&client, b"493201", &artifact, &mut rng).unwrap();
        assert_eq!(outcome.message, b"the disk key");
        assert!(outcome.responders > 0 && outcome.responders <= outcome.contacted);
    }

    #[test]
    fn second_attempt_refused_by_log() {
        let (mut d, mut rng) = deployment(8);
        let mut client = d.new_client(b"bob").unwrap();
        let artifact = client.backup(b"111111", b"m", 0, &mut rng).unwrap();
        d.recover(&client, b"111111", &artifact, &mut rng).unwrap();
        let err = d
            .recover(&client, b"111111", &artifact, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DeploymentError::AttemptRefused));
    }

    #[test]
    fn wrong_pin_consumes_the_attempt() {
        // A wrong-PIN attempt fails AND burns the one logged attempt —
        // exactly the anti-brute-force behaviour the log exists for.
        let (mut d, mut rng) = deployment(8);
        let mut client = d.new_client(b"carol").unwrap();
        let artifact = client.backup(b"222222", b"m", 0, &mut rng).unwrap();
        assert!(d.recover(&client, b"999999", &artifact, &mut rng).is_err());
        let err = d
            .recover(&client, b"222222", &artifact, &mut rng)
            .unwrap_err();
        assert!(matches!(err, DeploymentError::AttemptRefused));
    }

    #[test]
    fn recovery_tolerates_failstop_hsms() {
        let (mut d, mut rng) = deployment(16);
        let mut client = d.new_client(b"dave").unwrap();
        let artifact = client.backup(b"333333", b"resilient", 0, &mut rng).unwrap();
        // Fail one HSM that is NOT critical (threshold 2 of 4 cluster
        // slots): fail a non-cluster HSM plus rely on slack.
        d.datacenter.hsm_mut(0).unwrap().fail();
        // min_signers for total=16 is 16-0=16... test_small uses
        // f_live_inv=64 so n_fail=0 and min_signers=16; epoch would fail.
        // Restore and instead check recovery works with all HSMs.
        d.datacenter.hsm_mut(0).unwrap().restore();
        let outcome = d.recover(&client, b"333333", &artifact, &mut rng).unwrap();
        assert_eq!(outcome.message, b"resilient");
    }

    #[test]
    fn phase_costs_populated() {
        let (mut d, mut rng) = deployment(8);
        let mut client = d.new_client(b"erin").unwrap();
        let artifact = client.backup(b"444444", b"m", 0, &mut rng).unwrap();
        d.datacenter.drain_fleet_costs();
        let outcome = d.recover(&client, b"444444", &artifact, &mut rng).unwrap();
        let phases = d.datacenter.drain_fleet_costs();
        // LHE phase: one ElGamal decryption per share.
        assert!(phases.lhe.elgamal_decs >= d.params.lhe.cluster as u64);
        // PE phase: outsourced-storage traffic.
        assert!(phases.pe.io_bytes > 0);
        assert!(phases.pe.aes_blocks > 0);
        // Log phase: proof checking.
        assert!(phases.log.sha_ops > 0);
        // Priced on a SoloKey, one responder's mean share of the work
        // lands in a plausible range.
        let secs = CostModel::paper_default().total_seconds(&phases.total())
            / outcome.responders.max(1) as f64;
        assert!(secs > 0.01 && secs < 30.0, "got {secs}");
    }
}
