//! The injector plane: a [`Harness`] that owns a live [`Deployment`],
//! advances a deterministic step clock, and applies the scheduled
//! [`ChaosEvent`]s — seeded fault links on the fleet hop (a [`Faulty`]
//! transport) and the client hop (a [`FaultSource`] in front of the
//! provider endpoint), fail-stopping and restoring HSMs, rotating keys —
//! while keeping its own [`FaultLedger`] of everything it actually did.
//!
//! Two properties make scenarios replayable from one `u64` seed:
//!
//! 1. every random stream (provisioning, traffic, each fault link) is
//!    derived from the scenario seed via [`mix`], and
//! 2. faults are *counted at the point of injection* (the retired
//!    link's [`TransportStats`]), independently of the telemetry
//!    registry the same links report into — so the final audit can
//!    reconcile two genuinely separate accounts.

use std::sync::{Arc, Mutex, MutexGuard};

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::primitives::wire::{Decode, Encode};
use safetypin::{Deployment, DeploymentError, SystemParams};
use safetypin_client::remote::{ProviderEndpoint, RemoteError};
use safetypin_proto::{
    Direct, Envelope, Fate, FaultSource, Faulty, Message, ProtoError, ProviderRequest,
    ProviderResponse, TransportStats,
};
use safetypin_provider::ProviderError;
use safetypin_seckv::{BlockStore, MemStore, StoreStats};
use safetypin_telemetry::Registry;

use crate::ledger::{FaultLedger, InjectorLog};
use crate::plan::{mix, ChaosEvent, ChaosPlan};

/// Salt for the provisioning RNG stream (see [`mix`]).
const PROVISION_SALT: u64 = 0x70726f76; // "prov"
/// Salt for the fleet-serving traffic RNG stream.
const TRAFFIC_SALT: u64 = 0x74726166; // "traf"

/// Any failure a chaos scenario can surface.
#[derive(Debug)]
pub enum ChaosError {
    /// A deployment-level operation failed.
    Deployment(DeploymentError),
    /// A datacenter/provider operation failed.
    Provider(ProviderError),
    /// The injected transport failed a whole round.
    Transport(ProtoError),
    /// A remote client flow failed.
    Remote(RemoteError),
    /// Filesystem trouble (persist/reopen scenarios).
    Io(std::io::Error),
    /// An invariant audit failed outside the report machinery.
    Check(String),
}

impl core::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChaosError::Deployment(e) => write!(f, "deployment: {e}"),
            ChaosError::Provider(e) => write!(f, "provider: {e}"),
            ChaosError::Transport(e) => write!(f, "transport: {e}"),
            ChaosError::Remote(e) => write!(f, "remote: {e:?}"),
            ChaosError::Io(e) => write!(f, "io: {e}"),
            ChaosError::Check(msg) => write!(f, "check failed: {msg}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<DeploymentError> for ChaosError {
    fn from(e: DeploymentError) -> Self {
        ChaosError::Deployment(e)
    }
}

impl From<ProviderError> for ChaosError {
    fn from(e: ProviderError) -> Self {
        ChaosError::Provider(e)
    }
}

impl From<ProtoError> for ChaosError {
    fn from(e: ProtoError) -> Self {
        ChaosError::Transport(e)
    }
}

impl From<RemoteError> for ChaosError {
    fn from(e: RemoteError) -> Self {
        ChaosError::Remote(e)
    }
}

impl From<std::io::Error> for ChaosError {
    fn from(e: std::io::Error) -> Self {
        ChaosError::Io(e)
    }
}

/// A clonable in-memory [`BlockStore`]: every clone shares one
/// underlying [`MemStore`]. Lets a scenario hand a store to
/// [`Datacenter::attach_log_wal`] *and* keep a handle to the same
/// bytes, so a torn-commit run can be replayed into a second fleet.
///
/// [`Datacenter::attach_log_wal`]: safetypin_provider::Datacenter::attach_log_wal
#[derive(Clone, Default)]
pub struct SharedStore(Arc<Mutex<MemStore>>);

impl SharedStore {
    /// An empty shared store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, MemStore> {
        // A poisoned lock still guards a structurally sound MemStore —
        // crashes here are the *point* of the crate.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl BlockStore for SharedStore {
    fn put(&mut self, addr: u64, block: &[u8]) {
        self.lock().put(addr, block);
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.lock().get(addr)
    }

    fn remove(&mut self, addr: u64) {
        self.lock().remove(addr);
    }

    fn flush(&mut self) {
        self.lock().flush();
    }

    fn io_stats(&self) -> StoreStats {
        self.lock().io_stats()
    }
}

impl safetypin_store::SnapshotBlocks for SharedStore {
    fn checkpoint_into(
        &mut self,
        dir: &std::path::Path,
        opts: safetypin_store::FileOptions,
    ) -> Result<(), safetypin_store::StoreError> {
        self.lock().checkpoint_into(dir, opts)
    }
}

/// The client hop's fault link: a seeded [`FaultSource`] in front of a
/// [`ProviderEndpoint`]. In scope, a request draws a request-leg fate
/// (drop or delay) before the provider serves it, and the reply a
/// response-leg fate (drop, corrupt or delay). A corrupted reply is its
/// encoded envelope with one bit flipped, decoded again: if it no
/// longer decodes as a provider response, the call fails with
/// [`ProtoError::Corrupted`].
struct FaultyHop(FaultSource);

impl FaultyHop {
    fn call(
        &mut self,
        provider: &mut impl ProviderEndpoint,
        request: ProviderRequest,
    ) -> Result<ProviderResponse, ProtoError> {
        let recovery = matches!(
            request,
            ProviderRequest::Recover(_) | ProviderRequest::RecoverBatch(_)
        );
        if self.0.request_fate(recovery) == Fate::Drop {
            return Err(ProtoError::Dropped);
        }
        let response = provider.call(request)?;
        match self.0.response_fate(recovery) {
            Fate::Deliver | Fate::Delay => Ok(response),
            Fate::Drop => Err(ProtoError::Dropped),
            Fate::Corrupt => {
                let mut bytes = Envelope::seal(Message::ProviderResponse(response)).to_bytes();
                self.0.flip_bit(&mut bytes);
                match Envelope::from_bytes(&bytes).map(|env| env.msg) {
                    Ok(Message::ProviderResponse(response)) => Ok(response),
                    _ => Err(ProtoError::Corrupted),
                }
            }
        }
    }
}

/// The scenario harness: one deployment, one step clock, one plan.
///
/// Traffic goes through [`call`](Self::call) (or the closure from
/// [`endpoint`](Self::endpoint), which plugs straight into the remote
/// client flows and [`Retrying`]); between traffic, the scenario calls
/// [`tick`](Self::tick) to advance the clock and fire the scheduled
/// injections. When the storm is over, [`settle`](Self::settle) retires
/// any still-installed fault links and returns the injector's ledger
/// for the audit.
///
/// [`Retrying`]: safetypin_client::retry::Retrying
pub struct Harness<S: BlockStore + Send = MemStore> {
    /// The deployment under fire. Public so scenarios can reach the
    /// datacenter for ground-truth audits (log entries, puncture
    /// counts) — the chaos harness deliberately has no privileged API
    /// of its own.
    pub deployment: Deployment<S>,
    rng: StdRng,
    plan: ChaosPlan,
    step: u64,
    registry: Registry,
    client_link: Option<FaultyHop>,
    client_delay_secs: f64,
    fleet_faulty: bool,
    fleet_delay_secs: f64,
    ledger: FaultLedger,
    log: InjectorLog,
}

impl Harness<MemStore> {
    /// Provisions a fresh in-memory fleet and arms `plan`. The
    /// provisioning and traffic RNG streams are both derived from
    /// `seed`, so two harnesses built from the same `(params, plan,
    /// seed)` are byte-identical.
    pub fn provision(params: SystemParams, plan: ChaosPlan, seed: u64) -> Result<Self, ChaosError> {
        let mut provision_rng = StdRng::seed_from_u64(mix(seed, PROVISION_SALT));
        let deployment = Deployment::provision(params, &mut provision_rng)?;
        Ok(Self::from_deployment(deployment, plan, seed))
    }
}

impl<S: BlockStore + Send> Harness<S> {
    /// Arms `plan` over an existing deployment (e.g. one reopened from
    /// a store directory for crash/restart scenarios).
    pub fn from_deployment(deployment: Deployment<S>, plan: ChaosPlan, seed: u64) -> Self {
        Self {
            deployment,
            rng: StdRng::seed_from_u64(mix(seed, TRAFFIC_SALT)),
            plan,
            step: 0,
            registry: Registry::new(),
            client_link: None,
            client_delay_secs: 0.0,
            fleet_faulty: false,
            fleet_delay_secs: 0.0,
            ledger: FaultLedger::default(),
            log: InjectorLog::default(),
        }
    }

    /// The private telemetry registry every injected fault link reports
    /// into (kept off the process-wide registry so concurrent scenarios
    /// never share a ledger).
    pub fn telemetry(&self) -> &Registry {
        &self.registry
    }

    /// The current step of the chaos clock.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The traffic RNG (save/recover flows need a `CryptoRng`); one
    /// stream derived from the scenario seed.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Advances the step clock by one and applies every event the plan
    /// scheduled for the new step, in insertion order.
    pub fn tick(&mut self) -> Result<(), ChaosError> {
        self.step += 1;
        let events: Vec<ChaosEvent> = self.plan.events_at(self.step).copied().collect();
        for event in events {
            self.apply(event)?;
        }
        Ok(())
    }

    /// Ticks until every scheduled event has fired.
    pub fn drain_plan(&mut self) -> Result<(), ChaosError> {
        while self.step < self.plan.last_step() {
            self.tick()?;
        }
        Ok(())
    }

    /// Applies one chaos event immediately (the plan path goes through
    /// here too, so scripted and ad-hoc injections are accounted the
    /// same way).
    pub fn apply(&mut self, event: ChaosEvent) -> Result<(), ChaosError> {
        match event {
            ChaosEvent::SetFleetFaults { plan, seed } => {
                self.retire_fleet_link();
                let link =
                    Faulty::new(Box::new(Direct::new()), plan, seed).with_registry(&self.registry);
                self.deployment.datacenter.set_transport(Box::new(link));
                self.fleet_faulty = true;
                self.fleet_delay_secs = plan.delay_seconds;
            }
            ChaosEvent::ClearFleetFaults => {
                self.retire_fleet_link();
                self.deployment
                    .datacenter
                    .set_transport(Box::new(Direct::new()));
                self.fleet_faulty = false;
            }
            ChaosEvent::SetClientFaults { plan, seed } => {
                self.retire_client_link();
                let link = FaultSource::new(plan, seed, &self.registry);
                self.client_link = Some(FaultyHop(link));
                self.client_delay_secs = plan.delay_seconds;
            }
            ChaosEvent::ClearClientFaults => {
                self.retire_client_link();
            }
            ChaosEvent::KillHsm(id) => {
                self.deployment.datacenter.hsm_mut(id)?.fail();
                self.log.kills += 1;
            }
            ChaosEvent::RestoreHsm(id) => {
                // Restore + resync: the HSM replays (and re-verifies) the
                // quorum-certified updates it missed while failed, so it
                // rejoins with a current log digest instead of vetoing —
                // or being skipped by — every subsequent epoch.
                self.deployment.datacenter.restore_hsm(id)?;
                self.log.restores += 1;
            }
            ChaosEvent::RotateHsm(id) => {
                self.deployment.datacenter.rotate_hsm(id, &mut self.rng)?;
                self.log.rotations += 1;
            }
        }
        Ok(())
    }

    /// Sends one provider request through whatever the injector has
    /// installed: the faulty client hop when one is armed, the clean
    /// path otherwise. Either way the fleet hop inside the datacenter
    /// keeps its own (possibly faulty) transport.
    pub fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        let Self {
            deployment,
            rng,
            client_link,
            ..
        } = self;
        let mut provider =
            |request: ProviderRequest| Ok::<_, ProtoError>(deployment.handle(request, rng));
        match client_link {
            Some(link) => link.call(&mut provider, request),
            None => provider(request),
        }
    }

    /// A [`ProviderEndpoint`] view of the harness, for the remote
    /// client flows (`connect`/`save`/`recover`) and the [`Retrying`]
    /// wrapper. Borrows the harness mutably for the closure's lifetime;
    /// drop it to tick the clock.
    ///
    /// [`ProviderEndpoint`]: safetypin_client::remote::ProviderEndpoint
    /// [`Retrying`]: safetypin_client::retry::Retrying
    pub fn endpoint(
        &mut self,
    ) -> impl FnMut(ProviderRequest) -> Result<ProviderResponse, ProtoError> + '_ {
        move |request| self.call(request)
    }

    /// Notes one persist-and-reopen cycle in the injector log (the
    /// scenario does the actual persist/reopen, since that consumes the
    /// deployment).
    pub fn note_restart(&mut self) {
        self.log.restarts += 1;
    }

    /// Retires any still-installed fault links into the ledger and
    /// returns the injector's complete account: transport faults
    /// actually fired plus structural injections.
    pub fn settle(&mut self) -> (FaultLedger, InjectorLog) {
        self.retire_fleet_link();
        if self.fleet_faulty {
            // retire_fleet_link drained the stats; swap the clean
            // transport back in so post-settle traffic runs unharmed.
            self.deployment
                .datacenter
                .set_transport(Box::new(Direct::new()));
            self.fleet_faulty = false;
        }
        self.retire_client_link();
        (self.ledger, self.log)
    }

    /// The telemetry side of the reconciliation: the injected-fault
    /// counters from this harness's private registry, shaped as a
    /// [`FaultLedger`] for direct comparison with [`settle`]'s.
    ///
    /// [`settle`]: Self::settle
    pub fn injected_counters(&self) -> FaultLedger {
        let snap = self.registry.snapshot();
        FaultLedger {
            dropped: snap.counter("faults.injected_drop").unwrap_or(0),
            corrupted: snap.counter("faults.injected_corrupt").unwrap_or(0),
            delayed: snap.counter("faults.injected_delay").unwrap_or(0),
        }
    }

    /// Folds a drained [`TransportStats`] into the ledger. Delay counts
    /// are recovered from the accumulated simulated seconds; the fleet
    /// link's inner transport is always `Direct` and the client link has
    /// none, so no time but the delays is charged and the division is
    /// exact.
    fn absorb_stats(&mut self, stats: TransportStats, delay_secs: f64) {
        self.ledger.dropped += stats.dropped;
        self.ledger.corrupted += stats.corrupted;
        if delay_secs > 0.0 {
            self.ledger.delayed += (stats.seconds / delay_secs).round() as u64;
        }
    }

    fn retire_fleet_link(&mut self) {
        if self.fleet_faulty {
            let stats = self.deployment.datacenter.take_transport_stats();
            let delay = self.fleet_delay_secs;
            self.absorb_stats(stats, delay);
        }
    }

    fn retire_client_link(&mut self) {
        if let Some(mut link) = self.client_link.take() {
            let stats = link.0.take_tally();
            let delay = self.client_delay_secs;
            self.absorb_stats(stats, delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetypin_proto::FaultPlan;

    fn params() -> SystemParams {
        SystemParams::test_small(8)
    }

    #[test]
    fn provisioning_is_deterministic_per_seed() {
        let mut a = Harness::provision(params(), ChaosPlan::new(), 7).unwrap();
        let mut b = Harness::provision(params(), ChaosPlan::new(), 7).unwrap();
        assert_eq!(
            a.deployment.datacenter.log_digest(),
            b.deployment.datacenter.log_digest()
        );
        let user = b"alice";
        let art_a = a
            .deployment
            .save(user, b"1234", b"secret", &mut a.rng)
            .unwrap();
        let art_b = b
            .deployment
            .save(user, b"1234", b"secret", &mut b.rng)
            .unwrap();
        assert_eq!(
            safetypin_client::remote::encode_artifact(&art_a),
            safetypin_client::remote::encode_artifact(&art_b)
        );
    }

    #[test]
    fn ledger_matches_private_telemetry_after_settle() {
        let plan = ChaosPlan::new()
            .at(
                1,
                ChaosEvent::SetClientFaults {
                    plan: FaultPlan::drop(0.5).with_corrupt(0.2),
                    seed: 99,
                },
            )
            .at(3, ChaosEvent::ClearClientFaults);
        let mut h = Harness::provision(params(), plan, 11).unwrap();
        h.tick().unwrap();
        let mut faults = 0u64;
        for _ in 0..64 {
            if h.call(ProviderRequest::Status).is_err() {
                faults += 1;
            }
        }
        assert!(faults > 0, "a 50% drop plan fired no faults in 64 calls");
        h.tick().unwrap();
        h.tick().unwrap();
        let (ledger, _) = h.settle();
        assert_eq!(ledger, h.injected_counters());
        assert!(ledger.total() >= faults);
    }

    /// A recovery-only client hop spares the rest of the provider API:
    /// every status and backup fetch is answered, every recovery wave
    /// is lost before the provider logs its attempt, and the ledger
    /// still reconciles with the telemetry.
    #[test]
    fn recovery_only_client_faults_drop_recovery_and_nothing_else() {
        use safetypin_client::remote;
        let plan = ChaosPlan::new().at(
            1,
            ChaosEvent::SetClientFaults {
                plan: FaultPlan::drop(1.0).recovery_only(),
                seed: 3,
            },
        );
        let mut h = Harness::provision(params(), plan, 13).unwrap();
        h.tick().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut client = h.deployment.new_client(b"carol").unwrap();
        let artifact =
            remote::save(&mut h.endpoint(), &mut client, b"2468", b"secret", &mut rng).unwrap();
        for _ in 0..8 {
            let status = h.call(ProviderRequest::Status);
            assert!(
                matches!(status, Ok(ProviderResponse::Status(_))),
                "{status:?}"
            );
            let fetched = remote::fetch_backup(&mut h.endpoint(), b"carol").unwrap();
            assert_eq!(
                remote::encode_artifact(&fetched),
                remote::encode_artifact(&artifact)
            );
        }
        let entries = h.deployment.datacenter.log_entries().len();
        for _ in 0..8 {
            let outcome = remote::recover(&mut h.endpoint(), &client, b"2468", &artifact, &mut rng);
            assert!(
                matches!(outcome, Err(RemoteError::Transport(ProtoError::Dropped))),
                "{outcome:?}"
            );
        }
        assert_eq!(
            h.deployment.datacenter.log_entries().len(),
            entries,
            "a dropped recovery reached the provider"
        );
        let (ledger, _) = h.settle();
        assert_eq!(
            ledger,
            FaultLedger {
                dropped: 8,
                corrupted: 0,
                delayed: 0
            }
        );
        assert_eq!(ledger, h.injected_counters());
    }

    #[test]
    fn structural_events_land_in_the_log() {
        let plan = ChaosPlan::new()
            .at(1, ChaosEvent::KillHsm(2))
            .at(2, ChaosEvent::RestoreHsm(2))
            .at(3, ChaosEvent::RotateHsm(1));
        let mut h = Harness::provision(params(), plan, 5).unwrap();
        h.drain_plan().unwrap();
        h.note_restart();
        let (_, log) = h.settle();
        assert_eq!(
            log,
            InjectorLog {
                kills: 1,
                restores: 1,
                rotations: 1,
                restarts: 1,
            }
        );
        assert_eq!(h.deployment.datacenter.hsm(1).unwrap().key_epoch(), 1);
    }
}
