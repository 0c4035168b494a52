//! The fleet: provisioning, the published keys, rotation, the GC round
//! and per-device access.

use rand::{CryptoRng, RngCore};
use safetypin_authlog::log::Log;
use safetypin_hsm::{EnrollmentRecord, Hsm, HsmConfig, PhaseCosts};
use safetypin_proto::{Direct, HsmRequest, HsmResponse, ProtoError};
use safetypin_seckv::{BlockStore, MemStore};

use crate::{each_reply, fanout, Datacenter, ProviderError};

impl Datacenter<MemStore> {
    /// Provisions a fleet of `total` HSMs and registers the fleet keys on
    /// every device (each HSM verifies every proof of possession itself).
    /// The per-HSM key generation and registration fan out across the
    /// available cores; the fleet is a deterministic function of `rng`
    /// regardless (each HSM runs under its own sequentially-derived
    /// seed). Messages flow over the zero-copy [`Direct`] transport; use
    /// [`set_transport`](Self::set_transport) for other backends.
    pub fn provision<R: RngCore + CryptoRng>(
        total: u64,
        config_for: impl Fn(u64) -> HsmConfig,
        rng: &mut R,
    ) -> Result<Self, ProviderError> {
        let configs: Vec<HsmConfig> = (0..total).map(config_for).collect();
        let mut fleet = fanout::provision_fleet(configs, usize::MAX, rng)?;
        let keys: Vec<_> = fleet
            .iter()
            .map(|(h, _)| {
                let e = h.enrollment();
                (e.sig_vk, e.sig_pop)
            })
            .collect();
        fanout::register_fleet_parallel(&mut fleet, &keys)?;
        let (hsms, stores) = fleet.into_iter().unzip();
        Ok(Self::assemble(hsms, stores))
    }
}

impl<S: BlockStore + Send> Datacenter<S> {
    /// A datacenter over `hsms` and their `stores` with empty provider
    /// state, an empty in-memory journal and the zero-copy [`Direct`]
    /// transport.
    pub(crate) fn assemble(hsms: Vec<Hsm>, stores: Vec<S>) -> Self {
        Self {
            hsms,
            stores,
            log: Log::new(),
            archived_logs: Vec::new(),
            update_history: Vec::new(),
            epoch_certs: Vec::new(),
            chain_start: 0,
            reply_copies: Vec::new(),
            backups: Default::default(),
            transport: Box::new(Direct::new()),
            journal: Box::new(MemStore::new()),
            journal_len: 0,
        }
    }

    /// Number of HSMs in the fleet.
    pub fn fleet_size(&self) -> usize {
        self.hsms.len()
    }

    /// The published enrollment records — what a client downloads as the
    /// "master public key" `mpk` (§3), and the only read of the fleet's
    /// public keys. Reads live device state (so rotated keys are already
    /// reflected) and moves no HSM message: publishing keys costs the
    /// fleet nothing, which is what lets a backup touch no HSM.
    pub fn enrollments(&self) -> Vec<EnrollmentRecord> {
        self.hsms.iter().map(|h| h.enrollment()).collect()
    }

    /// Read access to one HSM (experiments).
    pub fn hsm(&self, id: u64) -> Result<&Hsm, ProviderError> {
        self.hsms
            .get(id as usize)
            .ok_or(ProviderError::UnknownHsm(id))
    }

    /// Mutable access to one HSM (failure/compromise injection).
    pub fn hsm_mut(&mut self, id: u64) -> Result<&mut Hsm, ProviderError> {
        self.hsms
            .get_mut(id as usize)
            .ok_or(ProviderError::UnknownHsm(id))
    }

    /// Rotates one HSM's BFE keys over the transport (provider schedules
    /// rotations as keys fill up; §9.1).
    pub fn rotate_hsm<R: RngCore + CryptoRng>(
        &mut self,
        hsm_id: u64,
        rng: &mut R,
    ) -> Result<(), ProviderError> {
        if hsm_id as usize >= self.hsms.len() {
            return Err(ProviderError::UnknownHsm(hsm_id));
        }
        let replies = self.fleet_round(rng, vec![(hsm_id, vec![HsmRequest::RotateKeys])])?;
        match each_reply(replies).next() {
            Some((_, HsmResponse::Rotated(_))) => Ok(()),
            Some((_, HsmResponse::Error(e))) => Err(ProviderError::Hsm((&e).into())),
            _ => Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                "expected Rotated reply",
            ))),
        }
    }

    /// Garbage-collects the log: asks every live HSM (one grouped round,
    /// one request per device) to follow — each enforces its own GC budget — then archives the
    /// entries, resets the log and journals the collection. A kill in
    /// between leaves the devices on the empty digest, one collection
    /// into their budget, and the log uncollected; restoring replays
    /// the chain back to them.
    pub fn garbage_collect(&mut self) -> Result<(), ProviderError> {
        let groups: Vec<_> = self
            .hsms
            .iter()
            .filter(|h| h.status() != safetypin_hsm::HsmStatus::Failed)
            .map(|h| (h.id(), vec![HsmRequest::GarbageCollect]))
            .collect();
        let replies = self.fleet_round(&mut rand::thread_rng(), groups)?;
        for (_, resp) in each_reply(replies) {
            match resp {
                HsmResponse::Ack => {}
                // A lost Ack: that HSM keeps the old digest and its
                // GC budget untouched; the collection proceeds.
                HsmResponse::Error(e) if e.is_transport_fault() => continue,
                HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                _ => {
                    return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                        "expected Ack reply to GarbageCollect",
                    )))
                }
            }
        }
        self.journal_append(crate::persist::GC, |_| {});
        self.journal_commit();
        self.apply_gc();
        Ok(())
    }

    /// Sum of all HSMs' metered recovery work since the last drain.
    pub fn drain_fleet_costs(&mut self) -> PhaseCosts {
        let mut total = PhaseCosts::default();
        for hsm in self.hsms.iter_mut() {
            total.add(&hsm.take_costs());
        }
        total
    }

    /// Sum of the fleet's outsourced-store I/O statistics (reads,
    /// writes, cache hits/misses — nonzero only on instrumented
    /// backends like `MemStore` and `FileStore`).
    pub fn fleet_store_stats(&self) -> safetypin_seckv::StoreStats {
        let mut total = safetypin_seckv::StoreStats::default();
        for store in &self.stores {
            total.add(&store.io_stats());
        }
        total
    }

    /// Which HSMs currently need key rotation.
    pub fn rotation_queue(&self) -> Vec<u64> {
        self.hsms
            .iter()
            .filter(|h| h.needs_rotation())
            .map(|h| h.id())
            .collect()
    }
}
