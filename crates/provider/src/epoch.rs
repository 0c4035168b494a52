//! The Figure 5 epoch-update protocol and HSM catch-up: cutting and
//! certifying an epoch, the retained quorum certificates, and replaying
//! them to a restored device.

use safetypin_authlog::distributed::EpochUpdate;
use safetypin_multisig::{aggregate_signatures, Signature};
use safetypin_proto::{codes, HsmRequest, HsmResponse, ProtoError};
use safetypin_seckv::BlockStore;

use crate::{each_reply, Datacenter, EpochOutcome, ProviderError};

/// The quorum certificate retained for one entry of the update history:
/// who signed and the aggregate over `(d, d', R)`. Kept so a restored
/// (or replacement, §7.1) HSM can be caught up by *replaying* the
/// certified chain — the HSM verifies every aggregate itself, so
/// catch-up extends no trust beyond live participation.
#[derive(Debug, Clone)]
pub struct EpochCert {
    /// Fleet indices whose keys are aggregated.
    pub signers: Vec<u64>,
    /// The aggregate signature over the update's signing bytes.
    pub aggregate: Signature,
}

impl safetypin_primitives::wire::Encode for EpochCert {
    fn encode(&self, w: &mut safetypin_primitives::wire::Writer) {
        w.put_seq(&self.signers);
        self.aggregate.encode(w);
    }
}

impl safetypin_primitives::wire::Decode for EpochCert {
    fn decode(
        r: &mut safetypin_primitives::wire::Reader<'_>,
    ) -> Result<Self, safetypin_primitives::error::WireError> {
        Ok(Self {
            signers: r.get_seq()?,
            aggregate: Signature::decode(r)?,
        })
    }
}

impl<S: BlockStore + Send> Datacenter<S> {
    /// Runs the Figure 5 epoch-update protocol: cut, commit, audit
    /// (including B.3 re-audits for failed HSMs), aggregate, distribute.
    ///
    /// Both the audit fan-out and the certified-digest distribution are
    /// grouped transport rounds, one request per active HSM. An HSM whose
    /// audit reply is lost to a transport fault simply misses this
    /// epoch's signer set; the epoch still certifies if the quorum holds.
    ///
    /// Neither side advances first: the cut is only *planned* until the
    /// aggregate covers the quorum the devices enforce, so a failed
    /// certification leaves log and journal untouched and the next call
    /// retries the same pending entries. The certified epoch is then
    /// journaled **before** the first `AcceptUpdate` leaves, so a device
    /// never holds a digest the provider cannot replay to the others.
    pub fn run_epoch(&mut self) -> Result<EpochOutcome, ProviderError> {
        // Streaming certification: `Log::insert` recorded the digest
        // after every pending entry, so assembling the update replays no
        // insert steps — cutting an epoch is O(chunks), not
        // O(pending · path length).
        let (cut, chunk_digests) = self.log.plan_epoch(self.hsms.len());
        let update = EpochUpdate::from_certified(&cut, chunk_digests)
            .map_err(|_| ProviderError::EpochFailed("broken chain"))?;
        let message = update.message();

        let active_ids: Vec<u64> = self
            .hsms
            .iter()
            .filter(|h| h.status() != safetypin_hsm::HsmStatus::Failed)
            .map(|h| h.id())
            .collect();
        let failed_ids: Vec<u64> = self
            .hsms
            .iter()
            .filter(|h| h.status() == safetypin_hsm::HsmStatus::Failed)
            .map(|h| h.id())
            .collect();
        if active_ids.is_empty() {
            return Err(ProviderError::EpochFailed("no active HSMs"));
        }

        // Assemble each active HSM's audit packages — the set the device
        // itself will expect (`Hsm::audit_assignment`: B.3 assignment plus
        // re-audits, sized from the signed chunk count). A chunk's size is
        // taken once, however many devices audit it.
        let mut audit_groups = Vec::with_capacity(active_ids.len());
        let mut chunk_bytes = vec![None; message.chunk_count as usize];
        let (mut audit_packages, mut audit_bytes) = (0u64, 0u64);
        for hsm in self.hsms.iter().filter(|h| active_ids.contains(&h.id())) {
            let chunks = hsm.audit_assignment(&message, &active_ids, &failed_ids);
            let mut packages = Vec::with_capacity(chunks.len());
            for &c in &chunks {
                let package = update
                    .audit_package(c)
                    .map_err(|_| ProviderError::EpochFailed("audit chunk out of range"))?;
                let size = chunk_bytes
                    .get_mut(c as usize)
                    .ok_or(ProviderError::EpochFailed("audit chunk out of range"))?;
                audit_bytes += *size.get_or_insert_with(|| package.proof_bytes() as u64);
                packages.push(package);
            }
            audit_packages += packages.len() as u64;
            audit_groups.push((
                hsm.id(),
                vec![HsmRequest::AuditAndSign {
                    message,
                    active_ids: active_ids.clone(),
                    failed_ids: failed_ids.clone(),
                    packages,
                }],
            ));
        }

        let mut rng = rand::thread_rng();
        let mut sigs = Vec::new();
        let mut signers = Vec::new();
        let replies = self.fleet_round(&mut rng, audit_groups)?;
        for (id, resp) in each_reply(replies) {
            match resp {
                HsmResponse::Signed(sig) => {
                    sigs.push(sig);
                    signers.push(id as usize);
                }
                HsmResponse::Error(e) if e.is_transport_fault() => continue,
                // An HSM holding a stale digest (restored after
                // missing updates, or a lost Ack last epoch) cannot
                // sign this delta — but it must not veto the fleet.
                // Skip it; the quorum check below still gates
                // certification, and `resync_hsm` heals it.
                HsmResponse::Error(e) if e.code == codes::STALE_DIGEST => continue,
                HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                _ => {
                    return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                        "expected Signed reply to AuditAndSign",
                    )))
                }
            }
        }

        let aggregate = aggregate_signatures(&sigs)
            .ok_or(ProviderError::EpochFailed("no signatures to aggregate"))?;
        let need = self.hsms.iter().map(|h| h.min_signers()).max().unwrap_or(0);
        if signers.len() < need {
            return Err(ProviderError::Hsm(
                safetypin_hsm::HsmError::QuorumTooSmall {
                    got: signers.len(),
                    need,
                },
            ));
        }

        // Certified: commit the cut and journal it before any device
        // advances.
        let cert = EpochCert {
            signers: signers.iter().map(|&s| s as u64).collect(),
            aggregate,
        };
        self.journal_append(crate::persist::EPOCH, |w| {
            use safetypin_primitives::wire::Encode;
            message.encode(w);
            cert.encode(w);
        });
        self.journal_commit();
        let accept = HsmRequest::AcceptUpdate {
            message,
            signers: cert.signers.clone(),
            aggregate,
        };
        self.apply_epoch(message, cert);

        let accept_groups = active_ids.iter().map(|&id| (id, vec![accept.clone()]));
        let replies = self.fleet_round(&mut rng, accept_groups.collect())?;
        for (_, resp) in each_reply(replies) {
            match resp {
                HsmResponse::Ack => {}
                // A lost Ack (or a stale HSM that couldn't sign
                // this delta) means that HSM missed the certified
                // digest — it will answer StaleDigest until
                // [`resync_hsm`](Self::resync_hsm) replays the
                // chain to it. The epoch itself stands: it is in
                // the journal already.
                HsmResponse::Error(e) if e.is_transport_fault() => continue,
                HsmResponse::Error(e) if e.code == codes::STALE_DIGEST => continue,
                HsmResponse::Error(e) => return Err(ProviderError::Hsm((&e).into())),
                _ => {
                    return Err(ProviderError::Transport(ProtoError::UnexpectedMessage(
                        "expected Ack reply to AcceptUpdate",
                    )))
                }
            }
        }
        // What certifying this epoch cost the fleet, for the operator.
        let telemetry = safetypin_telemetry::global();
        telemetry
            .counter("epoch.chunks")
            .add(u64::from(message.chunk_count));
        telemetry
            .counter("epoch.audit_packages")
            .add(audit_packages);
        telemetry.counter("epoch.audit_bytes").add(audit_bytes);
        Ok(EpochOutcome {
            message,
            signers,
            aggregate,
            skipped: failed_ids,
            audit_bytes,
        })
    }

    /// Replays the certified update chain to HSM `id` until it holds
    /// the provider's certified digest, returning how many updates it
    /// accepted (committed to the device's store before returning).
    /// A restored HSM ([`restore_hsm`](Self::restore_hsm)) missed every
    /// epoch cut while it was failed; its held digest is stale and it
    /// would (correctly) refuse the next incremental update. Catch-up
    /// is pure replay: for each missed epoch the HSM re-verifies the
    /// retained quorum aggregate ([`EpochCert`]) before advancing, so a
    /// malicious provider can no more rewrite history here than it
    /// could live (§6.2/§7.1 trust model).
    ///
    /// Errors if the HSM's digest is not on the current log
    /// generation's chain (e.g. it missed a garbage collection) — that
    /// HSM needs re-provisioning, not replay.
    pub fn resync_hsm(&mut self, id: u64) -> Result<u64, ProviderError> {
        let held = self.hsm(id)?.log_digest();
        if held == self.log.certified_digest() {
            return Ok(0);
        }
        let Some(start) = self
            .update_history
            .iter()
            .skip(self.chain_start)
            .position(|u| u.old_digest == held)
        else {
            return Err(ProviderError::EpochFailed(
                "restored HSM's digest is not on the certified chain",
            ));
        };
        let device = id as usize;
        let (Some(hsm), Some(store)) = (self.hsms.get_mut(device), self.stores.get_mut(device))
        else {
            return Err(ProviderError::UnknownHsm(id));
        };
        let chain = self.update_history.iter().zip(&self.epoch_certs);
        let mut replayed = 0u64;
        for (message, cert) in chain.skip(self.chain_start + start) {
            let signers: Vec<usize> = cert.signers.iter().map(|&s| s as usize).collect();
            hsm.accept_update(message, &signers, &cert.aggregate)
                .map_err(ProviderError::Hsm)?;
            replayed += 1;
        }
        hsm.commit(store, &mut rand::thread_rng());
        Ok(replayed)
    }

    /// Restores a failed HSM and immediately resyncs it
    /// ([`resync_hsm`](Self::resync_hsm)) so it rejoins the fleet
    /// holding the current certified digest — the provider-side half of
    /// fail-stop self-healing. Returns the number of replayed updates.
    pub fn restore_hsm(&mut self, id: u64) -> Result<u64, ProviderError> {
        self.hsm_mut(id)?.restore();
        self.resync_hsm(id)
    }
}
