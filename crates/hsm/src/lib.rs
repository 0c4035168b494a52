//! The HSM substrate: state machine, protocol checks, resource metering,
//! and failure injection.
//!
//! Substitutes for the paper's SoloKey firmware (~2,500 LoC of C on a
//! Cortex-M4). The state machine is identical — each HSM holds an identity
//! keypair, a BLS signing key for log updates, a Bloom-filter-encryption
//! keypair whose secret array is outsourced with secure deletion, the
//! current log digest, and a bounded garbage-collection counter — and every
//! operation executes the *real* cryptography. A [`PhaseCosts`] meter
//! counts the resource-relevant operations of the recovery work the device
//! serves, split into Figure 10's phases, so the simulation layer can price
//! them at SoloKey (or YubiHSM2 / SafeNet) rates. The meter stays on the
//! device: a share reply carries shares and nothing else.
//!
//! The recovery-share operation implements the §4.2 check list verbatim:
//! recompute the client's commitment, check the log-inclusion proof against
//! the HSM's own digest, confirm this HSM is in the committed cluster,
//! confirm the committed hash matches the presented recovery ciphertext,
//! decrypt the share, verify the username inside the plaintext, and
//! puncture before replying.
//!
//! There is one serving path: [`Hsm::handle_batch`] serves a coalesced
//! request group under one slot audit and one durability barrier, and a
//! solo request ([`Hsm::handle`]) is a group of one.

// Serve-path panic discipline ([workspace.lints.clippy] plus the
// `assert!` ban in this crate's clippy.toml): no unwrap, expect, raw
// indexing or panicking macro in library code; tests allow them.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::disallowed_macros,
        reason = "test code fails by panicking"
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod state;
pub mod types;

pub use error::HsmError;
pub use types::{EnrollmentRecord, RecoveryRequest, RecoveryResponse};

use rand::{CryptoRng, RngCore};
use safetypin_authlog::distributed::{
    audit_chunks_for, reaudit_chunks_for, verify_chunk, AuditError, ChunkAudit, UpdateMessage,
};
use safetypin_authlog::trie::MerkleTrie;
use safetypin_bfe::{BfeParams, BfePublicKey, BfeSecretKey, KeygenReport, OpReport};
use safetypin_lhe::scheme::{parse_share_plaintext, share_context};
use safetypin_multisig as multisig;
use safetypin_primitives::commit;
use safetypin_primitives::elgamal;
use safetypin_primitives::hashes::{hash_parts, Domain, Hash256};
use safetypin_primitives::shamir::Share;
use safetypin_primitives::wire::Encode;
use safetypin_seckv::{BlockStore, Descent};
use safetypin_sim::OpCosts;
use safetypin_store::DeviceKey;

/// Per-HSM configuration.
#[derive(Debug, Clone, Copy)]
pub struct HsmConfig {
    /// This HSM's index in the datacenter (`i ∈ [N]`).
    pub id: u64,
    /// Bloom-filter-encryption parameters.
    pub bfe_params: BfeParams,
    /// Chunk draws per epoch at the paper's layout of one chunk per HSM
    /// (`C = λ`, §6.2); scaled to the signed chunk count by
    /// [`audit_draws`](safetypin_authlog::distributed::audit_draws).
    pub audits_per_epoch: u32,
    /// Maximum garbage collections before the HSM refuses (§6.2 bounds the
    /// provider's ability to reset PIN-attempt state).
    pub max_gc: u64,
    /// Minimum signers an aggregate signature must cover
    /// (`N − ⌊f_live·N⌋`).
    pub min_signers: usize,
}

/// Liveness / compromise status, for failure injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsmStatus {
    /// Operating normally.
    Active,
    /// Fail-stopped (benign hardware failure).
    Failed,
    /// Physically compromised; an attacker holds its secrets. The device
    /// keeps operating (the attacker does not want to be noticed).
    Compromised,
}

/// Everything an attacker learns by tearing down an HSM (used by the
/// security experiments).
pub struct ExfiltratedState {
    /// Identity decryption key.
    pub identity_sk: elgamal::SecretKey,
    /// BLS signing key.
    pub sig_sk: multisig::SigningKey,
    /// Root key of the outsourced BFE secret array.
    pub bfe_root_key: [u8; 16],
    /// Current log digest the HSM trusts.
    pub log_digest: Hash256,
}

/// One request's decrypted share plaintexts with their slot traces,
/// accumulated while a serving segment resolves its batched decrypts.
type SlotOutcomes = Vec<(Vec<u8>, (u64, p256::Scalar))>;

/// The recovery work an HSM has served, split into Figure 10's phases
/// (§9). Totals for whole coalesced groups: a group's shared decrypt and
/// puncture passes are metered once, never attributed to its members.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCosts {
    /// Log work: inclusion-proof and commitment checks plus request and
    /// reply I/O.
    pub log: OpCosts,
    /// Location-hiding encryption work: the ElGamal share decryptions.
    pub lhe: OpCosts,
    /// Puncturable-encryption work: outsourced-storage reads, secure
    /// deletion, and the associated AES traffic.
    pub pe: OpCosts,
    /// Public-key work for the optional encrypted reply (§8).
    pub pke: OpCosts,
}

impl PhaseCosts {
    /// Sum over all phases.
    pub fn total(&self) -> OpCosts {
        let mut t = OpCosts::new();
        for phase in [&self.log, &self.lhe, &self.pe, &self.pke] {
            t.add(phase);
        }
        t
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &PhaseCosts) {
        self.log.add(&other.log);
        self.lhe.add(&other.lhe);
        self.pe.add(&other.pe);
        self.pke.add(&other.pke);
    }

    /// Meters one pass over the outsourced store (a batched decrypt or
    /// puncture) as puncturable-encryption work: its AEAD bytes in AES
    /// blocks, 96 bytes of I/O per block moved, one message per item.
    fn add_store_pass(&mut self, report: &OpReport, messages: u64) {
        self.pe.aes_blocks += report.aead_bytes.div_ceil(16);
        self.pe.io_bytes += (report.blocks_read + report.blocks_written) * 96;
        self.pe.io_messages += messages;
    }
}

/// A recovery that has cleared the §4.2 validation (steps 1–5) but not
/// yet touched the outsourced store: what remains is the share
/// decryptions and the puncture obligation.
struct CheckedRecovery {
    tag: Vec<u8>,
    context: Vec<u8>,
    username: Vec<u8>,
    /// The share ciphertexts this HSM must decrypt, in requested order.
    share_cts: Vec<safetypin_bfe::BfeCiphertext>,
    recovery_pk: Option<elgamal::PublicKey>,
}

/// A recovery that has passed every §4.2 check and decrypted its shares
/// but **not yet punctured**: the puncture is an obligation its segment
/// discharges (coalesced across the segment's users) before any
/// response bytes are built.
struct PreparedRecovery {
    shares: Vec<Share>,
    /// The tag whose slots the obligated puncture must delete.
    tag: Vec<u8>,
    context: Vec<u8>,
    /// `(slot index, slot scalar)` of every share decryption, for the
    /// batched MSM audit against the published public key.
    trace: Vec<(u64, p256::Scalar)>,
    recovery_pk: Option<elgamal::PublicKey>,
}

/// The reply for a request the group scheduler never answered.
fn no_reply() -> safetypin_proto::HsmResponse {
    safetypin_proto::HsmResponse::Error(safetypin_proto::ErrorReply::new(
        safetypin_proto::codes::INTERNAL,
        "batch scheduler produced no reply for this request",
    ))
}

/// Files `reply` as the answer to request `pos` of a group; a position
/// outside the group is left to [`no_reply`].
fn answer(
    responses: &mut [Option<safetypin_proto::HsmResponse>],
    pos: usize,
    reply: safetypin_proto::HsmResponse,
) {
    if let Some(slot) = responses.get_mut(pos) {
        *slot = Some(reply);
    }
}

/// One hardware security module.
pub struct Hsm {
    config: HsmConfig,
    identity: elgamal::KeyPair,
    sig_key: multisig::SigningKey,
    bfe_pk: BfePublicKey,
    bfe_sk: BfeSecretKey,
    log_digest: Hash256,
    fleet_keys: Vec<multisig::VerifyKey>,
    gc_count: u64,
    key_epoch: u64,
    status: HsmStatus,
    costs: PhaseCosts,
    /// Seals this device's state blocks (models the on-chip storage key).
    device_key: DeviceKey,
    /// Which parts of the trusted state the next [`commit`](Self::commit)
    /// must write (see [`state`]).
    static_dirty: bool,
    dynamic_dirty: bool,
}

impl Hsm {
    /// Provisions a new HSM, generating all keys. The BFE secret array
    /// and the device's own state blocks ([`state`]) are written into
    /// `store` (the provider's storage) and committed.
    pub fn provision<S: BlockStore, R: RngCore + CryptoRng>(
        config: HsmConfig,
        store: &mut S,
        rng: &mut R,
    ) -> Result<Self, HsmError> {
        let identity = elgamal::KeyPair::generate(rng);
        let sig_key = multisig::SigningKey::generate(rng);
        let (bfe_pk, bfe_sk, _) =
            safetypin_bfe::keygen(config.bfe_params, store, rng).map_err(HsmError::Crypto)?;
        let mut hsm = Self {
            config,
            identity,
            sig_key,
            bfe_pk,
            bfe_sk,
            log_digest: MerkleTrie::empty_digest(),
            fleet_keys: Vec::new(),
            gc_count: 0,
            key_epoch: 0,
            status: HsmStatus::Active,
            costs: PhaseCosts::default(),
            device_key: DeviceKey::random(rng),
            static_dirty: true,
            dynamic_dirty: true,
        };
        hsm.commit(store, rng);
        Ok(hsm)
    }

    /// This HSM's datacenter index.
    pub fn id(&self) -> u64 {
        self.config.id
    }

    /// Current status.
    pub fn status(&self) -> HsmStatus {
        self.status
    }

    /// Current BFE key-rotation epoch.
    pub fn key_epoch(&self) -> u64 {
        self.key_epoch
    }

    /// Signers an aggregate must cover before this HSM accepts it.
    pub fn min_signers(&self) -> usize {
        self.config.min_signers
    }

    /// The log digest this HSM currently trusts.
    pub fn log_digest(&self) -> Hash256 {
        self.log_digest
    }

    /// Punctures performed with the current BFE key.
    pub fn punctures(&self) -> u64 {
        self.bfe_sk.punctures()
    }

    /// Whether the BFE key has hit the rotation threshold.
    pub fn needs_rotation(&self) -> bool {
        self.bfe_sk.needs_rotation()
    }

    /// The single message-dispatch entry point: every operation the
    /// datacenter can ask of an HSM arrives as a
    /// [`HsmRequest`](safetypin_proto::HsmRequest) and leaves as a
    /// [`HsmResponse`](safetypin_proto::HsmResponse) — this is the
    /// function a transport's serve side calls, and the only surface a
    /// remote backend would need to expose.
    ///
    /// A solo request is a group of one: this is
    /// [`handle_batch`](Self::handle_batch) over a single-element group,
    /// so it passes the same checks, the same slot audit and the same
    /// durability barrier as every member of a coalesced group.
    ///
    /// Refusals never escape as `Err`: they are encoded as
    /// [`HsmResponse::Error`](safetypin_proto::HsmResponse::Error)
    /// replies so they survive serialization.
    pub fn handle<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        request: safetypin_proto::HsmRequest,
        store: &mut S,
        rng: &mut R,
    ) -> safetypin_proto::HsmResponse {
        self.handle_batch(vec![request], store, rng)
            .pop()
            .unwrap_or_else(no_reply)
    }

    /// Serves a whole coalesced request group — typically **many users'**
    /// recoveries bound for this device in one multi-client round — under
    /// a **single group-commit durability barrier**.
    ///
    /// The entire group is served and the block store flushed once:
    /// every puncture (or rotation) the group performed commits
    /// together, *before* any response is returned, so on a persistent
    /// backend a crash can never hand out a share whose revocation
    /// evaporates.
    ///
    /// Cross-request coalescing inside the group:
    ///
    /// * **Punctures** for distinct tags are deferred and applied as one
    ///   [`BfeSecretKey::puncture_opened`] pass (the union of all tags'
    ///   Bloom slots shares root-to-leaf path prefixes, opened once for
    ///   the decrypts and the puncture together). A request whose
    ///   tag's Bloom slots are **entirely covered** by the pending tags'
    ///   slots (a repeated tag is the common case; full cross-tag
    ///   coverage is the rare one), or any non-recovery request, is a
    ///   barrier: pending punctures land first, so outcomes are
    ///   identical to serving the group one request at a time. Partial
    ///   slot overlap needs no barrier — any surviving slot decrypts the
    ///   same plaintext, so the released bytes cannot differ.
    /// * **Slot-scalar auditing** runs once per group: every share
    ///   decryption's `(slot, scalar)` trace is batch-verified against
    ///   the published BFE public key in a single multi-scalar
    ///   multiplication ([`BfePublicKey::audit_slot_scalars`]) instead of
    ///   one naive fixed-base check per share. No share — solo or
    ///   grouped — leaves the device without passing it.
    ///
    /// Responses come back in request order, one per request, with
    /// refusals encoded as [`HsmResponse::Error`] items.
    ///
    /// [`HsmResponse::Error`]: safetypin_proto::HsmResponse::Error
    pub fn handle_batch<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        requests: Vec<safetypin_proto::HsmRequest>,
        store: &mut S,
        rng: &mut R,
    ) -> Vec<safetypin_proto::HsmResponse> {
        use safetypin_proto::{HsmRequest, HsmResponse};
        let n = requests.len();
        let mut responses: Vec<Option<HsmResponse>> = Vec::with_capacity(n);
        responses.resize_with(n, || None);
        let mut segment: Vec<(usize, RecoveryRequest)> = Vec::new();
        // Union of the pending tags' Bloom slots: O(1) membership makes
        // the barrier check O(k) per request, not O(segment²).
        let mut segment_slots: std::collections::HashSet<u64> = std::collections::HashSet::new();
        let mut recoveries = false;

        for (pos, request) in requests.into_iter().enumerate() {
            match request {
                HsmRequest::RecoverShare(req) => {
                    recoveries = true;
                    let tag = types::puncture_tag(&req.username, &req.salt);
                    let slots = self.config.bfe_params.indices_for_tag(&tag);
                    if !segment.is_empty() && slots.iter().all(|s| segment_slots.contains(s)) {
                        // Serial semantics: if EVERY slot this tag could
                        // decrypt through will be punctured by pending
                        // requests (a repeated tag, or full cross-tag
                        // Bloom coverage), this request must observe
                        // those punctures — flush them first. Partial
                        // overlap is fine: a surviving slot yields the
                        // same plaintext either way.
                        self.serve_recovery_segment(&mut segment, &mut responses, store, rng);
                        segment_slots.clear();
                    }
                    segment_slots.extend(slots);
                    segment.push((pos, req));
                }
                other => {
                    // Barrier: a rotation (or any other mutation) must not
                    // overtake punctures that logically precede it.
                    self.serve_recovery_segment(&mut segment, &mut responses, store, rng);
                    segment_slots.clear();
                    let reply = self.handle_inner(other, store, rng);
                    answer(&mut responses, pos, reply);
                }
            }
        }
        self.serve_recovery_segment(&mut segment, &mut responses, store, rng);

        // THE durability barrier: everything the whole group wrote —
        // every user's punctures, any rotation, and the device state
        // they changed (the re-keyed root key, the new digest) —
        // commits in one flush (one WAL commit record, one fsync under
        // strict durability) before a single response leaves the
        // device. Timed for recovery
        // groups only: an epoch round is 2N groups that staged nothing,
        // whose no-op samples would drown the series (and whose
        // recording the fleet's worker threads contend on).
        {
            let _span = recoveries.then(|| safetypin_telemetry::start_span("hsm.group_commit"));
            self.commit(store, rng);
        }
        responses
            .into_iter()
            .map(|r| r.unwrap_or_else(no_reply))
            .collect()
    }

    /// Serves one coalesced recovery segment (requests whose tags'
    /// Bloom slots are never fully covered by the tags before them, so
    /// deferring every puncture past every decrypt cannot change any
    /// outcome) end to end:
    ///
    /// 1. §4.2 validation per request ([`recover_share_checks`]);
    /// 2. one descent that opens the key-tree paths to every Bloom slot
    ///    of every surviving request's tag ([`BfeSecretKey::open_tags`]),
    ///    each node once;
    /// 3. **all** surviving requests' share decryptions in one batch
    ///    that reads its candidate leaves through those nodes
    ///    ([`BfeSecretKey::decrypt_opened`]);
    /// 4. username-binding checks per share;
    /// 5. the deferred-puncture discharge ([`discharge_pending`]): one
    ///    MSM slot audit, then one coalesced multi-tag puncture that
    ///    re-seals the punctured tags' paths from the same opened nodes,
    ///    then responses.
    ///
    /// Outcomes per request match serving the segment one request at a
    /// time; only the meter differs.
    ///
    /// [`recover_share_checks`]: Self::recover_share_checks
    /// [`discharge_pending`]: Self::discharge_pending
    fn serve_recovery_segment<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        segment: &mut Vec<(usize, RecoveryRequest)>,
        responses: &mut [Option<safetypin_proto::HsmResponse>],
        store: &mut S,
        rng: &mut R,
    ) {
        use safetypin_proto::HsmResponse;
        if segment.is_empty() {
            return;
        }

        // Phase 1: validation. Refusals resolve immediately.
        let mut checked: Vec<(usize, CheckedRecovery)> = Vec::with_capacity(segment.len());
        for (pos, request) in segment.drain(..) {
            match self.recover_share_checks(&request) {
                Ok(c) => checked.push((pos, c)),
                Err(e) => answer(responses, pos, HsmResponse::Error((&e).into())),
            }
        }
        if checked.is_empty() {
            return;
        }

        // Phase 2: one descent over every surviving tag's slot paths, then
        // one batch decrypt across every share of every surviving request
        // in the segment, in request order, through the opened nodes.
        // Every candidate slot is one of its tag's, so the decrypt opens
        // no interior node itself.
        let tags: Vec<&[u8]> = checked.iter().map(|(_, c)| c.tag.as_slice()).collect();
        let (mut opened, mut report) = self.bfe_sk.open_tags(store, &tags);
        let items: Vec<(&[u8], &[u8], &safetypin_bfe::BfeCiphertext)> = checked
            .iter()
            .flat_map(|(_, c)| {
                c.share_cts
                    .iter()
                    .map(|share_ct| (c.tag.as_slice(), c.context.as_slice(), share_ct))
            })
            .collect();
        let (decrypted, decrypt_report) = self.bfe_sk.decrypt_opened(store, &mut opened, &items);
        report.add(&decrypt_report);
        // The ElGamal half of a share decryption is the "location-hiding
        // encryption" phase, the outsourced-storage traffic the
        // "puncturable encryption" phase.
        self.costs.lhe.elgamal_decs += report.group_ops;
        self.costs.add_store_pass(&report, items.len() as u64);

        // Phase 3: per request, fold in its jobs' outcomes (its share
        // decryptions are the next `share_cts.len()` items) and enforce
        // the §4.1 username binding.
        let mut pending: Vec<(usize, PreparedRecovery)> = Vec::with_capacity(checked.len());
        let mut decrypted = decrypted.into_iter();
        for (pos, c) in checked {
            let CheckedRecovery {
                tag,
                context,
                username,
                share_cts,
                recovery_pk,
            } = c;
            let mut outcome: Result<SlotOutcomes, HsmError> = Ok(Vec::new());
            for item in decrypted.by_ref().take(share_cts.len()) {
                if let Ok(slot_outcomes) = &mut outcome {
                    match item {
                        Ok((pt, trace)) => slot_outcomes.push((pt, trace)),
                        Err(_) => outcome = Err(HsmError::DecryptFailed),
                    }
                }
            }
            let resolved = outcome.and_then(|slot_outcomes| {
                let mut shares = Vec::with_capacity(slot_outcomes.len());
                let mut trace = Vec::with_capacity(slot_outcomes.len());
                for (pt, slot_trace) in slot_outcomes {
                    let share = parse_share_plaintext(&pt, &username)
                        .map_err(|_| HsmError::UsernameMismatch)?;
                    shares.push(share);
                    trace.push(slot_trace);
                }
                Ok((shares, trace))
            });
            match resolved {
                Ok((shares, trace)) => pending.push((
                    pos,
                    PreparedRecovery {
                        shares,
                        tag,
                        context,
                        trace,
                        recovery_pk,
                    },
                )),
                Err(e) => answer(responses, pos, HsmResponse::Error((&e).into())),
            }
        }

        // Phase 4: audit + coalesced puncture + response building.
        self.discharge_pending(&mut pending, opened, responses, store, rng);
    }

    /// Discharges the deferred puncture obligations accumulated by
    /// [`serve_recovery_segment`](Self::serve_recovery_segment): one MSM
    /// audit over every pending share decryption's slot trace, one
    /// coalesced multi-tag puncture through the segment's `opened`
    /// paths, then the pending responses are built in request order. A
    /// refused audit or puncture drops `opened` having written nothing.
    fn discharge_pending<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        pending: &mut Vec<(usize, PreparedRecovery)>,
        opened: Descent,
        responses: &mut [Option<safetypin_proto::HsmResponse>],
        store: &mut S,
        rng: &mut R,
    ) {
        use safetypin_proto::HsmResponse;
        if pending.is_empty() {
            return;
        }

        // Batched defense-in-depth: every slot scalar this group read
        // from outsourced storage is checked against the published
        // public key in one MSM (instead of one g^x per share). An AEAD
        // layer already authenticates the array, so an honest store can
        // never fail this; a failure means the storage substrate is
        // compromised and no share from this group may leave.
        let traces: Vec<(u64, p256::Scalar)> = pending
            .iter()
            .flat_map(|(_, p)| p.trace.iter().copied())
            .collect();
        let audited = {
            safetypin_telemetry::span!("hsm.msm_audit");
            self.bfe_pk.audit_slot_scalars(&traces, rng)
        };
        if !audited {
            for (pos, _) in pending.drain(..) {
                answer(
                    responses,
                    pos,
                    HsmResponse::Error((&HsmError::DecryptFailed).into()),
                );
            }
            return;
        }

        // One coalesced puncture across the group's distinct tags: the
        // union of every pending tag's slots is deleted in a single pass
        // that re-seals their paths from the nodes the decrypts opened
        // (a request refused since keeps its slots).
        let tags: Vec<&[u8]> = pending.iter().map(|(_, p)| p.tag.as_slice()).collect();
        let puncture_span = safetypin_telemetry::start_span("hsm.coalesced_puncture");
        let report = match self.bfe_sk.puncture_opened(store, opened, &tags, rng) {
            Ok(report) => report,
            Err(_) => {
                for (pos, _) in pending.drain(..) {
                    answer(
                        responses,
                        pos,
                        HsmResponse::Error((&HsmError::DecryptFailed).into()),
                    );
                }
                return;
            }
        };
        drop(puncture_span);
        // Only a puncture that landed re-keyed the root: a refused one
        // leaves the device state, and so the group's commit, untouched.
        self.dynamic_dirty = true;
        self.costs.add_store_pass(&report, pending.len() as u64);

        for (pos, prepared) in pending.drain(..) {
            let response = self.finish_recovery_response(prepared, rng);
            answer(responses, pos, HsmResponse::RecoveryShare { response });
        }
    }

    fn handle_inner<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        request: safetypin_proto::HsmRequest,
        store: &mut S,
        rng: &mut R,
    ) -> safetypin_proto::HsmResponse {
        use safetypin_proto::{HsmRequest, HsmResponse};
        match request {
            HsmRequest::GetEnrollment => HsmResponse::Enrollment(self.enrollment()),
            // `handle_batch` routes every recovery into a segment, so
            // none reaches this dispatch.
            HsmRequest::RecoverShare(_) => HsmResponse::Error(safetypin_proto::ErrorReply::new(
                safetypin_proto::codes::INTERNAL,
                "recovery requests are served in segments",
            )),
            HsmRequest::AuditAndSign {
                message,
                active_ids,
                failed_ids,
                packages,
            } => match self.audit_and_sign_with_failures(
                &message,
                &active_ids,
                &failed_ids,
                &packages,
            ) {
                Ok(sig) => HsmResponse::Signed(sig),
                Err(e) => HsmResponse::Error((&e).into()),
            },
            HsmRequest::AcceptUpdate {
                message,
                signers,
                aggregate,
            } => {
                let signers: Vec<usize> = signers.iter().map(|&s| s as usize).collect();
                match self.accept_update(&message, &signers, &aggregate) {
                    Ok(()) => HsmResponse::Ack,
                    Err(e) => HsmResponse::Error((&e).into()),
                }
            }
            HsmRequest::GarbageCollect => match self.garbage_collect() {
                Ok(()) => HsmResponse::Ack,
                Err(e) => HsmResponse::Error((&e).into()),
            },
            HsmRequest::RotateKeys => match self.rotate_keys(store, rng) {
                Ok(_) => HsmResponse::Rotated(self.enrollment()),
                Err(e) => HsmResponse::Error((&e).into()),
            },
        }
    }

    /// The recovery work served since the last drain, per phase.
    pub fn costs(&self) -> PhaseCosts {
        self.costs
    }

    /// Drains the meter (returns the old value).
    pub fn take_costs(&mut self) -> PhaseCosts {
        std::mem::take(&mut self.costs)
    }

    /// The enrollment record published at provisioning: identity key,
    /// BLS key with proof of possession, and the BFE public key.
    pub fn enrollment(&self) -> EnrollmentRecord {
        EnrollmentRecord {
            id: self.config.id,
            identity_pk: self.identity.pk,
            sig_vk: self.sig_key.verify_key(),
            sig_pop: self.sig_key.prove_possession(),
            bfe_pk: self.bfe_pk.clone(),
            key_epoch: self.key_epoch,
        }
    }

    /// Installs the fleet's verified BLS keys (the HSM checks each proof of
    /// possession itself — a compromised provider must not be able to slip
    /// in rogue keys).
    pub fn register_fleet(
        &mut self,
        keys: &[(multisig::VerifyKey, multisig::ProofOfPossession)],
    ) -> Result<(), HsmError> {
        let mut verified = Vec::with_capacity(keys.len());
        for (vk, pop) in keys {
            if !vk.verify_possession(pop) {
                return Err(HsmError::BadProofOfPossession);
            }
            verified.push(*vk);
        }
        self.fleet_keys = verified;
        self.static_dirty = true;
        Ok(())
    }

    fn ensure_active(&self) -> Result<(), HsmError> {
        match self.status {
            HsmStatus::Failed => Err(HsmError::Unavailable),
            _ => Ok(()),
        }
    }

    // ------------------------------------------------------------------
    // Recovery (§4.2)
    // ------------------------------------------------------------------

    /// Steps 1–5 of the §4.2 check list — everything *before* the store
    /// is touched: validate the commitment, inclusion proof, cluster
    /// membership, and ciphertext binding, and extract the share
    /// ciphertexts this HSM must decrypt.
    fn recover_share_checks(
        &mut self,
        request: &RecoveryRequest,
    ) -> Result<CheckedRecovery, HsmError> {
        self.ensure_active()?;
        self.costs.log.add_io(request.encoded_len() as u64);

        // 1. Recompute the client's commitment from its opening.
        let commitment = commit::commitment_of(&request.opening);
        self.costs.log.sha_ops += 1 + (request.opening.payload.len() as u64) / 64;

        // 2. The recovery attempt must be logged: check the inclusion proof
        //    for (username, h) against our digest.
        let commitment_bytes = commitment.to_bytes();
        if !MerkleTrie::does_include(
            &self.log_digest,
            &request.username,
            &commitment_bytes,
            &request.inclusion,
        ) {
            return Err(HsmError::BadInclusionProof);
        }
        self.costs.log.sha_ops += 2 * (request.inclusion.path.siblings.len() as u64 + 1);

        // 3. Parse the opening: committed cluster plus ciphertext hash.
        let (cluster, ct_hash) = types::parse_commit_payload(&request.opening.payload)?;

        // 4. This HSM must be the committed cluster member at every
        //    requested slot.
        if request.share_indices.is_empty() {
            return Err(HsmError::NotInCluster);
        }
        for &j in &request.share_indices {
            let slot = cluster
                .get(j as usize)
                .copied()
                .ok_or(HsmError::NotInCluster)?;
            if slot != self.config.id {
                return Err(HsmError::NotInCluster);
            }
        }

        // 5. The presented recovery ciphertext must be the committed one.
        let presented = hash_parts(Domain::RecoveryCommit, &[b"ct", &request.ciphertext]);
        self.costs.log.sha_ops += request.ciphertext.len() as u64 / 64 + 1;
        if presented != ct_hash {
            return Err(HsmError::CiphertextMismatch);
        }

        let mut share_cts = Vec::with_capacity(request.share_indices.len());
        for &j in &request.share_indices {
            share_cts.push(types::share_ct_at(&request.ciphertext, j)?);
        }
        Ok(CheckedRecovery {
            tag: types::puncture_tag(&request.username, &request.salt),
            context: share_context(&request.username, &request.salt),
            username: request.username.clone(),
            share_cts,
            recovery_pk: request.recovery_pk,
        })
    }

    /// Step 8: builds the reply — optionally encrypted under the
    /// client's per-recovery public key (§8, failure-during-recovery) —
    /// and meters its reply. The caller must have discharged the puncture
    /// obligation first.
    fn finish_recovery_response<R: RngCore + CryptoRng>(
        &mut self,
        prepared: PreparedRecovery,
        rng: &mut R,
    ) -> RecoveryResponse {
        let PreparedRecovery {
            shares,
            context,
            recovery_pk,
            ..
        } = prepared;
        let response = match &recovery_pk {
            None => RecoveryResponse::Plain(shares),
            Some(pk) => {
                let mut w = safetypin_primitives::wire::Writer::new();
                w.put_seq(&shares);
                let ct = elgamal::encrypt(pk, &context, &w.into_bytes(), rng);
                self.costs.pke.group_mults += 2;
                RecoveryResponse::Encrypted(ct)
            }
        };
        self.costs.log.add_io(response.encoded_len() as u64);
        response
    }

    // ------------------------------------------------------------------
    // Log maintenance (§6.2, Figure 5)
    // ------------------------------------------------------------------

    /// Every chunk this HSM must audit for the epoch committed by
    /// `message`: its own deterministic Appendix B.3 assignment plus the
    /// chunks the substitution rule hands it on behalf of `failed_ids`.
    /// Sized from this device's own `C` and its own registered fleet —
    /// never from a number the provider supplies. The provider assembles
    /// this HSM's packages through the same call, so the two sides cannot
    /// disagree.
    pub fn audit_assignment(
        &self,
        message: &UpdateMessage,
        active_ids: &[u64],
        failed_ids: &[u64],
    ) -> std::collections::BTreeSet<u32> {
        let (audits, fleet) = (self.config.audits_per_epoch, self.fleet_keys.len());
        let (root, chunks) = (&message.root, message.chunk_count);
        let mut assigned: std::collections::BTreeSet<u32> =
            audit_chunks_for(self.config.id, root, chunks, audits, fleet)
                .into_iter()
                .collect();
        assigned.extend(reaudit_chunks_for(
            self.config.id,
            active_ids,
            failed_ids,
            root,
            chunks,
            audits,
            fleet,
        ));
        assigned
    }

    /// Audits the provided chunk packages and, if every assigned chunk
    /// verifies, signs `(d, d', R)`.
    ///
    /// The packages must cover exactly this HSM's deterministic assignment
    /// ([`audit_assignment`](Self::audit_assignment)) and the message's
    /// old digest must match the digest this HSM holds. The assignment
    /// covers the Appendix B.3 re-audit duty: for each failed HSM, this
    /// HSM also verifies the chunks the deterministic substitution
    /// assigns to it, so the epoch makes progress despite fail-stops
    /// (with no failures, pass empty `active_ids` and `failed_ids`).
    pub fn audit_and_sign_with_failures(
        &mut self,
        message: &UpdateMessage,
        active_ids: &[u64],
        failed_ids: &[u64],
        packages: &[ChunkAudit],
    ) -> Result<multisig::Signature, HsmError> {
        // Zero chunks means an empty audit set: nothing below would be
        // checked, and the signature would certify whatever `new_digest`
        // the provider wrote.
        if message.chunk_count == 0 {
            return Err(HsmError::Audit(AuditError::NoChunks));
        }
        self.ensure_active()?;
        if message.old_digest != self.log_digest {
            return Err(HsmError::StaleDigest);
        }
        let expected = self.audit_assignment(message, active_ids, failed_ids);
        let provided: std::collections::BTreeSet<u32> = packages.iter().map(|p| p.chunk).collect();
        if expected != provided || packages.len() != provided.len() {
            return Err(HsmError::WrongAuditSet);
        }
        for package in packages {
            verify_chunk(message, package).map_err(HsmError::Audit)?;
        }
        Ok(self.sig_key.sign(&message.signing_bytes()))
    }

    /// Accepts a new digest once a quorum aggregate signature over
    /// `(d, d', R)` verifies against the registered fleet keys.
    ///
    /// `signers` lists the fleet indices whose keys are aggregated; the
    /// HSM requires at least `min_signers` of them (all online HSMs must
    /// sign; `f_live·N` may be offline).
    pub fn accept_update(
        &mut self,
        message: &UpdateMessage,
        signers: &[usize],
        aggregate: &multisig::Signature,
    ) -> Result<(), HsmError> {
        self.ensure_active()?;
        if message.old_digest != self.log_digest {
            return Err(HsmError::StaleDigest);
        }
        if signers.len() < self.config.min_signers {
            return Err(HsmError::QuorumTooSmall {
                got: signers.len(),
                need: self.config.min_signers,
            });
        }
        let mut keys = Vec::with_capacity(signers.len());
        let mut seen = std::collections::HashSet::new();
        for &s in signers {
            if !seen.insert(s) {
                return Err(HsmError::BadAggregate);
            }
            keys.push(*self.fleet_keys.get(s).ok_or(HsmError::BadAggregate)?);
        }
        // Aggregate verification is one two-pairing product check,
        // independent of the signer count (§6.2 Scalability).
        if !multisig::verify_aggregate(&keys, &message.signing_bytes(), aggregate) {
            return Err(HsmError::BadAggregate);
        }
        self.log_digest = message.new_digest;
        self.dynamic_dirty = true;
        Ok(())
    }

    /// Follows a provider garbage collection: resets the digest to the
    /// empty log. Each HSM follows at most `max_gc` collections (§6.2);
    /// after that it refuses, bounding how often the provider can reset
    /// everyone's PIN-attempt budget.
    pub fn garbage_collect(&mut self) -> Result<(), HsmError> {
        self.ensure_active()?;
        if self.gc_count >= self.config.max_gc {
            return Err(HsmError::GcLimitReached);
        }
        self.gc_count += 1;
        self.log_digest = MerkleTrie::empty_digest();
        self.dynamic_dirty = true;
        Ok(())
    }

    /// Completed garbage collections.
    pub fn gc_count(&self) -> u64 {
        self.gc_count
    }

    // ------------------------------------------------------------------
    // Key rotation (§7.1, §9.1)
    // ------------------------------------------------------------------

    /// Rotates the BFE keypair: generates a fresh slot array (one group
    /// multiplication per slot — the dominant cost, ~75 SoloKey-hours at
    /// paper scale) and publishes the new public key.
    pub fn rotate_keys<S: BlockStore, R: RngCore + CryptoRng>(
        &mut self,
        store: &mut S,
        rng: &mut R,
    ) -> Result<(BfePublicKey, KeygenReport), HsmError> {
        self.ensure_active()?;
        let (pk, sk, report) =
            safetypin_bfe::keygen(self.config.bfe_params, store, rng).map_err(HsmError::Crypto)?;
        self.bfe_pk = pk.clone();
        self.bfe_sk = sk;
        self.key_epoch += 1;
        (self.static_dirty, self.dynamic_dirty) = (true, true);
        Ok((pk, report))
    }

    // ------------------------------------------------------------------
    // Failure injection (for experiments)
    // ------------------------------------------------------------------

    /// Fail-stops the HSM (benign failure).
    pub fn fail(&mut self) {
        self.status = HsmStatus::Failed;
        self.dynamic_dirty = true;
    }

    /// Restores a failed HSM (e.g., after replacement).
    pub fn restore(&mut self) {
        if self.status == HsmStatus::Failed {
            self.status = HsmStatus::Active;
            self.dynamic_dirty = true;
        }
    }

    /// Compromises the HSM, exfiltrating all secrets. The device keeps
    /// responding (a stealthy attacker).
    pub fn compromise(&mut self) -> ExfiltratedState {
        self.status = HsmStatus::Compromised;
        self.dynamic_dirty = true;
        ExfiltratedState {
            identity_sk: self.identity.sk.clone(),
            sig_sk: self.sig_key.clone(),
            bfe_root_key: self.bfe_sk_root_key(),
            log_digest: self.log_digest,
        }
    }

    fn bfe_sk_root_key(&self) -> [u8; 16] {
        // Exposed only through compromise(); models physical key
        // extraction.
        self.bfe_sk.array_root_key()
    }
}

#[cfg(test)]
mod tests;
