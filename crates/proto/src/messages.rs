//! Protocol payloads shared by the client, provider, and HSM roles.
//!
//! These types were born in `safetypin-hsm`; they live here now so every
//! role (and the transport layer) can speak them without depending on the
//! HSM implementation. `safetypin-hsm` re-exports them for compatibility.

use safetypin_authlog::trie::InclusionProof;
use safetypin_bfe::{BfeCiphertext, BfePublicKey};
use safetypin_lhe::scheme::Salt;
use safetypin_lhe::LheCiphertext;
use safetypin_multisig as multisig;
use safetypin_primitives::elgamal;
use safetypin_primitives::error::WireError;
use safetypin_primitives::hashes::{hash_parts, Domain, Hash256};
use safetypin_primitives::shamir::Share;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

use crate::error::ProtoError;

/// What an HSM publishes at provisioning time.
#[derive(Debug, Clone, PartialEq)]
pub struct EnrollmentRecord {
    /// Datacenter index.
    pub id: u64,
    /// Long-term identity (hashed-ElGamal) public key.
    pub identity_pk: elgamal::PublicKey,
    /// BLS verification key for log updates.
    pub sig_vk: multisig::VerifyKey,
    /// Proof of possession for `sig_vk` (anti rogue-key).
    pub sig_pop: multisig::ProofOfPossession,
    /// Current Bloom-filter-encryption public key.
    pub bfe_pk: BfePublicKey,
    /// BFE key-rotation epoch.
    pub key_epoch: u64,
}

impl EnrollmentRecord {
    /// Serialized size in bytes — what a client downloads per HSM
    /// (the §9.2 bandwidth numbers).
    pub fn serialized_len(&self) -> usize {
        self.to_bytes().len()
    }
}

impl Encode for EnrollmentRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        self.identity_pk.encode(w);
        self.sig_vk.encode(w);
        self.sig_pop.encode(w);
        self.bfe_pk.encode(w);
        w.put_u64(self.key_epoch);
    }
}

impl Decode for EnrollmentRecord {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            id: r.get_u64()?,
            identity_pk: elgamal::PublicKey::decode(r)?,
            sig_vk: multisig::VerifyKey::decode(r)?,
            sig_pop: multisig::ProofOfPossession::decode(r)?,
            bfe_pk: BfePublicKey::decode(r)?,
            key_epoch: r.get_u64()?,
        })
    }
}

/// A client's recovery-share request to one HSM (Figure 3, step 6).
///
/// Carries the opening of the logged commitment, the log-inclusion proof,
/// the full recovery ciphertext, and *all* cluster positions this HSM
/// serves — the cluster is sampled with replacement, so one HSM may hold
/// several shares, and it must decrypt every one before the single
/// puncture revokes its tag.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRequest {
    /// Requesting username.
    pub username: Vec<u8>,
    /// The ciphertext's public salt.
    pub salt: Salt,
    /// Opening of the commitment the client logged.
    pub opening: safetypin_primitives::commit::Opening,
    /// Proof that `(username, commitment)` is in the log.
    pub inclusion: InclusionProof,
    /// The serialized recovery ciphertext (`LheCiphertext<BfeCiphertext>`).
    pub ciphertext: Vec<u8>,
    /// Cluster positions (indices into the committed cluster) this HSM
    /// must serve.
    pub share_indices: Vec<u32>,
    /// Optional per-recovery public key for encrypted replies (§8).
    pub recovery_pk: Option<elgamal::PublicKey>,
}

impl Encode for RecoveryRequest {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(&self.username);
        self.salt.encode(w);
        self.opening.encode(w);
        self.inclusion.encode(w);
        w.put_bytes(&self.ciphertext);
        w.put_u32(self.share_indices.len() as u32);
        for i in &self.share_indices {
            w.put_u32(*i);
        }
        w.put_option(&self.recovery_pk);
    }
}

impl Decode for RecoveryRequest {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let username = r.get_bytes()?.to_vec();
        let salt = Salt::decode(r)?;
        let opening = safetypin_primitives::commit::Opening::decode(r)?;
        let inclusion = InclusionProof::decode(r)?;
        let ciphertext = r.get_bytes()?.to_vec();
        let n = r.get_u32()? as usize;
        if n > 1024 {
            return Err(WireError::LengthOutOfRange);
        }
        let mut share_indices = Vec::with_capacity(n);
        for _ in 0..n {
            share_indices.push(r.get_u32()?);
        }
        Ok(Self {
            username,
            salt,
            opening,
            inclusion,
            ciphertext,
            share_indices,
            recovery_pk: r.get_option()?,
        })
    }
}

/// The HSM's reply: this HSM's decrypted shares, plain or encrypted under
/// the client's per-recovery key.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryResponse {
    /// Decrypted shares in cluster-position order.
    Plain(Vec<Share>),
    /// Wire-encoded shares encrypted under the per-recovery key.
    Encrypted(elgamal::Ciphertext),
}

impl RecoveryResponse {
    /// Decrypts an [`RecoveryResponse::Encrypted`] reply with the
    /// per-recovery secret key; passes through plain replies.
    pub fn open(
        self,
        sk: Option<&elgamal::SecretKey>,
        context: &[u8],
    ) -> Result<Vec<Share>, ProtoError> {
        match self {
            RecoveryResponse::Plain(shares) => Ok(shares),
            RecoveryResponse::Encrypted(ct) => {
                let sk = sk.ok_or(ProtoError::DecryptFailed)?;
                let pt =
                    elgamal::decrypt(sk, context, &ct).map_err(|_| ProtoError::DecryptFailed)?;
                let mut r = Reader::new(&pt);
                let shares = r.get_seq().map_err(ProtoError::Wire)?;
                Ok(shares)
            }
        }
    }
}

impl Encode for RecoveryResponse {
    fn encode(&self, w: &mut Writer) {
        match self {
            RecoveryResponse::Plain(shares) => {
                w.put_u8(0);
                w.put_seq(shares);
            }
            RecoveryResponse::Encrypted(ct) => {
                w.put_u8(1);
                ct.encode(w);
            }
        }
    }
}

impl Decode for RecoveryResponse {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(RecoveryResponse::Plain(r.get_seq()?)),
            1 => Ok(RecoveryResponse::Encrypted(elgamal::Ciphertext::decode(r)?)),
            t => Err(WireError::InvalidTag(t)),
        }
    }
}

/// Builds the payload the client commits to in the log: the cluster
/// member ids and the hash of the recovery ciphertext (§4.2).
pub fn build_commit_payload(cluster: &[u64], ct_hash: &Hash256) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(cluster.len() as u32);
    for &id in cluster {
        w.put_u64(id);
    }
    w.put_fixed(ct_hash);
    w.into_bytes()
}

/// Metadata stamped onto every persisted fleet snapshot.
///
/// A restored fleet re-handshakes versions through this message: the
/// snapshot directory stores it wrapped in a standard
/// [`Envelope`](crate::Envelope), so a snapshot written by a build
/// speaking a different [`PROTO_VERSION`](crate::PROTO_VERSION) is
/// rejected with a typed `UnsupportedVersion` *before* any sealed state
/// is opened — exactly the strict-equality rule every transported
/// message already follows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Protocol version of the writing build (redundant with the
    /// envelope check; kept so the metadata is self-describing when
    /// inspected standalone).
    pub proto_version: u16,
    /// Number of HSMs in the persisted fleet.
    pub fleet_size: u64,
    /// Certified log epochs at persist time.
    pub epoch_count: u64,
    /// Provider-log garbage-collection generation.
    pub log_generation: u64,
    /// Per-HSM BFE key-rotation epochs, in id order. A restored client
    /// compares these against its cached enrollment records to decide
    /// whether a re-download is needed.
    pub key_epochs: Vec<u64>,
}

impl Encode for SnapshotMeta {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.proto_version);
        w.put_u64(self.fleet_size);
        w.put_u64(self.epoch_count);
        w.put_u64(self.log_generation);
        w.put_u32(self.key_epochs.len() as u32);
        for e in &self.key_epochs {
            w.put_u64(*e);
        }
    }
}

impl Decode for SnapshotMeta {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let proto_version = r.get_u16()?;
        let fleet_size = r.get_u64()?;
        let epoch_count = r.get_u64()?;
        let log_generation = r.get_u64()?;
        let n = r.get_u32()? as usize;
        if n > 1 << 24 {
            return Err(WireError::LengthOutOfRange);
        }
        let mut key_epochs = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            key_epochs.push(r.get_u64()?);
        }
        Ok(Self {
            proto_version,
            fleet_size,
            epoch_count,
            log_generation,
            key_epochs,
        })
    }
}

/// A service status snapshot, returned by
/// [`ProviderRequest::Status`](crate::api::ProviderRequest::Status).
///
/// The first four fields restate the deployment's LHE parameters so a
/// bare client (username + PIN, nothing cached) can configure itself
/// before downloading enrollments; the rest are observability counters.
/// A bare datacenter fills only the fleet-level fields; `safetypind`
/// adds its connection accounting on top.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StatusReport {
    /// Total HSMs in the fleet (the LHE `total`).
    pub fleet_size: u64,
    /// Recovery cluster size (the LHE `cluster`).
    pub cluster: u32,
    /// Shamir reconstruction threshold (the LHE `threshold`).
    pub threshold: u32,
    /// PIN space size (the LHE `pin_space`).
    pub pin_space: u64,
    /// Certified log epochs so far.
    pub epoch_count: u64,
    /// Entries in the provider log.
    pub log_entries: u64,
    /// Stored backup blobs.
    pub backups: u64,
    /// Stored §8 reply copies.
    pub reply_copies: u64,
    /// Admitted client connections currently open (daemon only); a
    /// connection refused by admission control is not counted.
    pub active_connections: u32,
    /// Requests served since boot (daemon only).
    pub served_requests: u64,
    /// Requests or connections refused by admission control or rate
    /// limiting since boot (daemon only).
    pub rejected_requests: u64,
    /// True once the service has begun draining toward shutdown.
    pub draining: bool,
}

impl Encode for StatusReport {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.fleet_size);
        w.put_u32(self.cluster);
        w.put_u32(self.threshold);
        w.put_u64(self.pin_space);
        w.put_u64(self.epoch_count);
        w.put_u64(self.log_entries);
        w.put_u64(self.backups);
        w.put_u64(self.reply_copies);
        w.put_u32(self.active_connections);
        w.put_u64(self.served_requests);
        w.put_u64(self.rejected_requests);
        w.put_bool(self.draining);
    }
}

impl Decode for StatusReport {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            fleet_size: r.get_u64()?,
            cluster: r.get_u32()?,
            threshold: r.get_u32()?,
            pin_space: r.get_u64()?,
            epoch_count: r.get_u64()?,
            log_entries: r.get_u64()?,
            backups: r.get_u64()?,
            reply_copies: r.get_u64()?,
            active_connections: r.get_u32()?,
            served_requests: r.get_u64()?,
            rejected_requests: r.get_u64()?,
            draining: r.get_bool()?,
        })
    }
}

/// Parses a commitment payload back into `(cluster, ct_hash)`.
pub fn parse_commit_payload(payload: &[u8]) -> Result<(Vec<u64>, Hash256), WireError> {
    let mut r = Reader::new(payload);
    let n = r.get_u32()? as usize;
    if n > 1024 {
        return Err(WireError::LengthOutOfRange);
    }
    let mut cluster = Vec::with_capacity(n);
    for _ in 0..n {
        cluster.push(r.get_u64()?);
    }
    let ct_hash: Hash256 = r.get_array()?;
    if !r.is_exhausted() {
        return Err(WireError::TrailingBytes);
    }
    Ok((cluster, ct_hash))
}

/// The ciphertext hash bound into the commitment.
pub fn ciphertext_commit_hash(ct_bytes: &[u8]) -> Hash256 {
    hash_parts(Domain::RecoveryCommit, &[b"ct", ct_bytes])
}

/// Extracts the share ciphertext at cluster position `index` from a
/// serialized recovery ciphertext.
pub fn share_ct_at(ct_bytes: &[u8], index: u32) -> Result<BfeCiphertext, ProtoError> {
    let ct: LheCiphertext<BfeCiphertext> =
        LheCiphertext::from_bytes(ct_bytes).map_err(ProtoError::Wire)?;
    ct.share_cts
        .get(index as usize)
        .cloned()
        .ok_or(ProtoError::IndexOutOfRange(index))
}

/// The BFE puncture tag for `(username, salt)` — re-exported from the LHE
/// crate so protocol code has one import point.
pub fn puncture_tag(username: &[u8], salt: &Salt) -> Vec<u8> {
    safetypin_lhe::puncture_tag(username, salt)
}
