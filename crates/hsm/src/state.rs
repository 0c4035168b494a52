//! HSM trusted state, kept in the device's own block store.
//!
//! An HSM's trusted state is tiny by design (§7.2, App. C: one root key
//! that is re-keyed on every puncture, plus bookkeeping — everything
//! bulky is outsourced). It lives in the same [`BlockStore`] as the
//! outsourced secret array, at three reserved addresses at the top of
//! the address space (the array occupies `[1, 2^(h+1))` and address 0 is
//! never used), and [`Hsm::commit`] writes whichever part changed
//! immediately before the group-commit flush. Punctured blocks and the
//! root key that opens them — or a rotation's new array and its new
//! public key — are therefore **one store transaction**: a device is
//! reopenable ([`Hsm::open`]) after every commit, never only after
//! someone remembered to snapshot it.
//!
//! * [`DYNAMIC_ADDR`] — the part every puncture, epoch, collection and
//!   rotation changes: the BFE secret-key handle (secure-array root key
//!   and puncture counters), the trusted log digest, the GC and key
//!   epochs, the liveness status. Sealed under the device's
//!   [`DeviceKey`]; 201 bytes on the wire at any fleet or slot count
//!   (169 of plaintext + nonce, length and tag). The cost meters are
//!   not state and are not kept.
//! * [`SECRETS_ADDR`] — what changes only at provisioning and rotation:
//!   the configuration, the identity and BLS signing secrets, and a
//!   digest of the public block. Sealed; 168 bytes.
//! * [`PUBLIC_ADDR`] — the registered fleet keys and the BFE public
//!   key (33 bytes per slot: 541 KB at 2^14 slots). All public, so
//!   stored **unsealed**; the digest inside the sealed secrets block is
//!   what keeps the untrusted host from swapping in rogue fleet keys.
//!   The layout follows `PROTO_VERSION`: version 2 also kept a
//!   designated-auditor list between the two, and a store written by
//!   another version is refused by `snapshot.meta`'s version check
//!   before any of its blocks is opened.
//!
//! The sealed blocks model the HSM's internal NVRAM: an operator holding
//! the provider's disks but not the device keys learns nothing from
//! them. (As with any host-file model of on-chip flash, rolling the
//! whole store back to an earlier commit is outside what sealing can
//! detect.)

use rand::{CryptoRng, RngCore};
use safetypin_bfe::{BfeKeyState, BfePublicKey, BfeSecretKey};
use safetypin_multisig as multisig;
use safetypin_primitives::elgamal;
use safetypin_primitives::error::WireError;
use safetypin_primitives::hashes::{hash_parts, Domain, Hash256};
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_primitives::zeroize::wipe_bytes;
use safetypin_seckv::BlockStore;
use safetypin_store::{seal_domain, DeviceKey, StoreError};

use crate::{Hsm, HsmConfig, HsmStatus, PhaseCosts};

/// Block address of the sealed dynamic state (see the module docs).
pub const DYNAMIC_ADDR: u64 = u64::MAX;
/// Block address of the sealed static secrets.
pub const SECRETS_ADDR: u64 = u64::MAX - 1;
/// Block address of the unsealed public keys.
pub const PUBLIC_ADDR: u64 = u64::MAX - 2;

/// Sealing domains, one per sealed block, so neither can be replayed
/// into the other's address (or another device's).
const DYNAMIC_DOMAIN: &str = "safetypin.hsm-dynamic.v1";
const SECRETS_DOMAIN: &str = "safetypin.hsm-secrets.v1";

impl Encode for HsmConfig {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.id);
        self.bfe_params.encode(w);
        w.put_u32(self.audits_per_epoch);
        w.put_u64(self.max_gc);
        w.put_u64(self.min_signers as u64);
    }
}

impl Decode for HsmConfig {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        Ok(Self {
            id: r.get_u64()?,
            bfe_params: safetypin_bfe::BfeParams::decode(r)?,
            audits_per_epoch: r.get_u32()?,
            max_gc: r.get_u64()?,
            min_signers: r.get_u64()? as usize,
        })
    }
}

fn status_tag(status: HsmStatus) -> u8 {
    match status {
        HsmStatus::Active => 0,
        HsmStatus::Failed => 1,
        HsmStatus::Compromised => 2,
    }
}

fn status_from_tag(tag: u8) -> Result<HsmStatus, WireError> {
    match tag {
        0 => Ok(HsmStatus::Active),
        1 => Ok(HsmStatus::Failed),
        2 => Ok(HsmStatus::Compromised),
        t => Err(WireError::InvalidTag(t)),
    }
}

fn public_digest(public: &[u8]) -> Hash256 {
    hash_parts(Domain::StorageKdf, &[b"hsm-public-block", public])
}

/// Seals `plain` into `store` at `addr`, wiping the plaintext buffer.
fn put_sealed<S: BlockStore, R: RngCore + CryptoRng>(
    store: &mut S,
    addr: u64,
    key: &DeviceKey,
    domain: &[u8],
    mut plain: Vec<u8>,
    rng: &mut R,
) {
    store.put(addr, &key.seal(domain, &plain, rng));
    wipe_bytes(&mut plain);
}

fn get_block<S: BlockStore>(store: &mut S, addr: u64) -> Result<Vec<u8>, StoreError> {
    store
        .get(addr)
        .ok_or(StoreError::MissingComponent("hsm state block"))
}

/// Opens the sealed block at `addr` and parses it, wiping the plaintext
/// buffer whatever the outcome.
fn get_sealed<S: BlockStore, T>(
    store: &mut S,
    addr: u64,
    key: &DeviceKey,
    domain: &[u8],
    parse: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, StoreError> {
    let mut plain = key.open(domain, &get_block(store, addr)?)?;
    let parsed = parse(&mut Reader::new(&plain));
    wipe_bytes(&mut plain);
    Ok(parsed?)
}

impl Hsm {
    /// The group-commit durability barrier: writes whichever part of
    /// the trusted state changed since the last commit (see the module
    /// docs), then flushes the store — so everything the device staged,
    /// its own state included, commits as one transaction. `rng` feeds
    /// the sealing nonces only.
    pub fn commit<S: BlockStore, R: RngCore + CryptoRng>(&mut self, store: &mut S, rng: &mut R) {
        let id = self.config.id;
        if std::mem::take(&mut self.static_dirty) {
            let keys = self.fleet_keys.len();
            let bfe = self.config.bfe_params.public_key_bytes() as usize;
            let mut public = Writer::with_capacity(bfe + multisig::PK_LEN * keys + 4);
            public.put_seq(&self.fleet_keys);
            self.bfe_pk.encode(&mut public);
            let public = public.into_bytes();

            let mut secrets = Writer::new();
            self.config.encode(&mut secrets);
            secrets.put_fixed(&self.identity.sk.to_bytes());
            secrets.put_fixed(&self.sig_key.to_bytes_raw());
            secrets.put_fixed(&public_digest(&public));
            put_sealed(
                store,
                SECRETS_ADDR,
                &self.device_key,
                &seal_domain(SECRETS_DOMAIN, id),
                secrets.into_bytes(),
                rng,
            );
            store.put(PUBLIC_ADDR, &public);
        }
        if std::mem::take(&mut self.dynamic_dirty) {
            let mut dynamic = Writer::new();
            self.bfe_sk.export_state().encode(&mut dynamic);
            dynamic.put_fixed(&self.log_digest);
            dynamic.put_u64(self.gc_count);
            dynamic.put_u64(self.key_epoch);
            dynamic.put_u8(status_tag(self.status));
            put_sealed(
                store,
                DYNAMIC_ADDR,
                &self.device_key,
                &seal_domain(DYNAMIC_DOMAIN, id),
                dynamic.into_bytes(),
                rng,
            );
        }
        store.flush();
    }

    /// Reopens device `id` from the state blocks its last
    /// [`commit`](Self::commit) left in `store`, which must also hold
    /// its outsourced secret array. A missing block is
    /// [`StoreError::MissingComponent`]; tampering with a sealed block
    /// or the public keys — or the wrong device key — is
    /// [`StoreError::SealBroken`]. The cost meters start from zero.
    pub fn open<S: BlockStore>(
        id: u64,
        store: &mut S,
        device_key: DeviceKey,
    ) -> Result<Self, StoreError> {
        let (config, identity_sk, sig_key, expected_public) = get_sealed(
            store,
            SECRETS_ADDR,
            &device_key,
            &seal_domain(SECRETS_DOMAIN, id),
            |r| {
                let config = HsmConfig::decode(r)?;
                let identity_sk = elgamal::SecretKey::from_bytes(&r.get_array::<32>()?)
                    .map_err(|_| WireError::InvalidTag(0))?;
                let sig_key = multisig::SigningKey::from_bytes_raw(&r.get_array::<32>()?)
                    .map_err(|_| WireError::InvalidTag(0))?;
                Ok((config, identity_sk, sig_key, r.get_array::<32>()?))
            },
        )?;

        let public = get_block(store, PUBLIC_ADDR)?;
        if public_digest(&public) != expected_public {
            return Err(StoreError::SealBroken);
        }
        let mut r = Reader::new(&public);
        let fleet_keys = r.get_seq()?;
        let bfe_pk = BfePublicKey::decode(&mut r)?;

        let (bfe_sk, log_digest, gc_count, key_epoch, status) = get_sealed(
            store,
            DYNAMIC_ADDR,
            &device_key,
            &seal_domain(DYNAMIC_DOMAIN, id),
            |r| {
                Ok((
                    BfeSecretKey::from_state(BfeKeyState::decode(r)?),
                    r.get_array::<32>()?,
                    r.get_u64()?,
                    r.get_u64()?,
                    status_from_tag(r.get_u8()?)?,
                ))
            },
        )?;

        let identity_pk = identity_sk.public_key();
        Ok(Self {
            config,
            identity: elgamal::KeyPair {
                sk: identity_sk,
                pk: identity_pk,
            },
            sig_key,
            bfe_pk,
            bfe_sk,
            log_digest,
            fleet_keys,
            gc_count,
            key_epoch,
            status,
            costs: PhaseCosts::default(),
            device_key,
            static_dirty: false,
            dynamic_dirty: false,
        })
    }

    /// This device's sealing key — what the fleet's
    /// [`Keyring`](safetypin_store::Keyring) file collects (standing in
    /// for on-chip flash).
    pub fn device_key(&self) -> &DeviceKey {
        &self.device_key
    }
}
