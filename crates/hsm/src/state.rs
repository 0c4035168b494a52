//! HSM state persistence: export, sealed save, restore.
//!
//! An HSM's trusted state is tiny by design (§7.2: one root key plus
//! bookkeeping — everything bulky is outsourced). [`HsmState`] captures
//! exactly that: the identity and BLS signing secrets, the BFE
//! secret-key handle (secure-array root key + puncture counters), the
//! trusted log digest, the registered fleet keys, and the protocol
//! counters. [`Hsm::persist`] seals it under a per-device
//! [`DeviceKey`] before it touches host storage — the host file models
//! the HSM's internal NVRAM, and an operator holding the provider's
//! disks but not the device keys learns nothing from it.
//!
//! The outsourced block store (the Bloom-filter secret array) is *not*
//! part of this state: it already lives at the untrusted provider and
//! is persisted separately (plaintext-on-host, it is ciphertext
//! already) by the provider layer.

use rand::{CryptoRng, RngCore};
use safetypin_bfe::{BfeKeyState, BfePublicKey, BfeSecretKey};
use safetypin_multisig as multisig;
use safetypin_primitives::elgamal;
use safetypin_primitives::error::WireError;
use safetypin_primitives::hashes::Hash256;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};
use safetypin_sim::OpCosts;
use safetypin_store::{seal_domain, DeviceKey, StoreError};

use crate::{Hsm, HsmConfig, HsmStatus};

/// Sealing domain for HSM state blobs.
const COMPONENT: &str = "safetypin.hsm-state.v1";

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

/// The complete trusted state of one HSM, as carried across a restart.
///
/// Contains raw secret scalars; treat a populated `HsmState` like key
/// material and only ever write it through [`Hsm::persist`] (which
/// seals it).
pub struct HsmState {
    pub(crate) config: HsmConfig,
    pub(crate) identity_sk: elgamal::SecretKey,
    pub(crate) sig_sk: multisig::SigningKey,
    pub(crate) bfe_pk: BfePublicKey,
    pub(crate) bfe_sk: BfeKeyState,
    pub(crate) log_digest: Hash256,
    pub(crate) fleet_keys: Vec<multisig::VerifyKey>,
    pub(crate) designated_auditors: Vec<multisig::VerifyKey>,
    pub(crate) gc_count: u64,
    pub(crate) key_epoch: u64,
    pub(crate) status: HsmStatus,
    pub(crate) costs: OpCosts,
}

impl core::fmt::Debug for HsmState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("HsmState")
            .field("id", &self.config.id)
            .field("key_epoch", &self.key_epoch)
            .field("gc_count", &self.gc_count)
            .field("secrets", &"<redacted>")
            .finish_non_exhaustive()
    }
}

impl Encode for HsmState {
    fn encode(&self, w: &mut Writer) {
        self.config.encode(w);
        w.put_fixed(&self.identity_sk.to_bytes());
        w.put_fixed(&self.sig_sk.to_bytes_raw());
        self.bfe_pk.encode(w);
        self.bfe_sk.encode(w);
        w.put_fixed(&self.log_digest);
        w.put_seq(&self.fleet_keys);
        w.put_seq(&self.designated_auditors);
        w.put_u64(self.gc_count);
        w.put_u64(self.key_epoch);
        w.put_u8(status_tag(self.status));
        self.costs.encode(w);
    }
}

impl Decode for HsmState {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let config = HsmConfig::decode(r)?;
        let identity_bytes = r.get_array::<32>()?;
        let identity_sk = elgamal::SecretKey::from_bytes(&identity_bytes)
            .map_err(|_| WireError::InvalidTag(0))?;
        let sig_bytes = r.get_array::<32>()?;
        let sig_sk = multisig::SigningKey::from_bytes_raw(&sig_bytes)
            .map_err(|_| WireError::InvalidTag(0))?;
        Ok(Self {
            config,
            identity_sk,
            sig_sk,
            bfe_pk: BfePublicKey::decode(r)?,
            bfe_sk: BfeKeyState::decode(r)?,
            log_digest: r.get_array::<32>()?,
            fleet_keys: r.get_seq()?,
            designated_auditors: r.get_seq()?,
            gc_count: r.get_u64()?,
            key_epoch: r.get_u64()?,
            status: status_from_tag(r.get_u8()?)?,
            costs: OpCosts::decode(r)?,
        })
    }
}

impl Hsm {
    /// Exports the HSM's full trusted state (see [`HsmState`]).
    pub fn export_state(&self) -> HsmState {
        HsmState {
            config: self.config,
            identity_sk: self.identity.sk.clone(),
            sig_sk: self.sig_key.clone(),
            bfe_pk: self.bfe_pk.clone(),
            bfe_sk: self.bfe_sk.export_state(),
            log_digest: self.log_digest,
            fleet_keys: self.fleet_keys.clone(),
            designated_auditors: self.designated_auditors.clone(),
            gc_count: self.gc_count,
            key_epoch: self.key_epoch,
            status: self.status,
            costs: self.costs,
        }
    }

    /// Rebuilds an HSM from exported state. The caller must present the
    /// block store holding its outsourced secret array; a mismatch
    /// surfaces as AEAD failures on the first share decryption.
    pub fn from_state(state: HsmState) -> Self {
        let identity_pk = state.identity_sk.public_key();
        Self {
            config: state.config,
            identity: elgamal::KeyPair {
                sk: state.identity_sk,
                pk: identity_pk,
            },
            sig_key: state.sig_sk,
            bfe_pk: state.bfe_pk,
            bfe_sk: BfeSecretKey::from_state(state.bfe_sk),
            log_digest: state.log_digest,
            fleet_keys: state.fleet_keys,
            designated_auditors: state.designated_auditors,
            gc_count: state.gc_count,
            key_epoch: state.key_epoch,
            status: state.status,
            costs: state.costs,
        }
    }

    /// The snapshot filename for device `id`.
    pub fn state_file_name(id: u64) -> String {
        format!("hsm-{id}.sealed")
    }

    /// Seals the HSM's state under `device_key` and writes it
    /// (atomically) into `dir`. Models the device flushing its internal
    /// NVRAM: the resulting file is useless without the device key.
    pub fn persist<R: RngCore + CryptoRng>(
        &self,
        dir: &std::path::Path,
        device_key: &DeviceKey,
        durability: safetypin_store::Durability,
        rng: &mut R,
    ) -> Result<(), StoreError> {
        std::fs::create_dir_all(dir)?;
        let sealed = device_key.seal(
            &seal_domain(COMPONENT, self.config.id),
            &self.export_state().to_bytes(),
            rng,
        );
        safetypin_store::write_atomic(
            &dir.join(Self::state_file_name(self.config.id)),
            &sealed,
            durability,
        )
    }

    /// Reads, unseals, and rebuilds HSM `id` from `dir`. Any tampering
    /// with the sealed file — or the wrong device key — is a typed
    /// [`StoreError::SealBroken`]. (Named `restore_from` because
    /// [`Hsm::restore`](crate::Hsm::restore) already means "bring a
    /// fail-stopped device back".)
    pub fn restore_from(
        dir: &std::path::Path,
        id: u64,
        device_key: &DeviceKey,
    ) -> Result<Self, StoreError> {
        let sealed =
            safetypin_store::read_component(&dir.join(Self::state_file_name(id)), "hsm state")?;
        let plain = device_key.open(&seal_domain(COMPONENT, id), &sealed)?;
        let state = HsmState::from_bytes(&plain)?;
        Ok(Self::from_state(state))
    }
}
