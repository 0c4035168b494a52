//! The SafetyPin client (paper §4, §8).
//!
//! The client holds a username, a PIN, and the fleet's enrollment records
//! (the "master public key"). It produces recovery ciphertexts locally —
//! backup requires **no** HSM interaction — and drives the staged recovery
//! flow of Figure 3:
//!
//! 1. [`Client::backup`] → upload the ciphertext to the provider;
//! 2. [`Client::start_recovery`] → a [`RecoveryAttempt`] whose
//!    [`log_entry`](RecoveryAttempt::log_entry) the provider logs;
//! 3. build per-HSM requests with [`RecoveryAttempt::requests`] — the
//!    provider's recovery round logs the attempt, certifies it in an
//!    epoch and attaches the inclusion proof before any HSM sees them;
//! 4. feed the HSM responses to [`RecoveryAttempt::finish`] to decrypt the
//!    backup.
//!
//! §8 extensions implemented here: same-salt backup series (one puncture
//! revokes all), incremental backups under a SafetyPin-protected AES key,
//! per-recovery keypairs for failure-during-recovery, and salt protection
//! via a second location-hiding layer under the null PIN.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod remote;
pub mod retry;

use rand::{CryptoRng, RngCore};
use safetypin_authlog::trie::InclusionProof;
use safetypin_bfe::BfeCiphertext;
use safetypin_lhe::scheme::{encrypt_with_salt, reconstruct_robust, select, share_context, Salt};
use safetypin_lhe::{BfeDirectory, LheCiphertext, LheParams};
use safetypin_primitives::aead::{self, AeadCiphertext, AeadKey};
use safetypin_primitives::commit::{self, Commitment, Opening};
use safetypin_primitives::elgamal;
use safetypin_primitives::shamir::Share;
use safetypin_primitives::wire::{Decode, Encode};
use safetypin_primitives::CryptoError;
use safetypin_proto::messages::{build_commit_payload, ciphertext_commit_hash};
use safetypin_proto::{EnrollmentRecord, RecoveryRequest, RecoveryResponse};

/// The PIN used for the salt-protection layer (§6.3: "the salt itself can
/// be encrypted using a second round of location-hiding encryption and a
/// null PIN").
pub const NULL_PIN: &[u8] = b"";

/// Client-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// The enrollment list does not match the parameters.
    BadEnrollments(&'static str),
    /// Too few usable HSM responses to reconstruct.
    NotEnoughShares {
        /// Usable shares collected.
        got: usize,
        /// Threshold required.
        need: usize,
    },
    /// Reconstruction failed (wrong PIN, corrupted shares, or tampered
    /// ciphertext).
    RecoveryFailed,
    /// No incremental key established yet.
    NoIncrementalKey,
    /// Underlying cryptographic failure.
    Crypto(CryptoError),
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::BadEnrollments(why) => write!(f, "bad enrollment set: {why}"),
            ClientError::NotEnoughShares { got, need } => {
                write!(f, "only {got} usable shares, need {need}")
            }
            ClientError::RecoveryFailed => write!(f, "recovery failed"),
            ClientError::NoIncrementalKey => write!(f, "no incremental key established"),
            ClientError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

// The empty impl would satisfy `Box<dyn Error>` callers, but chaining the
// underlying failure through `source()` lets them walk to the root cause.
impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for ClientError {
    fn from(e: CryptoError) -> Self {
        ClientError::Crypto(e)
    }
}

/// A finished backup: the bytes to upload plus the series salt.
#[derive(Debug, Clone)]
pub struct BackupArtifact {
    /// Serialized recovery ciphertext (uploaded to the provider).
    pub ciphertext: Vec<u8>,
    /// The public salt of the backup series.
    pub salt: Salt,
    /// Configuration epoch recorded in the ciphertext.
    pub epoch: u64,
}

/// The SafetyPin client.
///
/// `Debug` output redacts key material (only the username and parameters
/// are shown).
pub struct Client {
    username: Vec<u8>,
    params: LheParams,
    enrollments: Vec<EnrollmentRecord>,
    series_salt: Option<Salt>,
    incremental_key: Option<AeadKey>,
    incremental_seq: u64,
}

impl core::fmt::Debug for Client {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Client")
            .field("username", &String::from_utf8_lossy(&self.username))
            .field("params", &self.params)
            .field("enrollments", &self.enrollments.len())
            .finish_non_exhaustive()
    }
}

impl Client {
    /// Creates a client from the downloaded enrollment records.
    ///
    /// The client must obtain the *true* public keys (§2); here it at
    /// least enforces structural validity: one record per HSM, ids
    /// `0..N`, valid proofs of possession.
    pub fn new(
        username: &[u8],
        params: LheParams,
        enrollments: Vec<EnrollmentRecord>,
    ) -> Result<Self, ClientError> {
        if enrollments.len() as u64 != params.total {
            return Err(ClientError::BadEnrollments("record count != N"));
        }
        for (i, e) in enrollments.iter().enumerate() {
            if e.id != i as u64 {
                return Err(ClientError::BadEnrollments("ids not contiguous"));
            }
            if !e.sig_vk.verify_possession(&e.sig_pop) {
                return Err(ClientError::BadEnrollments("bad proof of possession"));
            }
        }
        Ok(Self {
            username: username.to_vec(),
            params,
            enrollments,
            series_salt: None,
            incremental_key: None,
            incremental_seq: 0,
        })
    }

    /// The username this client authenticates as.
    pub fn username(&self) -> &[u8] {
        &self.username
    }

    /// Total bytes of keying material this client downloaded (the §9.2
    /// bandwidth number).
    pub fn keying_material_bytes(&self) -> u64 {
        self.enrollments
            .iter()
            .map(|e| e.serialized_len() as u64)
            .sum()
    }

    /// Creates a backup of `msg` under `pin`, reusing the series salt so
    /// one recovery's punctures revoke every backup in the series (§8).
    pub fn backup<R: RngCore + CryptoRng>(
        &mut self,
        pin: &[u8],
        msg: &[u8],
        epoch: u64,
        rng: &mut R,
    ) -> Result<BackupArtifact, ClientError> {
        let salt = match self.series_salt {
            Some(s) => s,
            None => {
                let s = Salt::random(rng);
                self.series_salt = Some(s);
                s
            }
        };
        self.backup_with_salt(pin, msg, salt, epoch, rng)
    }

    /// Starts a fresh backup series (after recovery, the client must pick
    /// a new salt, §8).
    pub fn reset_series<R: RngCore + CryptoRng>(&mut self, rng: &mut R) -> Salt {
        let s = Salt::random(rng);
        self.series_salt = Some(s);
        s
    }

    fn backup_with_salt<R: RngCore + CryptoRng>(
        &self,
        pin: &[u8],
        msg: &[u8],
        salt: Salt,
        epoch: u64,
        rng: &mut R,
    ) -> Result<BackupArtifact, ClientError> {
        let bfe_pks: Vec<_> = self.enrollments.iter().map(|e| e.bfe_pk.clone()).collect();
        let dir = BfeDirectory::new(&bfe_pks, &self.username, &salt);
        let ct = encrypt_with_salt(
            &self.params,
            &dir,
            &self.username,
            pin,
            salt,
            epoch,
            msg,
            rng,
        )?;
        Ok(BackupArtifact {
            ciphertext: ct.to_bytes(),
            salt,
            epoch,
        })
    }

    /// Prepares a recovery: recomputes the cluster from the PIN, commits
    /// to the cluster and ciphertext, and (optionally) generates a
    /// per-recovery keypair for encrypted replies (§8).
    pub fn start_recovery<R: RngCore + CryptoRng>(
        &self,
        pin: &[u8],
        ciphertext: &[u8],
        encrypted_replies: bool,
        rng: &mut R,
    ) -> Result<RecoveryAttempt, ClientError> {
        let ct: LheCiphertext<BfeCiphertext> =
            LheCiphertext::from_bytes(ciphertext).map_err(CryptoError::Wire)?;
        let cluster = select(&self.params, &ct.salt, pin);
        let payload = build_commit_payload(&cluster, &ciphertext_commit_hash(ciphertext));
        let (commitment, opening) = commit::commit(&payload, rng);
        let recovery_kp = encrypted_replies.then(|| elgamal::KeyPair::generate(rng));
        Ok(RecoveryAttempt {
            username: self.username.clone(),
            params: self.params,
            ct,
            ct_bytes: ciphertext.to_vec(),
            cluster,
            commitment,
            opening,
            recovery_kp,
        })
    }

    // ------------------------------------------------------------------
    // Incremental backups (§8)
    // ------------------------------------------------------------------

    /// Establishes (or returns) the device's incremental-backup AES key.
    /// The caller should back it up via [`Client::backup`]; subsequent
    /// increments never touch SafetyPin.
    pub fn incremental_key<R: RngCore + CryptoRng>(&mut self, rng: &mut R) -> &AeadKey {
        if self.incremental_key.is_none() {
            self.incremental_key = Some(AeadKey::random(rng));
        }
        self.incremental_key.as_ref().expect("just set")
    }

    /// Installs a recovered incremental key on a replacement device.
    pub fn install_incremental_key(&mut self, key: AeadKey) {
        self.incremental_key = Some(key);
        self.incremental_seq = 0;
    }

    /// Encrypts one incremental backup under the device AES key; the
    /// result goes straight to provider storage.
    pub fn incremental_backup<R: RngCore + CryptoRng>(
        &mut self,
        data: &[u8],
        rng: &mut R,
    ) -> Result<(u64, AeadCiphertext), ClientError> {
        let key = self
            .incremental_key
            .as_ref()
            .ok_or(ClientError::NoIncrementalKey)?;
        let seq = self.incremental_seq;
        let mut aad = self.username.clone();
        aad.extend_from_slice(&seq.to_be_bytes());
        let ct = aead::seal(key, &aad, data, rng);
        self.incremental_seq += 1;
        Ok((seq, ct))
    }

    /// Decrypts an incremental backup with the (recovered) key.
    pub fn decrypt_incremental(
        &self,
        key: &AeadKey,
        seq: u64,
        ct: &AeadCiphertext,
    ) -> Result<Vec<u8>, ClientError> {
        let mut aad = self.username.clone();
        aad.extend_from_slice(&seq.to_be_bytes());
        aead::open(key, &aad, ct).map_err(ClientError::Crypto)
    }

    // ------------------------------------------------------------------
    // Salt protection (§6.3, §8)
    // ------------------------------------------------------------------

    /// Wraps the series salt in a second location-hiding layer under the
    /// null PIN. Recovering the salt then leaves a log trace, letting the
    /// device decide whether PIN reuse is safe (§6.3).
    pub fn protect_salt<R: RngCore + CryptoRng>(
        &self,
        epoch: u64,
        rng: &mut R,
    ) -> Result<BackupArtifact, ClientError> {
        let salt = self
            .series_salt
            .ok_or(ClientError::BadEnrollments("no series salt to protect"))?;
        // The outer layer gets its own salt; the protected payload is the
        // series salt.
        let outer_salt = Salt::random(rng);
        self.backup_with_salt(NULL_PIN, &salt.0, outer_salt, epoch, rng)
    }
}

/// An in-flight recovery (Figure 3 steps 3–7).
pub struct RecoveryAttempt {
    username: Vec<u8>,
    params: LheParams,
    ct: LheCiphertext<BfeCiphertext>,
    ct_bytes: Vec<u8>,
    cluster: Vec<u64>,
    commitment: Commitment,
    opening: Opening,
    recovery_kp: Option<elgamal::KeyPair>,
}

impl RecoveryAttempt {
    /// The identifier-value pair the provider must insert into the log.
    pub fn log_entry(&self) -> (Vec<u8>, Vec<u8>) {
        (self.username.clone(), self.commitment.to_bytes())
    }

    /// The PIN-derived cluster (HSM ids, with possible repeats).
    pub fn cluster(&self) -> &[u64] {
        &self.cluster
    }

    /// The per-recovery secret key (present when encrypted replies were
    /// requested); back it up via SafetyPin *before* contacting HSMs so a
    /// replacement device can resume (§8).
    pub fn recovery_secret(&self) -> Option<[u8; 32]> {
        self.recovery_kp.as_ref().map(|kp| kp.sk.to_bytes())
    }

    /// Builds the per-HSM requests; each HSM decrypts all its cluster
    /// positions before its single puncture. The provider's recovery
    /// round replaces `inclusion` with its own proof (clients send
    /// `InclusionProof::default()`); auditor endorsements go empty.
    pub fn requests(&self, inclusion: &InclusionProof) -> Vec<(u64, RecoveryRequest)> {
        let mut by_hsm: std::collections::BTreeMap<u64, Vec<u32>> = Default::default();
        for (j, &i) in self.cluster.iter().enumerate() {
            by_hsm.entry(i).or_default().push(j as u32);
        }
        by_hsm
            .into_iter()
            .map(|(hsm_id, share_indices)| {
                (
                    hsm_id,
                    RecoveryRequest {
                        username: self.username.clone(),
                        salt: self.ct.salt,
                        opening: self.opening.clone(),
                        inclusion: inclusion.clone(),
                        ciphertext: self.ct_bytes.clone(),
                        share_indices,
                        recovery_pk: self.recovery_kp.as_ref().map(|kp| kp.pk),
                    },
                )
            })
            .collect()
    }

    /// Completes recovery from the HSM responses; tolerates missing HSMs
    /// (fail-stop) and corrupted shares via bounded robust reconstruction.
    ///
    /// §8 encrypted replies are all addressed to the one per-recovery
    /// key, so their ElGamal decryptions run as a single shared-scalar
    /// batch ([`elgamal::decrypt_many`]) rather than one exponentiation
    /// at a time.
    pub fn finish(&self, responses: Vec<RecoveryResponse>) -> Result<Vec<u8>, ClientError> {
        let context = share_context(&self.username, &self.ct.salt);
        let mut shares: Vec<Share> = Vec::new();
        let mut encrypted: Vec<elgamal::Ciphertext> = Vec::new();
        for response in responses {
            match response {
                RecoveryResponse::Plain(batch) => shares.extend(batch),
                RecoveryResponse::Encrypted(ct) => encrypted.push(ct),
            }
        }
        if !encrypted.is_empty() {
            if let Some(kp) = &self.recovery_kp {
                let items: Vec<(&[u8], &elgamal::Ciphertext)> = encrypted
                    .iter()
                    .map(|ct| (context.as_slice(), ct))
                    .collect();
                for pt in elgamal::decrypt_many(&kp.sk, &items).into_iter().flatten() {
                    let mut r = safetypin_primitives::wire::Reader::new(&pt);
                    if let Ok(batch) = r.get_seq::<Share>() {
                        shares.extend(batch);
                    }
                }
            }
        }
        if shares.len() < self.params.threshold {
            return Err(ClientError::NotEnoughShares {
                got: shares.len(),
                need: self.params.threshold,
            });
        }
        reconstruct_robust(&self.params, &self.username, &self.ct, &shares, 200)
            .map_err(|_| ClientError::RecoveryFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use safetypin_bfe::BfeParams;
    use safetypin_hsm::{Hsm, HsmConfig};
    use safetypin_seckv::MemStore;

    const TOTAL: u64 = 8;

    struct World {
        client: Client,
        hsms: Vec<Hsm>,
        stores: Vec<MemStore>,
        log: safetypin_authlog::log::Log,
        rng: StdRng,
    }

    fn world(username: &[u8]) -> World {
        let mut rng = StdRng::seed_from_u64(808);
        let mut hsms = Vec::new();
        let mut stores = Vec::new();
        for id in 0..TOTAL {
            let mut store = MemStore::new();
            let config = HsmConfig {
                id,
                bfe_params: BfeParams::new(128, 3).unwrap(),
                audits_per_epoch: 4,
                max_gc: 4,
                min_signers: TOTAL as usize,
            };
            hsms.push(Hsm::provision(config, &mut store, &mut rng).unwrap());
            stores.push(store);
        }
        let fleet: Vec<_> = hsms
            .iter()
            .map(|h| {
                let e = h.enrollment();
                (e.sig_vk, e.sig_pop)
            })
            .collect();
        for h in hsms.iter_mut() {
            h.register_fleet(&fleet).unwrap();
        }
        let params = LheParams::new(TOTAL, 4, 2, 10_000).unwrap();
        let enrollments = hsms.iter().map(|h| h.enrollment()).collect();
        let client = Client::new(username, params, enrollments).unwrap();
        World {
            client,
            hsms,
            stores,
            log: safetypin_authlog::log::Log::new(),
            rng,
        }
    }

    impl World {
        fn run_epoch(&mut self) {
            let cut = self.log.cut_epoch(self.hsms.len());
            let update = safetypin_authlog::distributed::EpochUpdate::build(&cut).unwrap();
            let msg = update.message();
            let mut sigs = Vec::new();
            for hsm in self.hsms.iter_mut() {
                let packages: Vec<_> = hsm
                    .audit_assignment(&msg, &[], &[])
                    .iter()
                    .map(|&c| update.audit_package(c).unwrap())
                    .collect();
                sigs.push(hsm.audit_and_sign(&msg, &packages).unwrap());
            }
            let agg = safetypin_multisig::aggregate_signatures(&sigs).unwrap();
            let signers: Vec<usize> = (0..self.hsms.len()).collect();
            for hsm in self.hsms.iter_mut() {
                hsm.accept_update(&msg, &signers, &agg).unwrap();
            }
        }

        fn recover(
            &mut self,
            pin: &[u8],
            artifact: &BackupArtifact,
            encrypted_replies: bool,
        ) -> Result<Vec<u8>, ClientError> {
            let attempt = self
                .client
                .start_recovery(pin, &artifact.ciphertext, encrypted_replies, &mut self.rng)
                .unwrap();
            let (id, value) = attempt.log_entry();
            self.log.insert(&id, &value).unwrap();
            self.run_epoch();
            let inclusion = self.log.prove_includes(&id, &value).unwrap();
            let mut responses = Vec::new();
            for (hsm_id, request) in attempt.requests(&inclusion) {
                if let safetypin_proto::HsmResponse::RecoveryShare { response } =
                    self.hsms[hsm_id as usize].handle(
                        safetypin_proto::HsmRequest::RecoverShare(request),
                        &mut self.stores[hsm_id as usize],
                        &mut self.rng,
                    )
                {
                    responses.push(response);
                }
            }
            attempt.finish(responses)
        }
    }

    #[test]
    fn backup_and_recover() {
        let mut w = world(b"alice");
        let artifact = w
            .client
            .backup(b"123456", b"the disk key", 0, &mut w.rng)
            .unwrap();
        let msg = w.recover(b"123456", &artifact, false).unwrap();
        assert_eq!(msg, b"the disk key");
    }

    #[test]
    fn wrong_pin_fails() {
        let mut w = world(b"bob");
        let artifact = w
            .client
            .backup(b"123456", b"secret", 0, &mut w.rng)
            .unwrap();
        let err = w.recover(b"654321", &artifact, false).unwrap_err();
        assert!(matches!(
            err,
            ClientError::NotEnoughShares { .. } | ClientError::RecoveryFailed
        ));
    }

    #[test]
    fn encrypted_replies_roundtrip() {
        let mut w = world(b"carol");
        let artifact = w.client.backup(b"0000", b"key", 0, &mut w.rng).unwrap();
        let msg = w.recover(b"0000", &artifact, true).unwrap();
        assert_eq!(msg, b"key");
    }

    #[test]
    fn series_salt_reused_until_reset() {
        let mut w = world(b"dave");
        let a1 = w.client.backup(b"1", b"v1", 0, &mut w.rng).unwrap();
        let a2 = w.client.backup(b"1", b"v2", 0, &mut w.rng).unwrap();
        assert_eq!(a1.salt, a2.salt);
        let new_salt = w.client.reset_series(&mut w.rng);
        assert_ne!(new_salt, a1.salt);
        let a3 = w.client.backup(b"1", b"v3", 0, &mut w.rng).unwrap();
        assert_eq!(a3.salt, new_salt);
    }

    #[test]
    fn bad_enrollments_rejected() {
        let w = world(b"erin");
        let params = LheParams::new(TOTAL, 4, 2, 10_000).unwrap();
        let mut enrollments: Vec<_> = w.hsms.iter().map(|h| h.enrollment()).collect();
        enrollments.pop();
        assert!(matches!(
            Client::new(b"erin", params, enrollments).unwrap_err(),
            ClientError::BadEnrollments(_)
        ));
        // Swapped PoP.
        let mut enrollments: Vec<_> = w.hsms.iter().map(|h| h.enrollment()).collect();
        let pop0 = enrollments[0].sig_pop;
        enrollments[0].sig_pop = enrollments[1].sig_pop;
        enrollments[1].sig_pop = pop0;
        assert!(matches!(
            Client::new(b"erin", params, enrollments).unwrap_err(),
            ClientError::BadEnrollments(_)
        ));
    }

    #[test]
    fn incremental_backups() {
        let mut w = world(b"frank");
        let mut rng = StdRng::seed_from_u64(5);
        let key = w.client.incremental_key(&mut rng).clone();
        let (seq0, ct0) = w
            .client
            .incremental_backup(b"day 1 delta", &mut rng)
            .unwrap();
        let (seq1, ct1) = w
            .client
            .incremental_backup(b"day 2 delta", &mut rng)
            .unwrap();
        assert_eq!((seq0, seq1), (0, 1));
        assert_eq!(
            w.client.decrypt_incremental(&key, 0, &ct0).unwrap(),
            b"day 1 delta"
        );
        assert_eq!(
            w.client.decrypt_incremental(&key, 1, &ct1).unwrap(),
            b"day 2 delta"
        );
        // Sequence binding: decrypting ct1 as seq 0 fails.
        assert!(w.client.decrypt_incremental(&key, 0, &ct1).is_err());
    }

    #[test]
    fn incremental_key_survives_recovery() {
        // Back up the incremental key via SafetyPin, "lose the phone",
        // recover the key, decrypt an increment — the §8 flow.
        let mut w = world(b"gina");
        let mut rng = StdRng::seed_from_u64(6);
        let key = w.client.incremental_key(&mut rng).clone();
        let (seq, inc_ct) = w.client.incremental_backup(b"photos", &mut rng).unwrap();
        let artifact = w
            .client
            .backup(b"9999", key.as_bytes(), 0, &mut w.rng)
            .unwrap();
        let recovered = w.recover(b"9999", &artifact, false).unwrap();
        let recovered_key = AeadKey::from_bytes(recovered.as_slice().try_into().unwrap());
        assert_eq!(
            w.client
                .decrypt_incremental(&recovered_key, seq, &inc_ct)
                .unwrap(),
            b"photos"
        );
    }

    #[test]
    fn salt_protection_under_null_pin() {
        let mut w = world(b"hank");
        let _ = w.client.backup(b"7777", b"m", 0, &mut w.rng).unwrap();
        let protected = w.client.protect_salt(0, &mut w.rng).unwrap();
        // The salt artifact recovers under the null PIN.
        let salt_bytes = w.recover(NULL_PIN, &protected, false).unwrap();
        assert_eq!(salt_bytes.len(), 32);
        assert_eq!(salt_bytes, w.client.series_salt.unwrap().0.to_vec());
    }

    #[test]
    fn recovery_secret_exposed_for_nesting() {
        let mut w = world(b"ivy");
        let artifact = w.client.backup(b"1", b"m", 0, &mut w.rng).unwrap();
        let attempt = w
            .client
            .start_recovery(b"1", &artifact.ciphertext, true, &mut w.rng)
            .unwrap();
        assert!(attempt.recovery_secret().is_some());
        let attempt_plain = w
            .client
            .start_recovery(b"1", &artifact.ciphertext, false, &mut w.rng)
            .unwrap();
        assert!(attempt_plain.recovery_secret().is_none());
    }

    #[test]
    fn keying_material_size_reported() {
        let w = world(b"jan");
        let bytes = w.client.keying_material_bytes();
        // 8 HSMs × (33 + 96 + 48 + BFE pk (128 slots × 33 + params) + ids).
        assert!(bytes > 8 * 4000, "got {bytes}");
    }
}
