//! Layer drivers: direct, timed calls into one crate at a time, at the
//! benchmark's fixed scale. They give the per-layer numbers no span
//! recorded from outside can reach (`Client::*`, `Log::*`, `bfe::*`,
//! `SecureArray::*`, a bare `FileStore`, one group multiplication).
//!
//! Every timing is the median of repeated calls, in milliseconds.

use std::path::Path;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::RngCore;
use safetypin_authlog::log::Log;
use safetypin_bfe::{BfeCiphertext, BfeParams};
use safetypin_client::remote::{self, ProviderEndpoint};
use safetypin_lhe::scheme::{encrypt_with_salt, reconstruct_robust, share_context, Salt};
use safetypin_lhe::{BfeDirectory, LheCiphertext};
use safetypin_multisig::{aggregate_signatures, verify_aggregate, SigningKey};
use safetypin_primitives::aead::{self, AeadKey};
use safetypin_primitives::wire::{Decode, Encode};
use safetypin_proto::{HsmResponse, ProviderRequest, ProviderResponse, RecoveryResponse};
use safetypin_seckv::{BlockStore, MemStore, SecureArray, StoreStats};
use safetypin_store::{FileOptions, FileStore};

use crate::flows::{Error, Fleet, Seeded};
use crate::gen;
use crate::report::Values;
use crate::spec::Scale;
use crate::stats;

/// Median wall time of `reps` calls of `f`, in milliseconds.
fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples)
}

/// A `BlockStore` that times the calls passing through it, so a driver
/// can report a layer's own time without its store's.
pub struct TimedStore<S> {
    inner: S,
    ms: f64,
}

impl<S: BlockStore> TimedStore<S> {
    pub fn new(inner: S) -> Self {
        Self { inner, ms: 0.0 }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let start = Instant::now();
        let value = f(&mut self.inner);
        self.ms += start.elapsed().as_secs_f64() * 1e3;
        value
    }
}

impl<S: BlockStore> BlockStore for TimedStore<S> {
    fn put(&mut self, addr: u64, block: &[u8]) {
        self.timed(|s| s.put(addr, block));
    }

    fn get(&mut self, addr: u64) -> Option<Vec<u8>> {
        self.timed(|s| s.get(addr))
    }

    fn remove(&mut self, addr: u64) {
        self.timed(|s| s.remove(addr));
    }

    fn flush(&mut self) {
        self.timed(BlockStore::flush);
    }

    fn io_stats(&self) -> StoreStats {
        self.inner.io_stats()
    }
}

/// Median self time of `reps` calls of `f` against `store`: wall time
/// minus the time spent inside the store.
fn self_ms<S: BlockStore, T>(
    reps: usize,
    store: &mut TimedStore<S>,
    mut f: impl FnMut(&mut TimedStore<S>) -> T,
) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let inside = store.ms;
            let start = Instant::now();
            std::hint::black_box(f(store));
            start.elapsed().as_secs_f64() * 1e3 - (store.ms - inside)
        })
        .collect();
    stats::median(&samples)
}

/// `client.*`, `lhe.*` and `bfe.encrypt_ms`: the client's side of a save
/// and of a recovery. `users` are seeded, uploaded and not yet
/// recovered; each is driven through the four provider requests by hand
/// so that `finish` and `reconstruct` can be timed on real HSM replies.
pub fn client_side<E: ProviderEndpoint>(
    endpoint: &mut E,
    fleet: &Fleet,
    users: &[Seeded],
    rng: &mut StdRng,
) -> Result<Values, Error> {
    let first = &users.first().ok_or("the client driver needs a user")?.user;
    let mut out = Values::new();

    let mut copies: Vec<_> = (0..12).map(|_| fleet.enrollments.clone()).collect();
    out.push((
        "client.new_ms",
        median_ms(copies.len(), || {
            let records = copies.pop().expect("one copy per repetition");
            safetypin_client::Client::new(&first.name, fleet.lhe, records)
        }),
    ));
    let mut client = fleet.client(&first.name)?;
    out.push(("client.keying_bytes", client.keying_material_bytes() as f64));
    out.push((
        "client.backup_ms",
        median_ms(20, || client.backup(&first.pin, &first.secret, 0, rng)),
    ));
    let artifact = client.backup(&first.pin, &first.secret, 0, rng)?;
    out.push((
        "client.start_recovery_ms",
        median_ms(50, || {
            client.start_recovery(&first.pin, &artifact.ciphertext, false, rng)
        }),
    ));

    let keys: Vec<_> = fleet.enrollments.iter().map(|e| e.bfe_pk.clone()).collect();
    let salt = Salt::random(rng);
    let directory = BfeDirectory::new(&keys, &first.name, &salt);
    out.push((
        "lhe.encrypt_ms",
        median_ms(20, || {
            encrypt_with_salt(
                &fleet.lhe,
                &directory,
                &first.name,
                &first.pin,
                salt,
                0,
                &first.secret,
                rng,
            )
        }),
    ));
    let context = share_context(&first.name, &salt);
    out.push((
        "bfe.encrypt_ms",
        median_ms(50, || {
            safetypin_bfe::encrypt(&keys[0], &directory.tag, &context, &[7u8; 64], rng)
        }),
    ));

    let mut finish = Vec::new();
    let mut reconstruct = Vec::new();
    for seeded in users {
        let user = &seeded.user;
        let client = fleet.client(&user.name)?;
        let artifact = remote::decode_artifact(&seeded.blob)?;
        let attempt = client.start_recovery(&user.pin, &artifact.ciphertext, false, rng)?;
        let (id, value) = attempt.log_entry();
        endpoint.call(ProviderRequest::InsertLog {
            id: id.clone(),
            value: value.clone(),
        })?;
        endpoint.call(ProviderRequest::RunEpoch)?;
        let proof = match endpoint.call(ProviderRequest::ProveInclusion { id, value })? {
            ProviderResponse::Inclusion(Some(proof)) => proof,
            _ => return Err("the client driver got no inclusion proof".into()),
        };
        let replies = match endpoint.call(ProviderRequest::Recover(attempt.requests(&proof)))? {
            ProviderResponse::Recovered(replies) => replies,
            _ => return Err("the client driver got no recovery round".into()),
        };
        let responses: Vec<RecoveryResponse> = replies
            .into_iter()
            .filter_map(|(_, reply)| match reply {
                HsmResponse::RecoveryShare { response, .. } => Some(response),
                _ => None,
            })
            .collect();
        let shares: Vec<_> = responses
            .iter()
            .flat_map(|r| match r {
                RecoveryResponse::Plain(shares) => shares.clone(),
                RecoveryResponse::Encrypted(_) => Vec::new(),
            })
            .collect();
        let ciphertext: LheCiphertext<BfeCiphertext> =
            LheCiphertext::from_bytes(&artifact.ciphertext)?;
        let start = Instant::now();
        let message = reconstruct_robust(&fleet.lhe, &user.name, &ciphertext, &shares, 200)?;
        reconstruct.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        let finished = attempt.finish(responses)?;
        finish.push(start.elapsed().as_secs_f64() * 1e3);
        if message != user.secret || finished != user.secret {
            return Err("the client driver recovered wrong bytes".into());
        }
    }
    out.push(("client.finish_ms", stats::median(&finish)));
    out.push(("lhe.reconstruct_ms", stats::median(&reconstruct)));
    Ok(out)
}

/// `authlog.*` on a log already holding `log_size` entries, and
/// `multisig.*` at the fleet's size.
pub fn log_and_multisig(scale: &Scale, log_size: usize, seed: u64) -> Values {
    let mut rng = gen::rng(seed, "driver-log", 0);
    let entry = |rng: &mut StdRng| {
        let mut id = vec![0u8; 32];
        let mut value = vec![0u8; 32];
        rng.fill_bytes(&mut id);
        rng.fill_bytes(&mut value);
        (id, value)
    };
    let chunks = scale.total as usize;
    let mut log = Log::new();
    let prefill: Vec<_> = (0..log_size).map(|_| entry(&mut rng)).collect();
    for wave in prefill.chunks(256) {
        log.insert_many(wave);
    }
    log.cut_epoch_certified(chunks);

    let mut out = Values::new();
    out.push((
        "authlog.insert_ms",
        median_ms(50, || {
            let (id, value) = entry(&mut rng);
            log.insert(&id, &value)
        }),
    ));
    out.push((
        "authlog.insert_many_ms",
        median_ms(20, || {
            let wave: Vec<_> = (0..crate::spec::WAVE).map(|_| entry(&mut rng)).collect();
            log.insert_many(&wave)
        }),
    ));
    log.cut_epoch_certified(chunks);
    let cuts: Vec<f64> = (0..20)
        .map(|_| {
            let (id, value) = entry(&mut rng);
            log.insert(&id, &value).expect("fresh identifiers insert");
            median_ms(1, || log.cut_epoch_certified(chunks))
        })
        .collect();
    out.push(("authlog.cut_epoch_ms", stats::median(&cuts)));
    let (id, value) = &prefill[prefill.len() / 2];
    out.push((
        "authlog.prove_ms",
        median_ms(50, || log.prove_includes(id, value)),
    ));
    out.push((
        "authlog.proof_bytes",
        log.prove_includes(id, value)
            .map_or(0.0, |proof| proof.to_bytes().len() as f64),
    ));

    let signers: Vec<SigningKey> = (0..chunks)
        .map(|_| SigningKey::generate(&mut rng))
        .collect();
    let keys: Vec<_> = signers.iter().map(SigningKey::verify_key).collect();
    let message = [0x42u8; 96];
    out.push((
        "multisig.sign_ms",
        median_ms(50, || signers[0].sign(&message)),
    ));
    let signatures: Vec<_> = signers.iter().map(|s| s.sign(&message)).collect();
    let aggregate = aggregate_signatures(&signatures).expect("the fleet is not empty");
    out.push((
        "multisig.verify_aggregate_ms",
        median_ms(20, || verify_aggregate(&keys, &message, &aggregate)),
    ));
    out
}

/// `bfe.*` and `seckv.*` over a [`TimedStore`]: one HSM's puncturable
/// key and one secure array at the benchmark's slot count. Timings are
/// self times (store time subtracted). Also returns the exact AEAD
/// operations one share request costs the array (`read_batch` +
/// `delete_batch` of the tag's `k` slots).
pub fn bfe_and_seckv(scale: &Scale, seed: u64) -> Result<(Values, f64), Error> {
    let mut rng = gen::rng(seed, "driver-bfe", 0);
    let params: BfeParams = scale.params().bfe;
    let hashes = params.hashes as usize;
    let mut out = Values::new();

    let mut store = TimedStore::new(MemStore::new());
    let mut key = None;
    let keygen = self_ms(1, &mut store, |store| {
        key = Some(safetypin_bfe::keygen(params, store, &mut rng));
    });
    let (public, mut secret, _) = key.expect("keygen ran")?;
    out.push(("bfe.keygen_ms_per_slot", keygen / params.slots as f64));

    let context = b"driver-context";
    let mut tag_counter = 0u64;
    let mut fresh = |rng: &mut StdRng| {
        tag_counter += 1;
        let tag = format!("driver-tag-{tag_counter}").into_bytes();
        let ciphertext = safetypin_bfe::encrypt(&public, &tag, context, &[9u8; 64], rng);
        (tag, ciphertext)
    };
    let decrypts: Vec<f64> = (0..30)
        .map(|_| {
            let (tag, ciphertext) = fresh(&mut rng);
            self_ms(1, &mut store, |store| {
                secret.decrypt(store, &tag, context, &ciphertext)
            })
        })
        .collect();
    out.push(("bfe.decrypt_ms", stats::median(&decrypts)));
    let punctures: Vec<f64> = (0..30)
        .map(|_| {
            let (tag, _) = fresh(&mut rng);
            self_ms(1, &mut store, |store| {
                secret.puncture(store, &tag, &mut rng)
            })
        })
        .collect();
    out.push(("bfe.puncture_ms", stats::median(&punctures)));
    let puncture_waves: Vec<f64> = (0..20)
        .map(|_| {
            let tags: Vec<Vec<u8>> = (0..4).map(|_| fresh(&mut rng).0).collect();
            let tags: Vec<&[u8]> = tags.iter().map(Vec::as_slice).collect();
            self_ms(1, &mut store, |store| {
                secret.puncture_many(store, &tags, &mut rng)
            })
        })
        .collect();
    out.push(("bfe.puncture_many_ms", stats::median(&puncture_waves)));

    let mut store = TimedStore::new(MemStore::new());
    let items: Vec<Vec<u8>> = (0..params.slots)
        .map(|i| i.to_be_bytes().repeat(4))
        .collect();
    let mut array = SecureArray::setup(&mut store, &items, &mut rng)?;
    let pick = |rng: &mut StdRng| -> Vec<u64> {
        (0..hashes).map(|_| rng.next_u64() % params.slots).collect()
    };
    let mut aead_ops = Vec::new();
    let mut reads = Vec::new();
    let mut deletes = Vec::new();
    for _ in 0..30 {
        let indices = pick(&mut rng);
        let before = array.metrics();
        reads.push(self_ms(1, &mut store, |store| {
            array.read_batch(store, &indices)
        }));
        deletes.push(self_ms(1, &mut store, |store| {
            array.delete_batch(store, &indices, &mut rng)
        }));
        let after = array.metrics();
        aead_ops.push(
            ((after.aead_enc_ops - before.aead_enc_ops)
                + (after.aead_dec_ops - before.aead_dec_ops)) as f64,
        );
    }
    out.push(("seckv.read_batch_ms", stats::median(&reads)));
    out.push(("seckv.delete_batch_ms", stats::median(&deletes)));
    Ok((out, stats::mean(&aead_ops)))
}

/// `store.put_ms`, `store.flush_ms` and `store.fsync_ms` on a bare
/// `FileStore` in `dir` under `Durability::Strict` — whatever durability
/// the run itself uses, this is what a durability barrier costs on the
/// host's disk. `fsync_ms` is the store's own `store.fsync` timing of
/// the barriers this driver issued.
pub fn file_store(dir: &Path) -> Result<Values, Error> {
    let mut store = FileStore::open(dir.join("driver-store"), FileOptions::default())?;
    let block = [0x3Cu8; 96];
    let mut addr = 0;
    let put = median_ms(200, || {
        addr += 1;
        store.put(addr, &block);
    });
    store.flush();
    let fsync = safetypin_telemetry::global().histogram("store.fsync");
    let before = fsync.snapshot();
    let flushes: Vec<f64> = (0..50)
        .map(|_| {
            addr += 1;
            store.put(addr, &block);
            median_ms(1, || store.flush())
        })
        .collect();
    let after = fsync.snapshot();
    let fsyncs = (after.count - before.count).max(1) as f64;
    Ok(vec![
        ("store.put_ms", put),
        ("store.flush_ms", stats::median(&flushes)),
        (
            "store.fsync_ms",
            (after.sum - before.sum) as f64 / 1e3 / fsyncs,
        ),
    ])
}

/// `primitives.mul_us` (one variable-base multiplication on the mock
/// group) and `primitives.aead_us_per_kib` (AES-GCM seal of 16 KiB).
pub fn primitives(seed: u64) -> Values {
    let mut rng = gen::rng(seed, "driver-primitives", 0);
    let point = p256::ProjectivePoint::GENERATOR * *p256::NonZeroScalar::random(&mut rng).as_ref();
    let scalar = *p256::NonZeroScalar::random(&mut rng).as_ref();
    let mul = median_ms(200, || {
        let mut acc = point;
        for _ in 0..100 {
            acc *= scalar;
        }
        acc
    });
    let key = AeadKey::random(&mut rng);
    let message = vec![0x11u8; 16 << 10];
    let seal = median_ms(50, || aead::seal(&key, b"driver", &message, &mut rng));
    vec![
        ("primitives.mul_us", mul * 1e3 / 100.0),
        ("primitives.aead_us_per_kib", seal * 1e3 / 16.0),
    ]
}
