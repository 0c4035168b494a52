//! Client flows the workloads share, written against any
//! [`ProviderEndpoint`] so the same code drives a `Tcp` connection to
//! the daemon and the traced in-process endpoint.

use rand::rngs::StdRng;
use safetypin_client::remote::{self, ProviderEndpoint, RemoteError};
use safetypin_client::{Client, RecoveryAttempt};
use safetypin_lhe::LheParams;
use safetypin_proto::{
    codes, EnrollmentRecord, HsmResponse, ProviderRequest, ProviderResponse, SaveRequest,
    StatusReport, MAX_SAVE_BATCH_USERS,
};

use crate::gen::{self, User};

pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// What every client of one fleet shares: parameters and the
/// enrollment records (≈17 MB at the full scale). Each `Client` gets
/// its own copy, because `Client::new` takes the records by value.
pub struct Fleet {
    pub lhe: LheParams,
    pub enrollments: Vec<EnrollmentRecord>,
}

impl Fleet {
    /// Downloads parameters and enrollments, as `remote::connect` does.
    pub fn fetch<E: ProviderEndpoint>(endpoint: &mut E) -> Result<Self, Error> {
        let status = remote::fetch_status(endpoint)?;
        let lhe = LheParams::new(
            status.fleet_size,
            status.cluster as usize,
            status.threshold as usize,
            status.pin_space,
        )?;
        let enrollments = match endpoint.call(ProviderRequest::FetchEnrollments)? {
            ProviderResponse::Enrollments(list) => list,
            other => return Err(unexpected("Enrollments", &other)),
        };
        Ok(Self { lhe, enrollments })
    }

    pub fn client(&self, name: &[u8]) -> Result<Client, Error> {
        Ok(Client::new(name, self.lhe, self.enrollments.clone())?)
    }
}

fn unexpected(wanted: &str, got: &ProviderResponse) -> Error {
    match got {
        ProviderResponse::Error(e) => format!("expected {wanted}, provider refused: {e}").into(),
        _ => format!("expected a {wanted} reply").into(),
    }
}

pub fn status<E: ProviderEndpoint>(endpoint: &mut E) -> Result<StatusReport, Error> {
    Ok(remote::fetch_status(endpoint)?)
}

/// A user whose backup has been built (and possibly its recovery
/// attempt prepared) but whose `Client` is already gone.
pub struct Seeded {
    pub user: User,
    /// The encoded artifact, exactly as the provider must store it.
    pub blob: Vec<u8>,
    /// Prepared with the right PIN when the workload replays waves.
    pub attempt: Option<RecoveryAttempt>,
}

/// Builds every user's backup on `threads` workers (a `Client` lives
/// only while its user is built). Deterministic: each user has its own
/// RNG stream and results keep input order.
pub fn seed_users(
    fleet: &Fleet,
    seed: u64,
    users: Vec<User>,
    with_attempt: bool,
    threads: usize,
) -> Result<Vec<Seeded>, Error> {
    let build = |index: usize, user: User| -> Result<Seeded, Error> {
        let mut rng = gen::rng(seed, "seed-user", index as u64);
        let mut client = fleet.client(&user.name)?;
        let artifact = client.backup(&user.pin, &user.secret, 0, &mut rng)?;
        let attempt = if with_attempt {
            Some(client.start_recovery(&user.pin, &artifact.ciphertext, false, &mut rng)?)
        } else {
            None
        };
        Ok(Seeded {
            user,
            blob: remote::encode_artifact(&artifact),
            attempt,
        })
    };
    let indexed: Vec<(usize, User)> = users.into_iter().enumerate().collect();
    let chunk = indexed.len().div_ceil(threads.max(1)).max(1);
    let mut out = Vec::with_capacity(indexed.len());
    std::thread::scope(|scope| -> Result<(), Error> {
        let workers: Vec<_> = indexed
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|(index, user)| build(*index, user.clone()))
                        .collect::<Result<Vec<_>, Error>>()
                })
            })
            .collect();
        for worker in workers {
            out.extend(worker.join().map_err(|_| "a seeding worker panicked")??);
        }
        Ok(())
    })?;
    Ok(out)
}

/// Keeps the first `want` users, in order, whose recovery will not meet
/// a Bloom-filter false positive, given that the users before them
/// recover first.
///
/// A share whose `k` slots were all punctured by earlier recoveries on
/// the same HSM cannot be decrypted (about one share in 10⁴ after 1500
/// recoveries at the benchmark's scale), and `remote::recover` and
/// `Deployment::recover_many` fail the user on it. The slots a recovery
/// punctures follow from public values — `Select(salt, PIN)` and
/// `indices_for_tag(H(username, salt))` — so the few users who would
/// lose a share are replaced by spares while seeding, and the workloads
/// are ones on which no operation fails.
pub fn drop_false_positives(
    fleet: &Fleet,
    bfe: safetypin_bfe::BfeParams,
    seeded: Vec<Seeded>,
    want: usize,
) -> Result<Vec<Seeded>, Error> {
    let mut punctured = vec![std::collections::HashSet::new(); fleet.lhe.total as usize];
    let mut kept = Vec::with_capacity(want);
    for candidate in seeded {
        if kept.len() == want {
            break;
        }
        let salt = remote::decode_artifact(&candidate.blob)?.salt;
        let cluster = safetypin_lhe::scheme::select(&fleet.lhe, &salt, &candidate.user.pin);
        let slots = bfe.indices_for_tag(&safetypin_lhe::puncture_tag(&candidate.user.name, &salt));
        let blocked = |hsm: &u64| {
            slots
                .iter()
                .all(|slot| punctured[*hsm as usize].contains(slot))
        };
        if cluster.iter().any(blocked) {
            continue;
        }
        for hsm in cluster {
            punctured[hsm as usize].extend(slots.iter().copied());
        }
        kept.push(candidate);
    }
    if kept.len() < want {
        return Err("too few spare users to replace those with a doomed share".into());
    }
    Ok(kept)
}

/// Uploads the seeded users' backups in `SaveBatch` frames, in order.
pub fn upload<E: ProviderEndpoint>(endpoint: &mut E, seeded: &[Seeded]) -> Result<(), Error> {
    for chunk in seeded.chunks(MAX_SAVE_BATCH_USERS.min(256)) {
        let saves = chunk
            .iter()
            .map(|s| SaveRequest {
                username: s.user.name.clone(),
                blob: s.blob.clone(),
            })
            .collect();
        match endpoint.call(ProviderRequest::SaveBatch(saves))? {
            ProviderResponse::SavedBatch(outcomes) => {
                if outcomes.len() != chunk.len() {
                    return Err("SaveBatch answered for the wrong number of users".into());
                }
                if let Some(e) = outcomes.into_iter().find_map(|o| o.error) {
                    return Err(format!("SaveBatch refused a user: {e}").into());
                }
            }
            other => return Err(unexpected("SavedBatch", &other)),
        }
    }
    Ok(())
}

/// One solo recovery for `user`: fetch the stored backup, then the full
/// Figure-3 `remote::recover`. Returns the recovered bytes.
pub fn fetch_and_recover<E: ProviderEndpoint>(
    endpoint: &mut E,
    client: &Client,
    user: &User,
    pin: &[u8],
    rng: &mut StdRng,
) -> Result<Vec<u8>, RemoteError> {
    let artifact = remote::fetch_backup(endpoint, &user.name)?;
    remote::recover(endpoint, client, pin, &artifact, rng)
}

/// One amortised recovery wave, as `safetypin-load` and the chaos
/// traffic plane drive it: an `InsertLog` per user, one `RunEpoch`, a
/// `ProveInclusion` per user, one `RecoverBatch`, then each user's
/// client-side `finish`. Per-user failures come back in that user's
/// slot; a failed shared frame fails the wave.
///
/// Unlike `remote::recover`, which gives up on the first HSM that
/// refuses, a refused share (a Bloom-filter false positive answers
/// `DECRYPT_FAILED` about once in 10⁴ shares at this scale) is counted
/// in `wasted_shares` and the user reconstructs from the rest, as the
/// threshold scheme allows.
pub fn recover_wave<E: ProviderEndpoint>(
    endpoint: &mut E,
    attempts: &[&RecoveryAttempt],
    wasted_shares: &mut u64,
) -> Result<Vec<Result<Vec<u8>, String>>, Error> {
    let mut outcomes: Vec<Option<Result<Vec<u8>, String>>> = vec![None; attempts.len()];
    for (slot, attempt) in outcomes.iter_mut().zip(attempts) {
        let (id, value) = attempt.log_entry();
        match endpoint.call(ProviderRequest::InsertLog { id, value })? {
            ProviderResponse::Ack => {}
            ProviderResponse::Error(e) => *slot = Some(Err(format!("log insert refused: {e}"))),
            other => return Err(unexpected("Ack", &other)),
        }
    }
    match endpoint.call(ProviderRequest::RunEpoch)? {
        ProviderResponse::EpochCertified { .. } => {}
        other => return Err(unexpected("EpochCertified", &other)),
    }
    let mut batch = Vec::new();
    let mut batch_slots = Vec::new();
    for (slot, attempt) in attempts.iter().enumerate() {
        if outcomes[slot].is_some() {
            continue;
        }
        let (id, value) = attempt.log_entry();
        match endpoint.call(ProviderRequest::ProveInclusion { id, value })? {
            ProviderResponse::Inclusion(Some(proof)) => {
                batch.push(attempt.requests(&proof));
                batch_slots.push(slot);
            }
            ProviderResponse::Inclusion(None) => {
                outcomes[slot] = Some(Err("no inclusion proof".to_string()));
            }
            other => return Err(unexpected("Inclusion", &other)),
        }
    }
    if !batch.is_empty() {
        let per_user = match endpoint.call(ProviderRequest::RecoverBatch(batch))? {
            ProviderResponse::RecoveredBatch(per_user) => per_user,
            other => return Err(unexpected("RecoveredBatch", &other)),
        };
        if per_user.len() != batch_slots.len() {
            return Err("RecoverBatch answered for the wrong number of users".into());
        }
        for (slot, replies) in batch_slots.into_iter().zip(per_user) {
            let mut responses = Vec::new();
            for (_, reply) in replies {
                match reply {
                    HsmResponse::RecoveryShare { response, .. } => responses.push(response),
                    _ => *wasted_shares += 1,
                }
            }
            outcomes[slot] = Some(attempts[slot].finish(responses).map_err(|e| e.to_string()));
        }
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Err("wave member fell through every phase".to_string())))
        .collect())
}

/// The correctness probes that run outside the timed window, through
/// the same endpoint the workload used:
///
/// * each probe user presents a wrong PIN: the recovery must fail with
///   a typed error, yield no plaintext, and burn exactly one attempt
///   (the log grows by one entry and a right-PIN retry is refused
///   without growing it again);
/// * `recovered`, a user the timed phase already recovered, must be
///   refused a second recovery.
///
/// Returns the number of checks that missed.
pub fn probe_refusals<E: ProviderEndpoint>(
    endpoint: &mut E,
    fleet: &Fleet,
    seed: u64,
    probes: &[Seeded],
    recovered: &User,
) -> Result<u64, Error> {
    let mut missed = 0;
    let mut rng = gen::rng(seed, "probe", 0);
    for Seeded { user, .. } in probes {
        let client = fleet.client(&user.name)?;
        let before = status(endpoint)?.log_entries;
        let wrong = gen::wrong_pin(&user.pin);
        match fetch_and_recover(endpoint, &client, user, &wrong, &mut rng) {
            Ok(_) => missed += 1,
            Err(RemoteError::Refused(_) | RemoteError::Client(_)) => {}
            Err(e) => return Err(format!("wrong-PIN probe failed untyped: {e}").into()),
        }
        if status(endpoint)?.log_entries != before + 1 {
            missed += 1;
        }
        match fetch_and_recover(endpoint, &client, user, &user.pin, &mut rng) {
            Err(RemoteError::Refused(e)) if e.code == codes::LOG_REFUSED => {}
            _ => missed += 1,
        }
        if status(endpoint)?.log_entries != before + 1 {
            missed += 1;
        }
    }
    let client = fleet.client(&recovered.name)?;
    match fetch_and_recover(endpoint, &client, recovered, &recovered.pin, &mut rng) {
        Err(RemoteError::Refused(e)) if e.code == codes::LOG_REFUSED => {}
        _ => missed += 1,
    }
    Ok(missed)
}
