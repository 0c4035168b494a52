//! Parallel per-HSM fan-out for the datacenter's transport rounds.
//!
//! Every HSM in the fleet is an independent device with its own state and
//! its own outsourced block store, so a round (epoch audit / accept,
//! recovery, rotation, GC) and fleet provisioning are
//! embarrassingly parallel across devices. This module fans that work
//! out with [`std::thread::scope`] — no extra dependencies — through
//! **one** serving loop, [`serve_grouped`]: each addressed device serves
//! its whole request group via [`Hsm::handle_batch`]. Every fleet round
//! arrives grouped (a lone request is a group of one).
//!
//! Under it sits one claim loop, `fan_out`: the calling thread works
//! beside one scoped helper per further core, and each thread claims the
//! next device from a shared atomic cursor, one at a time, so an uneven
//! round (one device with a large recovery group, the rest with one
//! request each) leaves no core idle while jobs remain. Each job runs
//! under its own panic containment: a device that panics fails its own
//! group with a typed [`codes::INTERNAL`] error and nothing else.
//! Two guarantees the transport tests pin:
//!
//! * **Deterministic results.** Each device's work runs under its own
//!   RNG stream, seeded *sequentially* from the caller's RNG in a fixed
//!   order (ascending HSM id) before any job starts. The outcome is
//!   therefore a pure function of the caller's RNG state — independent
//!   of thread count, claim order and scheduling, and byte-identical
//!   whether the round arrived over the `Direct` or the `Serialized`
//!   transport.
//! * **Request order.** Responses come back in group order, each group's
//!   in request order, every group served whole by the one thread that
//!   claimed its device.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::{CryptoRng, RngCore, SeedableRng};
use safetypin_hsm::{Hsm, HsmConfig, HsmError};
use safetypin_proto::{
    codes, ErrorCode, ErrorReply, HsmRequest, HsmResponse, Traffic, TrafficReply,
};
use safetypin_seckv::{BlockStore, MemStore};

/// Worker-thread cap for `jobs` independent work items. The host's
/// parallelism is resolved once: `available_parallelism` re-reads the
/// cgroup quota files on every call, and this runs on every fleet round.
fn worker_count(jobs: usize) -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let cores = *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    cores.clamp(1, jobs.max(1))
}

/// The one fan-out loop: the calling thread and up to `workers − 1`
/// scoped helpers claim jobs one at a time from a shared cursor, and
/// each job's result is filed by its position, so the results come back
/// in job order whichever thread ran what. Each job is contained on its
/// own: a job that panics comes back `None`, for the caller to turn
/// into its own typed error, and every other job is still run and
/// returned — on one worker or many.
fn fan_out<J: Send, T: Send>(
    jobs: &mut [J],
    workers: usize,
    run: impl Fn(&mut J) -> T + Sync,
) -> Vec<Option<T>> {
    // One cell per job: the job it borrows, then its result. Only the
    // thread that claimed a cell's index ever locks it.
    let cells: Vec<Mutex<(&mut J, Option<T>)>> =
        jobs.iter_mut().map(|job| Mutex::new((job, None))).collect();
    let cursor = AtomicUsize::new(0);
    let work = || {
        while let Some(cell) = cells.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let mut cell = cell.lock().unwrap_or_else(PoisonError::into_inner);
            let (job, result) = &mut *cell;
            *result = panic::catch_unwind(AssertUnwindSafe(|| run(job))).ok();
        }
    };
    let helpers = workers.clamp(1, worker_count(cells.len())) - 1;
    // The scope joins the helpers; none can panic, as every job's panic
    // is caught inside its own cell.
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(work);
        }
        work();
    });
    cells
        .into_iter()
        .map(|cell| cell.into_inner().unwrap_or_else(PoisonError::into_inner).1)
        .collect()
}

/// Builds the fleet's serve side (`Datacenter::fleet_round` is the only
/// caller — no client reaches it). `Grouped` rounds go to
/// [`serve_grouped`]; every other class is refused with a typed
/// [`codes::UNSUPPORTED`] reply and reaches no device: the fleet
/// endpoint serves grouped HSM traffic only (the datacenter's
/// client-facing dispatch is `Datacenter::handle`).
///
/// Unknown ids become typed error replies — on the wire there is no
/// out-of-bounds index, only a device that does not answer.
pub(crate) fn serve_traffic<'a, S: BlockStore + Send, R: RngCore + CryptoRng>(
    hsms: &'a mut [Hsm],
    stores: &'a mut [S],
    rng: &'a mut R,
) -> impl FnMut(Traffic) -> TrafficReply + 'a {
    move |traffic| {
        let refusal = || {
            ErrorReply::new(
                codes::UNSUPPORTED,
                "the fleet endpoint serves grouped HSM traffic only",
            )
        };
        match traffic {
            Traffic::Grouped(groups) => {
                TrafficReply::Grouped(serve_grouped(hsms, stores, rng, usize::MAX, groups))
            }
            Traffic::Single(..) => TrafficReply::Single(HsmResponse::Error(refusal())),
            Traffic::Batch(batch) => TrafficReply::Batch(
                batch
                    .into_iter()
                    .map(|(id, _)| (id, HsmResponse::Error(refusal())))
                    .collect(),
            ),
            Traffic::Provider(_) => {
                TrafficReply::Provider(safetypin_proto::ProviderResponse::Error(refusal()))
            }
        }
    }
}

// serve_grouped: one coalesced request group per addressed HSM, each
// served by `Hsm::handle_batch` — cross-user coalesced punctures, one
// MSM slot audit, one group-commit flush — with independent devices
// fanned out across up to `workers` threads (the caller among them).
// Seeds are drawn sequentially in ascending HSM id order before any job
// starts, so the served outcome is a deterministic function of the
// caller's RNG for any worker count and any claim order.
// Unknown ids (and a device addressed twice in one round) come back as
// per-request typed error replies.

struct GroupJob<'b, S> {
    pos: usize,
    id: u64,
    hsm: &'b mut Hsm,
    store: &'b mut S,
    seed: [u8; 32],
    requests: Vec<HsmRequest>,
}

fn error_group(code: ErrorCode, id: u64, len: usize, detail: String) -> (u64, Vec<HsmResponse>) {
    (
        id,
        (0..len)
            .map(|_| HsmResponse::Error(ErrorReply::new(code, detail.clone())))
            .collect(),
    )
}

pub(crate) fn serve_grouped<S: BlockStore + Send, R: RngCore + CryptoRng>(
    hsms: &mut [Hsm],
    stores: &mut [S],
    rng: &mut R,
    workers: usize,
    groups: Vec<(u64, Vec<HsmRequest>)>,
) -> Vec<(u64, Vec<HsmResponse>)> {
    let n = groups.len();
    let mut results: Vec<Option<(u64, Vec<HsmResponse>)>> = Vec::with_capacity(n);
    results.resize_with(n, || None);

    let mut devices: Vec<Option<(&mut Hsm, &mut S)>> =
        hsms.iter_mut().zip(stores.iter_mut()).map(Some).collect();
    // Stage jobs in ascending id order: the caller's RNG consumption is
    // independent of the arrival order of the groups.
    let mut staged: Vec<(usize, u64, Vec<HsmRequest>)> = Vec::with_capacity(n);
    for (pos, (id, requests)) in groups.into_iter().enumerate() {
        staged.push((pos, id, requests));
    }
    staged.sort_by_key(|&(_, id, _)| id);

    // `metas[pos]` remembers each group's addressee and size so a
    // group whose job panicked still gets typed errors.
    let mut metas: Vec<(u64, usize)> = vec![(u64::MAX, 0); n];
    let mut jobs: Vec<GroupJob<'_, S>> = Vec::with_capacity(staged.len());
    for (pos, id, requests) in staged {
        if let Some(meta) = metas.get_mut(pos) {
            *meta = (id, requests.len());
        }
        match devices.get_mut(id as usize).and_then(Option::take) {
            Some((hsm, store)) => {
                let mut seed = [0u8; 32];
                rng.fill_bytes(&mut seed);
                jobs.push(GroupJob {
                    pos,
                    id,
                    hsm,
                    store,
                    seed,
                    requests,
                });
            }
            None => {
                if let Some(slot) = results.get_mut(pos) {
                    *slot = Some(error_group(
                        codes::UNKNOWN_HSM,
                        id,
                        requests.len(),
                        format!("no HSM with id {id} (or device addressed twice in one round)"),
                    ));
                }
            }
        }
    }

    // A job that panicked loses its own group only; that position
    // becomes typed errors below.
    let served = fan_out(&mut jobs, workers, |job| {
        let mut rng = StdRng::from_seed(job.seed);
        let requests = std::mem::take(&mut job.requests);
        let responses = job.hsm.handle_batch(requests, job.store, &mut rng);
        (job.pos, job.id, responses)
    });
    for (pos, id, responses) in served.into_iter().flatten() {
        if let Some(slot) = results.get_mut(pos) {
            *slot = Some((id, responses));
        }
    }
    results
        .into_iter()
        .enumerate()
        .map(|(pos, r)| {
            r.unwrap_or_else(|| {
                let (id, len) = metas.get(pos).copied().unwrap_or((u64::MAX, 0));
                error_group(
                    codes::INTERNAL,
                    id,
                    len,
                    "the device failed while serving this group".to_string(),
                )
            })
        })
        .collect()
}

/// Provisions `configs.len()` HSMs (key generation plus secret-array
/// setup — the dominant fleet-bringup cost) across up to `workers`
/// threads, returning devices in id order. Seeds are drawn sequentially
/// from `rng`, so the fleet is a deterministic function of the caller's
/// RNG state regardless of the worker count.
pub(crate) fn provision_fleet<R: RngCore + CryptoRng>(
    configs: Vec<HsmConfig>,
    workers: usize,
    rng: &mut R,
) -> Result<Vec<(Hsm, MemStore)>, HsmError> {
    let mut jobs: Vec<(HsmConfig, [u8; 32])> = configs
        .into_iter()
        .map(|config| {
            let mut seed = [0u8; 32];
            rng.fill_bytes(&mut seed);
            (config, seed)
        })
        .collect();
    // A device whose job panicked is not provisioned; surface it as a
    // fail-stop instead of propagating the panic.
    fan_out(&mut jobs, workers, |&mut (config, seed)| {
        let mut rng = StdRng::from_seed(seed);
        let mut store = MemStore::new();
        let hsm = Hsm::provision(config, &mut store, &mut rng)?;
        Ok((hsm, store))
    })
    .into_iter()
    .map(|provisioned| provisioned.unwrap_or(Err(HsmError::Unavailable)))
    .collect()
}

/// Runs each HSM's fleet-key registration (N proof-of-possession checks
/// per device — the quadratic half of bringup) across the available
/// cores, committing the registered keys to the device's store.
/// Registration consumes none of the caller's randomness (sealing
/// nonces come from the thread RNG, as in every provider-driven round),
/// so parallel execution is trivially deterministic.
pub(crate) fn register_fleet_parallel<S: BlockStore + Send>(
    fleet: &mut [(Hsm, S)],
    keys: &[(
        safetypin_multisig::VerifyKey,
        safetypin_multisig::ProofOfPossession,
    )],
) -> Result<(), HsmError> {
    // A device whose job panicked registered nothing; fail-stop, not
    // panic.
    fan_out(fleet, usize::MAX, |(hsm, store)| {
        hsm.register_fleet(keys)?;
        hsm.commit(store, &mut rand::thread_rng());
        Ok(())
    })
    .into_iter()
    .try_for_each(|outcome| outcome.unwrap_or(Err(HsmError::Unavailable)))
}
