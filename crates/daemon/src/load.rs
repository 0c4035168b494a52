//! The over-the-wire load generator.
//!
//! [`run`] drives a running `safetypind` through the client flows of
//! [`safetypin_client::remote`] — no shortcuts through in-process
//! state, and no protocol logic of its own — in four phases:
//!
//! 1. **save**: every user backs up a distinct secret under a distinct
//!    PIN and uploads the artifact ([`remote::save`], a wave of one),
//!    fanned out over [`LoadOptions::threads`] connections;
//!    1b. **save storm**: a second population of the same size saves
//!    as one [`remote::save_many`] wave — one enrollment refresh and
//!    one group-commit flush on the provider log for everyone;
//! 2. **solo recover**: half the users recover one at a time
//!    ([`remote::recover`], a wave of one), again over concurrent
//!    connections. The log-to-recover critical section is serialized
//!    by a client-side lock — an inclusion proof must be used against
//!    the epoch that produced it, and the daemon serializes fleet work
//!    anyway, so the measured rate is the honest end-to-end one;
//! 3. **batch wave**: the other half recovers as one
//!    [`remote::recover_many`] wave — one epoch, one frame of per-user
//!    request rounds.
//!
//! Every recovered plaintext is checked against the secret that was
//! saved; a mismatch is an error, not a statistic.

use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin_client::remote::{self, RecoverySession, RemoteError, SaveSession};
use safetypin_client::Client;
use safetypin_proto::tcp::{Tcp, TcpConfig};

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// The daemon address (`host:port`).
    pub addr: String,
    /// Total users (half recover solo, half in the batch wave).
    pub users: usize,
    /// Concurrent connections for the save and solo-recover phases.
    pub threads: usize,
}

impl LoadOptions {
    /// Defaults: 24 users over 4 connections.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            users: 24,
            threads: 4,
        }
    }

    /// Quick mode (CI): 6 users over 2 connections.
    pub fn quick(mut self) -> Self {
        self.users = 6;
        self.threads = 2;
        self
    }
}

/// Measured outcomes of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Users exercised: each saved once solo (phase 1), and as many
    /// again in the one-frame save storm (phase 1b).
    pub users: usize,
    /// Wall-clock seconds of the save phase.
    pub save_secs: f64,
    /// Wall-clock seconds of the save storm.
    pub wave_save_secs: f64,
    /// Individual recoveries completed (phase 2).
    pub solo_recoveries: usize,
    /// Wall-clock seconds of the solo-recover phase.
    pub recover_secs: f64,
    /// Users recovered by the batch wave (phase 3).
    pub wave_recoveries: usize,
    /// Wall-clock seconds of the batch wave.
    pub wave_secs: f64,
    /// Per-save wall-clock microseconds (phase 1, one sample per user).
    pub save_samples_us: Vec<u64>,
    /// Per-recovery wall-clock microseconds (phase 2, one per solo user).
    pub recover_samples_us: Vec<u64>,
}

/// The exact order statistic `sorted[max(1, ceil(q·n)) - 1]` of
/// `samples`, in milliseconds (0 when empty).
pub fn percentile_ms(samples: &[u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted.get(rank - 1).map_or(0.0, |v| *v as f64 / 1000.0)
}

fn username(i: usize) -> Vec<u8> {
    format!("load-user-{i}").into_bytes()
}

fn storm_username(i: usize) -> Vec<u8> {
    format!("storm-user-{i}").into_bytes()
}

fn pin(i: usize) -> Vec<u8> {
    format!("{:06}", (1319 * i + 71) % 1_000_000).into_bytes()
}

fn secret(i: usize) -> Vec<u8> {
    format!("wire-secret-{i}").into_bytes()
}

fn connect(addr: &str) -> Result<Tcp, RemoteError> {
    Ok(Tcp::connect(TcpConfig::new(addr))?)
}

/// Runs the four phases against `opts.addr`. Returns an error on the
/// first wrong byte, refused request, or socket failure.
pub fn run(opts: &LoadOptions) -> Result<LoadReport, RemoteError> {
    // One status + enrollment fetch serves every user: the clients
    // share fleet parameters and public keys, only usernames differ.
    let mut tcp = connect(&opts.addr)?;
    let (params, enrollments) = remote::fetch_fleet(&mut tcp)?;
    let mut clients = Vec::with_capacity(opts.users);
    for i in 0..opts.users {
        clients.push(Client::new(&username(i), params, enrollments.clone())?);
    }

    let threads = opts.threads.max(1);
    let chunk = opts.users.div_ceil(threads).max(1);

    // Phase 1: concurrent saves. Each worker samples every save's
    // wall-clock so the report can quote per-op wire percentiles, not
    // just the aggregate rate.
    let save_start = Instant::now();
    let save_samples_us = std::thread::scope(|s| -> Result<Vec<u64>, RemoteError> {
        let mut workers = Vec::new();
        for (tid, chunk_clients) in clients.chunks_mut(chunk).enumerate() {
            let addr = &opts.addr;
            workers.push(s.spawn(move || -> Result<Vec<u64>, RemoteError> {
                let mut tcp = connect(addr)?;
                let mut rng = StdRng::seed_from_u64(0x5AFE_0001 + tid as u64);
                let mut samples = Vec::with_capacity(chunk_clients.len());
                for (j, client) in chunk_clients.iter_mut().enumerate() {
                    let i = tid * chunk + j;
                    let op_start = Instant::now();
                    remote::save(&mut tcp, client, &pin(i), &secret(i), &mut rng)?;
                    samples.push(op_start.elapsed().as_micros() as u64);
                }
                Ok(samples)
            }));
        }
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(
                worker
                    .join()
                    .map_err(|_| RemoteError::Protocol("save worker panicked"))??,
            );
        }
        Ok(samples)
    })?;
    let save_secs = save_start.elapsed().as_secs_f64();

    // Phase 1b: the save storm. A second population of the same size
    // saves as one wave — one enrollment refresh and one group-commit
    // flush, measured over the socket against phase 1's
    // one-round-trip-per-user rate.
    let storm_start = Instant::now();
    let mut storm_rng = StdRng::seed_from_u64(0x5AFE_0B01);
    let mut storm_clients = Vec::with_capacity(opts.users);
    for i in 0..opts.users {
        storm_clients.push(Client::new(
            &storm_username(i),
            params,
            enrollments.clone(),
        )?);
    }
    let storm_inputs: Vec<(Vec<u8>, Vec<u8>)> =
        (0..opts.users).map(|i| (pin(i), secret(i))).collect();
    let mut storm: Vec<SaveSession<'_>> = storm_clients
        .iter_mut()
        .zip(&storm_inputs)
        .map(|(client, (pin, secret))| SaveSession {
            client,
            pin,
            secret,
            epoch: 0,
        })
        .collect();
    let mut first_blob = None;
    for saved in remote::save_many(&mut tcp, &mut storm, &mut storm_rng) {
        let artifact = saved?;
        first_blob.get_or_insert_with(|| remote::encode_artifact(&artifact));
    }
    // The wave's writes are visible exactly like solo saves: read one
    // back and compare bytes.
    if let Some(first_blob) = first_blob {
        let readback = remote::fetch_backup(&mut tcp, &storm_username(0))?;
        if remote::encode_artifact(&readback) != first_blob {
            return Err(RemoteError::Protocol("save wave stored wrong bytes"));
        }
    }
    let wave_save_secs = storm_start.elapsed().as_secs_f64();

    // Phase 2: concurrent solo recoveries over the first half. The
    // lock serializes each user's log-insert → epoch → proof → recover
    // span; backup fetches overlap freely.
    let solo_count = opts.users.div_ceil(2);
    let (solo, wave) = clients.split_at(solo_count);
    let epoch_lock = Mutex::new(());
    let solo_chunk = solo_count.div_ceil(threads).max(1);
    let recover_start = Instant::now();
    let recover_samples_us = std::thread::scope(|s| -> Result<Vec<u64>, RemoteError> {
        let mut workers = Vec::new();
        for (tid, chunk_clients) in solo.chunks(solo_chunk).enumerate() {
            let addr = &opts.addr;
            let epoch_lock = &epoch_lock;
            workers.push(s.spawn(move || -> Result<Vec<u64>, RemoteError> {
                let mut tcp = connect(addr)?;
                let mut rng = StdRng::seed_from_u64(0x5AFE_1001 + tid as u64);
                let mut samples = Vec::with_capacity(chunk_clients.len());
                for (j, client) in chunk_clients.iter().enumerate() {
                    let i = tid * solo_chunk + j;
                    let artifact = remote::fetch_backup(&mut tcp, client.username())?;
                    let guard = epoch_lock.lock().unwrap_or_else(|e| e.into_inner());
                    // Sample inside the lock: the measured span is the
                    // recovery protocol itself, not queueing on the
                    // client-side epoch lock.
                    let op_start = Instant::now();
                    let plaintext =
                        remote::recover(&mut tcp, client, &pin(i), &artifact, &mut rng)?;
                    samples.push(op_start.elapsed().as_micros() as u64);
                    drop(guard);
                    if plaintext != secret(i) {
                        return Err(RemoteError::Protocol("solo recovery returned wrong bytes"));
                    }
                }
                Ok(samples)
            }));
        }
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(
                worker
                    .join()
                    .map_err(|_| RemoteError::Protocol("recover worker panicked"))??,
            );
        }
        Ok(samples)
    })?;
    let recover_secs = recover_start.elapsed().as_secs_f64();

    // Phase 3: the second half recovers as one wave.
    let wave_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(0x5AFE_2001);
    let mut wave_inputs = Vec::with_capacity(wave.len());
    for (k, client) in wave.iter().enumerate() {
        let artifact = remote::fetch_backup(&mut tcp, client.username())?;
        wave_inputs.push((pin(solo_count + k), artifact));
    }
    let sessions: Vec<RecoverySession<'_>> = wave
        .iter()
        .zip(&wave_inputs)
        .map(|(client, (pin, artifact))| RecoverySession {
            client,
            pin,
            artifact,
        })
        .collect();
    let mut wave_recoveries = 0;
    for (k, recovered) in remote::recover_many(&mut tcp, &sessions, &mut rng)
        .into_iter()
        .enumerate()
    {
        if recovered?.message != secret(solo_count + k) {
            return Err(RemoteError::Protocol("wave recovery returned wrong bytes"));
        }
        wave_recoveries += 1;
    }
    let wave_secs = wave_start.elapsed().as_secs_f64();

    Ok(LoadReport {
        users: opts.users,
        save_secs,
        wave_save_secs,
        solo_recoveries: solo_count,
        recover_secs,
        wave_recoveries,
        wave_secs,
        save_samples_us,
        recover_samples_us,
    })
}
