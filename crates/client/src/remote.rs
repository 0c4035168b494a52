//! Client flows against a **remote** provider.
//!
//! Everything in the parent module works on in-process data the caller
//! already holds (enrollment records, inclusion proofs, HSM responses).
//! This module drives the same Figure 3 protocol against a provider
//! reached through a fallible request channel — one
//! [`ProviderRequest`] out, one [`ProviderResponse`] back — which is
//! exactly what `safetypin_proto::Tcp` offers against a `safetypind`
//! server:
//!
//! 1. [`connect`]: fetch the provider's [`StatusReport`] (which carries
//!    the fleet's LHE parameters) and the enrollment records, and build
//!    a [`Client`] from them — a bare device needs nothing but the
//!    server address and a username.
//! 2. [`save_many`]: produce a wave of backups locally and upload them
//!    in one [`ProviderRequest::SaveBatch`] frame; [`save`] is a wave of
//!    one.
//! 3. [`recover_many`]: **the** Figure 3 flow — one
//!    [`ProviderRequest::RecoverBatch`] request per wave, in which the
//!    provider logs every attempt, certifies them in one epoch and
//!    attaches each inclusion proof before contacting the clusters;
//!    then per-user reconstruction. [`recover`] is a wave of one. Every
//!    caller — the in-process `Deployment`, the benchmark, the chaos
//!    traffic plane, the CLI — reaches recovery through it.
//!
//! Failures stay typed end to end: a provider refusal arrives as
//! [`RemoteError::Refused`] carrying the server's [`ErrorReply`]
//! (stable code + detail), transport failures as
//! [`RemoteError::Transport`], and local reconstruction failures as
//! [`RemoteError::Client`] — each with its `source()` chain intact.

use safetypin_authlog::trie::InclusionProof;
use safetypin_lhe::{LheParams, Salt};
use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Reader, Writer};
use safetypin_proto::{
    codes, EnrollmentRecord, ErrorReply, HsmResponse, ProtoError, ProviderRequest,
    ProviderResponse, SaveRequest, StatusReport,
};

use crate::{BackupArtifact, Client, ClientError, RecoveryAttempt};

pub use crate::retry::{RetryPolicy, RetryStats, Retrying};

/// A fallible one-request/one-response channel to a provider.
///
/// Implemented by `safetypin_proto::Tcp` (a socket connection to
/// `safetypind`) and by any `FnMut(ProviderRequest) -> Result<...>`
/// closure — the latter lets tests drive these flows against an
/// in-process `Deployment` without a socket.
pub trait ProviderEndpoint {
    /// Sends one request and returns the provider's reply.
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError>;
}

impl ProviderEndpoint for safetypin_proto::Tcp {
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        safetypin_proto::Tcp::call(self, request)
    }
}

impl<F> ProviderEndpoint for F
where
    F: FnMut(ProviderRequest) -> Result<ProviderResponse, ProtoError>,
{
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        self(request)
    }
}

/// Errors from the remote flows.
#[derive(Debug, Clone)]
pub enum RemoteError {
    /// Local client-side failure (bad enrollments, reconstruction).
    Client(ClientError),
    /// The channel failed (socket error, frame violation, codec error).
    Transport(ProtoError),
    /// The provider answered with a typed refusal.
    Refused(ErrorReply),
    /// The provider answered with a well-formed message of the wrong
    /// kind for the request.
    Protocol(&'static str),
    /// No backup is stored under the requested username.
    NoBackup,
}

impl core::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RemoteError::Client(e) => write!(f, "client: {e}"),
            RemoteError::Transport(e) => write!(f, "transport: {e}"),
            RemoteError::Refused(e) => write!(f, "provider refused: {e}"),
            RemoteError::Protocol(what) => write!(f, "protocol violation: {what}"),
            RemoteError::NoBackup => write!(f, "no backup stored under this username"),
        }
    }
}

impl std::error::Error for RemoteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RemoteError::Client(e) => Some(e),
            RemoteError::Transport(e) => Some(e),
            RemoteError::Refused(_) | RemoteError::Protocol(_) | RemoteError::NoBackup => None,
        }
    }
}

impl From<ClientError> for RemoteError {
    fn from(e: ClientError) -> Self {
        RemoteError::Client(e)
    }
}

impl From<ProtoError> for RemoteError {
    fn from(e: ProtoError) -> Self {
        RemoteError::Transport(e)
    }
}

/// Unwraps one reply: `pick` takes the expected variant out, a typed
/// refusal becomes [`RemoteError::Refused`], anything else is a
/// protocol violation described by `wanted`.
fn expect<T>(
    reply: Result<ProviderResponse, ProtoError>,
    wanted: &'static str,
    pick: impl FnOnce(ProviderResponse) -> Result<T, ProviderResponse>,
) -> Result<T, RemoteError> {
    match pick(reply?) {
        Ok(value) => Ok(value),
        Err(ProviderResponse::Error(e)) => Err(RemoteError::Refused(e)),
        Err(_) => Err(RemoteError::Protocol(wanted)),
    }
}

/// The one outcome of a wave of one.
pub fn sole<T, E: From<RemoteError>>(mut wave: Vec<Result<T, E>>) -> Result<T, E> {
    wave.pop()
        .unwrap_or_else(|| Err(RemoteError::Protocol("the wave lost its member").into()))
}

/// Fetches the provider's status report.
pub fn fetch_status<E: ProviderEndpoint>(endpoint: &mut E) -> Result<StatusReport, RemoteError> {
    expect(
        endpoint.call(ProviderRequest::Status),
        "expected a Status reply",
        |reply| match reply {
            ProviderResponse::Status(report) => Ok(report),
            other => Err(other),
        },
    )
}

/// Downloads what every client of one fleet shares: the LHE parameters
/// (carried by the provider's [`StatusReport`]) and the fleet's
/// enrollment records ([`ProviderRequest::FetchEnrollments`]).
pub fn fetch_fleet<E: ProviderEndpoint>(
    endpoint: &mut E,
) -> Result<(LheParams, Vec<EnrollmentRecord>), RemoteError> {
    let status = fetch_status(endpoint)?;
    let params = LheParams::new(
        status.fleet_size,
        status.cluster as usize,
        status.threshold as usize,
        status.pin_space,
    )
    .map_err(|e| RemoteError::Client(ClientError::Crypto(e)))?;
    let enrollments = expect(
        endpoint.call(ProviderRequest::FetchEnrollments),
        "expected an Enrollments reply",
        |reply| match reply {
            ProviderResponse::Enrollments(list) => Ok(list),
            other => Err(other),
        },
    )?;
    Ok((params, enrollments))
}

/// Builds a [`Client`] from nothing but the channel and a username
/// ([`fetch_fleet`]). The client verifies every enrollment's proof of
/// possession itself, exactly as in [`Client::new`] — the provider is
/// untrusted either way.
pub fn connect<E: ProviderEndpoint>(
    endpoint: &mut E,
    username: &[u8],
) -> Result<Client, RemoteError> {
    let (params, enrollments) = fetch_fleet(endpoint)?;
    Ok(Client::new(username, params, enrollments)?)
}

/// One user's save job for [`save_many`].
pub struct SaveSession<'a> {
    /// The saving client (must have downloaded the enrollments).
    pub client: &'a mut Client,
    /// The PIN protecting the backup.
    pub pin: &'a [u8],
    /// The secret being backed up.
    pub secret: &'a [u8],
    /// Configuration epoch to record in the ciphertext.
    pub epoch: u64,
}

/// The save flow: every session's backup is built locally against the
/// client's cached enrollments, then the whole wave is uploaded in
/// **one** [`ProviderRequest::SaveBatch`] frame — one log insertion
/// per save, in session order, under one group-commit flush on the
/// provider, and no HSM message (paper §3–4). Outcomes come back per
/// user in session order (the artifact, which the caller may also keep
/// locally); one user's refusal never sinks the wave, a failed frame
/// fails every user it carried.
pub fn save_many<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    sessions: &mut [SaveSession<'_>],
    rng: &mut R,
) -> Vec<Result<BackupArtifact, RemoteError>> {
    safetypin_telemetry::span!("save.total_wave");
    let mut outcomes: Vec<Result<BackupArtifact, RemoteError>> = Vec::with_capacity(sessions.len());
    let mut saves = Vec::with_capacity(sessions.len());
    {
        safetypin_telemetry::span!("save.seal");
        for session in sessions.iter_mut() {
            let sealed = session
                .client
                .backup(session.pin, session.secret, session.epoch, rng);
            if let Ok(artifact) = &sealed {
                saves.push(SaveRequest {
                    username: session.client.username().to_vec(),
                    blob: encode_artifact(artifact),
                });
            }
            outcomes.push(sealed.map_err(RemoteError::Client));
        }
    }
    if saves.is_empty() {
        return outcomes;
    }
    let sent = saves.len();
    let mut verdicts = expect(
        endpoint.call(ProviderRequest::SaveBatch(saves)),
        "expected a SavedBatch reply",
        |reply| match reply {
            ProviderResponse::SavedBatch(verdicts) if verdicts.len() == sent => Ok(verdicts),
            other => Err(other),
        },
    )
    .map(|verdicts| verdicts.into_iter());
    for outcome in outcomes.iter_mut().filter(|o| o.is_ok()) {
        let refusal = match &mut verdicts {
            Ok(verdicts) => verdicts
                .next()
                .and_then(|v| v.error)
                .map(RemoteError::Refused),
            Err(e) => Some(e.clone()),
        };
        if let Some(e) = refusal {
            *outcome = Err(e);
        }
    }
    outcomes
}

/// Creates a backup of `secret` under `pin` and uploads it to the
/// provider's blob store, keyed by the client's username: a
/// [`save_many`] wave of one. Returns the artifact (the caller may also
/// keep it locally, but [`recover`] works from the uploaded copy alone).
pub fn save<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    client: &mut Client,
    pin: &[u8],
    secret: &[u8],
    rng: &mut R,
) -> Result<BackupArtifact, RemoteError> {
    let session = SaveSession {
        client,
        pin,
        secret,
        epoch: 0,
    };
    sole(save_many(endpoint, &mut [session], rng))
}

/// Fetches the backup blob stored under `username`.
pub fn fetch_backup<E: ProviderEndpoint>(
    endpoint: &mut E,
    username: &[u8],
) -> Result<BackupArtifact, RemoteError> {
    let stored = expect(
        endpoint.call(ProviderRequest::FetchBackup {
            username: username.to_vec(),
        }),
        "expected a Backup reply",
        |reply| match reply {
            ProviderResponse::Backup(stored) => Ok(stored),
            other => Err(other),
        },
    )?;
    decode_artifact(&stored.ok_or(RemoteError::NoBackup)?)
}

/// One user's recovery job for [`recover_many`].
pub struct RecoverySession<'a> {
    /// The recovering client (must have downloaded the enrollments).
    pub client: &'a Client,
    /// The PIN the user typed.
    pub pin: &'a [u8],
    /// The backup being recovered.
    pub artifact: &'a BackupArtifact,
}

/// One user's successful recovery.
#[derive(Debug)]
pub struct Recovered {
    /// The recovered plaintext.
    pub message: Vec<u8>,
    /// HSMs that returned shares.
    pub responders: usize,
    /// HSMs contacted.
    pub contacted: usize,
}

/// The Figure 3 recovery flow, for a whole wave of users:
///
/// * per user, the attempt is prepared and the per-HSM requests built,
///   with an empty inclusion proof;
/// * **one** [`ProviderRequest::RecoverBatch`] request does the rest:
///   the provider logs every attempt (one per identifier: a refused
///   insertion fails that user only), certifies them in one epoch,
///   attaches each user's inclusion proof, and contacts every cluster —
///   coalescing the wave's requests per HSM, each HSM auditing and
///   puncturing per group;
/// * per user, the secret is reconstructed from the shares that came
///   back.
///
/// That is the only request the wave sends. Outcomes come back per
/// user, in session order; one user's refusal (attempt already
/// consumed, wrong PIN) never sinks the wave, while a failure of the
/// shared request (its epoch, its round) fails every user it carried.
/// How many users share a wave is unobservable in the outcomes.
///
/// **Refusal policy**, decided here once: a per-HSM reply that is not a
/// share (a transport fault, a fail-stopped device, a refusal) is
/// skipped, and if the shares that did arrive reconstruct, the recovery
/// succeeds — the threshold scheme's fault tolerance. Otherwise the
/// error is the first refusal that is not an availability failure
/// (`LOG_REFUSED`, `NOT_IN_CLUSTER`, `DECRYPT_FAILED`, … stay
/// typed as [`RemoteError::Refused`]), or else the client's own
/// threshold error.
pub fn recover_many<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    sessions: &[RecoverySession<'_>],
    rng: &mut R,
) -> Vec<Result<Recovered, RemoteError>> {
    safetypin_telemetry::span!("recover.total_wave");
    let mut outcomes: Vec<Option<Result<Recovered, RemoteError>>> = Vec::new();
    outcomes.resize_with(sessions.len(), || None);

    // Step 2 per user: prepare the attempt; the placeholder proof is
    // replaced by the provider's round, which does steps 3–5.
    let mut batch = Vec::with_capacity(sessions.len());
    let mut pending: Vec<(usize, RecoveryAttempt)> = Vec::with_capacity(sessions.len());
    for (idx, session) in sessions.iter().enumerate() {
        match session
            .client
            .start_recovery(session.pin, &session.artifact.ciphertext, false, rng)
        {
            Ok(attempt) => {
                batch.push(attempt.requests(&InclusionProof::default()));
                pending.push((idx, attempt));
            }
            Err(e) => outcomes[idx] = Some(Err(RemoteError::Client(e))),
        }
    }

    // Steps 3–7: one recovery round for the whole wave, then per-user
    // reconstruction.
    if !pending.is_empty() {
        let users = pending.len();
        let served = expect(
            endpoint.call(ProviderRequest::RecoverBatch(batch)),
            "expected a RecoveredBatch reply for every user",
            |reply| match reply {
                ProviderResponse::RecoveredBatch(per_user) if per_user.len() == users => {
                    Ok(per_user)
                }
                other => Err(other),
            },
        );
        safetypin_telemetry::span!("recover.finish");
        match served {
            Ok(per_user) => {
                for ((idx, attempt), replies) in pending.into_iter().zip(per_user) {
                    outcomes[idx] = Some(reconstruct(&attempt, replies));
                }
            }
            Err(e) => {
                for (idx, _) in pending {
                    outcomes[idx] = Some(Err(e.clone()));
                }
            }
        }
    }
    outcomes
        .into_iter()
        .map(|o| o.unwrap_or(Err(RemoteError::Protocol("the wave lost a member"))))
        .collect()
}

/// One user's share of a recovery round → the secret, under the refusal
/// policy documented on [`recover_many`].
fn reconstruct(
    attempt: &RecoveryAttempt,
    replies: Vec<(u64, HsmResponse)>,
) -> Result<Recovered, RemoteError> {
    let contacted = replies.len();
    let mut responses = Vec::with_capacity(contacted);
    let mut refusal = None;
    for (_, reply) in replies {
        match reply {
            HsmResponse::RecoveryShare { response } => responses.push(response),
            HsmResponse::Error(e) if e.is_transport_fault() || e.code == codes::UNAVAILABLE => {}
            HsmResponse::Error(e) => {
                refusal.get_or_insert(RemoteError::Refused(e));
            }
            _ => {
                refusal.get_or_insert(RemoteError::Protocol("expected a RecoveryShare item"));
            }
        }
    }
    let responders = responses.len();
    match attempt.finish(responses) {
        Ok(message) => Ok(Recovered {
            message,
            responders,
            contacted,
        }),
        Err(e) => Err(refusal.unwrap_or(RemoteError::Client(e))),
    }
}

/// Runs the full Figure 3 recovery over the channel — a
/// [`recover_many`] wave of one — and returns the recovered secret.
pub fn recover<E: ProviderEndpoint, R: rand::RngCore + rand::CryptoRng>(
    endpoint: &mut E,
    client: &Client,
    pin: &[u8],
    artifact: &BackupArtifact,
    rng: &mut R,
) -> Result<Vec<u8>, RemoteError> {
    let session = RecoverySession {
        client,
        pin,
        artifact,
    };
    sole(recover_many(endpoint, &[session], rng)).map(|recovered| recovered.message)
}

/// Serializes an artifact for the provider's blob store:
/// `ciphertext ‖ salt ‖ epoch` in the strict wire codec.
pub fn encode_artifact(artifact: &BackupArtifact) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_bytes(&artifact.ciphertext);
    w.put_bytes(&artifact.salt.0);
    w.put_u64(artifact.epoch);
    w.into_bytes()
}

/// Parses a stored artifact blob (strict: trailing bytes rejected).
pub fn decode_artifact(blob: &[u8]) -> Result<BackupArtifact, RemoteError> {
    fn wire(e: WireError) -> RemoteError {
        RemoteError::Client(ClientError::Crypto(
            safetypin_primitives::CryptoError::Wire(e),
        ))
    }
    let mut r = Reader::new(blob);
    let ciphertext = r.get_bytes().map_err(wire)?.to_vec();
    let salt_bytes: [u8; 32] = r
        .get_bytes()
        .map_err(wire)?
        .try_into()
        .map_err(|_| wire(WireError::LengthOutOfRange))?;
    let epoch = r.get_u64().map_err(wire)?;
    if r.remaining() != 0 {
        return Err(wire(WireError::TrailingBytes));
    }
    Ok(BackupArtifact {
        ciphertext,
        salt: Salt(salt_bytes),
        epoch,
    })
}
