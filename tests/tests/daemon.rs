//! Networked-service acceptance tests: a `safetypind` loopback daemon
//! must serve byte-identical protocol replies to the in-process
//! `Direct` path, survive malformed and abandoned connections with
//! typed errors (never a silent drop of a well-formed request), and
//! persist its fleet across a drain → restart cycle.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::primitives::error::WireError;
use safetypin::primitives::wire::{Decode, Encode};
use safetypin::{Deployment, SystemParams};
use safetypin_client::remote;
use safetypin_daemon::{Daemon, DaemonConfig, DaemonHandle};
use safetypin_proto::tcp::{client_handshake, read_frame, write_frame, HANDSHAKE_MAGIC};
use safetypin_proto::{
    codes, Envelope, HsmRequest, HsmResponse, Message, ProtoError, ProviderRequest,
    ProviderResponse, Tcp, TcpConfig, MAX_FRAME_BYTES, PROTO_VERSION,
};
use safetypin_store::{Durability, FileStore};

fn tmpdir(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("safetypin-daemon-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const SEED: u64 = 0x5AFE_D000;

fn config(tag: &str, seed: u64) -> DaemonConfig {
    DaemonConfig::new(tmpdir(tag), SystemParams::test_small(6))
        .durability(Durability::Relaxed)
        .io_timeout(Duration::from_secs(5))
        .seed(seed)
}

fn boot(tag: &str, seed: u64) -> (DaemonHandle, Tcp) {
    let handle = Daemon::bind(config(tag, seed)).unwrap();
    let tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string())).unwrap();
    (handle, tcp)
}

/// A control deployment provisioned exactly as the daemon's: same
/// parameters, same seed, its own snapshot directory. The returned RNG
/// is the same point in the same stream the daemon's service RNG is at.
fn control_world(tag: &str, seed: u64) -> (Deployment<FileStore>, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (deployment, _meta) = safetypin::DeploymentBuilder::new(SystemParams::test_small(6))
        .store_dir(tmpdir(tag))
        .durability(Durability::Relaxed)
        .open(&mut rng)
        .unwrap();
    (deployment, rng)
}

/// Issues `request` to the daemon over TCP *and* to the control world
/// directly, asserting the encoded replies are byte-identical.
fn call_both(
    tcp: &mut Tcp,
    control: &mut Deployment<FileStore>,
    rng: &mut StdRng,
    request: ProviderRequest,
) -> ProviderResponse {
    let remote = tcp.call(request.clone()).unwrap();
    let local = control.handle(request, rng);
    assert_eq!(
        remote.to_bytes(),
        local.to_bytes(),
        "TCP reply diverged from the Direct path"
    );
    local
}

/// The acceptance criterion: a save → recover round trip served over
/// real TCP is byte-identical, reply for reply, to the same requests
/// served in process — including the `RecoveryResponse` bytes the
/// client reconstructs from.
#[test]
fn tcp_save_recover_round_trip_is_byte_identical_to_direct() {
    let (handle, mut tcp) = boot("parity", SEED);
    let (mut control, mut srv_rng) = control_world("parity-control", SEED);
    let mut crng = StdRng::seed_from_u64(41);

    let mut client = control.new_client(b"alice").unwrap();
    let artifact = client
        .backup(b"271828", b"the wire-parity disk key", 0, &mut crng)
        .unwrap();

    call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::PutBackup {
            username: b"alice".to_vec(),
            blob: remote::encode_artifact(&artifact),
        },
    );
    let fetched = match call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::FetchBackup {
            username: b"alice".to_vec(),
        },
    ) {
        ProviderResponse::Backup(Some(blob)) => remote::decode_artifact(&blob).unwrap(),
        other => panic!("unexpected FetchBackup reply: {other:?}"),
    };
    assert_eq!(fetched.ciphertext, artifact.ciphertext);

    let attempt = client
        .start_recovery(b"271828", &fetched.ciphertext, false, &mut crng)
        .unwrap();
    let (id, value) = attempt.log_entry();
    call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::InsertLog {
            id: id.clone(),
            value: value.clone(),
        },
    );
    call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::RunEpoch,
    );
    let proof = match call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::ProveInclusion { id, value },
    ) {
        ProviderResponse::Inclusion(Some(proof)) => proof,
        other => panic!("unexpected ProveInclusion reply: {other:?}"),
    };
    let recovered = call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::Recover(attempt.requests(&proof)),
    );
    let responses = match recovered {
        ProviderResponse::Recovered(items) => items
            .into_iter()
            .filter_map(|(_, reply)| match reply {
                HsmResponse::RecoveryShare { response } => Some(response),
                _ => None,
            })
            .collect(),
        other => panic!("unexpected Recover reply: {other:?}"),
    };
    assert_eq!(
        attempt.finish(responses).unwrap(),
        b"the wire-parity disk key"
    );

    drop(tcp);
    handle.shutdown().unwrap();
}

/// The multi-user wave: one `RecoverBatch` frame over TCP yields the
/// same per-user reply bytes as the Direct path, and every user's
/// secret reconstructs.
#[test]
fn tcp_recover_batch_wave_is_byte_identical_to_direct() {
    let (handle, mut tcp) = boot("wave", SEED + 1);
    let (mut control, mut srv_rng) = control_world("wave-control", SEED + 1);
    let mut crng = StdRng::seed_from_u64(43);

    let users: Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> = (0..3)
        .map(|i| {
            (
                format!("wave-user-{i}").into_bytes(),
                format!("{:06}", 600_000 + i).into_bytes(),
                format!("wave-secret-{i}").into_bytes(),
            )
        })
        .collect();
    let mut attempts = Vec::new();
    for (username, pin, secret) in &users {
        let mut client = control.new_client(username).unwrap();
        let artifact = client.backup(pin, secret, 0, &mut crng).unwrap();
        let attempt = client
            .start_recovery(pin, &artifact.ciphertext, false, &mut crng)
            .unwrap();
        let (id, value) = attempt.log_entry();
        call_both(
            &mut tcp,
            &mut control,
            &mut srv_rng,
            ProviderRequest::InsertLog { id, value },
        );
        attempts.push(attempt);
    }
    call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::RunEpoch,
    );
    let mut batch = Vec::new();
    for attempt in &attempts {
        let (id, value) = attempt.log_entry();
        let proof = match call_both(
            &mut tcp,
            &mut control,
            &mut srv_rng,
            ProviderRequest::ProveInclusion { id, value },
        ) {
            ProviderResponse::Inclusion(Some(proof)) => proof,
            other => panic!("unexpected ProveInclusion reply: {other:?}"),
        };
        batch.push(attempt.requests(&proof));
    }
    let per_user = match call_both(
        &mut tcp,
        &mut control,
        &mut srv_rng,
        ProviderRequest::RecoverBatch(batch),
    ) {
        ProviderResponse::RecoveredBatch(per_user) => per_user,
        other => panic!("unexpected RecoverBatch reply: {other:?}"),
    };
    assert_eq!(per_user.len(), users.len());
    for ((attempt, replies), (_, _, secret)) in attempts.iter().zip(per_user).zip(&users) {
        let responses = replies
            .into_iter()
            .filter_map(|(_, reply)| match reply {
                HsmResponse::RecoveryShare { response } => Some(response),
                _ => None,
            })
            .collect();
        assert_eq!(&attempt.finish(responses).unwrap(), secret);
    }

    drop(tcp);
    handle.shutdown().unwrap();
}

fn log_entries(d: &mut Deployment, rng: &mut StdRng) -> u64 {
    match d.handle(ProviderRequest::Status, rng) {
        ProviderResponse::Status(status) => status.log_entries,
        other => panic!("unexpected Status reply: {other:?}"),
    }
}

/// The legacy four-request recovery with another connection's work
/// landing inside it: (a) a save between `RunEpoch` and
/// `ProveInclusion`, (b) another user's `InsertLog` + `RunEpoch` between
/// `ProveInclusion` and `RecoverBatch`. Either moves the log past the
/// digest the client's proof is for; the recovery round proves and
/// certifies the attempt itself, so the logged attempt still gets its
/// shares, the log grows by exactly what was sent, and a right-PIN
/// retry is refused without growing it.
#[test]
fn a_logged_attempt_recovers_whatever_lands_between_the_legacy_requests() {
    for foreign_epoch_after_proof in [false, true] {
        let mut rng = StdRng::seed_from_u64(SEED + 8);
        let mut d = Deployment::provision(SystemParams::test_small(6), &mut rng).unwrap();
        let artifact = d
            .save(b"alice", b"577215", b"alice's key", &mut rng)
            .unwrap();
        let alice = d.new_client(b"alice").unwrap();
        let carol_artifact = d
            .save(b"carol", b"141421", b"carol's key", &mut rng)
            .unwrap();
        let carol = d.new_client(b"carol").unwrap();
        let mut srv_rng = StdRng::seed_from_u64(SEED + 9);
        let before = log_entries(&mut d, &mut srv_rng);

        let attempt = alice
            .start_recovery(b"577215", &artifact.ciphertext, false, &mut rng)
            .unwrap();
        let (id, value) = attempt.log_entry();
        let mut call = |d: &mut Deployment, request| d.handle(request, &mut srv_rng);
        let insert = ProviderRequest::InsertLog {
            id: id.clone(),
            value: value.clone(),
        };
        assert_eq!(call(&mut d, insert), ProviderResponse::Ack);
        let certified =
            |reply: ProviderResponse| matches!(reply, ProviderResponse::EpochCertified { .. });
        assert!(certified(call(&mut d, ProviderRequest::RunEpoch)));
        if !foreign_epoch_after_proof {
            let mut bob = d.new_client(b"bob").unwrap();
            let saved = bob.backup(b"161803", b"bob's key", 0, &mut rng).unwrap();
            let put = ProviderRequest::PutBackup {
                username: b"bob".to_vec(),
                blob: remote::encode_artifact(&saved),
            };
            assert_eq!(call(&mut d, put), ProviderResponse::Ack);
        }
        let proof = match call(&mut d, ProviderRequest::ProveInclusion { id, value }) {
            ProviderResponse::Inclusion(Some(proof)) => proof,
            other => panic!("unexpected ProveInclusion reply: {other:?}"),
        };
        if foreign_epoch_after_proof {
            let (id, value) = carol
                .start_recovery(b"141421", &carol_artifact.ciphertext, false, &mut rng)
                .unwrap()
                .log_entry();
            let insert = ProviderRequest::InsertLog { id, value };
            assert_eq!(call(&mut d, insert), ProviderResponse::Ack);
            assert!(certified(call(&mut d, ProviderRequest::RunEpoch)));
        }
        let batch = ProviderRequest::RecoverBatch(vec![attempt.requests(&proof)]);
        let responses = match call(&mut d, batch) {
            ProviderResponse::RecoveredBatch(mut per_user) => per_user
                .pop()
                .unwrap()
                .into_iter()
                .map(|(_, reply)| match reply {
                    HsmResponse::RecoveryShare { response } => response,
                    other => panic!("an HSM refused the logged attempt: {other:?}"),
                })
                .collect(),
            other => panic!("unexpected RecoverBatch reply: {other:?}"),
        };
        assert_eq!(attempt.finish(responses).unwrap(), b"alice's key");
        assert_eq!(log_entries(&mut d, &mut srv_rng), before + 2);

        let mut endpoint = |request: ProviderRequest| -> Result<ProviderResponse, ProtoError> {
            Ok(d.handle(request, &mut srv_rng))
        };
        match remote::recover(&mut endpoint, &alice, b"577215", &artifact, &mut rng) {
            Err(remote::RemoteError::Refused(e)) => assert_eq!(e.code, codes::LOG_REFUSED),
            other => panic!("a consumed attempt was served again: {other:?}"),
        }
        assert_eq!(log_entries(&mut d, &mut srv_rng), before + 2);
    }
}

/// Four connections save and recover with no client-side lock: every
/// recovery returns its secret, every right-PIN retry is refused
/// `LOG_REFUSED`, and the log holds exactly one entry per save and per
/// attempt.
#[test]
fn unsynchronised_connections_never_burn_an_attempt() {
    const CONNECTIONS: usize = 4;
    const USERS: usize = 6;
    let handle = Daemon::bind(config("unsynchronised", SEED + 10)).unwrap();
    let addr = handle.addr().to_string();
    let start = std::sync::Barrier::new(CONNECTIONS);
    std::thread::scope(|scope| {
        for conn in 0..CONNECTIONS {
            let (addr, start) = (&addr, &start);
            scope.spawn(move || {
                let mut tcp = Tcp::connect(TcpConfig::new(addr.clone())).unwrap();
                let mut rng = StdRng::seed_from_u64(SEED + 11 + conn as u64);
                start.wait();
                for user in 0..USERS {
                    let name = format!("conn-{conn}-user-{user}").into_bytes();
                    let secret = format!("secret of {conn}/{user}").into_bytes();
                    let mut client = remote::connect(&mut tcp, &name).unwrap();
                    remote::save(&mut tcp, &mut client, b"299792", &secret, &mut rng).unwrap();
                    let artifact = remote::fetch_backup(&mut tcp, &name).unwrap();
                    let recovered =
                        remote::recover(&mut tcp, &client, b"299792", &artifact, &mut rng);
                    assert_eq!(recovered.unwrap(), secret, "a recovery was burned");
                    match remote::recover(&mut tcp, &client, b"299792", &artifact, &mut rng) {
                        Err(remote::RemoteError::Refused(e)) => {
                            assert_eq!(e.code, codes::LOG_REFUSED)
                        }
                        other => panic!("a consumed attempt was served again: {other:?}"),
                    }
                }
            });
        }
    });
    let mut tcp = Tcp::connect(TcpConfig::new(addr)).unwrap();
    let status = remote::fetch_status(&mut tcp).unwrap();
    assert_eq!(status.log_entries, (2 * CONNECTIONS * USERS) as u64);
    drop(tcp);
    handle.shutdown().unwrap();
}

/// A shutdown request drains the daemon — status stays observable and
/// reports `draining`, new work is refused with a typed
/// `SHUTTING_DOWN` — and the persisted fleet serves the saved backup
/// after a restart from the same directory.
#[test]
fn shutdown_persists_and_a_restart_serves_the_saved_backup() {
    let dir = tmpdir("restart");
    let mk_config = || {
        DaemonConfig::new(&dir, SystemParams::test_small(6))
            .durability(Durability::Relaxed)
            .io_timeout(Duration::from_secs(5))
            .seed(SEED + 2)
    };
    let handle = Daemon::bind(mk_config()).unwrap();
    let mut tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string())).unwrap();
    let mut rng = StdRng::seed_from_u64(47);

    // A bare client: parameters and enrollments all come off the wire.
    let mut client = remote::connect(&mut tcp, b"restart-user").unwrap();
    remote::save(
        &mut tcp,
        &mut client,
        b"314159",
        b"survives the restart",
        &mut rng,
    )
    .unwrap();

    assert_eq!(
        tcp.call(ProviderRequest::Shutdown).unwrap(),
        ProviderResponse::Ack
    );
    let status = match tcp.call(ProviderRequest::Status).unwrap() {
        ProviderResponse::Status(status) => status,
        other => panic!("unexpected Status reply: {other:?}"),
    };
    assert!(status.draining, "status must report the drain");
    assert_eq!(status.backups, 1);
    match tcp.call(ProviderRequest::RunEpoch).unwrap() {
        ProviderResponse::Error(e) => assert_eq!(e.code, codes::SHUTTING_DOWN),
        other => panic!("draining daemon accepted new work: {other:?}"),
    }
    drop(tcp);
    let meta = handle.wait().unwrap();
    assert_eq!(meta.fleet_size, 6);

    // Restart from the persisted directory; the seed only matters for
    // first boot, so the restored fleet must still hold the backup.
    let handle = Daemon::bind(mk_config()).unwrap();
    let mut tcp = Tcp::connect(TcpConfig::new(handle.addr().to_string())).unwrap();
    let client = remote::connect(&mut tcp, b"restart-user").unwrap();
    let artifact = remote::fetch_backup(&mut tcp, b"restart-user").unwrap();
    let plaintext = remote::recover(&mut tcp, &client, b"314159", &artifact, &mut rng).unwrap();
    assert_eq!(plaintext, b"survives the restart");
    drop(tcp);
    handle.shutdown().unwrap();
}

/// A client that dials with the wrong protocol version still receives
/// the server's hello (so it can fail typed), then a clean close.
#[test]
fn version_mismatch_handshake_is_answered_then_closed() {
    let (handle, tcp) = boot("handshake", SEED + 3);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut hello = [0u8; 6];
    hello[..4].copy_from_slice(&HANDSHAKE_MAGIC);
    hello[4..].copy_from_slice(&(PROTO_VERSION + 1).to_be_bytes());
    stream.write_all(&hello).unwrap();
    let mut reply = [0u8; 6];
    stream.read_exact(&mut reply).unwrap();
    assert_eq!(reply[..4], HANDSHAKE_MAGIC);
    assert_eq!(
        u16::from_be_bytes([reply[4], reply[5]]),
        PROTO_VERSION,
        "server must state its own version"
    );
    assert_eq!(
        stream.read(&mut [0u8; 1]).unwrap(),
        0,
        "server must close after a version mismatch"
    );

    drop(tcp);
    handle.shutdown().unwrap();
}

/// The mirrored case: a `Tcp` client dialing a wrong-version server
/// surfaces a typed `UnsupportedVersion`, not a dead socket.
#[test]
fn tcp_client_rejects_a_wrong_version_server_typed() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut hello = [0u8; 6];
        stream.read_exact(&mut hello).unwrap();
        let mut reply = [0u8; 6];
        reply[..4].copy_from_slice(&HANDSHAKE_MAGIC);
        reply[4..].copy_from_slice(&(PROTO_VERSION + 7).to_be_bytes());
        stream.write_all(&reply).unwrap();
    });
    match Tcp::connect(TcpConfig::new(addr.to_string())) {
        Err(ProtoError::Wire(WireError::UnsupportedVersion(v))) => {
            assert_eq!(v, PROTO_VERSION + 7)
        }
        Err(other) => panic!("expected a typed version error, got {other:?}"),
        Ok(_) => panic!("expected a typed version error, got a connection"),
    }
    server.join().unwrap();
}

/// A frame that declares more bytes than the cap earns a typed error
/// reply before the connection closes, and the daemon keeps serving
/// everyone else.
#[test]
fn oversized_frame_gets_a_typed_error_and_daemon_survives() {
    let (handle, mut tcp) = boot("oversized", SEED + 4);

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client_handshake(&mut stream).unwrap();
    stream
        .write_all(&((MAX_FRAME_BYTES as u32) + 1).to_be_bytes())
        .unwrap();
    let reply = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    match Envelope::from_bytes(&reply).unwrap().msg {
        Message::ProviderResponse(ProviderResponse::Error(e)) => {
            assert_eq!(e.code, codes::WIRE);
            assert!(e.detail.contains("frame"), "detail was: {}", e.detail);
        }
        other => panic!("expected a typed error reply, got {other:?}"),
    }
    assert_eq!(
        stream.read(&mut [0u8; 1]).unwrap(),
        0,
        "an oversized declaration makes the stream unrecoverable"
    );

    // The daemon is unharmed: the open connection still serves.
    assert!(matches!(
        tcp.call(ProviderRequest::Status).unwrap(),
        ProviderResponse::Status(_)
    ));
    drop(tcp);
    handle.shutdown().unwrap();
}

/// A connection that dies mid-frame (truncated payload) is dropped
/// without poisoning the daemon; a garbage payload that *does* frame
/// correctly earns a typed error and the connection stays usable.
#[test]
fn truncated_and_garbage_frames_leave_the_daemon_serving() {
    let (handle, mut tcp) = boot("truncated", SEED + 5);

    // Truncated: declare 64 bytes, send 10, half-close, expect no reply.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client_handshake(&mut stream).unwrap();
    stream.write_all(&64u32.to_be_bytes()).unwrap();
    stream.write_all(&[0xAB; 10]).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(
        stream.read(&mut [0u8; 1]).unwrap(),
        0,
        "a truncated frame cannot be answered"
    );
    drop(stream);

    // Garbage-but-framed: typed error reply, connection stays up.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client_handshake(&mut stream).unwrap();
    write_frame(&mut stream, &[0xCD; 32]).unwrap();
    let reply = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    match Envelope::from_bytes(&reply).unwrap().msg {
        Message::ProviderResponse(ProviderResponse::Error(e)) => assert_eq!(e.code, codes::WIRE),
        other => panic!("expected a typed error reply, got {other:?}"),
    }
    let status_frame = Envelope::seal(Message::ProviderRequest(ProviderRequest::Status)).to_bytes();
    write_frame(&mut stream, &status_frame).unwrap();
    let reply = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    assert!(matches!(
        Envelope::from_bytes(&reply).unwrap().msg,
        Message::ProviderResponse(ProviderResponse::Status(_))
    ));
    drop(stream);

    // A client vanishing mid-request never wedges the daemon.
    assert!(matches!(
        tcp.call(ProviderRequest::Status).unwrap(),
        ProviderResponse::Status(_)
    ));
    drop(tcp);
    handle.shutdown().unwrap();
}

/// The socket serves the provider API only: well-formed HSM-level
/// frames (which would rotate a device's keys or spend its GC budget if
/// they reached the fleet) are refused typed, the connection stays up,
/// and no HSM is touched — every key epoch is what it was at boot and a
/// backup saved beforehand still recovers.
#[test]
fn raw_hsm_frames_are_refused_typed_and_reach_no_hsm() {
    let (handle, mut tcp) = boot("hsm-frames", SEED + 7);
    let mut rng = StdRng::seed_from_u64(53);
    let boot_epochs: Vec<u64> = match tcp.call(ProviderRequest::FetchEnrollments).unwrap() {
        ProviderResponse::Enrollments(records) => records.iter().map(|r| r.key_epoch).collect(),
        other => panic!("unexpected FetchEnrollments reply: {other:?}"),
    };
    let mut client = remote::connect(&mut tcp, b"carol").unwrap();
    remote::save(
        &mut tcp,
        &mut client,
        b"161803",
        b"outlives the raw frames",
        &mut rng,
    )
    .unwrap();

    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    client_handshake(&mut stream).unwrap();
    let mut exchange = |frame: Vec<u8>| {
        write_frame(&mut stream, &frame).unwrap();
        let reply = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
        Envelope::from_bytes(&reply).unwrap().msg
    };
    for requests in [
        vec![HsmRequest::RotateKeys],
        vec![HsmRequest::GarbageCollect],
    ] {
        let msg = Message::HsmGroupRequest { id: 0, requests };
        match exchange(Envelope::seal(msg).to_bytes()) {
            Message::ProviderResponse(ProviderResponse::Error(e)) => {
                assert_eq!(e.code, codes::UNSUPPORTED)
            }
            other => panic!("an HSM-level frame was served: {other:?}"),
        }
    }
    // A batch of one `RotateKeys` under the retired `Message` tag 2, as
    // a version-2 peer framed it: undecodable now, refused as such.
    let mut retired = PROTO_VERSION.to_be_bytes().to_vec();
    retired.push(2);
    retired.extend_from_slice(&1u32.to_be_bytes());
    retired.extend_from_slice(&0u64.to_be_bytes());
    retired.extend_from_slice(&HsmRequest::RotateKeys.to_bytes());
    match exchange(retired) {
        Message::ProviderResponse(ProviderResponse::Error(e)) => assert_eq!(e.code, codes::WIRE),
        other => panic!("a retired-tag frame was served: {other:?}"),
    }
    assert!(matches!(
        exchange(Envelope::seal(Message::ProviderRequest(ProviderRequest::Status)).to_bytes()),
        Message::ProviderResponse(ProviderResponse::Status(_))
    ));
    drop(stream);

    let artifact = remote::fetch_backup(&mut tcp, b"carol").unwrap();
    let plaintext = remote::recover(&mut tcp, &client, b"161803", &artifact, &mut rng).unwrap();
    assert_eq!(plaintext, b"outlives the raw frames");
    drop(tcp);
    let meta = handle.shutdown().unwrap();
    assert_eq!(
        meta.key_epochs, boot_epochs,
        "no key rotation can come in through the socket"
    );
}

/// Admission control and rate limiting surface as typed refusals on
/// well-formed connections — the socket itself stays healthy.
#[test]
fn overload_and_rate_limit_are_typed_refusals() {
    let handle = Daemon::bind(config("policy", SEED + 6).max_connections(1).rate_limit(1)).unwrap();
    let addr = handle.addr().to_string();

    let mut tcp1 = Tcp::connect(TcpConfig::new(addr.clone())).unwrap();
    // One served round guarantees connection 1 is counted as active.
    assert!(matches!(
        tcp1.call(ProviderRequest::Status).unwrap(),
        ProviderResponse::Status(_)
    ));

    // Second connection: over the ceiling, every request refused typed.
    let mut tcp2 = Tcp::connect(TcpConfig::new(addr)).unwrap();
    match tcp2.call(ProviderRequest::FetchEnrollments).unwrap() {
        ProviderResponse::Error(e) => assert_eq!(e.code, codes::OVERLOADED),
        other => panic!("expected an OVERLOADED refusal, got {other:?}"),
    }
    drop(tcp2);

    // Rate limit: the bucket holds one request; the immediate second
    // one is refused (status is control-plane and exempt).
    assert!(matches!(
        tcp1.call(ProviderRequest::FetchEnrollments).unwrap(),
        ProviderResponse::Enrollments(_)
    ));
    match tcp1.call(ProviderRequest::FetchEnrollments).unwrap() {
        ProviderResponse::Error(e) => assert_eq!(e.code, codes::RATE_LIMITED),
        other => panic!("expected a RATE_LIMITED refusal, got {other:?}"),
    }
    drop(tcp1);
    handle.shutdown().unwrap();
}

/// A refused connection holds no admission slot, even while it stays
/// open (a retrying client re-sends `OVERLOADED` requests on the same
/// socket): once the one admitted connection leaves, the next newcomer
/// is admitted.
#[test]
fn a_refused_connection_holds_no_admission_slot() {
    let handle = Daemon::bind(config("admission", SEED + 7).max_connections(1)).unwrap();
    let addr = handle.addr().to_string();
    let active = |tcp: &mut Tcp| match tcp.call(ProviderRequest::Status).unwrap() {
        ProviderResponse::Status(report) => report.active_connections,
        other => panic!("expected a Status reply, got {other:?}"),
    };

    // A is admitted; one served round guarantees it is counted.
    let mut a = Tcp::connect(TcpConfig::new(addr.clone())).unwrap();
    assert_eq!(active(&mut a), 1);

    // B is refused, stays connected, and is not counted.
    let mut b = Tcp::connect(TcpConfig::new(addr.clone())).unwrap();
    match b.call(ProviderRequest::FetchEnrollments).unwrap() {
        ProviderResponse::Error(e) => assert_eq!(e.code, codes::OVERLOADED),
        other => panic!("expected an OVERLOADED refusal, got {other:?}"),
    }

    // A leaves; its serving thread releases the slot once it reads the
    // close. Status is control-plane, so B can watch for that.
    drop(a);
    let patience = std::time::Instant::now() + Duration::from_secs(2);
    while active(&mut b) != 0 && std::time::Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(5));
    }

    // C arrives while B is still open: no admitted connection is, so C
    // is served.
    let mut c = Tcp::connect(TcpConfig::new(addr)).unwrap();
    match c.call(ProviderRequest::FetchEnrollments).unwrap() {
        ProviderResponse::Enrollments(list) => assert!(!list.is_empty()),
        other => panic!("C refused although no admitted connection is open: {other:?}"),
    }
    assert_eq!(active(&mut b), 1, "only C is admitted");
    drop((b, c));
    handle.shutdown().unwrap();
}
