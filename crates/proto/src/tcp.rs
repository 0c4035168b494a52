//! The real-socket transport: length-prefixed [`Envelope`] frames over
//! [`std::net::TcpStream`].
//!
//! # Wire format
//!
//! Connections open with a 6-byte hello in each direction (client
//! first):
//!
//! ```text
//! magic   : [u8; 4] — b"SFPN"
//! version : u16     — PROTO_VERSION, big-endian
//! ```
//!
//! The server answers a well-formed hello even when the client's
//! version is wrong (so the client gets a typed
//! [`WireError::UnsupportedVersion`] instead of a dead socket), then
//! closes. A hello with the wrong magic is not answered at all — the
//! peer is not speaking this protocol.
//!
//! After the handshake, every message in either direction is one frame:
//!
//! ```text
//! length  : u32   — big-endian byte count of the payload
//! payload : bytes — one Envelope (version, tag, message), strict codec
//! ```
//!
//! A frame header declaring more than [`MAX_FRAME_BYTES`] is rejected
//! with [`WireError::FrameTooLarge`] before its body is read — a peer
//! cannot force an unbounded allocation with a 4-byte lie. A payload
//! that does not decode as an envelope earns a typed
//! [`ProviderResponse::Error`] reply and the connection stays up;
//! socket failures surface as [`WireError::Io`], never panics.
//!
//! # Request mapping
//!
//! [`Tcp`] implements [`Transport::round`] by sealing each
//! [`Traffic`] class into the existing [`Message`] kinds: batches as
//! [`Message::HsmBatchRequest`], grouped rounds as one
//! [`Message::HsmGroupRequest`] frame per device per direction (the
//! grouped contract), provider calls as [`Message::ProviderRequest`],
//! and a single exchange as a one-item batch (the HSM address must
//! cross the socket, and a batch is the only addressed single-envelope
//! shape). A service-level refusal ([`ProviderResponse::Error`], e.g.
//! rate limiting) to HSM traffic is converted into per-item
//! [`HsmResponse::Error`] replies so a cluster round degrades instead
//! of aborting.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Decode, Encode};

use crate::api::{codes, ErrorReply, HsmResponse, ProviderRequest, ProviderResponse};
use crate::envelope::{Envelope, Message, PROTO_VERSION};
use crate::error::ProtoError;
use crate::transport::{ServeTrafficFn, Traffic, TrafficReply, Transport, TransportStats};

/// The 4-byte connection-hello magic.
pub const HANDSHAKE_MAGIC: [u8; 4] = *b"SFPN";

/// Upper bound on one frame's payload. Matches the codec's per-field
/// sanity limit (`safetypin_primitives::wire::MAX_FIELD_LEN`).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

fn io_err(e: io::Error) -> ProtoError {
    ProtoError::Wire(WireError::from(e))
}

/// Writes one length-prefixed frame and flushes it.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), ProtoError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(ProtoError::Wire(WireError::FrameTooLarge {
            len: payload.len() as u64,
            max: MAX_FRAME_BYTES as u64,
        }));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())
        .map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes. `Ok(false)` means the peer closed
/// cleanly before the first byte; a close mid-buffer is a typed
/// [`WireError::Io`] with [`io::ErrorKind::UnexpectedEof`].
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<bool, ProtoError> {
    let mut filled = 0;
    while filled < buf.len() {
        // audit:allow(panic-path) `filled < buf.len()` holds by the loop guard, so the range cannot panic
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtoError::Wire(WireError::Io(
                    io::ErrorKind::UnexpectedEof,
                )));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(true)
}

/// Reads one length-prefixed frame, enforcing `max` against the
/// declared length *before* the body is read. `Ok(None)` is a clean
/// close at a frame boundary.
pub fn read_frame<R: Read>(r: &mut R, max: usize) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    if !read_full(r, &mut header)? {
        return Ok(None);
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(ProtoError::Wire(WireError::FrameTooLarge {
            len: len as u64,
            max: max as u64,
        }));
    }
    let mut payload = vec![0u8; len];
    if !read_full(r, &mut payload)? && len != 0 {
        return Err(ProtoError::Wire(WireError::Io(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    Ok(Some(payload))
}

fn hello_bytes() -> [u8; 6] {
    let [m0, m1, m2, m3] = HANDSHAKE_MAGIC;
    let [v0, v1] = PROTO_VERSION.to_be_bytes();
    [m0, m1, m2, m3, v0, v1]
}

fn parse_hello(hello: &[u8; 6]) -> Result<u16, ProtoError> {
    let [m0, m1, m2, m3, v0, v1] = *hello;
    if [m0, m1, m2, m3] != HANDSHAKE_MAGIC {
        return Err(ProtoError::UnexpectedMessage("handshake magic mismatch"));
    }
    Ok(u16::from_be_bytes([v0, v1]))
}

/// Runs the client side of the connection hello: send ours, read the
/// server's, fail typed on a magic or version mismatch.
pub fn client_handshake<S: Read + Write>(stream: &mut S) -> Result<(), ProtoError> {
    stream.write_all(&hello_bytes()).map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    let mut hello = [0u8; 6];
    if !read_full(stream, &mut hello)? {
        return Err(ProtoError::Wire(WireError::Io(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    let version = parse_hello(&hello)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Wire(WireError::UnsupportedVersion(version)));
    }
    Ok(())
}

/// Runs the server side of the connection hello. A wrong-magic peer is
/// rejected silently (it is not speaking this protocol); a wrong
/// *version* still receives our hello — so it can raise a typed
/// [`WireError::UnsupportedVersion`] — before the `Err` tells the
/// caller to close.
pub fn accept_handshake<S: Read + Write>(stream: &mut S) -> Result<(), ProtoError> {
    let mut hello = [0u8; 6];
    if !read_full(stream, &mut hello)? {
        return Err(ProtoError::Wire(WireError::Io(
            io::ErrorKind::UnexpectedEof,
        )));
    }
    let version = parse_hello(&hello)?;
    stream.write_all(&hello_bytes()).map_err(io_err)?;
    stream.flush().map_err(io_err)?;
    if version != PROTO_VERSION {
        return Err(ProtoError::Wire(WireError::UnsupportedVersion(version)));
    }
    Ok(())
}

fn error_message(code: u16, detail: impl Into<String>) -> Message {
    Message::ProviderResponse(ProviderResponse::Error(ErrorReply::new(code, detail)))
}

/// Serves one decoded request envelope through the caller's handler,
/// producing the reply envelope's message. Non-request message kinds
/// and reply-class mismatches become typed error replies.
fn serve_envelope(msg: Message, serve: &mut ServeTrafficFn<'_>) -> Message {
    match msg {
        Message::HsmBatchRequest(batch) => match serve(Traffic::Batch(batch)) {
            TrafficReply::Batch(items) => Message::HsmBatchResponse(items),
            TrafficReply::Provider(resp) => Message::ProviderResponse(resp),
            _ => error_message(codes::UNSUPPORTED, "batch round served in the wrong class"),
        },
        Message::HsmGroupRequest { id, requests } => {
            match serve(Traffic::Grouped(vec![(id, requests)])) {
                TrafficReply::Grouped(mut groups) if groups.len() == 1 => {
                    let (id, responses) = groups.remove(0);
                    Message::HsmGroupResponse { id, responses }
                }
                TrafficReply::Provider(resp) => Message::ProviderResponse(resp),
                _ => error_message(codes::UNSUPPORTED, "group round served in the wrong class"),
            }
        }
        Message::ProviderRequest(request) => match serve(Traffic::Provider(request)) {
            TrafficReply::Provider(resp) => Message::ProviderResponse(resp),
            _ => error_message(
                codes::UNSUPPORTED,
                "provider call served in the wrong class",
            ),
        },
        _ => error_message(
            codes::UNSUPPORTED,
            "frame is not a request this service can serve",
        ),
    }
}

/// Serves framed rounds from one connection until the peer closes.
///
/// Every malformed-but-framed input earns a typed
/// [`ProviderResponse::Error`] reply and the connection stays up. Only
/// three things end the loop: a clean close at a frame boundary
/// (`Ok`), an oversized frame declaration (typed error reply is sent,
/// then `Err` — the unread body makes the stream unrecoverable), and a
/// socket failure (`Err`). The caller runs [`accept_handshake`] first.
pub fn serve_frames<S: Read + Write>(
    stream: &mut S,
    serve: &mut ServeTrafficFn<'_>,
) -> Result<(), ProtoError> {
    // Server-side view of the same `tcp.*` series the client transport
    // feeds: resolved once per connection, counted once per frame.
    let registry = safetypin_telemetry::global();
    let frames_in = registry.counter("tcp.frames_in");
    let bytes_in = registry.counter("tcp.bytes_in");
    let frames_out = registry.counter("tcp.frames_out");
    let bytes_out = registry.counter("tcp.bytes_out");
    loop {
        let payload = match read_frame(stream, MAX_FRAME_BYTES) {
            Ok(None) => return Ok(()),
            Ok(Some(payload)) => payload,
            Err(e @ ProtoError::Wire(WireError::FrameTooLarge { .. })) => {
                let reply = Envelope::seal(error_message(codes::WIRE, e.to_string())).to_bytes();
                let _ = write_frame(stream, &reply);
                return Err(e);
            }
            Err(e) => return Err(e),
        };
        frames_in.incr();
        bytes_in.add(payload.len() as u64 + 4);
        let reply = match Envelope::from_bytes(&payload) {
            Ok(envelope) => serve_envelope(envelope.msg, serve),
            Err(e) => error_message(codes::WIRE, format!("undecodable frame: {e}")),
        };
        let reply_bytes = Envelope::seal(reply).to_bytes();
        frames_out.incr();
        bytes_out.add(reply_bytes.len() as u64 + 4);
        write_frame(stream, &reply_bytes)?;
    }
}

/// Connection settings for the [`Tcp`] transport.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// The server address (`host:port`).
    pub addr: String,
    /// Maximum idle connections kept for reuse.
    pub pool: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
}

impl TcpConfig {
    /// Defaults: a 2-connection pool and 30-second timeouts.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            pool: 2,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
        }
    }
}

/// The socket-backed [`Transport`]: frames travel to a remote
/// `safetypind` server, which owns the fleet and does the serving (the
/// `serve` argument to [`round`](Transport::round) is never invoked).
///
/// Connections are dialed lazily, handshake-verified, and pooled for
/// reuse; a connection that sees any error is discarded rather than
/// returned to the pool. Stats meter real frame bytes (including the
/// 4-byte headers) and wall-clock seconds.
pub struct Tcp {
    config: TcpConfig,
    idle: Vec<TcpStream>,
    stats: TransportStats,
    // Cached global-registry handles (one lookup at construction, not
    // one per frame): socket frames/bytes by direction, from this
    // process's point of view.
    frames_out: std::sync::Arc<safetypin_telemetry::Counter>,
    frames_in: std::sync::Arc<safetypin_telemetry::Counter>,
    bytes_out: std::sync::Arc<safetypin_telemetry::Counter>,
    bytes_in: std::sync::Arc<safetypin_telemetry::Counter>,
}

impl Tcp {
    /// A transport that will dial `config.addr` on first use.
    pub fn new(config: TcpConfig) -> Self {
        let telemetry = safetypin_telemetry::global();
        Self {
            config,
            idle: Vec::new(),
            stats: TransportStats::default(),
            frames_out: telemetry.counter("tcp.frames_out"),
            frames_in: telemetry.counter("tcp.frames_in"),
            bytes_out: telemetry.counter("tcp.bytes_out"),
            bytes_in: telemetry.counter("tcp.bytes_in"),
        }
    }

    /// Dials (and handshakes) one connection eagerly, so configuration
    /// and version mismatches surface at construction.
    pub fn connect(config: TcpConfig) -> Result<Self, ProtoError> {
        let mut tcp = Self::new(config);
        let stream = tcp.dial()?;
        tcp.checkin(stream);
        Ok(tcp)
    }

    /// The configured server address.
    pub fn addr(&self) -> &str {
        &self.config.addr
    }

    fn dial(&self) -> Result<TcpStream, ProtoError> {
        let mut stream = TcpStream::connect(&self.config.addr).map_err(io_err)?;
        stream
            .set_read_timeout(Some(self.config.read_timeout))
            .map_err(io_err)?;
        stream
            .set_write_timeout(Some(self.config.write_timeout))
            .map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&mut stream)?;
        Ok(stream)
    }

    fn checkout(&mut self) -> Result<TcpStream, ProtoError> {
        match self.idle.pop() {
            Some(stream) => Ok(stream),
            None => self.dial(),
        }
    }

    fn checkin(&mut self, stream: TcpStream) {
        if self.idle.len() < self.config.pool {
            self.idle.push(stream);
        }
    }

    /// Ships one sealed envelope and reads the reply envelope. The
    /// connection returns to the pool only after a clean round trip.
    fn roundtrip(&mut self, msg: Message) -> Result<Message, ProtoError> {
        let start = Instant::now();
        let mut stream = self.checkout()?;
        let request = Envelope::seal(msg).to_bytes();
        self.stats.envelopes += 1;
        self.stats.request_bytes += request.len() as u64 + 4;
        self.frames_out.incr();
        self.bytes_out.add(request.len() as u64 + 4);
        let outcome = write_frame(&mut stream, &request).and_then(|()| {
            match read_frame(&mut stream, MAX_FRAME_BYTES)? {
                Some(reply) => Ok(reply),
                None => Err(ProtoError::Wire(WireError::Io(
                    io::ErrorKind::UnexpectedEof,
                ))),
            }
        });
        self.stats.seconds += start.elapsed().as_secs_f64();
        let reply = outcome?;
        self.stats.envelopes += 1;
        self.stats.response_bytes += reply.len() as u64 + 4;
        self.frames_in.incr();
        self.bytes_in.add(reply.len() as u64 + 4);
        let msg = Envelope::from_bytes(&reply)?.msg;
        self.checkin(stream);
        Ok(msg)
    }

    /// Issues one provider (service-API) call over the socket. This is
    /// the client CLI's entry point; it needs no serve closure because
    /// the remote daemon does the serving.
    pub fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        self.stats.messages += 2;
        match self.roundtrip(Message::ProviderRequest(request))? {
            Message::ProviderResponse(resp) => Ok(resp),
            _ => Err(ProtoError::UnexpectedMessage("expected provider response")),
        }
    }
}

impl Transport for Tcp {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        _serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        match traffic {
            Traffic::Single(id, request) => {
                // A single exchange rides as a one-item batch: the HSM
                // address must cross the socket, and the batch message
                // is the addressed single-envelope shape.
                self.stats.messages += 2;
                match self.roundtrip(Message::HsmBatchRequest(vec![(id, request)]))? {
                    Message::HsmBatchResponse(mut items) if items.len() == 1 => {
                        Ok(TrafficReply::Single(items.remove(0).1))
                    }
                    Message::ProviderResponse(ProviderResponse::Error(e)) => {
                        Ok(TrafficReply::Single(HsmResponse::Error(e)))
                    }
                    _ => Err(ProtoError::UnexpectedMessage(
                        "expected a one-item HSM batch response",
                    )),
                }
            }
            Traffic::Batch(batch) => {
                self.stats.messages += 2 * batch.len() as u64;
                let ids: Vec<u64> = batch.iter().map(|(id, _)| *id).collect();
                match self.roundtrip(Message::HsmBatchRequest(batch))? {
                    Message::HsmBatchResponse(items) => Ok(TrafficReply::Batch(items)),
                    Message::ProviderResponse(ProviderResponse::Error(e)) => {
                        Ok(TrafficReply::Batch(
                            ids.into_iter()
                                .map(|id| (id, HsmResponse::Error(e.clone())))
                                .collect(),
                        ))
                    }
                    _ => Err(ProtoError::UnexpectedMessage("expected HSM batch response")),
                }
            }
            Traffic::Grouped(groups) => {
                // The grouped contract: one frame per device per
                // direction, each group served under its own barrier.
                let mut out = Vec::with_capacity(groups.len());
                for (id, requests) in groups {
                    self.stats.messages += requests.len() as u64;
                    let group_len = requests.len();
                    match self.roundtrip(Message::HsmGroupRequest { id, requests })? {
                        Message::HsmGroupResponse { id, responses } => {
                            self.stats.messages += responses.len() as u64;
                            out.push((id, responses));
                        }
                        Message::ProviderResponse(ProviderResponse::Error(e)) => {
                            out.push((id, vec![HsmResponse::Error(e); group_len]));
                        }
                        _ => {
                            return Err(ProtoError::UnexpectedMessage(
                                "expected HSM group response",
                            ))
                        }
                    }
                }
                Ok(TrafficReply::Grouped(out))
            }
            Traffic::Provider(request) => self.call(request).map(TrafficReply::Provider),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn take_stats(&mut self) -> TransportStats {
        std::mem::take(&mut self.stats)
    }
}
