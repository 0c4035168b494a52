//! The provider API over a real socket: length-prefixed [`Envelope`]
//! frames on [`std::net::TcpStream`]. Only
//! [`ProviderRequest`] → [`ProviderResponse`] crosses it — [`Tcp`] is
//! the client, [`serve_frames`] the server loop; HSM-level traffic
//! never leaves the datacenter.
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
//! that does not decode as an envelope, or decodes as anything but a
//! [`Message::ProviderRequest`], earns a typed
//! [`ProviderResponse::Error`] reply and the connection stays up;
//! socket failures surface as [`WireError::Io`], never panics.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use safetypin_primitives::error::WireError;
use safetypin_primitives::wire::{Decode, Encode};

use crate::api::{codes, ErrorCode, ErrorReply, ProviderRequest, ProviderResponse};
use crate::envelope::{Envelope, Message, PROTO_VERSION};
use crate::error::ProtoError;

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
        #[expect(
            clippy::indexing_slicing,
            reason = "`filled < buf.len()` holds by the loop guard, so the range cannot panic"
        )]
        let rest = &mut buf[filled..];
        match r.read(rest) {
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

fn error_message(code: ErrorCode, detail: impl Into<String>) -> Message {
    Message::ProviderResponse(ProviderResponse::Error(ErrorReply::new(code, detail)))
}

/// Serves one decoded envelope: a provider request goes through the
/// caller's handler; every other message kind is refused typed.
fn serve_envelope(
    msg: Message,
    serve: &mut impl FnMut(ProviderRequest) -> ProviderResponse,
) -> Message {
    match msg {
        Message::ProviderRequest(request) => Message::ProviderResponse(serve(request)),
        _ => error_message(
            codes::UNSUPPORTED,
            "frame is not a request this service can serve",
        ),
    }
}

/// Serves framed provider requests from one connection until the peer
/// closes.
///
/// Every malformed-but-framed input earns a typed
/// [`ProviderResponse::Error`] reply and the connection stays up. Only
/// three things end the loop: a clean close at a frame boundary
/// (`Ok`), an oversized frame declaration (typed error reply is sent,
/// then `Err` — the unread body makes the stream unrecoverable), and a
/// socket failure (`Err`). The caller runs [`accept_handshake`] first.
pub fn serve_frames<S: Read + Write>(
    stream: &mut S,
    mut serve: impl FnMut(ProviderRequest) -> ProviderResponse,
) -> Result<(), ProtoError> {
    // Server-side view of the same `tcp.*` series the client feeds:
    // resolved once per connection, counted once per frame.
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
            Ok(envelope) => serve_envelope(envelope.msg, &mut serve),
            Err(e) => error_message(codes::WIRE, format!("undecodable frame: {e}")),
        };
        let reply_bytes = Envelope::seal(reply).to_bytes();
        frames_out.incr();
        bytes_out.add(reply_bytes.len() as u64 + 4);
        write_frame(stream, &reply_bytes)?;
    }
}

/// How long the [`Tcp`] client waits on one socket read or write.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Connection settings for the [`Tcp`] client.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// The server address (`host:port`).
    pub addr: String,
}

impl TcpConfig {
    /// A connection to `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self { addr: addr.into() }
    }
}

/// The provider-API client: one [`call`](Tcp::call) is one
/// [`ProviderRequest`] frame to a remote `safetypind` and its
/// [`ProviderResponse`] frame back.
///
/// One handshake-verified connection is kept between calls; a
/// connection that sees any error is discarded and the next call
/// re-dials. The `tcp.*` registry counters meter real frame bytes
/// (including the 4-byte headers).
pub struct Tcp {
    config: TcpConfig,
    conn: Option<TcpStream>,
    // Cached global-registry handles (one lookup at construction, not
    // one per frame): socket frames/bytes by direction, from this
    // process's point of view.
    frames_out: std::sync::Arc<safetypin_telemetry::Counter>,
    frames_in: std::sync::Arc<safetypin_telemetry::Counter>,
    bytes_out: std::sync::Arc<safetypin_telemetry::Counter>,
    bytes_in: std::sync::Arc<safetypin_telemetry::Counter>,
}

impl Tcp {
    /// Dials (and handshakes) the connection eagerly, so configuration
    /// and version mismatches surface at construction.
    pub fn connect(config: TcpConfig) -> Result<Self, ProtoError> {
        let conn = Some(Self::dial(&config)?);
        let telemetry = safetypin_telemetry::global();
        Ok(Self {
            config,
            conn,
            frames_out: telemetry.counter("tcp.frames_out"),
            frames_in: telemetry.counter("tcp.frames_in"),
            bytes_out: telemetry.counter("tcp.bytes_out"),
            bytes_in: telemetry.counter("tcp.bytes_in"),
        })
    }

    fn dial(config: &TcpConfig) -> Result<TcpStream, ProtoError> {
        let mut stream = TcpStream::connect(&config.addr).map_err(io_err)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&mut stream)?;
        Ok(stream)
    }

    /// Issues one provider (service-API) call over the socket: ships the
    /// sealed request frame and reads the reply frame (the remote
    /// daemon does the serving). The connection is kept only after a
    /// clean round trip.
    pub fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => Self::dial(&self.config)?,
        };
        let request = Envelope::seal(Message::ProviderRequest(request)).to_bytes();
        self.frames_out.incr();
        self.bytes_out.add(request.len() as u64 + 4);
        write_frame(&mut stream, &request)?;
        let reply = read_frame(&mut stream, MAX_FRAME_BYTES)?.ok_or(ProtoError::Wire(
            WireError::Io(io::ErrorKind::UnexpectedEof),
        ))?;
        self.frames_in.incr();
        self.bytes_in.add(reply.len() as u64 + 4);
        let reply = Envelope::from_bytes(&reply)?.msg;
        self.conn = Some(stream);
        match reply {
            Message::ProviderResponse(resp) => Ok(resp),
            _ => Err(ProtoError::UnexpectedMessage("expected provider response")),
        }
    }
}
