//! `safetypin-proto`: the versioned message-passing service API between
//! the SafetyPin roles.
//!
//! The paper's deployment is inherently distributed — an untrusted
//! datacenter routes messages between clients and a fleet of HSMs over a
//! real transport (USB HID/CDC, §9 / Table 7). This crate makes those
//! role boundaries explicit: every operation a client asks of the
//! provider, and every operation the provider asks of an HSM, is a
//! message with a canonical wire encoding, carried by a pluggable
//! [`Transport`].
//!
//! # Envelope format
//!
//! Every transported message is wrapped in an [`Envelope`]:
//!
//! ```text
//! version : u16   — must equal PROTO_VERSION, checked before anything else
//! tag     : u8    — selects the Message kind (provider request/response, per-HSM group)
//! payload : bytes — the message, in the strict length-prefixed codec of
//!                   safetypin_primitives::wire
//! ```
//!
//! Decoding is strict end to end: truncated input, trailing bytes,
//! unknown tags, and unknown versions are all *typed* errors
//! ([`WireError::UnexpectedEof`], [`WireError::TrailingBytes`],
//! [`WireError::InvalidTag`], [`WireError::UnsupportedVersion`]).
//!
//! # Versioning rule
//!
//! [`PROTO_VERSION`] uses strict equality — a decoder rejects every
//! version but its own. Adding a new message variant is allowed within a
//! version (new trailing tag); changing the encoding of an *existing*
//! variant requires bumping `PROTO_VERSION`. Version negotiation is
//! deliberately out of scope: SafetyPin's provider controls both sides
//! of every hop, so fleets upgrade in lockstep (§6.2's epoch machinery
//! already serializes configuration changes).
//!
//! # Transports
//!
//! The [`transport`] module defines the [`Transport`] trait — one
//! required [`round`](Transport::round) method over a request-class
//! enum ([`Traffic`]; every fleet round is [`Traffic::Grouped`]), with
//! typed conveniences default-implemented on top — and three backends for the provider↔fleet hop: [`Direct`]
//! (in-process, zero-copy), [`Serialized`] (full codec round-trip,
//! byte-metered and priced against a USB profile) and [`Faulty`]
//! (seeded drop/delay/corrupt injection). See the module docs for how
//! to add a backend.
//!
//! # The socket
//!
//! The [`tcp`] module carries the client↔provider hop: length-prefixed
//! envelope frames over a real socket to a `safetypind` server, with a
//! versioned handshake. Only the provider API crosses it — [`Tcp`] is
//! the client ([`Tcp::call`]), [`tcp::serve_frames`] the server loop.
//!
//! [`WireError::UnexpectedEof`]: safetypin_primitives::error::WireError::UnexpectedEof
//! [`WireError::TrailingBytes`]: safetypin_primitives::error::WireError::TrailingBytes
//! [`WireError::InvalidTag`]: safetypin_primitives::error::WireError::InvalidTag
//! [`WireError::UnsupportedVersion`]: safetypin_primitives::error::WireError::UnsupportedVersion

// Serve-path panic discipline ([workspace.lints.clippy] plus the
// `assert!` ban in this crate's clippy.toml): no unwrap, expect, raw
// indexing or panicking macro in library code; tests allow them.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::indexing_slicing,
        clippy::panic,
        clippy::disallowed_macros,
        reason = "test code fails by panicking"
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod envelope;
pub mod error;
pub mod messages;
pub mod metrics;
pub mod tcp;
pub mod transport;

pub use api::{
    codes, ErrorCode, ErrorReply, HsmRequest, HsmResponse, ProviderRequest, ProviderResponse,
    SaveOutcome, SaveRequest, MAX_RECOVER_BATCH_USERS, MAX_SAVE_BATCH_USERS,
};
pub use envelope::{Envelope, Message, MAX_GROUP_REQUESTS, PROTO_VERSION};
pub use error::ProtoError;
pub use messages::{
    EnrollmentRecord, RecoveryRequest, RecoveryResponse, SnapshotMeta, StatusReport,
};
pub use metrics::{HistogramSummary, MetricsReport, MAX_METRICS_SERIES};
pub use tcp::{Tcp, TcpConfig, MAX_FRAME_BYTES};
pub use transport::{
    Direct, FaultPlan, FaultScope, Faulty, Serialized, ServeTrafficFn, Traffic, TrafficReply,
    Transport, TransportStats,
};
