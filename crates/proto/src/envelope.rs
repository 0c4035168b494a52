//! The versioned wire envelope every transported message travels in.
//!
//! # Envelope format
//!
//! ```text
//! +----------------+-----------+------------------+
//! | version (u16)  | tag (u8)  | message payload  |
//! +----------------+-----------+------------------+
//! ```
//!
//! The version is checked *first*: an envelope whose version is not
//! exactly [`PROTO_VERSION`] is rejected with
//! [`WireError::UnsupportedVersion`] before a single payload byte is
//! parsed, so [`Envelope`] keeps a hand-written codec. Everything after
//! the version is a [`wire!`] declaration: the tag selects the
//! [`Message`] kind, and every payload uses the strict length-prefixed
//! codec of [`mod@safetypin_primitives::wire`], so truncation, trailing
//! bytes, unknown tags and over-cap counts are all typed decode errors
//! rather than garbage reads.

use safetypin_primitives::error::WireError;
use safetypin_primitives::wire;
use safetypin_primitives::wire::{Decode, Encode, Reader, Writer};

use crate::api::{HsmRequest, HsmResponse, ProviderRequest, ProviderResponse};
use crate::messages::SnapshotMeta;

/// The protocol version this build speaks. The versioning rule is strict
/// equality: a decoder rejects every other version, so any change to an
/// existing message's encoding must bump this constant (purely additive
/// variants may keep it). Version 2 dropped the per-phase cost meter
/// that version 1 appended to every `HsmResponse::RecoveryShare`.
/// Version 3 retired the solo and batch HSM kinds (tags 0–3: every
/// fleet round travels as per-device groups) and dropped the always-empty
/// designated-auditor endorsement list from `RecoveryRequest`.
pub const PROTO_VERSION: u16 = 3;

wire! {
    /// Every message kind that can travel in an [`Envelope`].
    ///
    /// HSM traffic travels only as per-device groups: every fleet round
    /// ships one [`HsmGroupRequest`](Message::HsmGroupRequest) per addressed
    /// HSM and gets one [`HsmGroupResponse`](Message::HsmGroupResponse)
    /// back, as over the paper's per-device USB links.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        // Tags 0–3 are retired (version 3): they carried the solo and
        // batch HSM kinds. A decoder refuses them as unknown tags; they
        // must never be reused for another meaning.
        /// Client → untrusted provider.
        ProviderRequest(ProviderRequest) = 4,
        /// Untrusted provider → client.
        ProviderResponse(ProviderResponse) = 5,
        /// Snapshot metadata stamped onto a persisted fleet (additive
        /// variant; carried in the envelope so restoring a snapshot runs
        /// the same strict version handshake as live traffic).
        SnapshotMeta(SnapshotMeta) = 6,
        /// Datacenter → one HSM: **all** of one round's requests bound for
        /// that device — possibly many users' — in a single envelope. Every
        /// fleet round (recovery, epoch audit and accept, GC, rotation)
        /// ships one of these per addressed HSM (one envelope per HSM per
        /// direction), and the device serves the whole group under a single
        /// durability barrier (`Hsm::handle_batch`'s group commit).
        HsmGroupRequest {
            /// The addressed HSM's datacenter index.
            id: u64,
            /// The coalesced requests, in serve order.
            requests: Vec<HsmRequest> as seq(MAX_GROUP_REQUESTS),
        } = 7,
        /// One HSM → datacenter: the group's responses, in request order,
        /// in a single envelope.
        HsmGroupResponse {
            /// The responding HSM's datacenter index.
            id: u64,
            /// One response per request, in request order.
            responses: Vec<HsmResponse> as seq(MAX_GROUP_REQUESTS),
        } = 8,
    }
}

/// Upper bound on the requests one [`Message::HsmGroupRequest`] may
/// coalesce for a single HSM (and on the responses coming back). A
/// decoded group larger than this is rejected with
/// [`WireError::LengthOutOfRange`] before any item is parsed — a wire
/// peer cannot force an unbounded serve loop onto a device.
pub const MAX_GROUP_REQUESTS: usize = 4096;

/// A versioned envelope around one [`Message`].
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Protocol version (always [`PROTO_VERSION`] for locally built
    /// envelopes; decoding rejects every other value).
    pub version: u16,
    /// The carried message.
    pub msg: Message,
}

impl Envelope {
    /// Seals a message in a current-version envelope.
    pub fn seal(msg: Message) -> Self {
        Self {
            version: PROTO_VERSION,
            msg,
        }
    }
}

impl Encode for Envelope {
    fn encode(&self, w: &mut Writer) {
        w.put_u16(self.version);
        self.msg.encode(w);
    }
}

impl Decode for Envelope {
    fn decode(r: &mut Reader<'_>) -> core::result::Result<Self, WireError> {
        let version = r.get_u16()?;
        if version != PROTO_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(Self {
            version,
            msg: Message::decode(r)?,
        })
    }
}
