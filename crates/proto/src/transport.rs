//! Pluggable transports carrying [`Envelope`]s between the datacenter
//! front-end and its HSM fleet — the fleet hop only. The
//! client↔provider hop is [`crate::tcp`] (or any provider endpoint),
//! which carries the provider API only; nothing here carries a client
//! request.
//!
//! A [`Transport`] moves one *round* of [`Traffic`] to the fleet and
//! its [`TrafficReply`] back. The serving side is supplied by the
//! caller as a `serve` closure (the datacenter owns the devices), so a
//! transport decides only *how* the messages travel. Every fleet round
//! — recovery, epoch audit and accept, GC, rotation — travels as
//! [`Traffic::Grouped`]: one request group per addressed HSM, one
//! envelope per HSM per direction, as on the paper's per-device USB
//! links (a solo request is a group of one).
//! Backends:
//!
//! * [`Direct`] — in-process, zero-copy: the request value is handed to
//!   `serve` untouched. This is the pre-RPC behavior and the fastest
//!   path; it counts messages but moves no bytes.
//! * [`Serialized`] — every message round-trips through the canonical
//!   wire codec in both directions and is priced against a
//!   [`TransportProfile`] (USB HID/CDC), making the Table 7 bandwidth
//!   numbers measured rather than estimated.
//! * [`Faulty`] — wraps another transport and injects seeded
//!   drop / delay / corrupt faults into the HSMs' replies
//!   ([`crate::fault`]) for failure-scenario tests.
//!
//! # Adding a transport backend
//!
//! Implement exactly one required method, [`Transport::round`]: given
//! one [`Traffic`] value, deliver it (however the medium does that) and
//! return the matching [`TrafficReply`] class. The convenience
//! [`exchange_grouped`](Transport::exchange_grouped) is
//! default-implemented on top of `round` and never needs overriding. A
//! wire backend ships a grouped round as one [`Message::HsmGroupRequest`]
//! per group; it refuses the retired classes ([`Traffic::Single`],
//! [`Traffic::Batch`], [`Traffic::Provider`]) with
//! [`ProtoError::UnexpectedMessage`]. Encode with [`Envelope::seal`] +
//! [`Encode::to_bytes`]; decode with [`Envelope::from_bytes`] and reject
//! unexpected message kinds with [`ProtoError::UnexpectedMessage`].
//! Report moved bytes through [`TransportStats`] so benchmarks pick the
//! backend up automatically.

use std::sync::Arc;

use safetypin_primitives::wire::{Decode, Encode};
use safetypin_sim::transport::{TransportProfile, USB_CDC};
use safetypin_telemetry::{Counter, Registry};

use crate::api::{ErrorReply, HsmRequest, HsmResponse, ProviderRequest, ProviderResponse};
use crate::envelope::{Envelope, Message};
use crate::error::ProtoError;
use crate::fault::{Fate, FaultPlan, FaultSource};

/// One round of requests, classified by shape, carried through the
/// single [`Transport::round`] method. Every fleet round is
/// [`Grouped`](Traffic::Grouped); the other classes are retired.
#[derive(Debug, Clone, PartialEq)]
#[expect(
    clippy::large_enum_variant,
    reason = "Single inlines an HsmRequest, same trade as HsmRequest itself"
)]
pub enum Traffic {
    /// Retired: one request for one HSM. Nothing sends it; it stays so
    /// that existing [`Transport`] implementations matching on it still
    /// build. The fleet refuses it with a typed `UNSUPPORTED` reply,
    /// [`Serialized`] with [`ProtoError::UnexpectedMessage`].
    Single(u64, HsmRequest),
    /// Retired: a per-request fan-out, refused exactly like
    /// [`Single`](Traffic::Single).
    Batch(Vec<(u64, HsmRequest)>),
    /// A **grouped** round: per addressed HSM, the whole coalesced
    /// request group — possibly many users' requests — in one delivery
    /// (one envelope per HSM per direction), served under a single
    /// durability barrier (`Hsm::handle_batch`'s group commit).
    Grouped(Vec<(u64, Vec<HsmRequest>)>),
    /// Retired: a client's provider request. The client hop is not a
    /// [`Transport`] (it is the `Tcp` socket or any provider endpoint),
    /// so nothing sends it; it is refused exactly like
    /// [`Single`](Traffic::Single).
    Provider(ProviderRequest),
}

/// The reply to one [`Traffic`] round, in the matching class.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficReply {
    /// Reply to the retired [`Traffic::Single`].
    Single(HsmResponse),
    /// Reply to the retired [`Traffic::Batch`], one response per
    /// request, in request order.
    Batch(Vec<(u64, HsmResponse)>),
    /// Reply to [`Traffic::Grouped`], one `(id, responses)` entry per
    /// delivered group, in group order, each list in request order.
    Grouped(Vec<(u64, Vec<HsmResponse>)>),
    /// Reply to the retired [`Traffic::Provider`].
    Provider(ProviderResponse),
}

/// The serving peer a transport delivers [`Traffic`] to. The fleet
/// owner decides how delivered traffic is *served* — the datacenter
/// fans independent per-HSM groups out across threads
/// ([`std::thread::scope`] in `safetypin-provider`) — while the
/// transport decides only how the envelopes *travel*. Implementations
/// must reply in the delivered class: one `(id, responses)` entry per
/// group in group order for grouped rounds.
pub type ServeTrafficFn<'a> = dyn FnMut(Traffic) -> TrafficReply + 'a;

/// Byte/message/time accounting for one transport.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TransportStats {
    /// Envelopes sealed and shipped (a grouped round counts once per
    /// group per direction).
    pub envelopes: u64,
    /// Logical messages carried (a group counts once per item).
    pub messages: u64,
    /// Encoded request bytes shipped toward the serving peer.
    pub request_bytes: u64,
    /// Encoded response bytes shipped back.
    pub response_bytes: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Messages corrupted by fault injection.
    pub corrupted: u64,
    /// Transfer time: simulated under the transport's profile for
    /// in-process backends, wall-clock for real sockets.
    pub seconds: f64,
}

impl TransportStats {
    /// Total bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.request_bytes + self.response_bytes
    }

    /// Component-wise sum.
    pub fn absorb(&mut self, other: &TransportStats) {
        self.envelopes += other.envelopes;
        self.messages += other.messages;
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.seconds += other.seconds;
    }

    /// The delta accumulated since `earlier` (a snapshot of the same
    /// counter taken before some operation).
    pub fn since(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            envelopes: self.envelopes - earlier.envelopes,
            messages: self.messages - earlier.messages,
            request_bytes: self.request_bytes - earlier.request_bytes,
            response_bytes: self.response_bytes - earlier.response_bytes,
            dropped: self.dropped - earlier.dropped,
            corrupted: self.corrupted - earlier.corrupted,
            seconds: self.seconds - earlier.seconds,
        }
    }
}

/// The channel from the datacenter to its HSM fleet.
///
/// Backends implement [`round`](Transport::round) (plus the accounting
/// accessors); callers use the typed convenience
/// [`exchange_grouped`](Transport::exchange_grouped), which wraps the
/// groups into [`Traffic::Grouped`] and unwraps the matching reply.
/// Backends are `Send` so a fleet can be owned by one service thread
/// and served to many connection threads (what `safetypind` does).
pub trait Transport: Send {
    /// Human-readable backend name (for reports).
    fn name(&self) -> &'static str;

    /// Carries one round of traffic to the serving peer and returns its
    /// reply.
    ///
    /// Per-item transport faults inside grouped rounds must
    /// surface as [`ErrorReply`] responses in place (a lost reply from
    /// one HSM must not sink a cluster round); whole-round faults are
    /// `Err`. The reply must be in the delivered class — a mismatch is
    /// [`ProtoError::UnexpectedMessage`].
    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError>;

    /// Accumulated accounting since construction (or the last
    /// [`take_stats`](Transport::take_stats)).
    fn stats(&self) -> TransportStats;

    /// Drains the accounting, returning the old value.
    fn take_stats(&mut self) -> TransportStats;

    /// Carries a grouped round (one coalesced request group per
    /// addressed HSM), returning per-group response lists in group
    /// order. This is every fleet round's transport shape: a recovery
    /// wave (a solo recovery is a wave of one), where a 128-user storm
    /// whose clusters overlap pays one framing per *device*, not one
    /// per user-device pair, and each epoch, GC or rotation round (one
    /// request per device).
    fn exchange_grouped(
        &mut self,
        groups: Vec<(u64, Vec<HsmRequest>)>,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<Vec<(u64, Vec<HsmResponse>)>, ProtoError> {
        match self.round(Traffic::Grouped(groups), serve)? {
            TrafficReply::Grouped(groups) => Ok(groups),
            _ => Err(ProtoError::UnexpectedMessage("expected an HSM group reply")),
        }
    }
}

// ---------------------------------------------------------------------
// Direct
// ---------------------------------------------------------------------

/// In-process, zero-copy delivery: requests and responses are passed by
/// value, no encoding happens, and only message counts are recorded.
#[derive(Debug, Default)]
pub struct Direct {
    stats: TransportStats,
}

impl Direct {
    /// Creates the direct transport.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Transport for Direct {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        // Virtual envelope counts match what a wire backend would ship
        // for the same round, so envelope counts stay comparable across
        // transports: one per HSM per direction (the grouped contract).
        // The retired classes are forwarded and count as one exchange.
        match &traffic {
            Traffic::Single(..) | Traffic::Batch(_) | Traffic::Provider(_) => {
                self.stats.envelopes += 2;
                self.stats.messages += 2;
            }
            Traffic::Grouped(groups) => {
                self.stats.envelopes += 2 * groups.len() as u64;
                self.stats.messages += 2 * groups.iter().map(|(_, g)| g.len() as u64).sum::<u64>();
            }
        }
        Ok(serve(traffic))
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn take_stats(&mut self) -> TransportStats {
        std::mem::take(&mut self.stats)
    }
}

// ---------------------------------------------------------------------
// Serialized
// ---------------------------------------------------------------------

/// Full-codec delivery: every message is sealed in an [`Envelope`],
/// encoded, decoded on the far side, served, and the response makes the
/// same trip back. Byte counts and transfer seconds (per the configured
/// [`TransportProfile`]) accumulate in [`TransportStats`].
#[derive(Debug)]
pub struct Serialized {
    profile: TransportProfile,
    stats: TransportStats,
    // Cached global-registry handles: shipping an envelope must not
    // pay a name lookup per frame.
    frames_out: Arc<Counter>,
    frames_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    bytes_in: Arc<Counter>,
}

impl Serialized {
    /// A serialized transport priced against `profile`.
    pub fn new(profile: TransportProfile) -> Self {
        let telemetry = safetypin_telemetry::global();
        Self {
            profile,
            stats: TransportStats::default(),
            frames_out: telemetry.counter("transport.frames_out"),
            frames_in: telemetry.counter("transport.frames_in"),
            bytes_out: telemetry.counter("transport.bytes_out"),
            bytes_in: telemetry.counter("transport.bytes_in"),
        }
    }

    /// The paper's evaluation transport (USB CDC).
    pub fn cdc() -> Self {
        Self::new(USB_CDC)
    }

    /// The profile this transport prices transfers against.
    pub fn profile(&self) -> TransportProfile {
        self.profile
    }

    fn ship_request(&mut self, msg: Message) -> Result<Message, ProtoError> {
        let bytes = Envelope::seal(msg).to_bytes();
        self.stats.envelopes += 1;
        self.stats.request_bytes += bytes.len() as u64;
        self.stats.seconds += self.profile.seconds_for_bytes(bytes.len() as u64);
        self.frames_out.incr();
        self.bytes_out.add(bytes.len() as u64);
        Ok(Envelope::from_bytes(&bytes)?.msg)
    }

    fn ship_response(&mut self, msg: Message) -> Result<Message, ProtoError> {
        let bytes = Envelope::seal(msg).to_bytes();
        self.stats.envelopes += 1;
        self.stats.response_bytes += bytes.len() as u64;
        self.stats.seconds += self.profile.seconds_for_bytes(bytes.len() as u64);
        self.frames_in.incr();
        self.bytes_in.add(bytes.len() as u64);
        Ok(Envelope::from_bytes(&bytes)?.msg)
    }

    fn round_grouped(
        &mut self,
        groups: Vec<(u64, Vec<HsmRequest>)>,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        // One envelope per HSM per direction: each device's coalesced
        // group ships (and is byte-metered) as its own sealed envelope,
        // but the whole round is handed to the fleet in one serve call
        // so independent devices can still be served concurrently.
        let mut delivered = Vec::with_capacity(groups.len());
        for (id, requests) in groups {
            self.stats.messages += requests.len() as u64;
            match self.ship_request(Message::HsmGroupRequest { id, requests })? {
                Message::HsmGroupRequest { id, requests } => delivered.push((id, requests)),
                _ => return Err(ProtoError::UnexpectedMessage("expected HSM group request")),
            }
        }
        let served = match serve(Traffic::Grouped(delivered)) {
            TrafficReply::Grouped(groups) => groups,
            _ => return Err(ProtoError::UnexpectedMessage("expected an HSM group reply")),
        };
        let mut out = Vec::with_capacity(served.len());
        for (id, responses) in served {
            self.stats.messages += responses.len() as u64;
            match self.ship_response(Message::HsmGroupResponse { id, responses })? {
                Message::HsmGroupResponse { id, responses } => out.push((id, responses)),
                _ => return Err(ProtoError::UnexpectedMessage("expected HSM group response")),
            }
        }
        Ok(TrafficReply::Grouped(out))
    }
}

impl Transport for Serialized {
    fn name(&self) -> &'static str {
        "serialized"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        match traffic {
            Traffic::Grouped(groups) => self.round_grouped(groups, serve),
            Traffic::Single(..) | Traffic::Batch(_) | Traffic::Provider(_) => {
                Err(ProtoError::UnexpectedMessage(
                    "the fleet transport carries grouped HSM rounds only",
                ))
            }
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn take_stats(&mut self) -> TransportStats {
        std::mem::take(&mut self.stats)
    }
}

// ---------------------------------------------------------------------
// Faulty
// ---------------------------------------------------------------------

/// A fault-injecting wrapper around another fleet transport.
///
/// Faults hit the HSMs' replies in grouped rounds, per item, drawn from
/// one seeded [`FaultSource`] (see [`crate::fault`]), so a failing
/// scenario replays exactly. A dropped reply surfaces as an
/// [`ErrorReply::dropped`] response in its place. Corruption flips one
/// bit of the item's own `HsmResponse` encoding and then attempts a
/// decode: sometimes that yields a typed parse failure
/// ([`ErrorReply::corrupted`]), sometimes a structurally valid reply
/// with mangled content, exactly like a real flaky link. The retired
/// classes ([`Traffic::Single`], [`Traffic::Batch`],
/// [`Traffic::Provider`]) pass through unfaulted.
///
/// The fault counters go to the process-wide registry by default;
/// [`with_registry`](Self::with_registry) redirects them to a private
/// one so concurrent test suites do not share a ledger.
pub struct Faulty {
    inner: Box<dyn Transport>,
    faults: FaultSource,
}

impl Faulty {
    /// Wraps `inner`, faulting per `plan`, seeded with `seed`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan, seed: u64) -> Self {
        Self {
            inner,
            faults: FaultSource::new(plan, seed, safetypin_telemetry::global()),
        }
    }

    /// Redirects this instance's fault counters into `registry`
    /// (same series names), leaving the process-wide ledger untouched.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.faults.count_into(registry);
        self
    }

    /// Applies the response-leg fate drawn for one grouped item
    /// (`recovery`: whether it answers recovery traffic): a lost reply,
    /// or one whose flipped bit no longer decodes, becomes a typed error
    /// in its place.
    fn item_fate(&mut self, response: HsmResponse, recovery: bool) -> HsmResponse {
        match self.faults.response_fate(recovery) {
            Fate::Deliver | Fate::Delay => response,
            Fate::Drop => HsmResponse::Error(ErrorReply::dropped()),
            Fate::Corrupt => {
                let mut bytes = response.to_bytes();
                self.faults.flip_bit(&mut bytes);
                HsmResponse::from_bytes(&bytes)
                    .unwrap_or_else(|_| HsmResponse::Error(ErrorReply::corrupted()))
            }
        }
    }

    fn round_grouped(
        &mut self,
        groups: Vec<(u64, Vec<HsmRequest>)>,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        // Faults hit the *response* leg: the request still reaches the
        // HSM (which may puncture its key before replying — the §8
        // failure-during-recovery scenario), and faults land per item
        // so one mangled reply never sinks a whole device group, let
        // alone the round.
        let recovery: Vec<Vec<bool>> = groups
            .iter()
            .map(|(_, reqs)| reqs.iter().map(HsmRequest::is_recovery).collect())
            .collect();
        let served = match self.inner.round(Traffic::Grouped(groups), serve)? {
            TrafficReply::Grouped(groups) => groups,
            _ => return Err(ProtoError::UnexpectedMessage("expected an HSM group reply")),
        };
        let mut out = Vec::with_capacity(served.len());
        for ((id, responses), recovery) in served.into_iter().zip(recovery) {
            let group_out = responses
                .into_iter()
                .zip(recovery)
                .map(|(resp, recovery)| self.item_fate(resp, recovery))
                .collect();
            out.push((id, group_out));
        }
        Ok(TrafficReply::Grouped(out))
    }
}

impl Transport for Faulty {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        match traffic {
            Traffic::Grouped(groups) => self.round_grouped(groups, serve),
            retired @ (Traffic::Single(..) | Traffic::Batch(_) | Traffic::Provider(_)) => {
                self.inner.round(retired, serve)
            }
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.inner.stats();
        s.absorb(&self.faults.tally());
        s
    }

    fn take_stats(&mut self) -> TransportStats {
        let mut s = self.inner.take_stats();
        s.absorb(&self.faults.take_tally());
        s
    }
}
