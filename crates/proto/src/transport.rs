//! Pluggable transports carrying [`Envelope`]s between the datacenter
//! front-end and its HSM fleet (the client↔provider socket is
//! [`crate::tcp`], which carries the provider API only).
//!
//! A [`Transport`] moves one *round* of [`Traffic`] to the serving peer
//! and its [`TrafficReply`] back. The serving side is supplied by the
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
//! * [`Faulty`] — wraps another transport and injects configurable
//!   drop / delay / corrupt faults (seeded, deterministic) for
//!   failure-scenario tests.
//!
//! # Adding a transport backend
//!
//! Implement exactly one required method, [`Transport::round`]: given
//! one [`Traffic`] value, deliver it (however the medium does that) and
//! return the matching [`TrafficReply`] class. The two conveniences,
//! [`exchange_grouped`](Transport::exchange_grouped) and
//! [`call_provider`](Transport::call_provider), are default-implemented
//! on top of `round` and never need overriding. A wire backend ships a
//! grouped round as one [`Message::HsmGroupRequest`] per group and a
//! provider round as one [`Message::ProviderRequest`]; it refuses
//! [`Traffic::Single`] and [`Traffic::Batch`], which no envelope
//! carries, with [`ProtoError::UnexpectedMessage`]. Encode with
//! [`Envelope::seal`] + [`Encode::to_bytes`]; decode with
//! [`Envelope::from_bytes`] and reject unexpected message kinds with
//! [`ProtoError::UnexpectedMessage`]. Report moved bytes through
//! [`TransportStats`] so benchmarks pick the backend up automatically.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safetypin_primitives::wire::{Decode, Encode};
use safetypin_sim::transport::{TransportProfile, USB_CDC};
use safetypin_telemetry::{Counter, Registry};

use crate::api::{ErrorReply, HsmRequest, HsmResponse, ProviderRequest, ProviderResponse};
use crate::envelope::{Envelope, Message};
use crate::error::ProtoError;

/// One round of requests, classified by shape, carried through the
/// single [`Transport::round`] method. Fleet rounds are
/// [`Grouped`](Traffic::Grouped); client rounds are
/// [`Provider`](Traffic::Provider).
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
    /// A client-facing provider request (the service API: log inserts,
    /// epoch runs, recovery waves, backup storage, status).
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
    /// Reply to [`Traffic::Provider`].
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

/// A channel between protocol peers.
///
/// Backends implement [`round`](Transport::round) (plus the accounting
/// accessors); callers mostly use the typed conveniences, which wrap a
/// request into its [`Traffic`] class and unwrap the matching reply.
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

    /// Carries one provider (service-API) request and returns the
    /// provider's response.
    fn call_provider(
        &mut self,
        request: ProviderRequest,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<ProviderResponse, ProtoError> {
        match self.round(Traffic::Provider(request), serve)? {
            TrafficReply::Provider(resp) => Ok(resp),
            _ => Err(ProtoError::UnexpectedMessage("expected a provider reply")),
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
        // transports: one per HSM per direction for grouped rounds (the
        // grouped contract), one per direction for provider rounds. The
        // retired classes are forwarded and count as one exchange.
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

    fn round_provider(
        &mut self,
        request: ProviderRequest,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        self.stats.messages += 2;
        let delivered = match self.ship_request(Message::ProviderRequest(request))? {
            Message::ProviderRequest(req) => req,
            _ => return Err(ProtoError::UnexpectedMessage("expected provider request")),
        };
        let response = match serve(Traffic::Provider(delivered)) {
            TrafficReply::Provider(resp) => resp,
            _ => return Err(ProtoError::UnexpectedMessage("expected a provider reply")),
        };
        match self.ship_response(Message::ProviderResponse(response))? {
            Message::ProviderResponse(resp) => Ok(TrafficReply::Provider(resp)),
            _ => Err(ProtoError::UnexpectedMessage("expected provider response")),
        }
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
            Traffic::Provider(request) => self.round_provider(request, serve),
            Traffic::Single(..) | Traffic::Batch(_) => Err(ProtoError::UnexpectedMessage(
                "no envelope carries a solo or batch HSM round",
            )),
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

/// Which messages a [`Faulty`] transport may fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Fault any message kind.
    All,
    /// Fault only recovery-share traffic. Epoch certification and key
    /// management flow cleanly — this scope models the §8
    /// failure-during-recovery scenarios without stalling the log.
    RecoveryOnly,
}

/// Fault-injection configuration for [`Faulty`].
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Probability a message (request or response) is dropped.
    pub drop_prob: f64,
    /// Probability a delivered response has one bit flipped in its
    /// encoding.
    pub corrupt_prob: f64,
    /// Probability a delivered message is delayed.
    pub delay_prob: f64,
    /// Simulated delay, in seconds, charged per delayed message.
    pub delay_seconds: f64,
    /// Which messages the faults apply to.
    pub scope: FaultScope,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            drop_prob: 0.0,
            corrupt_prob: 0.0,
            delay_prob: 0.0,
            delay_seconds: 0.0,
            scope: FaultScope::All,
        }
    }
}

impl FaultPlan {
    /// A plan that drops each in-scope message with probability `p`.
    pub fn drop(p: f64) -> Self {
        Self {
            drop_prob: p,
            ..Self::default()
        }
    }

    /// Sets the corruption probability.
    pub fn with_corrupt(mut self, p: f64) -> Self {
        self.corrupt_prob = p;
        self
    }

    /// Sets the delay probability and per-message delay.
    pub fn with_delay(mut self, p: f64, seconds: f64) -> Self {
        self.delay_prob = p;
        self.delay_seconds = seconds;
        self
    }

    /// Restricts the faults to recovery-share traffic.
    pub fn recovery_only(mut self) -> Self {
        self.scope = FaultScope::RecoveryOnly;
        self
    }
}

/// A fault-injecting wrapper around another transport.
///
/// Faults are decided by a seeded deterministic generator, so a failing
/// scenario replays exactly. Dropped messages surface as
/// [`ProtoError::Dropped`] from provider rounds, or as
/// [`ErrorReply::dropped`] per-item responses from grouped rounds.
/// Corruption flips one bit of the *encoded* response — the provider
/// reply's envelope, or a grouped item's own `HsmResponse` encoding —
/// and then attempts a decode: sometimes that yields a typed parse
/// failure, sometimes a structurally valid reply with mangled content,
/// exactly like a real flaky link. The retired [`Traffic::Single`] and
/// [`Traffic::Batch`] classes pass through unfaulted.
///
/// Every injected fault also lands in a telemetry counter
/// (`faults.injected_drop` / `faults.injected_corrupt` /
/// `faults.injected_delay`), so chaos tests can assert "exactly N
/// faults fired" instead of inferring from outcomes. Counters go to
/// the process-wide registry by default;
/// [`with_registry`](Self::with_registry) redirects them to a private
/// one so concurrent test suites do not share a ledger.
pub struct Faulty {
    inner: Box<dyn Transport>,
    plan: FaultPlan,
    rng: StdRng,
    faults: TransportStats,
    injected_drop: Arc<Counter>,
    injected_corrupt: Arc<Counter>,
    injected_delay: Arc<Counter>,
}

enum Fate {
    Deliver,
    Drop,
    Corrupt,
    Delay,
}

impl Faulty {
    /// Wraps `inner`, faulting per `plan`, seeded with `seed`.
    pub fn new(inner: Box<dyn Transport>, plan: FaultPlan, seed: u64) -> Self {
        let telemetry = safetypin_telemetry::global();
        Self {
            inner,
            plan,
            rng: StdRng::seed_from_u64(seed),
            faults: TransportStats::default(),
            injected_drop: telemetry.counter("faults.injected_drop"),
            injected_corrupt: telemetry.counter("faults.injected_corrupt"),
            injected_delay: telemetry.counter("faults.injected_delay"),
        }
    }

    /// Redirects this instance's fault counters into `registry`
    /// (same series names), leaving the process-wide ledger untouched.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.injected_drop = registry.counter("faults.injected_drop");
        self.injected_corrupt = registry.counter("faults.injected_corrupt");
        self.injected_delay = registry.counter("faults.injected_delay");
        self
    }

    fn in_scope(&self, request: &HsmRequest) -> bool {
        match self.plan.scope {
            FaultScope::All => true,
            FaultScope::RecoveryOnly => request.is_recovery(),
        }
    }

    fn provider_in_scope(&self, request: &ProviderRequest) -> bool {
        match self.plan.scope {
            FaultScope::All => true,
            FaultScope::RecoveryOnly => matches!(
                request,
                ProviderRequest::Recover(_) | ProviderRequest::RecoverBatch(_)
            ),
        }
    }

    /// Draws one message's fate.
    fn fate(&mut self) -> Fate {
        if self.rng.gen_bool(self.plan.drop_prob) {
            Fate::Drop
        } else if self.rng.gen_bool(self.plan.corrupt_prob) {
            Fate::Corrupt
        } else if self.rng.gen_bool(self.plan.delay_prob) {
            Fate::Delay
        } else {
            Fate::Deliver
        }
    }

    /// Flips one random bit of `bytes`.
    fn flip_bit(&mut self, bytes: &mut [u8]) {
        if !bytes.is_empty() {
            let pos = self.rng.gen_range(0..bytes.len());
            let bit = 1u8 << self.rng.gen_range(0..8u32);
            if let Some(byte) = bytes.get_mut(pos) {
                *byte ^= bit;
            }
        }
    }

    /// Applies the response-leg fate drawn for one in-scope grouped
    /// item: a lost reply, or one whose flipped bit no longer decodes,
    /// becomes a typed error in its place.
    fn item_fate(&mut self, response: HsmResponse) -> HsmResponse {
        match self.fate() {
            Fate::Deliver => response,
            Fate::Drop => {
                self.faults.dropped += 1;
                self.injected_drop.incr();
                HsmResponse::Error(ErrorReply::dropped())
            }
            Fate::Corrupt => {
                self.faults.corrupted += 1;
                self.injected_corrupt.incr();
                let mut bytes = response.to_bytes();
                self.flip_bit(&mut bytes);
                HsmResponse::from_bytes(&bytes)
                    .unwrap_or_else(|_| HsmResponse::Error(ErrorReply::corrupted()))
            }
            Fate::Delay => {
                self.faults.seconds += self.plan.delay_seconds;
                self.injected_delay.incr();
                response
            }
        }
    }

    /// Draws a request-leg fate for a provider round: a dropped request
    /// aborts the round before the peer sees it.
    fn apply_request_fate(&mut self) -> Result<(), ProtoError> {
        match self.fate() {
            Fate::Drop => {
                self.faults.dropped += 1;
                self.injected_drop.incr();
                Err(ProtoError::Dropped)
            }
            Fate::Delay => {
                self.faults.seconds += self.plan.delay_seconds;
                self.injected_delay.incr();
                Ok(())
            }
            Fate::Deliver | Fate::Corrupt => Ok(()),
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
        let scopes: Vec<Vec<bool>> = groups
            .iter()
            .map(|(_, reqs)| reqs.iter().map(|r| self.in_scope(r)).collect())
            .collect();
        let served = match self.inner.round(Traffic::Grouped(groups), serve)? {
            TrafficReply::Grouped(groups) => groups,
            _ => return Err(ProtoError::UnexpectedMessage("expected an HSM group reply")),
        };
        let mut out = Vec::with_capacity(served.len());
        for ((id, responses), scoped) in served.into_iter().zip(scopes) {
            let mut group_out = Vec::with_capacity(responses.len());
            for (resp, in_scope) in responses.into_iter().zip(scoped) {
                group_out.push(if in_scope { self.item_fate(resp) } else { resp });
            }
            out.push((id, group_out));
        }
        Ok(TrafficReply::Grouped(out))
    }

    fn round_provider(
        &mut self,
        request: ProviderRequest,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        if !self.provider_in_scope(&request) {
            return self.inner.round(Traffic::Provider(request), serve);
        }
        self.apply_request_fate()?;
        let response = match self.inner.round(Traffic::Provider(request), serve)? {
            TrafficReply::Provider(resp) => resp,
            _ => return Err(ProtoError::UnexpectedMessage("expected a provider reply")),
        };
        match self.fate() {
            Fate::Deliver => Ok(TrafficReply::Provider(response)),
            Fate::Drop => {
                self.faults.dropped += 1;
                self.injected_drop.incr();
                Err(ProtoError::Dropped)
            }
            Fate::Corrupt => {
                self.faults.corrupted += 1;
                self.injected_corrupt.incr();
                let mut bytes = Envelope::seal(Message::ProviderResponse(response)).to_bytes();
                self.flip_bit(&mut bytes);
                match Envelope::from_bytes(&bytes).map(|env| env.msg) {
                    Ok(Message::ProviderResponse(resp)) => Ok(TrafficReply::Provider(resp)),
                    _ => Err(ProtoError::Corrupted),
                }
            }
            Fate::Delay => {
                self.faults.seconds += self.plan.delay_seconds;
                self.injected_delay.incr();
                Ok(TrafficReply::Provider(response))
            }
        }
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
            Traffic::Provider(request) => self.round_provider(request, serve),
            retired @ (Traffic::Single(..) | Traffic::Batch(_)) => self.inner.round(retired, serve),
        }
    }

    fn stats(&self) -> TransportStats {
        let mut s = self.inner.stats();
        s.absorb(&self.faults);
        s
    }

    fn take_stats(&mut self) -> TransportStats {
        let mut s = self.inner.take_stats();
        s.absorb(&std::mem::take(&mut self.faults));
        s
    }
}
