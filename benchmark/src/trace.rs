//! Spans recorded from outside the system: the benchmark wraps the
//! seams it can reach — the client's provider endpoint and the
//! provider's HSM transport — and records `{name, start, end, parent,
//! op_id}` in memory, writing them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::rngs::StdRng;
use safetypin::Deployment;
use safetypin_client::remote::ProviderEndpoint;
use safetypin_primitives::wire::{Decode, Encode};
use safetypin_proto::{
    Direct, Envelope, HsmRequest, HsmResponse, Message, ProtoError, ProviderRequest,
    ProviderResponse, RecoveryResponse, ServeTrafficFn, Traffic, TrafficReply, Transport,
    TransportStats,
};
use safetypin_seckv::BlockStore;

use crate::json::{obj, Json};

pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span and count store. Spans nest by a stack, so all
/// recording happens on the thread that issues the operations.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    op: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: BTreeMap<&'static str, f64>,
}

/// The recorder is shared with the transport installed in the
/// datacenter, which must be `Send`; there is no contention.
#[derive(Clone)]
pub struct Tracer(Arc<Mutex<Recorder>>);

/// Closes its span on drop.
pub struct SpanGuard {
    tracer: Tracer,
    index: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let mut rec = self.tracer.lock();
            rec.spans[index].end_us = rec.epoch.elapsed().as_secs_f64() * 1e6;
            rec.stack.pop();
        }
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            enabled: false,
            op: 0,
            stack: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorder> {
        self.0.lock().expect("no recording thread panics mid-span")
    }

    /// Turns recording on or off (off: spans and counts are dropped).
    pub fn set_enabled(&self, enabled: bool) {
        self.lock().enabled = enabled;
    }

    /// Runs `f` with recording off, then restores what it was.
    pub fn paused<T>(&self, f: impl FnOnce() -> T) -> T {
        let was = std::mem::replace(&mut self.lock().enabled, false);
        let value = f();
        self.lock().enabled = was;
        value
    }

    /// Opens the root span of the next operation.
    pub fn op(&self, name: &'static str) -> SpanGuard {
        self.lock().op += 1;
        self.open(name, true)
    }

    /// Opens a span under the current one. Outside an operation (the
    /// generator's own calls between operations) nothing is recorded.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.open(name, false)
    }

    fn open(&self, name: &'static str, root: bool) -> SpanGuard {
        let mut rec = self.lock();
        if !rec.enabled || (rec.stack.is_empty() && !root) {
            return SpanGuard {
                tracer: self.clone(),
                index: None,
            };
        }
        let index = rec.spans.len();
        let now = rec.epoch.elapsed().as_secs_f64() * 1e6;
        let span = Span {
            name,
            start_us: now,
            end_us: now,
            parent: rec.stack.last().copied(),
            op: rec.op,
        };
        rec.spans.push(span);
        rec.stack.push(index);
        SpanGuard {
            tracer: self.clone(),
            index: Some(index),
        }
    }

    /// Adds to a count recorded at the same boundary as the spans
    /// (inside an operation only, like them).
    pub fn count(&self, name: &'static str, n: f64) {
        let mut rec = self.lock();
        if rec.enabled && !rec.stack.is_empty() {
            *rec.counts.entry(name).or_default() += n;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.lock().counts.get(name).copied().unwrap_or(0.0)
    }

    /// Total duration and total self time (duration minus the part its
    /// children cover) per span name, in milliseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let rec = self.lock();
        let mut child_ms = vec![0.0; rec.spans.len()];
        for span in &rec.spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut totals: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (span, children) in rec.spans.iter().zip(child_ms) {
            let entry = totals.entry(span.name).or_default();
            entry.0 += span.ms();
            entry.1 += span.ms() - children;
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let rec = self.lock();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &rec.spans {
            let line = obj([
                ("name", span.name.into()),
                ("start_us", span.start_us.into()),
                ("end_us", span.end_us.into()),
                ("parent", span.parent.map_or(Json::Null, Json::from)),
                ("op_id", span.op.into()),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

fn request_span(request: &ProviderRequest) -> &'static str {
    match request {
        ProviderRequest::InsertLog { .. } => "provider.insert_log",
        ProviderRequest::RunEpoch => "provider.run_epoch",
        ProviderRequest::ProveInclusion { .. } => "provider.prove_inclusion",
        ProviderRequest::Recover(_) | ProviderRequest::RecoverBatch(_) => "provider.recover_round",
        ProviderRequest::PutBackup { .. } | ProviderRequest::SaveBatch(_) => "provider.put_backup",
        _ => "provider.other",
    }
}

/// The local endpoint of the traced replay: every call makes the trip a
/// frame makes — `Envelope` encode → decode → `Deployment::handle` →
/// encode → decode — with a span around each leg.
pub struct TracedEndpoint<S: BlockStore + Send> {
    pub deployment: Deployment<S>,
    pub rng: StdRng,
    pub tracer: Tracer,
}

impl<S: BlockStore + Send> ProviderEndpoint for TracedEndpoint<S> {
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        let name = request_span(&request);
        let request_bytes = {
            let _span = self.tracer.span("proto.encode");
            Envelope::seal(Message::ProviderRequest(request)).to_bytes()
        };
        let request = {
            let _span = self.tracer.span("proto.decode");
            match Envelope::from_bytes(&request_bytes)?.msg {
                Message::ProviderRequest(request) => request,
                _ => return Err(ProtoError::UnexpectedMessage("expected a provider request")),
            }
        };
        let response = {
            let _span = self.tracer.span(name);
            self.deployment.handle(request, &mut self.rng)
        };
        let response_bytes = {
            let _span = self.tracer.span("proto.encode");
            Envelope::seal(Message::ProviderResponse(response)).to_bytes()
        };
        self.tracer.count("proto.frames", 2.0);
        // Each frame carries a 4-byte length prefix on the socket.
        self.tracer.count(
            "proto.wire_bytes",
            (request_bytes.len() + response_bytes.len() + 8) as f64,
        );
        let _span = self.tracer.span("proto.decode");
        match Envelope::from_bytes(&response_bytes)?.msg {
            Message::ProviderResponse(response) => Ok(response),
            _ => Err(ProtoError::UnexpectedMessage(
                "expected a provider response",
            )),
        }
    }
}

/// The transport installed with `Datacenter::set_transport`: `Direct`
/// delivery with one span per round, named by what the round carries,
/// and the counts that give `requests_per_group` and `shares_ok_frac`.
pub struct TracedTransport {
    inner: Direct,
    tracer: Tracer,
}

impl TracedTransport {
    pub fn new(tracer: Tracer) -> Self {
        Self {
            inner: Direct::new(),
            tracer,
        }
    }
}

fn round_span(first: Option<&HsmRequest>) -> &'static str {
    match first {
        Some(HsmRequest::RecoverShare(_)) => "hsm.recover_round",
        Some(HsmRequest::AuditAndSign { .. } | HsmRequest::AcceptUpdate { .. }) => {
            "hsm.epoch_round"
        }
        Some(HsmRequest::GetEnrollment) => "hsm.enroll_round",
        _ => "hsm.other_round",
    }
}

fn shares_asked(request: &HsmRequest) -> f64 {
    match request {
        HsmRequest::RecoverShare(r) => r.share_indices.len() as f64,
        _ => 0.0,
    }
}

fn shares_served(asked: f64, response: &HsmResponse) -> f64 {
    match response {
        HsmResponse::RecoveryShare {
            response: RecoveryResponse::Plain(shares),
            ..
        } => shares.len() as f64,
        // An encrypted reply hides its share count; it answers the
        // whole request or nothing.
        HsmResponse::RecoveryShare { .. } => asked,
        _ => 0.0,
    }
}

impl Transport for TracedTransport {
    fn name(&self) -> &'static str {
        "direct+spans"
    }

    fn round(
        &mut self,
        traffic: Traffic,
        serve: &mut ServeTrafficFn<'_>,
    ) -> Result<TrafficReply, ProtoError> {
        // Per-request share counts, in delivery order, plus the group
        // shape of the round.
        let (name, asked, groups): (_, Vec<f64>, usize) = match &traffic {
            Traffic::Single(_, request) => {
                (round_span(Some(request)), vec![shares_asked(request)], 1)
            }
            Traffic::Batch(items) => (
                round_span(items.first().map(|(_, r)| r)),
                items.iter().map(|(_, r)| shares_asked(r)).collect(),
                items.len(),
            ),
            Traffic::Grouped(groups) => (
                round_span(groups.first().and_then(|(_, g)| g.first())),
                groups
                    .iter()
                    .flat_map(|(_, g)| g.iter().map(shares_asked))
                    .collect(),
                groups.len(),
            ),
            Traffic::Provider(_) => ("hsm.other_round", Vec::new(), 0),
        };
        let reply = {
            let _span = self.tracer.span(name);
            self.inner.round(traffic, serve)?
        };
        self.tracer.count("hsm.rounds", 1.0);
        if name == "hsm.recover_round" {
            let served: f64 = match &reply {
                TrafficReply::Single(response) => shares_served(asked[0], response),
                TrafficReply::Batch(items) => asked
                    .iter()
                    .zip(items)
                    .map(|(a, (_, r))| shares_served(*a, r))
                    .sum(),
                TrafficReply::Grouped(groups) => asked
                    .iter()
                    .zip(groups.iter().flat_map(|(_, g)| g))
                    .map(|(a, r)| shares_served(*a, r))
                    .sum(),
                TrafficReply::Provider(_) => 0.0,
            };
            self.tracer
                .count("hsm.recover_requests", asked.len() as f64);
            self.tracer.count("hsm.recover_groups", groups as f64);
            self.tracer.count("hsm.shares_asked", asked.iter().sum());
            self.tracer.count("hsm.shares_served", served);
        }
        Ok(reply)
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }

    fn take_stats(&mut self) -> TransportStats {
        self.inner.take_stats()
    }
}
