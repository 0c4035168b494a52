//! The metric registry: named counters, gauges, and histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::histogram::{Histogram, HistogramSnapshot};

/// Counter shard count: enough to spread a handful of daemon worker
/// threads across cache lines without bloating every series.
const SHARDS: usize = 8;

/// One cache-line-aligned shard, so concurrent writers on different
/// shards never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Shard(AtomicU64);

/// Hands each thread a stable shard slot, round-robin by thread birth.
fn shard_slot() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SLOT: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SLOT.with(|slot| *slot)
}

/// A monotonically increasing event counter, sharded across cache
/// lines so concurrent increments from worker threads stay cheap.
#[derive(Debug)]
pub struct Counter {
    enabled: Arc<AtomicBool>,
    shards: [Shard; SHARDS],
}

impl Counter {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            shards: Default::default(),
        }
    }

    /// Adds `n` to the counter (a no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Some(shard) = self.shards.get(shard_slot()) {
            shard.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments the counter by one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A signed instantaneous value (queue depths, active connections).
#[derive(Debug)]
pub struct Gauge {
    enabled: Arc<AtomicBool>,
    value: AtomicI64,
}

impl Gauge {
    fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge (a no-op while the registry is disabled).
    pub fn set(&self, v: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) to the gauge.
    pub fn add(&self, delta: i64) {
        if self.enabled.load(Ordering::Relaxed) {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Named series live in sorted maps so snapshots render
/// deterministically.
#[derive(Debug, Default)]
struct Series {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// A process-wide (or test-private) metric registry.
///
/// Series are created on first touch and live for the registry's
/// lifetime; looking one up is a read-lock plus a map probe, and the
/// returned [`Arc`] handle can be cached by hot call sites. The whole
/// registry can be switched off ([`set_enabled`](Self::set_enabled)),
/// which turns every record call into a single relaxed atomic load.
#[derive(Debug)]
pub struct Registry {
    enabled: Arc<AtomicBool>,
    series: RwLock<Series>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty, enabled registry.
    pub fn new() -> Self {
        Self {
            enabled: Arc::new(AtomicBool::new(true)),
            series: RwLock::new(Series::default()),
        }
    }

    /// Turns recording on or off. Disabling does not clear existing
    /// series; it freezes them.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is currently on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Looks up (creating on first touch) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.read_series(|s| s.counters.get(name).cloned()) {
            return c;
        }
        let enabled = Arc::clone(&self.enabled);
        self.write_series(|s| {
            Arc::clone(
                s.counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Counter::new(enabled))),
            )
        })
    }

    /// Looks up (creating on first touch) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.read_series(|s| s.gauges.get(name).cloned()) {
            return g;
        }
        let enabled = Arc::clone(&self.enabled);
        self.write_series(|s| {
            Arc::clone(
                s.gauges
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Gauge::new(enabled))),
            )
        })
    }

    /// Looks up (creating on first touch) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.read_series(|s| s.histograms.get(name).cloned()) {
            return h;
        }
        let enabled = Arc::clone(&self.enabled);
        self.write_series(|s| {
            Arc::clone(
                s.histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(Histogram::new(enabled))),
            )
        })
    }

    /// A point-in-time copy of every series, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        self.read_series(|s| Snapshot {
            counters: s
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: s.gauges.iter().map(|(n, g)| (n.clone(), g.get())).collect(),
            histograms: s
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        })
    }

    /// Runs `f` under the read lock, recovering from poison (a metric
    /// map is never left mid-mutation: insertions are single-step).
    fn read_series<T>(&self, f: impl FnOnce(&Series) -> T) -> T {
        match self.series.read() {
            Ok(guard) => f(&guard),
            Err(poisoned) => f(&poisoned.into_inner()),
        }
    }

    /// Runs `f` under the write lock, recovering from poison.
    fn write_series<T>(&self, f: impl FnOnce(&mut Series) -> T) -> T {
        match self.series.write() {
            Ok(mut guard) => f(&mut guard),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }
}

/// A point-in-time copy of a [`Registry`], sorted by series name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, meters)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// The total for `name`, or `None` if the counter does not exist.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value for `name`, or `None` if the gauge does not exist.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The meters for `name`, or `None` if the histogram does not exist.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot through [`render_text`].
    pub fn render_text(&self) -> String {
        render_text(
            &self.counters,
            &self.gauges,
            self.histograms
                .iter()
                .map(|(name, h)| (name.as_str(), h.summary())),
        )
    }
}

/// The one text exposition, one line per series — what
/// `safetypin-cli metrics` prints. A histogram is given as its
/// [`summary`](crate::HistogramSnapshot::summary):
///
/// ```text
/// counter daemon.requests 42
/// gauge daemon.connections_active 1
/// histogram daemon.request count=42 sum=12345 min=10 max=999 p50=123 p95=456 p99=789
/// ```
pub fn render_text<'a>(
    counters: &[(String, u64)],
    gauges: &[(String, i64)],
    histograms: impl IntoIterator<Item = (&'a str, [u64; 7])>,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (name, value) in counters {
        let _ = writeln!(out, "counter {name} {value}");
    }
    for (name, value) in gauges {
        let _ = writeln!(out, "gauge {name} {value}");
    }
    for (name, [count, sum, min, max, p50, p95, p99]) in histograms {
        let _ = writeln!(
            out,
            "histogram {name} count={count} sum={sum} min={min} max={max} p50={p50} p95={p95} p99={p99}",
        );
    }
    out
}
