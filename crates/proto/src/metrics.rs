//! Wire form of a telemetry snapshot ([`ProviderRequest::Metrics`]).
//!
//! [`MetricsReport`] is the over-the-wire shape of a
//! [`safetypin_telemetry::Snapshot`]: counters and gauges ride whole,
//! histograms ride as summaries (count/sum/min/max plus the
//! p50/p95/p99 estimates) so a snapshot of a busy fleet stays a few
//! KiB. Series names are UTF-8; a peer that sends non-UTF-8 name
//! bytes gets them replaced lossily rather than rejected, keeping the
//! decoder total. Section lengths are capped by
//! [`MAX_METRICS_SERIES`] so a hostile header cannot force a large
//! allocation.
//!
//! [`ProviderRequest::Metrics`]: crate::api::ProviderRequest::Metrics

use safetypin_primitives::wire;
use safetypin_telemetry::Snapshot;

/// Upper bound on the series one [`MetricsReport`] section may carry;
/// oversized sections fail decoding with
/// [`WireError::LengthOutOfRange`](safetypin_primitives::error::WireError::LengthOutOfRange)
/// before any payload is parsed.
pub const MAX_METRICS_SERIES: usize = 4096;

wire! {
    /// One histogram's summary inside a [`MetricsReport`].
    ///
    /// All values are in the histogram's recording unit — microseconds
    /// for every latency series (the workspace convention).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HistogramSummary {
        /// Series name (`layer.operation`).
        pub name: String,
        /// Observations recorded.
        pub count: u64,
        /// Sum of all recorded values.
        pub sum: u64,
        /// Smallest recorded value (0 when the series is empty).
        pub min: u64,
        /// Largest recorded value.
        pub max: u64,
        /// Median estimate.
        pub p50: u64,
        /// 95th-percentile estimate.
        pub p95: u64,
        /// 99th-percentile estimate.
        pub p99: u64,
    }
}

wire! {
    /// A live snapshot of a service's metric registry, served lock-free
    /// (no fleet mutex) by `safetypind` in reply to
    /// [`ProviderRequest::Metrics`](crate::api::ProviderRequest::Metrics).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct MetricsReport {
        /// `(name, total)` for every counter, sorted by name.
        pub counters: Vec<(String, u64)> as seq(MAX_METRICS_SERIES),
        /// `(name, value)` for every gauge, sorted by name.
        pub gauges: Vec<(String, i64)> as seq(MAX_METRICS_SERIES),
        /// Histogram summaries, sorted by name.
        pub histograms: Vec<HistogramSummary> as seq(MAX_METRICS_SERIES),
    }
}

impl MetricsReport {
    /// Summarizes a registry snapshot into its wire form.
    pub fn from_snapshot(snapshot: &Snapshot) -> Self {
        Self {
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
            histograms: snapshot
                .histograms
                .iter()
                .map(|(name, h)| {
                    let [count, sum, min, max, p50, p95, p99] = h.summary();
                    HistogramSummary {
                        name: name.clone(),
                        count,
                        sum,
                        min,
                        max,
                        p50,
                        p95,
                        p99,
                    }
                })
                .collect(),
        }
    }

    /// Snapshots the process-wide [`safetypin_telemetry::global`]
    /// registry — what every serving role answers `Metrics` with.
    pub fn from_global() -> Self {
        Self::from_snapshot(&safetypin_telemetry::global().snapshot())
    }

    /// The total for a counter, or `None` if it is absent.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The summary for a histogram, or `None` if it is absent.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the report one line per series — the text exposition
    /// `safetypin-cli metrics` prints
    /// ([`safetypin_telemetry::render_text`]).
    pub fn render_text(&self) -> String {
        safetypin_telemetry::render_text(
            &self.counters,
            &self.gauges,
            self.histograms.iter().map(|h| {
                (
                    h.name.as_str(),
                    [h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99],
                )
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_exactly_like_its_snapshot() {
        let registry = safetypin_telemetry::Registry::new();
        registry.counter("m.count").add(7);
        registry.gauge("m.gauge").set(-1);
        registry.histogram("m.empty");
        for v in [3, 40, 500] {
            registry.histogram("m.lat").record(v);
        }
        let snapshot = registry.snapshot();
        assert_eq!(
            MetricsReport::from_snapshot(&snapshot).render_text(),
            snapshot.render_text()
        );
    }
}
