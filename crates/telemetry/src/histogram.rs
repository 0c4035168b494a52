//! Fixed-bucket log2 histograms with quantile estimation.
//!
//! A [`Histogram`] is 64 power-of-two buckets plus count/sum/min/max
//! meters, all plain relaxed atomics: recording is a handful of
//! uncontended `fetch_add`s and never allocates or locks, so the serve
//! path can meter every request. Bucket `0` holds the value `0`;
//! bucket `i > 0` holds values in `[2^(i-1), 2^i - 1]`, so a quantile
//! read from the cumulative bucket counts is always within a factor of
//! two of the exact order statistic (the proptests in
//! `tests/telemetry.rs` pin that bound).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Number of buckets: one per possible `floor(log2)` of a `u64`, plus
/// a dedicated zero bucket.
pub const BUCKETS: usize = 64;

/// Bucket index for a recorded value: `0` for `0`, otherwise
/// `floor(log2(value)) + 1` (capped at the last bucket).
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive value range `(low, high)` covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        (0, 0)
    } else if index >= BUCKETS - 1 {
        (1u64 << (BUCKETS - 2), u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

/// A concurrent log2 latency/size histogram.
///
/// Values are unitless `u64`s; by workspace convention every latency
/// histogram records **microseconds** (see the crate docs' naming
/// scheme). Recording while the owning registry is disabled is a
/// single relaxed load.
#[derive(Debug)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub(crate) fn new(enabled: Arc<AtomicBool>) -> Self {
        Self {
            enabled,
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        if let Some(bucket) = self.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records an elapsed [`Duration`](std::time::Duration) in
    /// microseconds (saturating past ~584k years).
    pub fn record_duration(&self, elapsed: std::time::Duration) {
        self.record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every meter.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s meters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (`u64::MAX` when empty).
    pub min: u64,
    /// Largest recorded value (`0` when empty).
    pub max: u64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Mean of the recorded values (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) from the cumulative
    /// bucket counts, interpolating inside the target bucket and
    /// clamping to the observed min/max. Returns `0` when empty.
    ///
    /// The estimate lands in the same bucket as the exact order
    /// statistic `sorted[ceil(q*count) - 1]`, so it is within a factor
    /// of two of the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                let (low, high) = bucket_bounds(index);
                // Linear interpolation by rank position inside the bucket.
                let below = cumulative - bucket;
                let within = (rank - below) as f64 / bucket.max(1) as f64;
                let span = (high - low) as f64;
                let estimate = low + (span * within) as u64;
                return estimate.clamp(self.min.min(self.max), self.max);
            }
        }
        self.max
    }

    /// `[count, sum, min, max, p50, p95, p99]`: what the text
    /// exposition prints and the wire summary carries of one series.
    /// `min` reads `0` for an empty series.
    pub fn summary(&self) -> [u64; 7] {
        let min = if self.count == 0 { 0 } else { self.min };
        [
            self.count,
            self.sum,
            min,
            self.max,
            self.p50(),
            self.p95(),
            self.p99(),
        ]
    }

    /// The median estimate ([`quantile`](Self::quantile) at 0.50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}
