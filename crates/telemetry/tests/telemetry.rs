//! Histogram/quantile correctness, concurrency, and overhead tests
//! for `safetypin-telemetry`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::disallowed_macros,
    reason = "test code fails by panicking"
)]

use proptest::prelude::*;
use safetypin_telemetry::{bucket_bounds, bucket_index, Registry, BUCKETS};

#[test]
fn bucket_boundaries_are_exact_powers_of_two() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    assert_eq!(bucket_index(2), 2);
    assert_eq!(bucket_index(3), 2);
    assert_eq!(bucket_index(4), 3);
    assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    // Every power of two opens a new bucket; its predecessor closes one.
    for shift in 1..63 {
        let low = 1u64 << shift;
        assert_eq!(bucket_index(low), bucket_index(low - 1) + 1, "at 2^{shift}");
    }
}

#[test]
fn bucket_bounds_partition_the_u64_range() {
    let (low, high) = bucket_bounds(0);
    assert_eq!((low, high), (0, 0));
    let mut expected_low = 1u64;
    for index in 1..BUCKETS {
        let (low, high) = bucket_bounds(index);
        assert_eq!(
            low,
            expected_low,
            "bucket {index} starts where {} ended",
            index - 1
        );
        assert!(high >= low);
        // Bounds and index agree: every edge value maps back to this bucket.
        assert_eq!(bucket_index(low), index.min(BUCKETS - 1));
        assert_eq!(bucket_index(high), index.min(BUCKETS - 1));
        if high == u64::MAX {
            assert_eq!(index, BUCKETS - 1);
            break;
        }
        expected_low = high + 1;
    }
}

#[test]
fn snapshot_meters_match_recorded_values() {
    let registry = Registry::new();
    let h = registry.histogram("t.sample");
    for v in [0, 1, 5, 1000, 1000, 7] {
        h.record(v);
    }
    let snap = registry.snapshot();
    let s = snap.histogram("t.sample").expect("series exists");
    assert_eq!(s.count, 6);
    assert_eq!(s.sum, 2013);
    assert_eq!(s.min, 0);
    assert_eq!(s.max, 1000);
    assert_eq!(s.buckets.iter().sum::<u64>(), 6);
}

proptest! {
    /// A quantile estimate always lands in the same log2 bucket as the
    /// exact order statistic, i.e. within a factor of two (+1 for the
    /// zero bucket edge).
    #[test]
    fn quantile_estimates_track_exact_order_statistics(
        mut samples in collection::vec(0u64..1_000_000, 1..200),
        q_percent in 0u64..=100,
    ) {
        let q = q_percent as f64 / 100.0;
        let registry = Registry::new();
        let h = registry.histogram("t.q");
        for &v in &samples {
            h.record(v);
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).max(1);
        let exact = samples[rank - 1];
        let estimate = h.snapshot().quantile(q);
        prop_assert!(
            estimate <= exact.saturating_mul(2).saturating_add(1),
            "estimate {estimate} above 2x exact {exact}"
        );
        prop_assert!(
            estimate.saturating_mul(2).saturating_add(1) >= exact,
            "estimate {estimate} below half of exact {exact}"
        );
        // Estimates never leave the observed range.
        prop_assert!(estimate >= samples[0] && estimate <= samples[samples.len() - 1]);
    }

    /// Counters are exact regardless of the value mix.
    #[test]
    fn counter_totals_are_exact(increments in collection::vec(0u64..1_000, 1..100)) {
        let registry = Registry::new();
        let c = registry.counter("t.exact");
        for &n in &increments {
            c.add(n);
        }
        prop_assert_eq!(c.get(), increments.iter().sum::<u64>());
    }
}

#[test]
fn concurrent_increments_lose_nothing() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = Registry::new();
    let counter = registry.counter("t.concurrent");
    let histogram = registry.histogram("t.concurrent_lat");
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for i in 0..PER_THREAD {
                    counter.incr();
                    histogram.record(i);
                }
            });
        }
    });
    assert_eq!(counter.get(), THREADS * PER_THREAD);
    let snap = histogram.snapshot();
    assert_eq!(snap.count, THREADS * PER_THREAD);
    assert_eq!(snap.buckets.iter().sum::<u64>(), THREADS * PER_THREAD);
    assert_eq!(snap.min, 0);
    assert_eq!(snap.max, PER_THREAD - 1);
}

#[test]
fn disabled_registry_records_nothing() {
    let registry = Registry::new();
    let c = registry.counter("t.off");
    let h = registry.histogram("t.off_lat");
    registry.set_enabled(false);
    c.add(5);
    h.record(42);
    assert_eq!(c.get(), 0);
    assert_eq!(h.count(), 0);
    registry.set_enabled(true);
    c.add(5);
    h.record(42);
    assert_eq!(c.get(), 5);
    assert_eq!(h.count(), 1);
}

/// Both modes stay cheap enough that per-request metering is free
/// next to the serve path's crypto: 1M enabled records (counter +
/// histogram) and 10M disabled ones each finish in generous wall-clock
/// budgets even on loaded CI machines (~tens of ms in practice).
#[test]
fn record_paths_stay_cheap() {
    let registry = Registry::new();
    let counter = registry.counter("t.hot");
    let histogram = registry.histogram("t.hot_lat");

    let enabled_start = std::time::Instant::now();
    for i in 0..1_000_000u64 {
        counter.incr();
        histogram.record(i & 0xffff);
    }
    let enabled = enabled_start.elapsed();
    assert_eq!(counter.get(), 1_000_000);

    registry.set_enabled(false);
    let disabled_start = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        counter.incr();
        histogram.record(i & 0xffff);
    }
    let disabled = disabled_start.elapsed();
    assert_eq!(counter.get(), 1_000_000, "disabled adds must not land");

    assert!(
        enabled < std::time::Duration::from_secs(5),
        "1M enabled records took {enabled:?}"
    );
    assert!(
        disabled < std::time::Duration::from_secs(5),
        "10M disabled records took {disabled:?}"
    );
}

#[test]
fn spans_record_into_global_and_nest() {
    use safetypin_telemetry as telemetry;
    let before = telemetry::global().histogram("test.span_outer").count();
    {
        telemetry::span!("test.span_outer");
        assert_eq!(telemetry::span_depth(), 1);
        {
            telemetry::span!("test.span_inner");
            assert_eq!(telemetry::span_path(), "test.span_outer/test.span_inner");
        }
        assert_eq!(telemetry::span_depth(), 1);
    }
    assert_eq!(telemetry::span_depth(), 0);
    assert_eq!(
        telemetry::global().histogram("test.span_outer").count(),
        before + 1
    );
}

#[test]
fn trace_ids_are_unique_and_scoped() {
    use safetypin_telemetry as telemetry;
    assert_eq!(telemetry::current_trace(), None);
    let first = {
        let trace = telemetry::begin_trace();
        assert_eq!(telemetry::current_trace(), Some(trace.id()));
        trace.id()
    };
    assert_eq!(telemetry::current_trace(), None);
    let second = telemetry::begin_trace();
    assert_ne!(first, second.id());
}

/// The golden for the one text exposition (`render_text`): line
/// order, field order, and an empty histogram's `min` reading 0.
#[test]
fn text_exposition_lists_every_series() {
    let registry = Registry::new();
    registry.counter("t.render_count").add(3);
    registry.gauge("t.render_gauge").set(-2);
    registry.histogram("t.render_lat").record(100);
    registry.histogram("t.render_empty");
    assert_eq!(
        registry.snapshot().render_text(),
        "counter t.render_count 3\n\
         gauge t.render_gauge -2\n\
         histogram t.render_empty count=0 sum=0 min=0 max=0 p50=0 p95=0 p99=0\n\
         histogram t.render_lat count=1 sum=100 min=100 max=100 p50=100 p95=100 p99=100\n"
    );
}
