//! # safetypin-telemetry
//!
//! Always-on observability for the SafetyPin stack: a process-wide
//! metric registry (counters, gauges, and log2 latency histograms with
//! p50/p95/p99 estimation) plus a lightweight span API for
//! Figure-10-style per-phase timing. The paper's evaluation (§9)
//! hand-instruments each recovery phase; this crate turns that into a
//! production surface — every layer records into the
//! [`global`] registry, and `safetypind` serves a snapshot over the
//! wire (`ProviderRequest::Metrics`).
//!
//! ## Naming scheme
//!
//! Series names are dot-separated `layer.operation` paths, with `_`
//! inside a segment: `daemon.request`, `recover.msm`,
//! `store.fsync`, `tcp.bytes_out`, `faults.injected_drop`. Histograms
//! record **microseconds** unless the name says otherwise
//! (`*.bytes`-style histograms do not exist today — byte totals are
//! counters). Refusals count per error code:
//! `daemon.refused.rate_limited`.
//!
//! ## Cost model
//!
//! Recording is lock-free: counters are cache-line-sharded atomics,
//! histogram recording is a few relaxed `fetch_add`s. Series lookup by
//! name takes a read lock; hot paths may cache the returned handles.
//! The whole registry can be disabled
//! ([`Registry::set_enabled`]), which reduces every record call to one
//! relaxed load — the overhead tests pin both modes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
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

mod histogram;
mod registry;
mod span;

pub use histogram::{bucket_bounds, bucket_index, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{render_text, Counter, Gauge, Registry, Snapshot};
pub use span::{
    begin_trace, current_trace, span_depth, span_path, start_span, SpanGuard, TraceGuard,
};

use std::sync::OnceLock;

/// The process-wide registry every instrumented layer records into.
///
/// Created enabled on first touch. Tests that need isolation can build
/// a private [`Registry`]; tests against the global should assert on
/// deltas, not absolutes, since suites run concurrently.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Opens a scoped timer on the [`global`] registry: the guard lives to
/// the end of the enclosing block and records the elapsed microseconds
/// into the histogram named by the literal.
///
/// ```
/// fn msm_heavy_phase() {
///     safetypin_telemetry::span!("recover.msm");
///     // ... work measured until the end of this block ...
/// }
/// # msm_heavy_phase();
/// # assert_eq!(safetypin_telemetry::global().histogram("recover.msm").count(), 1);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        let _safetypin_span_guard = $crate::start_span($name);
    };
}
