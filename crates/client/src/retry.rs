//! Typed retry with capped exponential backoff for remote flows.
//!
//! [`Retrying`] wraps any [`ProviderEndpoint`] and re-sends a request
//! when — and only when — a retry provably cannot change the system's
//! security state:
//!
//! * **The request must be idempotent**
//!   ([`ProviderRequest::is_idempotent`]). Reads, `PutBackup` /
//!   `SaveBatch` (content-addressed: an identical re-save is a no-op in
//!   the provider's log), `RunEpoch`, and `Shutdown` qualify.
//!   `InsertLog`, `Recover`, and `RecoverBatch` do **not**: a recovery
//!   attempt burns one of the user's guesses, and blind-retrying one
//!   after an ambiguous failure could burn two. Those requests pass
//!   through exactly once, always.
//! * **The failure must be transient**: a transport-level fault
//!   ([`ProtoError::is_transient`] — drop, corruption, socket I/O) or a
//!   typed back-pressure refusal
//!   ([`ErrorReply::is_transient`](safetypin_proto::ErrorReply::is_transient)
//!   — `RATE_LIMITED`, `OVERLOADED`). A `SHUTTING_DOWN` refusal, a log
//!   refusal, or a protocol violation is final.
//!
//! Backoff is exponential from [`RetryPolicy::base_delay`], doubling
//! per attempt and capped at [`RetryPolicy::max_delay`]; the whole
//! operation additionally respects a wall-clock
//! [`RetryPolicy::deadline`] — the wrapper gives up (returning the last
//! failure) rather than sleep past it. Chaos tests swap the sleeper out
//! ([`Retrying::with_sleeper`]) so a seeded scenario replays without
//! real waiting, and read [`Retrying::stats`] to assert exactly how
//! many retries fired.

use std::sync::Arc;
use std::time::{Duration, Instant};

use safetypin_proto::{ProtoError, ProviderRequest, ProviderResponse};
use safetypin_telemetry::{Counter, Registry};

use crate::remote::ProviderEndpoint;

/// When and how hard to retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per request, including the first (`1` = never retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt.
    pub base_delay: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_delay: Duration,
    /// Wall-clock budget for one operation, attempts plus sleeps; the
    /// wrapper returns the last failure rather than sleep past it.
    pub deadline: Duration,
}

impl Default for RetryPolicy {
    /// Interactive-client defaults: four tries over at most ten
    /// seconds, backing off 50 ms → 100 ms → 200 ms.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            deadline: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (the wrapper becomes a transparent
    /// pass-through with accounting).
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// The backoff before retry number `retry` (1-based): exponential
    /// from `base_delay`, capped at `max_delay`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(20);
        let grown = self
            .base_delay
            .saturating_mul(1u32.checked_shl(shift).unwrap_or(u32::MAX));
        grown.min(self.max_delay)
    }
}

/// Retry accounting, for tests and invariant audits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Requests re-sent after a transient failure.
    pub retries: u64,
    /// Operations that returned their last failure with attempts or
    /// deadline budget exhausted.
    pub exhausted: u64,
    /// Non-idempotent requests passed through untouched.
    pub passthrough: u64,
}

/// A [`ProviderEndpoint`] wrapper adding policy-driven retry. See the
/// module docs for the (deliberately narrow) conditions under which a
/// request is re-sent.
pub struct Retrying<E> {
    inner: E,
    policy: RetryPolicy,
    sleeper: Box<dyn FnMut(Duration) + Send>,
    stats: RetryStats,
    retried: Arc<Counter>,
    gave_up: Arc<Counter>,
}

impl<E: ProviderEndpoint> Retrying<E> {
    /// Wraps `endpoint` with `policy`; backoff sleeps on the calling
    /// thread.
    pub fn new(endpoint: E, policy: RetryPolicy) -> Self {
        let registry = safetypin_telemetry::global();
        Self {
            inner: endpoint,
            policy,
            sleeper: Box::new(std::thread::sleep),
            stats: RetryStats::default(),
            retried: registry.counter("client.retry.attempts"),
            gave_up: registry.counter("client.retry.exhausted"),
        }
    }

    /// Replaces the backoff sleeper — chaos scenarios pass a recording
    /// no-op so a seeded run replays in milliseconds while still
    /// observing every backoff the policy would have slept.
    pub fn with_sleeper(mut self, sleeper: impl FnMut(Duration) + Send + 'static) -> Self {
        self.sleeper = Box::new(sleeper);
        self
    }

    /// Redirects this instance's retry counters into `registry`
    /// (same series names), leaving the process-wide ledger untouched.
    pub fn with_registry(mut self, registry: &Registry) -> Self {
        self.retried = registry.counter("client.retry.attempts");
        self.gave_up = registry.counter("client.retry.exhausted");
        self
    }

    /// Retry accounting so far.
    pub fn stats(&self) -> RetryStats {
        self.stats
    }

    /// Unwraps the endpoint.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

/// Whether this outcome may be retried (transient at either the
/// transport or the refusal layer).
fn transient(outcome: &Result<ProviderResponse, ProtoError>) -> bool {
    match outcome {
        Err(e) => e.is_transient(),
        Ok(ProviderResponse::Error(reply)) => reply.is_transient(),
        Ok(_) => false,
    }
}

impl<E: ProviderEndpoint> ProviderEndpoint for Retrying<E> {
    fn call(&mut self, request: ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        if !request.is_idempotent() {
            self.stats.passthrough += 1;
            return self.inner.call(request);
        }
        let started = Instant::now();
        let mut outcome = self.inner.call(request.clone());
        for retry in 1..self.policy.max_attempts {
            if !transient(&outcome) {
                return outcome;
            }
            let pause = self.policy.backoff(retry);
            if started.elapsed() + pause > self.policy.deadline {
                break;
            }
            (self.sleeper)(pause);
            self.stats.retries += 1;
            self.retried.incr();
            outcome = self.inner.call(request.clone());
        }
        if transient(&outcome) {
            self.stats.exhausted += 1;
            self.gave_up.incr();
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetypin_proto::{codes, ErrorReply};

    /// An endpoint scripted to fail `failures` times, then succeed.
    fn flaky(
        failures: usize,
        calls: Arc<std::sync::atomic::AtomicU64>,
    ) -> impl FnMut(ProviderRequest) -> Result<ProviderResponse, ProtoError> {
        let mut remaining = failures;
        move |_req| {
            calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if remaining > 0 {
                remaining -= 1;
                Err(ProtoError::Dropped)
            } else {
                Ok(ProviderResponse::Ack)
            }
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            deadline: Duration::from_secs(5),
        }
    }

    fn put_backup() -> ProviderRequest {
        ProviderRequest::PutBackup {
            username: b"u".to_vec(),
            blob: b"b".to_vec(),
        }
    }

    #[test]
    fn idempotent_request_survives_transient_drops() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ep = Retrying::new(flaky(2, calls.clone()), fast_policy()).with_sleeper(|_| {});
        let out = ep.call(put_backup()).unwrap();
        assert_eq!(out, ProviderResponse::Ack);
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 3);
        assert_eq!(ep.stats().retries, 2);
        assert_eq!(ep.stats().exhausted, 0);
    }

    #[test]
    fn non_idempotent_request_is_never_retried() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ep = Retrying::new(flaky(2, calls.clone()), fast_policy()).with_sleeper(|_| {});
        let out = ep.call(ProviderRequest::InsertLog {
            id: vec![1],
            value: vec![2],
        });
        assert!(matches!(out, Err(ProtoError::Dropped)));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ep.stats().passthrough, 1);
        assert_eq!(ep.stats().retries, 0);
    }

    #[test]
    fn exhaustion_returns_the_last_failure() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut ep = Retrying::new(flaky(10, calls.clone()), fast_policy()).with_sleeper(|_| {});
        let out = ep.call(put_backup());
        assert!(matches!(out, Err(ProtoError::Dropped)));
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 4);
        assert_eq!(ep.stats().retries, 3);
        assert_eq!(ep.stats().exhausted, 1);
    }

    #[test]
    fn transient_refusals_are_retried_but_final_refusals_are_not() {
        for (code, expect_calls) in [
            (codes::OVERLOADED, 4),
            (codes::RATE_LIMITED, 4),
            (codes::SHUTTING_DOWN, 1),
            (codes::LOG_REFUSED, 1),
        ] {
            let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
            let counted = calls.clone();
            let ep = move |_req: ProviderRequest| {
                counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Ok(ProviderResponse::Error(ErrorReply::new(code, "refused")))
            };
            let mut ep = Retrying::new(ep, fast_policy()).with_sleeper(|_| {});
            let out = ep.call(put_backup()).unwrap();
            assert!(matches!(out, ProviderResponse::Error(_)));
            assert_eq!(
                calls.load(std::sync::atomic::Ordering::SeqCst),
                expect_calls,
                "code={code}"
            );
        }
    }

    #[test]
    fn deadline_stops_retrying_before_attempts_run_out() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let policy = RetryPolicy {
            max_attempts: 50,
            base_delay: Duration::from_secs(30),
            max_delay: Duration::from_secs(30),
            deadline: Duration::from_millis(10),
        };
        let mut ep = Retrying::new(flaky(100, calls.clone()), policy)
            .with_sleeper(|_| panic!("must not sleep past the deadline"));
        let out = ep.call(put_backup());
        assert!(matches!(out, Err(ProtoError::Dropped)));
        // The first 30 s backoff already overruns the 10 ms deadline.
        assert_eq!(calls.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(ep.stats().exhausted, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(300),
            deadline: Duration::from_secs(60),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(50));
        assert_eq!(p.backoff(2), Duration::from_millis(100));
        assert_eq!(p.backoff(3), Duration::from_millis(200));
        assert_eq!(p.backoff(4), Duration::from_millis(300)); // capped
        assert_eq!(p.backoff(40), Duration::from_millis(300)); // no overflow
    }
}
