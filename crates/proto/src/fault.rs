//! Seeded fault injection for both hops: [`Faulty`] faults the
//! provider↔HSM hop's grouped replies, and the chaos harness faults the
//! client↔provider hop with a [`FaultSource`] in front of its provider
//! endpoint.
//!
//! [`Faulty`]: crate::Faulty

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safetypin_telemetry::{Counter, Registry};

use crate::transport::TransportStats;

/// Which messages a fault plan may fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScope {
    /// Fault any message kind.
    All,
    /// Fault only recovery traffic. Epoch certification, key
    /// management and the rest of the provider API flow cleanly — this
    /// scope models the §8 failure-during-recovery scenarios without
    /// stalling the log.
    RecoveryOnly,
}

/// Fault-injection configuration for a [`FaultSource`].
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

    /// Restricts the faults to recovery traffic.
    pub fn recovery_only(mut self) -> Self {
        self.scope = FaultScope::RecoveryOnly;
        self
    }
}

/// The fate drawn for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Delivered untouched.
    Deliver,
    /// Lost in transit.
    Drop,
    /// Delivered with one bit of its encoding flipped
    /// ([`FaultSource::flip_bit`]).
    Corrupt,
    /// Delivered late; the delay is charged to the tally's `seconds`.
    Delay,
}

/// One seeded stream of message fates under a [`FaultPlan`].
///
/// Faults are decided by a seeded deterministic generator, so a failing
/// scenario replays exactly: every in-scope message's fate is up to
/// three Bernoulli draws (drop, then corrupt, then delay, stopping at
/// the first hit), and a corruption then draws the bit to flip. A
/// message outside the plan's [`FaultScope`] draws nothing.
///
/// Every fault handed out is counted twice: in the source's own tally
/// and in a telemetry counter (`faults.injected_drop` /
/// `faults.injected_corrupt` / `faults.injected_delay`), so chaos tests
/// can reconcile "exactly N faults fired" from two independent accounts.
pub struct FaultSource {
    plan: FaultPlan,
    rng: StdRng,
    tally: TransportStats,
    counters: Counters,
}

/// The `faults.injected_*` telemetry counters of one registry.
struct Counters {
    drop: Arc<Counter>,
    corrupt: Arc<Counter>,
    delay: Arc<Counter>,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Self {
            drop: registry.counter("faults.injected_drop"),
            corrupt: registry.counter("faults.injected_corrupt"),
            delay: registry.counter("faults.injected_delay"),
        }
    }
}

impl FaultSource {
    /// A fault stream under `plan`, seeded with `seed`, counting into
    /// `registry` (`safetypin_telemetry::global()` for the process-wide
    /// ledger).
    pub fn new(plan: FaultPlan, seed: u64, registry: &Registry) -> Self {
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed),
            tally: TransportStats::default(),
            counters: Counters::new(registry),
        }
    }

    /// Draws and counts a request's fate; `recovery` says whether it is
    /// recovery traffic. A request is dropped or delayed, never
    /// corrupted: a corrupt draw delivers it, uncounted.
    pub fn request_fate(&mut self, recovery: bool) -> Fate {
        match self.draw(recovery) {
            Fate::Corrupt => Fate::Deliver,
            fate => self.count(fate),
        }
    }

    /// Draws and counts a response's fate; `recovery` says whether it
    /// answers recovery traffic.
    pub fn response_fate(&mut self, recovery: bool) -> Fate {
        let fate = self.draw(recovery);
        self.count(fate)
    }

    /// Flips one random bit of `bytes` (a [`Fate::Corrupt`] message's
    /// encoding).
    pub fn flip_bit(&mut self, bytes: &mut [u8]) {
        if !bytes.is_empty() {
            let pos = self.rng.gen_range(0..bytes.len());
            let bit = 1u8 << self.rng.gen_range(0..8u32);
            if let Some(byte) = bytes.get_mut(pos) {
                *byte ^= bit;
            }
        }
    }

    /// Drains the faults counted so far — `dropped`, `corrupted`, and
    /// the delays' simulated `seconds` — returning the old tally.
    pub fn take_tally(&mut self) -> TransportStats {
        std::mem::take(&mut self.tally)
    }

    pub(crate) fn tally(&self) -> TransportStats {
        self.tally
    }

    /// Moves the fault counters to `registry` (same series names).
    pub(crate) fn count_into(&mut self, registry: &Registry) {
        self.counters = Counters::new(registry);
    }

    fn draw(&mut self, recovery: bool) -> Fate {
        let in_scope = match self.plan.scope {
            FaultScope::All => true,
            FaultScope::RecoveryOnly => recovery,
        };
        if !in_scope {
            Fate::Deliver
        } else if self.rng.gen_bool(self.plan.drop_prob) {
            Fate::Drop
        } else if self.rng.gen_bool(self.plan.corrupt_prob) {
            Fate::Corrupt
        } else if self.rng.gen_bool(self.plan.delay_prob) {
            Fate::Delay
        } else {
            Fate::Deliver
        }
    }

    fn count(&mut self, fate: Fate) -> Fate {
        match fate {
            Fate::Deliver => {}
            Fate::Drop => {
                self.tally.dropped += 1;
                self.counters.drop.incr();
            }
            Fate::Corrupt => {
                self.tally.corrupted += 1;
                self.counters.corrupt.incr();
            }
            Fate::Delay => {
                self.tally.seconds += self.plan.delay_seconds;
                self.counters.delay.incr();
            }
        }
        fate
    }
}
