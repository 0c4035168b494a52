//! # safetypin-chaos — seeded fleet-wide fault scenarios under live fire
//!
//! SafetyPin's security story (Dauterman et al., OSDI 2020) is only as
//! good as its behavior when things break: HSMs fail-stop mid-epoch,
//! the wire drops and corrupts messages, the host loses power during a
//! WAL commit, the daemon is drained mid-storm. This crate composes
//! those failures — deliberately, on a schedule — while real save and
//! recovery traffic runs, and then audits the invariants that must
//! survive *any* of it:
//!
//! * **attempt counters are exact** — every recovery attempt burns
//!   exactly one log insert, whether or not its replies made it back;
//!   retries never double-burn, lost replies never un-burn;
//! * **punctured shares stay unrecoverable** — a burned identifier is
//!   refused even with the true PIN;
//! * **byte-identical recovery** — anything that reports success
//!   returns exactly the saved secret (the AEAD framing turns corrupted
//!   shares into typed errors, never wrong plaintext);
//! * **the telemetry never lies** — the fault counters the registry
//!   reports equal the injector's own ledger, fault for fault.
//!
//! ## Architecture
//!
//! Three planes, composed per scenario:
//!
//! * the **injector plane** ([`Harness`], [`ChaosPlan`]): a step clock
//!   drives scheduled [`ChaosEvent`]s — seeded fault links on the
//!   fleet hop (a [`Faulty`](safetypin_proto::Faulty) transport) and on
//!   the client hop (a [`FaultSource`](safetypin_proto::FaultSource) in
//!   front of the provider endpoint), HSM kill/restore/rotate, torn WAL
//!   commits via
//!   [`CrashingStore`](safetypin_store::CrashingStore);
//! * the **traffic plane** ([`traffic`]): deterministic save/recover
//!   storms, batched recovery waves, wrong-PIN guessing storms and
//!   puncture-exhaustion loops, all through the client's typed
//!   retry/backoff wrapper;
//! * the **resilience plane** (exercised, not defined, here): the
//!   [`Retrying`](safetypin_client::retry::Retrying) endpoint's
//!   idempotency-aware retries and the daemon's drain (typed
//!   `SHUTTING_DOWN` refusals while status still answers).
//!
//! ## Determinism
//!
//! Every scenario is a pure function of one `u64` seed: provisioning,
//! traffic, and each fault link draw from streams derived via
//! [`mix`]`(seed, salt)`. A failing CI run prints its seed; re-running
//! the same scenario with that seed replays the failure byte for byte.
//! (The one exception is [`scenario::drain_during_storm`], which runs a
//! real daemon on real threads — its invariants are the ones that hold
//! under any interleaving.)
//!
//! Run everything from the CLI:
//!
//! ```text
//! safetypin-chaos --seed 3405705229 --out chaos_out
//! ```

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

pub mod audit;
pub mod injector;
pub mod ledger;
pub mod plan;
pub mod scenario;
pub mod traffic;

pub use audit::{Check, ScenarioReport};
pub use injector::{ChaosError, Harness, SharedStore};
pub use ledger::{FaultLedger, InjectorLog};
pub use plan::{mix, ChaosEvent, ChaosPlan};
pub use scenario::{run_all, run_scenario, ScenarioFn, SCENARIOS};
