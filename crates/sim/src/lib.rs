//! Simulation substrate: device cost models, transport model, and
//! queueing analysis.
//!
//! The paper's evaluation runs on a physical cluster of 100 SoloKeys; this
//! workspace executes the same protocols with real cryptography on the
//! host, *counts* every resource-relevant operation (group
//! multiplications, pairings, AES blocks, hash invocations, USB round
//! trips, flash accesses), and converts the counts into device time using
//! the paper's own microbenchmarks (Table 7) and device comparison
//! (Table 2). The paper applies exactly this scaling itself when
//! extrapolating from SoloKeys to YubiHSM2 / SafeNet A700 fleets ("We use
//! g^x/sec to compute the expected throughput of more powerful HSMs based
//! on our measurements using SoloKeys", Figure 12).
//!
//! Modules:
//!
//! - [`device`]: hardware profiles (SoloKey, YubiHSM2, SafeNet A700, a
//!   desktop CPU) with per-operation rates.
//! - [`transport`]: USB HID vs. CDC cost model (Table 7 round-trip rates).
//! - [`cost`]: the operation accumulator and cost-to-time conversion.
//! - [`queue`]: M/M/1 tail-latency analysis plus a discrete-event
//!   cross-check, used by Figure 13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod device;
pub mod queue;
pub mod transport;

pub use cost::{CostModel, OpCosts};
pub use device::DeviceProfile;
pub use transport::TransportProfile;
