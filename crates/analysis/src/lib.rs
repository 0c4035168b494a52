//! Analytic models behind the SafetyPin evaluation.
//!
//! - [`security`]: the Theorem 10 advantage bound and Lemma 8 covering
//!   probabilities (Figure 11's "security loss" annotations), plus Monte
//!   Carlo estimators that check the closed forms.
//! - [`cost`]: fleet throughput and dollar-cost models (Figure 12,
//!   Table 14), including the key-rotation duty cycle from §9.1.
//! - [`bandwidth`]: client keying-material traffic (§9.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
pub mod cost;
pub mod security;
