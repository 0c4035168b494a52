//! Chaos-plane integration tests: pinned-seed scenario audits plus
//! fault-seed property tests over the retry layer's two security
//! invariants — a save that completes is observed exactly once no
//! matter how often the wire made the client resend it, and a recovery
//! that fails burns at most one attempt because the non-idempotent
//! requests (`InsertLog`, `Recover`) are never blind-retried.
//!
//! The property tests count request *arrivals* at the serve closure:
//! the provider-side log proves exactly-once observation, the arrival
//! counters prove the retry wrapper never re-sent a guess.

use std::cell::Cell;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use safetypin::proto::{ProtoError, ProviderRequest};
use safetypin::{Deployment, SystemParams};
use safetypin_chaos::run_scenario;
use safetypin_client::remote;
use safetypin_client::retry::{RetryPolicy, Retrying};

fn params() -> SystemParams {
    let mut p = SystemParams::test_small(4);
    p.f_live_inv = 4;
    p
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 6,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        deadline: Duration::from_secs(30),
    }
}

// ---------------- pinned-seed scenario audits ------------------------

/// The full scenario suite runs in CI through the `safetypin-chaos`
/// binary; here two cheap deterministic scenarios run at the binary's
/// default seed so `cargo test` alone exercises the chaos plane.
#[test]
fn pinned_seed_guessing_storm_audits_clean() {
    let report = run_scenario("guessing-storm-burns-exactly-n", 0xcafe_f00d)
        .expect("scenario is registered")
        .expect("scenario runs to completion");
    assert!(
        report.passed(),
        "failed checks: {:?}",
        report.failures().collect::<Vec<_>>()
    );
}

#[test]
fn pinned_seed_corrupted_wire_storm_audits_clean() {
    let report = run_scenario("corrupted-wire-storm", 0xcafe_f00d)
        .expect("scenario is registered")
        .expect("scenario runs to completion");
    assert!(
        report.passed(),
        "failed checks: {:?}",
        report.failures().collect::<Vec<_>>()
    );
}

// ---------------- fault-seed properties ------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any fault seed: a save driven through the retry wrapper over a
    /// lossy endpoint lands in the provider's log **at most** once —
    /// and exactly once whenever the client saw an ack — even though
    /// the wrapper may legitimately deliver the idempotent save frame
    /// several times.
    #[test]
    fn any_fault_seed_completed_save_observed_exactly_once(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deployment = Deployment::provision(params(), &mut rng).unwrap();
        let mut client = deployment.new_client(b"prop-save-user").unwrap();

        let mut fault_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let drop_request: f64 = fault_rng.gen::<f64>() * 0.5;
        let drop_response: f64 = fault_rng.gen::<f64>() * 0.5;
        let put_arrivals = Cell::new(0u64);

        let outcome = {
            let mut handle_rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
            let dc = &mut deployment.datacenter;
            let endpoint = |request: ProviderRequest| {
                if fault_rng.gen::<f64>() < drop_request {
                    return Err(ProtoError::Dropped);
                }
                if matches!(
                    request,
                    ProviderRequest::PutBackup { .. } | ProviderRequest::SaveBatch(_)
                ) {
                    put_arrivals.set(put_arrivals.get() + 1);
                }
                let response = dc.handle(request, &mut handle_rng);
                if fault_rng.gen::<f64>() < drop_response {
                    return Err(ProtoError::Dropped);
                }
                Ok(response)
            };
            let mut ep = Retrying::new(endpoint, policy()).with_sleeper(|_| {});
            remote::save(&mut ep, &mut client, b"314159", b"prop secret", &mut rng)
        };

        let logged = deployment.datacenter.log_entries().len();
        prop_assert!(logged <= 1, "one save produced {logged} log entries");
        if outcome.is_ok() {
            prop_assert_eq!(logged, 1, "acked save missing from the log");
            prop_assert!(put_arrivals.get() >= 1);
        }
    }

    /// Any fault seed: a recovery over a lossy endpoint burns **at
    /// most** one attempt. The serve-side arrival counters prove the
    /// mechanism — the non-idempotent `InsertLog` and `Recover`
    /// requests each arrive at most once, however many times the
    /// transient failures invited a blind retry.
    #[test]
    fn any_fault_seed_failed_recover_burns_at_most_one_attempt(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut deployment = Deployment::provision(params(), &mut rng).unwrap();
        let mut client = deployment.new_client(b"prop-recover-user").unwrap();

        // Clean setup: the backup is uploaded over a faultless wire.
        let artifact = {
            let mut setup_rng = StdRng::seed_from_u64(seed ^ 0xc2b2_ae35);
            let dc = &mut deployment.datacenter;
            let mut ep = |request: ProviderRequest| Ok(dc.handle(request, &mut setup_rng));
            remote::save(&mut ep, &mut client, b"271828", b"the vault key", &mut rng).unwrap()
        };
        let log_before = deployment.datacenter.log_entries().len();

        let mut fault_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let drop_request: f64 = fault_rng.gen::<f64>() * 0.4;
        let drop_response: f64 = fault_rng.gen::<f64>() * 0.4;
        let insert_arrivals = Cell::new(0u64);
        let recover_arrivals = Cell::new(0u64);

        let outcome = {
            let mut handle_rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
            let dc = &mut deployment.datacenter;
            let endpoint = |request: ProviderRequest| {
                if fault_rng.gen::<f64>() < drop_request {
                    return Err(ProtoError::Dropped);
                }
                match request {
                    ProviderRequest::InsertLog { .. } => {
                        insert_arrivals.set(insert_arrivals.get() + 1);
                    }
                    ProviderRequest::Recover(_) | ProviderRequest::RecoverBatch(_) => {
                        recover_arrivals.set(recover_arrivals.get() + 1);
                    }
                    _ => {}
                }
                let response = dc.handle(request, &mut handle_rng);
                if fault_rng.gen::<f64>() < drop_response {
                    return Err(ProtoError::Dropped);
                }
                Ok(response)
            };
            let mut ep = Retrying::new(endpoint, policy()).with_sleeper(|_| {});
            remote::recover(&mut ep, &client, b"271828", &artifact, &mut rng)
        };

        prop_assert!(
            insert_arrivals.get() <= 1,
            "InsertLog arrived {} times: the guess was blind-retried",
            insert_arrivals.get()
        );
        prop_assert!(
            recover_arrivals.get() <= 1,
            "Recover arrived {} times: the attempt was blind-retried",
            recover_arrivals.get()
        );
        let burned = deployment.datacenter.log_entries().len() - log_before;
        prop_assert!(burned <= 1, "one recovery burned {burned} attempts");
        if let Ok(plaintext) = outcome {
            prop_assert_eq!(plaintext, b"the vault key".to_vec());
            prop_assert_eq!(burned, 1);
        }
    }
}
