//! Security bounds: Theorem 10 and Lemma 8.
//!
//! Theorem 10 bounds a location-hiding-encryption attacker's advantage by
//!
//! ```text
//! Adv ≤ 2^(−N/4) + N·Q·CDH + 3N/(n·|P|) + AE
//! ```
//!
//! The interesting term is `3N/(n·|P|)`: relative to the trivial
//! PIN-guessing advantage `1/|P|`, the attacker gains a factor of at most
//! `3N/n` — the "bits of security lost" that annotate Figure 11. Lemma 8
//! supplies the combinatorial core: a corrupt set of `N/16` HSMs
//! `n/2`-covers more than `3N/n` of the `|P|` candidate clusters with
//! probability at most `2^(−N/4)`.

/// Inputs to the security bound.
#[derive(Debug, Clone, Copy)]
pub struct SecurityParams {
    /// Total HSMs `N`.
    pub total: u64,
    /// Cluster size `n`.
    pub cluster: u32,
    /// PIN-space size `|P|`.
    pub pin_space: u64,
    /// Fraction of HSMs the adversary corrupts (e.g. 1/16).
    pub f_secret: f64,
}

impl SecurityParams {
    /// The paper's deployment point.
    pub fn paper_default() -> Self {
        Self {
            total: 3_100,
            cluster: 40,
            pin_space: 1_000_000,
            f_secret: 1.0 / 16.0,
        }
    }

    /// Whether the Lemma 8 / Theorem 10 preconditions hold:
    /// `N > e·n` and `|P| ≤ 2^(n/2)`.
    pub fn preconditions_hold(&self) -> bool {
        (self.total as f64) > core::f64::consts::E * self.cluster as f64
            && (self.pin_space as f64).log2() <= self.cluster as f64 / 2.0
    }

    /// The Theorem 10 advantage bound (ignoring the negligible CDH and AE
    /// terms, which depend only on the curve/cipher, not on `n`, `N`).
    pub fn advantage_bound(&self) -> f64 {
        let structural = 2f64.powf(-(self.total as f64) / 4.0);
        let covering = 3.0 * self.total as f64 / (self.cluster as f64 * self.pin_space as f64);
        structural + covering
    }

    /// Bits of security lost relative to pure PIN guessing:
    /// `log2(Adv / (1/|P|))` (Figure 11's annotation).
    pub fn security_loss_bits(&self) -> f64 {
        (self.advantage_bound() * self.pin_space as f64).log2()
    }

    /// The concrete attack from Remark 5: corrupt `f·N` keys, try
    /// `f·N/n` PINs' clusters. Its advantage is `f·N/(n·|P|)` — a lower
    /// bound showing the Theorem 10 bound is tight up to the constant.
    pub fn remark5_attack_advantage(&self) -> f64 {
        self.f_secret * self.total as f64 / (self.cluster as f64 * self.pin_space as f64)
    }
}

/// Monte Carlo estimate of the covering probability: the chance that a
/// random corrupt set of `⌊f·N⌋` HSMs contains at least `t` members of a
/// random `n`-cluster (sampled with replacement, as `Select` does).
///
/// This is the per-PIN success probability of the Remark 5 attacker; the
/// estimator validates the Lemma 8 regime ("compromising 6% of HSMs almost
/// never covers a hidden cluster").
pub fn cover_probability_mc(
    total: u64,
    cluster: usize,
    threshold: usize,
    f_secret: f64,
    trials: u32,
    seed: u64,
) -> f64 {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let corrupt_count = ((total as f64) * f_secret).floor() as u64;
    let mut covered = 0u32;
    for _ in 0..trials {
        // Random corrupt set via partial Fisher-Yates over [0, N).
        let mut ids: Vec<u64> = (0..total).collect();
        for i in 0..corrupt_count as usize {
            let j = rng.gen_range(i..total as usize);
            ids.swap(i, j);
        }
        let corrupt: std::collections::HashSet<u64> =
            ids[..corrupt_count as usize].iter().copied().collect();
        // Random cluster with replacement.
        let hit = (0..cluster)
            .filter(|_| corrupt.contains(&rng.gen_range(0..total)))
            .count();
        if hit >= threshold {
            covered += 1;
        }
    }
    covered as f64 / trials as f64
}

/// Exact covering probability for one random cluster (binomial tail):
/// each of the `n` with-replacement picks lands in the corrupt set
/// independently with probability `f`, so
/// `Pr[≥ t hits] = Σ_{k=t}^{n} C(n,k) f^k (1−f)^{n−k}`.
pub fn cover_probability_exact(cluster: usize, threshold: usize, f_secret: f64) -> f64 {
    let n = cluster;
    let mut sum = 0.0f64;
    for k in threshold..=n {
        sum += binomial_pmf(n, k, f_secret);
    }
    sum
}

fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0, "pmf requires 0 < p < 1");
    // ln(1−p) via ln_1p for accuracy when p is small.
    (ln_choose(n, k) + (k as f64) * p.ln() + ((n - k) as f64) * (-p).ln_1p()).exp()
}

/// `ln C(n, k)` via `ln Γ` (Stirling-series approximation, accurate to
/// ~1e-10 for the ranges used here).
pub fn ln_choose(n: usize, k: usize) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

fn ln_factorial(n: usize) -> f64 {
    // Exact for small n, Stirling series beyond.
    if n < 2 {
        return 0.0;
    }
    if n < 128 {
        return (2..=n).map(|i| (i as f64).ln()).sum();
    }
    let x = n as f64;
    x * x.ln() - x + 0.5 * (2.0 * core::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x.powi(3))
}

/// Figure 11's x-axis sweep: `(n, bits-of-security-lost)` pairs.
pub fn fig11_security_series(total: u64, pin_space: u64, clusters: &[u32]) -> Vec<(u32, f64)> {
    clusters
        .iter()
        .map(|&n| {
            let p = SecurityParams {
                total,
                cluster: n,
                pin_space,
                f_secret: 1.0 / 16.0,
            };
            (n, p.security_loss_bits())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_point_loss_bits() {
        let p = SecurityParams::paper_default();
        assert!(p.preconditions_hold());
        let bits = p.security_loss_bits();
        // 3N/n = 232.5 ⇒ log2 ≈ 7.86. (The paper's Figure 11 annotates
        // ~6.81 at n = 40 from a tighter accounting of the same lemma;
        // the slope in n is identical.)
        assert!((bits - 7.86).abs() < 0.05, "got {bits}");
    }

    #[test]
    fn loss_bits_decrease_with_cluster_size() {
        let series = fig11_security_series(3_100, 1_000_000, &[40, 50, 60, 70, 80, 90, 100]);
        for pair in series.windows(2) {
            assert!(pair[1].1 < pair[0].1, "{pair:?}");
        }
        // Slope check: doubling n loses one bit, the paper's Fig 11 shape
        // (6.81 − 5.49 ≈ 1.32 ≈ log2(100/40)).
        let first = series.first().unwrap().1;
        let last = series.last().unwrap().1;
        assert!(((first - last) - (100f64 / 40.0).log2()).abs() < 0.05);
    }

    #[test]
    fn remark5_attack_below_bound() {
        let p = SecurityParams::paper_default();
        assert!(p.remark5_attack_advantage() < p.advantage_bound());
        // ...but within the 48/f-factor constant: bound/attack = 3/f = 48.
        let ratio = p.advantage_bound() / p.remark5_attack_advantage();
        assert!((ratio - 48.0).abs() < 0.5, "ratio {ratio}");
    }

    #[test]
    fn covering_probability_negligible_at_paper_point() {
        // An f = 1/16 corruption of a cluster-40/threshold-20 deployment:
        // binomial tail Pr[Bin(40, 1/16) ≥ 20].
        let p = cover_probability_exact(40, 20, 1.0 / 16.0);
        assert!(p < 1e-12, "got {p}");
    }

    #[test]
    fn covering_probability_grows_with_f() {
        let low = cover_probability_exact(40, 20, 0.05);
        let high = cover_probability_exact(40, 20, 0.5);
        assert!(high > low);
        assert!(high > 0.4, "at f = 1/2 the tail is ≈ 1/2: {high}");
    }

    #[test]
    fn monte_carlo_matches_exact() {
        // Use a permissive regime where the probability is large enough to
        // measure: n = 8, t = 2, f = 0.25.
        let exact = cover_probability_exact(8, 2, 0.25);
        let mc = cover_probability_mc(64, 8, 2, 0.25, 4_000, 42);
        assert!((mc - exact).abs() < 0.05, "exact {exact}, monte-carlo {mc}");
    }

    #[test]
    fn ln_choose_sane() {
        assert!((ln_choose(5, 2) - (10f64).ln()).abs() < 1e-9);
        assert!((ln_choose(40, 20) - (137846528820f64).ln()).abs() < 1e-6);
        assert_eq!(ln_choose(3, 5), f64::NEG_INFINITY);
        // Stirling regime.
        let big = ln_choose(1000, 500);
        assert!((big - 689.467).abs() < 0.01, "got {big}");
    }

    #[test]
    fn small_n_violates_preconditions() {
        let p = SecurityParams {
            total: 100,
            cluster: 40,
            pin_space: 1_000_000,
            f_secret: 1.0 / 16.0,
        };
        assert!(!p.preconditions_hold());
    }
}
