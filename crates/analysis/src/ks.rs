//! Two-sample Kolmogorov–Smirnov test.
//!
//! Used to certify that the naive simulator and the count engine produce the
//! *same distribution* of stabilisation times — a much stronger statement
//! than comparing means. The p-value uses the asymptotic Kolmogorov
//! distribution `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2k²λ²}` with the
//! standard finite-sample correction.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::ks::ks_two_sample;
//!
//! let a: Vec<f64> = (0..500).map(|i| i as f64).collect();
//! let b: Vec<f64> = (0..500).map(|i| i as f64 + 0.5).collect();
//! let r = ks_two_sample(&a, &b);
//! assert!(r.p_value > 0.9, "nearly identical samples");
//! ```

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// Maximum distance between the two empirical CDFs.
    pub statistic: f64,
    /// Asymptotic p-value for the null "same distribution".
    pub p_value: f64,
}

/// Two-sample Kolmogorov–Smirnov test.
///
/// # Panics
///
/// Panics if either sample is empty or contains NaN.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> KsResult {
    assert!(!a.is_empty() && !b.is_empty(), "samples must be non-empty");
    assert!(
        a.iter().chain(b.iter()).all(|x| !x.is_nan()),
        "samples contain NaN"
    );
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("no NaN"));
    let (na, nb) = (sa.len(), sb.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while ia < na && ib < nb {
        let xa = sa[ia];
        let xb = sb[ib];
        let x = xa.min(xb);
        while ia < na && sa[ia] <= x {
            ia += 1;
        }
        while ib < nb && sb[ib] <= x {
            ib += 1;
        }
        let fa = ia as f64 / na as f64;
        let fb = ib as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    KsResult {
        statistic: d,
        p_value: kolmogorov_q(lambda),
    }
}

/// Complementary CDF of the Kolmogorov distribution.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = sign * (-2.0 * (k as f64) * (k as f64) * lambda * lambda).exp();
        sum += term;
        sign = -sign;
        if term.abs() < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_engine::rng::Xoshiro256;

    fn uniform_sample(n: usize, seed: u64, shift: f64) -> Vec<f64> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..n).map(|_| rng.unit_f64() + shift).collect()
    }

    #[test]
    fn same_distribution_accepted() {
        let a = uniform_sample(800, 1, 0.0);
        let b = uniform_sample(800, 2, 0.0);
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value > 0.01, "p = {}", r.p_value);
        assert!(r.statistic < 0.1);
    }

    #[test]
    fn shifted_distribution_rejected() {
        let a = uniform_sample(800, 3, 0.0);
        let b = uniform_sample(800, 4, 0.3);
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value < 1e-6, "p = {}", r.p_value);
        assert!(r.statistic > 0.2);
    }

    #[test]
    fn identical_samples_have_zero_statistic() {
        let a = vec![1.0, 2.0, 3.0];
        let r = ks_two_sample(&a, &a);
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unequal_sizes_work() {
        let a = uniform_sample(200, 5, 0.0);
        let b = uniform_sample(1000, 6, 0.0);
        let r = ks_two_sample(&a, &b);
        assert!(r.p_value > 0.01);
    }

    #[test]
    fn kolmogorov_q_limits() {
        assert_eq!(kolmogorov_q(0.0), 1.0);
        assert!(kolmogorov_q(0.3) > 0.99);
        assert!(kolmogorov_q(2.0) < 0.001);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_rejected() {
        ks_two_sample(&[], &[1.0]);
    }
}
