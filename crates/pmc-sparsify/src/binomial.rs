//! Binomial random variates.
//!
//! The skeleton constructions draw `B(w(e), p)` per edge. The paper
//! cites \[KS88\]/\[Fis79\]: inverse-transform sampling walks the CDF from
//! zero, costing `O(np + 1)` expected steps, and Observation 4.22 caps
//! the walk at the maximum useful value, giving `O(log n)` work per
//! edge regardless of weight.
//!
//! Implementation regimes (all deterministic given the `Rng`):
//!
//! * `n <= 64`: exact Bernoulli counting (bit tricks for `p = 1/2`);
//! * `mean <= WALK_LIMIT`: inverse-transform CDF walk, exact up to f64
//!   rounding, truncated at `cap`;
//! * otherwise: normal approximation `N(np, np(1-p))`, rounded and
//!   clamped — above this mean the exact pmf underflows f64 anyway and
//!   only concentration matters to the algorithms (DESIGN.md records
//!   this substitution).

use rand::Rng;

/// Above this expected value the CDF walk switches to the normal
/// approximation (`exp(-700)` underflows f64; stay well below).
const WALK_LIMIT: f64 = 400.0;

/// Draw `X ~ B(n, p)`.
pub fn binomial(n: u64, p: f64, rng: &mut impl Rng) -> u64 {
    binomial_capped(n, p, n, rng)
}

/// Draw `min(X, cap)` for `X ~ B(n, p)` without ever spending more than
/// `O(cap)` work (Observation 4.22's capped sampler).
pub fn binomial_capped(n: u64, p: f64, cap: u64, rng: &mut impl Rng) -> u64 {
    if n == 0 || p <= 0.0 || cap == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n.min(cap);
    }
    if n <= 64 {
        return exact_small(n, p, rng).min(cap);
    }
    let mean = n as f64 * p;
    if mean <= WALK_LIMIT {
        walk(n, p, cap, rng)
    } else {
        normal_approx(n, p, rng).min(cap)
    }
}

/// Exact Bernoulli counting for small `n`.
fn exact_small(n: u64, p: f64, rng: &mut impl Rng) -> u64 {
    if (p - 0.5).abs() < f64::EPSILON {
        // B(n, 1/2) = popcount of n random bits.
        let bits: u64 = rng.random();
        let mask = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
        return (bits & mask).count_ones() as u64;
    }
    (0..n).filter(|_| rng.random::<f64>() < p).count() as u64
}

/// Inverse-transform CDF walk, truncated at `cap`.
///
/// If the pmf underflows (all mass far above `cap`) the walk reaches
/// `cap` and returns it — exactly the capped semantics.
fn walk(n: u64, p: f64, cap: u64, rng: &mut impl Rng) -> u64 {
    let u: f64 = rng.random();
    let odds = p / (1.0 - p);
    // pmf(0) = (1-p)^n, computed in log space for small p.
    let mut pmf = (n as f64 * (-p).ln_1p()).exp();
    let mut cdf = pmf;
    let mut k = 0u64;
    while cdf < u && k < cap {
        pmf *= ((n - k) as f64 / (k + 1) as f64) * odds;
        cdf += pmf;
        k += 1;
    }
    k
}

/// Normal approximation for large means, clamped to `[0, n]`.
fn normal_approx(n: u64, p: f64, rng: &mut impl Rng) -> u64 {
    let mean = n as f64 * p;
    let sd = (n as f64 * p * (1.0 - p)).sqrt();
    let z = standard_normal(rng);
    let x = (mean + z * sd).round();
    if x <= 0.0 {
        0
    } else if x >= n as f64 {
        n
    } else {
        x as u64
    }
}

/// Standard normal via Box–Muller.
fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.random();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn stats(samples: &[u64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<u64>() as f64 / n;
        let var =
            samples.iter().map(|&x| (x as f64 - mean) * (x as f64 - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn degenerate_cases() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(binomial(0, 0.5, &mut rng), 0);
        assert_eq!(binomial(100, 0.0, &mut rng), 0);
        assert_eq!(binomial(100, 1.0, &mut rng), 100);
        assert_eq!(binomial_capped(100, 1.0, 7, &mut rng), 7);
        assert_eq!(binomial_capped(100, 0.5, 0, &mut rng), 0);
    }

    #[test]
    fn small_n_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..20_000).map(|_| binomial(40, 0.3, &mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!((mean - 12.0).abs() < 0.3, "mean {mean}");
        assert!((var - 8.4).abs() < 0.6, "var {var}");
    }

    #[test]
    fn half_probability_bit_path() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..20_000).map(|_| binomial(64, 0.5, &mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!((mean - 32.0).abs() < 0.3, "mean {mean}");
        assert!((var - 16.0).abs() < 1.0, "var {var}");
        assert!(samples.iter().all(|&x| x <= 64));
    }

    #[test]
    fn walk_regime_moments() {
        // n large, p small: mean 50 -> CDF walk.
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<u64> =
            (0..20_000).map(|_| binomial(1_000_000, 5e-5, &mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!((mean - 50.0).abs() < 0.5, "mean {mean}");
        assert!((var - 50.0).abs() < 3.0, "var {var}");
    }

    #[test]
    fn normal_regime_moments() {
        // mean 5000: normal approximation.
        let mut rng = StdRng::seed_from_u64(5);
        let samples: Vec<u64> =
            (0..20_000).map(|_| binomial(10_000_000, 5e-4, &mut rng)).collect();
        let (mean, var) = stats(&samples);
        assert!((mean - 5000.0).abs() < 5.0, "mean {mean}");
        assert!((var / 5000.0 - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn cap_truncates() {
        let mut rng = StdRng::seed_from_u64(6);
        // Mass far above the cap: always returns cap.
        for _ in 0..100 {
            assert_eq!(binomial_capped(1_000_000, 0.5, 10, &mut rng), 10);
        }
        // Mass far below the cap: cap never binds.
        let samples: Vec<u64> =
            (0..5000).map(|_| binomial_capped(1_000_000, 1e-5, 1000, &mut rng)).collect();
        let (mean, _) = stats(&samples);
        assert!((mean - 10.0).abs() < 0.5, "mean {mean}");
        assert!(samples.iter().all(|&x| x < 100));
    }

    #[test]
    fn capped_work_is_bounded() {
        // The capped sampler must return instantly even for astronomical
        // means — this is Observation 4.22's entire point. If this test
        // hangs, the walk is not truncating.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = binomial_capped(u64::MAX / 2, 0.9, 50, &mut rng);
            assert_eq!(x, 50);
        }
    }

    #[test]
    fn halving_chain_conserves_expectation() {
        // X_{i+1} ~ B(X_i, 1/2): after k halvings the mean is w / 2^k.
        let mut rng = StdRng::seed_from_u64(8);
        let w = 1u64 << 20;
        let mut totals = [0u64; 10];
        let reps = 200;
        for _ in 0..reps {
            let mut x = w;
            for total in totals.iter_mut() {
                x = binomial(x, 0.5, &mut rng);
                *total += x;
            }
        }
        for (level, &tot) in totals.iter().enumerate() {
            let expect = (w >> (level + 1)) as f64;
            let got = tot as f64 / reps as f64;
            assert!(
                (got / expect - 1.0).abs() < 0.05,
                "level {level}: got {got}, expect {expect}"
            );
        }
    }
}
