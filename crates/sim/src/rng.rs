//! Seeded randomness and the distributions the workload generators need.
//!
//! Everything is driven by [`SimRng`], a self-contained xoshiro256++
//! generator (public-domain algorithm by Blackman & Vigna) seeded through
//! SplitMix64, so that a run is fully reproducible from its seed with no
//! external crates. Exponential sampling (Poisson inter-arrivals) and
//! empirical-CDF sampling (flow sizes) are implemented here rather than
//! pulling in `rand_distr`.

use crate::time::SimDuration;

/// SplitMix64 step: the recommended seeder for xoshiro state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable random number generator for simulations.
///
/// # Example
///
/// ```
/// use dcn_sim::SimRng;
/// let mut a = SimRng::seed_from_u64(7);
/// let mut b = SimRng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derives an independent child generator (e.g. one per traffic
    /// source) so that adding sources doesn't perturb others' streams.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::seed_from_u64(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next raw 64-bit value (xoshiro256++).
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` (53 random mantissa bits).
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's multiply-shift with rejection for exact uniformity.
        loop {
            let x = self.next_u64();
            let m = x as u128 * n as u128;
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// An exponentially-distributed duration with the given mean (Poisson
    /// process inter-arrival time).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn exponential(&mut self, mean: SimDuration) -> SimDuration {
        assert!(mean > SimDuration::ZERO, "mean must be positive");
        // Inverse transform: -ln(1-U) * mean, with U in [0,1).
        let u: f64 = self.uniform_f64();
        let x = -(1.0 - u).ln();
        SimDuration::from_secs_f64(x * mean.as_secs_f64())
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// An empirical cumulative distribution function over `u64` values,
/// sampled by inverse transform with linear interpolation between knots —
/// the standard way DCN studies encode the web-search flow-size
/// distribution.
///
/// # Example
///
/// ```
/// use dcn_sim::{EmpiricalCdf, SimRng};
/// let cdf = EmpiricalCdf::new(vec![(0, 0.0), (100, 0.5), (1_000, 1.0)]).unwrap();
/// let mut rng = SimRng::seed_from_u64(1);
/// let v = cdf.sample(&mut rng);
/// assert!(v <= 1_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// (value, cumulative probability) knots, strictly increasing in both.
    knots: Vec<(u64, f64)>,
    mean: f64,
}

/// Error building an [`EmpiricalCdf`] from knots that are not a valid CDF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidCdfError(String);

impl std::fmt::Display for InvalidCdfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid empirical CDF: {}", self.0)
    }
}

impl std::error::Error for InvalidCdfError {}

impl EmpiricalCdf {
    /// Builds a CDF from `(value, cumulative_probability)` knots.
    ///
    /// # Errors
    ///
    /// Returns an error unless the knots are non-empty, non-decreasing in
    /// value, strictly increasing in probability, start at probability
    /// ≥ 0 and end at exactly 1.0.
    pub fn new(knots: Vec<(u64, f64)>) -> Result<Self, InvalidCdfError> {
        if knots.is_empty() {
            return Err(InvalidCdfError("no knots".into()));
        }
        for w in knots.windows(2) {
            if w[1].0 < w[0].0 {
                return Err(InvalidCdfError(format!(
                    "values must be non-decreasing: {} then {}",
                    w[0].0, w[1].0
                )));
            }
            if w[1].1 <= w[0].1 {
                return Err(InvalidCdfError(format!(
                    "probabilities must be strictly increasing: {} then {}",
                    w[0].1, w[1].1
                )));
            }
        }
        let first_p = knots[0].1;
        let last_p = knots[knots.len() - 1].1;
        if !(0.0..=1.0).contains(&first_p) {
            return Err(InvalidCdfError(format!(
                "first probability {first_p} out of range"
            )));
        }
        if (last_p - 1.0).abs() > 1e-9 {
            return Err(InvalidCdfError(format!(
                "last probability must be 1.0, got {last_p}"
            )));
        }
        let mut cdf = EmpiricalCdf { knots, mean: 0.0 };
        cdf.mean = cdf.compute_mean();
        Ok(cdf)
    }

    fn compute_mean(&self) -> f64 {
        // Piecewise-linear CDF => piecewise-uniform density; the mean is
        // the probability-weighted midpoint of each segment.
        let mut mean = self.knots[0].0 as f64 * self.knots[0].1;
        for w in self.knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            mean += (p1 - p0) * (v0 as f64 + v1 as f64) / 2.0;
        }
        mean
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Draws a sample by inverse transform with linear interpolation.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform_f64();
        self.quantile(u)
    }

    /// The value at cumulative probability `p` (clamped to `[0, 1]`).
    pub fn quantile(&self, p: f64) -> u64 {
        let p = p.clamp(0.0, 1.0);
        if p <= self.knots[0].1 {
            return self.knots[0].0;
        }
        for w in self.knots.windows(2) {
            let (v0, p0) = w[0];
            let (v1, p1) = w[1];
            if p <= p1 {
                let frac = (p - p0) / (p1 - p0);
                return v0 + ((v1 - v0) as f64 * frac).round() as u64;
            }
        }
        self.knots[self.knots.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut root = SimRng::seed_from_u64(1);
        let mut a = root.fork(0);
        let mut b = root.fork(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from_u64(9);
        let mean = SimDuration::from_micros(100);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| rng.exponential(mean).as_secs_f64()).sum();
        let emp = total / n as f64;
        assert!((emp - 1e-4).abs() < 5e-6, "empirical mean {emp}");
    }

    #[test]
    fn cdf_rejects_bad_knots() {
        assert!(EmpiricalCdf::new(vec![]).is_err());
        assert!(EmpiricalCdf::new(vec![(0, 0.0), (10, 0.5)]).is_err());
        assert!(EmpiricalCdf::new(vec![(10, 0.0), (5, 1.0)]).is_err());
        assert!(EmpiricalCdf::new(vec![(0, 0.5), (10, 0.5), (20, 1.0)]).is_err());
    }

    #[test]
    fn cdf_quantiles_interpolate() {
        let cdf = EmpiricalCdf::new(vec![(0, 0.0), (100, 0.5), (1_000, 1.0)]).unwrap();
        assert_eq!(cdf.quantile(0.0), 0);
        assert_eq!(cdf.quantile(0.25), 50);
        assert_eq!(cdf.quantile(0.5), 100);
        assert_eq!(cdf.quantile(0.75), 550);
        assert_eq!(cdf.quantile(1.0), 1_000);
    }

    #[test]
    fn cdf_mean_matches_analytic() {
        // Uniform on [0, 100]: mean 50.
        let cdf = EmpiricalCdf::new(vec![(0, 0.0), (100, 1.0)]).unwrap();
        assert!((cdf.mean() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_sample_within_bounds_and_mean_close() {
        let cdf = EmpiricalCdf::new(vec![(0, 0.0), (100, 0.5), (1_000, 1.0)]).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let n = 50_000;
        let mut total = 0u64;
        for _ in 0..n {
            let v = cdf.sample(&mut rng);
            assert!(v <= 1_000);
            total += v;
        }
        let emp = total as f64 / n as f64;
        assert!(
            (emp - cdf.mean()).abs() < 10.0,
            "empirical mean {emp} vs {}",
            cdf.mean()
        );
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
