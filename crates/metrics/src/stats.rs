//! Percentiles, empirical CDFs and error-bar summaries.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of a sample set using linear
/// interpolation between order statistics (type-7, the numpy default).
/// Returns `None` on an empty set.
///
/// # Example
///
/// ```
/// use dcn_metrics::percentile;
/// let v = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&v, 0.5), Some(2.5));
/// assert_eq!(percentile(&v, 1.0), Some(4.0));
/// ```
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or any sample is NaN.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    Some(percentile_sorted(&v, p))
}

/// Like [`percentile`] but assumes `sorted` is already ascending. Used in
/// hot loops to avoid repeated sorting.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 1]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample set");
    assert!((0.0..=1.0).contains(&p), "p must be in [0,1], got {p}");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// An empirical cumulative distribution over collected samples.
///
/// # Example
///
/// ```
/// use dcn_metrics::Cdf;
/// let mut cdf = Cdf::new();
/// cdf.extend([3.0, 1.0, 2.0]);
/// assert_eq!(cdf.quantile(0.5), Some(2.0));
/// assert!((cdf.fraction_below(2.5) - 2.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// An empty CDF.
    pub fn new() -> Self {
        Cdf::default()
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.push(x);
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
    }

    /// The `p`-quantile, or `None` if empty.
    pub fn quantile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        Some(percentile_sorted(&self.samples, p))
    }

    /// Fraction of samples `≤ x` (0 if empty).
    pub fn fraction_below(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let k = self.samples.partition_point(|&s| s <= x);
        k as f64 / self.samples.len() as f64
    }

    /// The sample mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// The largest sample, or `None` if empty.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// A view of the raw samples (unsorted order not guaranteed).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut c = Cdf::new();
        c.extend(iter);
        c
    }
}

impl Extend<f64> for Cdf {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

/// Box-plot style summary: mean, median, quartiles and extremes — what
/// the paper's Fig. 10(b) error bars show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorBarStats {
    /// Sample mean.
    pub mean: f64,
    /// Minimum sample.
    pub min: f64,
    /// 25th percentile.
    pub q25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q75: f64,
    /// Maximum sample.
    pub max: f64,
}

impl ErrorBarStats {
    /// Computes the summary, or `None` for an empty set.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(samples: &[f64]) -> Option<ErrorBarStats> {
        if samples.is_empty() {
            return None;
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
        Some(ErrorBarStats {
            mean: v.iter().sum::<f64>() / v.len() as f64,
            min: v[0],
            q25: percentile_sorted(&v, 0.25),
            median: percentile_sorted(&v, 0.5),
            q75: percentile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        })
    }
}

/// Two-sided 97.5% Student-t critical values for df = 1..=30; beyond 30
/// degrees of freedom the normal approximation (1.96) is within 2%.
const T_CRIT_975: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

fn t_critical_975(df: usize) -> f64 {
    if df == 0 {
        f64::NAN
    } else if df <= T_CRIT_975.len() {
        T_CRIT_975[df - 1]
    } else {
        1.96
    }
}

/// Replication summary over the N seeded runs of one sweep cell: mean
/// and 95% confidence interval on the mean (Student-t for small N).
///
/// Construction sorts the samples before any arithmetic, so the summary
/// is **bit-identical under any permutation of the input** — the
/// property the parallel sweep engine's determinism contract needs when
/// replicate results arrive in arbitrary completion order.
///
/// # Example
///
/// ```
/// use dcn_metrics::SeedStats;
/// let s = SeedStats::from_samples(&[10.0, 12.0, 11.0, 9.0]).unwrap();
/// assert_eq!(s.n, 4);
/// assert!((s.mean - 10.5).abs() < 1e-12);
/// assert!(s.ci95_half > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeedStats {
    /// Number of (finite) samples aggregated.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval on the mean (t·s/√n,
    /// with s the n − 1 sample standard deviation; 0 for n = 1).
    pub ci95_half: f64,
}

impl SeedStats {
    /// Aggregates a set of per-seed samples. Non-finite samples (a
    /// replicate whose metric was undefined, e.g. a p99 over zero
    /// flows) are ignored; returns `None` if no finite sample remains.
    pub fn from_samples(samples: &[f64]) -> Option<SeedStats> {
        let mut v: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            return None;
        }
        // Sorting fixes the summation order: shuffled inputs produce
        // bit-identical output.
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let n = v.len();
        let mean = v.iter().sum::<f64>() / n as f64;
        let ci95_half = if n > 1 {
            let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            t_critical_975(n - 1) * var.sqrt() / (n as f64).sqrt()
        } else {
            0.0
        };
        Some(SeedStats { n, mean, ci95_half })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edge_cases() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        let v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.5), Some(2.5));
    }

    #[test]
    fn p99_on_uniform_grid() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p99 = percentile(&v, 0.99).unwrap();
        assert!((p99 - 99.01).abs() < 1e-9);
    }

    #[test]
    fn cdf_fraction_below() {
        let mut c: Cdf = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(c.fraction_below(0.5), 0.0);
        assert_eq!(c.fraction_below(2.0), 0.5);
        assert_eq!(c.fraction_below(10.0), 1.0);
    }

    #[test]
    fn cdf_mean_and_max() {
        let mut c: Cdf = [2.0, 4.0].into_iter().collect();
        assert_eq!(c.mean(), Some(3.0));
        assert_eq!(c.max(), Some(4.0));
        assert!(Cdf::new().mean().is_none());
    }

    #[test]
    fn error_bars_basic() {
        let s = ErrorBarStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q25, s.q75), (2.0, 4.0));
        assert!((s.mean - 22.0).abs() < 1e-9);
    }

    #[test]
    fn error_bars_empty() {
        assert!(ErrorBarStats::from_samples(&[]).is_none());
    }

    #[test]
    fn error_bars_constant_samples() {
        let s = ErrorBarStats::from_samples(&[5.0; 10]).unwrap();
        assert_eq!(
            (s.min, s.q25, s.median, s.q75, s.max),
            (5.0, 5.0, 5.0, 5.0, 5.0)
        );
    }

    /// Deterministic synthetic noise: a fixed zig-zag around zero whose
    /// sample std dev is independent of how many periods are taken.
    fn synthetic_noise(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let z = ((i as f64 * 0.73).sin() * 10.0).round() / 10.0;
                50.0 + z
            })
            .collect()
    }

    #[test]
    fn seed_stats_basic() {
        let s = SeedStats::from_samples(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        // s = 1, df = 2 -> t = 4.303; half-width = 4.303 / sqrt(3).
        assert!((s.ci95_half - 4.303 / 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn seed_stats_single_sample_and_empty() {
        let s = SeedStats::from_samples(&[7.0]).unwrap();
        assert_eq!((s.n, s.ci95_half), (1, 0.0));
        assert_eq!(s.mean, 7.0);
        assert!(SeedStats::from_samples(&[]).is_none());
        assert!(SeedStats::from_samples(&[f64::NAN]).is_none());
    }

    #[test]
    fn seed_stats_ignores_non_finite() {
        let s = SeedStats::from_samples(&[1.0, f64::NAN, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(s.n, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ci_width_shrinks_like_inverse_sqrt_n() {
        // Quadrupling the replicate count should roughly halve the CI
        // half-width (t -> 1.96 as df grows, so allow a loose band).
        let small = SeedStats::from_samples(&synthetic_noise(16)).unwrap();
        let large = SeedStats::from_samples(&synthetic_noise(64)).unwrap();
        let ratio = small.ci95_half / large.ci95_half;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "expected ~2x shrink from n=16 to n=64, got {ratio:.3} \
             (ci16={}, ci64={})",
            small.ci95_half,
            large.ci95_half
        );
    }

    #[test]
    fn seed_stats_is_order_independent() {
        // Bit-identical output under any permutation — the property the
        // parallel sweep's completion-order-free aggregation relies on.
        let base = synthetic_noise(17);
        let expect = SeedStats::from_samples(&base).unwrap();
        let mut shuffled = base.clone();
        shuffled.reverse();
        assert_eq!(SeedStats::from_samples(&shuffled), Some(expect));
        // An interleaved permutation too.
        let mut weird: Vec<f64> = Vec::new();
        for i in 0..base.len() {
            weird.push(base[(i * 5) % base.len()]);
        }
        assert_eq!(SeedStats::from_samples(&weird), Some(expect));
    }

    #[test]
    fn t_critical_tends_to_normal() {
        assert!((t_critical_975(1) - 12.706).abs() < 1e-9);
        assert!((t_critical_975(30) - 2.042).abs() < 1e-9);
        assert_eq!(t_critical_975(31), 1.96);
    }
}
