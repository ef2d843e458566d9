//! Median and quartiles of a handful of repetitions.

use crate::json::Json;

/// Five-number summary of one metric's repetitions. With five reps no
/// tail percentile is supportable, so none is kept.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no repetition is a bug in
/// the runner, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method), so spreads computed here
/// match the ones the driver computes. A single value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    if m < 2 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Interquartile range as a share of the median: the run-to-run
    /// spread `--compare` holds against the bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    pub fn to_json(&self, unit: &str, values: &[f64]) -> Json {
        Json::obj()
            .with("unit", unit.into())
            .with("median", self.median.into())
            .with("q1", self.q1.into())
            .with("q3", self.q3.into())
            .with("min", self.min.into())
            .with("max", self.max.into())
            .with("n", (self.n as f64).into())
            .with(
                "values",
                Json::Arr(values.iter().map(|&v| v.into()).collect()),
            )
    }

    pub fn from_json(j: &Json) -> Option<Summary> {
        let num = |k: &str| j.get(k).and_then(Json::as_f64);
        Some(Summary {
            n: num("n")? as usize,
            median: num("median")?,
            q1: num("q1")?,
            q3: num("q3")?,
            min: num("min")?,
            max: num("max")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (5, 3.0, 1.0, 5.0));
        assert_eq!(s.spread(), 1.0);
        let back = Summary::from_json(&s.to_json("s", &[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert_eq!(back, Some(s));
    }
}
