//! Order statistics over small sample sets.

/// Median, quartiles and range of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
    /// Mean of the fastest quarter of the samples: see [`fast_quarter_mean`].
    pub fast_mean: f64,
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because that is what the acceptance check of this benchmark
/// uses. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 1, "no samples");
    if n == 1 {
        return [v[0]; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// The mean of the lowest quarter of the samples (rounded up to a whole
/// sample). Noise from the host and the scheduler only ever adds time, so
/// the fast quarter repeats from run to run where the median does not,
/// and averaging it resolves values finer than the 10 ms ticks CPU time
/// is counted in.
pub fn fast_quarter_mean(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let kept = &v[..v.len().div_ceil(4)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

pub fn summarize(samples: &[f64]) -> Summary {
    let [q1, median, q3] = quartiles(samples);
    Summary {
        n: samples.len(),
        min: samples.iter().copied().fold(f64::INFINITY, f64::min),
        q1,
        median,
        q3,
        max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        mean: samples.iter().sum::<f64>() / samples.len() as f64,
        fast_mean: fast_quarter_mean(samples),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), [7.5, 15.0, 22.5]);
        // Ten values, as the acceptance check takes them.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn summary_reports_range_and_count() {
        let s = summarize(&[2.0, 8.0, 4.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (3, 2.0, 4.0, 8.0));
        assert_eq!(s.mean, 14.0 / 3.0);
        assert_eq!(s.fast_mean, 2.0);
    }

    #[test]
    fn fast_quarter_mean_averages_the_lowest_quarter_rounded_up() {
        // Eight samples: the two fastest. A stalled run does not move it.
        let v = [0.44, 0.43, 9.0, 0.42, 0.45, 0.43, 0.47, 0.50];
        assert!((fast_quarter_mean(&v) - 0.425).abs() < 1e-12);
        // Nine samples: three. One sample: itself.
        let nine: Vec<f64> = (1..=9).map(f64::from).collect();
        assert_eq!(fast_quarter_mean(&nine), 2.0);
        assert_eq!(fast_quarter_mean(&[5.0]), 5.0);
    }
}
