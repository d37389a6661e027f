//! Order statistics for the benchmark's timings.

/// A tail percentile is reported only when at least this many samples
/// rank above it.
pub const TAIL_MIN_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count). `xs` must be
/// non-empty.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile by the method of Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// the spreads printed here match the ones computed from the JSON
/// results. `xs` must hold at least two samples.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let m = v.len() + 1;
    let mut out = [0.0; 3];
    for (k, q) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// A tail percentile: the value at `pct` and the sample count it was
/// taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in percent.
    pub pct: u32,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub samples: usize,
    /// Samples ranked above the reported one.
    pub beyond: usize,
}

/// The highest whole percentile from 50 to 99 with at least
/// [`TAIL_MIN_BEYOND`] samples ranked above it, or `None` when even the
/// median has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    (50..=99u32).rev().find_map(|pct| {
        // Nearest rank: the smallest rank covering pct% of the samples.
        let rank = (pct as usize * n).div_ceil(100).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            pct,
            value: v[rank - 1],
            samples: n,
            beyond,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_never_has_fewer_than_ten_samples_beyond() {
        for n in 0..2_000usize {
            let xs: Vec<f64> = (0..n).map(|i| ((i * 7919) % 1_009) as f64).collect();
            match tail(&xs) {
                Some(t) => {
                    assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
                    let strictly_above = xs.iter().filter(|x| **x > t.value).count();
                    assert!(strictly_above <= t.beyond);
                    assert_eq!(t.samples, n);
                    // It is the highest such percentile.
                    if t.pct < 99 {
                        let rank = ((t.pct as usize + 1) * n).div_ceil(100);
                        assert!(n - rank < TAIL_MIN_BEYOND, "n={n}: p{} fits", t.pct + 1);
                    }
                }
                None => assert!(n < 2 * TAIL_MIN_BEYOND, "n={n} has a median tail"),
            }
        }
    }

    #[test]
    fn tail_examples() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs).expect("200 samples");
        assert_eq!((t.pct, t.value, t.beyond), (95, 190.0, 10));
        assert!(tail(&xs[..19]).is_none());
        assert_eq!(tail(&xs[..20]).map(|t| t.pct), Some(50));
    }
}
