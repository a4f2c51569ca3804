//! Order statistics with honest sample-count rules.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// `v` as a space-separated list of millisecond-rounded seconds, for the
/// detail line.
pub fn list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// A tail percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The value at `pct`.
    pub value: f64,
    /// The percentile actually reported (in `[0, 100]`).
    pub pct: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `p`-quantile of `v`, or — when fewer than
/// [`TAIL_SAMPLES`] samples would lie beyond it — the highest quantile
/// that still has that many beyond it. `None` when `v` has no more than
/// `TAIL_SAMPLES` samples.
pub fn tail(v: &[f64], p: f64) -> Option<Tail> {
    let n = v.len();
    if n <= TAIL_SAMPLES {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    // Nearest rank: the value at 1-based rank ceil(p·n) has n − rank
    // samples beyond it.
    let want = ((p * n as f64).ceil() as usize).clamp(1, n);
    let rank = want.min(n - TAIL_SAMPLES);
    Some(Tail {
        value: s[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        // 160 samples cannot support p99: fall back to the 150th value.
        let v: Vec<f64> = (1..=160).map(f64::from).collect();
        let t = tail(&v, 0.99).unwrap();
        assert_eq!(t.value, 150.0);
        assert!(t.pct < 99.0);
    }
}
