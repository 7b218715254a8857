//! Order statistics for reporting timings.

/// Percentiles considered for a tail report, highest first.
const TAIL_LADDER: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p`'s rank.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// Fine sub-buckets per power of two in [`Hist`].
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;

/// A latency histogram of fixed size: exact below 128, then 64 buckets
/// per power of two, so a reported value is at most 1/64 below the
/// samples it stands for. It pools a whole run's samples without
/// growing with the run, so the benchmark's own memory stays out of
/// `peak_rss_mb`.
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; ((64 - SUB_BITS + 1) as u64 * SUB) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let sub = (v >> (e - SUB_BITS)) & (SUB - 1);
        ((e - SUB_BITS + 1) as u64 * SUB + sub) as usize
    }

    /// Smallest value that falls in bucket `b`.
    fn floor(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB {
            return b;
        }
        let e = b / SUB + SUB_BITS as u64 - 1;
        (1 << e) | ((b % SUB) << (e - SUB_BITS as u64))
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Nearest-rank percentile `p`, as its bucket's floor.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(self.n > 0, "percentile of no samples");
        let want = rank(self.len(), p) as u64;
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Self::floor(b);
            }
        }
        unreachable!("ranks never exceed the sample count")
    }

    /// The highest percentile of the ladder with at least [`MIN_BEYOND`]
    /// samples beyond it, with its value; `None` when even the lowest
    /// rung lacks samples.
    pub fn tail(&self) -> Option<(f64, u64)> {
        TAIL_LADDER
            .iter()
            .find(|&&p| supported(self.len(), p))
            .map(|&p| (p, self.percentile(p)))
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
    }

    fn hist(values: impl Iterator<Item = u64>) -> Hist {
        let mut h = Hist::default();
        values.for_each(|v| h.record(v));
        h
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(hist(1..=1000).tail().map(|t| t.0), Some(99.0));
        // 999 samples: p99 leaves 9, so the report falls back to p90.
        assert_eq!(hist(1..=999).tail().map(|t| t.0), Some(90.0));
        // 100_000 samples support p99.99 (10 beyond).
        assert_eq!(hist(1..=100_000).tail().map(|t| t.0), Some(99.99));
        // Too few samples for any rung.
        assert_eq!(hist(1..=50).tail(), None);
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn histogram_is_exact_when_small_and_within_a_sixty_fourth_above() {
        let small = hist(1..=100);
        assert_eq!(small.percentile(50.0), 50);
        assert_eq!(small.percentile(99.0), 99);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut v: Vec<u64> = (0..20_000)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % 10_000_000
            })
            .collect();
        let h = hist(v.iter().copied());
        v.sort_unstable();
        for p in [50.0, 90.0, 99.0, 99.9] {
            let (exact, approx) = (percentile(&v, p), h.percentile(p));
            assert!(
                approx <= exact && exact - approx <= exact / 64,
                "p{p}: {approx} vs {exact}"
            );
        }
        assert_eq!(h.len(), 20_000);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
