//! The latency histogram behind every percentile the simulator reports.

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// A log-bucketed latency histogram with percentile queries.
///
/// Buckets grow geometrically (100 buckets per decade, so each bound is
/// 10^0.01 ≈ 1.0233× the one below it), covering 1 ns to ~10^4 s. Memory
/// is constant. A percentile answers its bucket's upper bound: at or
/// above the exact order statistic, by less than one bucket's width
/// (< 2.33 %).
///
/// # Examples
///
/// ```
/// use reo_sim::{Histogram, SimDuration};
///
/// let mut h = Histogram::new();
/// for ms in 1..=100 {
///     h.record(SimDuration::from_millis(ms));
/// }
/// let p50 = h.percentile(50.0).unwrap();
/// assert!(p50 >= SimDuration::from_millis(45) && p50 <= SimDuration::from_millis(56));
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Histogram {
    // 100 buckets per decade over 13 decades (1ns .. 10^13 ns).
    counts: Vec<u64>,
    total: u64,
    sum_nanos: u128,
}

const BUCKETS_PER_DECADE: usize = 100;
const DECADES: usize = 13;

/// Lower bound of every bucket: `BOUNDS[i] = ceil(10^(i/100))`. Built
/// once so the record path needs only `ilog10` plus a binary search of
/// one decade's 100 boundaries — no per-observation `log10` libm call
/// (the histogram sits on the tracer's span hot path).
fn bucket_bounds() -> &'static [u64; BUCKETS_PER_DECADE * DECADES] {
    use std::sync::OnceLock;
    static BOUNDS: OnceLock<[u64; BUCKETS_PER_DECADE * DECADES]> = OnceLock::new();
    BOUNDS.get_or_init(|| {
        let mut bounds = [0u64; BUCKETS_PER_DECADE * DECADES];
        for (i, b) in bounds.iter_mut().enumerate() {
            *b = 10f64.powf(i as f64 / BUCKETS_PER_DECADE as f64).ceil() as u64;
        }
        bounds
    })
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS_PER_DECADE * DECADES],
            total: 0,
            sum_nanos: 0,
        }
    }

    fn bucket_index(nanos: u64) -> usize {
        if nanos <= 1 {
            return 0;
        }
        let decade = nanos.ilog10() as usize;
        if decade >= DECADES {
            return BUCKETS_PER_DECADE * DECADES - 1;
        }
        let base = decade * BUCKETS_PER_DECADE;
        let window = &bucket_bounds()[base..base + BUCKETS_PER_DECADE];
        // `nanos >= 10^decade` makes the first boundary always pass, but
        // clamp anyway: a one-ulp-high `powf` at a decade edge must not
        // underflow the subtraction.
        base + window.partition_point(|&lb| lb <= nanos).max(1) - 1
    }

    fn bucket_upper_bound(index: usize) -> u64 {
        10f64.powf((index + 1) as f64 / BUCKETS_PER_DECADE as f64) as u64
    }

    /// Records one latency observation.
    pub fn record(&mut self, d: SimDuration) {
        let nanos = d.as_nanos();
        self.counts[Self::bucket_index(nanos)] += 1;
        self.total += 1;
        self.sum_nanos += nanos as u128;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean latency, or `None` when empty.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(
            (self.sum_nanos / self.total as u128) as u64,
        ))
    }

    /// The latency at percentile `p` (0–100), or `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<SimDuration> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0,100]");
        if self.total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(SimDuration::from_nanos(Self::bucket_upper_bound(i)));
            }
        }
        None
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_nanos += other.sum_nanos;
    }

    /// The observations recorded since `earlier`, an older copy of this
    /// same histogram: bucket counts, total and sum subtract exactly, so
    /// the result equals a fresh histogram fed only the later
    /// observations (the inverse of [`Histogram::merge`]).
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let counts = self.counts.iter().zip(&earlier.counts);
        Histogram {
            counts: counts.map(|(now, then)| now - then).collect(),
            total: self.total - earlier.total,
            sum_nanos: self.sum_nanos - earlier.sum_nanos,
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = Histogram::new();
        for us in 1..=1000u64 {
            h.record(SimDuration::from_micros(us));
        }
        let p10 = h.percentile(10.0).unwrap();
        let p50 = h.percentile(50.0).unwrap();
        let p99 = h.percentile(99.0).unwrap();
        assert!(p10 <= p50 && p50 <= p99);
        // p50 within bucket error of 500us.
        let p50us = p50.as_nanos() as f64 / 1e3;
        assert!((450.0..=560.0).contains(&p50us), "p50 = {p50us}us");
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_millis(1));
        h.record(SimDuration::from_millis(3));
        assert_eq!(h.mean(), Some(SimDuration::from_millis(2)));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(SimDuration::from_micros(10));
        b.record(SimDuration::from_micros(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    proptest::proptest! {
        /// Subtracting a prefix leaves exactly the suffix, bucket for
        /// bucket, and merging the prefix back restores the whole.
        #[test]
        fn histogram_since_is_the_suffix_and_inverts_merge(
            nanos in proptest::collection::vec(0u64..20_000_000_000, 0..200),
            cut in 0usize..200,
        ) {
            let fed = |observations: &[u64]| {
                let mut h = Histogram::new();
                for &n in observations {
                    h.record(SimDuration::from_nanos(n));
                }
                h
            };
            let same = |a: &Histogram, b: &Histogram| {
                a.counts == b.counts && a.total == b.total && a.sum_nanos == b.sum_nanos
            };
            let cut = cut.min(nanos.len());
            let (whole, prefix) = (fed(&nanos), fed(&nanos[..cut]));
            let mut suffix = whole.since(&prefix);
            proptest::prop_assert!(same(&suffix, &fed(&nanos[cut..])));
            suffix.merge(&prefix);
            proptest::prop_assert!(same(&suffix, &whole));
        }
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn histogram_percentile_out_of_range_panics() {
        let h = Histogram::new();
        let _ = h.percentile(101.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn histogram_negative_percentile_panics() {
        let h = Histogram::new();
        let _ = h.percentile(-0.1);
    }

    #[test]
    fn histogram_single_sample_is_every_percentile() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(250));
        let p0 = h.percentile(0.0).unwrap();
        let p50 = h.percentile(50.0).unwrap();
        let p100 = h.percentile(100.0).unwrap();
        assert_eq!(p0, p50);
        assert_eq!(p50, p100);
        // The answer is the sample's bucket upper bound: at or just
        // above the recorded value, within one bucket's width (1.0233×).
        let ns = p50.as_nanos() as f64;
        assert!(
            (250_000.0..=250_000.0 * 1.0234).contains(&ns),
            "p50 = {ns}ns"
        );
    }

    #[test]
    fn histogram_p0_and_p100_bracket_the_data() {
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(10));
        for _ in 0..10 {
            h.record(SimDuration::from_millis(1));
        }
        h.record(SimDuration::from_millis(10));
        // p0 resolves to the smallest observation's bucket, p100 to the
        // largest's, each within one bucket's width (1.0233×) above it.
        let p0 = h.percentile(0.0).unwrap().as_nanos() as f64;
        let p100 = h.percentile(100.0).unwrap().as_nanos() as f64;
        assert!((10_000.0..=10_000.0 * 1.0234).contains(&p0), "p0 = {p0}ns");
        assert!((10e6..=10e6 * 1.0234).contains(&p100), "p100 = {p100}ns");
    }

    #[test]
    fn histogram_zero_duration_lands_in_the_first_bucket() {
        let mut h = Histogram::new();
        h.record(SimDuration::ZERO);
        let p = h.percentile(0.0).unwrap();
        assert!(p.as_nanos() <= 2, "first-bucket upper bound, got {p:?}");
        assert_eq!(h.mean(), Some(SimDuration::ZERO));
    }

    #[test]
    fn histogram_percentile_error_is_bounded_by_bucket_width() {
        // A uniform 1..=10000us ramp: every queried percentile must land
        // at or above the exact order statistic the rank formula selects,
        // within one log-bucket (10^0.01 ≈ 1.0233×) of it.
        let mut h = Histogram::new();
        for us in 1..=10_000u64 {
            h.record(SimDuration::from_micros(us));
        }
        for p in [1.0f64, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9] {
            let exact_us = (p / 100.0 * 10_000.0).ceil().max(1.0);
            let got_us = h.percentile(p).unwrap().as_nanos() as f64 / 1e3;
            assert!(
                (exact_us..=exact_us * 1.0234).contains(&got_us),
                "p{p}: got {got_us}us, exact {exact_us}us"
            );
        }
    }
}
