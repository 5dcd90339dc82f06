//! The envelope rule for host-time metrics, its quiet-host limit, and
//! percentile picking.
//!
//! The simulator is deterministic: step *i* of a phase (one request, or
//! one construction call) does identical work in every repetition, and
//! interference from the host only ever adds time. So the time of a step
//! is its fastest repetition, and the time of a phase is the sum of its
//! steps. A slow stretch of the host has to cover the same step in every
//! repetition to move the result, where it moves a mean, a median or a
//! whole-pass minimum as soon as it covers one pass.
//!
//! What is left in an envelope of R repetitions is the smallest of R
//! draws of each step's interference, and that grows when the host is
//! busy. It shrinks as R grows, so the envelopes of the even and of the
//! odd repetitions alone (R/2 draws each, spread over the same stretch of
//! time) say by how much, and [`limit_factor`] takes that trend to its
//! end.

/// How far [`limit_factor`] goes beyond the envelope, in units of the
/// step from the half envelopes down to the whole one. Measured on the
/// development host, the envelope of R repetitions lies above that of
/// very many by about a * R^-0.6, in quiet stretches and busy ones alike;
/// halving R then adds (2^0.6 - 1) = 0.52 of what is left, so what is
/// left is about twice the step.
const LIMIT_WEIGHT: f64 = 2.0;

/// Per-step minima over repetitions.
#[derive(Clone, Debug)]
pub struct Envelope {
    min_ns: Vec<u64>,
    /// The minima over the even repetitions alone, and over the odd ones.
    half_min_ns: [Vec<u64>; 2],
}

impl Envelope {
    /// An envelope of `steps` steps with nothing observed yet.
    pub fn new(steps: usize) -> Self {
        Envelope {
            min_ns: vec![u64::MAX; steps],
            half_min_ns: [vec![u64::MAX; steps], vec![u64::MAX; steps]],
        }
    }

    /// Records repetition `rep`'s time for `step`.
    pub fn observe(&mut self, rep: usize, step: usize, ns: u64) {
        for slot in [&mut self.min_ns[step], &mut self.half_min_ns[rep % 2][step]] {
            *slot = (*slot).min(ns);
        }
    }

    /// The per-step minima.
    ///
    /// # Panics
    ///
    /// Panics if a step was never observed: a phase with a hole in it
    /// has no time.
    pub fn steps(&self) -> &[u64] {
        assert!(
            self.min_ns.iter().all(|&ns| ns != u64::MAX),
            "every step must be observed at least once"
        );
        &self.min_ns
    }

    /// The phase time: the sum of the per-step minima.
    pub fn total_ns(&self) -> u64 {
        self.steps().iter().sum()
    }

    /// The phase times of the even and of the odd repetitions alone, or
    /// `None` while either set is empty.
    fn half_totals_ns(&self) -> Option<[u64; 2]> {
        let total = |half: &Vec<u64>| {
            half.iter()
                .try_fold(0u64, |sum, &ns| (ns != u64::MAX).then_some(sum + ns))
        };
        Some([total(&self.half_min_ns[0])?, total(&self.half_min_ns[1])?])
    }
}

/// What multiplies the envelope time of a phase (the steps of `parts`
/// together) to estimate the time it would take on a quiet host: the
/// envelope, less [`LIMIT_WEIGHT`] times the step from the mean of the
/// two half envelopes down to it. 1 while there is only one repetition.
///
/// # Panics
///
/// Panics if the estimate is not positive: the halves then lie more than
/// half again above the whole, and no such run says anything.
pub fn limit_factor(parts: &[&Envelope]) -> f64 {
    let whole: u64 = parts.iter().map(|e| e.total_ns()).sum();
    let halves: Option<Vec<[u64; 2]>> = parts.iter().map(|e| e.half_totals_ns()).collect();
    let Some(halves) = halves else { return 1.0 };
    let half = halves
        .iter()
        .map(|h| (h[0] + h[1]) as f64 / 2.0)
        .sum::<f64>();
    let factor = 1.0 - LIMIT_WEIGHT * (half / whole as f64 - 1.0);
    assert!(
        factor > 0.0,
        "half envelopes {half} ns against {whole} ns: too much interference to measure under"
    );
    factor
}

/// Percentiles offered, lowest first.
const LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples strictly beyond percentile `p` among `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p) - 1
}

/// The highest percentile of [`LADDER`] that keeps at least ten samples
/// beyond it, or `None` when even the median does not.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rfind(|&p| n > 0 && samples_beyond(n, p) >= 10)
}

/// Index of percentile `p` in a sorted slice of `n` samples
/// (nearest-rank).
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs samples");
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// `values` in ascending order, for [`percentile`].
pub fn sorted(values: &[u64]) -> Vec<u64> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Percentile `p` of `sorted` (ascending), nearest-rank.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p)]
}

/// Mean of the middle half of unsorted values: the lowest and the
/// highest quarter (rounded down) are left out. Nearly as steady as the
/// mean where values scatter evenly, and, like the median, not moved by a
/// few far out.
pub fn midmean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "a mean needs values");
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of unsorted values.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "a median needs values");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_time_is_the_sum_of_per_step_minima() {
        let mut e = Envelope::new(3);
        for (rep, times) in [[5, 9, 7], [6, 4, 8], [9, 9, 3]].iter().enumerate() {
            for (step, &ns) in times.iter().enumerate() {
                e.observe(rep, step, ns);
            }
        }
        assert_eq!(e.steps(), &[5, 4, 3]);
        assert_eq!(e.total_ns(), 12);
    }

    #[test]
    fn one_slow_repetition_does_not_move_the_envelope() {
        let clean = [10u64, 20, 30, 40];
        let mut quiet = Envelope::new(4);
        let mut noisy = Envelope::new(4);
        for rep in 0..5 {
            for (step, &ns) in clean.iter().enumerate() {
                quiet.observe(rep, step, ns);
                // Repetition 2 ran on a host ten times slower.
                noisy.observe(rep, step, if rep == 2 { ns * 10 } else { ns });
            }
        }
        assert_eq!(noisy.total_ns(), quiet.total_ns());
        // A whole-pass mean would have moved by 180 %.
        assert_eq!(quiet.total_ns(), 100);
    }

    #[test]
    fn interference_on_different_steps_in_each_repetition_cancels() {
        // Every repetition is disturbed, but never on the same step.
        let mut e = Envelope::new(3);
        for rep in 0..3 {
            for step in 0..3 {
                e.observe(rep, step, if step == rep { 1_000 } else { 10 });
            }
        }
        assert_eq!(e.total_ns(), 30);
    }

    #[test]
    #[should_panic(expected = "every step must be observed")]
    fn a_hole_in_the_phase_is_refused() {
        let mut e = Envelope::new(2);
        e.observe(0, 0, 1);
        e.total_ns();
    }

    #[test]
    fn limit_goes_twice_the_step_from_the_halves_beyond_the_envelope() {
        // Even repetitions: 100 + 210, odd ones: 120 + 200; all: 100 + 200.
        let mut e = Envelope::new(2);
        for (rep, times) in [[100, 230], [120, 200], [110, 210], [130, 205]]
            .iter()
            .enumerate()
        {
            for (step, &ns) in times.iter().enumerate() {
                e.observe(rep, step, ns);
            }
        }
        assert_eq!(e.total_ns(), 300);
        // Halves average 315, 5 % above: the limit lies 10 % below.
        assert!((limit_factor(&[&e]) - 0.9).abs() < 1e-12);
        // Two phases count as one: 300 + 300 against 315 + 315.
        assert!((limit_factor(&[&e, &e]) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn limit_of_identical_repetitions_is_the_envelope() {
        let mut e = Envelope::new(3);
        for rep in 0..4 {
            for step in 0..3 {
                e.observe(rep, step, 50);
            }
        }
        assert_eq!(limit_factor(&[&e]), 1.0);
    }

    #[test]
    fn one_repetition_has_no_limit_to_go_to() {
        let mut e = Envelope::new(1);
        e.observe(0, 0, 50);
        assert_eq!(limit_factor(&[&e]), 1.0);
    }

    #[test]
    fn midmean_leaves_out_the_outer_quarters() {
        // Nine values: two off each end, the mean of the middle five.
        let mut v = [900.0, 1.0, 5.0, 3.0, 4.0, 2.0, 6.0, 7.0, -50.0];
        assert_eq!(midmean(&mut v), 4.0);
        assert_eq!(midmean(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(midmean(&mut [7.0]), 7.0);
    }

    #[test]
    fn picker_keeps_ten_samples_beyond() {
        // 4 500 requests: p95 keeps 225 beyond, p99 45, p99.9 only 4.
        assert_eq!(samples_beyond(4_500, 95.0), 225);
        assert_eq!(samples_beyond(4_500, 99.0), 45);
        assert_eq!(samples_beyond(4_500, 99.9), 4);
        assert_eq!(highest_supported(4_500), Some(99.0));
        assert_eq!(highest_supported(150_000), Some(99.99));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 95.0), 95);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[7], 95.0), 7);
        assert_eq!(samples_beyond(100, 95.0), 5);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
