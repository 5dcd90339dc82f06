//! Pure placement arithmetic for stripes.

use reo_flashsim::DeviceId;

use crate::scheme::RedundancyScheme;

/// The role a chunk plays within its stripe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ChunkRole {
    /// The `i`-th data chunk of the stripe.
    Data(usize),
    /// The `p`-th parity chunk of the stripe.
    Parity(usize),
    /// The `r`-th replica of the (single) data chunk of a replicated
    /// stripe. Replica 0 is the primary copy.
    Replica(usize),
}

impl ChunkRole {
    /// `true` for chunks that hold user data (including the primary
    /// replica).
    pub fn is_user_data(self) -> bool {
        matches!(self, ChunkRole::Data(_) | ChunkRole::Replica(0))
    }
}

/// Placement arithmetic for one stripe on an `n`-device array.
///
/// Parity rotates round-robin "for an even distribution" (Section
/// IV-C.3): stripe `s` places its `p`-th parity chunk on device
/// `(s + p) mod n`, and its `j`-th data chunk on device `(s + k + j) mod n`
/// where `k` is the parity count. Replicated stripes place replica `r` on
/// device `(s + r) mod n`.
///
/// # Examples
///
/// ```
/// use reo_stripe::{RedundancyScheme, StripeLayout};
/// use reo_flashsim::DeviceId;
///
/// let l = StripeLayout::new(7, RedundancyScheme::parity(2), 5);
/// // Stripe 7 on 5 devices: parity on devices 2 and 3, data on 4, 0, 1.
/// assert_eq!(l.parity_device(0), DeviceId(2));
/// assert_eq!(l.parity_device(1), DeviceId(3));
/// assert_eq!(l.data_device(0), DeviceId(4));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StripeLayout {
    scheme: RedundancyScheme,
    devices: usize,
    /// How far the stripe's chunks are rotated along the devices: `s mod n`.
    rotation: usize,
}

impl StripeLayout {
    /// Creates the layout of stripe `stripe_index` under `scheme` on a
    /// `devices`-wide array.
    ///
    /// # Panics
    ///
    /// Panics if the scheme does not fit the array.
    pub fn new(stripe_index: u64, scheme: RedundancyScheme, devices: usize) -> Self {
        // Validate geometry eagerly.
        let _ = scheme.data_chunks_per_stripe(devices);
        StripeLayout {
            scheme,
            devices,
            rotation: (stripe_index % devices as u64) as usize,
        }
    }

    /// The layout of the stripe numbered one higher: the rotation steps on
    /// by one device and wraps, so walking an object's consecutive stripes
    /// divides once.
    pub(crate) fn next(self) -> Self {
        StripeLayout {
            rotation: self.wrapped(self.rotation + 1),
            ..self
        }
    }

    /// `rank`, which is below `2 * devices`, wrapped onto the array.
    fn wrapped(&self, rank: usize) -> usize {
        if rank < self.devices {
            rank
        } else {
            rank - self.devices
        }
    }

    /// The positions along the array of the stripe's first data chunk and
    /// of its first parity chunk (or extra replica). The `j`-th chunk of
    /// either kind is `j` devices further on, wrapping at the end of the
    /// array: whoever walks a stripe's chunks takes these once and steps.
    pub(crate) fn first_ranks(&self) -> (usize, usize) {
        let (data, redundancy) = match self.scheme {
            RedundancyScheme::Parity(k) => (self.rotation + k as usize, self.rotation),
            RedundancyScheme::Replication => (self.rotation, self.rotation + 1),
        };
        (self.wrapped(data), self.wrapped(redundancy))
    }

    /// Where the data chunks (primary replicas, under replication) of a
    /// run of stripes from this one fall: `periods` whole periods of
    /// `devices` stripes, then `rest` (fewer than `devices`) stripes, then
    /// the first `then` data chunks of the stripe after those. Returns how
    /// many land on each rank, as a function of the rank, and the rank of
    /// the data chunk that follows them. What depends only on the layout is
    /// worked out once, here; a rank costs a few operations and no
    /// division.
    ///
    /// The rotation repeats every `devices` stripes, so a period puts the
    /// same count on a rank whichever stripe it starts at: every rank is a
    /// data rank in as many stripes of a period as a stripe has data
    /// chunks. Of the rest, the `i`-th stripe starts its data `i` ranks
    /// further on than this one, so a rank is covered by the stripes that
    /// start at most `data_slots - 1` ranks before it, once round the
    /// array or, past its end, twice.
    pub(crate) fn data_chunks_by_rank(
        &self,
        periods: u64,
        rest: u64,
        then: u64,
    ) -> (impl Fn(usize) -> u64 + Copy, usize) {
        let (n, m) = (self.devices as u64, self.data_slots() as u64);
        let first = self.first_ranks().0 as u64;
        let wrapped = move |q: u64| if q < n { q } else { q - n };
        // The stripes `i < rest` whose data, `i` to `i + m - 1` ranks on,
        // covers `q` ranks on.
        let covering = move |q: u64| (q + 1).min(rest).saturating_sub((q + 1).saturating_sub(m));
        let by_rank = move |rank: usize| {
            // How far along the array `rank` lies from this stripe's first
            // data chunk.
            let past = wrapped(rank as u64 + n - first);
            // The stripe after the rest starts its data `rest` ranks on.
            let in_then = u64::from(wrapped(past + n - rest) < then);
            periods * m + covering(past) + covering(past + n) + in_then
        };
        let following = wrapped(first + wrapped(rest + then)) as usize;
        (by_rank, following)
    }

    /// The chunk reads of `stripes` whole stripes from this one when the
    /// ranks in `lost` (bit `r` for rank `r`, at most the redundancy slots
    /// of them) hold nothing readable, added to `reads[rank]`: the pattern
    /// of each of the (at most `devices`) rotations the stripes take, times
    /// the stripes of that rotation.
    ///
    /// A whole stripe has a chunk on every rank: its data chunks from its
    /// first data rank on, then its parity chunks in codec order (or its
    /// other replicas) on the ranks that follow, round the array. Each
    /// read takes the first `data_slots` survivors in that order: the data
    /// chunks of an intact stripe, the shards a degraded one is
    /// reconstructed from, the first surviving replica. The `i`-th stripe
    /// on starts `i` ranks further on, and the rotations repeat every
    /// `devices` stripes.
    pub(crate) fn whole_stripe_reads(&self, stripes: u64, lost: u64, reads: &mut [u64]) {
        let (n, m) = (self.devices as u64, self.data_slots());
        debug_assert!(lost.count_ones() as usize <= self.devices - m);
        let first = self.first_ranks().0;
        for i in 0..stripes.min(n) {
            let count = stripes / n + u64::from(i < stripes % n);
            let mut rank = self.wrapped(first + i as usize);
            let mut to_read = m;
            while to_read > 0 {
                if lost >> rank & 1 == 0 {
                    reads[rank] += count;
                    to_read -= 1;
                }
                rank = self.wrapped(rank + 1);
            }
        }
    }

    /// The scheme this layout was built with.
    pub fn scheme(&self) -> RedundancyScheme {
        self.scheme
    }

    /// Number of data chunk slots in the stripe.
    pub fn data_slots(&self) -> usize {
        self.scheme.data_chunks_per_stripe(self.devices)
    }

    /// Number of parity/replica slots in the stripe.
    pub fn redundancy_slots(&self) -> usize {
        self.scheme.parity_chunks(self.devices)
    }

    /// Device holding the `j`-th data chunk.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range for the scheme.
    pub fn data_device(&self, j: usize) -> DeviceId {
        assert!(j < self.data_slots(), "data slot {j} out of range");
        DeviceId(self.wrapped(self.first_ranks().0 + j))
    }

    /// Device holding the `p`-th parity chunk (or `r`-th extra replica for
    /// replication, where `p = r - 1` for replicas beyond the primary).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for the scheme.
    pub fn parity_device(&self, p: usize) -> DeviceId {
        assert!(p < self.redundancy_slots(), "parity slot {p} out of range");
        DeviceId(self.wrapped(self.first_ranks().1 + p))
    }

    /// Every `(role, device)` pair of the stripe, data chunks first.
    pub fn placements(&self) -> Vec<(ChunkRole, DeviceId)> {
        let mut out = Vec::with_capacity(self.data_slots() + self.redundancy_slots());
        match self.scheme {
            RedundancyScheme::Parity(_) => {
                for j in 0..self.data_slots() {
                    out.push((ChunkRole::Data(j), self.data_device(j)));
                }
                for p in 0..self.redundancy_slots() {
                    out.push((ChunkRole::Parity(p), self.parity_device(p)));
                }
            }
            RedundancyScheme::Replication => {
                out.push((ChunkRole::Replica(0), self.data_device(0)));
                for r in 0..self.redundancy_slots() {
                    out.push((ChunkRole::Replica(r + 1), self.parity_device(r)));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_chunks_on_distinct_devices() {
        for scheme in [
            RedundancyScheme::parity(0),
            RedundancyScheme::parity(1),
            RedundancyScheme::parity(2),
            RedundancyScheme::Replication,
        ] {
            for s in 0..20u64 {
                let l = StripeLayout::new(s, scheme, 5);
                let devices: HashSet<DeviceId> =
                    l.placements().into_iter().map(|(_, d)| d).collect();
                assert_eq!(
                    devices.len(),
                    l.data_slots() + l.redundancy_slots(),
                    "scheme {scheme} stripe {s} reuses a device"
                );
            }
        }
    }

    #[test]
    fn parity_rotates_round_robin() {
        // Over n consecutive stripes, the 0th parity chunk visits every
        // device exactly once.
        let mut seen = HashSet::new();
        for s in 0..5u64 {
            let l = StripeLayout::new(s, RedundancyScheme::parity(1), 5);
            seen.insert(l.parity_device(0));
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn parity_load_is_even_over_many_stripes() {
        let mut counts = [0usize; 5];
        for s in 0..100u64 {
            let l = StripeLayout::new(s, RedundancyScheme::parity(2), 5);
            for p in 0..2 {
                counts[l.parity_device(p).0] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 40), "{counts:?}");
    }

    #[test]
    fn replication_uses_every_device() {
        let l = StripeLayout::new(3, RedundancyScheme::Replication, 5);
        let placements = l.placements();
        assert_eq!(placements.len(), 5);
        assert!(matches!(placements[0].0, ChunkRole::Replica(0)));
        let devices: HashSet<DeviceId> = placements.iter().map(|&(_, d)| d).collect();
        assert_eq!(devices.len(), 5);
    }

    #[test]
    fn role_user_data_flag() {
        assert!(ChunkRole::Data(3).is_user_data());
        assert!(ChunkRole::Replica(0).is_user_data());
        assert!(!ChunkRole::Replica(1).is_user_data());
        assert!(!ChunkRole::Parity(0).is_user_data());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn data_slot_bound_checked() {
        let l = StripeLayout::new(0, RedundancyScheme::parity(2), 5);
        let _ = l.data_device(3);
    }

    /// Whole periods and fewer than a period of stripes from every
    /// residue (and from far along), then part of the next stripe: what
    /// `data_chunks_by_rank` counts on each rank, and the rank it names
    /// for the next data chunk, are what walking those stripes finds.
    #[test]
    fn data_chunks_per_period_is_what_walking_a_period_counts() {
        let schemes = [
            RedundancyScheme::parity(0),
            RedundancyScheme::parity(1),
            RedundancyScheme::parity(2),
            RedundancyScheme::parity(3),
            RedundancyScheme::Replication,
        ];
        for width in 1..=8usize {
            for scheme in schemes {
                if matches!(scheme, RedundancyScheme::Parity(k) if k as usize >= width) {
                    continue;
                }
                let (n, m) = (width as u64, scheme.data_chunks_per_stripe(width));
                for first in (0..n).chain([1_000_003]) {
                    let l = StripeLayout::new(first, scheme, width);
                    for stripes in 0..3 * n {
                        let next = StripeLayout::new(first + stripes, scheme, width);
                        for then in 0..m {
                            let mut walked = vec![0u64; width];
                            for s in first..first + stripes {
                                let stripe = StripeLayout::new(s, scheme, width);
                                for j in 0..m {
                                    walked[stripe.data_device(j).0] += 1;
                                }
                            }
                            for j in 0..then {
                                walked[next.data_device(j).0] += 1;
                            }
                            let (by_rank, following) =
                                l.data_chunks_by_rank(stripes / n, stripes % n, then as u64);
                            let counted: Vec<u64> = (0..width).map(by_rank).collect();
                            let case = format!(
                                "{scheme} on {width} from {first}, \
                                 {stripes} stripes and {then} chunks"
                            );
                            assert_eq!(counted, walked, "{case}");
                            assert_eq!(following, next.data_device(then).0, "{case}");
                            let total = stripes * m as u64 + then as u64;
                            assert_eq!(counted.iter().sum::<u64>(), total, "{case}");
                        }
                    }
                }
            }
        }
    }

    /// Whole stripes from every residue, with every set of lost ranks a
    /// stripe survives: what `whole_stripe_reads` counts on each rank is
    /// what reading the first surviving chunks of each stripe, data then
    /// parity in codec order (or replicas), finds.
    #[test]
    fn whole_stripe_reads_are_the_first_survivors_of_each_stripe() {
        let schemes = [
            RedundancyScheme::parity(0),
            RedundancyScheme::parity(1),
            RedundancyScheme::parity(2),
            RedundancyScheme::parity(3),
            RedundancyScheme::Replication,
        ];
        for width in 1..=8usize {
            for scheme in schemes {
                if matches!(scheme, RedundancyScheme::Parity(k) if k as usize >= width) {
                    continue;
                }
                let n = width as u64;
                let tolerated = scheme.failures_tolerated(width) as u32;
                let masks = (0..1u64 << width).filter(|l| l.count_ones() <= tolerated);
                for lost in masks {
                    for first in (0..n).chain([1_000_003]) {
                        let l = StripeLayout::new(first, scheme, width);
                        for stripes in [0, 1, n - 1, n, n + 1, 2 * n + 3] {
                            let mut walked = vec![0u64; width];
                            for s in first..first + stripes {
                                let s = StripeLayout::new(s, scheme, width);
                                let data = (0..s.data_slots()).map(|j| s.data_device(j));
                                let redundancy =
                                    (0..s.redundancy_slots()).map(|p| s.parity_device(p));
                                let survivors =
                                    data.chain(redundancy).filter(|d| lost >> d.0 & 1 == 0);
                                for d in survivors.take(s.data_slots()) {
                                    walked[d.0] += 1;
                                }
                            }
                            let mut counted = vec![0u64; width];
                            l.whole_stripe_reads(stripes, lost, &mut counted);
                            assert_eq!(
                                counted, walked,
                                "{scheme} on {width} from {first}, \
                                 {stripes} stripes, lost {lost:b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn doc_example_layout() {
        let l = StripeLayout::new(7, RedundancyScheme::parity(2), 5);
        assert_eq!(l.parity_device(0), DeviceId(2));
        assert_eq!(l.parity_device(1), DeviceId(3));
        assert_eq!(l.data_device(0), DeviceId(4));
        assert_eq!(l.data_device(1), DeviceId(0));
        assert_eq!(l.data_device(2), DeviceId(1));
    }
}
