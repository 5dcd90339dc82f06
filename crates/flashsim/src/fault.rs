//! Seeded, deterministic fault injection across a flash array.
//!
//! [`FaultPlan`] is the single entry point for partial-failure injection:
//! latent per-chunk corruption (the uncorrectable-error-rate failure mode),
//! transient read timeouts, and stuck-device slowdowns. Whole-device
//! failure stays on [`FlashArray::fail_device`]; a plan covers everything
//! *smaller* than a device.
//!
//! Every random draw comes from [`DetRng`] substreams derived from one
//! seed, so two arrays driven by plans with equal seeds and equal call
//! sequences suffer byte-for-byte identical damage. Corruption walks
//! chunks in sorted-handle order per device, and each device gets its own
//! transient-fault substream, which keeps the injection independent of
//! `HashMap` iteration order and of unrelated reads on other devices.

use reo_sim::rng::DetRng;

use crate::array::FlashArray;
use crate::device::DeviceId;

/// A deterministic source of partial failures for a [`FlashArray`].
///
/// # Examples
///
/// ```
/// use reo_flashsim::{DeviceConfig, FaultPlan, FlashArray};
/// use reo_sim::SimClock;
///
/// let mut array = FlashArray::new(5, DeviceConfig::intel_540s(), SimClock::new());
/// let mut plan = FaultPlan::new(42);
/// // Nothing stored yet, so nothing to corrupt — but the call is valid.
/// assert_eq!(plan.inject_latent_corruption(&mut array, 0.01), 0);
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    corruption: DetRng,
    transient_root: DetRng,
    power_loss: DetRng,
}

impl FaultPlan {
    /// Creates a plan whose every draw is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        let root = DetRng::from_seed(seed);
        FaultPlan {
            corruption: root.derive("latent-corruption"),
            transient_root: root.derive("transient-faults"),
            power_loss: root.derive("power-loss"),
        }
    }

    /// Derives an independent fault seed for one stream (e.g. one target
    /// of a cluster) from a base experiment seed. Pure and stable:
    /// `(base, stream)` always yields the same seed, distinct streams get
    /// decorrelated draws, and stream 0 is *not* the base seed — so a
    /// 1-target cluster still replays its own schedule, not the
    /// single-node experiment's.
    pub fn derive_stream_seed(base: u64, stream: u64) -> u64 {
        // SplitMix64 over the combined words; the same mixer the
        // deterministic RNG family uses.
        let mut x = base
            .rotate_left(17)
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream.wrapping_add(1)));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// One round of latent corruption: every intact chunk on every healthy
    /// device is independently lost with probability `rate`. Returns the
    /// number of chunks corrupted. Devices stay healthy — the damage is
    /// per-chunk, surfacing as medium errors on the next read or scrub.
    pub fn inject_latent_corruption(&mut self, array: &mut FlashArray, rate: f64) -> usize {
        let mut corrupted = 0;
        for i in 0..array.device_count() {
            let dev = array.device_mut(DeviceId(i));
            if dev.is_healthy() {
                corrupted += dev.corrupt_chunks_randomly(rate, &mut self.corruption);
            }
        }
        corrupted
    }

    /// Arms per-read transient timeouts at `rate` on every device. Each
    /// device receives its own substream, so the pattern on one device
    /// does not depend on traffic to the others. Re-arming (including with
    /// a new rate) restarts the streams; `rate <= 0` disarms.
    pub fn arm_transient_faults(&mut self, array: &mut FlashArray, rate: f64) {
        for i in 0..array.device_count() {
            let rng = self.transient_root.derive(&format!("device-{i}"));
            array
                .device_mut(DeviceId(i))
                .arm_transient_faults(rate, rng);
        }
    }

    /// Scales one device's service times by `factor` (a stuck or throttled
    /// device; `1.0` restores nominal speed).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `factor` is not finite and
    /// positive.
    pub fn slow_device(&mut self, array: &mut FlashArray, id: DeviceId, factor: f64) {
        array.device_mut(id).set_slowdown(factor);
    }

    /// Plans the tail damage of a power loss: how many bytes of the
    /// journal's flushed log the interrupted last sector write tears off,
    /// uniformly drawn from `0..=max`. Equal seeds and call sequences tear
    /// equal byte counts, keeping crash experiments reproducible.
    pub fn crash_tear_bytes(&mut self, max: u64) -> u64 {
        self.power_loss.below(max + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{ChunkHandle, StoredChunk};
    use crate::device::DeviceConfig;
    use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration, SimTime};

    fn small_array() -> FlashArray {
        let config = DeviceConfig {
            capacity: ByteSize::from_mib(4),
            read: ServiceModel::new(SimDuration::from_micros(90), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
            erase_block: ByteSize::from_kib(256),
            pe_cycle_limit: 1000,
        };
        let mut array = FlashArray::new(3, config, SimClock::new());
        for d in 0..3usize {
            for c in 0..16u64 {
                array
                    .device_mut(DeviceId(d))
                    .write_chunk(
                        ChunkHandle::new(d as u64 * 100 + c),
                        StoredChunk::synthetic(ByteSize::from_kib(32)),
                        SimTime::ZERO,
                    )
                    .unwrap();
            }
        }
        array
    }

    #[test]
    fn equal_seeds_corrupt_equal_chunks() {
        let mut a = small_array();
        let mut b = small_array();
        let hit_a = FaultPlan::new(99).inject_latent_corruption(&mut a, 0.2);
        let hit_b = FaultPlan::new(99).inject_latent_corruption(&mut b, 0.2);
        assert_eq!(hit_a, hit_b);
        assert!(hit_a > 0);
        for d in 0..3usize {
            assert_eq!(
                a.device(DeviceId(d)).intact_handles(),
                b.device(DeviceId(d)).intact_handles()
            );
        }
    }

    #[test]
    fn different_seeds_usually_differ() {
        let mut a = small_array();
        let mut b = small_array();
        FaultPlan::new(1).inject_latent_corruption(&mut a, 0.3);
        FaultPlan::new(2).inject_latent_corruption(&mut b, 0.3);
        let same = (0..3usize).all(|d| {
            a.device(DeviceId(d)).intact_handles() == b.device(DeviceId(d)).intact_handles()
        });
        assert!(!same, "48 chunks at 30%: identical damage is implausible");
    }

    #[test]
    fn failed_devices_are_skipped() {
        let mut array = small_array();
        array.fail_device(DeviceId(0));
        let mut plan = FaultPlan::new(7);
        // Rate 1.0 corrupts everything reachable: only the healthy 32.
        assert_eq!(plan.inject_latent_corruption(&mut array, 1.0), 32);
        for d in 1..3usize {
            assert!(array.device(DeviceId(d)).intact_handles().is_empty());
        }
    }

    #[test]
    fn arming_and_slowdown_reach_every_device() {
        let mut array = small_array();
        let mut plan = FaultPlan::new(3);
        plan.arm_transient_faults(&mut array, 0.1);
        for d in 0..3usize {
            assert!(array.device(DeviceId(d)).transient_faults_armed());
        }
        plan.slow_device(&mut array, DeviceId(1), 8.0);
        assert_eq!(array.device(DeviceId(1)).slowdown(), 8.0);
        assert_eq!(array.device(DeviceId(0)).slowdown(), 1.0);
        plan.arm_transient_faults(&mut array, 0.0);
        assert!(!array.device(DeviceId(2)).transient_faults_armed());
    }
}
