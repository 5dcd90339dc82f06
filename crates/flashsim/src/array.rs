//! An array of simulated flash devices behind one clock.

use reo_sim::{ByteSize, Layer, SimClock, SimTime, Tracer};
use serde::{Deserialize, Serialize};

use crate::chunk::{ChunkHandle, StoredChunk};
use crate::device::{DeviceConfig, DeviceId, DeviceStats, FlashDevice, FlashError};

/// Aggregate counters across all devices of an array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayStats {
    /// Sum of per-device read counts.
    pub reads: u64,
    /// Sum of per-device write counts.
    pub writes: u64,
    /// Sum of bytes read.
    pub bytes_read: u64,
    /// Sum of bytes written.
    pub bytes_written: u64,
    /// Whole-device failures injected so far.
    pub failures_injected: u64,
    /// Spare insertions so far.
    pub spares_inserted: u64,
    /// Sum of per-device transient read timeouts.
    pub transient_timeouts: u64,
    /// Sum of simulated nanoseconds spent queueing behind busy devices.
    pub queued_nanos: u64,
    /// Sum of simulated nanoseconds devices spent servicing operations.
    pub busy_nanos: u64,
}

/// One row of [`FlashArray::device_stats`]: a device's identity, health,
/// wear, occupancy, and cumulative counters — the exporter's per-device
/// table.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct DeviceReport {
    /// The device's slot in the array.
    pub id: DeviceId,
    /// `false` once the device has been failed (and not yet replaced).
    pub healthy: bool,
    /// Estimated wear as a fraction of the P/E budget consumed.
    pub wear: f64,
    /// Bytes currently allocated on the device.
    pub used: ByteSize,
    /// Cumulative operation counters.
    pub stats: DeviceStats,
}

/// An ordered array of [`FlashDevice`]s sharing a [`SimClock`].
///
/// The array exposes two kinds of chunk I/O:
///
/// * **Sequenced** ([`FlashArray::read_chunk`] / [`FlashArray::write_chunk`])
///   — one chunk on one device; the clock advances to the completion time.
/// * **Batched** ([`FlashArray::complete_batch`]) — the caller performs a
///   set of per-device operations that logically overlap (a stripe read or
///   write), collects their completion instants, and then advances the
///   clock once to the latest of them. Within each device the operations
///   still serialize through the device's `busy_until` horizon.
///
/// # Examples
///
/// ```
/// use reo_flashsim::{ChunkHandle, DeviceConfig, DeviceId, FlashArray, StoredChunk};
/// use reo_sim::{ByteSize, SimClock};
///
/// let mut array = FlashArray::new(5, DeviceConfig::intel_540s(), SimClock::new());
/// let chunk = StoredChunk::synthetic(ByteSize::from_kib(64));
/// array.write_chunk(DeviceId(2), ChunkHandle::new(1), chunk)?;
/// let (back, _) = array.read_chunk(DeviceId(2), ChunkHandle::new(1))?;
/// assert_eq!(back.len(), ByteSize::from_kib(64));
/// # Ok::<(), reo_flashsim::FlashError>(())
/// ```
#[derive(Clone, Debug)]
pub struct FlashArray {
    devices: Vec<FlashDevice>,
    clock: SimClock,
    tracer: Tracer,
    failures_injected: u64,
    spares_inserted: u64,
}

impl FlashArray {
    /// Creates an array of `n` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, config: DeviceConfig, clock: SimClock) -> Self {
        assert!(n > 0, "an array needs at least one device");
        FlashArray {
            devices: (0..n)
                .map(|i| FlashDevice::new(DeviceId(i), config))
                .collect(),
            clock,
            tracer: Tracer::new(),
            failures_injected: 0,
            spares_inserted: 0,
        }
    }

    /// Attaches a shared [`Tracer`]: chunk operations record
    /// [`Layer::Flash`] spans on it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Number of devices (healthy or failed).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// IDs of currently healthy devices, in array order.
    pub fn healthy_devices(&self) -> Vec<DeviceId> {
        self.healthy().map(|d| d.id()).collect()
    }

    /// The currently healthy devices, in array order — the
    /// non-allocating form of [`FlashArray::healthy_devices`] for callers
    /// that only count them or sum over them.
    pub fn healthy(&self) -> impl Iterator<Item = &FlashDevice> {
        self.devices.iter().filter(|d| d.is_healthy())
    }

    /// `true` when every device is healthy and none holds a chunk awaiting
    /// rebuild ([`FlashDevice::all_chunks_intact`] on each): every chunk
    /// placed on the array and not yet removed is intact.
    pub fn all_chunks_intact(&self) -> bool {
        self.devices.iter().all(|d| d.all_chunks_intact())
    }

    /// Number of currently failed devices.
    pub fn failed_count(&self) -> usize {
        self.devices.iter().filter(|d| !d.is_healthy()).count()
    }

    /// `true` when no device is servicing an operation at `now` — the
    /// whole array's foreground queue has drained.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.devices.iter().all(|d| d.busy_until() <= now)
    }

    /// Immutable access to a device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &FlashDevice {
        &self.devices[id.0]
    }

    /// Mutable access to a device (used by the stripe layer for batched
    /// operations).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut FlashDevice {
        &mut self.devices[id.0]
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> ArrayStats {
        let mut s = ArrayStats {
            failures_injected: self.failures_injected,
            spares_inserted: self.spares_inserted,
            ..ArrayStats::default()
        };
        for d in &self.devices {
            let DeviceStats {
                reads,
                writes,
                bytes_read,
                bytes_written,
                queued_nanos,
                busy_nanos,
                transient_timeouts,
                ..
            } = d.stats();
            s.reads += reads;
            s.writes += writes;
            s.bytes_read += bytes_read;
            s.bytes_written += bytes_written;
            s.queued_nanos += queued_nanos;
            s.busy_nanos += busy_nanos;
            s.transient_timeouts += transient_timeouts;
        }
        s
    }

    /// Per-device statistics in array order, paired with health and wear
    /// (the exporter's device table).
    pub fn device_stats(&self) -> Vec<DeviceReport> {
        self.devices
            .iter()
            .map(|d| DeviceReport {
                id: d.id(),
                healthy: d.is_healthy(),
                wear: d.wear_fraction(),
                used: d.used(),
                stats: d.stats(),
            })
            .collect()
    }

    /// Fails a device in place (the paper's "shootdown" command): all its
    /// chunks become corrupted and subsequent commands to it error.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fail_device(&mut self, id: DeviceId) {
        self.devices[id.0].fail();
        self.failures_injected += 1;
    }

    /// Replaces a failed (or healthy) device with a fresh spare, clearing
    /// its contents. The caller is responsible for rebuilding data onto it.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_device(&mut self, id: DeviceId) {
        self.devices[id.0].replace_with_spare();
        self.spares_inserted += 1;
    }

    /// Writes one chunk and advances the clock to its completion.
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from the device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn write_chunk(
        &mut self,
        id: DeviceId,
        handle: ChunkHandle,
        chunk: StoredChunk,
    ) -> Result<SimTime, FlashError> {
        let now = self.clock.now();
        let done = self.devices[id.0].write_chunk(handle, chunk, now)?;
        let t = self.clock.advance_to(done);
        self.tracer.record_span(Layer::Flash, "write", now, t);
        Ok(t)
    }

    /// Reads one chunk and advances the clock to its completion.
    ///
    /// # Errors
    ///
    /// Propagates [`FlashError`] from the device.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn read_chunk(
        &mut self,
        id: DeviceId,
        handle: ChunkHandle,
    ) -> Result<(StoredChunk, SimTime), FlashError> {
        let now = self.clock.now();
        let (chunk, done) = self.devices[id.0].read_chunk(handle, now)?;
        let t = self.clock.advance_to(done);
        self.tracer.record_span(Layer::Flash, "read", now, t);
        Ok((chunk, t))
    }

    /// Advances the clock to the latest completion instant of a batch of
    /// overlapping per-device operations, and returns it.
    ///
    /// Use with [`FlashArray::device_mut`]: issue each device operation
    /// with the *same* start time (`clock.now()`), collect the returned
    /// completion instants, then call this once.
    pub fn complete_batch<I: IntoIterator<Item = SimTime>>(&self, completions: I) -> SimTime {
        let start = self.clock.now();
        let latest = completions
            .into_iter()
            .fold(start, |acc, t| if t > acc { t } else { acc });
        let t = self.clock.advance_to(latest);
        if latest > start {
            self.tracer.record_span(Layer::Flash, "batch", start, t);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_sim::{ServiceModel, SimDuration};

    fn small_config() -> DeviceConfig {
        DeviceConfig {
            capacity: ByteSize::from_mib(8),
            read: ServiceModel::new(SimDuration::from_micros(100), 1024 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(100), 1024 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 1000,
        }
    }

    fn array(n: usize) -> FlashArray {
        FlashArray::new(n, small_config(), SimClock::new())
    }

    #[test]
    fn parallel_batch_faster_than_sequential() {
        // Writing 5 chunks to 5 different devices as a batch should cost
        // about one write; to one device, five writes.
        let chunk = || StoredChunk::synthetic(ByteSize::from_kib(64));

        let mut par = array(5);
        let now = par.clock().now();
        let completions: Vec<SimTime> = (0..5)
            .map(|i| {
                par.device_mut(DeviceId(i))
                    .write_chunk(ChunkHandle::new(i as u64), chunk(), now)
                    .unwrap()
            })
            .collect();
        let par_done = par.complete_batch(completions);

        let mut seq = array(5);
        for i in 0..5u64 {
            seq.write_chunk(DeviceId(0), ChunkHandle::new(i), chunk())
                .unwrap();
        }
        let seq_done = seq.clock().now();

        assert!(par_done.as_nanos() * 4 < seq_done.as_nanos());
    }

    #[test]
    fn failure_and_spare_cycle() {
        let mut a = array(3);
        a.write_chunk(
            DeviceId(1),
            ChunkHandle::new(1),
            StoredChunk::synthetic(ByteSize::from_kib(4)),
        )
        .unwrap();
        a.fail_device(DeviceId(1));
        assert_eq!(a.failed_count(), 1);
        assert_eq!(a.healthy_devices(), vec![DeviceId(0), DeviceId(2)]);
        assert!(matches!(
            a.read_chunk(DeviceId(1), ChunkHandle::new(1)),
            Err(FlashError::DeviceFailed(DeviceId(1)))
        ));
        a.replace_device(DeviceId(1));
        assert_eq!(a.failed_count(), 0);
        assert_eq!(a.stats().failures_injected, 1);
        assert_eq!(a.stats().spares_inserted, 1);
        // Spare is empty.
        assert!(matches!(
            a.read_chunk(DeviceId(1), ChunkHandle::new(1)),
            Err(FlashError::UnknownChunk(_))
        ));
    }

    #[test]
    fn stats_aggregate_across_devices() {
        let mut a = array(2);
        a.write_chunk(
            DeviceId(0),
            ChunkHandle::new(1),
            StoredChunk::synthetic(ByteSize::from_kib(1)),
        )
        .unwrap();
        a.write_chunk(
            DeviceId(1),
            ChunkHandle::new(2),
            StoredChunk::synthetic(ByteSize::from_kib(2)),
        )
        .unwrap();
        a.read_chunk(DeviceId(0), ChunkHandle::new(1)).unwrap();
        let s = a.stats();
        assert_eq!(s.writes, 2);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes_written, 3 * 1024);
        assert_eq!(s.bytes_read, 1024);
    }

    #[test]
    fn healthy_capacity_shrinks_on_failure() {
        let capacity =
            |a: &FlashArray| -> ByteSize { a.healthy().map(|d| d.config().capacity).sum() };
        let mut a = array(4);
        let full = capacity(&a);
        a.fail_device(DeviceId(0));
        assert_eq!(capacity(&a), full.saturating_sub(ByteSize::from_mib(8)));
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_array_panics() {
        let _ = FlashArray::new(0, small_config(), SimClock::new());
    }

    #[test]
    fn idleness_tracks_the_busiest_device() {
        let mut a = array(2);
        assert!(a.is_idle_at(a.clock().now()));
        let now = a.clock().now();
        let done = a
            .device_mut(DeviceId(1))
            .write_chunk(
                ChunkHandle::new(1),
                StoredChunk::synthetic(ByteSize::from_kib(64)),
                now,
            )
            .unwrap();
        // The batch has not been completed: device 1 is busy until `done`.
        assert!(!a.is_idle_at(now));
        assert!(a.is_idle_at(done));
    }

    #[test]
    fn clock_is_monotonic_through_mixed_ops() {
        let mut a = array(2);
        let mut last = a.clock().now();
        for i in 0..10u64 {
            a.write_chunk(
                DeviceId((i % 2) as usize),
                ChunkHandle::new(i),
                StoredChunk::synthetic(ByteSize::from_kib(16)),
            )
            .unwrap();
            let now = a.clock().now();
            assert!(now >= last);
            last = now;
        }
    }
}
