//! A single simulated flash SSD.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::error::Error;
use std::fmt;

use reo_sim::rng::DetRng;
use reo_sim::{ByteSize, FastMap, ServiceModel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::chunk::{ChunkHandle, StoredChunk};

/// Index of a device within its array.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssd{}", self.0)
    }
}

/// Static configuration of one flash device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Usable capacity.
    pub capacity: ByteSize,
    /// Read service model (per-op latency + bandwidth).
    pub read: ServiceModel,
    /// Write service model.
    pub write: ServiceModel,
    /// Erase-block size used for wear estimation.
    pub erase_block: ByteSize,
    /// Program/erase cycle budget per block (1,000–5,000 for contemporary
    /// NAND per the paper's introduction).
    pub pe_cycle_limit: u32,
}

impl DeviceConfig {
    /// A configuration resembling the paper's 120 GB Intel 540s SATA SSDs.
    pub fn intel_540s() -> Self {
        DeviceConfig {
            capacity: ByteSize::from_gib(120),
            read: ServiceModel::new(SimDuration::from_micros(90), 520 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
            erase_block: ByteSize::from_mib(2),
            pe_cycle_limit: 3000,
        }
    }
}

/// Health state of a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceState {
    /// Servicing requests normally.
    #[default]
    Healthy,
    /// Failed: every chunk is inaccessible; commands return
    /// [`FlashError::DeviceFailed`].
    Failed,
}

/// Errors returned by device operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlashError {
    /// The device is in the [`DeviceState::Failed`] state.
    DeviceFailed(DeviceId),
    /// The handle does not name a chunk on this device.
    UnknownChunk(ChunkHandle),
    /// The chunk exists but its contents were lost in a failure.
    Corrupted(ChunkHandle),
    /// The device has no room for the chunk.
    DeviceFull {
        /// Device that rejected the write.
        device: DeviceId,
        /// Bytes requested.
        requested: ByteSize,
        /// Bytes available.
        available: ByteSize,
    },
    /// A transient media hiccup: the read timed out without losing data.
    /// Unlike [`FlashError::Corrupted`] the chunk is fine — retrying
    /// after a short backoff is expected to succeed.
    TransientTimeout {
        /// Device that timed out.
        device: DeviceId,
        /// The chunk whose read timed out.
        handle: ChunkHandle,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::DeviceFailed(d) => write!(f, "device {d} has failed"),
            FlashError::UnknownChunk(h) => write!(f, "no such chunk {h}"),
            FlashError::Corrupted(h) => write!(f, "chunk {h} is corrupted"),
            FlashError::DeviceFull {
                device,
                requested,
                available,
            } => write!(
                f,
                "device {device} full: requested {requested}, available {available}"
            ),
            FlashError::TransientTimeout { device, handle } => {
                write!(f, "transient timeout reading {handle} on device {device}")
            }
        }
    }
}

impl Error for FlashError {}

/// Cumulative operation counters for a device.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Completed chunk reads.
    pub reads: u64,
    /// Completed chunk writes (programs).
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
    /// Estimated erase operations (bytes written / erase-block size).
    pub erases_estimated: u64,
    /// Simulated nanoseconds operations spent waiting behind the
    /// device's `busy_until` horizon before starting (queueing delay).
    pub queued_nanos: u64,
    /// Simulated nanoseconds the device spent servicing operations.
    pub busy_nanos: u64,
    /// Transient read timeouts surfaced (each retried read that timed
    /// out again counts once per timeout).
    pub transient_timeouts: u64,
}

impl DeviceStats {
    /// Mean queueing delay per completed operation.
    pub fn mean_queue_delay(&self) -> SimDuration {
        let ops = self.reads + self.writes;
        SimDuration::from_nanos(self.queued_nanos.checked_div(ops).unwrap_or(0))
    }

    /// Mean service time per completed operation.
    pub fn mean_service_time(&self) -> SimDuration {
        let ops = self.reads + self.writes;
        SimDuration::from_nanos(self.busy_nanos.checked_div(ops).unwrap_or(0))
    }
}

/// One simulated flash SSD.
///
/// The device serializes its own operations: each read/write begins no
/// earlier than the completion of the previous operation on the same
/// device (the `busy_until` horizon), while different devices proceed in
/// parallel. The caller advances the shared [`reo_sim::SimClock`] to the
/// maximum completion time of the devices it touched.
#[derive(Clone, Debug)]
pub struct FlashDevice {
    id: DeviceId,
    config: DeviceConfig,
    state: DeviceState,
    /// The chunks no run holds: single chunks, odd lengths, real payloads.
    chunks: FastMap<ChunkHandle, ChunkSlot>,
    /// Consecutively numbered size-only chunks of one length and one state,
    /// one entry per run: strictly ascending by `first`, disjoint from each
    /// other and from `chunks`. Handles only grow, so a store pushes at the
    /// tail; a removed run stays behind as a tombstone (`count == 0`, never
    /// inside a live run) until [`FlashDevice::compact_runs`].
    runs: Vec<Run>,
    /// Tombstones among `runs`.
    dead_runs: usize,
    /// Where the last run lookup hit: a run is mostly probed chunk after
    /// chunk.
    run_hint: Cell<usize>,
    /// One past the highest handle either table has ever held: a handle
    /// from here on is in neither, without looking.
    top: u64,
    /// Chunks, in either table, that are not intact. While it is zero on a
    /// healthy device, every chunk ever placed here and not yet removed is
    /// intact, and callers can skip per-chunk probes.
    damaged: u64,
    used: ByteSize,
    busy_until: SimTime,
    stats: DeviceStats,
    transient: Option<TransientFaults>,
    slowdown: f64,
}

/// Armed transient-fault injector: each read independently times out with
/// probability `rate`, drawn from a dedicated deterministic stream.
#[derive(Clone, Debug)]
struct TransientFaults {
    rate: f64,
    rng: DetRng,
}

/// What a chunk's entry says of it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ChunkState {
    Intact,
    /// Lost in a device failure or corrupted in place; the bytes stay
    /// accounted until the owner deletes or rewrites the chunk.
    Lost,
    /// Went with the device a spare replaced, or is named by reinstalled
    /// metadata and not here: unknown to every reader, kept only so that
    /// `damaged` counts it as awaiting rebuild.
    Absent,
}

impl ChunkState {
    /// `true` for a chunk the device holds, readable or not.
    fn is_present(self) -> bool {
        self != ChunkState::Absent
    }
}

/// What a device holds of a run of consecutively numbered chunks, as one
/// answer for all of them: what [`FlashDevice::share_status`] finds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ShareStatus {
    /// Every one is present and intact.
    Intact,
    /// Nothing readable here: every one was lost in a failure, corrupted
    /// in place or went with a device this one replaced, or the device
    /// itself has failed.
    Unreadable,
    /// No one entry answers for them all: ask chunk by chunk.
    Mixed,
}

/// `count` size-only chunks of `len` bytes each, handles `first ..`, all in
/// one `state`: one entry where `chunks` would hold `count`.
#[derive(Clone, Copy, Debug)]
struct Run {
    first: u64,
    count: u64,
    len: ByteSize,
    state: ChunkState,
}

impl Run {
    fn end(&self) -> u64 {
        self.first + self.count
    }

    fn holds(&self, handle: u64) -> bool {
        handle.wrapping_sub(self.first) < self.count
    }

    /// Bytes of the device's capacity each chunk of the run holds.
    fn occupied(&self) -> ByteSize {
        match self.state {
            ChunkState::Absent => ByteSize::ZERO,
            ChunkState::Intact | ChunkState::Lost => self.len,
        }
    }
}

#[derive(Clone, Debug)]
enum ChunkSlot {
    Intact(StoredChunk),
    /// The chunk's bytes were lost in a device failure; length retained
    /// for accounting until the owner deletes or rewrites it.
    Lost(ByteSize),
    /// The chunk lived on the device a spare replaced. To every caller the
    /// handle is unknown, exactly as if the entry were gone; it is kept
    /// (until its owner rewrites or removes it) only so that `damaged`
    /// stays an exact count of chunks that need a rebuild.
    Absent,
}

impl ChunkSlot {
    /// Bytes of the device's capacity the entry holds.
    fn occupied(&self) -> ByteSize {
        match self {
            ChunkSlot::Intact(chunk) => chunk.len(),
            ChunkSlot::Lost(len) => *len,
            ChunkSlot::Absent => ByteSize::ZERO,
        }
    }

    fn state(&self) -> ChunkState {
        match self {
            ChunkSlot::Intact(_) => ChunkState::Intact,
            ChunkSlot::Lost(_) => ChunkState::Lost,
            ChunkSlot::Absent => ChunkState::Absent,
        }
    }
}

impl FlashDevice {
    /// Creates a healthy, empty device.
    pub fn new(id: DeviceId, config: DeviceConfig) -> Self {
        FlashDevice {
            id,
            config,
            state: DeviceState::Healthy,
            chunks: FastMap::default(),
            runs: Vec::new(),
            dead_runs: 0,
            run_hint: Cell::new(0),
            top: 0,
            damaged: 0,
            used: ByteSize::ZERO,
            busy_until: SimTime::ZERO,
            stats: DeviceStats::default(),
            transient: None,
            slowdown: 1.0,
        }
    }

    /// Arms per-read transient timeouts: every chunk read independently
    /// fails with [`FlashError::TransientTimeout`] at probability `rate`,
    /// drawn from `rng`. A rate of zero (or less) disarms the injector.
    ///
    /// Transient faults model recoverable media hiccups (command timeouts,
    /// retried ECC corrections), so they never touch stored bytes.
    pub fn arm_transient_faults(&mut self, rate: f64, rng: DetRng) {
        self.transient = if rate > 0.0 {
            Some(TransientFaults { rate, rng })
        } else {
            None
        };
    }

    /// `true` when a transient-fault injector is armed.
    pub fn transient_faults_armed(&self) -> bool {
        self.transient.is_some()
    }

    /// Scales every service time by `factor` — a stuck or throttled device
    /// (`factor > 1`) or nominal speed (`1.0`).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_slowdown(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slowdown factor must be positive and finite"
        );
        self.slowdown = factor;
    }

    /// The current service-time scale factor.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    fn scaled(&self, d: SimDuration) -> SimDuration {
        if self.slowdown == 1.0 {
            d
        } else {
            SimDuration::from_nanos((d.as_nanos() as f64 * self.slowdown).round() as u64)
        }
    }

    /// The device's array index.
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// The device's configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// Current health state.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// `true` when the device can service requests.
    pub fn is_healthy(&self) -> bool {
        self.state == DeviceState::Healthy
    }

    /// Bytes currently allocated on the device.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Bytes still available.
    pub fn available(&self) -> ByteSize {
        self.config.capacity.saturating_sub(self.used)
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Estimated wear as a fraction of the P/E budget consumed (0.0–1.0+).
    pub fn wear_fraction(&self) -> f64 {
        let blocks = (self.config.capacity.as_bytes() / self.config.erase_block.as_bytes()).max(1);
        let budget = blocks as f64 * self.config.pe_cycle_limit as f64;
        self.stats.erases_estimated as f64 / budget
    }

    /// The instant the device becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Marks the device failed. Every stored chunk becomes corrupted.
    pub fn fail(&mut self) {
        self.state = DeviceState::Failed;
        for slot in self.chunks.values_mut() {
            if let ChunkSlot::Intact(chunk) = slot {
                *slot = ChunkSlot::Lost(chunk.len());
            }
        }
        for run in &mut self.runs {
            if run.state == ChunkState::Intact {
                run.state = ChunkState::Lost;
            }
        }
        self.damaged = self.entry_count();
        self.check_tables();
    }

    /// Chunks either table has an entry for, whatever their state.
    fn entry_count(&self) -> u64 {
        self.chunks.len() as u64 + self.runs.iter().map(|r| r.count).sum::<u64>()
    }

    /// Replaces the device with a fresh spare: healthy, empty, zero wear.
    ///
    /// The identity (array slot) is retained; contents are gone — callers
    /// are expected to run their rebuild path.
    pub fn replace_with_spare(&mut self) {
        self.state = DeviceState::Healthy;
        for slot in self.chunks.values_mut() {
            *slot = ChunkSlot::Absent;
        }
        for run in &mut self.runs {
            run.state = ChunkState::Absent;
        }
        self.damaged = self.entry_count();
        self.used = ByteSize::ZERO;
        self.stats = DeviceStats::default();
        // A fresh spare has nominal speed and no injected media faults.
        self.transient = None;
        self.slowdown = 1.0;
        // busy_until is preserved: the new device cannot retroactively have
        // been idle in the past.
        self.check_tables();
    }

    /// Index of the live run that holds `handle`.
    fn run_index(&self, handle: u64) -> Option<usize> {
        if handle >= self.top || self.runs.is_empty() {
            return None;
        }
        let hinted = self.run_hint.get();
        if self.runs.get(hinted).is_some_and(|r| r.holds(handle)) {
            return Some(hinted);
        }
        // No tombstone lies inside a live run, so the last entry starting
        // at or before the handle is the only one that can hold it.
        let at = self.runs.partition_point(|r| r.first <= handle);
        let at = at
            .checked_sub(1)
            .filter(|&at| self.runs[at].holds(handle))?;
        self.run_hint.set(at);
        Some(at)
    }

    fn run_of(&self, handle: ChunkHandle) -> Option<&Run> {
        self.run_index(handle.as_u64()).map(|at| &self.runs[at])
    }

    /// The first handle past `handle` that a live run holds.
    fn next_run_after(&self, handle: u64) -> u64 {
        let at = self.runs.partition_point(|r| r.first <= handle);
        let next = self.runs[at..].iter().find(|r| r.count > 0);
        next.map_or(u64::MAX, |r| r.first)
    }

    /// Takes chunks `lo..hi` out of run `at`, which holds them all: off
    /// either end, or out of the middle, which leaves two runs. Taking all
    /// of it leaves a tombstone. The accounting is the caller's.
    fn cut(&mut self, at: usize, lo: u64, hi: u64) {
        let run = self.runs[at];
        debug_assert!(run.first <= lo && lo < hi && hi <= run.end());
        if lo == run.first {
            self.runs[at].count = run.end() - hi;
            if hi == run.end() {
                self.dead_runs += 1;
            } else {
                self.runs[at].first = hi;
            }
        } else {
            self.runs[at].count = lo - run.first;
            if hi < run.end() {
                let rest = Run {
                    first: hi,
                    count: run.end() - hi,
                    ..run
                };
                self.runs.insert(at + 1, rest);
            }
        }
    }

    /// Enters a run over handles no live entry holds: at the tail when it
    /// starts past every entry, else in order, over the tombstones inside
    /// it.
    fn insert_run(&mut self, run: Run) {
        self.top = self.top.max(run.end());
        if self.runs.last().is_none_or(|last| last.first < run.first) {
            self.runs.push(run);
        } else {
            let lo = self.runs.partition_point(|r| r.first < run.first);
            let hi = lo + self.runs[lo..].partition_point(|r| r.first < run.end());
            debug_assert!(self.runs[lo..hi].iter().all(|r| r.count == 0));
            self.dead_runs -= hi - lo;
            self.runs.splice(lo..hi, [run]);
        }
    }

    /// Drops the tombstones once they outnumber the live runs.
    fn compact_runs(&mut self) {
        if self.dead_runs > 16 && self.dead_runs * 2 > self.runs.len() {
            self.runs.retain(|r| r.count > 0);
            self.dead_runs = 0;
        }
    }

    /// Forgets a chunk entry: its bytes are free, and it no longer awaits
    /// a rebuild.
    fn release(&mut self, state: ChunkState, occupied: ByteSize, count: u64) {
        self.used = self.used.saturating_sub(occupied * count);
        if state != ChunkState::Intact {
            self.damaged -= count;
        }
    }

    /// Removes every entry for handles `from..end`, stepping over a run in
    /// one move; what lies between runs is looked up chunk by chunk.
    fn clear(&mut self, from: u64, end: u64) {
        let (mut at, end) = (from, end.min(self.top));
        while at < end {
            at = if let Some(i) = self.run_index(at) {
                let run = self.runs[i];
                let stop = end.min(run.end());
                self.release(run.state, run.occupied(), stop - at);
                self.cut(i, at, stop);
                stop
            } else {
                let stop = end.min(self.next_run_after(at));
                for handle in (at..stop).map(ChunkHandle::new) {
                    if let Some(slot) = self.chunks.remove(&handle) {
                        self.release(slot.state(), slot.occupied(), 1);
                    }
                }
                stop
            };
        }
    }

    /// Writes a chunk, returning the completion instant.
    ///
    /// The operation starts at `max(now, busy_until)` and occupies the
    /// device until completion. Overwriting an existing handle releases the
    /// old space first.
    ///
    /// # Errors
    ///
    /// * [`FlashError::DeviceFailed`] — device is failed.
    /// * [`FlashError::DeviceFull`] — insufficient capacity.
    pub fn write_chunk(
        &mut self,
        handle: ChunkHandle,
        chunk: StoredChunk,
        now: SimTime,
    ) -> Result<SimTime, FlashError> {
        if !self.is_healthy() {
            return Err(FlashError::DeviceFailed(self.id));
        }
        let len = chunk.len();
        let (device, capacity) = (self.id, self.config.capacity);
        let fits = |effective_used: ByteSize| {
            if effective_used + len > capacity {
                return Err(FlashError::DeviceFull {
                    device,
                    requested: len,
                    available: capacity.saturating_sub(effective_used),
                });
            }
            Ok(effective_used)
        };
        let effective_used = if let Some(at) = self.run_index(handle.as_u64()) {
            let run = self.runs[at];
            let effective_used = fits(self.used.saturating_sub(run.occupied()))?;
            // Rewritten as what it is, the chunk stays in its run; as
            // anything else it becomes an entry of its own.
            let same = run.state == ChunkState::Intact && run.len == len;
            if !(same && chunk.payload().is_synthetic()) {
                if run.state != ChunkState::Intact {
                    self.damaged -= 1;
                }
                self.cut(at, handle.as_u64(), handle.as_u64() + 1);
                self.chunks.insert(handle, ChunkSlot::Intact(chunk));
            }
            effective_used
        } else {
            let entry = self.chunks.entry(handle);
            let released = match &entry {
                Entry::Occupied(e) => e.get().occupied(),
                Entry::Vacant(_) => ByteSize::ZERO,
            };
            let effective_used = fits(self.used.saturating_sub(released))?;
            match entry {
                Entry::Occupied(mut e) => {
                    if !matches!(e.insert(ChunkSlot::Intact(chunk)), ChunkSlot::Intact(_)) {
                        self.damaged -= 1;
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(ChunkSlot::Intact(chunk));
                    self.top = self.top.max(handle.as_u64() + 1);
                }
            }
            effective_used
        };
        self.used = effective_used + len;
        let done = self.charge_writes(1, len, now);
        self.check_tables();
        Ok(done)
    }

    /// Reads a chunk, returning its contents and the completion instant.
    ///
    /// # Errors
    ///
    /// * [`FlashError::DeviceFailed`] — device is failed.
    /// * [`FlashError::UnknownChunk`] — no such handle.
    /// * [`FlashError::Corrupted`] — the chunk was lost in a failure (the
    ///   handle exists because a prior incarnation of the device held it).
    pub fn read_chunk(
        &mut self,
        handle: ChunkHandle,
        now: SimTime,
    ) -> Result<(StoredChunk, SimTime), FlashError> {
        if !self.is_healthy() {
            return Err(FlashError::DeviceFailed(self.id));
        }
        let chunk = match self.run_of(handle).map(|run| (run.state, run.len)) {
            Some((ChunkState::Intact, len)) => StoredChunk::synthetic(len),
            Some((ChunkState::Lost, _)) => return Err(FlashError::Corrupted(handle)),
            Some((ChunkState::Absent, _)) => return Err(FlashError::UnknownChunk(handle)),
            None => match self.chunks.get(&handle) {
                None | Some(ChunkSlot::Absent) => return Err(FlashError::UnknownChunk(handle)),
                Some(ChunkSlot::Lost(_)) => return Err(FlashError::Corrupted(handle)),
                Some(ChunkSlot::Intact(c)) => c.clone(),
            },
        };
        if let Some(t) = &mut self.transient {
            if t.rng.chance(t.rate) {
                self.stats.transient_timeouts += 1;
                return Err(FlashError::TransientTimeout {
                    device: self.id,
                    handle,
                });
            }
        }
        self.stats.reads += 1;
        self.stats.bytes_read += chunk.len().as_bytes();
        let done = self.occupy(
            1,
            self.scaled(self.config.read.service_time(chunk.len())),
            now,
        );
        Ok((chunk, done))
    }

    /// Queues `count` operations of `each`, all issued at `now`, back to
    /// back: operation *i* starts when operation *i - 1* completes, so they
    /// wait `count` times for the device to fall idle and `0 + 1 + ... +
    /// (count - 1)` times `each` for each other. Returns the completion
    /// instant of the last; `count` is at least one.
    fn occupy(&mut self, count: u64, each: SimDuration, now: SimTime) -> SimTime {
        let start = self.busy_until.max(now);
        let done = start + each * count;
        self.stats.queued_nanos += start.saturating_since(now).as_nanos() * count
            + each.as_nanos() * (count * (count - 1) / 2);
        self.stats.busy_nanos += each.as_nanos() * count;
        self.busy_until = done;
        done
    }

    /// Checks whether a chunk is present and intact, without charging any
    /// service time (a metadata operation).
    pub fn chunk_is_intact(&self, handle: ChunkHandle) -> bool {
        self.is_healthy()
            && match self.run_of(handle) {
                Some(run) => run.state == ChunkState::Intact,
                None => matches!(self.chunks.get(&handle), Some(ChunkSlot::Intact(_))),
            }
    }

    /// `true` when the device holds `handle`, readable or not: its bytes
    /// count in [`FlashDevice::used`].
    pub fn holds_chunk(&self, handle: ChunkHandle) -> bool {
        let state = self.run_of(handle).map(|run| run.state);
        let state = state.or_else(|| self.chunks.get(&handle).map(ChunkSlot::state));
        state.is_some_and(ChunkState::is_present)
    }

    /// `true` when the device is healthy and no chunk placed on it awaits
    /// a rebuild: none was corrupted or lost in a failure, and none went
    /// with a device this one replaced. [`FlashDevice::chunk_is_intact`]
    /// then holds for every handle the owner placed here and has not
    /// removed, without looking any of them up.
    pub fn all_chunks_intact(&self) -> bool {
        self.is_healthy() && self.damaged == 0
    }

    /// What the device holds of the `count` chunks (at least one) from
    /// `first` on, in at most one lookup: a failed device answers
    /// [`ShareStatus::Unreadable`] and one that
    /// [vouches for every chunk](FlashDevice::all_chunks_intact)
    /// [`ShareStatus::Intact`] without looking; otherwise the one run entry
    /// that holds them all answers with its state, as a single chunk's own
    /// entry does for it. Chunks split over several entries are
    /// [`ShareStatus::Mixed`], whatever their states. As with
    /// [`FlashDevice::chunk_is_intact`], the caller placed the handles
    /// here; debug builds probe every one of them behind the answer.
    pub fn share_status(&self, first: ChunkHandle, count: u64) -> ShareStatus {
        let status = if !self.is_healthy() {
            ShareStatus::Unreadable
        } else if self.damaged == 0 {
            ShareStatus::Intact
        } else {
            let run = self.run_index(first.as_u64()).map(|at| self.runs[at]);
            let state = match run {
                Some(run) if run.end() - first.as_u64() >= count => Some(run.state),
                Some(_) => None,
                None if count == 1 => Some(
                    self.chunks
                        .get(&first)
                        .map_or(ChunkState::Absent, ChunkSlot::state),
                ),
                None => None,
            };
            match state {
                Some(ChunkState::Intact) => ShareStatus::Intact,
                Some(ChunkState::Lost | ChunkState::Absent) => ShareStatus::Unreadable,
                None => ShareStatus::Mixed,
            }
        };
        debug_assert!(
            (first.as_u64()..first.as_u64() + count).all(|h| {
                let h = ChunkHandle::new(h);
                match status {
                    ShareStatus::Intact => self.chunk_is_intact(h),
                    ShareStatus::Unreadable => !self.chunk_is_intact(h),
                    ShareStatus::Mixed => true,
                }
            }),
            "{} does not hold {count} chunks from {first} as {status:?}",
            self.id
        );
        status
    }

    /// `true` while a read of any chunk the owner placed here is pure
    /// arithmetic: [`FlashDevice::all_chunks_intact`] vouches for the
    /// chunk, and no armed transient fault can time the read out. Such
    /// reads of size-only chunks may be charged through
    /// [`FlashDevice::read_run`].
    pub fn serves_read_runs(&self) -> bool {
        self.all_chunks_intact() && self.transient.is_none()
    }

    /// `true` when `handle` names an intact size-only chunk of exactly
    /// `len` bytes — what [`FlashDevice::read_run`] takes on trust, and
    /// what its callers re-check in debug builds.
    pub fn holds_size_only(&self, handle: ChunkHandle, len: ByteSize) -> bool {
        self.is_healthy()
            && match self.run_of(handle) {
                Some(run) => run.state == ChunkState::Intact && run.len == len,
                None => matches!(
                    self.chunks.get(&handle),
                    Some(ChunkSlot::Intact(c)) if c.len() == len && c.payload().is_synthetic()
                ),
            }
    }

    /// Charges `count` reads of `len`-byte size-only chunks, all issued at
    /// `now`, exactly as `count` calls of [`FlashDevice::read_chunk`] would
    /// — the same counters, queueing and `busy_until` to the nanosecond —
    /// without looking any chunk up. Returns the completion instant of the
    /// last read (`now` for an empty run).
    ///
    /// The caller vouches that the chunks exist, intact and size-only: it
    /// probed them ([`FlashDevice::chunk_is_intact`]) or their share
    /// ([`FlashDevice::share_status`]), or they are chunks it placed here
    /// while [`FlashDevice::serves_read_runs`] is `true`.
    ///
    /// # Panics
    ///
    /// Panics if the device has failed or has transient faults armed: a
    /// read there can fail, and no run stands for it.
    pub fn read_run(&mut self, count: u64, len: ByteSize, now: SimTime) -> SimTime {
        assert!(
            self.is_healthy() && self.transient.is_none(),
            "{} cannot serve a read run",
            self.id
        );
        if count == 0 {
            return now;
        }
        self.stats.reads += count;
        self.stats.bytes_read += len.as_bytes() * count;
        self.occupy(count, self.scaled(self.config.read.service_time(len)), now)
    }

    /// How long this device takes to write a `len`-byte chunk: the stride
    /// callers of [`FlashDevice::rewrite_run`] take the maximum of over
    /// their devices.
    pub fn write_time(&self, len: ByteSize) -> SimDuration {
        self.scaled(self.config.write.service_time(len))
    }

    /// Charges `count` rewrites of the `len`-byte size-only chunks from
    /// handle `first` on, the *i*-th issued at `start + i * stride` — one
    /// stride apart, not all at once as [`FlashDevice::write_run`]'s are —
    /// exactly as `count` calls of [`FlashDevice::write_chunk`] would: the
    /// same counters and `busy_until` to the nanosecond, nothing queued,
    /// and no table touched, since rewriting an intact size-only chunk as
    /// what it is leaves its entry as it was. Returns the completion
    /// instant of the last rewrite (`start` for an empty run).
    ///
    /// The caller vouches that the chunks exist, intact and size-only, at
    /// that length — which holds for every chunk it placed here while
    /// [`FlashDevice::all_chunks_intact`] is `true`; debug builds look each
    /// of them up.
    ///
    /// # Panics
    ///
    /// Panics if not all of the device's chunks are intact, if it is still
    /// busy at `start`, or if it takes longer than `stride` to write one
    /// chunk (the next rewrite would queue behind it).
    pub fn rewrite_run(
        &mut self,
        first: ChunkHandle,
        count: u64,
        len: ByteSize,
        start: SimTime,
        stride: SimDuration,
    ) -> SimTime {
        assert!(
            self.all_chunks_intact(),
            "{} cannot vouch for its chunks",
            self.id
        );
        let each = self.write_time(len);
        assert!(
            self.busy_until <= start,
            "{} is busy past the run's start",
            self.id
        );
        assert!(
            each <= stride,
            "{} writes a chunk in {each}, over the stride {stride}",
            self.id
        );
        debug_assert!(
            (0..count).all(|i| self.holds_size_only(ChunkHandle::new(first.as_u64() + i), len)),
            "{} does not hold {count} chunks from {first} as {len} size-only bytes",
            self.id
        );
        if count == 0 {
            return start;
        }
        let done = start + stride * (count - 1) + each;
        self.count_writes(count, len);
        self.stats.busy_nanos += each.as_nanos() * count;
        self.busy_until = done;
        done
    }

    /// Charges `count` writes of `len`-byte chunks, all issued at `now`,
    /// in closed form, exactly as `count` calls of
    /// [`FlashDevice::write_chunk`] the device takes would — the same
    /// counters, queueing and `busy_until` to the nanosecond — and enters
    /// no chunk: the cost [`FlashDevice::write_chunk`] and
    /// [`FlashDevice::write_run`] share. Returns the completion instant of
    /// the last write (`now` for none).
    ///
    /// # Panics
    ///
    /// Panics if the device is not healthy.
    fn charge_writes(&mut self, count: u64, len: ByteSize, now: SimTime) -> SimTime {
        assert!(self.is_healthy(), "{} takes no writes", self.id);
        if count == 0 {
            return now;
        }
        self.count_writes(count, len);
        self.occupy(count, self.write_time(len), now)
    }

    /// Counts `count` writes of `len` bytes, and the erases they wear.
    fn count_writes(&mut self, count: u64, len: ByteSize) {
        self.stats.writes += count;
        self.stats.bytes_written += len.as_bytes() * count;
        self.stats.erases_estimated = self.stats.bytes_written / self.config.erase_block.as_bytes();
    }

    /// Writes a run of size-only chunks, all issued at `now` — `count`
    /// chunks of `len` bytes under the handles from `first` on, then the
    /// `tail` chunk, if any, whose handle lies outside those — exactly as
    /// one [`FlashDevice::write_chunk`] per chunk in that order would, and
    /// returns the completion instant of the last (`now` for an empty
    /// run). The writes are charged in closed form, the tail behind the
    /// whole chunks. The whole chunks
    /// become one run entry, which a tail of their length under the next
    /// handle joins; a run that starts past every handle the device has
    /// seen is entered without a lookup.
    ///
    /// The caller vouches that the device takes every chunk: its callers
    /// issue only what fits ([`FlashDevice::available`] counts room for the
    /// whole run), so no write of a run is ever refused.
    ///
    /// # Panics
    ///
    /// Panics if the device is not healthy or has no room for the run.
    pub fn write_run(
        &mut self,
        first: ChunkHandle,
        count: u64,
        len: ByteSize,
        tail: Option<(ChunkHandle, ByteSize)>,
        now: SimTime,
    ) -> SimTime {
        let first = first.as_u64();
        debug_assert!(
            tail.is_none_or(|(handle, _)| handle.as_u64().wrapping_sub(first) >= count),
            "the tail's handle lies inside the run"
        );
        let total = len * count + tail.map_or(ByteSize::ZERO, |(_, len)| len);
        assert!(
            total <= self.available(),
            "{} has no room for a run of {total}",
            self.id
        );
        let mut done = self.charge_writes(count, len, now);
        // A tail of the run's length under the next handle is its last chunk.
        let joins = count > 0 && tail == Some((ChunkHandle::new(first + count), len));
        if count > 0 {
            self.store_run(first, count + u64::from(joins), len);
        }
        if let Some((handle, tail_len)) = tail {
            done = self.charge_writes(1, tail_len, now);
            if !joins {
                self.store_run(handle.as_u64(), 1, tail_len);
            }
        }
        self.used += total;
        self.check_tables();
        done
    }

    /// Enters `count` intact size-only chunks of `len` bytes, handles
    /// `first ..`, in place of whatever those handles held, whose space
    /// they give back first (which only makes more room than
    /// [`FlashDevice::write_run`]'s check counted on). The new chunks'
    /// bytes are the caller's to charge.
    fn store_run(&mut self, first: u64, count: u64, len: ByteSize) {
        if first < self.top {
            self.clear(first, first + count);
        }
        if count == 1 {
            let chunk = ChunkSlot::Intact(StoredChunk::synthetic(len));
            self.chunks.insert(ChunkHandle::new(first), chunk);
            self.top = self.top.max(first + 1);
        } else {
            assert!(!len.is_zero(), "chunks must be non-empty");
            self.insert_run(Run {
                first,
                count,
                len,
                state: ChunkState::Intact,
            });
        }
    }

    /// Records that the owner's metadata places `handle` on this device
    /// (stripe metadata reinstalled from a journal): a handle the device
    /// has no entry for is entered as awaiting rebuild, which keeps
    /// [`FlashDevice::all_chunks_intact`] honest about it. Reads of it
    /// still report [`FlashError::UnknownChunk`].
    pub fn note_referenced(&mut self, handle: ChunkHandle) {
        self.note_referenced_run(handle, 1);
    }

    /// [`FlashDevice::note_referenced`] for the `count` handles from
    /// `first` on, stepping over a run in one move; consecutive handles
    /// with no entry become one absent run.
    pub fn note_referenced_run(&mut self, first: ChunkHandle, count: u64) {
        let (mut at, end) = (first.as_u64(), first.as_u64().saturating_add(count));
        while at < end {
            at = if let Some(i) = self.run_index(at) {
                end.min(self.runs[i].end())
            } else {
                // Up to the next run, what `chunks` does not hold either;
                // from `top` on it holds nothing.
                let stop = end.min(self.next_run_after(at));
                let mut missing = at;
                for handle in at..stop.min(self.top) {
                    if self.chunks.contains_key(&ChunkHandle::new(handle)) {
                        self.enter_absent(missing, handle - missing);
                        missing = handle + 1;
                    }
                }
                self.enter_absent(missing, stop - missing);
                stop
            };
        }
        self.check_tables();
    }

    /// Enters handles no table holds as awaiting rebuild.
    fn enter_absent(&mut self, first: u64, count: u64) {
        self.damaged += count;
        match count {
            0 => {}
            1 => {
                self.chunks
                    .insert(ChunkHandle::new(first), ChunkSlot::Absent);
                self.top = self.top.max(first + 1);
            }
            _ => self.insert_run(Run {
                first,
                count,
                len: ByteSize::ZERO,
                state: ChunkState::Absent,
            }),
        }
    }

    /// Corrupts a single chunk in place — the paper's "partial data loss"
    /// failure mode (a worn-out flash block) as opposed to a whole-device
    /// failure. The device stays healthy; reads of this chunk return
    /// [`FlashError::Corrupted`] until it is rewritten.
    ///
    /// Unknown handles are ignored.
    pub fn corrupt_chunk(&mut self, handle: ChunkHandle) {
        if let Some(at) = self.run_index(handle.as_u64()) {
            // The one chunk leaves its run; the rest of the run stays one.
            let run = self.runs[at];
            if run.state == ChunkState::Intact {
                self.cut(at, handle.as_u64(), handle.as_u64() + 1);
                self.chunks.insert(handle, ChunkSlot::Lost(run.len));
                self.damaged += 1;
            }
        } else if let Some(slot) = self.chunks.get_mut(&handle) {
            if let ChunkSlot::Intact(chunk) = slot {
                *slot = ChunkSlot::Lost(chunk.len());
                self.damaged += 1;
            }
        }
        self.check_tables();
    }

    /// Handles, sorted, of the chunks whose state `keep` accepts.
    fn handles_where(&self, keep: impl Fn(ChunkState) -> bool) -> Vec<ChunkHandle> {
        let singles = self.chunks.iter().filter(|(_, slot)| keep(slot.state()));
        let runs = self.runs.iter().filter(|run| keep(run.state));
        let mut handles: Vec<ChunkHandle> = singles
            .map(|(h, _)| *h)
            .chain(
                runs.flat_map(|run| run.first..run.end())
                    .map(ChunkHandle::new),
            )
            .collect();
        handles.sort_unstable();
        handles
    }

    /// Handles of intact chunks in sorted order — the deterministic
    /// iteration order fault injection walks.
    pub fn intact_handles(&self) -> Vec<ChunkHandle> {
        self.handles_where(|state| state == ChunkState::Intact)
    }

    /// Latent (UER-style) corruption: each intact chunk is independently
    /// lost with probability `rate`, drawing from `rng` in sorted-handle
    /// order so equal seeds corrupt equal chunks. Returns how many chunks
    /// were corrupted. The device stays healthy.
    pub fn corrupt_chunks_randomly(&mut self, rate: f64, rng: &mut DetRng) -> usize {
        let mut corrupted = 0;
        for handle in self.intact_handles() {
            if rng.chance(rate) {
                self.corrupt_chunk(handle);
                corrupted += 1;
            }
        }
        corrupted
    }

    /// Removes a chunk, releasing its space. Unknown handles are ignored
    /// (idempotent delete). No service time is charged (TRIM-like).
    pub fn remove_chunk(&mut self, handle: ChunkHandle) {
        if let Some(slot) = self.chunks.remove(&handle) {
            self.release(slot.state(), slot.occupied(), 1);
        } else {
            self.remove_run(handle, 1);
        }
    }

    /// [`FlashDevice::remove_chunk`] for the `count` handles from `first`
    /// on, stepping over a run in one move: a run the range covers goes as
    /// one entry, one it covers part of is trimmed or split around it.
    pub fn remove_run(&mut self, first: ChunkHandle, count: u64) {
        self.clear(first.as_u64(), first.as_u64().saturating_add(count));
        self.compact_runs();
        self.check_tables();
    }

    /// Number of chunks tracked (intact or lost).
    pub fn chunk_count(&self) -> usize {
        let singles = self.chunks.values().filter(|s| s.state().is_present());
        let runs = self.runs.iter().filter(|r| r.state.is_present());
        singles.count() + runs.map(|r| r.count).sum::<u64>() as usize
    }

    /// Handles of every chunk present on the device — intact or lost — in
    /// sorted order.
    pub fn chunk_handles(&self) -> Vec<ChunkHandle> {
        self.handles_where(ChunkState::is_present)
    }

    /// Every chunk present on the device — intact or lost — as sorted
    /// `(first handle, count)` ranges, one per table entry: a run is one
    /// range however many chunks it holds. Recovery subtracts what the
    /// metadata references from this list to find orphan chunks whose
    /// metadata never reached the journal.
    pub fn chunk_runs(&self) -> Vec<(ChunkHandle, u64)> {
        // The run table is kept in order, so only the singles are sorted,
        // and the two lists merged. A filter tells `collect` nothing of
        // its length: the buffer is sized once, for every single.
        let present = self.chunks.iter().filter(|(_, s)| s.state().is_present());
        let mut singles = Vec::with_capacity(self.chunks.len());
        singles.extend(present.map(|(h, _)| (*h, 1)));
        singles.sort_unstable();
        let mut singles = singles.into_iter().peekable();
        let runs = self.runs.iter();
        let runs = runs.filter(|r| r.count > 0 && r.state.is_present());
        let mut ranges = Vec::with_capacity(self.chunks.len() + self.runs.len());
        for run in runs.map(|r| (ChunkHandle::new(r.first), r.count)) {
            while let Some(single) = singles.next_if(|single| *single < run) {
                ranges.push(single);
            }
            ranges.push(run);
        }
        ranges.extend(singles);
        ranges
    }

    /// Debug builds re-derive the summaries from the entries after every
    /// mutation, while the tables are small enough for that to stay cheap
    /// (every unit and property test's are).
    fn check_tables(&self) {
        if !cfg!(debug_assertions) || self.runs.len() + self.chunks.len() > 64 {
            return;
        }
        for w in self.runs.windows(2) {
            assert!(w[0].first + w[0].count.max(1) <= w[1].first, "{w:?}");
        }
        let live = || self.runs.iter().filter(|r| r.count > 0);
        assert_eq!(self.runs.len() - live().count(), self.dead_runs);
        assert!(live().all(|r| r.end() <= self.top));
        assert!(live().all(|r| r.state == ChunkState::Absent || !r.len.is_zero()));
        for handle in self.chunks.keys() {
            assert!(handle.as_u64() < self.top);
            assert!(live().all(|r| !r.holds(handle.as_u64())), "{handle}");
        }
        let singles = || self.chunks.values();
        let damaged = singles()
            .filter(|s| s.state() != ChunkState::Intact)
            .count() as u64
            + live()
                .filter(|r| r.state != ChunkState::Intact)
                .map(|r| r.count)
                .sum::<u64>();
        assert_eq!(self.damaged, damaged);
        let used: ByteSize = singles()
            .map(ChunkSlot::occupied)
            .chain(live().map(|r| r.occupied() * r.count))
            .sum();
        assert_eq!(self.used, used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn fast_config() -> DeviceConfig {
        DeviceConfig {
            capacity: ByteSize::from_mib(1),
            read: ServiceModel::new(SimDuration::from_micros(100), 1024 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 1024 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 10,
        }
    }

    fn dev() -> FlashDevice {
        FlashDevice::new(DeviceId(0), fast_config())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = dev();
        let h = ChunkHandle::new(1);
        let data = Bytes::from_static(b"abcdef");
        let done = d
            .write_chunk(h, StoredChunk::real(data.clone()), SimTime::ZERO)
            .unwrap();
        assert!(done.as_nanos() > 0);
        let (chunk, _) = d.read_chunk(h, done).unwrap();
        assert_eq!(chunk.payload().as_bytes().unwrap(), &data);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }

    #[test]
    fn device_serializes_operations() {
        let mut d = dev();
        let h1 = ChunkHandle::new(1);
        let h2 = ChunkHandle::new(2);
        let c = StoredChunk::synthetic(ByteSize::from_kib(4));
        // Both submitted at t=0: the second must queue behind the first.
        let t1 = d.write_chunk(h1, c.clone(), SimTime::ZERO).unwrap();
        let t2 = d.write_chunk(h2, c, SimTime::ZERO).unwrap();
        assert!(t2 > t1);
        assert!(t2.saturating_since(t1) >= SimDuration::from_micros(200));
    }

    #[test]
    fn capacity_enforced() {
        let mut d = dev();
        let big = StoredChunk::synthetic(ByteSize::from_mib(1));
        d.write_chunk(ChunkHandle::new(1), big.clone(), SimTime::ZERO)
            .unwrap();
        let err = d
            .write_chunk(
                ChunkHandle::new(2),
                StoredChunk::synthetic(ByteSize::from_bytes(1)),
                SimTime::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, FlashError::DeviceFull { .. }));
        // Overwriting the same handle is fine: space is released first.
        d.write_chunk(ChunkHandle::new(1), big, SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn failure_corrupts_chunks() {
        let mut d = dev();
        let h = ChunkHandle::new(1);
        d.write_chunk(
            h,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        assert!(d.chunk_is_intact(h));
        d.fail();
        assert!(!d.is_healthy());
        assert!(!d.chunk_is_intact(h));
        assert_eq!(
            d.read_chunk(h, SimTime::ZERO).unwrap_err(),
            FlashError::DeviceFailed(DeviceId(0))
        );
    }

    #[test]
    fn spare_replacement_resets_contents_and_wear() {
        let mut d = dev();
        let h = ChunkHandle::new(1);
        d.write_chunk(
            h,
            StoredChunk::synthetic(ByteSize::from_kib(256)),
            SimTime::ZERO,
        )
        .unwrap();
        d.fail();
        d.replace_with_spare();
        assert!(d.is_healthy());
        assert_eq!(d.chunk_count(), 0);
        assert_eq!(d.used(), ByteSize::ZERO);
        assert_eq!(d.stats(), DeviceStats::default());
        // Reading the old handle now reports UnknownChunk, not Corrupted.
        assert_eq!(
            d.read_chunk(h, SimTime::ZERO).unwrap_err(),
            FlashError::UnknownChunk(h)
        );
    }

    #[test]
    fn corrupted_after_failure_and_replacement_cycle() {
        // A failed device that has NOT been replaced reports failure;
        // after an in-place "repair" (state flip) chunks read as corrupted.
        let mut d = dev();
        let h = ChunkHandle::new(9);
        d.write_chunk(
            h,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        d.fail();
        // Simulate partial recovery: device returns but data is lost.
        d.state = DeviceState::Healthy;
        assert_eq!(
            d.read_chunk(h, SimTime::ZERO).unwrap_err(),
            FlashError::Corrupted(h)
        );
        // Rewriting the chunk heals it and does not double-count space.
        let used_before = d.used();
        d.write_chunk(
            h,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(d.used(), used_before);
        assert!(d.chunk_is_intact(h));
    }

    #[test]
    fn remove_chunk_releases_space_idempotently() {
        let mut d = dev();
        let h = ChunkHandle::new(1);
        d.write_chunk(
            h,
            StoredChunk::synthetic(ByteSize::from_kib(64)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(d.used(), ByteSize::from_kib(64));
        d.remove_chunk(h);
        assert_eq!(d.used(), ByteSize::ZERO);
        d.remove_chunk(h); // no-op
        assert_eq!(d.used(), ByteSize::ZERO);
    }

    #[test]
    fn wear_accumulates_with_writes() {
        let mut d = dev();
        assert_eq!(d.wear_fraction(), 0.0);
        for i in 0..8 {
            d.write_chunk(
                ChunkHandle::new(i),
                StoredChunk::synthetic(ByteSize::from_kib(128)),
                SimTime::ZERO,
            )
            .unwrap();
        }
        // 1 MiB written / 128 KiB blocks = 8 erases; budget = 8 blocks * 10.
        assert_eq!(d.stats().erases_estimated, 8);
        assert!((d.wear_fraction() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn corrupt_chunk_is_partial_failure() {
        let mut d = dev();
        let h1 = ChunkHandle::new(1);
        let h2 = ChunkHandle::new(2);
        d.write_chunk(
            h1,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        d.write_chunk(
            h2,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        d.corrupt_chunk(h1);
        // The device stays healthy; only h1 is lost.
        assert!(d.is_healthy());
        assert!(!d.chunk_is_intact(h1));
        assert!(d.chunk_is_intact(h2));
        assert_eq!(
            d.read_chunk(h1, SimTime::ZERO).unwrap_err(),
            FlashError::Corrupted(h1)
        );
        assert!(d.read_chunk(h2, SimTime::ZERO).is_ok());
        // Space stays accounted until rewrite; rewriting heals it.
        let used = d.used();
        d.write_chunk(
            h1,
            StoredChunk::synthetic(ByteSize::from_kib(4)),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(d.used(), used);
        assert!(d.chunk_is_intact(h1));
        // Unknown handles are ignored.
        d.corrupt_chunk(ChunkHandle::new(404));
    }

    #[test]
    fn transient_faults_are_recoverable_and_deterministic() {
        let mut a = dev();
        let mut b = dev();
        let h = ChunkHandle::new(1);
        for d in [&mut a, &mut b] {
            d.write_chunk(
                h,
                StoredChunk::synthetic(ByteSize::from_kib(4)),
                SimTime::ZERO,
            )
            .unwrap();
            d.arm_transient_faults(0.5, DetRng::from_seed(7));
        }
        let mut outcomes_a = Vec::new();
        let mut outcomes_b = Vec::new();
        for _ in 0..32 {
            outcomes_a.push(a.read_chunk(h, SimTime::ZERO).is_ok());
            outcomes_b.push(b.read_chunk(h, SimTime::ZERO).is_ok());
        }
        assert_eq!(outcomes_a, outcomes_b, "same seed, same timeout pattern");
        assert!(outcomes_a.iter().any(|ok| *ok), "not every read times out");
        assert!(outcomes_a.iter().any(|ok| !ok), "some reads time out");
        // The data is never lost: the chunk stays intact throughout.
        assert!(a.chunk_is_intact(h));
        // Disarming restores reliable reads.
        a.arm_transient_faults(0.0, DetRng::from_seed(7));
        assert!(!a.transient_faults_armed());
        for _ in 0..8 {
            assert!(a.read_chunk(h, SimTime::ZERO).is_ok());
        }
    }

    #[test]
    fn slowdown_scales_service_times() {
        let mut nominal = dev();
        let mut stuck = dev();
        stuck.set_slowdown(4.0);
        let h = ChunkHandle::new(1);
        let c = StoredChunk::synthetic(ByteSize::from_kib(64));
        let t_nominal = nominal.write_chunk(h, c.clone(), SimTime::ZERO).unwrap();
        let t_stuck = stuck.write_chunk(h, c, SimTime::ZERO).unwrap();
        assert_eq!(t_stuck.as_nanos(), 4 * t_nominal.as_nanos());
        let (_, r_nominal) = nominal.read_chunk(h, t_nominal).unwrap();
        let (_, r_stuck) = stuck.read_chunk(h, t_stuck).unwrap();
        assert!(
            r_stuck.saturating_since(t_stuck).as_nanos()
                == 4 * r_nominal.saturating_since(t_nominal).as_nanos()
        );
        // A spare replacement clears the slowdown.
        stuck.fail();
        stuck.replace_with_spare();
        assert_eq!(stuck.slowdown(), 1.0);
    }

    #[test]
    fn random_corruption_walks_sorted_handles_deterministically() {
        let build = || {
            let mut d = dev();
            for i in 0..32u64 {
                d.write_chunk(
                    ChunkHandle::new(i),
                    StoredChunk::synthetic(ByteSize::from_kib(16)),
                    SimTime::ZERO,
                )
                .unwrap();
            }
            d
        };
        let mut a = build();
        let mut b = build();
        let hit_a = a.corrupt_chunks_randomly(0.25, &mut DetRng::from_seed(11));
        let hit_b = b.corrupt_chunks_randomly(0.25, &mut DetRng::from_seed(11));
        assert_eq!(hit_a, hit_b);
        assert!(hit_a > 0, "a quarter of 32 chunks should hit at least once");
        assert!(hit_a < 32, "rate 0.25 must not corrupt everything");
        for i in 0..32u64 {
            let h = ChunkHandle::new(i);
            assert_eq!(a.chunk_is_intact(h), b.chunk_is_intact(h));
        }
        // Already-lost chunks are skipped by a second pass's walk.
        let intact_before = a.intact_handles().len();
        assert_eq!(intact_before, 32 - hit_a);
    }

    /// Two devices in the same state: slowed down, one chunk already
    /// written, so the horizon is ahead of instant zero.
    fn run_twins() -> (FlashDevice, FlashDevice) {
        let mut d = dev();
        d.set_slowdown(1.7);
        d.write_chunk(
            ChunkHandle::new(0),
            StoredChunk::synthetic(ByteSize::from_kib(8)),
            SimTime::ZERO,
        )
        .unwrap();
        (d.clone(), d)
    }

    /// [`FlashDevice::chunk_runs`] as plain numbers.
    fn ranges(d: &FlashDevice) -> Vec<(u64, u64)> {
        let ranges = d.chunk_runs();
        ranges.iter().map(|(h, n)| (h.as_u64(), *n)).collect()
    }

    fn assert_same_device(a: &FlashDevice, b: &FlashDevice) {
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.busy_until(), b.busy_until());
        assert_eq!(a.used(), b.used());
        assert_eq!(a.chunk_handles(), b.chunk_handles());
        assert_eq!(a.intact_handles(), b.intact_handles());
        assert_eq!(a.all_chunks_intact(), b.all_chunks_intact());
    }

    #[test]
    fn read_run_charges_what_the_reads_one_by_one_would() {
        let (mut one_by_one, mut run) = run_twins();
        let h = ChunkHandle::new(0);
        // Behind the horizon (the reads queue) and past it (they do not).
        for now in [SimTime::ZERO, SimTime::from_nanos(10_000_000)] {
            let mut done = now;
            for _ in 0..7 {
                (_, done) = one_by_one.read_chunk(h, now).unwrap();
            }
            assert!(run.holds_size_only(h, ByteSize::from_kib(8)));
            assert_eq!(run.read_run(7, ByteSize::from_kib(8), now), done);
            assert_same_device(&one_by_one, &run);
        }
        // An empty run issues nothing: the horizon stays in the past.
        let later = SimTime::from_nanos(50_000_000);
        assert_eq!(run.read_run(0, ByteSize::from_kib(8), later), later);
        assert_same_device(&one_by_one, &run);
    }

    #[test]
    fn devices_that_cannot_vouch_for_their_chunks_serve_no_read_runs() {
        let (mut d, _) = run_twins();
        assert!(d.serves_read_runs());
        d.arm_transient_faults(0.1, DetRng::from_seed(1));
        assert!(!d.serves_read_runs());
        d.arm_transient_faults(0.0, DetRng::from_seed(1));
        d.corrupt_chunk(ChunkHandle::new(0));
        assert!(!d.serves_read_runs());
        assert!(!d.holds_size_only(ChunkHandle::new(0), ByteSize::from_kib(8)));
        d.fail();
        d.replace_with_spare();
        assert!(!d.serves_read_runs(), "the spare awaits a rebuild");
        d.remove_chunk(ChunkHandle::new(0));
        assert!(d.serves_read_runs());
    }

    #[test]
    fn write_run_is_the_writes_one_by_one() {
        let (h, kib) = (ChunkHandle::new, ByteSize::from_kib);
        // `count` chunks of `len` from `first` on, then the tail: one
        // `write_run` on the one twin, the writes it stands for on the other.
        type Run = (u64, u64, ByteSize, Option<(u64, ByteSize)>);
        let check = |twins: &mut (FlashDevice, FlashDevice), run: Run, now| {
            let (one_by_one, in_runs) = twins;
            let (first, count, len, tail) = run;
            let tail = tail.map(|(handle, len)| (h(handle), len));
            let whole = (first..first + count).map(|handle| (h(handle), len));
            let mut expected = now;
            for (handle, len) in whole.chain(tail) {
                expected = one_by_one
                    .write_chunk(handle, StoredChunk::synthetic(len), now)
                    .unwrap();
            }
            assert_eq!(in_runs.write_run(h(first), count, len, tail, now), expected);
            assert_same_device(one_by_one, in_runs);
            expected
        };
        for slowdown in [1.7, 2.5] {
            let mut twins = run_twins();
            for d in [&mut twins.0, &mut twins.1] {
                d.set_slowdown(slowdown);
            }
            let (zero, later) = (SimTime::ZERO, SimTime::from_nanos(90_000_000));
            // Fresh handles, queued behind the horizon. A short tail under
            // the next handle is an entry of its own; a tail of the run's
            // length there is the run's last chunk, and under a later
            // handle it is not.
            check(&mut twins, (10, 5, kib(16), Some((15, kib(5)))), zero);
            check(&mut twins, (20, 3, kib(16), Some((23, kib(16)))), zero);
            check(&mut twins, (30, 2, kib(16), Some((33, kib(16)))), zero);
            // Past the horizon: whole chunks only, a tail only, nothing —
            // which leaves the horizon in the past.
            check(&mut twins, (40, 2, kib(4), None), later);
            check(&mut twins, (45, 0, kib(16), Some((45, kib(5)))), later);
            let idle = SimTime::from_nanos(900_000_000);
            assert_eq!(check(&mut twins, (46, 0, kib(16), None), idle), idle);
            let singles = [(0, 1), (15, 1), (33, 1), (45, 1)];
            let mut expected = vec![(10, 5), (20, 4), (30, 2), (40, 2)];
            expected.extend(singles);
            expected.sort_unstable();
            assert_eq!(ranges(&twins.1), expected);
            // Over handles that hold a run with a corrupted chunk in it, a
            // single chunk, a removed run's tombstone and nothing: each
            // chunk gives its old space back.
            for d in [&mut twins.0, &mut twins.1] {
                d.corrupt_chunk(h(12));
                d.remove_run(h(20), 4);
                d.remove_chunk(h(31));
            }
            check(&mut twins, (9, 16, kib(16), Some((25, kib(5)))), later);
            assert_eq!(twins.1.used(), kib(314));
            assert!(twins.1.all_chunks_intact());
            // Exactly the room left is taken.
            check(&mut twins, (100, 44, kib(16), Some((144, kib(6)))), later);
            assert_eq!(twins.1.available(), ByteSize::ZERO);
        }
        // Refused: a run one byte over the room left, a tail alone with no
        // room for it, and on a failed device any run, even an empty one.
        let (mut d, _) = run_twins();
        let room = d.available();
        let refused = |d: &FlashDevice, count: u64, tail: Option<(ChunkHandle, ByteSize)>| {
            let mut d = d.clone();
            let len = kib(16);
            std::panic::catch_unwind(move || d.write_run(h(10), count, len, tail, SimTime::ZERO))
                .is_err()
        };
        let over = room - kib(16) * (room / kib(16)) + ByteSize::from_bytes(1);
        assert!(!refused(&d, room / kib(16), None));
        assert!(refused(&d, room / kib(16), Some((h(99), over))));
        assert!(refused(
            &d,
            0,
            Some((h(99), room + ByteSize::from_bytes(1)))
        ));
        d.fail();
        assert!(refused(&d, 0, None));
    }

    #[test]
    fn charge_writes_is_the_writes_one_by_one_taken_back() {
        let (h, kib) = (ChunkHandle::new, ByteSize::from_kib);
        // One twin writes chunk by chunk until the device refuses one, then
        // removes what it wrote; the other charges the writes the device
        // took, per chunk length, and enters nothing.
        let check = |twins: &mut (FlashDevice, FlashDevice), writes: &[(u64, ByteSize)], now| {
            let (one_by_one, charged) = twins;
            let before = ranges(charged);
            let mut taken = Vec::new();
            let mut refused = None;
            let mut expected = now;
            for (handle, len) in writes.iter().map(|&(handle, len)| (h(handle), len)) {
                match one_by_one.write_chunk(handle, StoredChunk::synthetic(len), now) {
                    Ok(done) => {
                        expected = done;
                        taken.push(len);
                    }
                    Err(e) => {
                        refused = Some(e);
                        break;
                    }
                }
            }
            for &(handle, _) in &writes[..taken.len()] {
                one_by_one.remove_chunk(h(handle));
            }
            let mut done = now;
            for lens in taken.chunk_by(|a, b| a == b) {
                done = charged.charge_writes(lens.len() as u64, lens[0], now);
            }
            assert_eq!(done, expected);
            assert_same_device(one_by_one, charged);
            assert_eq!(ranges(charged), before, "nothing entered");
            refused
        };
        let run = |first: u64, count: u64, len| (first..first + count).map(move |h| (h, len));
        for slowdown in [1.7, 2.5] {
            let mut twins = run_twins();
            for d in [&mut twins.0, &mut twins.1] {
                d.set_slowdown(slowdown);
                let filler = StoredChunk::synthetic(kib(1024 - 8 - 300));
                d.write_chunk(h(1 << 20), filler, SimTime::ZERO).unwrap();
            }
            let (zero, later) = (SimTime::ZERO, SimTime::from_nanos(90_000_000));
            // 300 KiB left: a run that crosses it stops at the chunk past the
            // eighteenth, behind the horizon and past it.
            let crossing: Vec<_> = run(10, 50, kib(16)).chain([(60, kib(5))]).collect();
            for now in [zero, later] {
                let refused = check(&mut twins, &crossing, now);
                let rejected = FlashError::DeviceFull {
                    device: DeviceId(0),
                    requested: kib(16),
                    available: kib(12),
                };
                assert_eq!(refused, Some(rejected));
            }
            // Whole chunks, then a short chunk that fits and one that does
            // not: a store's stripe that a later device refuses.
            let mixed: Vec<_> = run(10, 18, kib(16))
                .chain([(28, kib(9)), (29, kib(4))])
                .collect();
            assert!(matches!(
                check(&mut twins, &mixed, later),
                Some(FlashError::DeviceFull { .. })
            ));
            // A tail alone with no room for it: nothing is charged.
            let idle = SimTime::from_nanos(900_000_000);
            assert!(check(&mut twins, &[(200, kib(301))], idle).is_some());
            assert_eq!(twins.1.charge_writes(0, kib(16), idle), idle);
            assert_same_device(&twins.0, &twins.1);
        }
        // A failed device takes no writes.
        let (mut d, _) = run_twins();
        d.fail();
        assert!(
            std::panic::catch_unwind(move || d.charge_writes(1, kib(16), SimTime::ZERO)).is_err()
        );
    }

    #[test]
    fn rewrite_run_is_the_rewrites_one_by_one() {
        let (mut one_by_one, mut run) = run_twins();
        let len = ByteSize::from_kib(16);
        for d in [&mut one_by_one, &mut run] {
            d.set_slowdown(2.5);
            // Handles 10..16 are one run entry, 20 an entry of its own.
            d.write_run(ChunkHandle::new(10), 6, len, None, SimTime::ZERO);
            d.write_chunk(
                ChunkHandle::new(20),
                StoredChunk::synthetic(len),
                SimTime::ZERO,
            )
            .unwrap();
        }
        // 200 us + 16 KiB at 1 GiB/s, slowed 2.5 times.
        let each = SimDuration::from_nanos(538_145);
        assert_eq!(run.write_time(len), each);
        let stride = SimDuration::from_micros(600);
        // Inside the run entry, the single entry, the whole run entry; from
        // the instant the device falls idle and from later ones.
        for (first, count, idle_for) in [(11, 4, 0), (20, 1, 1_000), (10, 6, 77)] {
            let start = run.busy_until() + SimDuration::from_nanos(idle_for);
            let mut done = start;
            for i in 0..count {
                let chunk = StoredChunk::synthetic(len);
                done = one_by_one
                    .write_chunk(ChunkHandle::new(first + i), chunk, start + stride * i)
                    .unwrap();
            }
            assert_eq!(done, start + stride * (count - 1) + each);
            let first = ChunkHandle::new(first);
            assert_eq!(run.rewrite_run(first, count, len, start, stride), done);
            assert_same_device(&one_by_one, &run);
            assert_eq!(run.chunk_runs(), one_by_one.chunk_runs());
        }
        // Nothing waited: the horizon is where the queueing counter stopped.
        assert_eq!(run.stats().queued_nanos, one_by_one.stats().queued_nanos);
        // An empty run issues nothing.
        let idle = run.busy_until() + stride;
        let first = ChunkHandle::new(10);
        assert_eq!(run.rewrite_run(first, 0, len, idle, stride), idle);
        assert_same_device(&one_by_one, &run);

        // Refused: before the device is idle, at a stride the device cannot
        // keep, and on a device that cannot vouch for its chunks.
        let refused = |d: &FlashDevice, start, stride| {
            let mut d = d.clone();
            std::panic::catch_unwind(move || d.rewrite_run(first, 2, len, start, stride)).is_err()
        };
        assert!(!refused(&run, idle, stride));
        assert!(refused(&run, SimTime::ZERO, stride));
        assert!(refused(&run, idle, SimDuration::from_micros(500)));
        run.corrupt_chunk(ChunkHandle::new(20));
        assert!(!run.all_chunks_intact());
        assert!(refused(&run, idle, stride));
    }

    #[test]
    fn the_run_table_stays_a_small_multiple_of_the_live_runs() {
        // 10,000 multi-stripe objects come and go, a few hundred live at a
        // time, removed in no particular order: each is one entry while it
        // lives, and the tombstones it leaves are compacted away.
        let mut d = FlashDevice::new(DeviceId(0), DeviceConfig::intel_540s());
        let len = ByteSize::from_kib(64);
        let mut rng = DetRng::from_seed(3);
        let mut live: Vec<(ChunkHandle, u64)> = Vec::new();
        let mut next = 0;
        let mut largest = 0;
        for _ in 0..10_000 {
            let count = 2 + rng.below(30);
            d.write_run(ChunkHandle::new(next), count, len, None, SimTime::ZERO);
            live.push((ChunkHandle::new(next), count));
            // Stripes that put nothing on this device lie between.
            next += count + rng.below(3);
            if live.len() > 300 {
                let (first, count) = live.swap_remove(rng.below(300) as usize);
                d.remove_run(first, count);
            }
            assert!(d.runs.len() <= 2 * live.len() + 17, "{}", d.runs.len());
            largest = largest.max(d.runs.len());
            assert!(d.chunks.is_empty(), "a run is never entered per chunk");
            assert_eq!(d.chunk_runs().len(), live.len());
        }
        assert!(largest > 300, "tombstones do accumulate: {largest}");
        for (first, count) in live {
            d.remove_run(first, count);
        }
        assert!(d.runs.iter().all(|run| run.count == 0));
        assert!(d.runs.len() <= 17);
        assert_eq!((d.used(), d.chunk_count()), (ByteSize::ZERO, 0));
    }

    #[test]
    fn a_per_chunk_mutation_splits_a_run_around_that_one_chunk() {
        let len = ByteSize::from_kib(4);
        let stored = || {
            let mut d = dev();
            d.write_run(ChunkHandle::new(10), 10, len, None, SimTime::ZERO);
            assert_eq!(d.chunk_runs(), [(ChunkHandle::new(10), 10)]);
            d
        };
        let h = ChunkHandle::new;
        // Inside: the chunk becomes an entry of its own between two runs.
        let mut d = stored();
        d.corrupt_chunk(h(14));
        assert_eq!(ranges(&d), [(10, 4), (14, 1), (15, 5)]);
        assert_eq!(d.intact_handles().len(), 9);
        // Rewritten as the size-only chunk it was, it does not rejoin...
        d.write_chunk(h(14), StoredChunk::synthetic(len), SimTime::ZERO)
            .unwrap();
        assert_eq!(ranges(&d), [(10, 4), (14, 1), (15, 5)]);
        // ...and a chunk of a run rewritten as what it is never left.
        d.write_chunk(h(16), StoredChunk::synthetic(len), SimTime::ZERO)
            .unwrap();
        assert_eq!(ranges(&d), [(10, 4), (14, 1), (15, 5)]);
        assert_eq!(d.used(), len * 10);
        // At either end the run is trimmed, not split.
        let mut d = stored();
        d.remove_chunk(h(10));
        d.write_chunk(
            h(19),
            StoredChunk::real(Bytes::from_static(b"odd")),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(ranges(&d), [(11, 8), (19, 1)]);
        d.remove_chunk(h(15));
        assert_eq!(ranges(&d), [(11, 4), (16, 3), (19, 1)]);
        // A failure and a spare flip what is left run by run; rebuilding
        // part of an absent run splits it, all of it flips it back.
        d.fail();
        d.replace_with_spare();
        assert_eq!((d.chunk_runs(), d.all_chunks_intact()), (vec![], false));
        d.write_run(h(16), 2, len, None, SimTime::ZERO);
        d.write_run(h(11), 4, len, None, SimTime::ZERO);
        assert_eq!(ranges(&d), [(11, 4), (16, 2)]);
        assert!(!d.all_chunks_intact(), "18 and 19 still await a rebuild");
        d.remove_run(h(18), 2);
        assert!(d.all_chunks_intact());
    }

    #[test]
    fn unknown_chunk_read() {
        let mut d = dev();
        assert_eq!(
            d.read_chunk(ChunkHandle::new(404), SimTime::ZERO)
                .unwrap_err(),
            FlashError::UnknownChunk(ChunkHandle::new(404))
        );
    }
}
