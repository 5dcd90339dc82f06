//! Layer replay: each lower layer built standalone through its public
//! constructor at the workload's geometry and driven with the op stream
//! the workload implies (keys, sizes, classes and ops from the trace),
//! every public call timed and alloc-counted from outside.
//!
//! The envelope rule applies per call: a replay is deterministic, so
//! call *j* of a kind does identical work in every pass, and its time is
//! its fastest pass.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use reo_backend::BackendStore;
use reo_cache::{CacheConfig, CacheManager};
use reo_core::SystemConfig;
use reo_erasure::{delta, ReedSolomon};
use reo_flashsim::{ChunkHandle, DeviceId, FlashArray, StoredChunk};
use reo_journal::{Journal, JournalRecord};
use reo_osd::{ObjectClass, ObjectKey};
use reo_osd_target::{OsdTarget, TargetError};
use reo_placement::{PlacementRing, TargetId};
use reo_sim::{ByteSize, Histogram, SimClock, SimDuration};
use reo_stripe::{ObjectLayout, RedundancyScheme, StripeManager};
use reo_workload::{Operation, Request, Trace};

use crate::alloc::AllocCount;
use crate::workloads::CLUSTER_TARGETS;
use crate::GLOBAL;

/// Passes per replay.
pub const PASSES: usize = 5;

/// The kinds of public call the replays time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Op {
    /// An empty call: what timing a call costs by itself.
    Timer,
    PlacementTargetOf,
    PlacementReplicasOf,
    CacheAccess,
    CacheInsert,
    CachePickVictim,
    CacheRemove,
    CacheReclassify,
    TargetCreate,
    TargetRead,
    TargetRemove,
    TargetSetClass,
    JournalAppend,
    JournalFlush,
    JournalCheckpoint,
    StripeStore,
    StripeRead,
    StripeRemove,
    StripeDegradedRead,
    StripeOverwriteChunk,
    StripeRebuild,
    FlashReadChunk,
    FlashWriteChunk,
    FlashCompleteBatch,
    BackendRead,
    BackendWrite,
    HistogramRecord,
    ErasureEncode,
    ErasureReconstruct,
    ErasureDelta,
    /// One cluster parity serve's codec work: encode and reconstruct a
    /// 3+1 stripe of 4 KiB shards (`cluster.rs` clamps shards there).
    ErasureServe,
}

const OPS: usize = Op::ErasureServe as usize + 1;

/// Per-call minima of one kind of call.
#[derive(Clone, Debug, Default)]
struct OpTimer {
    min_ns: Vec<u64>,
    cursor: usize,
    /// Allocations of the first pass's calls.
    allocs: AllocCount,
}

/// The timers of all call kinds, over the passes of the replays.
pub struct Timers {
    ops: Vec<OpTimer>,
    first_pass: bool,
}

impl Timers {
    pub fn new() -> Self {
        Timers {
            ops: vec![OpTimer::default(); OPS],
            first_pass: true,
        }
    }

    /// Times one call of kind `op`; in a replay's first pass its
    /// allocations are counted too.
    pub fn time<R>(&mut self, op: Op, call: impl FnOnce() -> R) -> R {
        let timer = &mut self.ops[op as usize];
        if self.first_pass {
            let before = GLOBAL.count();
            let started = Instant::now();
            let result = black_box(call());
            let ns = started.elapsed().as_nanos() as u64;
            let moved = GLOBAL.count().since(before);
            timer.allocs.calls += moved.calls;
            timer.allocs.bytes += moved.bytes;
            timer.min_ns.push(ns);
            result
        } else {
            let started = Instant::now();
            let result = black_box(call());
            let ns = started.elapsed().as_nanos() as u64;
            let slot = timer
                .min_ns
                .get_mut(timer.cursor)
                .expect("a replay makes the same calls in every pass");
            *slot = (*slot).min(ns);
            timer.cursor += 1;
            result
        }
    }

    /// Runs `pass` [`PASSES`] times; the first counts allocations and
    /// fixes the call sequence the others must repeat.
    pub fn replay(&mut self, mut pass: impl FnMut(&mut Timers)) {
        let calls_before: Vec<usize> = self.ops.iter().map(|t| t.min_ns.len()).collect();
        for n in 0..PASSES {
            self.first_pass = n == 0;
            for (timer, &before) in self.ops.iter_mut().zip(&calls_before) {
                timer.cursor = before;
            }
            pass(self);
            if n > 0 {
                assert!(
                    self.ops.iter().all(|t| t.cursor == t.min_ns.len()),
                    "a replay makes the same calls in every pass"
                );
            }
        }
    }

    pub fn calls(&self, op: Op) -> usize {
        self.ops[op as usize].min_ns.len()
    }

    /// Envelope time per call in nanoseconds, less what timing a call
    /// costs; 0 when the workload implies no such call.
    pub fn ns_per_op(&self, op: Op) -> f64 {
        let raw = |op: Op| {
            let t = &self.ops[op as usize];
            t.min_ns.iter().sum::<u64>() as f64 / t.min_ns.len().max(1) as f64
        };
        if op == Op::Timer {
            raw(op)
        } else {
            (raw(op) - raw(Op::Timer)).max(0.0)
        }
    }

    /// Allocations per call (first pass); 0 when there were no calls.
    pub fn allocs_per_op(&self, op: Op) -> f64 {
        self.allocs(&[op]) / self.calls(op).max(1) as f64
    }

    /// Envelope time of all calls of the kinds `ops`, in nanoseconds.
    pub fn total_ns(&self, ops: &[Op]) -> f64 {
        ops.iter()
            .map(|&op| self.calls(op) as f64 * self.ns_per_op(op))
            .sum()
    }

    /// Allocations of all calls of the kinds `ops` (first pass).
    pub fn allocs(&self, ops: &[Op]) -> f64 {
        ops.iter()
            .map(|&op| self.ops[op as usize].allocs.calls as f64)
            .sum()
    }
}

/// What the object-path replay hands to the replays below it.
#[derive(Default)]
pub struct Implied {
    /// The stripe-layer op stream the requests implied.
    stripe_ops: Vec<StripeOp>,
    /// A checkpoint image of realistic size.
    pub checkpoint_image: Vec<u8>,
}

#[derive(Clone, Copy, Debug)]
enum StripeOp {
    Store {
        slot: usize,
        size: ByteSize,
        scheme: RedundancyScheme,
    },
    Read {
        slot: usize,
    },
    Remove {
        slot: usize,
    },
}

/// Records stripe-layer ops against stable object slots.
#[derive(Default)]
struct StripeLog {
    ops: Vec<StripeOp>,
    slot_of: HashMap<ObjectKey, usize>,
    slots: usize,
}

impl StripeLog {
    fn store(&mut self, key: ObjectKey, size: ByteSize, scheme: RedundancyScheme) {
        let slot = self.slots;
        self.slots += 1;
        self.slot_of.insert(key, slot);
        self.ops.push(StripeOp::Store { slot, size, scheme });
    }

    fn read(&mut self, key: ObjectKey) {
        if let Some(&slot) = self.slot_of.get(&key) {
            self.ops.push(StripeOp::Read { slot });
        }
    }

    fn remove(&mut self, key: ObjectKey) {
        if let Some(slot) = self.slot_of.remove(&key) {
            self.ops.push(StripeOp::Remove { slot });
        }
    }
}

fn flash_array(config: &SystemConfig, clock: &SimClock) -> FlashArray {
    FlashArray::new(config.devices, config.device, clock.clone())
}

/// The cache index, the object target (with its stripes, flash and
/// journal underneath) and the backend, wired as `CacheSystem::new`
/// wires them, and driven by the read-hit / miss-fill / write-allocate /
/// evict / reclassify / flush rules of `CacheSystem::handle` — with each
/// public call into a layer timed. The first pass also logs the
/// stripe-layer ops the target issued underneath.
struct ObjectPath<'a> {
    config: &'a SystemConfig,
    cache: CacheManager,
    target: OsdTarget,
    backend: BackendStore,
    clock: SimClock,
    log: Option<StripeLog>,
}

impl<'a> ObjectPath<'a> {
    fn new(config: &'a SystemConfig, trace: &Trace, log: bool) -> Self {
        let clock = SimClock::new();
        let stripes = StripeManager::new(flash_array(config, &clock), config.chunk_size);
        let mut target = OsdTarget::new(stripes, config.scheme.policy());
        target.attach_journal(Journal::format(config.fsync_interval));
        target
            .format()
            .expect("cache devices have room for the metadata objects");
        target.take_checkpoint();
        let cache = CacheManager::new(CacheConfig {
            capacity: config.cache_capacity,
            redundancy_reserve: config.scheme.redundancy_reserve(),
            hot_parity_overhead: CacheConfig::two_parity_overhead(config.devices),
            size_aware_hotness: config.size_aware_hotness,
        });
        let mut backend = BackendStore::new(config.backend, clock.clone());
        for o in trace.objects() {
            backend.insert(o.key, o.size, None);
        }
        ObjectPath {
            config,
            cache,
            target,
            backend,
            clock,
            log: log.then(StripeLog::default),
        }
    }

    fn scheme(&self, class: ObjectClass) -> RedundancyScheme {
        self.config.scheme.policy().scheme_for(class)
    }

    fn remove_from_target(&mut self, t: &mut Timers, key: ObjectKey) {
        let _ = t.time(Op::TargetRemove, || self.target.remove_object(key));
        if let Some(log) = &mut self.log {
            log.remove(key);
        }
    }

    fn evict(&mut self, t: &mut Timers, key: ObjectKey) {
        if let Some(size) = self
            .cache
            .entry(key)
            .filter(|e| e.is_dirty())
            .map(|e| e.size())
        {
            let _ = t.time(Op::BackendWrite, || self.backend.write(key, size, None));
        }
        t.time(Op::CacheRemove, || self.cache.remove(key));
        self.remove_from_target(t, key);
    }

    /// Creates `key` on the target, evicting LRU victims until it fits.
    fn create_with_eviction(
        &mut self,
        t: &mut Timers,
        key: ObjectKey,
        size: ByteSize,
        class: ObjectClass,
    ) -> bool {
        loop {
            match t.time(Op::TargetCreate, || {
                self.target.create_object(key, size, class, None)
            }) {
                Ok(_) => {
                    let scheme = self.scheme(class);
                    if let Some(log) = &mut self.log {
                        log.store(key, size, scheme);
                    }
                    return true;
                }
                Err(TargetError::CacheFull { .. }) => {
                    match t.time(Op::CachePickVictim, || {
                        self.cache.pick_victim(Some(key), false)
                    }) {
                        Some(victim) => self.evict(t, victim),
                        None => return false,
                    }
                }
                Err(_) => return false,
            }
        }
    }

    fn admit(&mut self, t: &mut Timers, key: ObjectKey, size: ByteSize, dirty: bool) {
        let class = self.cache.classify_admission(size, dirty, false);
        if self.create_with_eviction(t, key, size, class) {
            t.time(Op::CacheInsert, || {
                self.cache.insert(key, size, dirty, false)
            });
        } else if dirty {
            let _ = t.time(Op::BackendWrite, || self.backend.write(key, size, None));
        }
    }

    /// Ships one class change; a re-encode is a stripe read, remove and
    /// store underneath.
    fn set_class(&mut self, t: &mut Timers, key: ObjectKey, to: ObjectClass) {
        let Some(from) = self.target.class_of(key) else {
            return;
        };
        let size = self.cache.entry(key).map(|e| e.size());
        match t.time(Op::TargetSetClass, || self.target.set_class(key, to)) {
            Ok(_) => {
                let (old, new) = (self.scheme(from), self.scheme(to));
                if let (Some(log), Some(size), true) = (&mut self.log, size, old != new) {
                    log.read(key);
                    log.remove(key);
                    log.store(key, size, new);
                }
            }
            // No room for the new encoding: the target kept the old one.
            Err(TargetError::CacheFull { .. }) => {}
            Err(_) => {
                t.time(Op::CacheRemove, || self.cache.remove(key));
                self.remove_from_target(t, key);
            }
        }
    }

    fn handle(&mut self, t: &mut Timers, seen: usize, request: &Request) {
        let (key, size) = (request.key, request.size);
        let cached = self.cache.contains(key);
        match request.op {
            Operation::Read if cached => {
                let _ = t.time(Op::TargetRead, || self.target.read_object(key));
                if let Some(log) = &mut self.log {
                    log.read(key);
                }
                t.time(Op::CacheAccess, || self.cache.record_access(key));
            }
            Operation::Read => {
                let _ = t.time(Op::BackendRead, || self.backend.read(key));
                self.admit(t, key, size, false);
            }
            Operation::Write if cached => {
                self.cache.mark_dirty(key);
                t.time(Op::CacheAccess, || self.cache.record_access(key));
                self.remove_from_target(t, key);
                if !self.create_with_eviction(t, key, size, ObjectClass::Dirty) {
                    t.time(Op::CacheRemove, || self.cache.remove(key));
                    let _ = t.time(Op::BackendWrite, || self.backend.write(key, size, None));
                }
            }
            Operation::Write => self.admit(t, key, size, true),
        }
        if seen.is_multiple_of(self.config.classification_period.max(1)) {
            let changes = t.time(Op::CacheReclassify, || self.cache.refresh_classification());
            for change in changes {
                self.set_class(t, change.key, change.to);
            }
        }
        // The write-back flusher, bounded per request as in the system.
        let limit = self
            .config
            .cache_capacity
            .scale(self.config.dirty_flush_watermark.clamp(0.0, 1.0));
        for _ in 0..4 {
            if self.cache.dirty_bytes() <= limit || !self.backend.is_idle_at(self.clock.now()) {
                break;
            }
            let Some(key) = self.cache.first_dirty() else {
                break;
            };
            let size = self.cache.entry(key).expect("a dirty key is cached").size();
            let _ = t.time(Op::BackendWrite, || {
                self.backend.write_background(key, size, None)
            });
            if let Some(class) = self.cache.mark_clean(key) {
                self.set_class(t, key, class);
            }
        }
    }
}

/// Replays the object path — `cache`, `osd-target` and `backend` calls —
/// over `requests`.
pub fn object_path(
    t: &mut Timers,
    config: &SystemConfig,
    trace: &Trace,
    requests: &[Request],
) -> Implied {
    let mut implied = Implied::default();
    let mut first = true;
    t.replay(|t| {
        let mut path = ObjectPath::new(config, trace, first);
        for (i, request) in requests.iter().enumerate() {
            path.handle(t, i + 1, request);
        }
        if let Some(log) = path.log.take() {
            implied.stripe_ops = log.ops;
            implied.checkpoint_image = path.target.checkpoint_blob();
        }
        first = false;
    });
    implied
}

/// Objects the degraded-read, overwrite and rebuild calls are timed on.
const FAULT_SAMPLE: usize = 48;

/// Layout metadata blobs kept for the journal replay.
const META_SAMPLE: usize = 256;

/// Replays the `stripe` layer: the store/read/remove stream the object
/// path implied on a healthy array, then chunk overwrites, then reads
/// with device 0 failed, then rebuilds onto a spare. Returns the layout
/// metadata of the first objects stored, for the journal replay.
pub fn stripe(t: &mut Timers, config: &SystemConfig, implied: &Implied) -> Vec<Vec<u8>> {
    let mut metas = Vec::new();
    t.replay(|t| {
        let clock = SimClock::new();
        let mut stripes = StripeManager::new(flash_array(config, &clock), config.chunk_size);
        let mut layouts: Vec<Option<ObjectLayout>> = Vec::new();
        let mut owner = 0u64;
        for &op in &implied.stripe_ops {
            match op {
                StripeOp::Store { slot, size, scheme } => {
                    owner += 1;
                    let stored = t.time(Op::StripeStore, || {
                        stripes.store_object(owner, size, scheme, None)
                    });
                    layouts.resize(layouts.len().max(slot + 1), None);
                    // The target kept a few metadata objects on the same
                    // devices; without them a store here cannot be short
                    // of room, but stay safe.
                    layouts[slot] = stored.ok();
                    if let (true, Some(layout)) = (metas.len() < META_SAMPLE, &layouts[slot]) {
                        metas.extend(stripes.export_object_meta(layout));
                    }
                }
                StripeOp::Read { slot } => {
                    if let Some(layout) = layouts.get(slot).and_then(Option::as_ref) {
                        let _ = t.time(Op::StripeRead, || stripes.read_object(layout));
                    }
                }
                StripeOp::Remove { slot } => {
                    if let Some(layout) = layouts.get_mut(slot).and_then(Option::take) {
                        t.time(Op::StripeRemove, || stripes.remove_object(&layout));
                    }
                }
            }
        }
        // Objects with redundancy: an unprotected one is simply lost with
        // its device, and refusing it is not a degraded read or a rebuild.
        let protected: Vec<&ObjectLayout> = layouts
            .iter()
            .flatten()
            .filter(|layout| layout.scheme().failures_tolerated(config.devices) > 0)
            .take(FAULT_SAMPLE)
            .collect();
        for layout in &protected {
            let _ = t.time(Op::StripeOverwriteChunk, || {
                stripes.overwrite_chunk(layout, 0, None)
            });
        }
        stripes.fail_device(DeviceId(0));
        for layout in &protected {
            let _ = t.time(Op::StripeDegradedRead, || stripes.read_object(layout));
        }
        stripes.replace_device(DeviceId(0));
        for layout in &protected {
            let _ = t.time(Op::StripeRebuild, || stripes.rebuild_object(layout));
        }
    });
    metas
}

/// Replays the `flashsim` layer: whole-chunk writes and reads spread
/// over the devices, a batch completion per stripe-width of reads.
pub fn flash(t: &mut Timers, config: &SystemConfig, chunk_ios: usize) {
    let chunk = config.chunk_size;
    let per_device = (config.device.capacity.as_bytes() / chunk.as_bytes().max(1)) as usize;
    // A quarter of the calls write and the rest read them back, in
    // rounds that fit half a device.
    let round = (per_device / 2).clamp(1, 256) * config.devices;
    t.replay(|t| {
        let clock = SimClock::new();
        let mut array = flash_array(config, &clock);
        let mut done = 0;
        let mut next_handle = 0u64;
        while done < chunk_ios {
            let handles: Vec<(DeviceId, ChunkHandle)> = (0..round)
                .map(|i| {
                    next_handle += 1;
                    (DeviceId(i % config.devices), ChunkHandle::new(next_handle))
                })
                .collect();
            for &(device, handle) in &handles {
                let _ = t.time(Op::FlashWriteChunk, || {
                    array.write_chunk(device, handle, StoredChunk::synthetic(chunk))
                });
            }
            for _ in 0..3 {
                for stripe in handles.chunks(config.devices) {
                    let mut completions = Vec::with_capacity(stripe.len());
                    for &(device, handle) in stripe {
                        if let Ok((_, at)) =
                            t.time(Op::FlashReadChunk, || array.read_chunk(device, handle))
                        {
                            completions.push(at);
                        }
                    }
                    t.time(Op::FlashCompleteBatch, || array.complete_batch(completions));
                }
            }
            for &(device, handle) in &handles {
                array.device_mut(device).remove_chunk(handle);
            }
            done += 4 * round;
        }
    });
}

/// Replays the `journal` layer: appends of create records carrying
/// `metas`, an explicit flush after every second append (a dirty ack or
/// a removal forces one), and checkpoints of `image`. Returns the mean
/// encoded size of an appended record: an append's cost goes with it.
pub fn journal(
    t: &mut Timers,
    config: &SystemConfig,
    trace: &Trace,
    metas: &[Vec<u8>],
    image: &[u8],
) -> f64 {
    if metas.is_empty() {
        return 0.0;
    }
    const APPENDS: usize = 4_000;
    const CHECKPOINTS: usize = 8;
    let records: Vec<JournalRecord> = trace
        .objects()
        .iter()
        .cycle()
        .zip(metas.iter().cycle())
        .take(APPENDS)
        .map(|(o, meta)| JournalRecord::Create {
            key: o.key,
            class: ObjectClass::ColdClean,
            meta: meta.clone(),
        })
        .collect();
    let mut bytes_per_append = 0.0;
    t.replay(|t| {
        let mut journal = Journal::format(config.fsync_interval);
        for (i, record) in records.iter().enumerate() {
            t.time(Op::JournalAppend, || journal.append(record));
            if i % 2 == 1 {
                t.time(Op::JournalFlush, || journal.flush());
            }
            if (i + 1) % (APPENDS / CHECKPOINTS) == 0 {
                t.time(Op::JournalCheckpoint, || journal.checkpoint(image));
            }
        }
        bytes_per_append = journal.stats().appended_bytes as f64 / APPENDS as f64;
    });
    bytes_per_append
}

/// Replays the `backend` layer with the requests' keys and sizes.
pub fn backend(t: &mut Timers, config: &SystemConfig, trace: &Trace, requests: &[Request]) {
    t.replay(|t| {
        let clock = SimClock::new();
        let mut store = BackendStore::new(config.backend, clock);
        for o in trace.objects() {
            store.insert(o.key, o.size, None);
        }
        for (i, r) in requests.iter().enumerate() {
            match i % 4 {
                0 => {
                    let _ = t.time(Op::BackendWrite, || store.write(r.key, r.size, None));
                }
                1 => {
                    let _ = t.time(Op::BackendWrite, || {
                        store.write_background(r.key, r.size, None)
                    });
                }
                _ => {
                    let _ = t.time(Op::BackendRead, || store.read(r.key));
                }
            }
        }
    });
}

/// Replays the `placement` layer: owner and 2-replica lookups on a ring
/// of the cluster workloads' size.
pub fn placement(t: &mut Timers, config: &SystemConfig, requests: &[Request]) {
    t.replay(|t| {
        let mut ring = PlacementRing::new(config.fault_seed);
        for target in 0..CLUSTER_TARGETS {
            ring.add_target(TargetId(target));
        }
        for r in requests {
            t.time(Op::PlacementTargetOf, || ring.target_of(r.key));
            t.time(Op::PlacementReplicasOf, || ring.replicas_of(r.key, 2));
        }
    });
}

/// Replays the metrics primitive of `sim` with the requests' sizes as
/// durations, and calibrates [`Op::Timer`].
pub fn sim(t: &mut Timers, requests: &[Request]) {
    t.replay(|t| {
        let mut histogram = Histogram::new();
        for r in requests {
            t.time(Op::Timer, || ());
            let d = SimDuration::from_nanos(r.size.as_bytes());
            t.time(Op::HistogramRecord, || histogram.record(d));
        }
    });
}

/// Shards of the cluster parity policy and of the kernel measurements.
const DATA_SHARDS: usize = 3;
const PARITY_SHARDS: usize = 1;

fn shard(len: usize, seed: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31).wrapping_add(seed * 97) & 0xff) as u8)
        .collect()
}

/// What the `erasure` replay measured.
pub struct Erasure {
    pub encode_gib_s: f64,
    pub reconstruct_gib_s: f64,
    pub delta_gib_s: f64,
    pub decode_plan_hit_pct: f64,
}

/// Replays the `erasure` layer at 3+1: the kernels at 64 KiB shards, and
/// the codec work of one cluster parity serve at 4 KiB shards.
pub fn erasure(t: &mut Timers, config: &SystemConfig) -> Erasure {
    const ROUNDS: usize = 24;
    let chunk = config.chunk_size.as_bytes() as usize;
    let rs = ReedSolomon::new(DATA_SHARDS, PARITY_SHARDS).expect("3+1 is a valid geometry");
    let data: Vec<Vec<u8>> = (0..DATA_SHARDS).map(|s| shard(chunk, s)).collect();
    let small: Vec<Vec<u8>> = (0..DATA_SHARDS).map(|s| shard(4096, s)).collect();
    let new = shard(chunk, 99);
    let encoded = rs.encode(&data).expect("encode");
    let full: Vec<Option<Vec<u8>>> = data.iter().cloned().chain(encoded).map(Some).collect();
    t.replay(|t| {
        let mut parity = vec![Vec::new(); PARITY_SHARDS];
        let mut shards = full.clone();
        for _ in 0..ROUNDS {
            let _ = t.time(Op::ErasureEncode, || rs.encode_into(&data, &mut parity));
            shards.clone_from(&full);
            shards[0] = None;
            let _ = t.time(Op::ErasureReconstruct, || rs.reconstruct(&mut shards));
            let _ = t.time(Op::ErasureDelta, || {
                delta::apply_delta_update(&rs, 1, &data[1], &new, &mut parity)
            });
            t.time(Op::ErasureServe, || {
                let parity = rs.encode(&small).expect("encode");
                let mut stripe: Vec<Option<Vec<u8>>> =
                    small.iter().cloned().chain(parity).map(Some).collect();
                stripe[1] = None;
                rs.reconstruct(&mut stripe)
            })
            .expect("one loss is within 3+1");
        }
    });
    let gib_s = |op: Op, bytes: usize| {
        let ns = t.ns_per_op(op);
        bytes as f64 / (1u64 << 30) as f64 / (ns / 1e9)
    };
    let (hits, misses) = rs.decode_cache_stats();
    Erasure {
        encode_gib_s: gib_s(Op::ErasureEncode, DATA_SHARDS * chunk),
        reconstruct_gib_s: gib_s(Op::ErasureReconstruct, chunk),
        delta_gib_s: gib_s(Op::ErasureDelta, chunk),
        decode_plan_hit_pct: 100.0 * hits as f64 / (hits + misses).max(1) as f64,
    }
}
