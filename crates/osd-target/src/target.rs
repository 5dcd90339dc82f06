//! The object-storage target: the object index, its data paths, the
//! control mailbox, crash recovery and the rebuild driver.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use reo_journal::{
    CrashOutcome, Decoded, Journal, JournalError, JournalRecord, JournalStats, LayoutRecord,
};
use reo_osd::control::{ControlMessage, ControlMessageError};
use reo_osd::{ObjectClass, ObjectKey, SenseCode};
use reo_sim::{ByteSize, FastMap, Layer, SimTime, Tracer};
use reo_stripe::{
    ChunkRefs, ObjectLayout, ObjectStatus, ReadOutcome, Room, SpaceUsage, StripeError, StripeId,
    StripeManager,
};

use crate::policy::ProtectionPolicy;
use crate::recovery::{RecoveryEngine, RecoveryItem};

pub use reo_flashsim::DeviceId;

use reo_flashsim::{FaultPlan, FlashError};

/// Errors from target operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum TargetError {
    /// The key is not in the object index.
    UnknownObject(ObjectKey),
    /// CREATE of a key that already exists.
    AlreadyExists(ObjectKey),
    /// The object lost more chunks than its redundancy tolerates — the
    /// condition behind sense code 0x63.
    ObjectLost(ObjectKey),
    /// Not enough flash space — the condition behind sense code 0x64.
    CacheFull {
        /// Bytes the operation needed on the device short of room.
        requested: ByteSize,
        /// Bytes that device has free.
        available: ByteSize,
    },
    /// A lower-level stripe error.
    Stripe(StripeError),
    /// A malformed control message.
    Control(ControlMessageError),
    /// The target is warming up after a restart: journal replay has not
    /// finished, so no data can be served yet — the condition behind
    /// sense code 0x6A.
    NotReady,
    /// The metadata journal itself is unrecoverable (both superblocks
    /// damaged).
    Journal(JournalError),
    /// An internal accounting invariant was found violated — a bug in
    /// the target itself, never a caller mistake. Carries the rebuild
    /// ledger snapshot that failed to reconcile.
    Internal(crate::recovery::LedgerImbalance),
}

impl fmt::Display for TargetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TargetError::UnknownObject(k) => write!(f, "no such object {k}"),
            TargetError::AlreadyExists(k) => write!(f, "object {k} already exists"),
            TargetError::ObjectLost(k) => write!(f, "object {k} is corrupted beyond recovery"),
            TargetError::CacheFull {
                requested,
                available,
            } => write!(f, "cache full: need {requested}, have {available}"),
            TargetError::Stripe(e) => write!(f, "stripe error: {e}"),
            TargetError::Control(e) => write!(f, "control message error: {e}"),
            TargetError::NotReady => write!(f, "target warming up: journal replay in progress"),
            TargetError::Journal(e) => write!(f, "journal error: {e}"),
            TargetError::Internal(e) => write!(f, "internal invariant violated: {e}"),
        }
    }
}

impl Error for TargetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TargetError::Stripe(e) => Some(e),
            TargetError::Control(e) => Some(e),
            TargetError::Journal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ControlMessageError> for TargetError {
    fn from(e: ControlMessageError) -> Self {
        TargetError::Control(e)
    }
}

impl TargetError {
    /// The sense code (Table III) this error maps to on the wire.
    pub fn sense(&self) -> SenseCode {
        match self {
            TargetError::UnknownObject(_) | TargetError::AlreadyExists(_) => SenseCode::Failure,
            TargetError::ObjectLost(_) => SenseCode::Corrupted,
            TargetError::CacheFull { .. } => SenseCode::CacheFull,
            // A chunk-level read of corrupt media is the T10 medium-error
            // analog; whole-object loss stays on Table III's 0x63 above.
            TargetError::Stripe(StripeError::Flash(FlashError::Corrupted(_))) => {
                SenseCode::MediumError
            }
            TargetError::Stripe(_) | TargetError::Control(_) => SenseCode::Failure,
            TargetError::NotReady => SenseCode::NotReady,
            // An unrecoverable journal means the metadata root itself is
            // corrupt.
            TargetError::Journal(_) => SenseCode::Corrupted,
            // A broken internal invariant is a target malfunction: report
            // the generic failure code, never a silently wrong answer.
            TargetError::Internal(_) => SenseCode::Failure,
        }
    }
}

/// What a stripe-layer failure of an operation on `key` answers: a stripe
/// lost past its redundancy loses the object (sense 0x63), a device short
/// of room fills the cache (0x64), and anything else is the stripe error
/// itself ([`TargetError::sense`] maps the rest).
fn stripe_error(key: ObjectKey, e: StripeError) -> TargetError {
    match e {
        StripeError::ObjectLost { .. } => TargetError::ObjectLost(key),
        StripeError::Flash(FlashError::DeviceFull {
            requested,
            available,
            ..
        }) => TargetError::CacheFull {
            requested,
            available,
        },
        other => TargetError::Stripe(other),
    }
}

/// Cumulative target counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TargetStats {
    /// Objects created.
    pub creates: u64,
    /// Object reads served (intact or degraded).
    pub reads: u64,
    /// Reads that required on-the-fly reconstruction.
    pub degraded_reads: u64,
    /// Objects removed.
    pub removes: u64,
    /// Class changes that required re-encoding stripes.
    pub reencodes: u64,
    /// Objects rebuilt by the recovery engine.
    pub rebuilds: u64,
    /// Control messages decoded from the mailbox object.
    pub control_messages: u64,
    /// Degraded reads and scrub hits on corrupt chunks — the medium
    /// errors the flash surfaced.
    pub medium_errors: u64,
    /// Proactive in-place repairs (read-repair and scrub rewrites).
    pub repairs: u64,
    /// Completed full passes of the background scrubber.
    pub scrub_passes: u64,
}

/// What happened to one item popped from the recovery queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The object was rebuilt; recovery completed at the given instant.
    Rebuilt(ObjectKey, SimTime),
    /// The object needed no work (already intact, e.g. healed by a class
    /// change in the meantime) or was removed.
    Skipped(ObjectKey),
    /// The object became irrecoverable (a further failure); the caller
    /// should evict it.
    Lost(ObjectKey),
}

/// What the index keeps of one object: where its chunks are, its class,
/// how often it was read since it was stored, and the replication stamp
/// the cluster layer put on it. Plain fields, so that a create, a read
/// hit, a re-encode and a remove allocate nothing.
#[derive(Clone, Debug)]
struct ObjectRecord {
    layout: ObjectLayout,
    class: ObjectClass,
    /// Reads since the object was stored; [`OsdTarget::inventory`] hands
    /// it to the cache as `Freq` after a restart.
    access_freq: u64,
    /// The cluster layer's replication content version; `None` until
    /// stamped.
    replica_version: Option<u64>,
}

impl ObjectRecord {
    fn new(layout: ObjectLayout, class: ObjectClass) -> Self {
        ObjectRecord {
            layout,
            class,
            access_freq: 0,
            replica_version: None,
        }
    }
}

/// The object storage target (see crate docs).
#[derive(Clone, Debug)]
pub struct OsdTarget {
    stripes: StripeManager,
    policy: ProtectionPolicy,
    index: FastMap<ObjectKey, ObjectRecord>,
    recovery: RecoveryEngine,
    next_owner: u64,
    recovery_active: bool,
    stats: TargetStats,
    /// Last key the bounded scrubber examined; `None` at pass boundaries.
    scrub_cursor: Option<ObjectKey>,
    /// Optional write-ahead metadata journal. When attached, every index
    /// mutation is logged before it is acknowledged, making the target's
    /// durable state crash-recoverable.
    journal: Option<Journal>,
    /// `true` between a simulated power loss and the completion of
    /// [`OsdTarget::recover_from_journal`]: all data paths answer
    /// [`TargetError::NotReady`] (sense 0x6A).
    warming: bool,
}

/// Progress report of one bounded [`OsdTarget::scrub_step`].
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Objects whose chunk integrity was checked this step.
    pub examined: usize,
    /// Objects repaired in place (recoverable damage found).
    pub repaired: Vec<ObjectKey>,
    /// Objects found irrecoverable — the caller should evict them.
    pub lost: Vec<ObjectKey>,
    /// `true` when this step finished a full pass over the index.
    pub completed_pass: bool,
}

/// Report of one journal-driven restart recovery
/// ([`OsdTarget::recover_from_journal`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TargetRecovery {
    /// Journal records replayed on top of the checkpoint image.
    pub replayed_records: usize,
    /// Generation of the checkpoint the replay started from.
    pub checkpoint_generation: u64,
    /// `true` when the log ended in a torn (checksum-failed or truncated)
    /// tail that had to be discarded.
    pub torn_tail: bool,
    /// Bytes of torn tail discarded from the durable log.
    pub torn_bytes: usize,
    /// Orphan chunks collected — flash that was written before the crash
    /// but whose metadata never became durable.
    pub orphans_removed: usize,
    /// Objects whose metadata was restored into the index.
    pub restored_objects: usize,
    /// Restored objects found degraded and queued for class-prioritized
    /// rebuild.
    pub degraded: usize,
    /// Objects whose metadata survived but whose chunks did not (dropped
    /// from the index; the cache layer must treat them as evicted).
    pub lost: Vec<ObjectKey>,
    /// Post-recovery invariant violations ([`OsdTarget::verify_consistency`]);
    /// empty on a sound recovery.
    pub violations: Vec<String>,
}

impl OsdTarget {
    /// Creates a target over a stripe manager with the given policy.
    pub fn new(stripes: StripeManager, policy: ProtectionPolicy) -> Self {
        OsdTarget {
            stripes,
            policy,
            index: FastMap::default(),
            recovery: RecoveryEngine::new(),
            next_owner: 0,
            recovery_active: false,
            stats: TargetStats::default(),
            scrub_cursor: None,
            journal: None,
            warming: false,
        }
    }

    /// Formats the device: creates the reserved metadata objects of
    /// Table I (`exofs` layout) — the Root object, the first Partition
    /// object, and the Super Block / Device Table / Root Directory objects
    /// — all as class-0 system metadata (replicated across every device,
    /// "similar to how Linux Ext4 handles the superblocks"). Each is 4 KiB,
    /// matching "the largest one, root directory object, is only 4KB".
    ///
    /// Idempotent: already-present metadata objects are left alone.
    ///
    /// # Errors
    ///
    /// Propagates storage errors (a formatted device must have room for a
    /// few replicated 4 KiB objects).
    pub fn format(&mut self) -> Result<(), TargetError> {
        use reo_osd::{ObjectId, PartitionId};
        let metadata_keys = [
            ObjectKey::new(PartitionId::ROOT, ObjectId::ZERO),
            ObjectKey::new(PartitionId::FIRST, ObjectId::ZERO),
            ObjectKey::new(PartitionId::FIRST, ObjectId::SUPER_BLOCK),
            ObjectKey::new(PartitionId::FIRST, ObjectId::DEVICE_TABLE),
            ObjectKey::new(PartitionId::FIRST, ObjectId::ROOT_DIRECTORY),
        ];
        for key in metadata_keys {
            if self.index.contains_key(&key) {
                continue;
            }
            self.create_object(key, ByteSize::from_kib(4), ObjectClass::Metadata, None)?;
        }
        Ok(())
    }

    /// The protection policy in force.
    pub fn policy(&self) -> ProtectionPolicy {
        self.policy
    }

    /// Switches the recovery engine to FIFO (block-order) rebuilds — the
    /// ablation baseline. Call before any failure is injected; any queued
    /// items are discarded.
    pub fn set_unprioritized_recovery(&mut self) {
        self.recovery = RecoveryEngine::new_unprioritized();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> TargetStats {
        self.stats
    }

    /// Installs a shared tracer handle; target-, stripe-, and flash-layer
    /// spans are recorded through it from then on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.stripes.set_tracer(tracer);
    }

    /// The tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.stripes.tracer()
    }

    /// Immutable access to the flash array under the stripe layer (for
    /// per-device stats reporting).
    pub fn array(&self) -> &reo_flashsim::FlashArray {
        self.stripes.array()
    }

    /// Start-of-op timestamp when tracing is on (`None` when off).
    fn trace_begin(&self) -> Option<SimTime> {
        self.stripes.tracer().begin(self.clock())
    }

    /// Records a target-layer span from `started` (if tracing was on at
    /// the start of the op) to the clock's current instant.
    fn trace_end(&self, op: &'static str, started: Option<SimTime>) {
        let end = self.clock().now();
        self.stripes
            .tracer()
            .record(Layer::Target, op, started, end);
    }

    /// Guard for data-path operations while the target warms up after a
    /// restart.
    fn check_ready(&self) -> Result<(), TargetError> {
        if self.warming {
            Err(TargetError::NotReady)
        } else {
            Ok(())
        }
    }

    /// Runs `op` on the attached journal, if any, as one journal-layer
    /// span named `name`. `op` also gets the stripe layer and the index,
    /// so a record can serialize an object's layout in place.
    fn journaled(
        &mut self,
        name: &'static str,
        op: impl FnOnce(&mut Journal, &StripeManager, &FastMap<ObjectKey, ObjectRecord>),
    ) {
        let started = self.trace_begin();
        let OsdTarget {
            journal: Some(journal),
            stripes,
            index,
            ..
        } = self
        else {
            return;
        };
        op(journal, stripes, index);
        let end = self.clock().now();
        self.stripes
            .tracer()
            .record(Layer::Journal, name, started, end);
    }

    /// Appends a record to the attached journal, if any.
    fn journal_append(&mut self, record: JournalRecord) {
        self.journaled("append", |journal, _, _| {
            journal.append(&record);
        });
    }

    /// Forces staged journal records to durable media, if a journal is
    /// attached — the fsync barrier acknowledged writes wait behind.
    fn journal_flush(&mut self) {
        self.journaled("flush", |journal, _, _| journal.flush());
    }

    /// Appends a layout-carrying record for an indexed object to the
    /// attached journal, if any: the object's current stripe metadata is
    /// serialized straight into the journal's staging buffer.
    fn journal_append_layout(&mut self, head: LayoutRecord) {
        self.journaled("append", |journal, stripes, index| {
            let layout = &index[&head.key()].layout;
            journal.append_layout(head, |out| {
                stripes
                    .export_object_meta_into(layout, out)
                    .expect("indexed layouts always reference live stripes")
            });
        });
    }

    /// Number of indexed objects.
    pub fn object_count(&self) -> usize {
        self.index.len()
    }

    /// Byte accounting from the stripe layer.
    pub fn usage(&self) -> SpaceUsage {
        self.stripes.usage()
    }

    /// Whether `key` at `size` bytes fits the array in `class` now: room
    /// for what [`OsdTarget::create_object`] or [`OsdTarget::set_class`]
    /// would store ([`StripeManager::room_for`]). What `key` holds now
    /// counts as freed, as a re-encode releases it first; a class change
    /// that keeps the scheme stores nothing, and fits.
    pub fn room_for(&self, key: ObjectKey, size: ByteSize, class: ObjectClass) -> Room {
        let record = self.index.get(&key);
        if record.is_some_and(|r| !self.policy.requires_reencode(r.class, class)) {
            return Room::Fits;
        }
        let scheme = self.policy.scheme_for(class);
        self.stripes
            .room_for(size, scheme, record.map(|r| &r.layout))
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &reo_sim::SimClock {
        self.stripes.array().clock()
    }

    /// Number of devices in the array (healthy or failed).
    pub fn device_count(&self) -> usize {
        self.stripes.array().device_count()
    }

    /// Number of currently failed devices.
    pub fn failed_devices(&self) -> usize {
        self.stripes.array().failed_count()
    }

    /// Keys of every indexed object, sorted (for whole-cache teardown).
    pub fn keys(&self) -> Vec<ObjectKey> {
        let mut keys: Vec<ObjectKey> = self.index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// The class currently recorded for `key`.
    pub fn class_of(&self, key: ObjectKey) -> Option<ObjectClass> {
        self.index.get(&key).map(|r| r.class)
    }

    /// `true` if `key` is indexed.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.index.contains_key(&key)
    }

    /// Creates an object under the policy's scheme for `class`.
    ///
    /// # Errors
    ///
    /// * [`TargetError::AlreadyExists`] — duplicate CREATE.
    /// * [`TargetError::CacheFull`] — insufficient flash space (sense
    ///   0x64; the cache manager must evict and retry).
    /// * [`TargetError::Stripe`] — other storage errors.
    pub fn create_object(
        &mut self,
        key: ObjectKey,
        size: ByteSize,
        class: ObjectClass,
        payload: Option<&[u8]>,
    ) -> Result<SimTime, TargetError> {
        self.check_ready()?;
        if self.index.contains_key(&key) {
            return Err(TargetError::AlreadyExists(key));
        }
        let t0 = self.trace_begin();
        let scheme = self.policy.scheme_for(class);
        let layout = self
            .stripes
            .store_object(self.next_owner, size, scheme, payload)
            .map_err(|e| stripe_error(key, e))?;
        self.next_owner += 1;
        let done = self.stripes.array().clock().now();
        self.index.insert(key, ObjectRecord::new(layout, class));
        self.stats.creates += 1;
        // WAL ordering: the metadata record is journaled only after the
        // chunks are on flash, so a crash in between leaves orphan chunks
        // (collected by recovery's GC), never metadata without data.
        self.journal_append_layout(LayoutRecord::Create { key, class });
        // Replicated classes (system metadata and dirty data) are the
        // ones a crash must not lose: force their records durable now.
        if class.is_replicated() {
            self.journal_flush();
        }
        self.trace_end("create", t0);
        Ok(done)
    }

    /// Reads an object, reconstructing on the fly if degraded (sense 0x00
    /// path; on-demand access has the highest priority, Section IV-D).
    ///
    /// # Errors
    ///
    /// * [`TargetError::UnknownObject`] — not indexed.
    /// * [`TargetError::ObjectLost`] — irrecoverable (sense 0x63).
    pub fn read_object(&mut self, key: ObjectKey) -> Result<ReadOutcome, TargetError> {
        self.check_ready()?;
        let t0 = self.trace_begin();
        let OsdTarget {
            index,
            stripes,
            stats,
            ..
        } = self;
        let record = index.get_mut(&key).ok_or(TargetError::UnknownObject(key))?;
        let outcome = stripes
            .read_object(&record.layout)
            .map_err(|e| stripe_error(key, e))?;
        stats.reads += 1;
        if outcome.degraded {
            stats.degraded_reads += 1;
            stats.medium_errors += 1;
            // Read-repair: when the damage is chunk-level corruption (no
            // device is down), rewrite the reconstructed chunks now so the
            // next read is clean. With a failed device the rebuild belongs
            // to the recovery engine, not the read path.
            if stripes.array().failed_count() == 0 && stripes.rebuild_object(&record.layout).is_ok()
            {
                stats.repairs += 1;
            }
        }
        record.access_freq += 1;
        self.trace_end("read", t0);
        Ok(outcome)
    }

    /// The replication content version stamped on `key`'s record by the
    /// cluster layer's write fan-out. `None` when the object is not
    /// indexed *or* was never stamped — an unstamped copy was admitted by
    /// the primary serving path and is authoritative by construction, so
    /// anti-entropy only compares stamped copies.
    pub fn replica_version(&self, key: ObjectKey) -> Option<u64> {
        self.index.get(&key)?.replica_version
    }

    /// Stamps the replication content version on `key`'s record — a
    /// metadata-only write (no chunk I/O, no journal record: the stamp
    /// is cluster bookkeeping that a restart re-derives from the write
    /// fan-out, so losing it over a crash is safe, never wrong).
    ///
    /// # Errors
    ///
    /// [`TargetError::UnknownObject`] — not indexed.
    pub fn stamp_replica_version(
        &mut self,
        key: ObjectKey,
        version: u64,
    ) -> Result<(), TargetError> {
        let record = self
            .index
            .get_mut(&key)
            .ok_or(TargetError::UnknownObject(key))?;
        record.replica_version = Some(version);
        Ok(())
    }

    /// Removes an object and frees its stripes.
    ///
    /// # Errors
    ///
    /// [`TargetError::UnknownObject`] — not indexed.
    pub fn remove_object(&mut self, key: ObjectKey) -> Result<(), TargetError> {
        self.check_ready()?;
        let record = self
            .index
            .remove(&key)
            .ok_or(TargetError::UnknownObject(key))?;
        // WAL ordering: the removal must be durable *before* the chunks are
        // freed, or a crash in between would replay metadata that points at
        // reclaimed flash.
        self.journal_append(JournalRecord::Remove { key });
        self.journal_flush();
        self.stripes.remove_object(&record.layout);
        self.stats.removes += 1;
        Ok(())
    }

    /// The health of an object's stripes.
    ///
    /// # Errors
    ///
    /// [`TargetError::UnknownObject`] — not indexed.
    pub fn object_status(&self, key: ObjectKey) -> Result<ObjectStatus, TargetError> {
        let record = self
            .index
            .get(&key)
            .ok_or(TargetError::UnknownObject(key))?;
        self.stripes
            .object_status(&record.layout)
            .map_err(TargetError::Stripe)
    }

    /// Applies a class change (the decoded `#SETID#` message).
    ///
    /// If the policy maps the new class to a different redundancy scheme,
    /// the object is re-encoded ([`StripeManager::reencode_object`]): if
    /// every device has room for its share of the new encoding, the
    /// object is read (degraded reads allowed), removed, and stored again
    /// under the new scheme — charging realistic I/O time. Otherwise only
    /// the label changes.
    ///
    /// # Errors
    ///
    /// Each leaves the object as it was — record, class, layout, journal,
    /// counters:
    ///
    /// * [`TargetError::UnknownObject`] — not indexed.
    /// * [`TargetError::CacheFull`] — some device has no room for its share
    ///   of the new encoding, even with the object's chunks freed. Nothing
    ///   is read or written; a later change may retry.
    /// * [`TargetError::ObjectLost`] — the object cannot be read for
    ///   re-encoding.
    pub fn set_class(
        &mut self,
        key: ObjectKey,
        class: ObjectClass,
    ) -> Result<SimTime, TargetError> {
        self.check_ready()?;
        let t0 = self.trace_begin();
        let record = self
            .index
            .get_mut(&key)
            .ok_or(TargetError::UnknownObject(key))?;

        if !self.policy.requires_reencode(record.class, class) {
            record.class = class;
            self.journal_append_layout(LayoutRecord::SetClass { key, class });
            if class.is_replicated() {
                self.journal_flush();
            }
            return Ok(self.stripes.array().clock().now());
        }

        let scheme = self.policy.scheme_for(class);
        let layout = self
            .stripes
            .reencode_object(&record.layout, scheme, self.next_owner)
            .map_err(|e| stripe_error(key, e))?;
        self.next_owner += 1;
        let done = self.stripes.array().clock().now();
        self.index.insert(key, ObjectRecord::new(layout, class));
        // Journaled after the new chunks are stored (see create_object's
        // ordering note) and flushed unconditionally: the old chunks were
        // freed, and a lazily-staged record would leave the durable log
        // pointing at chunks that no longer exist — a crash would then
        // replay the stale placement and count the object lost.
        self.journal_append_layout(LayoutRecord::SetClass { key, class });
        self.journal_flush();
        self.stats.reencodes += 1;
        self.trace_end("reencode", t0);
        Ok(done)
    }

    /// Overwrites a byte range of an object in place, maintaining parity
    /// per chunk with the cheapest update strategy (Section II-B). This is
    /// the OSD WRITE fast path for objects whose class (and therefore
    /// scheme) is unchanged — e.g. a re-write of already-dirty data.
    ///
    /// Contents are synthetic (timing-only); byte-exact partial updates
    /// of real payloads go through remove + create.
    ///
    /// # Errors
    ///
    /// * [`TargetError::UnknownObject`] — not indexed.
    /// * [`TargetError::ObjectLost`] — a touched stripe is degraded or
    ///   lost (overwrite needs intact stripes; recover first).
    /// * [`TargetError::Stripe`] — other storage errors, including ranges
    ///   past the end of the object.
    pub fn write_range(
        &mut self,
        key: ObjectKey,
        offset: u64,
        length: u64,
    ) -> Result<SimTime, TargetError> {
        self.check_ready()?;
        let record = self
            .index
            .get(&key)
            .ok_or(TargetError::UnknownObject(key))?;
        let layout = &record.layout;
        let size = layout.size().as_bytes();
        if length == 0 || offset.saturating_add(length) > size {
            return Err(TargetError::Stripe(StripeError::PayloadSizeMismatch {
                declared: size,
                payload: offset.saturating_add(length),
            }));
        }
        let chunk = self.stripes.chunk_size().as_bytes();
        let first = offset / chunk;
        let last = (offset + length - 1) / chunk;
        let t0 = self.trace_begin();
        let done = self
            .stripes
            .overwrite_chunks(layout, first..=last)
            .map_err(|e| stripe_error(key, e))?;
        // The dirty-write durability point: the write is acknowledged
        // (returns Ok) only after its journal record — including the
        // object's current chunk placement — has been flushed to durable
        // media, so no acknowledged dirty write can be lost to a crash.
        self.journal_append_layout(LayoutRecord::DirtyWrite {
            key,
            offset,
            length,
        });
        self.journal_flush();
        self.trace_end("write_range", t0);
        Ok(done)
    }

    /// Scrubs every indexed object: verifies chunk intactness and repairs
    /// recoverable damage in place (reading survivors and rewriting the
    /// lost chunks). Returns `(repaired, lost)` object keys; lost objects
    /// are left indexed for the caller to evict.
    ///
    /// This is the background integrity pass that catches the paper's
    /// "partial data loss" wear-out failures before a second fault makes
    /// them permanent: one [`OsdTarget::scrub_step`] from the first key
    /// with no budget.
    pub fn scrub(&mut self) -> (Vec<ObjectKey>, Vec<ObjectKey>) {
        self.scrub_cursor = None;
        let report = self.scrub_step(usize::MAX);
        (report.repaired, report.lost)
    }

    /// One bounded step of the background scrubber: verifies the chunk
    /// integrity of up to `budget` objects past the scrub cursor,
    /// repairing recoverable damage in place, then advances the cursor.
    /// Finishing the index completes a pass (counted in
    /// [`TargetStats::scrub_passes`]) and rewinds the cursor, so repeated
    /// calls scrub the cache continuously.
    pub fn scrub_step(&mut self, budget: usize) -> ScrubReport {
        let mut report = ScrubReport::default();
        if budget == 0 || self.warming {
            return report;
        }
        let t0 = self.trace_begin();
        let keys = self.keys();
        let mut idx = match self.scrub_cursor {
            // `keys` is sorted; resume just past the cursor even if that
            // exact key has been removed since the last step.
            Some(cursor) => keys.partition_point(|&k| k <= cursor),
            None => 0,
        };
        while report.examined < budget && idx < keys.len() {
            let key = keys[idx];
            idx += 1;
            report.examined += 1;
            let layout = self.index[&key].layout.clone();
            match self.stripes.object_status(&layout) {
                Ok(ObjectStatus::Intact) => {}
                Ok(ObjectStatus::Degraded) => {
                    self.stats.medium_errors += 1;
                    match self.stripes.rebuild_object(&layout) {
                        Ok(_) => {
                            self.stats.rebuilds += 1;
                            self.stats.repairs += 1;
                            report.repaired.push(key);
                        }
                        Err(_) => report.lost.push(key),
                    }
                }
                Ok(ObjectStatus::Lost) | Err(_) => report.lost.push(key),
            }
        }
        if idx >= keys.len() {
            self.scrub_cursor = None;
            self.stats.scrub_passes += 1;
            report.completed_pass = true;
        } else {
            self.scrub_cursor = Some(keys[idx - 1]);
        }
        // Persist the cursor so a restart resumes the pass where it left
        // off instead of rewinding to the first key.
        self.journal_append(JournalRecord::ScrubCursor {
            cursor: self.scrub_cursor,
        });
        self.trace_end("scrub", t0);
        report
    }

    /// Injects a partial failure: corrupts one data chunk of an object
    /// (test/failure-injection hook mirroring the paper's wear-out mode).
    ///
    /// # Errors
    ///
    /// [`TargetError::UnknownObject`] — not indexed.
    pub fn corrupt_chunk(&mut self, key: ObjectKey, chunk_index: u64) -> Result<(), TargetError> {
        let layout = self
            .index
            .get(&key)
            .ok_or(TargetError::UnknownObject(key))?
            .layout
            .clone();
        self.stripes
            .corrupt_data_chunk(&layout, chunk_index)
            .map_err(TargetError::Stripe)
    }

    /// One round of seeded latent corruption across the flash array (see
    /// [`FaultPlan::inject_latent_corruption`]). Returns the number of
    /// chunks corrupted.
    pub fn inject_latent_corruption(&mut self, plan: &mut FaultPlan, rate: f64) -> usize {
        self.stripes.inject_latent_corruption(plan, rate)
    }

    /// Arms per-read transient timeouts on every device (see
    /// [`FaultPlan::arm_transient_faults`]).
    pub fn arm_transient_faults(&mut self, plan: &mut FaultPlan, rate: f64) {
        self.stripes.arm_transient_faults(plan, rate);
    }

    /// Scales one device's service times (see [`FaultPlan::slow_device`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `factor` is not finite and
    /// positive.
    pub fn slow_device(&mut self, plan: &mut FaultPlan, id: DeviceId, factor: f64) {
        self.stripes.slow_device(plan, id, factor);
    }

    /// Chunk reads retried after a transient timeout, cumulatively.
    pub fn transient_retries(&self) -> u64 {
        self.stripes.transient_retries()
    }

    /// Per-object query (the decoded `#QUERY#` message): sense 0x00 if the
    /// object is accessible (directly or through reconstruction), 0x63 if
    /// corrupted beyond recovery, -1 if unknown.
    pub fn query(&self, key: ObjectKey) -> SenseCode {
        if self.warming {
            return SenseCode::NotReady;
        }
        match self.object_status(key) {
            Ok(ObjectStatus::Intact) | Ok(ObjectStatus::Degraded) => SenseCode::Success,
            Ok(ObjectStatus::Lost) => SenseCode::Corrupted,
            Err(_) => SenseCode::Failure,
        }
    }

    /// The recovery-phase sense code: 0x65 while a rebuild queue is being
    /// drained, 0x66 just after it drains, 0x00 otherwise.
    pub fn recovery_sense(&mut self) -> SenseCode {
        if self.recovery_active {
            if self.recovery.is_idle() {
                self.recovery_active = false;
                SenseCode::RecoveryEnds
            } else {
                SenseCode::RecoveryStarts
            }
        } else {
            SenseCode::Success
        }
    }

    /// Injects a whole-device failure (the paper's "shootdown").
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fail_device(&mut self, id: DeviceId) {
        self.stripes.fail_device(id);
        // A new failure invalidates any in-flight rebuild plan. The
        // recovery phase is aborted, not completed, so the sense protocol
        // must not report 0x66 (recovery ends) for the drained queue; a
        // fresh queue is built when the next spare is inserted.
        self.recovery.clear();
        self.recovery_active = false;
    }

    /// Inserts a spare in place of (failed) device `id` and builds the
    /// prioritized rebuild queue. Returns the keys that are irrecoverable
    /// — the cache manager should evict them (their next access is a
    /// plain miss).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn insert_spare(&mut self, id: DeviceId) -> Vec<ObjectKey> {
        self.stripes.replace_device(id);
        self.recovery.clear();
        let lost = self.queue_damaged();
        self.recovery_active = true;
        lost
    }

    /// Walks every indexed object in key order — so the rebuild queue,
    /// and with it the whole experiment, is deterministic — queues each
    /// degraded one for rebuild at its class, and returns the lost ones.
    fn queue_damaged(&mut self) -> Vec<ObjectKey> {
        let mut lost = Vec::new();
        for key in self.keys() {
            let record = &self.index[&key];
            match self.stripes.object_status(&record.layout) {
                Ok(ObjectStatus::Intact) => {}
                Ok(ObjectStatus::Degraded) => self.recovery.enqueue(key, record.class),
                Ok(ObjectStatus::Lost) | Err(_) => lost.push(key),
            }
        }
        lost
    }

    /// Rebuilds that are still pending.
    pub fn recovery_pending(&self) -> usize {
        self.recovery.pending()
    }

    /// Read-only view of the rebuild queue: per-class pending counts and
    /// the enqueued/completed/cancelled ledger, for throttling and
    /// time-to-restored-redundancy reporting.
    pub fn recovery_engine(&self) -> &RecoveryEngine {
        &self.recovery
    }

    /// Checks the rebuild queue's accounting invariants
    /// ([`RecoveryEngine::verify_ledger`]) and maps a violation onto the
    /// sense-coded [`TargetError::Internal`] — the debug-mode
    /// post-reconcile check the cache server runs so ledger drift
    /// surfaces as an honest error instead of silently corrupting
    /// time-to-restored-redundancy reporting.
    ///
    /// # Errors
    ///
    /// Returns [`TargetError::Internal`] when the ledger does not
    /// reconcile.
    pub fn verify_recovery_ledger(&self) -> Result<(), TargetError> {
        self.recovery.verify_ledger().map_err(TargetError::Internal)
    }

    /// Pops and executes one rebuild from the queue (called between
    /// on-demand requests, never ahead of them).
    ///
    /// Returns `None` when the queue is empty.
    pub fn recover_next(&mut self) -> Option<RecoveryOutcome> {
        let RecoveryItem { key, .. } = self.recovery.pop()?;
        let Some(record) = self.index.get(&key) else {
            return Some(RecoveryOutcome::Skipped(key));
        };
        let layout = record.layout.clone();
        match self.stripes.object_status(&layout) {
            Ok(ObjectStatus::Intact) => Some(RecoveryOutcome::Skipped(key)),
            Ok(ObjectStatus::Degraded) => {
                let t0 = self.trace_begin();
                match self.stripes.rebuild_object(&layout) {
                    Ok(done) => {
                        self.stats.rebuilds += 1;
                        self.trace_end("recover", t0);
                        Some(RecoveryOutcome::Rebuilt(key, done))
                    }
                    Err(_) => Some(RecoveryOutcome::Lost(key)),
                }
            }
            _ => Some(RecoveryOutcome::Lost(key)),
        }
    }

    /// Handles a synchronous write to the control mailbox object
    /// (OID 0x10004): decodes the message and applies it.
    ///
    /// # Errors
    ///
    /// [`TargetError::Control`] for malformed bytes; errors from the
    /// applied operation otherwise.
    pub fn handle_control_write(&mut self, bytes: &[u8]) -> Result<SenseCode, TargetError> {
        let msg = ControlMessage::decode(bytes)?;
        self.stats.control_messages += 1;
        match msg {
            ControlMessage::SetClass { key, class } => match self.set_class(key, class) {
                Ok(_) => Ok(SenseCode::Success),
                Err(e) => Ok(e.sense()),
            },
            ControlMessage::Query { key, .. } => Ok(self.query(key)),
        }
    }

    // ----- Crash consistency: journal attachment, checkpoints, power
    // ----- loss, and restart recovery.

    /// Attaches a write-ahead metadata journal. From this point on every
    /// index mutation is logged (and dirty writes flushed) before it is
    /// acknowledged. Attach *before* [`OsdTarget::format`] so the reserved
    /// metadata objects are journaled too.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = Some(journal);
    }

    /// The attached journal's cumulative counters, if one is attached.
    pub fn journal_stats(&self) -> Option<JournalStats> {
        self.journal.as_ref().map(|j| j.stats())
    }

    /// Bytes the attached journal occupies on its durable media
    /// (superblocks, checkpoints and log), if one is attached.
    pub fn journal_durable_bytes(&self) -> Option<usize> {
        self.journal.as_ref().map(|j| j.media().durable_bytes())
    }

    /// `true` between a simulated power loss and the completion of
    /// [`OsdTarget::recover_from_journal`] — the window in which data
    /// paths answer [`SenseCode::NotReady`].
    pub fn is_warming(&self) -> bool {
        self.warming
    }

    /// Serializes the target's durable state — object map, class labels,
    /// access frequencies, stripe allocation tables (per-object layout
    /// metadata), scrub cursor and owner counter — into a checkpoint
    /// image.
    pub fn checkpoint_blob(&self) -> Vec<u8> {
        checkpoint_image(
            &self.stripes,
            &self.index,
            self.next_owner,
            self.scrub_cursor,
        )
    }

    /// Takes a checkpoint: writes the current durable state to the
    /// journal's inactive checkpoint slot, flips the superblock, and
    /// truncates the log. No-op without an attached journal.
    pub fn take_checkpoint(&mut self) {
        let (next_owner, cursor) = (self.next_owner, self.scrub_cursor);
        self.journaled("checkpoint", |journal, stripes, index| {
            journal.checkpoint(&checkpoint_image(stripes, index, next_owner, cursor));
        });
    }

    /// Simulates a power loss: every piece of DRAM state vaporizes — the
    /// object index, recovery queue, scrub cursor, owner counter, and the
    /// stripe layer's allocation tables — while
    /// flash chunk contents and wear survive. The journal loses its staged
    /// (unflushed) records and `tear` bytes off the tail of the durable
    /// log (the torn last sector of an interrupted write). The target then
    /// answers [`SenseCode::NotReady`] until
    /// [`OsdTarget::recover_from_journal`] completes.
    ///
    /// Cumulative [`TargetStats`] are harness-side counters and survive,
    /// so experiment totals stay monotonic across a crash.
    ///
    /// Returns what the crash destroyed, or `None` if no journal is
    /// attached (the state is then unrecoverable).
    pub fn simulate_crash(&mut self, tear: usize) -> Option<CrashOutcome> {
        self.index.clear();
        self.recovery.clear();
        self.recovery_active = false;
        self.scrub_cursor = None;
        self.next_owner = 0;
        self.stripes.simulate_crash();
        self.warming = true;
        self.journal.as_mut().map(|j| j.crash(tear))
    }

    /// Deterministic restart recovery: replays the newest valid checkpoint
    /// plus the intact prefix of the journal, reinstalls every surviving
    /// object's stripe metadata, collects orphan chunks, audits chunk
    /// health unless the array vouches for every chunk (feeding degraded
    /// objects into the class-prioritized recovery queue and dropping
    /// lost ones), re-arms the scrubber from the persisted cursor, verifies
    /// metadata invariants, and finishes with a fresh checkpoint. Clears
    /// the warming state on success; on an error the journal stays attached.
    ///
    /// # Errors
    ///
    /// * [`TargetError::NotReady`] — no journal is attached.
    /// * [`TargetError::Journal`] — both superblocks are damaged; the
    ///   metadata root is unrecoverable.
    /// * [`TargetError::Stripe`] — the checkpoint image is corrupt.
    pub fn recover_from_journal(&mut self) -> Result<TargetRecovery, TargetError> {
        let journal = self.journal.as_mut().ok_or(TargetError::NotReady)?;
        let recovered = journal.recover().map_err(TargetError::Journal)?;

        // Fold checkpoint + log into the final durable state per key, then
        // install only that final state — which makes replay idempotent
        // and insensitive to intermediate layouts whose chunks are gone.
        // Every entry borrows its layout blob from the journal's media.
        let checkpoint = parse_checkpoint(recovered.checkpoint)?;
        let mut entries = checkpoint.entries;
        let mut cursor = checkpoint.cursor;
        let mut replayed_records = 0;
        for record in recovered.records {
            replayed_records += 1;
            match record {
                Decoded::Layout(LayoutRecord::Create { key, class }, meta) => {
                    entries.insert(key, ReplayEntry::new(class, 0, meta));
                }
                Decoded::Layout(LayoutRecord::SetClass { key, class }, meta) => {
                    let freq = entries.get(&key).map_or(0, |e| e.freq);
                    entries.insert(key, ReplayEntry::new(class, freq, meta));
                }
                Decoded::Layout(LayoutRecord::DirtyWrite { key, .. }, meta) => {
                    let dirty = || ReplayEntry::new(ObjectClass::Dirty, 0, meta);
                    entries.entry(key).or_insert_with(dirty).meta = meta;
                }
                Decoded::Remove(key) => {
                    entries.remove(&key);
                }
                Decoded::ScrubCursor(at) => cursor = at,
            }
        }

        // Rebuild from a clean slate so recovery is idempotent even when
        // invoked on a warm target.
        self.index.clear();
        self.recovery.clear();
        self.stripes.simulate_crash();

        let mut report = TargetRecovery {
            replayed_records,
            checkpoint_generation: recovered.generation,
            torn_tail: recovered.torn_bytes > 0,
            torn_bytes: recovered.torn_bytes,
            ..TargetRecovery::default()
        };
        let mut next_owner = checkpoint.next_owner;
        for (key, entry) in &entries {
            match self.stripes.install_object_meta(entry.meta) {
                Ok(layout) => {
                    next_owner = next_owner.max(layout.owner() + 1);
                    let mut record = ObjectRecord::new(layout, entry.class);
                    record.access_freq = entry.freq;
                    self.index.insert(*key, record);
                    report.restored_objects += 1;
                }
                // A corrupt per-object blob loses that object, not the
                // whole recovery.
                Err(_) => report.lost.push(*key),
            }
        }
        self.next_owner = next_owner;

        // Chunks written before the crash whose metadata never became
        // durable are unreachable now — collect them. The reference list
        // holds until an extent is removed, so the consistency check below
        // reads it too unless the audit drops an object.
        let mut refs = self.stripes.chunk_refs();
        report.orphans_removed = self.stripes.remove_unreferenced_chunks(&refs);

        // Audit chunk health: a crash can coincide with wear-out damage.
        // Degraded objects enter the class-prioritized rebuild queue;
        // lost ones are dropped for the cache layer to treat as evicted.
        // An array that vouches for every chunk placed on it has nothing
        // to find: installing the metadata entered every chunk it names
        // but the devices lack as awaiting rebuild, which a vouching
        // array has none of.
        if self.stripes.array().all_chunks_intact() {
            debug_assert!(self.index.values().all(|record| matches!(
                self.stripes.object_status(&record.layout),
                Ok(ObjectStatus::Intact)
            )));
        } else if self.audit_restored_objects(&mut report) {
            refs = self.stripes.chunk_refs();
        }
        self.recovery_active = report.degraded > 0;
        report.lost.sort_unstable();
        report.lost.dedup();

        // Re-arm the scrubber where the persisted cursor left off.
        self.scrub_cursor = cursor;
        self.warming = false;
        report.violations = self.consistency_violations(&refs);
        // Recovery ends in a fresh checkpoint so the next crash replays
        // from here instead of the whole history.
        self.take_checkpoint();
        Ok(report)
    }

    /// Recovery's per-object health audit: queues every degraded object
    /// for class-prioritized rebuild (on the queue recovery emptied) and
    /// drops every lost one, counting both into `report`. Returns whether
    /// it dropped an object.
    fn audit_restored_objects(&mut self, report: &mut TargetRecovery) -> bool {
        let lost = self.queue_damaged();
        report.degraded = self.recovery.pending();
        for &key in &lost {
            // Free whatever chunks survive and drop the stripes so the
            // table holds no entries for unindexed objects.
            let record = self.index.remove(&key).expect("the walk saw it indexed");
            self.stripes.remove_object(&record.layout);
        }
        report.lost.extend_from_slice(&lost);
        !lost.is_empty()
    }

    /// The restored object map in key order — `(key, class, logical size,
    /// access frequency)` — for the cache layer to rebuild its admission
    /// and eviction state from after a restart.
    pub fn inventory(&self) -> Vec<(ObjectKey, ObjectClass, ByteSize, u64)> {
        self.keys()
            .into_iter()
            .map(|key| {
                let record = &self.index[&key];
                let (class, size) = (record.class, record.layout.size());
                (key, class, size, record.access_freq)
            })
            .collect()
    }

    /// Verifies metadata invariants, returning a description of each
    /// violation (empty means consistent):
    ///
    /// * no chunk slot is claimed by more than one stripe
    ///   (double allocation);
    /// * the object-map ↔ stripe-table mapping is bidirectionally
    ///   consistent — every stripe an object references exists, no stripe
    ///   is claimed by two objects, and no stripe is orphaned.
    pub fn verify_consistency(&self) -> Vec<String> {
        self.consistency_violations(&self.stripes.chunk_refs())
    }

    /// [`OsdTarget::verify_consistency`] over `refs`, the stripe layer's
    /// reference list as its metadata stands.
    fn consistency_violations(&self, refs: &ChunkRefs) -> Vec<String> {
        let mut violations = Vec::new();
        let doubles = refs.double_allocated_chunks();
        if !doubles.is_empty() {
            violations.push(format!(
                "{} chunk slot(s) are referenced by more than one stripe",
                doubles.len()
            ));
        }
        let layouts = self
            .index
            .iter()
            .map(|(key, record)| (*key, &record.layout));
        let (referenced, claims) = stripe_claims(layouts);
        for (key, sid, prev) in claims {
            violations.push(format!("{sid} is claimed by both {prev} and {key}"));
        }
        let table = self.stripes.stripe_count() as u64;
        if referenced != table {
            violations.push(format!(
                "stripe table holds {table} stripes but object layouts reference {referenced}"
            ));
        }
        violations
    }
}

/// How many distinct stripes `layouts` reference, and every stripe more
/// than one of them claims as `(claimant, stripe, the claimant before it in
/// key order)`, sorted — the order a walk over the objects by key meets
/// them in.
///
/// An object's stripes are one span of consecutive ids, so the spans are
/// sorted, not the stripes: a stripe has two claimants only where a span
/// starts before an earlier one has ended, and only such spans are looked
/// at stripe by stripe.
fn stripe_claims<'a>(
    layouts: impl Iterator<Item = (ObjectKey, &'a ObjectLayout)>,
) -> (u64, Vec<(ObjectKey, StripeId, ObjectKey)>) {
    let mut spans: Vec<(u64, u64, ObjectKey, &ObjectLayout)> = layouts
        .map(|(key, layout)| {
            let mut stripes = layout.stripes().map(StripeId::as_u64);
            let first = stripes.next().expect("a layout has a stripe");
            (first, stripes.next_back().unwrap_or(first) + 1, key, layout)
        })
        .collect();
    spans.sort_unstable_by_key(|&(first, end, key, _)| (first, end, key));
    let (mut referenced, mut claims) = (0, Vec::new());
    let mut rest = &spans[..];
    while let Some(&(first, mut end, ..)) = rest.first() {
        // The spans that overlap this one, directly or through another.
        let mut overlapping = 1;
        while let Some(next) = rest.get(overlapping).filter(|next| next.0 < end) {
            end = end.max(next.1);
            overlapping += 1;
        }
        let (group, after) = rest.split_at(overlapping);
        rest = after;
        if overlapping == 1 {
            referenced += end - first;
            continue;
        }
        let mut claimed: Vec<(StripeId, ObjectKey)> = group
            .iter()
            .flat_map(|&(_, _, key, layout)| layout.stripes().map(move |sid| (sid, key)))
            .collect();
        claimed.sort_unstable();
        referenced += 1;
        for pair in claimed.windows(2) {
            let ((sid, prev), (next, key)) = (pair[0], pair[1]);
            if sid == next {
                claims.push((key, sid, prev));
            } else {
                referenced += 1;
            }
        }
    }
    claims.sort_unstable();
    (referenced, claims)
}

/// Version tag of the checkpoint image format. Version 1 embedded the
/// per-chunk layout blob; since version 2 the blob records how the object
/// was placed ([`StripeManager::export_object_meta`]); version 3 drops
/// the per-device wear snapshot version 2 carried and nothing read.
const CHECKPOINT_VERSION: u32 = 3;

/// The checkpoint image of an index over `stripes`: version, owner
/// counter, scrub cursor, then every object in key order with its class,
/// access frequency and layout blob.
fn checkpoint_image(
    stripes: &StripeManager,
    index: &FastMap<ObjectKey, ObjectRecord>,
    next_owner: u64,
    cursor: Option<ObjectKey>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    out.extend_from_slice(&next_owner.to_le_bytes());
    match cursor {
        Some(cursor) => {
            out.push(1);
            out.extend_from_slice(&cursor.pid().as_u64().to_le_bytes());
            out.extend_from_slice(&cursor.oid().as_u64().to_le_bytes());
        }
        None => out.push(0),
    }
    let mut keys: Vec<ObjectKey> = index.keys().copied().collect();
    keys.sort_unstable();
    out.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        let record = &index[&key];
        out.extend_from_slice(&key.pid().as_u64().to_le_bytes());
        out.extend_from_slice(&key.oid().as_u64().to_le_bytes());
        out.push(record.class.id());
        out.extend_from_slice(&record.access_freq.to_le_bytes());
        // The layout blob goes straight into the image, its length
        // patched in front once it is known.
        let len_at = out.len();
        out.extend_from_slice(&[0; 4]);
        stripes
            .export_object_meta_into(&record.layout, &mut out)
            .expect("indexed layouts always reference live stripes");
        let meta_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&meta_len.to_le_bytes());
    }
    out
}

/// Final durable state of one object after folding checkpoint + log; the
/// layout blob stays where replay found it.
struct ReplayEntry<'a> {
    class: ObjectClass,
    freq: u64,
    meta: &'a [u8],
}

impl<'a> ReplayEntry<'a> {
    fn new(class: ObjectClass, freq: u64, meta: &'a [u8]) -> Self {
        ReplayEntry { class, freq, meta }
    }
}

/// Parsed checkpoint image, borrowing its layout blobs from the image.
struct CheckpointState<'a> {
    next_owner: u64,
    cursor: Option<ObjectKey>,
    entries: BTreeMap<ObjectKey, ReplayEntry<'a>>,
}

/// Parses a checkpoint image (an empty image — a freshly formatted
/// journal — parses to the empty state).
fn parse_checkpoint(bytes: &[u8]) -> Result<CheckpointState<'_>, TargetError> {
    use reo_osd::{ObjectId, PartitionId};

    let corrupt = || TargetError::Stripe(StripeError::CorruptMetadata);
    let mut state = CheckpointState {
        next_owner: 0,
        cursor: None,
        entries: BTreeMap::new(),
    };
    if bytes.is_empty() {
        return Ok(state);
    }

    struct Cur<'a> {
        bytes: &'a [u8],
        at: usize,
    }
    impl<'a> Cur<'a> {
        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            let end = self.at.checked_add(n)?;
            let slice = self.bytes.get(self.at..end)?;
            self.at = end;
            Some(slice)
        }
        fn u8(&mut self) -> Option<u8> {
            self.take(1).map(|s| s[0])
        }
        fn u32(&mut self) -> Option<u32> {
            self.take(4)
                .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
        }
        fn u64(&mut self) -> Option<u64> {
            self.take(8)
                .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
        }
    }

    let mut cur = Cur { bytes, at: 0 };
    if cur.u32().ok_or_else(corrupt)? != CHECKPOINT_VERSION {
        return Err(corrupt());
    }
    state.next_owner = cur.u64().ok_or_else(corrupt)?;
    match cur.u8().ok_or_else(corrupt)? {
        0 => {}
        1 => {
            let pid = cur.u64().ok_or_else(corrupt)?;
            let oid = cur.u64().ok_or_else(corrupt)?;
            state.cursor = Some(ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid)));
        }
        _ => return Err(corrupt()),
    }
    let entry_count = cur.u32().ok_or_else(corrupt)?;
    for _ in 0..entry_count {
        let pid = cur.u64().ok_or_else(corrupt)?;
        let oid = cur.u64().ok_or_else(corrupt)?;
        let key = ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid));
        let class = ObjectClass::from_id(cur.u8().ok_or_else(corrupt)?).ok_or_else(corrupt)?;
        let freq = cur.u64().ok_or_else(corrupt)?;
        let meta_len = cur.u32().ok_or_else(corrupt)? as usize;
        let meta = cur.take(meta_len).ok_or_else(corrupt)?;
        state
            .entries
            .insert(key, ReplayEntry::new(class, freq, meta));
    }
    if cur.at != bytes.len() {
        return Err(corrupt());
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_flashsim::{DeviceConfig, FlashArray};
    use reo_osd::{ObjectId, PartitionId};
    use reo_sim::{ServiceModel, SimClock, SimDuration};
    use reo_stripe::RedundancyScheme;

    fn k(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    fn target_with(policy: ProtectionPolicy, capacity_mib: u64) -> OsdTarget {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mib(capacity_mib),
            read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 3000,
        };
        let array = FlashArray::new(5, cfg, SimClock::new());
        OsdTarget::new(StripeManager::new(array, ByteSize::from_kib(4)), policy)
    }

    fn reo_target() -> OsdTarget {
        target_with(ProtectionPolicy::differentiated(), 64)
    }

    #[test]
    fn create_read_remove_lifecycle() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::ColdClean, None)
            .unwrap();
        assert!(t.contains(k(1)));
        assert_eq!(t.class_of(k(1)), Some(ObjectClass::ColdClean));
        let out = t.read_object(k(1)).unwrap();
        assert!(!out.degraded);
        t.remove_object(k(1)).unwrap();
        assert!(!t.contains(k(1)));
        assert!(matches!(
            t.read_object(k(1)),
            Err(TargetError::UnknownObject(_))
        ));
    }

    #[test]
    fn duplicate_create_rejected() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
            .unwrap();
        assert!(matches!(
            t.create_object(k(1), ByteSize::from_kib(4), ObjectClass::ColdClean, None),
            Err(TargetError::AlreadyExists(_))
        ));
    }

    #[test]
    fn policy_drives_redundancy_usage() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(12), ObjectClass::ColdClean, None)
            .unwrap();
        assert_eq!(t.usage().redundancy_bytes, ByteSize::ZERO);
        t.create_object(k(2), ByteSize::from_kib(12), ObjectClass::HotClean, None)
            .unwrap();
        // 3 data chunks + 2 parity chunks.
        assert_eq!(t.usage().redundancy_bytes, ByteSize::from_kib(8));
        t.create_object(k(3), ByteSize::from_kib(4), ObjectClass::Dirty, None)
            .unwrap();
        // Replication: 4 extra copies.
        assert_eq!(
            t.usage().redundancy_bytes,
            ByteSize::from_kib(8) + ByteSize::from_kib(16)
        );
    }

    #[test]
    fn cache_full_maps_to_sense_0x64() {
        let mut t = target_with(ProtectionPolicy::differentiated(), 1);
        // 5 devices x 1 MiB; a 6 MiB cold object cannot fit.
        let err = t
            .create_object(k(1), ByteSize::from_mib(6), ObjectClass::ColdClean, None)
            .unwrap_err();
        assert!(matches!(err, TargetError::CacheFull { .. }));
        assert_eq!(err.sense(), SenseCode::CacheFull);
    }

    #[test]
    fn dirty_objects_survive_four_failures() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        for d in 0..4 {
            t.fail_device(DeviceId(d));
        }
        assert_eq!(t.query(k(1)), SenseCode::Success);
        let out = t.read_object(k(1)).unwrap();
        assert!(out.degraded);
    }

    #[test]
    fn cold_objects_die_with_one_failure() {
        let mut t = reo_target();
        // Large enough to land chunks on every device.
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::ColdClean, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        assert_eq!(t.query(k(1)), SenseCode::Corrupted);
        assert!(matches!(
            t.read_object(k(1)),
            Err(TargetError::ObjectLost(_))
        ));
    }

    #[test]
    fn hot_objects_survive_exactly_two_failures() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        t.fail_device(DeviceId(1));
        assert_eq!(t.query(k(1)), SenseCode::Success);
        t.fail_device(DeviceId(2));
        assert_eq!(t.query(k(1)), SenseCode::Corrupted);
    }

    #[test]
    fn reclassification_reencodes_and_changes_survivability() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::ColdClean, None)
            .unwrap();
        t.set_class(k(1), ObjectClass::HotClean).unwrap();
        assert_eq!(t.stats().reencodes, 1);
        assert_eq!(t.class_of(k(1)), Some(ObjectClass::HotClean));
        t.fail_device(DeviceId(3));
        assert_eq!(t.query(k(1)), SenseCode::Success, "now 2-parity protected");
    }

    #[test]
    fn label_only_class_change_is_free() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        let before = t.clock().now();
        t.set_class(k(1), ObjectClass::Metadata).unwrap();
        assert_eq!(t.clock().now(), before, "replication -> replication");
        assert_eq!(t.stats().reencodes, 0);
    }

    #[test]
    fn prioritized_recovery_order_and_outcomes() {
        let mut t = reo_target();
        // One object per class, all large enough to touch device 0.
        t.create_object(k(0), ByteSize::from_kib(40), ObjectClass::Metadata, None)
            .unwrap();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::Dirty, None)
            .unwrap();
        t.create_object(k(2), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        t.create_object(k(3), ByteSize::from_kib(40), ObjectClass::ColdClean, None)
            .unwrap();

        t.fail_device(DeviceId(0));
        let lost = t.insert_spare(DeviceId(0));
        // Only the cold (0-parity) object is irrecoverable.
        assert_eq!(lost, vec![k(3)]);
        assert_eq!(t.recovery_pending(), 3);
        assert_eq!(t.recovery_sense(), SenseCode::RecoveryStarts);

        let mut order = Vec::new();
        while let Some(outcome) = t.recover_next() {
            match outcome {
                RecoveryOutcome::Rebuilt(key, _) => order.push(key),
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(order, vec![k(0), k(1), k(2)], "class priority order");
        assert_eq!(t.recovery_sense(), SenseCode::RecoveryEnds);
        assert_eq!(t.recovery_sense(), SenseCode::Success);
        // Everything rebuilt is intact again.
        for key in order {
            assert_eq!(t.object_status(key).unwrap(), ObjectStatus::Intact);
        }
        assert_eq!(t.stats().rebuilds, 3);
    }

    #[test]
    fn recovery_skips_removed_objects() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        t.insert_spare(DeviceId(0));
        t.remove_object(k(1)).unwrap();
        assert_eq!(t.recover_next(), Some(RecoveryOutcome::Skipped(k(1))));
        assert_eq!(t.recover_next(), None);
    }

    #[test]
    fn second_failure_during_recovery_loses_hot_object() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        t.insert_spare(DeviceId(0));
        // Before the rebuild runs, two more devices die: 2-parity data
        // with chunks on three dead devices is gone.
        t.fail_device(DeviceId(1));
        t.fail_device(DeviceId(2));
        // fail_device cleared the queue; rebuild it.
        let lost = t.insert_spare(DeviceId(1));
        assert!(lost.contains(&k(1)));
    }

    #[test]
    fn control_mailbox_roundtrip() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(12), ObjectClass::ColdClean, None)
            .unwrap();
        let msg = ControlMessage::SetClass {
            key: k(1),
            class: ObjectClass::HotClean,
        };
        assert_eq!(
            t.handle_control_write(&msg.encode()).unwrap(),
            SenseCode::Success
        );
        assert_eq!(t.class_of(k(1)), Some(ObjectClass::HotClean));
        assert_eq!(t.stats().control_messages, 1);

        let query = ControlMessage::Query {
            key: k(1),
            op: reo_osd::control::QueryOp::Read,
            offset: 0,
            size: 4096,
        };
        assert_eq!(
            t.handle_control_write(&query.encode()).unwrap(),
            SenseCode::Success
        );
        assert!(matches!(
            t.handle_control_write(b"#BOGUS#xxxxxxxxxxxxxxxxx"),
            Err(TargetError::Control(_))
        ));
    }

    #[test]
    fn errors_map_to_sense_codes() {
        let mut t = reo_target();
        let missing = t.read_object(k(9)).unwrap_err();
        assert_eq!(missing.sense(), SenseCode::Failure);
        assert_eq!(t.query(k(9)), SenseCode::Failure);

        let size = ByteSize::from_kib(4);
        t.create_object(k(1), size, ObjectClass::ColdClean, None)
            .unwrap();
        let duplicate = t
            .create_object(k(1), size, ObjectClass::ColdClean, None)
            .unwrap_err();
        assert_eq!(duplicate.sense(), SenseCode::Failure);
        assert_eq!(t.query(k(1)), SenseCode::Success);
    }

    #[test]
    fn uniform_policy_baseline_dies_uniformly() {
        let mut t = target_with(ProtectionPolicy::uniform(RedundancyScheme::parity(1)), 64);
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::Dirty, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        assert_eq!(t.query(k(1)), SenseCode::Success);
        t.fail_device(DeviceId(1));
        // Even dirty data dies at two failures under uniform 1-parity.
        assert_eq!(t.query(k(1)), SenseCode::Corrupted);
    }

    #[test]
    fn a_reencode_starts_a_fresh_record_and_a_label_change_does_not() {
        let mut t = reo_target();
        let size = ByteSize::from_kib(40);
        t.create_object(k(1), size, ObjectClass::Dirty, None)
            .unwrap();
        t.read_object(k(1)).unwrap();
        let accessed = t.read_object(k(1)).unwrap().completed_at;
        t.stamp_replica_version(k(1), 7).unwrap();

        // Dirty and metadata share a scheme: only the label changes.
        let policy = t.policy();
        assert!(!policy.requires_reencode(ObjectClass::Dirty, ObjectClass::Metadata));
        t.set_class(k(1), ObjectClass::Metadata).unwrap();
        assert_eq!(t.replica_version(k(1)), Some(7));
        assert_eq!(t.inventory(), [(k(1), ObjectClass::Metadata, size, 2)]);

        // Cold data is not replicated: the object is stored anew after its
        // last access, and the record with it — never read and unstamped.
        let stored = t.set_class(k(1), ObjectClass::ColdClean).unwrap();
        assert!(stored > accessed);
        assert_eq!(t.replica_version(k(1)), None);
        assert_eq!(t.inventory(), [(k(1), ObjectClass::ColdClean, size, 0)]);
    }

    #[test]
    fn format_creates_table_i_metadata_objects() {
        use reo_osd::{ObjectId, PartitionId};
        let mut t = reo_target();
        t.format().unwrap();
        let expected = [
            ObjectKey::new(PartitionId::ROOT, ObjectId::ZERO),
            ObjectKey::new(PartitionId::FIRST, ObjectId::ZERO),
            ObjectKey::new(PartitionId::FIRST, ObjectId::SUPER_BLOCK),
            ObjectKey::new(PartitionId::FIRST, ObjectId::DEVICE_TABLE),
            ObjectKey::new(PartitionId::FIRST, ObjectId::ROOT_DIRECTORY),
        ];
        for key in expected {
            assert_eq!(t.class_of(key), Some(ObjectClass::Metadata), "{key}");
        }
        // Replicated class 0: survives four of five devices failing.
        for d in 0..4 {
            t.fail_device(DeviceId(d));
        }
        for key in expected {
            assert_eq!(t.query(key), SenseCode::Success, "{key}");
        }
        // Idempotent.
        let count = t.object_count();
        t.format().unwrap();
        assert_eq!(t.object_count(), count);
    }

    #[test]
    fn write_range_charges_time_and_validates() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        let before = t.clock().now();
        let done = t.write_range(k(1), 0, 8 * 1024).unwrap();
        assert!(done > before, "in-place write must cost device time");
        // Range past the end is rejected.
        assert!(matches!(
            t.write_range(k(1), 36 * 1024, 8 * 1024),
            Err(TargetError::Stripe(_))
        ));
        assert!(matches!(
            t.write_range(k(9), 0, 1),
            Err(TargetError::UnknownObject(_))
        ));
    }

    #[test]
    fn scrub_repairs_partial_corruption() {
        let mut t = reo_target();
        let data: Vec<u8> = (0..40_960u32).map(|i| (i % 253) as u8).collect();
        t.create_object(
            k(1),
            ByteSize::from_bytes(data.len() as u64),
            ObjectClass::HotClean,
            Some(&data),
        )
        .unwrap();
        t.corrupt_chunk(k(1), 3).unwrap();
        assert_eq!(
            t.object_status(k(1)).unwrap(),
            reo_stripe::ObjectStatus::Degraded
        );
        let (repaired, lost) = t.scrub();
        assert_eq!(repaired, vec![k(1)]);
        assert!(lost.is_empty());
        let out = t.read_object(k(1)).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn scrub_reports_unrecoverable_objects() {
        let mut t = reo_target();
        // Cold = 0-parity: one corrupted chunk is fatal.
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::ColdClean, None)
            .unwrap();
        t.corrupt_chunk(k(1), 0).unwrap();
        let (repaired, lost) = t.scrub();
        assert!(repaired.is_empty());
        assert_eq!(lost, vec![k(1)]);
    }

    #[test]
    fn dirty_write_range_overwrites_replicas() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        let writes_before: u64 = t.stats().creates;
        t.write_range(k(1), 0, 8 * 1024).unwrap();
        // Still readable after four failures: all replicas were refreshed.
        for d in 0..4 {
            t.fail_device(DeviceId(d));
        }
        assert_eq!(t.query(k(1)), SenseCode::Success);
        assert_eq!(t.stats().creates, writes_before);
        assert_eq!(t.stats().reencodes, 0, "no whole-object re-store");
    }

    #[test]
    fn real_payload_survives_reencode_and_recovery() {
        let mut t = reo_target();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        t.create_object(
            k(1),
            ByteSize::from_bytes(data.len() as u64),
            ObjectClass::ColdClean,
            Some(&data),
        )
        .unwrap();
        t.set_class(k(1), ObjectClass::HotClean).unwrap();
        t.fail_device(DeviceId(2));
        t.insert_spare(DeviceId(2));
        while t.recover_next().is_some() {}
        let out = t.read_object(k(1)).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        assert!(!out.degraded);
    }

    #[test]
    fn second_failure_aborts_recovery_without_false_end_signal() {
        // Regression test for the `clear()` in `fail_device`: a failure
        // mid-recovery drops the pending queue, and the sense protocol
        // must treat the recovery as aborted — never reporting 0x66
        // (recovery ends) for work that was thrown away, not completed.
        let mut t = reo_target();
        for i in 0..6 {
            t.create_object(k(i), ByteSize::from_kib(24), ObjectClass::HotClean, None)
                .unwrap();
        }
        t.fail_device(DeviceId(0));
        t.insert_spare(DeviceId(0));
        assert!(t.recovery_pending() > 0);
        assert_eq!(t.recovery_sense(), SenseCode::RecoveryStarts);

        // Second failure strikes while the queue is still draining.
        t.fail_device(DeviceId(1));
        assert_eq!(t.recovery_pending(), 0, "pending rebuilds dropped");
        assert_eq!(t.recover_next(), None);
        let sense = t.recovery_sense();
        assert_ne!(
            sense,
            SenseCode::RecoveryEnds,
            "an aborted recovery must not report completion"
        );
        assert_eq!(sense, SenseCode::Success);

        // A fresh spare restarts the protocol from the beginning.
        t.insert_spare(DeviceId(1));
        assert!(t.recovery_pending() > 0);
        assert_eq!(t.recovery_sense(), SenseCode::RecoveryStarts);
        while t.recover_next().is_some() {}
        assert_eq!(t.recovery_sense(), SenseCode::RecoveryEnds);
        assert_eq!(t.recovery_sense(), SenseCode::Success);
    }

    #[test]
    fn read_repair_heals_partial_corruption() {
        let mut t = reo_target();
        let data: Vec<u8> = (0..40_960u32).map(|i| (i % 249) as u8).collect();
        t.create_object(
            k(1),
            ByteSize::from_bytes(data.len() as u64),
            ObjectClass::HotClean,
            Some(&data),
        )
        .unwrap();
        t.corrupt_chunk(k(1), 2).unwrap();

        // The degraded read returns the original bytes AND repairs the
        // damage in place.
        let out = t.read_object(k(1)).unwrap();
        assert!(out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        assert_eq!(t.stats().medium_errors, 1);
        assert_eq!(t.stats().repairs, 1);

        // The second read is clean: no reconstruction needed.
        let again = t.read_object(k(1)).unwrap();
        assert!(!again.degraded);
        assert_eq!(again.bytes.as_deref(), Some(&data[..]));
        assert_eq!(t.stats().repairs, 1, "no further repair needed");
    }

    #[test]
    fn read_repair_defers_to_recovery_when_a_device_is_down() {
        let mut t = reo_target();
        t.create_object(k(1), ByteSize::from_kib(40), ObjectClass::HotClean, None)
            .unwrap();
        t.fail_device(DeviceId(0));
        let before = t.stats().repairs;
        // Degraded reads under a whole-device failure must not trigger
        // read-repair (the rebuild target is still failed; recovery owns
        // the rebuild once a spare arrives).
        let _ = t.read_object(k(1));
        assert_eq!(t.stats().repairs, before);
    }

    #[test]
    fn scrub_step_covers_the_index_in_bounded_pieces() {
        let mut t = reo_target();
        let data: Vec<u8> = (0..24_576u32).map(|i| (i % 241) as u8).collect();
        for i in 0..8 {
            // Hot-clean objects carry parity under the differentiated
            // policy, so chunk corruption is repairable, not fatal.
            t.create_object(
                k(i),
                ByteSize::from_bytes(data.len() as u64),
                ObjectClass::HotClean,
                Some(&data),
            )
            .unwrap();
        }
        t.corrupt_chunk(k(6), 1).unwrap();

        // Budgeted steps eventually find and repair the damage, and a
        // full pass is counted exactly once per sweep of the index.
        let mut repaired = Vec::new();
        let mut steps = 0;
        loop {
            steps += 1;
            let report = t.scrub_step(3);
            assert!(report.examined <= 3);
            repaired.extend(report.repaired);
            assert!(report.lost.is_empty());
            if report.completed_pass {
                break;
            }
            assert!(steps < 100, "scrub must terminate");
        }
        assert!(steps > 1, "budget 3 cannot cover the index in one step");
        assert_eq!(repaired, vec![k(6)]);
        assert_eq!(t.stats().scrub_passes, 1);
        let out = t.read_object(k(6)).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn medium_error_sense_for_chunk_corruption() {
        // Chunk-level corruption errors map to the medium-error sense
        // (0x68); whole-object loss keeps Table III's 0x63.
        let e = TargetError::Stripe(StripeError::Flash(reo_flashsim::FlashError::Corrupted(
            reo_flashsim::ChunkHandle::new(7),
        )));
        assert_eq!(e.sense(), SenseCode::MediumError);
        assert!(e.sense().is_error());
        assert_eq!(TargetError::ObjectLost(k(1)).sense(), SenseCode::Corrupted);
    }

    fn journaled_target() -> OsdTarget {
        with_journal(reo_target())
    }

    /// `t` with a journal attached before format, like the cache system
    /// builds it.
    fn with_journal(mut t: OsdTarget) -> OsdTarget {
        t.attach_journal(Journal::format(8));
        t.format().unwrap();
        t.take_checkpoint();
        t
    }

    /// A journaled target of five 1 MiB devices: device 0 is full, the
    /// other four hold only the reserved metadata objects. One-chunk cold
    /// objects are stored one stripe after another, and each that landed
    /// elsewhere is removed again.
    fn lopsided_target() -> OsdTarget {
        let mut t = with_journal(target_with(ProtectionPolicy::differentiated(), 1));
        let room = |t: &OsdTarget| t.array().device(DeviceId(0)).available();
        for i in 1000.. {
            if room(&t).is_zero() {
                break;
            }
            let before = room(&t);
            t.create_object(k(i), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
                .unwrap();
            if room(&t) == before {
                t.remove_object(k(i)).unwrap();
            }
        }
        t.take_checkpoint();
        t
    }

    /// The kind, key and class of every journal record, flushed.
    fn journal_heads(t: &mut OsdTarget) -> Vec<(&'static str, ObjectKey, Option<ObjectClass>)> {
        let journal = t.journal.as_mut().unwrap();
        journal.flush();
        let mut restarted = journal.clone();
        let records = restarted.recover().unwrap().records;
        records
            .map(|record| match record.into_record() {
                JournalRecord::Create { key, class, .. } => ("create", key, Some(class)),
                JournalRecord::SetClass { key, class, .. } => ("set-class", key, Some(class)),
                JournalRecord::DirtyWrite { key, .. } => ("dirty-write", key, None),
                JournalRecord::Remove { key } => ("remove", key, None),
                JournalRecord::ScrubCursor { .. } => unreachable!("no scrub runs here"),
            })
            .collect()
    }

    /// `k(1)`, 40 KiB of `class`, on a journaled target with device
    /// `failed` down.
    fn forty_kib_of(class: ObjectClass, failed: Option<usize>) -> OsdTarget {
        let mut t = journaled_target();
        t.create_object(k(1), ByteSize::from_kib(40), class, None)
            .unwrap();
        if let Some(d) = failed {
            t.fail_device(DeviceId(d));
        }
        t
    }

    /// `k(1)`, one chunk of cold data on a device with room: re-encoding
    /// it replicated is refused by the full device 0.
    fn cold_beside_a_full_device() -> OsdTarget {
        let mut t = lopsided_target();
        // The stripe after the one that filled device 0 goes elsewhere.
        t.create_object(k(1), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
            .unwrap();
        t
    }

    /// One row of the error contract: an operation on a prepared target,
    /// the error it returns, and what it leaves of `key`. Nothing else
    /// moves (see [`untouched`]).
    struct ErrorCase {
        name: &'static str,
        setup: fn() -> OsdTarget,
        op: fn(&mut OsdTarget) -> Result<(), TargetError>,
        error: TargetError,
        sense: SenseCode,
        key: ObjectKey,
        class: Option<ObjectClass>,
        records: &'static [(&'static str, u64, Option<ObjectClass>)],
    }

    /// What a failed operation leaves as it was: the clock, the byte
    /// accounting, the counters and the durable image of the index (keys,
    /// classes, layouts, the owner counter).
    fn untouched(t: &OsdTarget) -> (SimTime, SpaceUsage, TargetStats, Vec<u8>) {
        (t.clock().now(), t.usage(), t.stats(), t.checkpoint_blob())
    }

    #[test]
    fn stripe_errors_map_the_same_from_every_operation() {
        use ObjectClass::{ColdClean, Dirty, HotClean};
        let cases = [
            ErrorCase {
                name: "create: no device has room for its share",
                setup: lopsided_target,
                op: |t| {
                    t.create_object(k(2), ByteSize::from_mib(5), ColdClean, None)
                        .map(drop)
                },
                error: TargetError::CacheFull {
                    requested: ByteSize::from_mib(1),
                    available: ByteSize::from_kib(1004),
                },
                sense: SenseCode::CacheFull,
                key: k(2),
                class: None,
                records: &[],
            },
            ErrorCase {
                name: "create: one device short of room",
                setup: lopsided_target,
                op: |t| {
                    t.create_object(k(2), ByteSize::from_kib(4), Dirty, None)
                        .map(drop)
                },
                error: TargetError::CacheFull {
                    requested: ByteSize::from_kib(4),
                    available: ByteSize::ZERO,
                },
                sense: SenseCode::CacheFull,
                key: k(2),
                class: None,
                records: &[],
            },
            ErrorCase {
                name: "read: the object is lost",
                setup: || forty_kib_of(ColdClean, Some(0)),
                op: |t| t.read_object(k(1)).map(drop),
                error: TargetError::ObjectLost(k(1)),
                sense: SenseCode::Corrupted,
                key: k(1),
                class: Some(ColdClean),
                records: &[],
            },
            ErrorCase {
                name: "set_class: the read is lost",
                setup: || forty_kib_of(ColdClean, Some(0)),
                op: |t| t.set_class(k(1), HotClean).map(drop),
                error: TargetError::ObjectLost(k(1)),
                sense: SenseCode::Corrupted,
                key: k(1),
                class: Some(ColdClean),
                records: &[],
            },
            ErrorCase {
                name: "set_class: a device has no room for the new encoding",
                setup: cold_beside_a_full_device,
                op: |t| t.set_class(k(1), Dirty).map(drop),
                error: TargetError::CacheFull {
                    requested: ByteSize::from_kib(4),
                    available: ByteSize::ZERO,
                },
                sense: SenseCode::CacheFull,
                key: k(1),
                class: Some(ColdClean),
                records: &[],
            },
            ErrorCase {
                name: "write_range: a degraded stripe",
                setup: || forty_kib_of(HotClean, Some(0)),
                op: |t| t.write_range(k(1), 0, 4096).map(drop),
                error: TargetError::ObjectLost(k(1)),
                sense: SenseCode::Corrupted,
                key: k(1),
                class: Some(HotClean),
                records: &[],
            },
            ErrorCase {
                name: "write_range: out of range",
                setup: || forty_kib_of(HotClean, None),
                op: |t| t.write_range(k(1), 36 * 1024, 8 * 1024).map(drop),
                error: TargetError::Stripe(StripeError::PayloadSizeMismatch {
                    declared: 40 * 1024,
                    payload: 44 * 1024,
                }),
                sense: SenseCode::Failure,
                key: k(1),
                class: Some(HotClean),
                records: &[],
            },
        ];
        for case in cases {
            let name = case.name;
            let mut t = (case.setup)();
            let before = journal_heads(&mut t).len();
            let state = untouched(&t);
            let error = (case.op)(&mut t).unwrap_err();
            assert_eq!(error, case.error, "{name}");
            assert_eq!(error.sense(), case.sense, "{name}");
            assert_eq!(t.class_of(case.key), case.class, "{name}");
            assert!(untouched(&t) == state, "{name}");
            let records: Vec<_> = case
                .records
                .iter()
                .map(|&(kind, i, class)| (kind, k(i), class))
                .collect();
            assert_eq!(journal_heads(&mut t)[before..], records, "{name}");
        }
    }

    #[test]
    fn crash_and_recovery_restore_the_object_map() {
        let mut t = journaled_target();
        let data: Vec<u8> = (0..16_384u32).map(|i| (i % 241) as u8).collect();
        t.create_object(
            k(1),
            ByteSize::from_bytes(data.len() as u64),
            ObjectClass::HotClean,
            Some(&data),
        )
        .unwrap();
        t.create_object(k(2), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        t.write_range(k(2), 0, 4096).unwrap();
        let objects_before = t.object_count();
        let usage_before = t.usage();

        let crash = t.simulate_crash(0).expect("journal attached");
        assert_eq!(crash.torn_bytes, 0);
        assert!(t.is_warming());
        // All data paths answer NOT READY until replay completes.
        assert!(matches!(t.read_object(k(1)), Err(TargetError::NotReady)));
        assert!(matches!(
            t.create_object(k(9), ByteSize::from_kib(4), ObjectClass::ColdClean, None),
            Err(TargetError::NotReady)
        ));
        assert_eq!(t.query(k(1)), SenseCode::NotReady);

        let report = t.recover_from_journal().unwrap();
        assert!(!t.is_warming());
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        assert!(report.lost.is_empty());
        assert_eq!(report.restored_objects, objects_before);
        assert_eq!(t.object_count(), objects_before);
        assert_eq!(t.usage(), usage_before);
        assert_eq!(t.class_of(k(2)), Some(ObjectClass::Dirty));
        // The acknowledged payload is byte-for-byte intact.
        let out = t.read_object(k(1)).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn torn_tail_is_detected_and_discarded() {
        let mut t = journaled_target();
        // Make a few records durable...
        for i in 0..6 {
            t.create_object(k(i), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
                .unwrap();
        }
        t.create_object(k(99), ByteSize::from_kib(4), ObjectClass::Dirty, None)
            .unwrap();
        // ...then stage one more and crash mid-flush: 7 bytes of its
        // record reach the media as a torn tail.
        t.create_object(k(100), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
            .unwrap();
        let crash = t.simulate_crash(7).unwrap();
        assert!(crash.partial_tail, "7 bytes must cut into a record");
        let report = t.recover_from_journal().unwrap();
        assert!(report.torn_tail);
        assert!(report.torn_bytes > 0);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Every object that survived the torn tail is fully intact.
        for key in t.keys() {
            assert!(matches!(t.object_status(key), Ok(ObjectStatus::Intact)));
        }
    }

    #[test]
    fn unflushed_clean_creates_are_lost_and_collected_as_orphans() {
        let mut t = journaled_target();
        t.take_checkpoint();
        // fsync_interval is 8: one clean create stays staged.
        t.create_object(k(1), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
            .unwrap();
        let before = t.usage();
        assert!(before.total() > ByteSize::ZERO);
        let crash = t.simulate_crash(0).unwrap();
        assert_eq!(crash.staged_records_lost, 1);
        let report = t.recover_from_journal().unwrap();
        assert!(!t.contains(k(1)), "unflushed clean create must vanish");
        assert!(report.orphans_removed > 0, "its chunks must be collected");
        assert!(report.violations.is_empty());
    }

    #[test]
    fn dirty_writes_survive_any_crash_once_acknowledged() {
        let mut t = journaled_target();
        t.create_object(k(1), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        // The ack point: write_range returned, so the record is flushed.
        t.write_range(k(1), 0, 8192).unwrap();
        let crash = t.simulate_crash(3).unwrap();
        assert_eq!(crash.staged_records_lost, 0, "dirty writes flush eagerly");
        let report = t.recover_from_journal().unwrap();
        assert!(report.violations.is_empty());
        assert!(t.contains(k(1)), "acknowledged dirty write was lost");
        assert_eq!(t.class_of(k(1)), Some(ObjectClass::Dirty));
        assert!(!t.read_object(k(1)).unwrap().degraded);
    }

    #[test]
    fn recovery_rearms_the_scrub_cursor() {
        let mut t = journaled_target();
        for i in 0..12 {
            t.create_object(k(i), ByteSize::from_kib(4), ObjectClass::ColdClean, None)
                .unwrap();
        }
        // A bounded step leaves the cursor mid-index; persist it durably
        // (the cursor record may sit in the staging buffer otherwise).
        let report = t.scrub_step(5);
        assert!(!report.completed_pass);
        let cursor_before = t.scrub_cursor;
        assert!(cursor_before.is_some());
        if let Some(j) = t.journal.as_mut() {
            j.flush();
        }
        t.simulate_crash(0).unwrap();
        assert_eq!(t.scrub_cursor, None, "DRAM cursor vaporized");
        t.recover_from_journal().unwrap();
        assert_eq!(
            t.scrub_cursor, cursor_before,
            "scrubber must resume from the persisted cursor, not key zero"
        );
        // And the next step picks up past the cursor instead of restarting.
        let next = t.scrub_step(100);
        assert!(next.completed_pass);
        assert!(next.examined < t.object_count());
    }

    #[test]
    fn fail_replace_recover_roundtrip_is_idempotent() {
        // Satellite regression: device failure, spare insertion, and
        // journal recovery compose in any order without corrupting state.
        let mut t = journaled_target();
        for i in 0..4 {
            t.create_object(k(i), ByteSize::from_kib(8), ObjectClass::Dirty, None)
                .unwrap();
            t.write_range(k(i), 0, 4096).unwrap();
        }
        for round in 0..3 {
            t.fail_device(DeviceId(round % t.device_count()));
            let lost = t.insert_spare(DeviceId(round % t.device_count()));
            assert!(lost.is_empty(), "replicated objects survive one failure");
            while t.recover_next().is_some() {}
            t.simulate_crash(round).unwrap();
            let report = t.recover_from_journal().unwrap();
            assert!(report.violations.is_empty(), "{:?}", report.violations);
            for i in 0..4 {
                assert_eq!(t.class_of(k(i)), Some(ObjectClass::Dirty));
                assert!(!t.read_object(k(i)).unwrap().degraded);
            }
            // Drain any rebuilds the recovery audit queued.
            while t.recover_next().is_some() {}
        }
        // A second recovery on an already-warm target is a no-op
        // state-wise. (Checkpoint first: access frequencies are persisted
        // at checkpoint time, and the reads above post-date the last one.)
        t.take_checkpoint();
        let snapshot = t.inventory();
        let report = t.recover_from_journal().unwrap();
        assert!(report.violations.is_empty());
        assert_eq!(t.inventory(), snapshot);
    }

    /// Twenty-four dirty (replicated), hot (two parities) and cold (no
    /// parity) objects of one to forty-two chunks, half of them under the
    /// checkpoint and half in the log, crashed after `damage`.
    fn crash_after(damage: impl FnOnce(&mut OsdTarget)) -> OsdTarget {
        use ObjectClass::{ColdClean, Dirty, HotClean};
        let mut t = journaled_target();
        for i in 0..24u64 {
            let class = [Dirty, HotClean, ColdClean][i as usize % 3];
            t.create_object(k(i), ByteSize::from_kib(4 + 7 * i), class, None)
                .unwrap();
            if i == 11 {
                t.take_checkpoint();
            }
        }
        damage(&mut t);
        t.simulate_crash(0).unwrap();
        t
    }

    #[test]
    fn recovery_audits_objects_only_when_the_array_cannot_vouch() {
        let vouched = |t: &OsdTarget| t.stripes.array().all_chunks_intact();
        let healthy = crash_after(|_| {});
        let failed = crash_after(|t| t.fail_device(DeviceId(1)));
        // One hot object degraded, two cold ones lost.
        let corrupted = crash_after(|t| {
            t.corrupt_chunk(k(1), 0).unwrap();
            t.corrupt_chunk(k(2), 0).unwrap();
            t.corrupt_chunk(k(5), 1).unwrap();
        });
        // What recovery returned when it audited every object: the
        // healthy crash skips the audit and must not tell.
        let skipped = TargetRecovery {
            replayed_records: 10,
            checkpoint_generation: 2,
            orphans_removed: 110,
            restored_objects: 27,
            ..TargetRecovery::default()
        };
        let after_failure = TargetRecovery {
            degraded: 20,
            lost: vec![k(2), k(5), k(8), k(11), k(14), k(17), k(20)],
            ..skipped.clone()
        };
        let after_corruption = TargetRecovery {
            degraded: 1,
            lost: vec![k(2), k(5)],
            ..skipped.clone()
        };
        for (mut t, expected, vouches) in [
            (healthy, skipped, true),
            (failed, after_failure, false),
            (corrupted, after_corruption, false),
        ] {
            let report = t.recover_from_journal().unwrap();
            assert_eq!(vouched(&t), vouches);
            assert_eq!(report, expected);
            // Degraded objects wait in the rebuild queue, lost ones are
            // gone, and every other object reads back.
            assert_eq!(t.recovery.pending(), report.degraded);
            assert_eq!(t.recovery_active, report.degraded > 0);
            assert!(report.lost.iter().all(|&key| !t.contains(key)));
            for key in t.keys() {
                let status = t.object_status(key).unwrap();
                assert_ne!(status, ObjectStatus::Lost, "{key}");
            }
        }
    }

    #[test]
    fn removes_are_durable_before_chunks_are_freed() {
        let mut t = journaled_target();
        t.create_object(k(1), ByteSize::from_kib(4), ObjectClass::Dirty, None)
            .unwrap();
        t.remove_object(k(1)).unwrap();
        t.simulate_crash(0).unwrap();
        let report = t.recover_from_journal().unwrap();
        assert!(!t.contains(k(1)), "a removed object must stay removed");
        assert!(report.violations.is_empty());
    }

    #[test]
    fn span_sweep_reports_what_the_stripe_by_stripe_walk_reported() {
        // Layouts from managers that each number their stripes from zero
        // claim the same stripes: singly, twice, three deep, one span
        // inside another, and two spans joined only through a third.
        let sizes_kib = [
            [40, 4, 120, 8],
            [4, 90, 16, 60],
            [200, 4, 4, 30],
            [12, 12, 12, 12],
        ];
        let mut layouts = Vec::new();
        for (m, sizes) in (0..).zip(sizes_kib) {
            let mut t = reo_target();
            for (i, kib) in (0..).zip(sizes) {
                t.create_object(k(i), ByteSize::from_kib(kib), ObjectClass::ColdClean, None)
                    .unwrap();
                layouts.push((m, t.index[&k(i)].layout.clone()));
            }
        }
        // Every subset of the four managers, in both key orders.
        for keep in 1..16u64 {
            for reverse in [false, true] {
                let chosen = layouts.iter().filter(|(m, _)| keep >> m & 1 == 1);
                let rekeyed: Vec<(ObjectKey, &ObjectLayout)> = (0..)
                    .zip(chosen)
                    .map(|(i, (_, layout))| (k(if reverse { 99 - i } else { i }), layout))
                    .collect();

                // The walk the sweep replaced: objects by key, one map
                // entry per stripe.
                let mut by_key = rekeyed.clone();
                by_key.sort_unstable_by_key(|&(key, _)| key);
                let mut owner_of = BTreeMap::new();
                let mut expected = Vec::new();
                for (key, layout) in by_key {
                    for sid in layout.stripes() {
                        if let Some(prev) = owner_of.insert(sid, key) {
                            expected.push((key, sid, prev));
                        }
                    }
                }

                let (referenced, claims) = stripe_claims(rekeyed.into_iter());
                assert_eq!(claims, expected, "{keep:#b} {reverse}");
                assert_eq!(referenced, owner_of.len() as u64, "{keep:#b} {reverse}");
                assert_eq!(claims.is_empty(), keep.count_ones() == 1);
            }
        }
    }

    #[test]
    fn checkpoint_truncates_replay_work() {
        let mut t = journaled_target();
        for i in 0..10 {
            t.create_object(k(i), ByteSize::from_kib(4), ObjectClass::Dirty, None)
                .unwrap();
        }
        t.take_checkpoint();
        t.create_object(k(10), ByteSize::from_kib(4), ObjectClass::Dirty, None)
            .unwrap();
        t.simulate_crash(0).unwrap();
        let report = t.recover_from_journal().unwrap();
        // Only the post-checkpoint create replays from the log.
        assert_eq!(report.replayed_records, 1);
        assert_eq!(t.object_count(), 11 + 5, "10 + 1 user + 5 reserved");
        let stats = t.journal_stats().unwrap();
        assert_eq!(stats.appends, 0, "recovery hands back a fresh journal");
    }

    #[test]
    fn a_layout_record_is_as_long_for_a_thousand_chunks_as_for_one() {
        let mut t = journaled_target();
        let mut appended = |key, chunks: u64| {
            let before = t.journal_stats().unwrap().appended_bytes;
            t.create_object(
                key,
                ByteSize::from_kib(4 * chunks),
                ObjectClass::HotClean,
                None,
            )
            .unwrap();
            t.journal_stats().unwrap().appended_bytes - before
        };
        let one = appended(k(1), 1);
        assert_eq!(appended(k(2), 1_000), one);
        assert!(one < 128, "a staged record fits the 128-byte tear: {one}");
    }

    #[test]
    fn a_version_1_checkpoint_image_is_refused_not_misparsed() {
        let mut t = journaled_target();
        t.create_object(k(1), ByteSize::from_kib(8), ObjectClass::Dirty, None)
            .unwrap();
        // Same framing, but the embedded layout blobs of version 1 listed
        // every chunk, and version 2 carried a wear snapshot after the
        // cursor: an image that claims either must not reach the parser.
        for version in [1u32, 2] {
            let mut t = t.clone();
            let mut image = t.checkpoint_blob();
            image[..4].copy_from_slice(&version.to_le_bytes());
            if version == 2 {
                // The snapshot as version 2 wrote it: a device count and
                // one wear value per device, after the absent cursor's
                // one byte.
                let devices = t.device_count();
                let mut wear = (devices as u32).to_le_bytes().to_vec();
                wear.extend((0..devices).flat_map(|_| 0f64.to_bits().to_le_bytes()));
                image.splice(13..13, wear);
            }
            t.journal.as_mut().unwrap().checkpoint(&image);
            t.simulate_crash(0).unwrap();
            assert!(
                matches!(
                    t.recover_from_journal(),
                    Err(TargetError::Stripe(StripeError::CorruptMetadata))
                ),
                "version {version}"
            );
        }
    }

    #[test]
    fn recovery_without_a_journal_is_refused() {
        let mut t = reo_target();
        assert!(matches!(
            t.recover_from_journal(),
            Err(TargetError::NotReady)
        ));
        assert!(t.simulate_crash(0).is_none());
    }

    /// A spare insertion queues what walking every stripe of every object
    /// finds. On a journaled target, objects of every class and of one
    /// chunk, one stripe and many stripes (a partial last one) are stored
    /// over five devices, device 0 fails, the same again is stored over the
    /// four left, and chunks of two many-stripe objects are corrupted, so
    /// that a device's share of each no longer answers as a whole: one
    /// object stays degraded, the other loses a stripe. When the spare goes
    /// in, the lost objects, the rebuild queue in the order it pops and per
    /// class, every object's status and the target's counters are those
    /// recorded when every object's health was probed chunk by chunk.
    #[test]
    fn a_spare_insertion_queues_what_the_walk_finds() {
        let mut t = journaled_target();
        let sizes = [4, 10, 40, 100].map(ByteSize::from_kib);
        let mut created = 0;
        let mut store_each_class = |t: &mut OsdTarget| {
            for class in ObjectClass::ALL {
                for size in sizes {
                    created += 1;
                    t.create_object(k(created), size, class, None).unwrap();
                }
            }
        };
        store_each_class(&mut t);
        t.fail_device(DeviceId(0));
        store_each_class(&mut t);
        // The hot objects of the five-device array, in their second
        // stripe on devices that did not fail: one chunk of the 100 KiB
        // one, which that stripe survives, and two of the 40 KiB one,
        // which it does not.
        t.corrupt_chunk(k(12), 5).unwrap();
        t.corrupt_chunk(k(11), 3).unwrap();
        t.corrupt_chunk(k(11), 4).unwrap();
        let lost = t.insert_spare(DeviceId(0));

        // That one and the cold objects of the five devices but the one
        // chunk that missed device 0; every object stored over the four is
        // intact.
        assert_eq!(lost, [k(11), k(14), k(15), k(16)]);
        let reserved = t
            .keys()
            .into_iter()
            .filter(|key| key.oid().as_u64() < 0x20000);
        let reserved: Vec<ObjectKey> = reserved.collect();
        assert_eq!(reserved.len(), 5);
        let mut expected: Vec<(ObjectKey, ObjectClass)> = reserved
            .into_iter()
            .map(|key| (key, ObjectClass::Metadata))
            .collect();
        let classes = [
            ObjectClass::Metadata,
            ObjectClass::Dirty,
            ObjectClass::HotClean,
        ];
        for (nth, class) in classes.into_iter().enumerate() {
            let keys = (1..=4).map(|i| k(4 * nth as u64 + i));
            expected.extend(keys.filter(|&key| key != k(11)).map(|key| (key, class)));
        }
        let mut queue = t.recovery_engine().clone();
        let queued = std::iter::from_fn(|| queue.pop()).map(|item| (item.key, item.class));
        assert_eq!(queued.collect::<Vec<_>>(), expected);
        let per_class = ObjectClass::ALL.map(|c| t.recovery_engine().pending_of(c));
        assert_eq!(per_class, [9, 4, 3, 0]);
        for i in 1..=created {
            let status = match i {
                11 | 14..=16 => ObjectStatus::Lost,
                1..=12 => ObjectStatus::Degraded,
                _ => ObjectStatus::Intact,
            };
            assert_eq!(t.object_status(k(i)).unwrap(), status, "object {i}");
        }
        assert_eq!(
            t.stats(),
            TargetStats {
                creates: 37,
                ..TargetStats::default()
            }
        );
    }
}
