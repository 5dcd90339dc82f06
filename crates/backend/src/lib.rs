#![warn(missing_docs)]
//! The simulated backend data store.
//!
//! In the paper's testbed the backend is a separate storage server with a
//! 7,200 RPM 1 TB hard drive, reached over 10 GbE. The cache sits in front
//! of it; misses and write-back flushes go here. This crate models that
//! server:
//!
//! * [`BackendStore`] — holds the authoritative copy of every object
//!   (size always; bytes optionally), charges seek + transfer + network
//!   time per access, and serializes requests through a single-disk queue
//!   the way one HDD spindle does.
//! * [`BackendConfig`] — the service-time parameters, with
//!   [`BackendConfig::paper_testbed`] matching the hardware the paper
//!   reports.
//!
//! The backend never loses data — it is the durable tier. Reo's reliability
//! mechanisms protect the *cache*; after any cache loss, clean data can
//! always be re-fetched from here (at long latency), which is exactly why
//! the paper gives cold clean objects no redundancy.
//!
//! Durable does not mean always reachable: [`BackendFault`] injects outage
//! windows (the storage server is down; every request fails with
//! [`BackendError::Unavailable`]) and slow-spindle factors (a degrading
//! disk serving at a fraction of its nominal rate), symmetric to the flash
//! array's `FaultPlan`. The cascading-failure experiments compose these
//! with cache-device faults.
//!
//! # Examples
//!
//! ```
//! use reo_backend::{BackendConfig, BackendStore};
//! use reo_osd::{ObjectId, ObjectKey, PartitionId};
//! use reo_sim::{ByteSize, SimClock};
//!
//! let mut store = BackendStore::new(BackendConfig::paper_testbed(), SimClock::new());
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
//! store.insert(key, ByteSize::from_mib(4), None);
//! let fetched = store.read(key)?;
//! assert_eq!(fetched.size, ByteSize::from_mib(4));
//! # Ok::<(), reo_backend::BackendError>(())
//! ```

use std::error::Error;
use std::fmt;

use bytes::Bytes;
use reo_osd::ObjectKey;
use reo_sim::{ByteSize, FastMap, Layer, ServiceModel, SimClock, SimDuration, SimTime, Tracer};

/// Service-time parameters of the backend server.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BackendConfig {
    /// The disk model: seek latency + sustained transfer rate.
    pub disk: ServiceModel,
    /// The network path between cache server and storage server.
    pub network: ServiceModel,
}

impl BackendConfig {
    /// Parameters resembling the paper's testbed: a 7,200 RPM 1 TB WD hard
    /// drive (~8 ms average access, ~120 MB/s sustained) behind a 10 Gbps
    /// Ethernet link (~1.25 GB/s with ~50 µs of request latency).
    pub fn paper_testbed() -> Self {
        BackendConfig {
            disk: ServiceModel::new(SimDuration::from_millis(8), 120 * 1024 * 1024),
            network: ServiceModel::new(SimDuration::from_micros(50), 1_250_000_000),
        }
    }

    /// A free backend for unit tests of higher layers.
    pub fn instant() -> Self {
        BackendConfig {
            disk: ServiceModel::instant(),
            network: ServiceModel::instant(),
        }
    }
}

/// Errors from backend operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendError {
    /// The key is not present in the store.
    UnknownObject(ObjectKey),
    /// A payload's length disagrees with the declared size.
    PayloadSizeMismatch {
        /// Declared size in bytes.
        declared: u64,
        /// Payload length in bytes.
        payload: u64,
    },
    /// Objects must be non-empty.
    EmptyObject,
    /// The backend is down (an injected outage window); the request was
    /// rejected without being queued or charged.
    Unavailable,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnknownObject(k) => write!(f, "no such object {k}"),
            BackendError::PayloadSizeMismatch { declared, payload } => write!(
                f,
                "payload is {payload} bytes but object declares {declared}"
            ),
            BackendError::EmptyObject => write!(f, "objects must be non-empty"),
            BackendError::Unavailable => write!(f, "backend server is unavailable"),
        }
    }
}

impl Error for BackendError {}

/// An object fetched from the backend.
#[derive(Clone, Debug)]
pub struct FetchedObject {
    /// The object's size.
    pub size: ByteSize,
    /// The object's bytes, when the store holds real payloads.
    pub bytes: Option<Bytes>,
    /// Simulated completion instant of the fetch.
    pub completed_at: SimTime,
}

/// Cumulative backend counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Object reads served.
    pub reads: u64,
    /// Object writes (write-back flushes) absorbed.
    pub writes: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

/// Fault-injection state of the backend server, symmetric to the flash
/// array's `FaultPlan`: an outage flag plus a slow-spindle service-time
/// multiplier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BackendFault {
    down: bool,
    slow_factor: f64,
}

impl Default for BackendFault {
    fn default() -> Self {
        BackendFault {
            down: false,
            slow_factor: 1.0,
        }
    }
}

impl BackendFault {
    /// `true` while an outage window is open.
    pub fn is_down(&self) -> bool {
        self.down
    }

    /// The current disk service-time multiplier (1.0 = nominal).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }
}

#[derive(Clone, Debug)]
struct StoredObject {
    size: ByteSize,
    bytes: Option<Bytes>,
    version: u64,
}

/// The authoritative object store behind the cache.
#[derive(Clone, Debug)]
pub struct BackendStore {
    config: BackendConfig,
    clock: SimClock,
    objects: FastMap<ObjectKey, StoredObject>,
    busy_until: SimTime,
    stats: BackendStats,
    fault: BackendFault,
    tracer: Tracer,
}

impl BackendStore {
    /// Creates an empty store.
    pub fn new(config: BackendConfig, clock: SimClock) -> Self {
        BackendStore {
            config,
            clock,
            objects: FastMap::default(),
            busy_until: SimTime::ZERO,
            stats: BackendStats::default(),
            fault: BackendFault::default(),
            tracer: Tracer::new(),
        }
    }

    /// The store's configuration.
    pub fn config(&self) -> &BackendConfig {
        &self.config
    }

    /// Installs a shared tracer handle; backend-layer spans are recorded
    /// through it from then on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Cumulative counters.
    pub fn stats(&self) -> BackendStats {
        self.stats
    }

    /// Current fault-injection state.
    pub fn fault(&self) -> &BackendFault {
        &self.fault
    }

    /// `true` while an injected outage window is open.
    pub fn is_down(&self) -> bool {
        self.fault.down
    }

    /// Opens an outage window: every subsequent request fails with
    /// [`BackendError::Unavailable`] until [`BackendStore::restore`].
    /// Idempotent — failing an already-down backend is a no-op.
    pub fn fail(&mut self) {
        self.fault.down = true;
    }

    /// Closes the outage window; requests are served again. Idempotent.
    pub fn restore(&mut self) {
        self.fault.down = false;
    }

    /// Sets the slow-spindle factor: disk service time is multiplied by
    /// `factor` (1.0 restores the nominal rate; 4.0 models a drive limping
    /// at a quarter of its throughput).
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is finite and positive.
    pub fn set_slow_factor(&mut self, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "slow factor must be finite and positive"
        );
        self.fault.slow_factor = factor;
    }

    /// Number of objects held.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.objects.contains_key(&key)
    }

    /// The size of `key`, if present — a metadata lookup, free of charge.
    pub fn size_of(&self, key: ObjectKey) -> Option<ByteSize> {
        self.objects.get(&key).map(|o| o.size)
    }

    /// The monotonically increasing version of `key`, if present. Bumped
    /// by every [`BackendStore::write`] — lets tests assert that
    /// write-back flushes actually landed.
    pub fn version_of(&self, key: ObjectKey) -> Option<u64> {
        self.objects.get(&key).map(|o| o.version)
    }

    /// The instant the backend's disk becomes idle. Background work (the
    /// write-back flusher) should only be issued when `now >= busy_until`
    /// so it never delays on-demand misses.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// `true` if the backend could start a request at `now` without
    /// queueing.
    pub fn is_idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Makes room for `additional` more objects at once, so loading a
    /// data set of known size does not rehash the map as it grows. Nothing
    /// iterates the map, so its capacity cannot show in any result.
    pub fn reserve(&mut self, additional: usize) {
        self.objects.reserve(additional);
    }

    /// Populates an object without charging any time (initial data-set
    /// load, before the experiment starts).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or a supplied payload disagrees with it.
    pub fn insert(&mut self, key: ObjectKey, size: ByteSize, bytes: Option<Bytes>) {
        assert!(!size.is_zero(), "objects must be non-empty");
        if let Some(b) = &bytes {
            assert_eq!(
                b.len() as u64,
                size.as_bytes(),
                "payload length must match declared size"
            );
        }
        self.objects.insert(
            key,
            StoredObject {
                size,
                bytes,
                version: 0,
            },
        );
    }

    /// Disk service time for `bytes`, scaled by the slow-spindle factor.
    /// The nominal (1.0) path returns the model's time untouched so that
    /// fault-free runs are bit-for-bit identical.
    fn disk_time(&self, bytes: ByteSize) -> SimDuration {
        let t = self.config.disk.service_time(bytes);
        if self.fault.slow_factor == 1.0 {
            t
        } else {
            SimDuration::from_secs_f64(t.as_secs_f64() * self.fault.slow_factor)
        }
    }

    /// Occupies the disk with `bytes` of disk and network time from when it
    /// is next free; returns that start and the new `busy_until`.
    fn occupy(&mut self, bytes: ByteSize) -> (SimTime, SimTime) {
        let start = self.busy_until.max(self.clock.now());
        self.busy_until = start + self.disk_time(bytes) + self.config.network.service_time(bytes);
        (start, self.busy_until)
    }

    /// Serves a request of `bytes` in the foreground: the clock advances
    /// to its completion.
    fn service(&mut self, op: &'static str, bytes: ByteSize) -> SimTime {
        let now = self.clock.now();
        let (_, done) = self.occupy(bytes);
        let t = self.clock.advance_to(done);
        self.tracer.record_span(Layer::Backend, op, now, t);
        t
    }

    /// Reads an object, charging disk + network time.
    ///
    /// # Errors
    ///
    /// * [`BackendError::Unavailable`] — outage window open (no charge).
    /// * [`BackendError::UnknownObject`] — absent.
    pub fn read(&mut self, key: ObjectKey) -> Result<FetchedObject, BackendError> {
        if self.fault.down {
            return Err(BackendError::Unavailable);
        }
        let (size, bytes) = {
            let obj = self
                .objects
                .get(&key)
                .ok_or(BackendError::UnknownObject(key))?;
            (obj.size, obj.bytes.clone())
        };
        let completed_at = self.service("read", size);
        self.stats.reads += 1;
        self.stats.bytes_read += size.as_bytes();
        Ok(FetchedObject {
            size,
            bytes,
            completed_at,
        })
    }

    /// What both write paths do before the disk is charged: refuses the
    /// write while the backend is down or when the object is empty or its
    /// payload disagrees with `size`, else stores the object with its
    /// version bumped and counts the write.
    fn store(
        &mut self,
        key: ObjectKey,
        size: ByteSize,
        bytes: Option<Bytes>,
    ) -> Result<(), BackendError> {
        if self.fault.down {
            return Err(BackendError::Unavailable);
        }
        if size.is_zero() {
            return Err(BackendError::EmptyObject);
        }
        if let Some(b) = &bytes {
            if b.len() as u64 != size.as_bytes() {
                return Err(BackendError::PayloadSizeMismatch {
                    declared: size.as_bytes(),
                    payload: b.len() as u64,
                });
            }
        }
        let version = self.objects.get(&key).map(|o| o.version + 1).unwrap_or(1);
        self.objects.insert(
            key,
            StoredObject {
                size,
                bytes,
                version,
            },
        );
        self.stats.writes += 1;
        self.stats.bytes_written += size.as_bytes();
        Ok(())
    }

    /// Writes (or overwrites) an object — the cache's write-back flush
    /// path. Charges disk + network time and bumps the object's version.
    ///
    /// # Errors
    ///
    /// * [`BackendError::Unavailable`] — outage window open (no charge).
    /// * [`BackendError::EmptyObject`] — zero size.
    /// * [`BackendError::PayloadSizeMismatch`] — payload/size disagreement.
    pub fn write(
        &mut self,
        key: ObjectKey,
        size: ByteSize,
        bytes: Option<Bytes>,
    ) -> Result<SimTime, BackendError> {
        self.store(key, size, bytes)?;
        Ok(self.service("write", size))
    }

    /// Writes an object *in the background*: the disk is occupied until
    /// the returned instant (future requests queue behind it), but the
    /// simulation clock is not advanced — the caller is not waiting.
    ///
    /// This is the write-back flusher's path; synchronous flushes (e.g.
    /// flush-before-evict in a request's critical path) use
    /// [`BackendStore::write`] instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BackendStore::write`].
    pub fn write_background(
        &mut self,
        key: ObjectKey,
        size: ByteSize,
        bytes: Option<Bytes>,
    ) -> Result<SimTime, BackendError> {
        self.store(key, size, bytes)?;
        let (start, done) = self.occupy(size);
        // Background writes do not advance the clock; the span covers the
        // disk occupancy (start may be in the clock's future).
        self.tracer
            .record_span(Layer::Backend, "write_bg", start, done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_osd::{ObjectId, PartitionId};

    fn key(oid: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + oid))
    }

    fn store() -> BackendStore {
        BackendStore::new(BackendConfig::paper_testbed(), SimClock::new())
    }

    #[test]
    fn read_charges_disk_and_network_time() {
        let mut s = store();
        s.insert(key(1), ByteSize::from_mib(120), None);
        let t0 = s.clock.now();
        let fetched = s.read(key(1)).unwrap();
        let cost = fetched.completed_at.saturating_since(t0);
        // 120 MiB at ~120 MB/s is about a second, plus seek and network.
        assert!(cost >= SimDuration::from_millis(900), "cost = {cost}");
        assert!(cost <= SimDuration::from_millis(1500), "cost = {cost}");
    }

    #[test]
    fn requests_serialize_through_the_spindle() {
        let mut s = store();
        s.insert(key(1), ByteSize::from_mib(10), None);
        s.insert(key(2), ByteSize::from_mib(10), None);
        let t0 = s.clock.now();
        let f1 = s.read(key(1)).unwrap();
        let f2 = s.read(key(2)).unwrap();
        let d1 = f1.completed_at.saturating_since(t0);
        let d2 = f2.completed_at.saturating_since(t0);
        assert!(d2.as_nanos() >= 2 * d1.as_nanos() * 9 / 10);
    }

    #[test]
    fn unknown_object_errors_without_charge() {
        let mut s = store();
        let before = s.clock.now();
        assert_eq!(
            s.read(key(9)).unwrap_err(),
            BackendError::UnknownObject(key(9))
        );
        assert_eq!(s.clock.now(), before);
        assert_eq!(s.stats().reads, 0);
    }

    #[test]
    fn write_bumps_version() {
        let mut s = store();
        s.insert(key(1), ByteSize::from_kib(4), None);
        assert_eq!(s.version_of(key(1)), Some(0));
        s.write(key(1), ByteSize::from_kib(4), None).unwrap();
        assert_eq!(s.version_of(key(1)), Some(1));
        s.write(key(1), ByteSize::from_kib(8), None).unwrap();
        assert_eq!(s.version_of(key(1)), Some(2));
        assert_eq!(s.size_of(key(1)), Some(ByteSize::from_kib(8)));
        // A write to a brand-new key starts at version 1.
        s.write(key(2), ByteSize::from_kib(4), None).unwrap();
        assert_eq!(s.version_of(key(2)), Some(1));
    }

    #[test]
    fn payload_roundtrip_and_validation() {
        let mut s = store();
        let bytes = Bytes::from_static(b"0123456789");
        s.insert(key(1), ByteSize::from_bytes(10), Some(bytes.clone()));
        let fetched = s.read(key(1)).unwrap();
        assert_eq!(fetched.bytes.as_ref(), Some(&bytes));

        assert_eq!(
            s.write(key(1), ByteSize::from_bytes(5), Some(bytes))
                .unwrap_err(),
            BackendError::PayloadSizeMismatch {
                declared: 5,
                payload: 10
            }
        );
        assert_eq!(
            s.write(key(1), ByteSize::ZERO, None).unwrap_err(),
            BackendError::EmptyObject
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut s = store();
        s.insert(key(1), ByteSize::from_kib(4), None);
        s.read(key(1)).unwrap();
        s.write(key(1), ByteSize::from_kib(4), None).unwrap();
        let st = s.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.bytes_read, 4096);
        assert_eq!(st.bytes_written, 4096);
    }

    #[test]
    fn inventory_helpers() {
        let mut s = store();
        assert_eq!(s.object_count(), 0);
        s.insert(key(1), ByteSize::from_kib(4), None);
        s.insert(key(2), ByteSize::from_kib(8), None);
        assert_eq!(s.object_count(), 2);
        assert!(s.contains(key(1)));
        assert!(!s.contains(key(3)));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn insert_zero_size_panics() {
        store().insert(key(1), ByteSize::ZERO, None);
    }

    #[test]
    fn write_background_occupies_the_disk_without_advancing_the_clock() {
        let mut s = store();
        let now = s.clock.now();
        let done = s
            .write_background(key(1), ByteSize::from_mib(10), None)
            .unwrap();
        assert_eq!(s.clock.now(), now, "the caller is not waiting");
        assert_eq!(s.busy_until(), done);
        assert!(!s.is_idle_at(now));
        assert_eq!(s.version_of(key(1)), Some(1));
        assert_eq!(s.stats().writes, 1);
        assert_eq!(s.stats().bytes_written, 10 << 20);
        // A foreground read queues behind the background write.
        s.insert(key(2), ByteSize::from_kib(4), None);
        let fetched = s.read(key(2)).unwrap();
        assert!(fetched.completed_at >= done);
    }

    #[test]
    fn write_background_validates_like_write() {
        let mut s = store();
        assert_eq!(
            s.write_background(key(1), ByteSize::ZERO, None)
                .unwrap_err(),
            BackendError::EmptyObject
        );
        let bytes = Bytes::from_static(b"0123456789");
        assert_eq!(
            s.write_background(key(1), ByteSize::from_bytes(5), Some(bytes))
                .unwrap_err(),
            BackendError::PayloadSizeMismatch {
                declared: 5,
                payload: 10
            }
        );
        assert_eq!(s.stats().writes, 0);
        assert!(s.is_idle_at(s.clock.now()));
    }

    #[test]
    fn outage_rejects_every_path_without_charge() {
        let mut s = store();
        s.insert(key(1), ByteSize::from_mib(1), None);
        s.fail();
        assert!(s.is_down());
        let before = s.clock.now();
        assert_eq!(s.read(key(1)).unwrap_err(), BackendError::Unavailable);
        assert_eq!(
            s.write(key(1), ByteSize::from_mib(1), None).unwrap_err(),
            BackendError::Unavailable
        );
        assert_eq!(
            s.write_background(key(1), ByteSize::from_mib(1), None)
                .unwrap_err(),
            BackendError::Unavailable
        );
        assert_eq!(s.clock.now(), before, "rejections are free");
        assert_eq!(s.stats(), BackendStats::default());
        assert_eq!(s.version_of(key(1)), Some(0), "no write landed");

        s.restore();
        assert!(!s.is_down());
        assert!(s.read(key(1)).is_ok());
    }

    #[test]
    fn fail_and_restore_are_idempotent() {
        let mut s = store();
        s.fail();
        s.fail();
        assert!(s.is_down());
        s.restore();
        assert!(!s.is_down(), "one restore closes a window failed twice");
        s.restore();
        assert!(!s.is_down());
    }

    #[test]
    fn slow_spindle_scales_disk_time() {
        let mut nominal = store();
        nominal.insert(key(1), ByteSize::from_mib(120), None);
        let t0 = nominal.clock.now();
        let base = nominal
            .read(key(1))
            .unwrap()
            .completed_at
            .saturating_since(t0);

        let mut slow = store();
        slow.insert(key(1), ByteSize::from_mib(120), None);
        slow.set_slow_factor(4.0);
        let t0 = slow.clock.now();
        let degraded = slow.read(key(1)).unwrap().completed_at.saturating_since(t0);

        // Disk time dominates a 120 MiB HDD read, so 4x spindle slowdown
        // is close to 4x total.
        assert!(
            degraded.as_nanos() > base.as_nanos() * 3,
            "{degraded} vs {base}"
        );
        assert_eq!(slow.fault().slow_factor(), 4.0);

        // Back to nominal: the same-size read costs exactly what a fresh
        // store charges (the 1.0 path is untouched by fault plumbing).
        slow.set_slow_factor(1.0);
        let mut fresh = store();
        fresh.insert(key(2), ByteSize::from_mib(10), None);
        slow.insert(key(2), ByteSize::from_mib(10), None);
        let slow_start = slow.busy_until().max(slow.clock.now());
        let a = fresh.read(key(2)).unwrap();
        let b = slow.read(key(2)).unwrap();
        assert_eq!(
            a.completed_at.saturating_since(SimTime::ZERO),
            b.completed_at.saturating_since(slow_start),
        );
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn slow_factor_rejects_nonsense() {
        store().set_slow_factor(0.0);
    }
}
