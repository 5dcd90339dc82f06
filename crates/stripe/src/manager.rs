//! The stateful stripe manager over a flash array.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use reo_erasure::{CodecError, ReedSolomon};
use reo_flashsim::{ChunkHandle, DeviceId, FaultPlan, FlashArray, FlashError, StoredChunk};
use reo_sim::{ByteSize, FastMap, Layer, SimDuration, SimTime, Tracer};

use crate::layout::{PlacementPolicy, StripeLayout};
use crate::scheme::RedundancyScheme;

/// Identifier of a stripe within a [`StripeManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StripeId(u64);

impl StripeId {
    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StripeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe#{}", self.0)
    }
}

/// Errors from stripe-manager operations.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StripeError {
    /// A device-level error (full, failed, unknown chunk).
    Flash(FlashError),
    /// An erasure-coding error (should not occur for well-formed stripes).
    Codec(CodecError),
    /// More chunks of a stripe are lost than its redundancy tolerates.
    ObjectLost {
        /// The stripe that cannot be recovered.
        stripe: StripeId,
        /// Chunks lost in that stripe.
        lost: usize,
        /// Failures the stripe's scheme tolerates.
        tolerated: usize,
    },
    /// The layout references a stripe this manager does not know.
    UnknownStripe(StripeId),
    /// Objects must have a non-zero size.
    EmptyObject,
    /// A payload was supplied whose length disagrees with the object size.
    PayloadSizeMismatch {
        /// Declared object size.
        declared: u64,
        /// Supplied payload length.
        payload: u64,
    },
    /// No healthy device remains in the array.
    NoHealthyDevices,
    /// A serialized layout blob failed to parse (journal corruption that
    /// slipped past the record checksum, or a version mismatch).
    CorruptMetadata,
}

impl fmt::Display for StripeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StripeError::Flash(e) => write!(f, "flash error: {e}"),
            StripeError::Codec(e) => write!(f, "erasure codec error: {e}"),
            StripeError::ObjectLost {
                stripe,
                lost,
                tolerated,
            } => write!(
                f,
                "{stripe} lost {lost} chunks but tolerates only {tolerated}"
            ),
            StripeError::UnknownStripe(s) => write!(f, "unknown stripe {s}"),
            StripeError::EmptyObject => write!(f, "objects must be non-empty"),
            StripeError::PayloadSizeMismatch { declared, payload } => write!(
                f,
                "payload is {payload} bytes but object declares {declared}"
            ),
            StripeError::NoHealthyDevices => write!(f, "no healthy device remains"),
            StripeError::CorruptMetadata => write!(f, "serialized layout metadata is corrupt"),
        }
    }
}

impl Error for StripeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StripeError::Flash(e) => Some(e),
            StripeError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for StripeError {
    fn from(e: FlashError) -> Self {
        StripeError::Flash(e)
    }
}

impl From<CodecError> for StripeError {
    fn from(e: CodecError) -> Self {
        StripeError::Codec(e)
    }
}

/// How [`StripeManager::overwrite_chunk`] maintained redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ParityUpdate {
    /// No parity to maintain: the chunk (and any replicas) were simply
    /// rewritten.
    Rewrite,
    /// Delta parity-updating: read the old chunk + parity, patch parity
    /// with the XOR delta (Section II-B).
    Delta,
    /// Direct parity-updating: read the sibling data chunks and re-encode
    /// parity from scratch.
    Direct,
}

/// Health of an object's stripes after failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ObjectStatus {
    /// Every chunk intact; reads are served directly.
    Intact,
    /// Some chunks lost but every stripe is reconstructable.
    Degraded,
    /// At least one stripe lost more chunks than its redundancy tolerates.
    Lost,
}

/// Result of reading an object.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The object contents, when stored with a real payload.
    pub bytes: Option<Vec<u8>>,
    /// `true` if reconstruction (degraded read) was needed.
    pub degraded: bool,
    /// Simulated completion instant.
    pub completed_at: SimTime,
}

/// Byte accounting split into user data vs redundancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpaceUsage {
    /// Bytes holding user data (data chunks / primary replicas).
    pub user_bytes: ByteSize,
    /// Bytes holding parity or extra replicas.
    pub redundancy_bytes: ByteSize,
}

impl SpaceUsage {
    /// Total occupied bytes.
    pub fn total(self) -> ByteSize {
        self.user_bytes + self.redundancy_bytes
    }

    /// `user / (user + redundancy)`, the paper's space-efficiency metric
    /// (Section VI-B). Returns 1.0 when nothing is stored.
    pub fn space_efficiency(self) -> f64 {
        let total = self.total().as_bytes();
        if total == 0 {
            return 1.0;
        }
        self.user_bytes.as_bytes() as f64 / total as f64
    }
}

/// Where an object lives: the run of consecutively numbered stripes that
/// holds it.
///
/// Layouts are handed back from [`StripeManager::store_object`] and passed
/// to the read/status/rebuild/remove operations. They are intentionally
/// opaque beyond size and scheme.
#[derive(Clone, Debug)]
pub struct ObjectLayout {
    owner: u64,
    size: ByteSize,
    scheme: RedundancyScheme,
    first_stripe: StripeId,
    stripe_count: u32,
}

impl ObjectLayout {
    /// The opaque owner tag supplied at store time.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Logical object size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// The redundancy scheme requested at store time.
    pub fn scheme(&self) -> RedundancyScheme {
        self.scheme
    }

    /// The stripes holding the object, in object order.
    pub fn stripes(&self) -> impl DoubleEndedIterator<Item = StripeId> + Clone {
        let first = self.first_stripe.0;
        (first..first + u64::from(self.stripe_count)).map(StripeId)
    }
}

/// One stored chunk. Its role is its position: a stripe's data chunks (or
/// its primary replica) come first, in object order, then its parity
/// chunks (or its other replicas).
#[derive(Clone, Copy, Debug)]
struct StripeChunk {
    device: DeviceId,
    handle: ChunkHandle,
    len: ByteSize,
}

/// Everything the manager keeps about one stored object: the chunks of
/// all its stripes in one exactly-sized run, stripe after stripe. Every
/// stripe but the last is `width` chunks wide; the last holds the
/// remaining data chunks and a full set of redundancy chunks.
///
/// A chunk's handle is its stripe's id: handles are per device, and a
/// device holds one chunk of a stripe at most, so what an extent puts on
/// one device is the consecutive handles from its first stripe on.
///
/// `chunks` is [`StripeManager::place`] of the other fields and the
/// object's size and first stripe — which is all a layout blob records of
/// it.
#[derive(Clone, Debug)]
struct Extent {
    /// Effective scheme after clamping to the healthy-device count at
    /// store time.
    scheme: RedundancyScheme,
    /// The devices that were healthy at store time, bit `d` for device
    /// `d`: the extent is placed over exactly these.
    healthy: u64,
    /// Stored with a real payload? (The payload itself lives on the
    /// devices; this only records that the chunks carry bytes.)
    real: bool,
    chunks: Vec<StripeChunk>,
}

impl Extent {
    /// Healthy devices at store time: the chunks of a full stripe.
    fn width(&self) -> usize {
        self.healthy.count_ones() as usize
    }

    /// The data-shard count `m` the encoder used. Short stripes hold fewer
    /// real data chunks and were padded to `m` with phantom zero shards;
    /// decode must reuse the same geometry.
    fn encode_m(&self) -> usize {
        self.scheme.data_chunks_per_stripe(self.width())
    }

    fn stripe_count(&self) -> usize {
        self.chunks.len().div_ceil(self.width())
    }

    /// The devices the extent is placed over.
    fn devices(&self) -> impl Iterator<Item = DeviceId> + '_ {
        let devices = 0..u64::BITS as usize;
        devices.filter(|d| self.healthy >> d & 1 == 1).map(DeviceId)
    }

    /// How many of the extent's stripes come before the last — each of the
    /// extent's devices holds one chunk of every one of them — and the last
    /// stripe's chunks.
    fn split_last(&self) -> (u64, &[StripeChunk]) {
        let full = self.stripe_count() - 1;
        (full as u64, &self.chunks[full * self.width()..])
    }

    /// The stripe numbered `id` over its `chunks` of the extent.
    fn stripe<'a>(&'a self, id: StripeId, chunks: &'a [StripeChunk]) -> Stripe<'a> {
        let encode_m = self.encode_m();
        let (data, redundancy) = chunks.split_at(chunks.len() - (self.width() - encode_m));
        Stripe {
            id,
            scheme: self.scheme,
            encode_m,
            real: self.real,
            data,
            redundancy,
        }
    }

    /// The extent's stripes, numbered from `first`.
    fn stripes(&self, first: StripeId) -> impl Iterator<Item = Stripe<'_>> {
        self.chunks
            .chunks(self.width())
            .zip(first.0..)
            .map(|(chunks, id)| self.stripe(StripeId(id), chunks))
    }

    /// The stripe holding the object's `chunk_index`-th data chunk, and
    /// the chunk's index within it.
    ///
    /// # Panics
    ///
    /// Panics if the object has no such chunk.
    fn locate(&self, layout: &ObjectLayout, chunk_index: u64) -> (Stripe<'_>, usize) {
        let m = self.encode_m() as u64;
        let (stripe_no, local_j) = (chunk_index / m, (chunk_index % m) as usize);
        self.stripes(layout.first_stripe)
            .nth(usize::try_from(stripe_no).unwrap_or(usize::MAX))
            .filter(|stripe| local_j < stripe.data.len())
            .map(|stripe| (stripe, local_j))
            .unwrap_or_else(|| {
                panic!(
                    "chunk index {chunk_index} out of range for object {}",
                    layout.owner
                )
            })
    }

    /// The bytes the extent occupies, split into user data and redundancy.
    fn usage(&self) -> SpaceUsage {
        let mut usage = SpaceUsage::default();
        for stripe in self.stripes(StripeId(0)) {
            usage.user_bytes += stripe.data.iter().map(|c| c.len).sum();
            usage.redundancy_bytes += stripe.redundancy.iter().map(|c| c.len).sum();
        }
        usage
    }
}

/// How many chunks and stripes an object makes: what placing it loops
/// over, and what a layout blob is checked against before anything is
/// allocated for it.
#[derive(Clone, Copy, Debug)]
struct ExtentShape {
    /// Data chunks of a full stripe.
    m: u64,
    /// Parity chunks (or extra replicas) of every stripe.
    redundancy: u64,
    data_chunks: u64,
    stripes: u64,
}

impl ExtentShape {
    /// The shape of `size` bytes in `chunk_size` chunks under the effective
    /// `scheme` over `width` devices.
    fn of(size: ByteSize, chunk_size: ByteSize, scheme: RedundancyScheme, width: usize) -> Self {
        let m = scheme.data_chunks_per_stripe(width) as u64;
        let data_chunks = size.div_ceil(chunk_size);
        ExtentShape {
            m,
            redundancy: width as u64 - m,
            data_chunks,
            stripes: data_chunks.div_ceil(m),
        }
    }

    fn chunks(self) -> u64 {
        self.data_chunks + self.stripes * self.redundancy
    }
}

/// One stripe of an [`Extent`], borrowed from it.
#[derive(Clone, Copy, Debug)]
struct Stripe<'a> {
    id: StripeId,
    scheme: RedundancyScheme,
    encode_m: usize,
    real: bool,
    /// Data chunks in object order; the primary replica under replication.
    data: &'a [StripeChunk],
    /// Parity chunks in codec order; the other replicas under replication.
    redundancy: &'a [StripeChunk],
}

impl<'a> Stripe<'a> {
    fn chunks(&self) -> impl Iterator<Item = &'a StripeChunk> + Clone {
        self.data.iter().chain(self.redundancy)
    }

    fn width(&self) -> usize {
        self.data.len() + self.redundancy.len()
    }

    fn tolerated(&self) -> usize {
        self.scheme.failures_tolerated(self.width())
    }

    /// The codec's shard length: the stripe's longest chunk.
    fn shard_len(&self) -> ByteSize {
        self.chunks()
            .map(|c| c.len)
            .fold(ByteSize::ZERO, ByteSize::max)
    }

    /// Every chunk with its codec shard index: data shards first (a short
    /// stripe's phantom shards take the indices up to `encode_m`), then
    /// parity.
    fn codec_order(&self) -> impl Iterator<Item = (usize, &'a StripeChunk)> {
        let parity = (self.encode_m..).zip(self.redundancy);
        self.data.iter().enumerate().chain(parity)
    }

    fn object_lost(&self, lost: usize) -> StripeError {
        StripeError::ObjectLost {
            stripe: self.id,
            lost,
            tolerated: self.tolerated(),
        }
    }
}

/// Cache of constructed codecs keyed by `(data, parity)` geometry.
///
/// Building a codec inverts a Vandermonde block and precomputes all
/// per-coefficient multiply kernels — far too expensive to repeat per
/// stripe operation, and an array only ever uses a handful of geometries.
#[derive(Clone, Debug, Default)]
struct CodecCache(HashMap<(usize, usize), ReedSolomon>);

impl CodecCache {
    fn get(&mut self, m: usize, k: usize) -> Result<&ReedSolomon, CodecError> {
        use std::collections::hash_map::Entry;
        match self.0.entry((m, k)) {
            Entry::Occupied(e) => Ok(e.into_mut()),
            Entry::Vacant(e) => Ok(e.insert(ReedSolomon::new(m, k)?)),
        }
    }
}

/// Reusable encode buffers for stripes that hold real payloads. Stripe
/// operations clear and refill these, leaving capacity behind for the next
/// request, so encoding allocates nothing once capacities reach steady
/// state. Size-only (synthetic) stripes carry no bytes and never touch
/// them.
#[derive(Clone, Debug, Default)]
struct StripeScratch {
    /// Padded data shards fed to the encoder (also old/new chunk images on
    /// the delta path).
    shards: Vec<Vec<u8>>,
    /// Encoded parity rows.
    parity: Vec<Vec<u8>>,
}

/// Sizes `pool` to exactly `count` buffers of `len` zero bytes, reusing
/// whatever capacity previous requests left behind.
fn reset_buffers(pool: &mut Vec<Vec<u8>>, count: usize, len: usize) {
    pool.resize_with(count, Vec::new);
    for b in pool.iter_mut() {
        b.clear();
        b.resize(len, 0);
    }
}

/// Size-only reads one operation has issued to one device and not yet
/// charged: `count` chunks of `len` bytes, back to back.
#[derive(Clone, Copy, Debug, Default)]
struct ReadRun {
    len: ByteSize,
    count: u64,
}

/// Size-only writes one operation has issued to one device and not yet
/// made: `count` chunks of `len` bytes, handles `first ..`.
#[derive(Clone, Copy, Debug, Default)]
struct WriteRun {
    first: u64,
    len: ByteSize,
    count: u64,
}

/// Per-device state of the operation in flight, indexed by device; kept
/// between operations only for its capacity.
#[derive(Clone, Debug, Default)]
struct DeviceRuns {
    reads: Vec<ReadRun>,
    writes: Vec<WriteRun>,
    /// Bytes the extent being stored places on each device.
    write_bytes: Vec<ByteSize>,
    /// The healthy devices the extent being stored is placed over.
    healthy: Vec<DeviceId>,
}

/// The mutable halves of a [`StripeManager`] that stripe I/O needs,
/// borrowed disjointly from the extent map so per-request paths can hold
/// an `&Extent` straight out of the map, plus the timeline of the
/// operation in flight: every chunk operation is issued at `now`, and the
/// operation completes with the `latest` of them.
///
/// A size-only read on a device that vouches for its chunks
/// ([`reo_flashsim::FlashDevice::serves_read_runs`]) is only counted into
/// that device's [`ReadRun`]; the run is charged in closed form when a
/// chunk of another length joins it, before any per-chunk operation on
/// the device, and in [`StripeIo::finish`] — so each device sees its
/// operations in the order they were issued.
struct StripeIo<'a> {
    array: &'a mut FlashArray,
    transient_retries: &'a mut u64,
    codecs: &'a mut CodecCache,
    scratch: &'a mut StripeScratch,
    read_runs: &'a mut [ReadRun],
    now: SimTime,
    latest: SimTime,
}

/// A rebuild in flight: its stripe I/O, and the size-only writes it has
/// issued and not yet made, gathered per device the way [`StripeIo`]
/// gathers reads, so that what a spare holds of an object is rewritten as
/// one run. A write is gathered only while its device is sure to take it
/// (healthy, with room for the whole run), so a gathered write cannot be
/// rejected later. A device has reads or writes gathered, never both: the
/// one kind is made before a chunk of the other joins, and every gathered
/// write is made before any per-chunk operation on its device and in
/// [`Rebuild::finish`] — so each device sees its operations in the order
/// they were issued. Reads and overwrites never come here, and pay
/// nothing for it.
struct Rebuild<'a> {
    io: StripeIo<'a>,
    write_runs: &'a mut [WriteRun],
    /// The devices with writes gathered, bit `d` for device `d`.
    writing: u64,
}

/// Stores objects as variable-redundancy stripes on a [`FlashArray`].
///
/// See the crate docs for the model. One manager owns one array.
#[derive(Clone, Debug)]
pub struct StripeManager {
    array: FlashArray,
    chunk_size: ByteSize,
    placement: PlacementPolicy,
    next_stripe: u64,
    /// One extent per stored object, keyed by its first stripe.
    extents: FastMap<StripeId, Extent>,
    usage: SpaceUsage,
    transient_retries: u64,
    codecs: CodecCache,
    scratch: StripeScratch,
    runs: DeviceRuns,
}

/// Serialized size of a layout blob: owner, size, requested scheme,
/// effective scheme, first stripe, first handle (the first stripe again),
/// healthy set, real flag.
const LAYOUT_META_LEN: usize = 8 + 8 + 2 + 2 + 8 + 8 + 8 + 1;

/// Retries per chunk read before a transient timeout is escalated.
const TRANSIENT_RETRY_LIMIT: u32 = 3;
/// Backoff before the first retry; doubles on each subsequent one.
const TRANSIENT_BACKOFF: SimDuration = SimDuration::from_micros(500);

impl StripeManager {
    /// Creates a manager over `array` using `chunk_size` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(array: FlashArray, chunk_size: ByteSize) -> Self {
        Self::with_placement(array, chunk_size, PlacementPolicy::RoundRobin)
    }

    /// Creates a manager with an explicit parity placement policy (the
    /// RAID-4-style [`PlacementPolicy::Fixed`] exists for the wear-balance
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if the array has more than 64
    /// devices (an extent records the devices it was placed over as one
    /// bit each of a `u64`).
    pub fn with_placement(
        array: FlashArray,
        chunk_size: ByteSize,
        placement: PlacementPolicy,
    ) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be non-zero");
        assert!(
            array.device_count() <= u64::BITS as usize,
            "a stripe manager spans at most 64 devices, not {}",
            array.device_count()
        );
        let runs = DeviceRuns {
            reads: vec![ReadRun::default(); array.device_count()],
            writes: vec![WriteRun::default(); array.device_count()],
            ..DeviceRuns::default()
        };
        StripeManager {
            array,
            chunk_size,
            placement,
            next_stripe: 0,
            extents: FastMap::default(),
            usage: SpaceUsage::default(),
            transient_retries: 0,
            codecs: CodecCache::default(),
            scratch: StripeScratch::default(),
            runs,
        }
    }

    /// Splits the manager into the I/O half of an operation issued now,
    /// the extent map — so request paths can mutate devices/buffers while
    /// borrowing metadata in place — and the write runs a rebuild gathers.
    fn split_io(&mut self) -> (StripeIo<'_>, &FastMap<StripeId, Extent>, &mut [WriteRun]) {
        let now = self.array.clock().now();
        (
            StripeIo {
                array: &mut self.array,
                transient_retries: &mut self.transient_retries,
                codecs: &mut self.codecs,
                scratch: &mut self.scratch,
                read_runs: &mut self.runs.reads,
                now,
                latest: now,
            },
            &self.extents,
            &mut self.runs.writes,
        )
    }

    /// Chunk reads retried after a transient timeout, cumulatively.
    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    /// One round of seeded latent corruption across the array (see
    /// [`FaultPlan::inject_latent_corruption`]). Returns the number of
    /// chunks corrupted.
    pub fn inject_latent_corruption(&mut self, plan: &mut FaultPlan, rate: f64) -> usize {
        plan.inject_latent_corruption(&mut self.array, rate)
    }

    /// Arms per-read transient timeouts on every device (see
    /// [`FaultPlan::arm_transient_faults`]).
    pub fn arm_transient_faults(&mut self, plan: &mut FaultPlan, rate: f64) {
        plan.arm_transient_faults(&mut self.array, rate);
    }

    /// Scales one device's service times (see [`FaultPlan::slow_device`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or `factor` is not finite and
    /// positive.
    pub fn slow_device(&mut self, plan: &mut FaultPlan, id: DeviceId, factor: f64) {
        plan.slow_device(&mut self.array, id, factor);
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> ByteSize {
        self.chunk_size
    }

    /// Immutable access to the underlying array.
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Installs a shared tracer handle; stripe- and flash-layer spans are
    /// recorded through it from then on.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.array.set_tracer(tracer);
    }

    /// The tracer handle (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        self.array.tracer()
    }

    /// Current byte accounting.
    pub fn usage(&self) -> SpaceUsage {
        self.usage
    }

    /// Total free bytes across healthy devices.
    pub fn free_capacity(&self) -> ByteSize {
        self.array.healthy().map(|d| d.available()).sum()
    }

    /// Physical bytes an object of `size` will occupy under `scheme`,
    /// including padding of partial chunks in parity stripes and all
    /// replicas — what the cache manager budgets evictions against.
    ///
    /// The estimate uses the current healthy-device count, matching what
    /// [`StripeManager::store_object`] would do right now.
    pub fn physical_bytes_needed(&self, size: ByteSize, scheme: RedundancyScheme) -> ByteSize {
        let healthy = self.array.healthy().count();
        if healthy == 0 || size.is_zero() {
            return ByteSize::ZERO;
        }
        let scheme = clamp_scheme(scheme, healthy);
        match scheme {
            RedundancyScheme::Replication => size * healthy as u64,
            RedundancyScheme::Parity(k) => {
                if k == 0 {
                    return size;
                }
                let m = healthy - k as usize;
                let chunks = size.div_ceil(self.chunk_size);
                let stripes = chunks.div_ceil(m as u64);
                // Each stripe's parity chunks are as large as its largest
                // data chunk; approximate with full chunk size.
                size + self.chunk_size * (stripes * k as u64)
            }
        }
    }

    /// Fails a device in place ("shootdown").
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn fail_device(&mut self, id: DeviceId) {
        self.array.fail_device(id);
    }

    /// Replaces a device with a blank spare. Stripe metadata is retained;
    /// run the rebuild path to repopulate the spare.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_device(&mut self, id: DeviceId) {
        self.array.replace_device(id);
    }

    /// Stores an object and returns its layout.
    ///
    /// `owner` is an opaque tag echoed back in [`ObjectLayout::owner`];
    /// `payload`, when given, must be exactly `size` bytes and enables real
    /// byte-for-byte reads and reconstruction. Without it the stripes are
    /// synthetic (sizes and timing only).
    ///
    /// If devices have failed, placement uses only the surviving devices
    /// and the parity count is clamped to `healthy - 1`, so the cache keeps
    /// accepting objects "as long as there is at least one working device"
    /// (Section VI-C).
    ///
    /// # Errors
    ///
    /// * [`StripeError::EmptyObject`] — `size` is zero.
    /// * [`StripeError::PayloadSizeMismatch`] — payload length ≠ `size`.
    /// * [`StripeError::NoHealthyDevices`] — the whole array is down.
    /// * [`StripeError::Flash`] — a device rejected a write (e.g. full);
    ///   partially written chunks are rolled back.
    pub fn store_object(
        &mut self,
        owner: u64,
        size: ByteSize,
        scheme: RedundancyScheme,
        payload: Option<&[u8]>,
    ) -> Result<ObjectLayout, StripeError> {
        if size.is_zero() {
            return Err(StripeError::EmptyObject);
        }
        if let Some(p) = payload {
            if p.len() as u64 != size.as_bytes() {
                return Err(StripeError::PayloadSizeMismatch {
                    declared: size.as_bytes(),
                    payload: p.len() as u64,
                });
            }
        }
        let healthy = self
            .array
            .healthy()
            .fold(0u64, |set, d| set | 1 << d.id().0);
        if healthy == 0 {
            return Err(StripeError::NoHealthyDevices);
        }
        let scheme = clamp_scheme(scheme, healthy.count_ones() as usize);
        let first_stripe = self.next_stripe;
        let extent = Extent {
            scheme,
            healthy,
            real: payload.is_some(),
            chunks: self.place(size, scheme, healthy, first_stripe),
        };
        let stripe_count = extent.stripe_count() as u64;
        self.next_stripe += stripe_count;
        let DeviceRuns {
            healthy,
            write_bytes,
            ..
        } = &self.runs;

        // A size-only extent whose every device has room for its share goes
        // out as one run per device: no write can be rejected, so the order
        // between devices cannot show. Otherwise chunk by chunk in extent
        // order, which stops at exactly the chunk that does not fit.
        let now = self.array.clock().now();
        let in_runs = !extent.real
            && healthy
                .iter()
                .all(|&d| self.array.device(d).available() >= write_bytes[d.0]);
        let completed_at = if in_runs {
            let mut latest = now;
            for &d in healthy.iter() {
                let run = extent.chunks.iter().filter(|c| c.device == d);
                let done = self
                    .array
                    .device_mut(d)
                    .write_run(run.map(|c| (c.handle, c.len)), now)
                    .expect("a healthy device with room for the run");
                latest = latest.max(done);
            }
            self.array.complete_batch([latest])
        } else {
            let (mut io, ..) = self.split_io();
            let mut written = 0;
            let result = io.write_extent(&extent, StripeId(first_stripe), payload, &mut written);
            let latest = io.finish();
            if let Err(e) = result {
                // Roll back the chunks written; the stripe being assembled
                // stays consumed.
                for c in &extent.chunks[..written] {
                    self.array.device_mut(c.device).remove_chunk(c.handle);
                }
                self.next_stripe = first_stripe + (written / extent.width()) as u64 + 1;
                return Err(e);
            }
            self.array.complete_batch([latest])
        };
        self.array
            .tracer()
            .record_span(Layer::Stripe, "store", now, completed_at);

        self.charge_usage(&extent);
        self.extents.insert(StripeId(first_stripe), extent);
        Ok(ObjectLayout {
            owner,
            size,
            scheme,
            first_stripe: StripeId(first_stripe),
            stripe_count: u32::try_from(stripe_count).expect("a stored object's stripes fit a u32"),
        })
    }

    /// The chunks of an extent — a pure function of how its object was
    /// placed, so an extent reinstalled from a layout blob is the extent
    /// that was stored: `size` bytes under the effective `scheme`, stripe
    /// after stripe from `first_stripe`, data before redundancy, over the
    /// devices of the `healthy` set, every chunk under its stripe's id as
    /// its handle. Leaves those devices in `runs.healthy` and the bytes
    /// each of them receives in `runs.write_bytes`.
    fn place(
        &mut self,
        size: ByteSize,
        scheme: RedundancyScheme,
        healthy: u64,
        first_stripe: u64,
    ) -> Vec<StripeChunk> {
        let DeviceRuns {
            healthy: devices,
            write_bytes,
            ..
        } = &mut self.runs;
        devices.clear();
        devices.extend(
            (0..self.array.device_count())
                .filter(|d| healthy >> d & 1 == 1)
                .map(DeviceId),
        );
        let shape = ExtentShape::of(size, self.chunk_size, scheme, devices.len());

        let mut chunks = Vec::with_capacity(shape.chunks() as usize);
        write_bytes.clear();
        write_bytes.resize(self.array.device_count(), ByteSize::ZERO);
        for stripe_no in 0..shape.stripes {
            let handle = ChunkHandle::new(first_stripe + stripe_no);
            let mut place = |device: DeviceId, len: ByteSize| {
                write_bytes[device.0] += len;
                chunks.push(StripeChunk {
                    device,
                    handle,
                    len,
                });
            };
            let layout = StripeLayout::with_placement(
                first_stripe + stripe_no,
                scheme,
                devices.len(),
                self.placement,
            );
            let first_chunk = stripe_no * shape.m;
            let len_of = |j: u64| {
                let before = (first_chunk + j) * self.chunk_size.as_bytes();
                ByteSize::from_bytes(size.as_bytes() - before).min(self.chunk_size)
            };
            for j in 0..(shape.data_chunks - first_chunk).min(shape.m) {
                place(devices[layout.data_device(j as usize).0], len_of(j));
            }
            // Only an object's last chunk is short, so a stripe's first
            // data chunk is its longest: the length of its parity chunks,
            // and under replication the one chunk every replica copies.
            for p in 0..shape.redundancy as usize {
                place(devices[layout.parity_device(p).0], len_of(0));
            }
        }
        chunks
    }

    fn extent<'a>(
        extents: &'a FastMap<StripeId, Extent>,
        layout: &ObjectLayout,
    ) -> Result<&'a Extent, StripeError> {
        let extent = extents
            .get(&layout.first_stripe)
            .ok_or(StripeError::UnknownStripe(layout.first_stripe))?;
        debug_assert_eq!(extent.stripe_count(), layout.stripe_count as usize);
        Ok(extent)
    }

    /// The object's health, computed from chunk intactness. Free — no
    /// service time is charged (a metadata scan).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a removed
    /// stripe.
    pub fn object_status(&self, layout: &ObjectLayout) -> Result<ObjectStatus, StripeError> {
        let extent = Self::extent(&self.extents, layout)?;
        let mut degraded = false;
        for stripe in extent.stripes(layout.first_stripe) {
            match stripe_health_on(&self.array, &stripe) {
                StripeHealth::Intact => {}
                StripeHealth::Degraded(_) => degraded = true,
                StripeHealth::Lost(_) => return Ok(ObjectStatus::Lost),
            }
        }
        Ok(if degraded {
            ObjectStatus::Degraded
        } else {
            ObjectStatus::Intact
        })
    }

    /// Reads an object, reconstructing lost chunks on the fly when needed
    /// (the paper's on-demand degraded read, Section IV-D).
    ///
    /// # Errors
    ///
    /// * [`StripeError::ObjectLost`] — some stripe lost more chunks than
    ///   its redundancy tolerates.
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::Flash`] — unexpected device error.
    pub fn read_object(&mut self, layout: &ObjectLayout) -> Result<ReadOutcome, StripeError> {
        let retries_before = self.transient_retries;
        let (mut io, extents, _) = self.split_io();
        let now = io.now;
        let result = Self::extent(extents, layout)
            .and_then(|extent| io.read_extent(extent, layout.first_stripe));
        let latest = io.finish();
        let (mut bytes, degraded) = result?;

        let completed_at = self.array.complete_batch([latest]);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "read", now, completed_at);
        if degraded {
            // On-the-fly reconstruction served this read: flag the event
            // on the request's trace tree.
            self.array.tracer().annotate("read-repair", completed_at);
        }
        if self.transient_retries > retries_before {
            self.array.tracer().annotate("retry", completed_at);
        }
        if let Some(bytes) = &mut bytes {
            bytes.truncate(layout.size.as_bytes() as usize);
        }
        Ok(ReadOutcome {
            bytes,
            degraded,
            completed_at,
        })
    }

    /// Overwrites one data chunk of an object in place, maintaining
    /// parity with whichever update strategy costs fewer chunk reads
    /// (Section II-B of the paper: direct re-encoding reads the `m - 1`
    /// sibling data chunks; delta patching reads the old chunk plus the
    /// `k` parity chunks).
    ///
    /// `chunk_index` counts the object's data chunks from zero in object
    /// order. `new_payload`, when given, must match the chunk's stored
    /// length; omit it for synthetic (timing-only) stripes.
    ///
    /// Returns the strategy used and the completion instant.
    ///
    /// # Errors
    ///
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::ObjectLost`] — the stripe has lost chunks and no
    ///   update strategy can run without them (overwrite requires an
    ///   intact stripe).
    /// * [`StripeError::PayloadSizeMismatch`] — payload length differs
    ///   from the chunk's.
    /// * [`StripeError::Flash`] — device-level failures.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_index` is out of range for the layout.
    pub fn overwrite_chunk(
        &mut self,
        layout: &ObjectLayout,
        chunk_index: u64,
        new_payload: Option<&[u8]>,
    ) -> Result<(ParityUpdate, SimTime), StripeError> {
        let (mut io, extents, _) = self.split_io();
        let now = io.now;
        let result = Self::extent(extents, layout).and_then(|extent| {
            let (stripe, local_j) = extent.locate(layout, chunk_index);
            io.overwrite(&stripe, local_j, new_payload)
        });
        let latest = io.finish();
        let method = result?;

        let completed_at = self.array.complete_batch([latest]);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "overwrite", now, completed_at);
        Ok((method, completed_at))
    }

    /// Overwrites the data chunks `chunks` of an object (object order,
    /// inclusive) size-only, one [`StripeManager::overwrite_chunk`] after
    /// another — chunk *i + 1* starts at the clock chunk *i* left. Returns
    /// the completion instant of the last chunk (the current instant for an
    /// empty range).
    ///
    /// # Errors
    ///
    /// As [`StripeManager::overwrite_chunk`]; chunks before the failing one
    /// stay overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the range reaches past the layout's last data chunk.
    pub fn overwrite_chunks(
        &mut self,
        layout: &ObjectLayout,
        chunks: std::ops::RangeInclusive<u64>,
    ) -> Result<SimTime, StripeError> {
        let mut done = self.array.clock().now();
        for chunk_index in chunks {
            (_, done) = self.overwrite_chunk(layout, chunk_index, None)?;
        }
        Ok(done)
    }

    /// Rebuilds every lost chunk of an object back onto its (replaced)
    /// devices. Reads `m` survivors per damaged stripe, re-encodes, and
    /// writes the missing chunks. No-op for intact objects.
    ///
    /// Returns the completion instant.
    ///
    /// # Errors
    ///
    /// * [`StripeError::ObjectLost`] — a stripe is beyond recovery.
    /// * [`StripeError::UnknownStripe`] — stale layout.
    /// * [`StripeError::Flash`] — the rebuild target device rejected a
    ///   write (e.g. it is still failed).
    pub fn rebuild_object(&mut self, layout: &ObjectLayout) -> Result<SimTime, StripeError> {
        let (io, extents, write_runs) = self.split_io();
        let now = io.now;
        let mut rebuild = Rebuild {
            io,
            write_runs,
            writing: 0,
        };
        let result = Self::extent(extents, layout).and_then(|extent| {
            for stripe in extent.stripes(layout.first_stripe) {
                match stripe_health_on(rebuild.io.array, &stripe) {
                    StripeHealth::Intact => {}
                    StripeHealth::Lost(lost) => return Err(stripe.object_lost(lost)),
                    StripeHealth::Degraded(_) => rebuild.stripe(&stripe)?,
                }
            }
            Ok(())
        });
        let latest = rebuild.finish();
        result?;

        let completed_at = self.array.complete_batch([latest]);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "rebuild", now, completed_at);
        Ok(completed_at)
    }

    /// Corrupts one data chunk of an object in place (a partial flash
    /// failure — a worn-out block — rather than a whole-device loss). The
    /// object becomes [`ObjectStatus::Degraded`] (or
    /// [`ObjectStatus::Lost`] if its redundancy cannot cover the damage).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] for stale layouts.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_index` is out of range.
    pub fn corrupt_data_chunk(
        &mut self,
        layout: &ObjectLayout,
        chunk_index: u64,
    ) -> Result<(), StripeError> {
        let (stripe, local_j) = Self::extent(&self.extents, layout)?.locate(layout, chunk_index);
        let chunk = stripe.data[local_j];
        self.array
            .device_mut(chunk.device)
            .corrupt_chunk(chunk.handle);
        Ok(())
    }

    /// Removes an object, releasing all its chunks and accounting. Chunks
    /// on failed devices are forgotten (their space died with the device).
    ///
    /// Stale layouts (already removed) are a no-op.
    pub fn remove_object(&mut self, layout: &ObjectLayout) {
        if let Some(extent) = self.extents.remove(&layout.first_stripe) {
            let (full, last) = extent.split_last();
            if full > 0 {
                let first = ChunkHandle::new(layout.first_stripe.0);
                for d in extent.devices() {
                    self.array.device_mut(d).remove_run(first, full);
                }
            }
            for c in last {
                self.array.device_mut(c.device).remove_chunk(c.handle);
            }
            self.release_usage(&extent);
        }
    }

    fn charge_usage(&mut self, extent: &Extent) {
        let stored = extent.usage();
        self.usage.user_bytes += stored.user_bytes;
        self.usage.redundancy_bytes += stored.redundancy_bytes;
    }

    fn release_usage(&mut self, extent: &Extent) {
        let freed = extent.usage();
        self.usage.user_bytes = self.usage.user_bytes.saturating_sub(freed.user_bytes);
        self.usage.redundancy_bytes = self
            .usage
            .redundancy_bytes
            .saturating_sub(freed.redundancy_bytes);
    }

    /// Number of live stripes.
    pub fn stripe_count(&self) -> usize {
        self.extents.values().map(Extent::stripe_count).sum()
    }

    /// Serializes how an object was placed into an opaque blob for the
    /// metadata journal: owner, size, requested and effective scheme, first
    /// stripe, first chunk handle (a chunk's handle is its stripe's id, so
    /// the first stripe again), the devices healthy at store time and
    /// whether the chunks carry bytes. The extent is a function of these
    /// ([`StripeManager::install_object_meta`] recomputes it), so the blob
    /// is the same few bytes whatever the object's size.
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a stripe
    /// this manager no longer knows.
    pub fn export_object_meta(&self, layout: &ObjectLayout) -> Result<Vec<u8>, StripeError> {
        let mut out = Vec::new();
        self.export_object_meta_into(layout, &mut out)?;
        Ok(out)
    }

    /// [`StripeManager::export_object_meta`], appended to `out` (the
    /// journal's staging buffer) instead of returned in a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`], leaving `out` untouched.
    pub fn export_object_meta_into(
        &self,
        layout: &ObjectLayout,
        out: &mut Vec<u8>,
    ) -> Result<(), StripeError> {
        fn scheme_bytes(scheme: RedundancyScheme) -> [u8; 2] {
            match scheme {
                RedundancyScheme::Parity(k) => [0, k],
                RedundancyScheme::Replication => [1, 0],
            }
        }
        let extent = Self::extent(&self.extents, layout)?;
        let mut blob = [0u8; LAYOUT_META_LEN];
        blob[0..8].copy_from_slice(&layout.owner.to_le_bytes());
        blob[8..16].copy_from_slice(&layout.size.as_bytes().to_le_bytes());
        blob[16..18].copy_from_slice(&scheme_bytes(layout.scheme));
        blob[18..20].copy_from_slice(&scheme_bytes(extent.scheme));
        blob[20..28].copy_from_slice(&layout.first_stripe.0.to_le_bytes());
        blob[28..36].copy_from_slice(&extent.chunks[0].handle.as_u64().to_le_bytes());
        blob[36..44].copy_from_slice(&extent.healthy.to_le_bytes());
        blob[44] = extent.real as u8;
        out.extend_from_slice(&blob);
        Ok(())
    }

    /// Re-registers an object from a blob produced by
    /// [`StripeManager::export_object_meta`]: places its extent again,
    /// folds the chunks back into the byte accounting, bumps the stripe
    /// allocator past every installed identifier, and returns the
    /// reconstructed layout. Chunk *contents* are not touched —
    /// they either survived on the array or are found missing by the
    /// post-recovery audit.
    ///
    /// Installing an object whose first stripe is already registered
    /// replaces that object's metadata (last write wins, matching journal
    /// replay order).
    ///
    /// # Errors
    ///
    /// [`StripeError::CorruptMetadata`] if the blob does not parse, or
    /// names a placement [`StripeManager::store_object`] cannot have made
    /// on this array: an empty object, no healthy device or one the array
    /// lacks, an effective scheme that is not the requested one clamped to
    /// the healthy set, a first handle that is not the first stripe,
    /// identifiers that overflow, or more full stripes than the array has
    /// room for.
    pub fn install_object_meta(&mut self, bytes: &[u8]) -> Result<ObjectLayout, StripeError> {
        use StripeError::CorruptMetadata as Corrupt;
        fn require(ok: bool) -> Result<(), StripeError> {
            ok.then_some(()).ok_or(Corrupt)
        }
        let blob: &[u8; LAYOUT_META_LEN] = bytes.try_into().map_err(|_| Corrupt)?;
        let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"));
        let scheme_at = |at: usize| match (blob[at], blob[at + 1]) {
            (0, k) => Ok(RedundancyScheme::Parity(k)),
            (1, 0) => Ok(RedundancyScheme::Replication),
            _ => Err(Corrupt),
        };
        let owner = u64_at(0);
        let size = ByteSize::from_bytes(u64_at(8));
        let (requested, scheme) = (scheme_at(16)?, scheme_at(18)?);
        let first_stripe = u64_at(20);
        require(u64_at(28) == first_stripe)?;
        let healthy = u64_at(36);
        require(blob[44] <= 1)?;
        let real = blob[44] == 1;

        let width = healthy.count_ones() as usize;
        let top_device = (u64::BITS - healthy.leading_zeros()) as usize;
        require(!size.is_zero() && width > 0 && top_device <= self.array.device_count())?;
        require(scheme == clamp_scheme(requested, width))?;
        let shape = ExtentShape::of(size, self.chunk_size, scheme, width);
        // Every stripe but the last is full, so those alone occupy
        // `width` whole chunks each: more of them than the array has bytes
        // for were never stored, and must not be allocated for.
        let capacity: u128 = (0..self.array.device_count())
            .map(|d| u128::from(self.array.device(DeviceId(d)).config().capacity.as_bytes()))
            .sum();
        let full_stripes = u128::from(shape.stripes - 1) * width as u128;
        require(full_stripes * u128::from(self.chunk_size.as_bytes()) <= capacity)?;
        let stripe_count = u32::try_from(shape.stripes).map_err(|_| Corrupt)?;
        let next_stripe = first_stripe.checked_add(shape.stripes).ok_or(Corrupt)?;

        let extent = Extent {
            scheme,
            healthy,
            real,
            chunks: self.place(size, scheme, healthy, first_stripe),
        };
        let (full, last) = extent.split_last();
        for d in extent.devices() {
            let first = ChunkHandle::new(first_stripe);
            self.array.device_mut(d).note_referenced_run(first, full);
        }
        for c in last {
            self.array.device_mut(c.device).note_referenced(c.handle);
        }
        let first_stripe = StripeId(first_stripe);
        if let Some(old) = self.extents.remove(&first_stripe) {
            self.release_usage(&old);
        }
        self.charge_usage(&extent);
        self.next_stripe = self.next_stripe.max(next_stripe);
        self.extents.insert(first_stripe, extent);
        Ok(ObjectLayout {
            owner,
            size,
            scheme: requested,
            first_stripe,
            stripe_count,
        })
    }

    /// Simulates the DRAM side of a power loss: every piece of in-memory
    /// stripe metadata (extents, byte accounting, the allocator cursor)
    /// vanishes. The flash array — the durable medium — is untouched.
    pub fn simulate_crash(&mut self) {
        self.extents.clear();
        self.usage = SpaceUsage::default();
        self.next_stripe = 0;
    }

    /// Every `(device, first handle, count)` range live stripe metadata
    /// references — one per extent and device — sorted, overlaps kept.
    fn chunk_refs(&self) -> Vec<(DeviceId, u64, u64)> {
        let mut refs = Vec::with_capacity(self.extents.len() * self.array.device_count());
        for (first, extent) in &self.extents {
            let (full, last) = extent.split_last();
            refs.extend(extent.devices().filter_map(|d| {
                let count = full + u64::from(last.iter().any(|c| c.device == d));
                (count > 0).then_some((d, first.0, count))
            }));
        }
        refs.sort_unstable();
        refs
    }

    /// Every `(device, handle)` pair referenced by live stripe metadata,
    /// sorted and deduplicated.
    pub fn referenced_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = self
            .chunk_refs()
            .into_iter()
            .flat_map(|(d, first, count)| {
                (first..first + count).map(move |h| (d, ChunkHandle::new(h)))
            })
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// `(device, handle)` pairs claimed by more than one stripe chunk — a
    /// violation of the no-double-allocated-chunk invariant. Empty on a
    /// consistent manager.
    pub fn double_allocated_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        // The ranges are sorted by device and start, so a handle is claimed
        // twice where a range starts before an earlier one on its device
        // has ended; `told` keeps each such handle to one mention.
        let mut dup = Vec::new();
        let (mut on, mut covered, mut told) = (None, 0, 0);
        for (d, first, count) in self.chunk_refs() {
            if on != Some(d) {
                (on, covered, told) = (Some(d), 0, 0);
            }
            let end = first + count;
            let twice = first.max(told)..end.min(covered);
            dup.extend(twice.clone().map(|h| (d, ChunkHandle::new(h))));
            told = told.max(twice.end);
            covered = covered.max(end);
        }
        dup
    }

    /// Removes every chunk on the array that no live stripe references —
    /// the orphans left behind by writes whose metadata never reached the
    /// journal before a crash, or by removals whose chunk frees raced the
    /// crash. Returns how many chunks were collected.
    pub fn remove_unreferenced_chunks(&mut self) -> usize {
        // Both sides are sorted ranges: one pass over each device's chunks
        // with a cursor into the references, freeing what lies between.
        let referenced = self.chunk_refs();
        let mut refs = referenced.iter().peekable();
        let mut removed = 0;
        for id in (0..self.array.device_count()).map(DeviceId) {
            let device = self.array.device_mut(id);
            for (first, count) in device.chunk_runs() {
                let (mut at, end) = (first.as_u64(), first.as_u64() + count);
                while at < end {
                    while refs
                        .next_if(|&&(d, first, count)| (d, first + count) <= (id, at))
                        .is_some()
                    {}
                    at = match refs.peek() {
                        Some(&&(d, first, count)) if d == id && first <= at => {
                            end.min(first + count)
                        }
                        next => {
                            let referenced_from = match next {
                                Some(&&(d, first, _)) if d == id => end.min(first),
                                _ => end,
                            };
                            device.remove_run(ChunkHandle::new(at), referenced_from - at);
                            removed += (referenced_from - at) as usize;
                            referenced_from
                        }
                    };
                }
            }
        }
        removed
    }
}

impl StripeIo<'_> {
    fn completes(&mut self, done: SimTime) {
        self.latest = self.latest.max(done);
    }

    /// Charges the reads gathered for `device`, if any.
    fn flush_reads(&mut self, device: DeviceId) {
        let run = &mut self.read_runs[device.0];
        if run.count > 0 {
            let done = self
                .array
                .device_mut(device)
                .read_run(run.count, run.len, self.now);
            run.count = 0;
            self.completes(done);
        }
    }

    /// Charges every gathered read and returns the instant the operation
    /// completes. Runs on the error path too: a failed operation leaves
    /// the devices exactly as its chunk operations, issued one by one up
    /// to the failure, would.
    fn finish(mut self) -> SimTime {
        for device in 0..self.read_runs.len() {
            self.flush_reads(DeviceId(device));
        }
        self.latest
    }

    /// Reads a chunk of a size-only stripe: counted into its device's run
    /// while the device vouches for its chunks, else a per-chunk read.
    fn read_sized(&mut self, c: &StripeChunk) -> Result<(), FlashError> {
        let device = self.array.device(c.device);
        if !device.serves_read_runs() {
            return self.read_chunk(c).map(drop);
        }
        debug_assert!(
            device.holds_size_only(c.handle, c.len),
            "{} does not hold {} as {} size-only bytes",
            c.device,
            c.handle,
            c.len
        );
        if self.read_runs[c.device.0].len != c.len {
            self.flush_reads(c.device);
            self.read_runs[c.device.0].len = c.len;
        }
        self.read_runs[c.device.0].count += 1;
        Ok(())
    }

    /// Reads a chunk through the device's per-chunk path, absorbing
    /// transient timeouts.
    fn read_chunk(&mut self, c: &StripeChunk) -> Result<StoredChunk, FlashError> {
        self.flush_reads(c.device);
        let (chunk, done) = read_chunk_retrying(
            self.array,
            self.transient_retries,
            c.device,
            c.handle,
            self.now,
        )?;
        self.completes(done);
        Ok(chunk)
    }

    /// Reads a chunk of a stripe: its contents when the stripe is `real`.
    fn read(&mut self, real: bool, c: &StripeChunk) -> Result<Option<StoredChunk>, FlashError> {
        if real {
            self.read_chunk(c).map(Some)
        } else {
            self.read_sized(c).map(|()| None)
        }
    }

    fn write_chunk(&mut self, c: &StripeChunk, stored: StoredChunk) -> Result<(), FlashError> {
        self.flush_reads(c.device);
        let done = self
            .array
            .device_mut(c.device)
            .write_chunk(c.handle, stored, self.now)?;
        self.completes(done);
        Ok(())
    }

    /// Writes every chunk of a fresh extent one by one in extent order,
    /// encoding parity from `payload` when there is one. `written` counts
    /// the chunks on flash, for the caller's rollback.
    fn write_extent(
        &mut self,
        extent: &Extent,
        first: StripeId,
        payload: Option<&[u8]>,
        written: &mut usize,
    ) -> Result<(), StripeError> {
        let image = |c: &StripeChunk, bytes: Option<&[u8]>| match bytes {
            Some(b) => StoredChunk::real(Bytes::copy_from_slice(&b[..c.len.as_bytes() as usize])),
            None => StoredChunk::synthetic(c.len),
        };
        // Where the next data chunk's bytes start in the payload.
        let mut at = 0;
        for stripe in extent.stripes(first) {
            let stripe_bytes = payload.map(|p| &p[at..]);
            for c in stripe.data {
                self.write_chunk(c, image(c, payload.map(|p| &p[at..])))?;
                *written += 1;
                at += c.len.as_bytes() as usize;
            }
            if let (Some(bytes), RedundancyScheme::Parity(1..=u8::MAX)) =
                (stripe_bytes, stripe.scheme)
            {
                let k = stripe.redundancy.len();
                // Pad each data chunk to the shard length in the scratch
                // pool and encode into reusable parity buffers. The codec
                // wants exactly m data shards; rows past the stripe's real
                // chunks stay zero (phantom tail shards).
                let plen = stripe.shard_len().as_bytes() as usize;
                reset_buffers(&mut self.scratch.shards, stripe.encode_m, plen);
                self.scratch.parity.resize_with(k, Vec::new);
                let mut rest = bytes;
                for (shard, c) in self.scratch.shards.iter_mut().zip(stripe.data) {
                    let (piece, tail) = rest.split_at(c.len.as_bytes() as usize);
                    shard[..piece.len()].copy_from_slice(piece);
                    rest = tail;
                }
                let rs = self.codecs.get(stripe.encode_m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
            for (p, c) in stripe.redundancy.iter().enumerate() {
                let stored = match stripe_bytes {
                    // A replica copies the stripe's one data chunk.
                    Some(bytes) if stripe.scheme.is_replication() => image(c, Some(bytes)),
                    Some(_) => StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p])),
                    None => image(c, None),
                };
                self.write_chunk(c, stored)?;
                *written += 1;
            }
        }
        Ok(())
    }

    /// Reads every stripe of an extent, degraded ones by reconstruction.
    /// Returns the assembled bytes of a real extent and whether any stripe
    /// was degraded.
    fn read_extent(
        &mut self,
        extent: &Extent,
        first: StripeId,
    ) -> Result<(Option<Vec<u8>>, bool), StripeError> {
        let mut degraded = false;
        // Bytes of the stripes that yielded any; `None` until one does.
        let mut assembled: Option<Vec<u8>> = None;
        // No device anywhere holds a chunk awaiting rebuild: no stripe
        // needs a health probe.
        let array_intact = self.array.all_chunks_intact();
        for stripe in extent.stripes(first) {
            let health = if array_intact {
                debug_assert!(stripe.chunks().all(|c| chunk_intact_on(self.array, c)));
                StripeHealth::Intact
            } else {
                stripe_health_on(self.array, &stripe)
            };
            match health {
                StripeHealth::Lost(lost) => return Err(stripe.object_lost(lost)),
                StripeHealth::Intact => self.read_stripe_data(&stripe, &mut assembled)?,
                StripeHealth::Degraded(_) => {
                    degraded = true;
                    self.degraded_read_stripe(&stripe, &mut assembled)?;
                }
            }
        }
        Ok((assembled, degraded))
    }

    /// Reads the data chunks (or the primary replica) of an intact stripe,
    /// appending their bytes to `assembled` if all of them carry bytes.
    fn read_stripe_data(
        &mut self,
        stripe: &Stripe<'_>,
        assembled: &mut Option<Vec<u8>>,
    ) -> Result<(), StripeError> {
        if !stripe.real {
            for c in stripe.data {
                self.read_sized(c)?;
            }
            return Ok(());
        }
        let mut bytes = Vec::new();
        let mut whole = true;
        for c in stripe.data {
            // A chunk overwritten size-only inside a real stripe has no
            // bytes, and then the stripe yields none.
            match self.read_chunk(c)?.payload().as_bytes() {
                Some(b) => bytes.extend_from_slice(b),
                None => whole = false,
            }
        }
        if whole {
            assembled.get_or_insert_with(Vec::new).append(&mut bytes);
        }
        Ok(())
    }

    /// Degraded read: read enough surviving chunks to reconstruct the
    /// stripe's data, decode if payloads are real.
    fn degraded_read_stripe(
        &mut self,
        stripe: &Stripe<'_>,
        assembled: &mut Option<Vec<u8>>,
    ) -> Result<(), StripeError> {
        if stripe.scheme.is_replication() {
            // Any surviving replica serves the read.
            let replica = stripe
                .chunks()
                .find(|c| chunk_intact_on(self.array, c))
                .expect("degraded (not lost) stripe has a survivor");
            if let Some(chunk) = self.read(stripe.real, replica)? {
                if let Some(b) = chunk.payload().as_bytes() {
                    assembled.get_or_insert_with(Vec::new).extend_from_slice(b);
                }
            }
            return Ok(());
        }

        // Parity stripe: walk the chunks in codec order, read the first
        // `m` survivors (a short stripe's phantom zero shards count as
        // read), reconstruct. Size-only stripes carry no bytes: they are
        // charged the same chunk reads and build nothing.
        let (codec_m, m_actual) = (stripe.encode_m, stripe.data.len());
        let parity_count = stripe.redundancy.len();
        let parity_len = stripe.shard_len();
        let mut shards = if stripe.real {
            shard_slots(codec_m, m_actual, parity_count, parity_len)
        } else {
            Vec::new()
        };
        let mut reads_done = 0usize;
        let mut missing_real = 0usize;
        for (idx, c) in stripe.codec_order() {
            if !chunk_intact_on(self.array, c) {
                missing_real += 1;
            } else if reads_done + (codec_m - m_actual) < codec_m {
                reads_done += 1;
                if let Some(chunk) = self.read(stripe.real, c)? {
                    shards[idx] = Some(padded_shard(&chunk, parity_len));
                }
            }
        }
        debug_assert!(missing_real <= parity_count);

        if !stripe.real {
            // Synthetic mode: timing already charged; nothing to decode.
            return Ok(());
        }

        let rs = self.codecs.get(codec_m, parity_count)?;
        rs.reconstruct(&mut shards)?;

        // Assemble data bytes in order, trimming to recorded lengths.
        let out = assembled.get_or_insert_with(Vec::new);
        for (shard, c) in shards.iter().zip(stripe.data) {
            let shard = shard.as_ref().expect("reconstructed");
            out.extend_from_slice(&shard[..c.len.as_bytes() as usize]);
        }
        Ok(())
    }

    /// Overwrites the `local_j`-th data chunk of an intact stripe.
    fn overwrite(
        &mut self,
        stripe: &Stripe<'_>,
        local_j: usize,
        new_payload: Option<&[u8]>,
    ) -> Result<ParityUpdate, StripeError> {
        // Overwrites need the stripe intact: reconstructing *and*
        // updating in one step is the rebuild path's job.
        if let StripeHealth::Degraded(lost) | StripeHealth::Lost(lost) =
            stripe_health_on(self.array, stripe)
        {
            return Err(stripe.object_lost(lost));
        }
        let target = &stripe.data[local_j];
        if let Some(p) = new_payload {
            if p.len() as u64 != target.len.as_bytes() {
                return Err(StripeError::PayloadSizeMismatch {
                    declared: target.len.as_bytes(),
                    payload: p.len() as u64,
                });
            }
        }
        let image = |c: &StripeChunk| match new_payload {
            Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
            None => StoredChunk::synthetic(c.len),
        };
        match stripe.scheme {
            RedundancyScheme::Replication => {
                // Rewrite every replica with the new contents.
                for c in stripe.chunks() {
                    self.write_chunk(c, image(c))?;
                }
                Ok(ParityUpdate::Rewrite)
            }
            RedundancyScheme::Parity(0) => {
                self.write_chunk(target, image(target))?;
                Ok(ParityUpdate::Rewrite)
            }
            RedundancyScheme::Parity(_) => self.overwrite_with_parity(stripe, local_j, new_payload),
        }
    }

    /// The parity-maintaining overwrite: picks delta vs direct by read
    /// count, reads what it needs, recomputes parity, writes back.
    ///
    /// On real-payload stripes all encode inputs and outputs live in the
    /// manager's scratch pool, whose capacity carries over between calls;
    /// the `Bytes` of each chunk written are still allocated. Size-only
    /// stripes are charged the same reads and writes and touch no buffer.
    fn overwrite_with_parity(
        &mut self,
        stripe: &Stripe<'_>,
        local_j: usize,
        new_payload: Option<&[u8]>,
    ) -> Result<ParityUpdate, StripeError> {
        let target = &stripe.data[local_j];
        let k = stripe.redundancy.len();
        let m_actual = stripe.data.len();
        let plen = stripe.shard_len().as_bytes() as usize;
        let real = stripe.real;

        // Section II-B's rule: the method with the fewest chunk reads.
        let delta_reads = 1 + k;
        let direct_reads = m_actual.saturating_sub(1);
        let use_delta = delta_reads <= direct_reads;

        if use_delta {
            // Read the old chunk and all parity chunks, padding each into
            // scratch; patch parity in place with the fused delta kernel.
            // scratch.shards[0] holds the old image, [1] the new one.
            if real {
                reset_buffers(&mut self.scratch.shards, 2, plen);
                reset_buffers(&mut self.scratch.parity, k, plen);
            }
            if let Some(old_chunk) = self.read(real, target)? {
                let b = old_chunk.payload().as_bytes().expect("real stripe");
                self.scratch.shards[0][..b.len()].copy_from_slice(b);
                let new = new_payload.expect("real stripes get real payloads");
                self.scratch.shards[1][..new.len()].copy_from_slice(new);
            }
            for (p, c) in stripe.redundancy.iter().enumerate() {
                if let Some(chunk) = self.read(real, c)? {
                    let b = chunk.payload().as_bytes().expect("real stripe");
                    self.scratch.parity[p][..b.len()].copy_from_slice(b);
                }
            }
            if real {
                let rs = self.codecs.get(stripe.encode_m, k)?;
                let (old, new) = (&self.scratch.shards[0], &self.scratch.shards[1]);
                reo_erasure::delta::apply_delta_update(
                    rs,
                    local_j,
                    old,
                    new,
                    &mut self.scratch.parity,
                )?;
            }
        } else {
            // Read the sibling data chunks and re-encode from scratch.
            // Rows past `m_actual` stay zero — the phantom shards of a
            // short stripe.
            if real {
                reset_buffers(&mut self.scratch.shards, stripe.encode_m, plen);
                self.scratch.parity.resize_with(k, Vec::new);
            }
            for (j, c) in stripe.data.iter().enumerate() {
                if j == local_j {
                    if let (true, Some(p)) = (real, new_payload) {
                        self.scratch.shards[j][..p.len()].copy_from_slice(p);
                    }
                    continue;
                }
                if let Some(chunk) = self.read(real, c)? {
                    if let Some(b) = chunk.payload().as_bytes() {
                        self.scratch.shards[j][..b.len()].copy_from_slice(b);
                    }
                }
            }
            if real {
                let rs = self.codecs.get(stripe.encode_m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
        }

        // Write the new data chunk and the refreshed parity chunks.
        let stored = match new_payload {
            Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
            None => StoredChunk::synthetic(target.len),
        };
        self.write_chunk(target, stored)?;
        for (p, c) in stripe.redundancy.iter().enumerate() {
            let stored = if real {
                StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            self.write_chunk(c, stored)?;
        }

        Ok(if use_delta {
            ParityUpdate::Delta
        } else {
            ParityUpdate::Direct
        })
    }
}

impl Rebuild<'_> {
    /// Makes the writes gathered for `device`, if any.
    fn flush_writes(&mut self, device: DeviceId) {
        if self.writing >> device.0 & 1 == 1 {
            self.writing &= !(1 << device.0);
            let run = std::mem::take(&mut self.write_runs[device.0]);
            let handles = (run.first..run.first + run.count).map(ChunkHandle::new);
            let done = self
                .io
                .array
                .device_mut(device)
                .write_run(handles.zip(std::iter::repeat(run.len)), self.io.now)
                .expect("a healthy device with room for the run");
            self.io.completes(done);
        }
    }

    /// Makes every gathered write, charges every gathered read, and
    /// returns the instant the rebuild completes — on the error path too,
    /// as [`StripeIo::finish`].
    fn finish(mut self) -> SimTime {
        while self.writing != 0 {
            self.flush_writes(DeviceId(self.writing.trailing_zeros() as usize));
        }
        self.io.finish()
    }

    fn read(&mut self, real: bool, c: &StripeChunk) -> Result<Option<StoredChunk>, FlashError> {
        self.flush_writes(c.device);
        self.io.read(real, c)
    }

    fn write_chunk(&mut self, c: &StripeChunk, stored: StoredChunk) -> Result<(), FlashError> {
        self.flush_writes(c.device);
        self.io.write_chunk(c, stored)
    }

    /// Writes a size-only chunk: gathered into its device's run while the
    /// device is sure to take it, else written at once.
    fn write_sized(&mut self, c: &StripeChunk) -> Result<(), FlashError> {
        let run = self.write_runs[c.device.0];
        if run.len != c.len || run.first + run.count != c.handle.as_u64() {
            self.flush_writes(c.device);
        }
        let gathered = self.write_runs[c.device.0].count;
        let device = self.io.array.device(c.device);
        if !device.is_healthy() || device.available() < c.len * (gathered + 1) {
            return self.write_chunk(c, StoredChunk::synthetic(c.len));
        }
        self.io.flush_reads(c.device);
        self.writing |= 1 << c.device.0;
        self.write_runs[c.device.0] = WriteRun {
            first: c.handle.as_u64() - gathered,
            len: c.len,
            count: gathered + 1,
        };
        Ok(())
    }

    /// Rebuilds the lost chunks of one degraded stripe back onto their
    /// (replaced) devices.
    fn stripe(&mut self, stripe: &Stripe<'_>) -> Result<(), StripeError> {
        if stripe.scheme.is_replication() {
            // Copy a surviving replica onto each lost slot.
            let survivor = stripe
                .chunks()
                .find(|c| chunk_intact_on(self.io.array, c))
                .expect("degraded stripe has a survivor");
            let src = self.read(stripe.real, survivor)?;
            let src = src.as_ref().and_then(|chunk| chunk.payload().as_bytes());
            for c in stripe.chunks() {
                if !chunk_intact_on(self.io.array, c) {
                    match src {
                        Some(b) => self.write_chunk(c, StoredChunk::real(b.clone()))?,
                        None => self.write_sized(c)?,
                    }
                }
            }
            return Ok(());
        }

        // Parity stripe: read the first `m` survivors in codec order,
        // reconstruct all shards, write back the lost ones.
        let (codec_m, m_actual) = (stripe.encode_m, stripe.data.len());
        let parity_count = stripe.redundancy.len();
        let parity_len = stripe.shard_len();
        let mut shards = if stripe.real {
            shard_slots(codec_m, m_actual, parity_count, parity_len)
        } else {
            Vec::new()
        };
        let mut survivors_read = 0usize;
        for (idx, c) in stripe.codec_order() {
            if !chunk_intact_on(self.io.array, c) {
                continue;
            }
            if survivors_read + (codec_m - m_actual) >= codec_m {
                break;
            }
            survivors_read += 1;
            if let Some(chunk) = self.read(stripe.real, c)? {
                shards[idx] = Some(padded_shard(&chunk, parity_len));
            }
        }

        if stripe.real {
            let rs = self.io.codecs.get(codec_m, parity_count)?;
            rs.reconstruct(&mut shards)?;
        }

        // A stripe has one chunk on a device, so a write gathered here is
        // not probed again: each lost chunk is met exactly once.
        for (idx, c) in stripe.codec_order() {
            if chunk_intact_on(self.io.array, c) {
                continue;
            }
            if stripe.real {
                let shard = shards[idx].as_ref().expect("reconstructed");
                let bytes = Bytes::copy_from_slice(&shard[..c.len.as_bytes() as usize]);
                self.write_chunk(c, StoredChunk::real(bytes))?;
            } else {
                self.write_sized(c)?;
            }
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StripeHealth {
    Intact,
    Degraded(usize),
    Lost(usize),
}

/// Reads a chunk, absorbing transient timeouts: waits out a doubling
/// backoff and retries up to [`TRANSIENT_RETRY_LIMIT`] times before
/// letting the error escalate. The backoff is charged to the operation's
/// timeline (the retried read starts later), so transient faults surface
/// as latency, not data loss.
fn read_chunk_retrying(
    array: &mut FlashArray,
    transient_retries: &mut u64,
    device: DeviceId,
    handle: ChunkHandle,
    now: SimTime,
) -> Result<(StoredChunk, SimTime), FlashError> {
    let mut at = now;
    let mut backoff = TRANSIENT_BACKOFF;
    let mut attempts = 0;
    loop {
        match array.device_mut(device).read_chunk(handle, at) {
            Err(FlashError::TransientTimeout { .. }) if attempts < TRANSIENT_RETRY_LIMIT => {
                attempts += 1;
                *transient_retries += 1;
                at += backoff;
                backoff = backoff * 2;
            }
            other => return other,
        }
    }
}

/// The codec's shard slots for reconstructing a real-payload stripe:
/// every real shard missing until read, the phantom zero shards of a short
/// stripe (data rows `m_actual..codec_m`) always present.
fn shard_slots(
    codec_m: usize,
    m_actual: usize,
    parity_count: usize,
    parity_len: ByteSize,
) -> Vec<Option<Vec<u8>>> {
    let mut shards = vec![None; codec_m + parity_count];
    for shard in shards.iter_mut().take(codec_m).skip(m_actual) {
        *shard = Some(vec![0u8; parity_len.as_bytes() as usize]);
    }
    shards
}

/// A surviving chunk's bytes, zero-padded to the stripe's shard length (a
/// chunk overwritten size-only inside a real stripe reads as zeros).
fn padded_shard(chunk: &StoredChunk, parity_len: ByteSize) -> Vec<u8> {
    let mut v = chunk
        .payload()
        .as_bytes()
        .map_or(Vec::new(), |b| b.to_vec());
    v.resize(parity_len.as_bytes() as usize, 0);
    v
}

fn chunk_intact_on(array: &FlashArray, c: &StripeChunk) -> bool {
    // Only a device with something awaiting rebuild needs the probe.
    let device = array.device(c.device);
    device.all_chunks_intact() || device.chunk_is_intact(c.handle)
}

fn stripe_health_on(array: &FlashArray, stripe: &Stripe<'_>) -> StripeHealth {
    // A healthy device with nothing awaiting rebuild vouches for every
    // chunk placed on it, so the common case needs no per-chunk probe.
    if stripe
        .chunks()
        .all(|c| array.device(c.device).all_chunks_intact())
    {
        debug_assert!(stripe.chunks().all(|c| chunk_intact_on(array, c)));
        return StripeHealth::Intact;
    }
    let lost = stripe
        .chunks()
        .filter(|c| !chunk_intact_on(array, c))
        .count();
    if lost == 0 {
        return StripeHealth::Intact;
    }
    if stripe.scheme.is_replication() {
        // Recoverable while any replica survives.
        if lost == stripe.width() {
            StripeHealth::Lost(lost)
        } else {
            StripeHealth::Degraded(lost)
        }
    } else if lost <= stripe.tolerated() {
        StripeHealth::Degraded(lost)
    } else {
        StripeHealth::Lost(lost)
    }
}

fn clamp_scheme(scheme: RedundancyScheme, healthy: usize) -> RedundancyScheme {
    match scheme {
        RedundancyScheme::Parity(k) => {
            RedundancyScheme::Parity(k.min((healthy.saturating_sub(1)) as u8))
        }
        RedundancyScheme::Replication => RedundancyScheme::Replication,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_flashsim::{DeviceConfig, FaultPlan};
    use reo_sim::{ServiceModel, SimClock, SimDuration};

    fn test_array(n: usize, capacity_mib: u64) -> FlashArray {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mib(capacity_mib),
            read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 3000,
        };
        FlashArray::new(n, cfg, SimClock::new())
    }

    fn mgr(n: usize) -> StripeManager {
        StripeManager::new(test_array(n, 64), ByteSize::from_kib(4))
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| ((i * 131 + 17) % 256) as u8).collect()
    }

    #[test]
    fn store_and_read_real_payload() {
        let mut m = mgr(5);
        let data = payload(10_000); // 3 chunks of 4KiB: 4096+4096+1808
        let layout = m
            .store_object(
                7,
                ByteSize::from_bytes(10_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        assert_eq!(layout.owner(), 7);
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn degraded_read_reconstructs_real_bytes() {
        let mut m = mgr(5);
        let data = payload(20_000);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(20_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        // Fail two devices: 2-parity must still serve every byte.
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(3));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        let out = m.read_object(&layout).unwrap();
        assert!(out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn three_failures_exceed_two_parity() {
        let mut m = mgr(5);
        let data = payload(20_000);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(20_000),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(1));
        m.fail_device(DeviceId(2));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
        assert!(matches!(
            m.read_object(&layout),
            Err(StripeError::ObjectLost { .. })
        ));
    }

    #[test]
    fn replication_survives_all_but_one() {
        let mut m = mgr(5);
        let data = payload(6_000);
        let layout = m
            .store_object(
                2,
                ByteSize::from_bytes(6_000),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        for d in 0..4 {
            m.fail_device(DeviceId(d));
        }
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
        m.fail_device(DeviceId(4));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
    }

    #[test]
    fn zero_parity_loss_is_fatal() {
        let mut m = mgr(5);
        let layout = m
            .store_object(3, ByteSize::from_kib(40), RedundancyScheme::parity(0), None)
            .unwrap();
        // 40 KiB / 4 KiB = 10 chunks across 5 devices: every device holds some.
        m.fail_device(DeviceId(2));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
    }

    #[test]
    fn rebuild_after_spare_insertion_real() {
        let mut m = mgr(5);
        let data = payload(30_000);
        let layout = m
            .store_object(
                4,
                ByteSize::from_bytes(30_000),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(1));
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
        m.replace_device(DeviceId(1));
        m.rebuild_object(&layout).unwrap();
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
        // Post-rebuild reads are non-degraded and byte-identical.
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn rebuild_replicated_object() {
        let mut m = mgr(3);
        let data = payload(5_000);
        let layout = m
            .store_object(
                5,
                ByteSize::from_bytes(5_000),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        m.fail_device(DeviceId(0));
        m.replace_device(DeviceId(0));
        m.rebuild_object(&layout).unwrap();
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    }

    #[test]
    fn synthetic_objects_track_space_and_timing() {
        let mut m = mgr(5);
        let layout = m
            .store_object(6, ByteSize::from_kib(12), RedundancyScheme::parity(1), None)
            .unwrap();
        // 3 data chunks + 1 parity chunk (one stripe of m=4).
        let usage = m.usage();
        assert_eq!(usage.user_bytes, ByteSize::from_kib(12));
        assert_eq!(usage.redundancy_bytes, ByteSize::from_kib(4));
        let out = m.read_object(&layout).unwrap();
        assert!(out.bytes.is_none());
        assert!(out.completed_at.as_nanos() > 0);
    }

    #[test]
    fn space_efficiency_matches_scheme_for_large_objects() {
        let mut m = mgr(5);
        // 2-parity on 5 devices: 60% ideal. A 12-chunk object fills 4
        // stripes of m=3 exactly.
        m.store_object(1, ByteSize::from_kib(48), RedundancyScheme::parity(2), None)
            .unwrap();
        let eff = m.usage().space_efficiency();
        assert!((eff - 0.6).abs() < 1e-9, "eff = {eff}");
    }

    #[test]
    fn remove_object_releases_everything() {
        let mut m = mgr(5);
        let layout = m
            .store_object(9, ByteSize::from_kib(40), RedundancyScheme::parity(2), None)
            .unwrap();
        assert!(m.stripe_count() > 0);
        m.remove_object(&layout);
        assert_eq!(m.stripe_count(), 0);
        assert_eq!(m.usage().total(), ByteSize::ZERO);
        assert!(matches!(
            m.read_object(&layout),
            Err(StripeError::UnknownStripe(_))
        ));
        // Idempotent.
        m.remove_object(&layout);
    }

    #[test]
    fn store_after_failures_uses_survivors() {
        let mut m = mgr(5);
        m.fail_device(DeviceId(0));
        m.fail_device(DeviceId(1));
        // 2-parity clamps to the 3 healthy devices (k=2 still fits).
        let layout = m
            .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
            .unwrap();
        let out = m.read_object(&layout).unwrap();
        assert!(!out.degraded);
        // With only 2 healthy devices, parity clamps to 1.
        m.fail_device(DeviceId(2));
        let layout2 = m
            .store_object(2, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
            .unwrap();
        assert_eq!(layout2.scheme(), RedundancyScheme::parity(1));
        // With zero healthy devices, storing fails.
        m.fail_device(DeviceId(3));
        m.fail_device(DeviceId(4));
        assert!(matches!(
            m.store_object(3, ByteSize::from_kib(4), RedundancyScheme::parity(0), None),
            Err(StripeError::NoHealthyDevices)
        ));
    }

    #[test]
    fn full_array_rolls_back_cleanly() {
        let mut m = StripeManager::new(test_array(2, 1), ByteSize::from_kib(64));
        // Fill device space (2 MiB total, replication doubles usage).
        let r1 = m.store_object(
            1,
            ByteSize::from_kib(900),
            RedundancyScheme::Replication,
            None,
        );
        assert!(r1.is_ok());
        let before = m.usage();
        let count_before = m.stripe_count();
        let r2 = m.store_object(
            2,
            ByteSize::from_kib(900),
            RedundancyScheme::Replication,
            None,
        );
        assert!(matches!(
            r2,
            Err(StripeError::Flash(FlashError::DeviceFull { .. }))
        ));
        assert_eq!(m.usage(), before, "failed store must not leak accounting");
        assert_eq!(
            m.stripe_count(),
            count_before,
            "failed store must not leak stripes"
        );
    }

    #[test]
    fn input_validation() {
        let mut m = mgr(3);
        assert!(matches!(
            m.store_object(1, ByteSize::ZERO, RedundancyScheme::parity(0), None),
            Err(StripeError::EmptyObject)
        ));
        assert!(matches!(
            m.store_object(
                1,
                ByteSize::from_kib(4),
                RedundancyScheme::parity(0),
                Some(&[1, 2])
            ),
            Err(StripeError::PayloadSizeMismatch { .. })
        ));
    }

    #[test]
    fn physical_bytes_needed_estimates() {
        let m = mgr(5);
        // 0-parity: exactly the size.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::parity(0)),
            ByteSize::from_kib(10)
        );
        // Replication on 5 devices: 5x.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::Replication),
            ByteSize::from_kib(50)
        );
        // 2-parity, 12 KiB = 3 chunks = 1 stripe => + 2 parity chunks.
        assert_eq!(
            m.physical_bytes_needed(ByteSize::from_kib(12), RedundancyScheme::parity(2)),
            ByteSize::from_kib(12 + 8)
        );
    }

    #[test]
    fn degraded_read_costs_more_time_than_intact() {
        // Compare two identical managers; one suffers a failure.
        let data = payload(64 * 1024);
        let mk = || {
            let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(16));
            let l = m
                .store_object(
                    1,
                    ByteSize::from_bytes(data.len() as u64),
                    RedundancyScheme::parity(2),
                    Some(&data),
                )
                .unwrap();
            (m, l)
        };
        let (mut intact, l1) = mk();
        let t0 = intact.array().clock().now();
        intact.read_object(&l1).unwrap();
        let intact_cost = intact.array().clock().now().saturating_since(t0);

        let (mut broken, l2) = mk();
        broken.fail_device(DeviceId(1));
        let t0 = broken.array().clock().now();
        let out = broken.read_object(&l2).unwrap();
        assert!(out.degraded);
        let degraded_cost = broken.array().clock().now().saturating_since(t0);
        assert!(
            degraded_cost >= intact_cost,
            "degraded {degraded_cost} < intact {intact_cost}"
        );
    }

    #[test]
    fn usage_space_efficiency_empty_is_one() {
        assert_eq!(SpaceUsage::default().space_efficiency(), 1.0);
    }

    #[test]
    fn exported_meta_survives_a_simulated_crash() {
        let mut m = mgr(5);
        let data = payload(40_000);
        let layout = m
            .store_object(
                7,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        let usage_before = m.usage();
        let blob = m.export_object_meta(&layout).unwrap();

        m.simulate_crash();
        assert_eq!(m.stripe_count(), 0);
        assert_eq!(m.usage().total(), ByteSize::ZERO);

        let restored = m.install_object_meta(&blob).unwrap();
        assert_eq!(restored.owner(), 7);
        assert_eq!(restored.size().as_bytes(), data.len() as u64);
        assert!(restored.stripes().eq(layout.stripes()));
        assert_eq!(m.usage(), usage_before);
        assert!(m.double_allocated_chunks().is_empty());
        // Chunk contents survived on the array: the object reads back.
        let out = m.read_object(&restored).unwrap();
        assert_eq!(out.bytes.unwrap(), data);
        // A fresh store must not collide with reinstalled handles/stripes.
        let second = m
            .store_object(8, ByteSize::from_kib(32), RedundancyScheme::parity(1), None)
            .unwrap();
        assert!(m.double_allocated_chunks().is_empty());
        assert!(second
            .stripes()
            .all(|s| layout.stripes().all(|old| old != s)));
    }

    #[test]
    fn orphan_chunks_are_collected_after_crash() {
        let mut m = mgr(5);
        let keep = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        m.store_object(2, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let blob = m.export_object_meta(&keep).unwrap();
        m.simulate_crash();
        m.install_object_meta(&blob).unwrap();
        // Only `keep`'s metadata was journaled: the other object's chunks
        // are unreferenced and must be garbage collected.
        let removed = m.remove_unreferenced_chunks();
        assert!(removed > 0);
        let total_chunks: usize = (0..m.array().device_count())
            .map(|i| m.array().device(DeviceId(i)).chunk_count())
            .sum();
        assert_eq!(total_chunks, m.referenced_chunks().len());
        assert!(m.read_object(&keep).is_ok());
    }

    #[test]
    fn layout_blob_bytes_are_pinned() {
        // Stripe 0 and handle 0 go to another object, device 1 is down at
        // store time, and 4-parity is clamped to the four survivors' 3.
        let mut m = mgr(5);
        m.store_object(
            1,
            ByteSize::from_bytes(9),
            RedundancyScheme::parity(0),
            None,
        )
        .unwrap();
        m.fail_device(DeviceId(1));
        let data = payload(10_000);
        let layout = m
            .store_object(
                7,
                ByteSize::from_bytes(10_000),
                RedundancyScheme::parity(4),
                Some(&data),
            )
            .unwrap();
        #[rustfmt::skip]
        let golden = [
            7, 0, 0, 0, 0, 0, 0, 0,             // owner
            0x10, 0x27, 0, 0, 0, 0, 0, 0,       // size
            0, 3,                               // the layout's scheme
            0, 3,                               // the extent's scheme
            1, 0, 0, 0, 0, 0, 0, 0,             // first stripe
            1, 0, 0, 0, 0, 0, 0, 0,             // first handle: the same
            0b11101, 0, 0, 0, 0, 0, 0, 0,       // healthy devices
            1,                                  // real payload
        ];
        assert_eq!(m.export_object_meta(&layout).unwrap(), golden);
        // A chunk's handle is its stripe's id: a blob that says otherwise
        // was not written by this code.
        let mut renumbered = golden;
        renumbered[28] = 2;
        assert_eq!(
            m.clone().install_object_meta(&renumbered).unwrap_err(),
            StripeError::CorruptMetadata
        );
        m.clone().install_object_meta(&golden).unwrap();
        let replicated = m
            .store_object(
                8,
                ByteSize::from_kib(64),
                RedundancyScheme::Replication,
                None,
            )
            .unwrap();
        let blob = m.export_object_meta(&replicated).unwrap();
        assert_eq!(blob.len(), golden.len(), "size does not show in the length");
        assert_eq!(blob[16..20], [1, 0, 1, 0]);
        assert_eq!(blob[44], 0);
    }

    #[test]
    fn an_object_is_one_entry_per_device_through_failure_spare_and_rebuild() {
        // 1,000 stripes, the last one short: each device holds the full
        // stripes as one run, and at most one odd chunk beside it.
        let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(4));
        let size = ByteSize::from_bytes(4096 * 3 * 999 + 5000);
        let layout = m
            .store_object(1, size, RedundancyScheme::parity(2), None)
            .unwrap();
        assert_eq!(layout.stripes().count(), 1000);
        let entries = |m: &StripeManager| -> Vec<usize> {
            let devices = (0..5).map(|d| m.array().device(DeviceId(d)));
            devices.map(|d| d.chunk_runs().len()).collect()
        };
        let stored = entries(&m);
        assert!(stored.iter().all(|&n| (1..=2).contains(&n)), "{stored:?}");
        let chunks = m.referenced_chunks().len();
        assert_eq!(chunks, 999 * 5 + 4);

        // A failure flips the runs, a spare empties them, and a rebuild
        // writes each back as the run it was: nothing is ever exploded
        // into per-chunk entries.
        m.fail_device(DeviceId(2));
        assert_eq!(entries(&m), stored);
        m.replace_device(DeviceId(2));
        assert_eq!(entries(&m)[2], 0, "absent chunks are not present");
        m.rebuild_object(&layout).unwrap();
        assert_eq!(entries(&m), stored);
        assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
        assert!(m.array().all_chunks_intact());

        // One corrupted chunk splits its run around itself — three
        // entries where one was — and the rebuild leaves them so.
        m.corrupt_data_chunk(&layout, 3 * 500).unwrap();
        let split: usize = entries(&m).iter().sum();
        assert_eq!(split, stored.iter().sum::<usize>() + 2);
        m.rebuild_object(&layout).unwrap();
        assert_eq!(entries(&m).iter().sum::<usize>(), split);
        assert!(m.array().all_chunks_intact());

        m.remove_object(&layout);
        assert_eq!(entries(&m), [0; 5]);
        assert_eq!(m.free_capacity(), ByteSize::from_mib(64 * 5));
    }

    /// Every `(device, handle)` pair the extents name, sorted, duplicates
    /// kept: what the recovery sweeps walked before they walked ranges.
    fn expanded_refs(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = m
            .extents
            .values()
            .flat_map(|e| e.chunks.iter().map(|c| (c.device, c.handle)))
            .collect();
        refs.sort_unstable();
        refs
    }

    /// The double-allocation sweep over expanded pairs.
    fn expanded_doubles(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
        let refs = expanded_refs(m);
        let mut dup = Vec::new();
        for w in refs.windows(2) {
            if w[0] == w[1] && dup.last() != Some(&w[0]) {
                dup.push(w[0]);
            }
        }
        dup
    }

    /// The orphan sweep over expanded pairs: what it would remove.
    fn expanded_orphans(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
        let refs = expanded_refs(m);
        let mut orphans = present_chunks(m);
        orphans.retain(|pair| refs.binary_search(pair).is_err());
        orphans
    }

    fn present_chunks(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
        let devices = (0..m.array().device_count()).map(DeviceId);
        devices
            .flat_map(|d| {
                let present = m.array().device(d).chunk_handles();
                present.into_iter().map(move |h| (d, h))
            })
            .collect()
    }

    #[test]
    fn range_sweeps_agree_with_the_expanded_pair_sweeps() {
        // Objects of every shape, some stored on a degraded array; then a
        // crash after which some blobs are missing (their chunks are
        // orphans), some chunks are missing, and some blobs come back
        // renumbered onto stripes other objects hold — overlapping one
        // neighbour, two, or lying inside a larger one.
        let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(4));
        let shapes = [
            (4096 * 40, RedundancyScheme::parity(2)),
            (100, RedundancyScheme::parity(1)),
            (4096 * 9 + 1, RedundancyScheme::Replication),
            (4096 * 4 * 6, RedundancyScheme::parity(1)),
            (4096 * 17, RedundancyScheme::parity(0)),
            (4096 * 3, RedundancyScheme::parity(2)),
        ];
        let mut blobs = Vec::new();
        for (owner, (size, scheme)) in (0..).zip(shapes.into_iter().cycle().take(18)) {
            if owner == 9 {
                m.fail_device(DeviceId(3));
            }
            let layout = m
                .store_object(owner, ByteSize::from_bytes(size), scheme, None)
                .unwrap();
            blobs.push(m.export_object_meta(&layout).unwrap());
        }
        let renumbered = |blob: &[u8], first: u64| {
            let mut blob = blob.to_vec();
            blob[20..28].copy_from_slice(&first.to_le_bytes());
            blob[28..36].copy_from_slice(&first.to_le_bytes());
            blob
        };
        let first_of = |blob: &[u8]| u64::from_le_bytes(blob[20..28].try_into().unwrap());
        let mut checked_doubles = 0;
        for case in 0..40u64 {
            let mut crashed = m.clone();
            crashed.simulate_crash();
            for (i, blob) in (0..).zip(&blobs) {
                // Which blobs survive, and where they claim to start.
                match (i * 7 + case) % 5 {
                    0 => {}
                    1 if case % 2 == 1 => {
                        let first = first_of(blob).saturating_sub(case % 13);
                        crashed
                            .install_object_meta(&renumbered(blob, first))
                            .unwrap();
                    }
                    _ => {
                        crashed.install_object_meta(blob).unwrap();
                    }
                }
            }
            if case % 4 == 3 {
                // Three deep: the fourteen-stripe object twice more, a
                // stripe apart, over whatever starts at `case`.
                for first in [case + 1, case + 2] {
                    crashed
                        .install_object_meta(&renumbered(&blobs[0], first))
                        .unwrap();
                }
            }
            // A chunk the metadata names is gone; the sweeps still agree.
            if let Some(&(device, handle)) = expanded_refs(&crashed).get(case as usize * 3) {
                crashed.array.device_mut(device).remove_chunk(handle);
            }
            let doubles = expanded_doubles(&crashed);
            assert_eq!(crashed.double_allocated_chunks(), doubles, "case {case}");
            checked_doubles += doubles.len();
            let mut refs = expanded_refs(&crashed);
            refs.dedup();
            assert_eq!(crashed.referenced_chunks(), refs, "case {case}");

            let orphans = expanded_orphans(&crashed);
            let mut kept = present_chunks(&crashed);
            kept.retain(|pair| orphans.binary_search(pair).is_err());
            assert_eq!(
                crashed.remove_unreferenced_chunks(),
                orphans.len(),
                "case {case}"
            );
            assert_eq!(present_chunks(&crashed), kept, "case {case}");
            assert_eq!(crashed.remove_unreferenced_chunks(), 0);
        }
        assert!(checked_doubles > 100, "{checked_doubles}");
    }

    #[test]
    fn layout_blob_roundtrips_for_every_placement() {
        // Scheme x size x devices failed at store time x placement policy:
        // a blob reinstalled after a crash yields the extent that was
        // stored — same blob, same chunks, same bytes accounted, and a
        // read that costs what it costs a manager that never crashed.
        let chunk = 4096;
        let schemes = [
            RedundancyScheme::parity(0),
            RedundancyScheme::parity(1),
            RedundancyScheme::parity(2),
            RedundancyScheme::Replication,
        ];
        let mut cases = 0;
        for placement in [PlacementPolicy::RoundRobin, PlacementPolicy::Fixed] {
            for failed in 0u32..31 {
                let healthy = 5 - failed.count_ones() as usize;
                for scheme in schemes {
                    let m = clamp_scheme(scheme, healthy).data_chunks_per_stripe(healthy) as u64;
                    // One chunk; exactly full stripes; a short last stripe
                    // ending in a short chunk; many stripes.
                    for size in [
                        100,
                        chunk * m * 2,
                        chunk * (m * 2 + 1) + 77,
                        chunk * m * 40 + 1,
                    ] {
                        let stored = || {
                            let array = test_array(5, 64);
                            let mut mgr = StripeManager::with_placement(
                                array,
                                ByteSize::from_bytes(chunk),
                                placement,
                            );
                            // Move the allocators off zero first.
                            mgr.store_object(1, ByteSize::from_kib(20), scheme, None)
                                .unwrap();
                            for d in (0..5).filter(|d| failed >> d & 1 == 1) {
                                mgr.fail_device(DeviceId(d));
                            }
                            let layout = mgr
                                .store_object(2, ByteSize::from_bytes(size), scheme, None)
                                .unwrap();
                            (mgr, layout)
                        };
                        let (mut crashed, layout) = stored();
                        let (mut steady, same_layout) = stored();
                        let blob = crashed.export_object_meta(&layout).unwrap();
                        crashed.simulate_crash();
                        let restored = crashed.install_object_meta(&blob).unwrap();
                        assert_eq!(crashed.export_object_meta(&restored).unwrap(), blob);
                        let context = format!("{placement:?} {failed:#b} {scheme} {size}");
                        // Only the second object was journaled; the first
                        // one's handles come before its own.
                        crashed.remove_unreferenced_chunks();
                        let mut chunks = steady.referenced_chunks();
                        let first_handle =
                            steady.extents[&same_layout.first_stripe].chunks[0].handle;
                        chunks.retain(|&(_, handle)| handle >= first_handle);
                        assert_eq!(crashed.referenced_chunks(), chunks, "{context}");
                        assert_eq!(
                            crashed.extents[&restored.first_stripe].usage(),
                            steady.extents[&same_layout.first_stripe].usage(),
                            "{context}"
                        );
                        let read = crashed.read_object(&restored).unwrap();
                        let same_read = steady.read_object(&same_layout).unwrap();
                        assert_eq!(read.completed_at, same_read.completed_at, "{context}");
                        assert_eq!(read.degraded, same_read.degraded, "{context}");
                        crashed.remove_object(&restored);
                        assert_eq!(crashed.usage(), SpaceUsage::default(), "{context}");
                        // What the reinstalled extent names is what the
                        // devices hold: removing it empties them.
                        let left: usize = (0..5)
                            .map(|d| crashed.array().device(DeviceId(d)).chunk_count())
                            .sum();
                        assert_eq!(left, 0, "{context}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 2 * 31 * 4 * 4);
    }

    #[test]
    fn corrupt_layout_blobs_are_refused_or_install_consistently() {
        // Every truncation, and every value of every byte, of blobs from
        // three placements: refused as corrupt, or installed as something
        // the consistency checks accept — never a panic, never a device
        // the array lacks, never more chunks than the array has room for.
        let capacity_chunks = 5 * 1024 / 4;
        let mut base = StripeManager::new(test_array(5, 1), ByteSize::from_kib(4));
        base.store_object(1, ByteSize::from_kib(3), RedundancyScheme::parity(1), None)
            .unwrap();
        base.fail_device(DeviceId(3));
        let layouts = [
            (ByteSize::from_kib(50), RedundancyScheme::parity(2)),
            (ByteSize::from_bytes(5000), RedundancyScheme::Replication),
            (ByteSize::from_bytes(1), RedundancyScheme::parity(0)),
        ]
        .map(|(size, scheme)| base.store_object(2, size, scheme, None).unwrap());
        let blobs = layouts
            .each_ref()
            .map(|l| base.export_object_meta(l).unwrap());
        base.simulate_crash();

        let mut accepted = 0;
        for blob in &blobs {
            for cut in 0..blob.len() {
                let torn = base.clone().install_object_meta(&blob[..cut]);
                assert!(matches!(torn, Err(StripeError::CorruptMetadata)), "{cut}");
            }
            let mut long = blob.clone();
            long.push(0);
            assert!(base.clone().install_object_meta(&long).is_err());
            for at in 0..blob.len() {
                for value in 0..=u8::MAX {
                    let mut mutated = blob.clone();
                    mutated[at] = value;
                    let mut m = base.clone();
                    let layout = match m.install_object_meta(&mutated) {
                        Ok(layout) => layout,
                        Err(e) => {
                            assert_eq!(e, StripeError::CorruptMetadata, "byte {at} = {value}");
                            assert_eq!(m.stripe_count(), 0);
                            assert_eq!(m.usage(), SpaceUsage::default());
                            continue;
                        }
                    };
                    accepted += 1;
                    // What `OsdTarget::verify_consistency` asks of the
                    // stripe layer.
                    assert!(m.double_allocated_chunks().is_empty());
                    assert_eq!(m.stripe_count(), layout.stripes().count());
                    let chunks = m.referenced_chunks();
                    assert!(chunks.iter().all(|(d, _)| d.0 < 5), "byte {at} = {value}");
                    assert!(chunks.len() <= capacity_chunks + 5, "byte {at} = {value}");
                    // And it can be audited and dropped like any other
                    // extent. (Not read: an accepted mutation of the size
                    // names chunk lengths the devices do not hold, which
                    // is what the read shortcut's debug re-probe is for.)
                    m.object_status(&layout).unwrap();
                    m.remove_object(&layout);
                    assert_eq!(m.usage(), SpaceUsage::default());
                    assert_eq!(m.stripe_count(), 0);
                }
            }
        }
        // Most mutations of an id or the owner are legal blobs.
        assert!(accepted > 3 * 255 * 8, "{accepted}");
    }

    #[test]
    #[should_panic(expected = "at most 64 devices")]
    fn an_array_the_healthy_set_cannot_name_is_refused_at_construction() {
        StripeManager::new(test_array(65, 1), ByteSize::from_kib(4));
    }

    #[test]
    fn errors_have_sources_and_display() {
        let e = StripeError::Flash(FlashError::DeviceFailed(DeviceId(3)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("ssd3"));
        let e2 = StripeError::ObjectLost {
            stripe: StripeId(9),
            lost: 3,
            tolerated: 2,
        };
        assert!(e2.to_string().contains("stripe#9"));
    }

    /// A 4+2 stripe set driven through overwrite, one- and two-device
    /// degraded reads, and rebuild, under armed transient faults. Returns
    /// the completion instants in call order.
    fn degraded_scenario(m: &mut StripeManager, real: bool) -> Vec<u64> {
        // Two full stripes and a short one (2 of 4 data chunks), then a
        // one-stripe object.
        let (a_len, b_len) = (4096 * 10, 4096 * 3 + 100);
        let (a_data, b_data) = (payload(a_len), payload(b_len));
        let mut a_now = a_data.clone();
        let store = |m: &mut StripeManager, owner, data: &Vec<u8>| {
            m.store_object(
                owner,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(2),
                real.then_some(&data[..]),
            )
            .unwrap()
        };
        let a = store(m, 1, &a_data);
        let b = store(m, 2, &b_data);
        let mut plan = FaultPlan::new(7);
        m.arm_transient_faults(&mut plan, 0.2);

        let mut times = Vec::new();
        // Delta update on a full stripe, direct re-encode on the short one.
        let patch: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        for (ci, method) in [(1, ParityUpdate::Delta), (9, ParityUpdate::Direct)] {
            let (used, done) = m
                .overwrite_chunk(&a, ci, real.then_some(&patch[..]))
                .unwrap();
            assert_eq!(used, method);
            a_now[ci as usize * 4096..][..4096].copy_from_slice(&patch);
            times.push(done.as_nanos());
        }
        let read = |m: &mut StripeManager, layout, degraded, expect: &Vec<u8>| {
            let out = m.read_object(layout).unwrap();
            assert_eq!(out.degraded, degraded);
            assert_eq!(out.bytes.is_some(), real);
            if let Some(bytes) = out.bytes {
                assert_eq!(&bytes, expect, "reconstructed bytes differ");
            }
            out.completed_at.as_nanos()
        };
        m.fail_device(DeviceId(0));
        times.push(read(m, &a, true, &a_now));
        m.fail_device(DeviceId(3));
        times.push(read(m, &a, true, &a_now));
        times.push(read(m, &b, true, &b_data));
        m.replace_device(DeviceId(0));
        m.replace_device(DeviceId(3));
        times.push(m.rebuild_object(&a).unwrap().as_nanos());
        times.push(m.rebuild_object(&b).unwrap().as_nanos());
        times.push(read(m, &a, false, &a_now));
        times.push(read(m, &b, false, &b_data));
        times
    }

    #[test]
    fn size_only_degraded_paths_keep_their_timing_and_build_no_buffers() {
        let mut m = mgr(6);
        let times = degraded_scenario(&mut m, false);
        let stats: Vec<_> = (0..6)
            .map(|d| {
                let s = m.array().device(DeviceId(d)).stats();
                (
                    s.reads,
                    s.writes,
                    s.queued_nanos,
                    s.busy_nanos,
                    s.transient_timeouts,
                )
            })
            .collect();
        // Pinned from the code before size-only chunks stopped building
        // buffers: the simulated clock and the device counters cannot move.
        assert_eq!(
            times,
            [
                1_645_774, 1_853_403, 3_568_661, 5_391_548, 5_999_177, 6_714_435, 8_314_621,
                8_637_508, 8_745_137
            ]
        );
        assert_eq!(
            stats,
            [
                (2, 3, 207_629, 838_145, 0),
                (9, 4, 1_030_516, 1_799_177, 2),
                (9, 5, 838_145, 1_977_034, 2),
                (2, 4, 730_516, 1_045_774, 0),
                (15, 4, 4_699_177, 2_444_951, 3),
                (15, 5, 3_199_177, 2_652_580, 2),
            ]
        );
        assert_eq!(m.transient_retries(), 11);
        // No byte of a size-only stripe exists, so none was buffered.
        let pooled: usize = m
            .scratch
            .shards
            .iter()
            .chain(&m.scratch.parity)
            .map(Vec::capacity)
            .sum();
        assert_eq!(
            pooled + m.scratch.shards.capacity() + m.scratch.parity.capacity(),
            0
        );
    }

    #[test]
    fn pristine_store_read_remove_keeps_its_timing() {
        // The legs that never leave the run shortcuts: 2-parity with a
        // short tail, replication, and a one-chunk object, on a fresh
        // array. Numbers pinned from the per-chunk code these replaced.
        let mut m = mgr(6);
        let mut times = Vec::new();
        let objects = [
            (4096 * 10 + 77, RedundancyScheme::parity(2)),
            (4096 * 3, RedundancyScheme::Replication),
            (100, RedundancyScheme::parity(1)),
        ];
        let layouts: Vec<ObjectLayout> = (0..)
            .zip(objects)
            .map(|(owner, (size, scheme))| {
                let layout = m
                    .store_object(owner, ByteSize::from_bytes(size), scheme, None)
                    .unwrap();
                times.push(m.array().clock().now().as_nanos());
                layout
            })
            .collect();
        for layout in &layouts {
            times.push(m.read_object(layout).unwrap().completed_at.as_nanos());
        }
        for layout in &layouts {
            m.remove_object(layout);
        }
        let stats: Vec<_> = (0..6)
            .map(|d| {
                let device = m.array().device(DeviceId(d));
                let s = device.stats();
                (
                    (s.reads, s.writes, s.bytes_read, s.bytes_written),
                    (s.queued_nanos, s.busy_nanos),
                    device.busy_until().as_nanos(),
                    device.used(),
                )
            })
            .collect();
        assert_eq!(
            times,
            [622_887, 1_245_774, 1_445_960, 1_768_847, 1_876_476, 1_976_662]
        );
        let free = ByteSize::ZERO;
        assert_eq!(
            stats,
            [
                ((2, 7, 4173, 20657), (1_353_403, 1_646_246), 1_653_732, free),
                ((1, 6, 100, 20580), (830_516, 1_338_517), 1_976_662, free),
                ((1, 6, 4096, 24576), (1_245_774, 1_353_403), 1_553_589, free),
                (
                    (3, 6, 12288, 24576),
                    (1_353_403, 1_568_661),
                    1_876_476,
                    free
                ),
                (
                    (4, 6, 16384, 24576),
                    (1_568_661, 1_676_290),
                    1_876_476,
                    free
                ),
                (
                    (4, 6, 16384, 24576),
                    (1_568_661, 1_676_290),
                    1_876_476,
                    free
                ),
            ]
        );
        assert_eq!(m.usage().total(), ByteSize::ZERO);
        assert_eq!(m.stripe_count(), 0);
    }

    #[test]
    fn real_payload_twin_still_reconstructs_every_byte() {
        let mut m = mgr(6);
        degraded_scenario(&mut m, true);
        assert!(m.scratch.shards.iter().any(|b| b.capacity() > 0));
    }

    #[test]
    fn reinstalled_metadata_naming_a_missing_chunk_reads_as_degraded() {
        // A journal can outlive a chunk it names (re-encode freed it, the
        // crash beat the new record): the device never failed or lost
        // anything, yet the stripe must not pass for intact.
        let mut m = mgr(5);
        let data = payload(12_000);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(12_000),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        let blob = m.export_object_meta(&layout).unwrap();
        let gone = m.extents[&layout.first_stripe].chunks[0];
        m.simulate_crash();
        m.array.device_mut(gone.device).remove_chunk(gone.handle);
        let restored = m.install_object_meta(&blob).unwrap();
        assert_eq!(m.object_status(&restored).unwrap(), ObjectStatus::Degraded);
        let out = m.read_object(&restored).unwrap();
        assert!(out.degraded);
        assert_eq!(out.bytes.unwrap(), data);
        m.rebuild_object(&restored).unwrap();
        assert_eq!(m.object_status(&restored).unwrap(), ObjectStatus::Intact);
        assert!(m.array.device(gone.device).all_chunks_intact());
    }

    #[test]
    fn overwrite_chunks_is_the_per_chunk_loop() {
        // One stripe per chunk (replication) and multi-chunk stripes, from
        // a mid-object start: same clock, same device counters.
        for scheme in [RedundancyScheme::Replication, RedundancyScheme::parity(1)] {
            let (mut looped, mut ranged) = (mgr(5), mgr(5));
            let size = ByteSize::from_bytes(4096 * 11 + 5);
            let a = looped.store_object(1, size, scheme, None).unwrap();
            let b = ranged.store_object(1, size, scheme, None).unwrap();
            let mut done = SimTime::ZERO;
            for ci in 3..=11 {
                (_, done) = looped.overwrite_chunk(&a, ci, None).unwrap();
            }
            assert_eq!(ranged.overwrite_chunks(&b, 3..=11).unwrap(), done);
            for d in 0..5 {
                assert_eq!(
                    looped.array().device(DeviceId(d)).stats(),
                    ranged.array().device(DeviceId(d)).stats()
                );
            }
        }
    }
}

#[cfg(test)]
mod overwrite_tests {
    use super::*;
    use reo_flashsim::DeviceConfig;
    use reo_sim::{ServiceModel, SimClock, SimDuration};

    fn test_array(n: usize) -> FlashArray {
        let cfg = DeviceConfig {
            capacity: ByteSize::from_mib(64),
            read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
            write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
            erase_block: ByteSize::from_kib(128),
            pe_cycle_limit: 3000,
        };
        FlashArray::new(n, cfg, SimClock::new())
    }

    fn payload(len: usize, seed: u8) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
            .collect()
    }

    /// Overwrite each chunk in turn and verify the object reads back with
    /// the patch applied and parity still consistent (degraded read after
    /// a failure must succeed).
    #[test]
    fn overwrite_keeps_parity_consistent_for_all_chunks() {
        let chunk = ByteSize::from_kib(4);
        for k in 1..=2u8 {
            let mut m = StripeManager::new(test_array(5), chunk);
            let mut data = payload(20_000, k);
            let layout = m
                .store_object(
                    1,
                    ByteSize::from_bytes(data.len() as u64),
                    RedundancyScheme::parity(k),
                    Some(&data),
                )
                .unwrap();
            let chunks = (data.len() as u64).div_ceil(chunk.as_bytes());
            for ci in 0..chunks {
                let start = (ci * chunk.as_bytes()) as usize;
                let end = (start + chunk.as_bytes() as usize).min(data.len());
                let new_chunk = payload(end - start, k.wrapping_add(ci as u8 + 1));
                data[start..end].copy_from_slice(&new_chunk);
                m.overwrite_chunk(&layout, ci, Some(&new_chunk)).unwrap();

                // Parity must still reconstruct the patched data.
                let direct = m.read_object(&layout).unwrap();
                assert_eq!(direct.bytes.as_deref(), Some(&data[..]), "k={k} chunk={ci}");
            }
            // Now check degraded consistency: fail a device and re-read.
            m.fail_device(reo_flashsim::DeviceId(2));
            let degraded = m.read_object(&layout).unwrap();
            assert_eq!(degraded.bytes.as_deref(), Some(&data[..]), "k={k} degraded");
        }
    }

    #[test]
    fn strategy_follows_read_cost_rule() {
        // 5 devices, 1 parity: m = 4 data chunks per stripe. Delta reads
        // 1 + 1 = 2; direct reads m - 1 = 3 -> delta.
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(16_384, 1);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        let (method, _) = m
            .overwrite_chunk(&layout, 0, Some(&payload(4096, 9)))
            .unwrap();
        assert_eq!(method, ParityUpdate::Delta);

        // 3 devices, 2 parity: m = 1 data chunk. Delta reads 3; direct
        // reads 0 -> direct.
        let mut m3 = StripeManager::new(test_array(3), chunk);
        let data3 = payload(4_096, 2);
        let layout3 = m3
            .store_object(
                1,
                ByteSize::from_bytes(data3.len() as u64),
                RedundancyScheme::parity(2),
                Some(&data3),
            )
            .unwrap();
        let (method3, _) = m3
            .overwrite_chunk(&layout3, 0, Some(&payload(4096, 5)))
            .unwrap();
        assert_eq!(method3, ParityUpdate::Direct);
    }

    #[test]
    fn replication_overwrite_rewrites_all_replicas() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(4), chunk);
        let data = payload(4_000, 3);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::Replication,
                Some(&data),
            )
            .unwrap();
        let new_data = payload(4_000, 8);
        let (method, _) = m.overwrite_chunk(&layout, 0, Some(&new_data)).unwrap();
        assert_eq!(method, ParityUpdate::Rewrite);
        // Every replica carries the new bytes: any 3 failures still serve.
        for d in 0..3 {
            m.fail_device(reo_flashsim::DeviceId(d));
        }
        let out = m.read_object(&layout).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&new_data[..]));
    }

    #[test]
    fn zero_parity_overwrite_touches_one_chunk() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(12_000, 4);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(0),
                Some(&data),
            )
            .unwrap();
        let reads_before = m.array().stats().reads;
        let (method, _) = m
            .overwrite_chunk(&layout, 1, Some(&payload(4096, 6)))
            .unwrap();
        assert_eq!(method, ParityUpdate::Rewrite);
        assert_eq!(m.array().stats().reads, reads_before, "no reads needed");
    }

    #[test]
    fn overwrite_validates_inputs() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let data = payload(8_192, 5);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(1),
                Some(&data),
            )
            .unwrap();
        // Wrong payload size.
        assert!(matches!(
            m.overwrite_chunk(&layout, 0, Some(&[1, 2, 3])),
            Err(StripeError::PayloadSizeMismatch { .. })
        ));
        // Degraded stripe refuses overwrite.
        m.fail_device(reo_flashsim::DeviceId(0));
        let degraded_any = (0..2).any(|ci| {
            matches!(
                m.overwrite_chunk(&layout, ci, Some(&payload(4096, 1))),
                Err(StripeError::ObjectLost { .. })
            )
        });
        assert!(degraded_any, "some chunk must be on the failed device");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn overwrite_bad_index_panics() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let layout = m
            .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(0), None)
            .unwrap();
        let _ = m.overwrite_chunk(&layout, 99, None);
    }

    #[test]
    fn synthetic_overwrite_charges_time() {
        let chunk = ByteSize::from_kib(4);
        let mut m = StripeManager::new(test_array(5), chunk);
        let layout = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(2), None)
            .unwrap();
        let before = m.array().clock().now();
        let (_, done) = m.overwrite_chunk(&layout, 0, None).unwrap();
        assert!(done > before);
    }
}
