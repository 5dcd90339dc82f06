//! The stateful stripe manager over a flash array.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use reo_erasure::{CodecError, ReedSolomon};
use reo_flashsim::{ChunkHandle, DeviceId, FaultPlan, FlashArray, FlashError, StoredChunk};
use reo_sim::{ByteSize, FastMap, Layer, SimDuration, SimTime, Tracer};

use crate::layout::{ChunkRole, PlacementPolicy, StripeLayout};
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

/// Where an object lives: the stripes that hold it.
///
/// Layouts are handed back from [`StripeManager::store_object`] and passed
/// to the read/status/rebuild/remove operations. They are intentionally
/// opaque beyond size and scheme.
#[derive(Clone, Debug)]
pub struct ObjectLayout {
    owner: u64,
    size: ByteSize,
    scheme: RedundancyScheme,
    stripes: Vec<StripeId>,
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

    /// The stripes holding the object.
    pub fn stripes(&self) -> &[StripeId] {
        &self.stripes
    }
}

#[derive(Clone, Copy, Debug)]
struct StripeChunk {
    role: ChunkRole,
    device: DeviceId,
    handle: ChunkHandle,
    len: ByteSize,
    /// Real payload retained at encode time? (Payload itself lives on the
    /// device; this only records whether the stripe is in real-data mode.)
    real: bool,
}

#[derive(Clone, Debug)]
struct StripeMeta {
    /// Effective scheme after clamping to the healthy-device count at
    /// store time.
    scheme: RedundancyScheme,
    /// The data-shard count `m` the encoder used (store-time healthy
    /// width minus parity). Short stripes hold fewer real data chunks and
    /// were padded to `m` with phantom zero shards; decode must reuse the
    /// same geometry.
    encode_m: usize,
    chunks: Vec<StripeChunk>,
}

impl StripeMeta {
    fn tolerated(&self, width: usize) -> usize {
        self.scheme.failures_tolerated(width)
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

/// The mutable halves of a [`StripeManager`] that stripe I/O needs,
/// borrowed disjointly from the `stripes` map so per-request paths can
/// hold `&StripeMeta` straight out of the map instead of cloning it.
struct StripeIo<'a> {
    array: &'a mut FlashArray,
    transient_retries: &'a mut u64,
    codecs: &'a mut CodecCache,
    scratch: &'a mut StripeScratch,
}

/// Stores objects as variable-redundancy stripes on a [`FlashArray`].
///
/// See the crate docs for the model. One manager owns one array.
#[derive(Clone, Debug)]
pub struct StripeManager {
    array: FlashArray,
    chunk_size: ByteSize,
    placement: PlacementPolicy,
    next_handle: u64,
    next_stripe: u64,
    stripes: FastMap<StripeId, StripeMeta>,
    usage: SpaceUsage,
    transient_retries: u64,
    codecs: CodecCache,
    scratch: StripeScratch,
}

/// Serialized size of one chunk row in an exported layout blob: role tag,
/// role index, device, handle, length, real flag.
const CHUNK_META_LEN: usize = 1 + 4 + 4 + 8 + 8 + 1;

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
    /// Panics if `chunk_size` is zero.
    pub fn with_placement(
        array: FlashArray,
        chunk_size: ByteSize,
        placement: PlacementPolicy,
    ) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be non-zero");
        StripeManager {
            array,
            chunk_size,
            placement,
            next_handle: 0,
            next_stripe: 0,
            stripes: FastMap::default(),
            usage: SpaceUsage::default(),
            transient_retries: 0,
            codecs: CodecCache::default(),
            scratch: StripeScratch::default(),
        }
    }

    /// Splits the manager into its I/O half and the stripe map, so request
    /// paths can mutate devices/buffers while borrowing metadata in place.
    fn split_io(&mut self) -> (StripeIo<'_>, &FastMap<StripeId, StripeMeta>) {
        (
            StripeIo {
                array: &mut self.array,
                transient_retries: &mut self.transient_retries,
                codecs: &mut self.codecs,
                scratch: &mut self.scratch,
            },
            &self.stripes,
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
        self.array
            .healthy_devices()
            .into_iter()
            .map(|d| self.array.device(d).available())
            .sum()
    }

    /// Physical bytes an object of `size` will occupy under `scheme`,
    /// including padding of partial chunks in parity stripes and all
    /// replicas — what the cache manager budgets evictions against.
    ///
    /// The estimate uses the current healthy-device count, matching what
    /// [`StripeManager::store_object`] would do right now.
    pub fn physical_bytes_needed(&self, size: ByteSize, scheme: RedundancyScheme) -> ByteSize {
        let healthy = self.array.healthy_devices().len();
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

    fn alloc_handle(&mut self) -> ChunkHandle {
        let h = ChunkHandle::new(self.next_handle);
        self.next_handle += 1;
        h
    }

    /// Splits a payload (or a size) into per-chunk lengths.
    fn chunk_lengths(&self, size: ByteSize) -> Vec<ByteSize> {
        let mut out = Vec::new();
        let mut remaining = size.as_bytes();
        let c = self.chunk_size.as_bytes();
        while remaining > 0 {
            let l = remaining.min(c);
            out.push(ByteSize::from_bytes(l));
            remaining -= l;
        }
        out
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
        let healthy = self.array.healthy_devices();
        if healthy.is_empty() {
            return Err(StripeError::NoHealthyDevices);
        }
        let scheme = clamp_scheme(scheme, healthy.len());

        let lens = self.chunk_lengths(size);
        let m = scheme.data_chunks_per_stripe(healthy.len());

        let mut stripe_ids = Vec::new();
        let mut written: Vec<(DeviceId, ChunkHandle)> = Vec::new();
        let mut completions: Vec<SimTime> = Vec::new();
        let now = self.array.clock().now();
        let usage_before = self.usage;

        let result = (|this: &mut Self| -> Result<(), StripeError> {
            for (stripe_no, group) in lens.chunks(m).enumerate() {
                let stripe_index = this.next_stripe;
                this.next_stripe += 1;
                let id = StripeId(stripe_index);
                let layout = StripeLayout::with_placement(
                    stripe_index,
                    scheme,
                    healthy.len(),
                    this.placement,
                );

                let mut chunks: Vec<StripeChunk> = Vec::new();
                let parity_len = group.iter().copied().fold(ByteSize::ZERO, ByteSize::max);

                // Data chunks (or primary replicas).
                for (j, &len) in group.iter().enumerate() {
                    let role = if scheme.is_replication() {
                        ChunkRole::Replica(0)
                    } else {
                        ChunkRole::Data(j)
                    };
                    let slot = if scheme.is_replication() { 0 } else { j };
                    let device = healthy[layout.data_device(slot).0];
                    let handle = this.alloc_handle();
                    let stored = match payload {
                        Some(p) => {
                            let off = (stripe_no * m + j) as u64 * this.chunk_size.as_bytes();
                            let chunk_bytes = &p[off as usize..(off + len.as_bytes()) as usize];
                            StoredChunk::real(Bytes::copy_from_slice(chunk_bytes))
                        }
                        None => StoredChunk::synthetic(len),
                    };
                    let done = this
                        .array
                        .device_mut(device)
                        .write_chunk(handle, stored, now)?;
                    completions.push(done);
                    written.push((device, handle));
                    chunks.push(StripeChunk {
                        role,
                        device,
                        handle,
                        len,
                        real: payload.is_some(),
                    });
                    this.usage.user_bytes += len;
                }

                // Redundancy chunks.
                match scheme {
                    RedundancyScheme::Parity(0) => {}
                    RedundancyScheme::Parity(k) => {
                        if let Some(p) = payload {
                            // Pad each data chunk to parity_len in the
                            // scratch pool and encode into reusable parity
                            // buffers. The codec wants exactly m data
                            // shards; rows past the stripe's real chunks
                            // stay zero (phantom tail shards).
                            let plen = parity_len.as_bytes() as usize;
                            reset_buffers(&mut this.scratch.shards, m, plen);
                            this.scratch.parity.resize_with(k as usize, Vec::new);
                            for (j, c) in chunks.iter().enumerate() {
                                let off = stripe_offset(stripe_no, m, c.role, this.chunk_size);
                                this.scratch.shards[j][..c.len.as_bytes() as usize]
                                    .copy_from_slice(
                                        &p[off as usize..(off + c.len.as_bytes()) as usize],
                                    );
                            }
                            let rs = this.codecs.get(m, k as usize)?;
                            rs.encode_into(&this.scratch.shards, &mut this.scratch.parity)?;
                        }
                        for p in 0..k as usize {
                            let device = healthy[layout.parity_device(p).0];
                            let handle = this.alloc_handle();
                            let stored = match payload {
                                Some(_) => StoredChunk::real(Bytes::copy_from_slice(
                                    &this.scratch.parity[p],
                                )),
                                None => StoredChunk::synthetic(parity_len),
                            };
                            let done = this
                                .array
                                .device_mut(device)
                                .write_chunk(handle, stored, now)?;
                            completions.push(done);
                            written.push((device, handle));
                            chunks.push(StripeChunk {
                                role: ChunkRole::Parity(p),
                                device,
                                handle,
                                len: parity_len,
                                real: payload.is_some(),
                            });
                            this.usage.redundancy_bytes += parity_len;
                        }
                    }
                    RedundancyScheme::Replication => {
                        // One data chunk per stripe (m == 1); replicate it.
                        let len = group[0];
                        for r in 0..layout.redundancy_slots() {
                            let device = healthy[layout.parity_device(r).0];
                            let handle = this.alloc_handle();
                            let stored = match payload {
                                Some(p) => {
                                    let off = stripe_no as u64 * this.chunk_size.as_bytes();
                                    StoredChunk::real(Bytes::copy_from_slice(
                                        &p[off as usize..(off + len.as_bytes()) as usize],
                                    ))
                                }
                                None => StoredChunk::synthetic(len),
                            };
                            let done = this
                                .array
                                .device_mut(device)
                                .write_chunk(handle, stored, now)?;
                            completions.push(done);
                            written.push((device, handle));
                            chunks.push(StripeChunk {
                                role: ChunkRole::Replica(r + 1),
                                device,
                                handle,
                                len,
                                real: payload.is_some(),
                            });
                            this.usage.redundancy_bytes += len;
                        }
                    }
                }

                this.stripes.insert(
                    id,
                    StripeMeta {
                        scheme,
                        encode_m: m,
                        chunks,
                    },
                );
                stripe_ids.push(id);
            }
            Ok(())
        })(self);

        if let Err(e) = result {
            // Roll back anything written — chunks, stripe metadata, and
            // accounting (including chunks of the stripe that was being
            // assembled when the error hit).
            for (device, handle) in written {
                self.array.device_mut(device).remove_chunk(handle);
            }
            for id in stripe_ids {
                self.stripes.remove(&id);
            }
            self.usage = usage_before;
            return Err(e);
        }

        let completed_at = self.array.complete_batch(completions);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "store", now, completed_at);
        Ok(ObjectLayout {
            owner,
            size,
            scheme,
            stripes: stripe_ids,
        })
    }

    fn stripe(&self, id: StripeId) -> Result<&StripeMeta, StripeError> {
        self.stripes.get(&id).ok_or(StripeError::UnknownStripe(id))
    }

    /// The object's health, computed from chunk intactness. Free — no
    /// service time is charged (a metadata scan).
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a removed
    /// stripe.
    pub fn object_status(&self, layout: &ObjectLayout) -> Result<ObjectStatus, StripeError> {
        let mut degraded = false;
        for &sid in &layout.stripes {
            let meta = self.stripe(sid)?;
            match self.stripe_health(meta) {
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

    fn stripe_health(&self, meta: &StripeMeta) -> StripeHealth {
        stripe_health_on(&self.array, meta)
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
        let now = self.array.clock().now();
        let retries_before = self.transient_retries;
        let mut completions: Vec<SimTime> = Vec::new();
        let mut degraded = false;
        let mut assembled: Option<Vec<Vec<u8>>> = None;

        let (mut io, stripes) = self.split_io();
        for &sid in &layout.stripes {
            let meta = stripes.get(&sid).ok_or(StripeError::UnknownStripe(sid))?;
            match stripe_health_on(io.array, meta) {
                StripeHealth::Lost(lost) => {
                    let tolerated = meta.tolerated(meta.chunks.len());
                    return Err(StripeError::ObjectLost {
                        stripe: sid,
                        lost,
                        tolerated,
                    });
                }
                StripeHealth::Intact => {
                    // Plain read of data chunks / primary replica.
                    let stripe_bytes = io.read_stripe_data(meta, now, &mut completions)?;
                    if let Some(b) = stripe_bytes {
                        assembled.get_or_insert_with(Vec::new).push(b);
                    }
                }
                StripeHealth::Degraded(_) => {
                    degraded = true;
                    let stripe_bytes = io.degraded_read_stripe(meta, now, &mut completions)?;
                    if let Some(b) = stripe_bytes {
                        assembled.get_or_insert_with(Vec::new).push(b);
                    }
                }
            }
        }

        let completed_at = self.array.complete_batch(completions);
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
        let bytes = assembled.map(|per_stripe| {
            let mut out: Vec<u8> = per_stripe.into_iter().flatten().collect();
            out.truncate(layout.size.as_bytes() as usize);
            out
        });
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
        let (sid, local_j) = ChunkCursor::default().seek(self, layout, chunk_index)?;
        self.overwrite_located(sid, local_j, new_payload)
    }

    /// Overwrites the data chunks `chunks` of an object (object order,
    /// inclusive) size-only, one [`StripeManager::overwrite_chunk`] after
    /// another — chunk *i + 1* starts at the clock chunk *i* left — while
    /// walking the layout's stripes once for the whole range. Returns the
    /// completion instant of the last chunk (the current instant for an
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
        let mut cursor = ChunkCursor::default();
        let mut done = self.array.clock().now();
        for chunk_index in chunks {
            let (sid, local_j) = cursor.seek(self, layout, chunk_index)?;
            (_, done) = self.overwrite_located(sid, local_j, None)?;
        }
        Ok(done)
    }

    /// Overwrites the `local_j`-th data chunk of stripe `sid`.
    fn overwrite_located(
        &mut self,
        sid: StripeId,
        local_j: usize,
        new_payload: Option<&[u8]>,
    ) -> Result<(ParityUpdate, SimTime), StripeError> {
        let now = self.array.clock().now();
        let mut completions: Vec<SimTime> = Vec::new();

        let (mut io, stripes) = self.split_io();
        let meta = stripes.get(&sid).ok_or(StripeError::UnknownStripe(sid))?;

        // Overwrites need the stripe intact: reconstructing *and*
        // updating in one step is the rebuild path's job.
        if let StripeHealth::Degraded(lost) | StripeHealth::Lost(lost) =
            stripe_health_on(io.array, meta)
        {
            return Err(StripeError::ObjectLost {
                stripe: sid,
                lost,
                tolerated: meta.tolerated(meta.chunks.len()),
            });
        }

        let target_chunk = *meta
            .chunks
            .iter()
            .filter(|c| c.role.is_user_data())
            .nth(local_j)
            .expect("local index within stripe");
        if let Some(p) = new_payload {
            if p.len() as u64 != target_chunk.len.as_bytes() {
                return Err(StripeError::PayloadSizeMismatch {
                    declared: target_chunk.len.as_bytes(),
                    payload: p.len() as u64,
                });
            }
        }

        let method = match meta.scheme {
            RedundancyScheme::Replication => {
                // Rewrite every replica with the new contents.
                for c in &meta.chunks {
                    let stored = match new_payload {
                        Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
                        None => StoredChunk::synthetic(c.len),
                    };
                    let done = io
                        .array
                        .device_mut(c.device)
                        .write_chunk(c.handle, stored, now)?;
                    completions.push(done);
                }
                ParityUpdate::Rewrite
            }
            RedundancyScheme::Parity(0) => {
                let stored = match new_payload {
                    Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
                    None => StoredChunk::synthetic(target_chunk.len),
                };
                let done = io.array.device_mut(target_chunk.device).write_chunk(
                    target_chunk.handle,
                    stored,
                    now,
                )?;
                completions.push(done);
                ParityUpdate::Rewrite
            }
            RedundancyScheme::Parity(_) => io.overwrite_with_parity(
                meta,
                &target_chunk,
                local_j,
                new_payload,
                now,
                &mut completions,
            )?,
        };

        let completed_at = self.array.complete_batch(completions);
        self.array
            .tracer()
            .record_span(Layer::Stripe, "overwrite", now, completed_at);
        Ok((method, completed_at))
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
        let now = self.array.clock().now();
        let mut completions: Vec<SimTime> = Vec::new();

        let (mut io, stripes) = self.split_io();
        for &sid in &layout.stripes {
            let meta = stripes.get(&sid).ok_or(StripeError::UnknownStripe(sid))?;
            match stripe_health_on(io.array, meta) {
                StripeHealth::Intact => continue,
                StripeHealth::Lost(lost) => {
                    return Err(StripeError::ObjectLost {
                        stripe: sid,
                        lost,
                        tolerated: meta.tolerated(meta.chunks.len()),
                    });
                }
                StripeHealth::Degraded(_) => {}
            }
            io.rebuild_stripe(meta, now, &mut completions)?;
        }
        let completed_at = self.array.complete_batch(completions);
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
        let mut remaining = chunk_index;
        for &sid in &layout.stripes {
            let meta = self.stripe(sid)?;
            let data: Vec<(DeviceId, ChunkHandle)> = meta
                .chunks
                .iter()
                .filter(|c| c.role.is_user_data())
                .map(|c| (c.device, c.handle))
                .collect();
            if (remaining as usize) < data.len() {
                let (device, handle) = data[remaining as usize];
                self.array.device_mut(device).corrupt_chunk(handle);
                return Ok(());
            }
            remaining -= data.len() as u64;
        }
        panic!(
            "chunk index {chunk_index} out of range for object {}",
            layout.owner
        );
    }

    /// Removes an object, releasing all its chunks and accounting. Chunks
    /// on failed devices are forgotten (their space died with the device).
    ///
    /// Stale layouts (already removed) are a no-op.
    pub fn remove_object(&mut self, layout: &ObjectLayout) {
        for &sid in &layout.stripes {
            if let Some(meta) = self.stripes.remove(&sid) {
                for c in meta.chunks {
                    self.array.device_mut(c.device).remove_chunk(c.handle);
                    match c.role {
                        ChunkRole::Data(_) | ChunkRole::Replica(0) => {
                            self.usage.user_bytes = self.usage.user_bytes.saturating_sub(c.len)
                        }
                        _ => {
                            self.usage.redundancy_bytes =
                                self.usage.redundancy_bytes.saturating_sub(c.len)
                        }
                    }
                }
            }
        }
    }

    /// Number of live stripes.
    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    /// Serializes an object's layout *and* the metadata of every stripe it
    /// references into an opaque blob for the metadata journal. The blob
    /// contains no chunk payloads — only placement (owner, size, scheme,
    /// and per-stripe chunk roles/devices/handles/lengths).
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
    /// [`StripeError::UnknownStripe`], leaving `out` with a partial blob.
    pub fn export_object_meta_into(
        &self,
        layout: &ObjectLayout,
        out: &mut Vec<u8>,
    ) -> Result<(), StripeError> {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_u64(out: &mut Vec<u8>, v: u64) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_scheme(out: &mut Vec<u8>, scheme: RedundancyScheme) {
            let (tag, k) = match scheme {
                RedundancyScheme::Parity(k) => (0, k),
                RedundancyScheme::Replication => (1, 0),
            };
            out.extend_from_slice(&[tag, k]);
        }
        put_u64(out, layout.owner);
        put_u64(out, layout.size.as_bytes());
        put_scheme(out, layout.scheme);
        put_u32(out, layout.stripes.len() as u32);
        for &sid in &layout.stripes {
            let meta = self.stripe(sid)?;
            put_u64(out, sid.as_u64());
            put_scheme(out, meta.scheme);
            put_u32(out, meta.encode_m as u32);
            put_u32(out, meta.chunks.len() as u32);
            out.reserve(meta.chunks.len() * CHUNK_META_LEN);
            for c in &meta.chunks {
                let (tag, idx) = match c.role {
                    ChunkRole::Data(i) => (0u8, i),
                    ChunkRole::Parity(i) => (1u8, i),
                    ChunkRole::Replica(i) => (2u8, i),
                };
                let mut row = [0u8; CHUNK_META_LEN];
                row[0] = tag;
                row[1..5].copy_from_slice(&(idx as u32).to_le_bytes());
                row[5..9].copy_from_slice(&(c.device.0 as u32).to_le_bytes());
                row[9..17].copy_from_slice(&c.handle.as_u64().to_le_bytes());
                row[17..25].copy_from_slice(&c.len.as_bytes().to_le_bytes());
                row[25] = c.real as u8;
                out.extend_from_slice(&row);
            }
        }
        Ok(())
    }

    /// Re-registers an object from a blob produced by
    /// [`StripeManager::export_object_meta`]: reinstalls every stripe's
    /// metadata, folds the chunks back into the byte accounting, bumps the
    /// handle/stripe allocators past every installed identifier, and
    /// returns the reconstructed layout. Chunk *contents* are not touched —
    /// they either survived on the array or are found missing by the
    /// post-recovery audit.
    ///
    /// Installing a stripe id that is already registered replaces its
    /// metadata (last write wins, matching journal replay order).
    ///
    /// # Errors
    ///
    /// [`StripeError::CorruptMetadata`] if the blob does not parse.
    pub fn install_object_meta(&mut self, bytes: &[u8]) -> Result<ObjectLayout, StripeError> {
        struct Cursor<'a> {
            bytes: &'a [u8],
            at: usize,
        }
        impl Cursor<'_> {
            fn u8(&mut self) -> Result<u8, StripeError> {
                let v = *self
                    .bytes
                    .get(self.at)
                    .ok_or(StripeError::CorruptMetadata)?;
                self.at += 1;
                Ok(v)
            }
            fn u32(&mut self) -> Result<u32, StripeError> {
                let s = self
                    .bytes
                    .get(self.at..self.at + 4)
                    .ok_or(StripeError::CorruptMetadata)?;
                self.at += 4;
                Ok(u32::from_le_bytes(s.try_into().unwrap()))
            }
            fn u64(&mut self) -> Result<u64, StripeError> {
                let s = self
                    .bytes
                    .get(self.at..self.at + 8)
                    .ok_or(StripeError::CorruptMetadata)?;
                self.at += 8;
                Ok(u64::from_le_bytes(s.try_into().unwrap()))
            }
            fn scheme(&mut self) -> Result<RedundancyScheme, StripeError> {
                let tag = self.u8()?;
                let k = self.u8()?;
                match tag {
                    0 => Ok(RedundancyScheme::Parity(k)),
                    1 => Ok(RedundancyScheme::Replication),
                    _ => Err(StripeError::CorruptMetadata),
                }
            }
        }
        let mut cur = Cursor { bytes, at: 0 };
        let owner = cur.u64()?;
        let size = ByteSize::from_bytes(cur.u64()?);
        let scheme = cur.scheme()?;
        let stripe_count = cur.u32()? as usize;
        if stripe_count > bytes.len() {
            return Err(StripeError::CorruptMetadata);
        }
        let device_count = self.array.device_count();
        let mut stripes = Vec::with_capacity(stripe_count);
        let mut metas = Vec::with_capacity(stripe_count);
        for _ in 0..stripe_count {
            let sid = StripeId(cur.u64()?);
            let stripe_scheme = cur.scheme()?;
            let encode_m = cur.u32()? as usize;
            let chunk_count = cur.u32()? as usize;
            if chunk_count > bytes.len() {
                return Err(StripeError::CorruptMetadata);
            }
            let mut chunks = Vec::with_capacity(chunk_count);
            for _ in 0..chunk_count {
                let tag = cur.u8()?;
                let idx = cur.u32()? as usize;
                let role = match tag {
                    0 => ChunkRole::Data(idx),
                    1 => ChunkRole::Parity(idx),
                    2 => ChunkRole::Replica(idx),
                    _ => return Err(StripeError::CorruptMetadata),
                };
                let device = DeviceId(cur.u32()? as usize);
                if device.0 >= device_count {
                    return Err(StripeError::CorruptMetadata);
                }
                let handle = ChunkHandle::new(cur.u64()?);
                let len = ByteSize::from_bytes(cur.u64()?);
                let real = match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(StripeError::CorruptMetadata),
                };
                chunks.push(StripeChunk {
                    role,
                    device,
                    handle,
                    len,
                    real,
                });
            }
            stripes.push(sid);
            metas.push((
                sid,
                StripeMeta {
                    scheme: stripe_scheme,
                    encode_m,
                    chunks,
                },
            ));
        }
        if cur.at != bytes.len() {
            return Err(StripeError::CorruptMetadata);
        }
        // Parse succeeded in full: commit.
        for (sid, meta) in metas {
            if let Some(old) = self.stripes.remove(&sid) {
                for c in &old.chunks {
                    self.charge_usage(c, false);
                }
            }
            for c in &meta.chunks {
                self.charge_usage(c, true);
                self.next_handle = self.next_handle.max(c.handle.as_u64() + 1);
                self.array.device_mut(c.device).note_referenced(c.handle);
            }
            self.next_stripe = self.next_stripe.max(sid.as_u64() + 1);
            self.stripes.insert(sid, meta);
        }
        Ok(ObjectLayout {
            owner,
            size,
            scheme,
            stripes,
        })
    }

    fn charge_usage(&mut self, c: &StripeChunk, add: bool) {
        let slot = if c.role.is_user_data() {
            &mut self.usage.user_bytes
        } else {
            &mut self.usage.redundancy_bytes
        };
        *slot = if add {
            *slot + c.len
        } else {
            slot.saturating_sub(c.len)
        };
    }

    /// Simulates the DRAM side of a power loss: every piece of in-memory
    /// stripe metadata (stripe tables, byte accounting, allocator cursors)
    /// vanishes. The flash array — the durable medium — is untouched.
    pub fn simulate_crash(&mut self) {
        self.stripes.clear();
        self.usage = SpaceUsage::default();
        self.next_handle = 0;
        self.next_stripe = 0;
    }

    /// Every `(device, handle)` pair referenced by live stripe metadata,
    /// sorted and deduplicated.
    pub fn referenced_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = self
            .stripes
            .values()
            .flat_map(|m| m.chunks.iter().map(|c| (c.device, c.handle)))
            .collect();
        refs.sort_unstable_by_key(|(d, h)| (d.0, h.as_u64()));
        refs.dedup();
        refs
    }

    /// `(device, handle)` pairs claimed by more than one stripe chunk — a
    /// violation of the no-double-allocated-chunk invariant. Empty on a
    /// consistent manager.
    pub fn double_allocated_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = self
            .stripes
            .values()
            .flat_map(|m| m.chunks.iter().map(|c| (c.device, c.handle)))
            .collect();
        refs.sort_unstable_by_key(|(d, h)| (d.0, h.as_u64()));
        let mut dup = Vec::new();
        for w in refs.windows(2) {
            if w[0] == w[1] && dup.last() != Some(&w[0]) {
                dup.push(w[0]);
            }
        }
        dup
    }

    /// Removes every chunk on the array that no live stripe references —
    /// the orphans left behind by writes whose metadata never reached the
    /// journal before a crash, or by removals whose chunk frees raced the
    /// crash. Returns how many chunks were collected.
    pub fn remove_unreferenced_chunks(&mut self) -> usize {
        use std::collections::HashSet;
        let referenced: HashSet<(usize, u64)> = self
            .referenced_chunks()
            .into_iter()
            .map(|(d, h)| (d.0, h.as_u64()))
            .collect();
        let mut removed = 0;
        for id in 0..self.array.device_count() {
            let device = self.array.device_mut(DeviceId(id));
            for handle in device.chunk_handles() {
                if !referenced.contains(&(id, handle.as_u64())) {
                    device.remove_chunk(handle);
                    removed += 1;
                }
            }
        }
        removed
    }
}

/// Maps ascending object-order data-chunk indices to `(stripe, index
/// within the stripe)`, visiting each stripe of the layout once.
#[derive(Default)]
struct ChunkCursor {
    /// Position in the layout's stripe list.
    stripe_pos: usize,
    /// Object-order index of that stripe's first data chunk.
    first_chunk: u64,
}

impl ChunkCursor {
    /// Advances to the stripe holding `chunk_index`, which must not be
    /// below an index already sought.
    fn seek(
        &mut self,
        manager: &StripeManager,
        layout: &ObjectLayout,
        chunk_index: u64,
    ) -> Result<(StripeId, usize), StripeError> {
        while let Some(&sid) = layout.stripes.get(self.stripe_pos) {
            let meta = manager.stripe(sid)?;
            let data_chunks = meta.chunks.iter().filter(|c| c.role.is_user_data()).count() as u64;
            if chunk_index < self.first_chunk + data_chunks {
                return Ok((sid, (chunk_index - self.first_chunk) as usize));
            }
            self.first_chunk += data_chunks;
            self.stripe_pos += 1;
        }
        panic!(
            "chunk index {chunk_index} out of range for object {}",
            layout.owner
        );
    }
}

impl StripeIo<'_> {
    /// Reads the data chunks of an intact stripe. Returns assembled bytes
    /// if the stripe holds real payloads.
    fn read_stripe_data(
        &mut self,
        meta: &StripeMeta,
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<Option<Vec<u8>>, StripeError> {
        if meta.scheme.is_replication() {
            // Primary replica only.
            let primary = meta
                .chunks
                .iter()
                .find(|c| matches!(c.role, ChunkRole::Replica(0)))
                .expect("replicated stripe has a primary");
            let (chunk, done) = read_chunk_retrying(
                self.array,
                self.transient_retries,
                primary.device,
                primary.handle,
                now,
            )?;
            completions.push(done);
            return Ok(chunk.payload().as_bytes().map(|b| b.to_vec()));
        }
        let mut parts: Vec<(usize, Option<Vec<u8>>)> = Vec::new();
        for c in &meta.chunks {
            if let ChunkRole::Data(j) = c.role {
                let (chunk, done) = read_chunk_retrying(
                    self.array,
                    self.transient_retries,
                    c.device,
                    c.handle,
                    now,
                )?;
                completions.push(done);
                parts.push((j, chunk.payload().as_bytes().map(|b| b.to_vec())));
            }
        }
        parts.sort_by_key(|(j, _)| *j);
        if parts.iter().all(|(_, b)| b.is_some()) && !parts.is_empty() {
            Ok(Some(
                parts.into_iter().flat_map(|(_, b)| b.unwrap()).collect(),
            ))
        } else {
            Ok(None)
        }
    }

    /// Degraded read: read enough surviving chunks to reconstruct the
    /// stripe's data, decode if payloads are real.
    fn degraded_read_stripe(
        &mut self,
        meta: &StripeMeta,
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<Option<Vec<u8>>, StripeError> {
        if meta.scheme.is_replication() {
            // Any surviving replica serves the read.
            let replica = meta
                .chunks
                .iter()
                .find(|c| chunk_intact_on(self.array, c))
                .expect("degraded (not lost) stripe has a survivor");
            let (chunk, done) = read_chunk_retrying(
                self.array,
                self.transient_retries,
                replica.device,
                replica.handle,
                now,
            )?;
            completions.push(done);
            return Ok(chunk.payload().as_bytes().map(|b| b.to_vec()));
        }

        // Parity stripe: collect survivors (data + parity), read the first
        // `m` of them, reconstruct.
        let m_actual = meta
            .chunks
            .iter()
            .filter(|c| matches!(c.role, ChunkRole::Data(_)))
            .count();
        let parity_count = meta.chunks.len() - m_actual;
        let parity_len = meta
            .chunks
            .iter()
            .map(|c| c.len)
            .fold(ByteSize::ZERO, ByteSize::max);

        // Build the shard array in codec order: data shards (padded to the
        // encode-time `m` with phantom zero shards for short stripes),
        // then parity shards. Size-only stripes carry no bytes: they are
        // charged the same chunk reads below and build nothing.
        let codec_m = meta.encode_m;
        let real = meta.chunks.first().map(|c| c.real).unwrap_or(false);
        let mut shards = if real {
            shard_slots(codec_m, m_actual, parity_count, parity_len)
        } else {
            Vec::new()
        };
        let mut reads_done = 0usize;

        let mut missing_real = 0usize;
        for c in &meta.chunks {
            let idx = match c.role {
                ChunkRole::Data(j) => j,
                ChunkRole::Parity(p) => codec_m + p,
                ChunkRole::Replica(_) => unreachable!("parity stripe"),
            };
            if chunk_intact_on(self.array, c) {
                // Only read up to m shards total (phantoms are free).
                if reads_done + (codec_m - m_actual) < codec_m {
                    let (chunk, done) = read_chunk_retrying(
                        self.array,
                        self.transient_retries,
                        c.device,
                        c.handle,
                        now,
                    )?;
                    completions.push(done);
                    reads_done += 1;
                    if real {
                        shards[idx] = Some(padded_shard(&chunk, parity_len));
                    }
                }
            } else {
                missing_real += 1;
            }
        }
        debug_assert!(missing_real <= parity_count);

        if !real {
            // Synthetic mode: timing already charged; nothing to decode.
            return Ok(None);
        }

        let rs = self.codecs.get(codec_m, parity_count)?;
        rs.reconstruct(&mut shards)?;

        // Assemble data bytes in order, trimming to recorded lengths.
        let mut out = Vec::new();
        let mut lens: Vec<(usize, ByteSize)> = meta
            .chunks
            .iter()
            .filter_map(|c| match c.role {
                ChunkRole::Data(j) => Some((j, c.len)),
                _ => None,
            })
            .collect();
        lens.sort_by_key(|(j, _)| *j);
        for (j, len) in lens {
            let shard = shards[j].as_ref().expect("reconstructed");
            out.extend_from_slice(&shard[..len.as_bytes() as usize]);
        }
        Ok(Some(out))
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
        meta: &StripeMeta,
        target: &StripeChunk,
        local_j: usize,
        new_payload: Option<&[u8]>,
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<ParityUpdate, StripeError> {
        let is_parity = |c: &&StripeChunk| matches!(c.role, ChunkRole::Parity(_));
        let is_data = |c: &&StripeChunk| matches!(c.role, ChunkRole::Data(_));
        let k = meta.chunks.iter().filter(is_parity).count();
        let m_actual = meta.chunks.iter().filter(is_data).count();
        let parity_len = meta
            .chunks
            .iter()
            .map(|c| c.len)
            .fold(ByteSize::ZERO, ByteSize::max);
        let plen = parity_len.as_bytes() as usize;
        let real = target.real;

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
            let (old_chunk, done) = read_chunk_retrying(
                self.array,
                self.transient_retries,
                target.device,
                target.handle,
                now,
            )?;
            completions.push(done);
            if real {
                let b = old_chunk.payload().as_bytes().expect("real stripe");
                self.scratch.shards[0][..b.len()].copy_from_slice(b);
                let new = new_payload.expect("real stripes get real payloads");
                self.scratch.shards[1][..new.len()].copy_from_slice(new);
            }
            for (p, c) in meta.chunks.iter().filter(is_parity).enumerate() {
                let (chunk, done) = read_chunk_retrying(
                    self.array,
                    self.transient_retries,
                    c.device,
                    c.handle,
                    now,
                )?;
                completions.push(done);
                if real {
                    let b = chunk.payload().as_bytes().expect("real stripe");
                    self.scratch.parity[p][..b.len()].copy_from_slice(b);
                }
            }
            if real {
                let rs = self.codecs.get(meta.encode_m, k)?;
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
                reset_buffers(&mut self.scratch.shards, meta.encode_m, plen);
                self.scratch.parity.resize_with(k, Vec::new);
            }
            for (j, c) in meta.chunks.iter().filter(is_data).enumerate() {
                if j == local_j {
                    if let (true, Some(p)) = (real, new_payload) {
                        self.scratch.shards[j][..p.len()].copy_from_slice(p);
                    }
                    continue;
                }
                let (chunk, done) = read_chunk_retrying(
                    self.array,
                    self.transient_retries,
                    c.device,
                    c.handle,
                    now,
                )?;
                completions.push(done);
                if real {
                    if let Some(b) = chunk.payload().as_bytes() {
                        self.scratch.shards[j][..b.len()].copy_from_slice(b);
                    }
                }
            }
            if real {
                let rs = self.codecs.get(meta.encode_m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
        }

        // Write the new data chunk and the refreshed parity chunks.
        let stored = match new_payload {
            Some(p) => StoredChunk::real(Bytes::copy_from_slice(p)),
            None => StoredChunk::synthetic(target.len),
        };
        let done = self
            .array
            .device_mut(target.device)
            .write_chunk(target.handle, stored, now)?;
        completions.push(done);
        for (p, c) in meta.chunks.iter().filter(is_parity).enumerate() {
            let stored = if real {
                StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            let done = self
                .array
                .device_mut(c.device)
                .write_chunk(c.handle, stored, now)?;
            completions.push(done);
        }

        Ok(if use_delta {
            ParityUpdate::Delta
        } else {
            ParityUpdate::Direct
        })
    }

    /// Rebuilds the lost chunks of one degraded stripe back onto their
    /// (replaced) devices.
    fn rebuild_stripe(
        &mut self,
        meta: &StripeMeta,
        now: SimTime,
        completions: &mut Vec<SimTime>,
    ) -> Result<(), StripeError> {
        if meta.scheme.is_replication() {
            // Copy a surviving replica onto each lost slot.
            let survivor = *meta
                .chunks
                .iter()
                .find(|c| chunk_intact_on(self.array, c))
                .expect("degraded stripe has a survivor");
            let (src, done) = read_chunk_retrying(
                self.array,
                self.transient_retries,
                survivor.device,
                survivor.handle,
                now,
            )?;
            completions.push(done);
            let lost: Vec<StripeChunk> = meta
                .chunks
                .iter()
                .filter(|c| !chunk_intact_on(self.array, c))
                .copied()
                .collect();
            for c in lost {
                let stored = match src.payload().as_bytes() {
                    Some(b) => StoredChunk::real(b.clone()),
                    None => StoredChunk::synthetic(c.len),
                };
                let done = self
                    .array
                    .device_mut(c.device)
                    .write_chunk(c.handle, stored, now)?;
                completions.push(done);
            }
            return Ok(());
        }

        // Parity stripe: reconstruct all shards, write back lost.
        let parity_len = meta
            .chunks
            .iter()
            .map(|c| c.len)
            .fold(ByteSize::ZERO, ByteSize::max);
        let codec_m = meta.encode_m;
        let real = meta.chunks.first().map(|c| c.real).unwrap_or(false);
        let parity_count = meta
            .chunks
            .iter()
            .filter(|c| matches!(c.role, ChunkRole::Parity(_)))
            .count();
        let m_actual = meta.chunks.len() - parity_count;

        let mut shards = if real {
            shard_slots(codec_m, m_actual, parity_count, parity_len)
        } else {
            Vec::new()
        };
        let mut survivors_read = 0usize;
        for c in &meta.chunks {
            if !chunk_intact_on(self.array, c) {
                continue;
            }
            if survivors_read + (codec_m - m_actual) >= codec_m {
                break;
            }
            let idx = match c.role {
                ChunkRole::Data(j) => j,
                ChunkRole::Parity(p) => codec_m + p,
                ChunkRole::Replica(_) => unreachable!(),
            };
            let (chunk, done) =
                read_chunk_retrying(self.array, self.transient_retries, c.device, c.handle, now)?;
            completions.push(done);
            survivors_read += 1;
            if real {
                shards[idx] = Some(padded_shard(&chunk, parity_len));
            }
        }

        if real {
            let rs = self.codecs.get(codec_m, parity_count)?;
            rs.reconstruct(&mut shards)?;
        }

        let lost: Vec<StripeChunk> = meta
            .chunks
            .iter()
            .filter(|c| !chunk_intact_on(self.array, c))
            .copied()
            .collect();
        for c in lost {
            let idx = match c.role {
                ChunkRole::Data(j) => j,
                ChunkRole::Parity(p) => codec_m + p,
                ChunkRole::Replica(_) => unreachable!(),
            };
            let stored = if real {
                let shard = shards[idx].as_ref().expect("reconstructed");
                StoredChunk::real(Bytes::copy_from_slice(&shard[..c.len.as_bytes() as usize]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            let done = self
                .array
                .device_mut(c.device)
                .write_chunk(c.handle, stored, now)?;
            completions.push(done);
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
    array.device(c.device).chunk_is_intact(c.handle)
}

fn stripe_health_on(array: &FlashArray, meta: &StripeMeta) -> StripeHealth {
    // A healthy device with nothing awaiting rebuild vouches for every
    // chunk placed on it, so the common case needs no per-chunk probe.
    if meta
        .chunks
        .iter()
        .all(|c| array.device(c.device).all_chunks_intact())
    {
        debug_assert!(meta.chunks.iter().all(|c| chunk_intact_on(array, c)));
        return StripeHealth::Intact;
    }
    let lost = meta
        .chunks
        .iter()
        .filter(|c| !chunk_intact_on(array, c))
        .count();
    if lost == 0 {
        return StripeHealth::Intact;
    }
    if meta.scheme.is_replication() {
        // Recoverable while any replica survives.
        if lost == meta.chunks.len() {
            StripeHealth::Lost(lost)
        } else {
            StripeHealth::Degraded(lost)
        }
    } else {
        let width = meta.chunks.len();
        if lost <= meta.tolerated(width) {
            StripeHealth::Degraded(lost)
        } else {
            StripeHealth::Lost(lost)
        }
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

fn stripe_offset(stripe_no: usize, m: usize, role: ChunkRole, chunk_size: ByteSize) -> u64 {
    let j = match role {
        ChunkRole::Data(j) => j,
        ChunkRole::Replica(0) => 0,
        _ => 0,
    };
    (stripe_no * m + j) as u64 * chunk_size.as_bytes()
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
        assert_eq!(restored.stripes(), layout.stripes());
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
            .iter()
            .all(|s| !layout.stripes().contains(s)));
    }

    #[test]
    fn orphan_chunks_are_collected_after_crash() {
        let mut m = mgr(5);
        let keep = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let orphaned = m
            .store_object(2, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let blob = m.export_object_meta(&keep).unwrap();
        m.simulate_crash();
        m.install_object_meta(&blob).unwrap();
        // Only `keep`'s metadata was journaled: `orphaned`'s chunks are
        // unreferenced and must be garbage collected.
        let removed = m.remove_unreferenced_chunks();
        assert!(removed > 0);
        let total_chunks: usize = (0..m.array().device_count())
            .map(|i| m.array().device(DeviceId(i)).chunk_count())
            .sum();
        assert_eq!(total_chunks, m.referenced_chunks().len());
        assert!(m.read_object(&keep).is_ok());
        drop(orphaned);
    }

    #[test]
    fn corrupt_meta_blobs_are_rejected() {
        let mut m = mgr(5);
        let layout = m
            .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
            .unwrap();
        let blob = m.export_object_meta(&layout).unwrap();
        assert!(matches!(
            m.install_object_meta(&blob[..blob.len() - 3]),
            Err(StripeError::CorruptMetadata)
        ));
        let mut garbage = blob.clone();
        garbage[16] = 0xFF; // scheme tag
        assert!(matches!(
            m.install_object_meta(&garbage),
            Err(StripeError::CorruptMetadata)
        ));
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
        let gone = m.stripes[&layout.stripes[0]].chunks[0];
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
