//! The stateful stripe manager over a flash array: its public API, and
//! the operations on live objects. (Metadata export, reinstall and the
//! post-crash sweeps are in `recovery.rs`.)

use std::error::Error;
use std::fmt;

use reo_erasure::CodecError;
use reo_flashsim::{ChunkHandle, DeviceId, FaultPlan, FlashArray, FlashError};
use reo_sim::{ByteSize, FastMap, Layer, SimTime, Tracer};

use crate::extent::{Extent, ExtentShape, ObjectLayout, PlacedExtent, StripeId};
use crate::io::{
    lost_shares_on, stripe_health_on, CodecCache, PendingRun, StripeHealth, StripeIo, StripeScratch,
};
use crate::scheme::RedundancyScheme;

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

/// Whether an object fits the array ([`StripeManager::room_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Room {
    /// Every device has room for its share now.
    Fits,
    /// Some device is short of its share now: removing objects can make
    /// room.
    Short,
    /// Some device could not hold its share even empty.
    Never,
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

/// Stores objects as variable-redundancy stripes on a [`FlashArray`].
///
/// See the crate docs for the model. One manager owns one array.
#[derive(Clone, Debug)]
pub struct StripeManager {
    pub(crate) array: FlashArray,
    pub(crate) chunk_size: ByteSize,
    pub(crate) next_stripe: u64,
    /// One extent per stored object, keyed by its first stripe.
    pub(crate) extents: FastMap<StripeId, Extent>,
    pub(crate) usage: SpaceUsage,
    transient_retries: u64,
    codecs: CodecCache,
    pub(crate) scratch: StripeScratch,
    /// Per-device state of the operation in flight, indexed by device;
    /// kept between operations only for its capacity.
    runs: Vec<PendingRun>,
}

impl StripeManager {
    /// Creates a manager over `array` using `chunk_size` chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero, or if the array has more than 64
    /// devices (an extent records the devices it was placed over as one
    /// bit each of a `u64`).
    pub fn new(array: FlashArray, chunk_size: ByteSize) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be non-zero");
        assert!(
            array.device_count() <= u64::BITS as usize,
            "a stripe manager spans at most 64 devices, not {}",
            array.device_count()
        );
        StripeManager {
            runs: vec![PendingRun::default(); array.device_count()],
            array,
            chunk_size,
            next_stripe: 0,
            extents: FastMap::default(),
            usage: SpaceUsage::default(),
            transient_retries: 0,
            codecs: CodecCache::default(),
            scratch: StripeScratch::default(),
        }
    }

    /// The I/O half of the manager, for an operation issued now.
    fn io(&mut self) -> StripeIo<'_> {
        let now = self.array.clock().now();
        StripeIo {
            array: &mut self.array,
            transient_retries: &mut self.transient_retries,
            codecs: &mut self.codecs,
            scratch: &mut self.scratch,
            runs: &mut self.runs,
            now,
            latest: now,
        }
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

    /// Whether an object of `size` under `scheme` fits the array now, by
    /// the rule [`StripeManager::store_object`] applies: every healthy
    /// device needs room for its share of the extent the store would place
    /// from the next stripe on. The chunks of `freeing`, when given, count
    /// as free — what a re-encode releases before it stores again.
    ///
    /// An empty object fits; with no healthy device nothing ever does.
    pub fn room_for(
        &self,
        size: ByteSize,
        scheme: RedundancyScheme,
        freeing: Option<&ObjectLayout>,
    ) -> Room {
        if size.is_zero() {
            return Room::Fits;
        }
        let Some(placed) = self.next_extent(size, scheme, false) else {
            return Room::Never;
        };
        let capacity = |d| self.array.device(d).config().capacity;
        let short = match freeing.and_then(|layout| self.placed(layout).ok()) {
            Some(old) => self.first_short(&placed, self.freed_by(&old)),
            None => self.first_short(&placed, |_| ByteSize::ZERO),
        };
        if placed.shares().any(|(d, share)| share > capacity(d)) {
            Room::Never
        } else if short.is_some() {
            Room::Short
        } else {
            Room::Fits
        }
    }

    /// The room rule: the refusal of the first of `placed`'s devices whose
    /// share is more than its free bytes, plus what `freed` says removing
    /// some object would free there (asked only of a device short without).
    fn first_short(
        &self,
        placed: &PlacedExtent,
        mut freed: impl FnMut(DeviceId) -> ByteSize,
    ) -> Option<FlashError> {
        placed.shares().find_map(|(device, requested)| {
            let mut available = self.array.device(device).available();
            if requested > available {
                available += freed(device);
            }
            (requested > available).then_some(FlashError::DeviceFull {
                device,
                requested,
                available,
            })
        })
    }

    /// What removing `old` frees on a healthy device: its share there, less
    /// any chunk a replaced device took with it.
    fn freed_by<'a>(&'a self, old: &'a PlacedExtent) -> impl FnMut(DeviceId) -> ByteSize + 'a {
        let mut shares = None;
        move |device| {
            let flash = self.array.device(device);
            if flash.all_chunks_intact() {
                let shares = shares.get_or_insert_with(|| {
                    let mut shares = [ByteSize::ZERO; u64::BITS as usize];
                    old.shares().for_each(|(d, share)| shares[d.0] = share);
                    shares
                });
                return shares[device.0];
            }
            let chunks = old.stripes().flat_map(|s| s.chunks());
            let held = chunks.filter(|c| c.device == device && flash.holds_chunk(c.handle));
            held.map(|c| c.len).sum()
        }
    }

    /// The extent a store of `size` under `scheme` places now: over the
    /// healthy devices, with the parity count clamped to them, from the
    /// next stripe on. `None` when no device is healthy.
    fn next_extent(
        &self,
        size: ByteSize,
        scheme: RedundancyScheme,
        real: bool,
    ) -> Option<PlacedExtent> {
        let healthy = self
            .array
            .healthy()
            .fold(0u64, |set, d| set | 1 << d.id().0);
        if healthy == 0 {
            return None;
        }
        let extent = Extent {
            size,
            healthy,
            scheme: scheme.clamped_to(healthy.count_ones() as usize),
            real,
        };
        Some(extent.placed(StripeId(self.next_stripe), self.chunk_size))
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
    /// * [`StripeError::Flash`] — a device has no room for its share
    ///   ([`StripeManager::room_for`]): the first such device's
    ///   [`FlashError::DeviceFull`], with its share and its free bytes.
    ///   Nothing is written or charged, and the next store starts at the
    ///   same stripe.
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
        let placed = self
            .next_extent(size, scheme, payload.is_some())
            .ok_or(StripeError::NoHealthyDevices)?;
        if let Some(refused) = self.first_short(&placed, |_| ByteSize::ZERO) {
            return Err(StripeError::Flash(refused));
        }
        Ok(self.write_placed(owner, &placed, payload))
    }

    /// Re-encodes the object `layout` names under `scheme`, as `owner`'s,
    /// if every device has room for its share with the object's chunks
    /// freed ([`StripeManager::room_for`]): reads it (degraded reads
    /// allowed), removes it and stores it again from the next stripe on.
    /// The new extent is placed once, before anything is read.
    ///
    /// # Errors
    ///
    /// Each leaves the object as it was: [`StripeError::UnknownStripe`],
    /// the first short device's [`FlashError::DeviceFull`] (nothing read or
    /// charged), or what reading it fails with (with no healthy device, its
    /// first stripe's loss).
    pub fn reencode_object(
        &mut self,
        layout: &ObjectLayout,
        scheme: RedundancyScheme,
        owner: u64,
    ) -> Result<ObjectLayout, StripeError> {
        let old = self.placed(layout)?;
        let Some(mut placed) = self.next_extent(layout.size, scheme, false) else {
            let first = old.stripes().next().expect("an extent has a stripe");
            return Err(first.object_lost(first.chunks().count()));
        };
        if let Some(refused) = self.first_short(&placed, self.freed_by(&old)) {
            return Err(StripeError::Flash(refused));
        }
        let bytes = self.read_placed(&old)?.bytes;
        placed.extent.real = bytes.is_some();
        self.extents.remove(&layout.first_stripe);
        self.free(&old);
        Ok(self.write_placed(owner, &placed, bytes.as_deref()))
    }

    /// Writes `placed` (from the next stripe on) as `owner`'s object. The
    /// room rule has admitted it: every device of the extent is healthy
    /// and has room for its share, so no write of it can be refused.
    fn write_placed(
        &mut self,
        owner: u64,
        placed: &PlacedExtent,
        payload: Option<&[u8]>,
    ) -> ObjectLayout {
        let (extent, first_stripe) = (placed.extent, self.next_stripe);
        let stripe_count = placed.shape.stripes;
        self.next_stripe += stripe_count;

        // A size-only extent goes out as one run per device: none of those
        // writes can be refused, so the order between devices cannot show.
        // A real extent is written chunk by chunk in extent order, parity
        // encoded stripe by stripe.
        let now = self.array.clock().now();
        let mut latest = now;
        if !extent.real {
            let (full, chunk_size) = (placed.full_stripes(), self.chunk_size);
            for (d, tail) in placed.tails() {
                let first = ChunkHandle::new(first_stripe);
                let tail = tail.map(|len| (ChunkHandle::new(first_stripe + full), len));
                let device = self.array.device_mut(d);
                latest = latest.max(device.write_run(first, full, chunk_size, tail, now));
            }
        } else {
            let mut io = self.io();
            io.write_extent(placed, payload)
                .expect("the room rule admitted the store");
            latest = io.finish();
        }
        self.completed("store", now, latest);

        self.charge_usage(placed);
        self.extents.insert(StripeId(first_stripe), extent);
        ObjectLayout {
            owner,
            size: extent.size,
            scheme: extent.scheme,
            first_stripe: StripeId(first_stripe),
            stripe_count: u32::try_from(stripe_count).expect("a stored object's stripes fit a u32"),
        }
    }

    /// Ends an operation started at `now` whose last chunk operation
    /// completes at `latest`: the clock moves there, and the span is
    /// recorded.
    fn completed(&self, name: &'static str, now: SimTime, latest: SimTime) -> SimTime {
        let completed_at = self.array.complete_batch([latest]);
        self.array
            .tracer()
            .record_span(Layer::Stripe, name, now, completed_at);
        completed_at
    }

    pub(crate) fn extent(&self, layout: &ObjectLayout) -> Result<&Extent, StripeError> {
        let first = layout.first_stripe;
        self.extents
            .get(&first)
            .ok_or(StripeError::UnknownStripe(first))
    }

    /// The extent `layout` names, with what addresses its chunks.
    pub(crate) fn placed(&self, layout: &ObjectLayout) -> Result<PlacedExtent, StripeError> {
        let extent = self.extent(layout)?;
        let placed = extent.placed(layout.first_stripe, self.chunk_size);
        debug_assert_eq!(placed.shape.stripes, u64::from(layout.stripe_count));
        Ok(placed)
    }

    /// The object's health, computed from chunk intactness. Free — no
    /// service time is charged (a metadata scan). Its whole stripes are
    /// judged by each device's share of them when every share answers as a
    /// whole, and only the last stripe is probed chunk by chunk; otherwise
    /// every stripe is.
    ///
    /// # Errors
    ///
    /// [`StripeError::UnknownStripe`] if the layout references a removed
    /// stripe.
    pub fn object_status(&self, layout: &ObjectLayout) -> Result<ObjectStatus, StripeError> {
        let placed = self.placed(layout)?;
        // Each whole stripe has a chunk on every device of the extent, so
        // it loses exactly the lost shares.
        let (from, mut degraded) = match lost_shares_on(&self.array, &placed) {
            Some(lost) if lost.count_ones() as usize > placed.tolerated() => {
                return Ok(ObjectStatus::Lost)
            }
            Some(lost) => (placed.full_stripes(), lost != 0),
            None => (0, false),
        };
        for stripe in placed.stripes_from(from) {
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
        let placed = self.placed(layout)?;
        self.read_placed(&placed)
    }

    /// [`StripeManager::read_object`] of the extent `placed`.
    fn read_placed(&mut self, placed: &PlacedExtent) -> Result<ReadOutcome, StripeError> {
        let retries_before = self.transient_retries;
        let mut io = self.io();
        let now = io.now;
        let result = io.read_extent(placed);
        let latest = io.finish();
        let (mut bytes, degraded) = result?;

        let completed_at = self.completed("read", now, latest);
        if degraded {
            // On-the-fly reconstruction served this read: flag the event
            // on the request's trace tree.
            self.array.tracer().annotate("read-repair", completed_at);
        }
        if self.transient_retries > retries_before {
            self.array.tracer().annotate("retry", completed_at);
        }
        if let Some(bytes) = &mut bytes {
            bytes.truncate(placed.extent.size.as_bytes() as usize);
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
        let placed = self.placed(layout)?;
        let (stripe, local_j) = placed.locate(layout.owner, chunk_index);
        let mut io = self.io();
        let now = io.now;
        let result = io.overwrite(&stripe, local_j, new_payload);
        let latest = io.finish();
        let method = result?;

        Ok((method, self.completed("overwrite", now, latest)))
    }

    /// Overwrites the data chunks `chunks` of an object (object order,
    /// inclusive) size-only, leaving every instant and counter where one
    /// [`StripeManager::overwrite_chunk`] after another does — chunk
    /// *i + 1* starts at the clock chunk *i* left. Returns the completion
    /// instant of the last chunk (the current instant for an empty range).
    ///
    /// The first chunk is that call: it absorbs whatever queue the devices
    /// had. After it every device of a replicated stripe is idle at the
    /// clock, so the whole chunks that follow run in lockstep, one every
    /// write time of the slowest device, and rewriting an intact size-only
    /// chunk as what it is changes no table: on a size-only replicated
    /// object whose devices
    /// [hold only intact chunks](reo_flashsim::FlashDevice::all_chunks_intact)
    /// they are charged as one run per device, however many they are. The
    /// object's short last chunk, parity schemes, objects with real
    /// payloads and devices that cannot vouch go chunk by chunk.
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
        let (first, last) = (*chunks.start(), *chunks.end());
        let mut done = self.array.clock().now();
        if first > last {
            return Ok(done);
        }
        (_, done) = self.overwrite_chunk(layout, first, None)?;
        let mut next = first + 1;
        if next <= last {
            let placed = self.placed(layout)?;
            // Where the whole chunks of the range end: only the object's
            // last chunk can be short.
            let whole_end = last.saturating_add(1).min(layout.size / self.chunk_size);
            let vouched = |d| self.array.device(d).all_chunks_intact();
            if next < whole_end
                && !placed.extent.real
                && placed.extent.scheme.is_replication()
                && placed.devices().all(vouched)
            {
                done = self.rewrite_in_lockstep(&placed, next..whole_end, done);
                next = whole_end;
            }
        }
        for chunk_index in next..=last {
            (_, done) = self.overwrite_chunk(layout, chunk_index, None)?;
        }
        Ok(done)
    }

    /// Charges the size-only overwrites of the whole data chunks `chunks`
    /// of a replicated extent, one after another from `start`, where every
    /// device of the extent is idle and holds only intact chunks: each chunk is
    /// a stripe of its own under its id, with a replica on every device,
    /// and takes the slowest device's write time. Returns the completion
    /// instant of the last, where the clock then stands.
    fn rewrite_in_lockstep(
        &mut self,
        placed: &PlacedExtent,
        chunks: std::ops::Range<u64>,
        start: SimTime,
    ) -> SimTime {
        let (chunk_size, count) = (placed.chunk_size, chunks.end - chunks.start);
        let write_times = placed
            .devices()
            .map(|d| self.array.device(d).write_time(chunk_size));
        let stride = write_times.max().expect("an extent has a device");
        let first = ChunkHandle::new(placed.first_stripe + chunks.start);
        for d in placed.devices() {
            let device = self.array.device_mut(d);
            device.rewrite_run(first, count, chunk_size, start, stride);
        }
        // Each chunk is an operation of its own, with its own spans.
        if self.array.tracer().is_enabled() {
            for i in 0..count - 1 {
                self.completed("overwrite", start + stride * i, start + stride * (i + 1));
            }
        }
        let last = start + stride * (count - 1);
        self.completed("overwrite", last, last + stride)
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
        let placed = self.placed(layout)?;
        let mut io = self.io();
        let now = io.now;
        let result = io.rebuild_extent(&placed);
        let latest = io.finish();
        result?;

        Ok(self.completed("rebuild", now, latest))
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
        let placed = self.placed(layout)?;
        let (stripe, local_j) = placed.locate(layout.owner, chunk_index);
        let chunk = stripe.data_chunk(local_j);
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
            self.free(&extent.placed(layout.first_stripe, self.chunk_size));
        }
    }

    /// Frees every chunk of `placed`, and its bytes in the accounting.
    fn free(&mut self, placed: &PlacedExtent) {
        let (first, full) = (placed.first_stripe, placed.full_stripes());
        for (d, tail) in placed.tails() {
            let device = self.array.device_mut(d);
            if full > 0 {
                device.remove_run(ChunkHandle::new(first), full);
            }
            if tail.is_some() {
                device.remove_chunk(ChunkHandle::new(first + full));
            }
        }
        self.release_usage(placed);
    }

    pub(crate) fn charge_usage(&mut self, extent: &PlacedExtent) {
        let stored = extent.usage();
        self.usage.user_bytes += stored.user_bytes;
        self.usage.redundancy_bytes += stored.redundancy_bytes;
    }

    pub(crate) fn release_usage(&mut self, extent: &PlacedExtent) {
        let freed = extent.usage();
        self.usage.user_bytes = self.usage.user_bytes.saturating_sub(freed.user_bytes);
        self.usage.redundancy_bytes = self
            .usage
            .redundancy_bytes
            .saturating_sub(freed.redundancy_bytes);
    }

    /// Number of live stripes.
    pub fn stripe_count(&self) -> usize {
        let stripes =
            |e: &Extent| ExtentShape::of(e.size, self.chunk_size, e.scheme, e.width()).stripes;
        self.extents.values().map(stripes).sum::<u64>() as usize
    }
}
