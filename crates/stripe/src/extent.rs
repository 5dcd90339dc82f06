//! What the manager keeps of a stored object, and the arithmetic that
//! turns it into chunk addresses: the shape of an extent, the device,
//! handle and length of each of its chunks, and the layout blob.

use std::fmt;

use reo_flashsim::{ChunkHandle, DeviceId};
use reo_sim::ByteSize;

use crate::layout::StripeLayout;
use crate::manager::{SpaceUsage, StripeError};
use crate::scheme::RedundancyScheme;

/// Identifier of a stripe within a [`crate::StripeManager`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StripeId(pub(crate) u64);

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

/// Where an object lives: the run of consecutively numbered stripes that
/// holds it.
///
/// Layouts are handed back from [`crate::StripeManager::store_object`] and
/// passed to the read/status/rebuild/remove operations. They are
/// intentionally opaque beyond size and scheme.
#[derive(Clone, Debug)]
pub struct ObjectLayout {
    pub(crate) owner: u64,
    pub(crate) size: ByteSize,
    pub(crate) scheme: RedundancyScheme,
    pub(crate) first_stripe: StripeId,
    pub(crate) stripe_count: u32,
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

/// One stored chunk, as the addressing yields it. Its role is its
/// position: a stripe's data chunks (or its primary replica) come first, in
/// object order, then its parity chunks (or its other replicas).
#[derive(Clone, Copy, Debug)]
pub(crate) struct StripeChunk {
    pub(crate) device: DeviceId,
    pub(crate) handle: ChunkHandle,
    pub(crate) len: ByteSize,
}

/// Everything the manager keeps about one stored object — how it was
/// placed, which is all a layout blob records of it besides the key it is
/// filed under (its first stripe). Where its chunks are is computed
/// ([`Extent::placed`]), never stored.
///
/// Stripe after stripe from the first, every stripe but the last is
/// `width` chunks wide; the last holds the remaining data chunks and a full
/// set of redundancy chunks. A chunk's handle is its stripe's id: handles
/// are per device, and a device holds one chunk of a stripe at most, so
/// what an extent puts on one device is the consecutive handles from its
/// first stripe on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Extent {
    pub(crate) size: ByteSize,
    /// The devices that were healthy at store time, bit `d` for device
    /// `d`: the extent is placed over exactly these.
    pub(crate) healthy: u64,
    /// Effective scheme after clamping to the healthy-device count at
    /// store time.
    pub(crate) scheme: RedundancyScheme,
    /// Stored with a real payload? (The payload itself lives on the
    /// devices; this only records that the chunks carry bytes.)
    pub(crate) real: bool,
}

/// The devices of a set, bit `d` for device `d`, lowest first.
fn devices_of(mut set: u64) -> impl Iterator<Item = u8> + Clone {
    std::iter::from_fn(move || {
        let lowest = (set != 0).then_some(set.trailing_zeros() as u8);
        set &= set.wrapping_sub(1);
        lowest
    })
}

// An extent is the same few numbers whatever the object's size.
const _: () = assert!(std::mem::size_of::<Extent>() <= 32);

impl Extent {
    /// Healthy devices at store time: the chunks of a full stripe.
    pub(crate) fn width(&self) -> usize {
        self.healthy.count_ones() as usize
    }

    /// The extent with what addresses its chunks: the stripe it starts at
    /// and the manager's chunk size.
    pub(crate) fn placed(&self, first_stripe: StripeId, chunk_size: ByteSize) -> PlacedExtent {
        // Rank `r` and rank `r + width` are the same device, so the chunks a
        // stripe puts on consecutive ranks are a slice, wrapped or not.
        let mut devices = [0; 2 * u64::BITS as usize];
        let (mut rest, width) = (self.healthy, self.width());
        for rank in 0..width {
            devices[rank] = rest.trailing_zeros() as u8;
            devices[rank + width] = devices[rank];
            rest &= rest - 1;
        }
        PlacedExtent {
            extent: *self,
            shape: ExtentShape::of(self.size, chunk_size, self.scheme, self.width()),
            first_stripe: first_stripe.0,
            chunk_size,
            devices,
        }
    }
}

/// How many chunks and stripes an object makes: what addressing it
/// divides by, and what a layout blob is checked against.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ExtentShape {
    /// Data chunks of a full stripe — the data-shard count the encoder
    /// uses. A short stripe holds fewer real data chunks and is padded to
    /// `m` with phantom zero shards; decode must reuse the same geometry.
    pub(crate) m: u64,
    /// Parity chunks (or extra replicas) of every stripe.
    pub(crate) redundancy: u64,
    pub(crate) data_chunks: u64,
    pub(crate) stripes: u64,
}

impl ExtentShape {
    /// The shape of `size` bytes in `chunk_size` chunks under the effective
    /// `scheme` over `width` devices.
    pub(crate) fn of(
        size: ByteSize,
        chunk_size: ByteSize,
        scheme: RedundancyScheme,
        width: usize,
    ) -> Self {
        let m = scheme.data_chunks_per_stripe(width) as u64;
        let data_chunks = size.div_ceil(chunk_size);
        ExtentShape {
            m,
            redundancy: width as u64 - m,
            data_chunks,
            stripes: data_chunks.div_ceil(m),
        }
    }
}

/// An [`Extent`] together with everything that addresses its chunks. The
/// device, handle and length of any chunk are arithmetic on these: stripe
/// `s` of the object is stripe id `first_stripe + s`, rotated as
/// [`StripeLayout`] rotates that id over the extent's devices in rank
/// order; its chunks' handle is that id; and only the object's last chunk
/// is short.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PlacedExtent {
    pub(crate) extent: Extent,
    pub(crate) shape: ExtentShape,
    pub(crate) first_stripe: u64,
    pub(crate) chunk_size: ByteSize,
    /// The extent's devices in rank order (lowest first), twice over.
    devices: [u8; 2 * u64::BITS as usize],
}

impl PlacedExtent {
    /// The length of the object's `index`-th data chunk: only the last is
    /// short.
    fn chunk_len(&self, index: u64) -> ByteSize {
        if index + 1 == self.shape.data_chunks {
            self.extent.size - self.chunk_size * index
        } else {
            self.chunk_size
        }
    }

    /// The extent's stripes in object order from the `from`-th on. The
    /// rotation is taken once and stepped from stripe to stripe.
    pub(crate) fn stripes_from(&self, from: u64) -> impl Iterator<Item = Stripe<'_>> {
        let ExtentShape { m, data_chunks, .. } = self.shape;
        let (extent, first_stripe) = (self.extent, self.first_stripe + from);
        let mut layout = StripeLayout::new(first_stripe, extent.scheme, extent.width());
        (from..self.shape.stripes).map(move |stripe_no| {
            let data_len = (data_chunks - stripe_no * m).min(m);
            let (data_rank, redundancy_rank) = layout.first_ranks();
            layout = layout.next();
            Stripe {
                id: StripeId(self.first_stripe + stripe_no),
                scheme: extent.scheme,
                encode_m: m as usize,
                real: extent.real,
                data_on: &self.devices[data_rank..][..data_len as usize],
                redundancy_on: &self.devices[redundancy_rank..][..self.shape.redundancy as usize],
                chunk_len: self.chunk_size,
                last_len: self.chunk_len(stripe_no * m + data_len - 1),
            }
        })
    }

    /// The extent's stripes in object order.
    pub(crate) fn stripes(&self) -> impl Iterator<Item = Stripe<'_>> {
        self.stripes_from(0)
    }

    /// How many of the extent's stripes come before the last: each of the
    /// extent's devices holds one whole chunk of every one of them, under
    /// the handles from the first stripe on.
    pub(crate) fn full_stripes(&self) -> u64 {
        self.shape.stripes - 1
    }

    fn last_stripe(&self) -> Stripe<'_> {
        let mut last = self.stripes_from(self.full_stripes());
        last.next().expect("an extent has a stripe")
    }

    /// Each of the extent's devices with the length of the chunk the last
    /// stripe puts there, if it puts one: the last stripe's devices in
    /// chunk order, then the others, lowest first.
    pub(crate) fn tails(&self) -> impl Iterator<Item = (DeviceId, Option<ByteSize>)> + Clone + '_ {
        let last = self.last_stripe();
        let touched = last.chunks().fold(0, |set, c| set | 1 << c.device.0);
        let untouched = devices_of(self.extent.healthy & !touched);
        let touched = last.chunks().map(|c| (c.device, Some(c.len)));
        touched.chain(untouched.map(|d| (DeviceId(d as usize), None)))
    }

    /// Each of the extent's devices, in [`PlacedExtent::tails`] order, with
    /// the bytes the extent puts there: a whole chunk of every stripe
    /// before the last, and its chunk of the last, if it has one.
    pub(crate) fn shares(&self) -> impl Iterator<Item = (DeviceId, ByteSize)> + '_ {
        let whole = self.chunk_size * self.full_stripes();
        let tails = self.tails();
        tails.map(move |(d, tail)| (d, whole + tail.unwrap_or(ByteSize::ZERO)))
    }

    /// The extent's devices in rank order: lowest first.
    pub(crate) fn devices(&self) -> impl Iterator<Item = DeviceId> + Clone + '_ {
        let ranked = &self.devices[..self.extent.width()];
        ranked.iter().map(|&d| DeviceId(d as usize))
    }

    /// The object's data chunks (its primary replicas, under replication)
    /// as arithmetic on the rotation, not a walk: each of the extent's
    /// devices in rank order with how many of them but the last it holds —
    /// whole chunks all — and the device and length of that last chunk.
    pub(crate) fn data_chunk_counts(
        &self,
    ) -> (
        impl Iterator<Item = (DeviceId, u64)> + '_,
        (DeviceId, ByteSize),
    ) {
        let (width, full) = (self.extent.width() as u64, self.full_stripes());
        let first = StripeLayout::new(self.first_stripe, self.extent.scheme, width as usize);
        // The last stripe's data chunks before the object's last.
        let then = self.shape.data_chunks - 1 - full * self.shape.m;
        let (by_rank, last) = first.data_chunks_by_rank(full / width, full % width, then);
        let counts = self.devices().enumerate();
        let counts = counts.map(move |(rank, d)| (d, by_rank(rank)));
        let last_len = self.chunk_len(self.shape.data_chunks - 1);
        (counts, (DeviceId(self.devices[last] as usize), last_len))
    }

    /// Chunks a whole stripe of the extent can lose and still be read.
    pub(crate) fn tolerated(&self) -> usize {
        self.extent.scheme.failures_tolerated(self.extent.width())
    }

    /// The chunk reads of the extent's whole stripes when the devices of
    /// the ranks in `lost` hold nothing of them readable, as arithmetic on
    /// the rotation ([`StripeLayout::whole_stripe_reads`]): `read(device,
    /// count)` for each of the extent's devices in rank order.
    pub(crate) fn whole_stripe_reads(&self, lost: u64, mut read: impl FnMut(DeviceId, u64)) {
        let width = self.extent.width();
        let first = StripeLayout::new(self.first_stripe, self.extent.scheme, width);
        let mut reads = [0; u64::BITS as usize];
        first.whole_stripe_reads(self.full_stripes(), lost, &mut reads[..width]);
        for (device, &count) in self.devices().zip(&reads) {
            read(device, count);
        }
    }

    /// The stripe holding the object's `chunk_index`-th data chunk, and
    /// the chunk's index within it.
    ///
    /// # Panics
    ///
    /// Panics if the object has no such chunk.
    pub(crate) fn locate(&self, owner: u64, chunk_index: u64) -> (Stripe<'_>, usize) {
        let m = self.shape.m;
        let stripe = self.stripes_from(chunk_index / m).next();
        stripe
            .filter(|_| chunk_index < self.shape.data_chunks)
            .map(|stripe| (stripe, (chunk_index % m) as usize))
            .unwrap_or_else(|| panic!("chunk index {chunk_index} out of range for object {owner}"))
    }

    /// The bytes the extent occupies, split into user data and redundancy:
    /// the data chunks are the object, and each stripe's redundancy chunks
    /// are as long as its first data chunk.
    pub(crate) fn usage(&self) -> SpaceUsage {
        let full = self.full_stripes();
        let shard_bytes = self.chunk_size * full + self.chunk_len(full * self.shape.m);
        SpaceUsage {
            user_bytes: self.extent.size,
            redundancy_bytes: shard_bytes * self.shape.redundancy,
        }
    }
}

/// One stripe of a [`PlacedExtent`]: each kind of chunk sits on
/// consecutive devices of the extent's, in rank order, wrapping from the
/// highest device to the lowest.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stripe<'a> {
    pub(crate) id: StripeId,
    pub(crate) scheme: RedundancyScheme,
    pub(crate) encode_m: usize,
    pub(crate) real: bool,
    /// The devices of the data chunks, in object order: `encode_m` of them,
    /// or fewer in an object's last stripe.
    pub(crate) data_on: &'a [u8],
    /// The devices of the parity chunks in codec order, or of the replicas
    /// beyond the primary.
    pub(crate) redundancy_on: &'a [u8],
    /// Length of every data chunk but the last: the manager's chunk size.
    chunk_len: ByteSize,
    last_len: ByteSize,
}

impl<'a> Stripe<'a> {
    /// The stripe's chunks on `devices`, `len` bytes each and `last_len`
    /// the last.
    fn chunks_on(
        &self,
        devices: &'a [u8],
        len: ByteSize,
        last_len: ByteSize,
    ) -> impl Iterator<Item = StripeChunk> + Clone + 'a {
        let handle = ChunkHandle::new(self.id.0);
        devices
            .iter()
            .zip(1..)
            .map(move |(&device, nth)| StripeChunk {
                device: DeviceId(device as usize),
                handle,
                len: if nth == devices.len() { last_len } else { len },
            })
    }

    /// Data chunks in object order; the primary replica under replication.
    pub(crate) fn data(&self) -> impl Iterator<Item = StripeChunk> + Clone + 'a {
        self.chunks_on(self.data_on, self.chunk_len, self.last_len)
    }

    /// Parity chunks in codec order; the other replicas under replication.
    pub(crate) fn redundancy(&self) -> impl Iterator<Item = StripeChunk> + Clone + 'a {
        let len = self.shard_len();
        self.chunks_on(self.redundancy_on, len, len)
    }

    pub(crate) fn chunks(&self) -> impl Iterator<Item = StripeChunk> + Clone + 'a {
        self.data().chain(self.redundancy())
    }

    /// Every chunk with its codec shard index: data shards first (a short
    /// stripe's phantom shards take the indices up to `encode_m`), then
    /// parity.
    pub(crate) fn codec_order(&self) -> impl Iterator<Item = (usize, StripeChunk)> + 'a {
        let parity = (self.encode_m..).zip(self.redundancy());
        self.data().enumerate().chain(parity)
    }

    /// The stripe's `j`-th data chunk.
    pub(crate) fn data_chunk(&self, j: usize) -> StripeChunk {
        self.data().nth(j).expect("a data chunk of the stripe")
    }

    pub(crate) fn tolerated(&self) -> usize {
        let width = self.data_on.len() + self.redundancy_on.len();
        self.scheme.failures_tolerated(width)
    }

    /// The codec's shard length: the stripe's longest chunk. Only an
    /// object's last chunk is short, so that is the stripe's first data
    /// chunk — the length of its parity chunks, and under replication the
    /// one chunk every replica copies.
    pub(crate) fn shard_len(&self) -> ByteSize {
        if self.data_on.len() == 1 {
            self.last_len
        } else {
            self.chunk_len
        }
    }

    pub(crate) fn object_lost(&self, lost: usize) -> StripeError {
        StripeError::ObjectLost {
            stripe: self.id,
            lost,
            tolerated: self.tolerated(),
        }
    }
}

/// Serialized size of a layout blob: owner, size, requested scheme,
/// effective scheme, first stripe, first handle (the first stripe again),
/// healthy set, real flag.
pub(crate) const LAYOUT_META_LEN: usize = 8 + 8 + 2 + 2 + 8 + 8 + 8 + 1;

/// The layout blob of `extent`, the extent `layout` names.
pub(crate) fn encode_layout(layout: &ObjectLayout, extent: &Extent) -> [u8; LAYOUT_META_LEN] {
    fn scheme_bytes(scheme: RedundancyScheme) -> [u8; 2] {
        match scheme {
            RedundancyScheme::Parity(k) => [0, k],
            RedundancyScheme::Replication => [1, 0],
        }
    }
    let mut blob = [0u8; LAYOUT_META_LEN];
    blob[0..8].copy_from_slice(&layout.owner.to_le_bytes());
    blob[8..16].copy_from_slice(&extent.size.as_bytes().to_le_bytes());
    blob[16..18].copy_from_slice(&scheme_bytes(layout.scheme));
    blob[18..20].copy_from_slice(&scheme_bytes(extent.scheme));
    blob[20..28].copy_from_slice(&layout.first_stripe.0.to_le_bytes());
    blob[28..36].copy_from_slice(&layout.first_stripe.0.to_le_bytes());
    blob[36..44].copy_from_slice(&extent.healthy.to_le_bytes());
    blob[44] = extent.real as u8;
    blob
}

/// What a layout blob says: the owner, the requested scheme, the first
/// stripe and the extent.
///
/// # Errors
///
/// [`StripeError::CorruptMetadata`] if the blob does not parse, or names a
/// placement no array can have been given: an empty object, no healthy
/// device, an effective scheme that is not the requested one clamped to the
/// healthy set, or a first handle that is not the first stripe.
pub(crate) fn decode_layout(
    bytes: &[u8],
) -> Result<(u64, RedundancyScheme, u64, Extent), StripeError> {
    use StripeError::CorruptMetadata as Corrupt;
    let blob: &[u8; LAYOUT_META_LEN] = bytes.try_into().map_err(|_| Corrupt)?;
    let u64_at = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().expect("8 bytes"));
    let scheme_at = |at: usize| match (blob[at], blob[at + 1]) {
        (0, k) => Ok(RedundancyScheme::Parity(k)),
        (1, 0) => Ok(RedundancyScheme::Replication),
        _ => Err(Corrupt),
    };
    let extent = Extent {
        size: ByteSize::from_bytes(u64_at(8)),
        healthy: u64_at(36),
        scheme: scheme_at(18)?,
        real: blob[44] == 1,
    };
    let (requested, first_stripe) = (scheme_at(16)?, u64_at(20));
    let well_formed = u64_at(28) == first_stripe
        && blob[44] <= 1
        && !extent.size.is_zero()
        && extent.healthy != 0
        && extent.scheme == requested.clamped_to(extent.width());
    well_formed
        .then_some((u64_at(0), requested, first_stripe, extent))
        .ok_or(Corrupt)
}
