//! Stripe I/O: what reading, writing, degraded-reading and overwriting a
//! stripe issue to the devices, on the timeline of one operation.

use std::collections::HashMap;

use bytes::Bytes;
use reo_erasure::{CodecError, ReedSolomon};
use reo_flashsim::{ChunkHandle, DeviceId, FlashArray, FlashError, ShareStatus, StoredChunk};
use reo_sim::{ByteSize, SimDuration, SimTime};

use crate::extent::{PlacedExtent, Stripe, StripeChunk};
use crate::manager::{ParityUpdate, StripeError};
use crate::scheme::RedundancyScheme;

/// Cache of constructed codecs keyed by `(data, parity)` geometry.
///
/// Building a codec inverts a Vandermonde block and precomputes all
/// per-coefficient multiply kernels — far too expensive to repeat per
/// stripe operation, and an array only ever uses a handful of geometries.
#[derive(Clone, Debug, Default)]
pub(crate) struct CodecCache(HashMap<(usize, usize), ReedSolomon>);

impl CodecCache {
    pub(crate) fn get(&mut self, m: usize, k: usize) -> Result<&ReedSolomon, CodecError> {
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
pub(crate) struct StripeScratch {
    /// Padded data shards fed to the encoder (also old/new chunk images on
    /// the delta path).
    pub(crate) shards: Vec<Vec<u8>>,
    /// Encoded parity rows.
    pub(crate) parity: Vec<Vec<u8>>,
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

/// Size-only chunk operations one operation has issued to one device and
/// not yet made: `count` chunks of `len` bytes, back to back — reads, or
/// (a rebuild's) writes to the handles `writes_from ..`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PendingRun {
    len: ByteSize,
    count: u64,
    writes_from: Option<u64>,
}

/// The mutable halves of a [`crate::StripeManager`] that stripe I/O needs,
/// plus the timeline of the operation in flight: every chunk operation is
/// issued at `now`, and the operation completes with the `latest` of them.
///
/// A size-only read of a chunk known to be intact — probed, in a share
/// checked as a whole ([`reo_flashsim::FlashDevice::share_status`]), or on
/// a device that vouches for its chunks
/// ([`reo_flashsim::FlashDevice::serves_read_runs`]) — on a device with no
/// transient fault armed is only counted into that device's
/// [`PendingRun`], and so is a rebuild's size-only write the device is
/// sure to take ([`StripeIo::write_sized`]). A device's run holds reads or
/// writes, never both; it is made when a chunk of another kind, length or
/// place joins it, before any per-chunk operation on the device, and in
/// [`StripeIo::finish`] — so each device sees its operations in the order
/// they were issued.
pub(crate) struct StripeIo<'a> {
    pub(crate) array: &'a mut FlashArray,
    pub(crate) transient_retries: &'a mut u64,
    pub(crate) codecs: &'a mut CodecCache,
    pub(crate) scratch: &'a mut StripeScratch,
    pub(crate) runs: &'a mut [PendingRun],
    pub(crate) now: SimTime,
    pub(crate) latest: SimTime,
}

/// Retries per chunk read before a transient timeout is escalated.
const TRANSIENT_RETRY_LIMIT: u32 = 3;
/// Backoff before the first retry; doubles on each subsequent one.
const TRANSIENT_BACKOFF: SimDuration = SimDuration::from_micros(500);

impl StripeIo<'_> {
    pub(crate) fn completes(&mut self, done: SimTime) {
        self.latest = self.latest.max(done);
    }

    /// Makes what is gathered for `device`, if anything: charges its reads
    /// or makes its writes. A run of no chunks is nothing to make (a lost
    /// device's share of whole stripes counts no reads).
    fn flush(&mut self, device: DeviceId) {
        let run = &mut self.runs[device.0];
        if run.count == 0 {
            return;
        }
        if run.writes_from.is_some() {
            return self.make_writes(device);
        }
        let count = std::mem::take(&mut run.count);
        let done = self
            .array
            .device_mut(device)
            .read_run(count, run.len, self.now);
        self.completes(done);
    }

    /// Makes the writes a rebuild gathered for `device`. Out of line: every
    /// read run is made through [`StripeIo::flush`] too, and only a rebuild
    /// writes.
    #[cold]
    #[inline(never)]
    fn make_writes(&mut self, device: DeviceId) {
        let run = std::mem::take(&mut self.runs[device.0]);
        let first = ChunkHandle::new(run.writes_from.expect("a write run"));
        let device = self.array.device_mut(device);
        let done = device.write_run(first, run.count, run.len, None, self.now);
        self.completes(done);
    }

    /// Makes everything gathered and returns the instant the operation
    /// completes. Runs on the error path too: a failed operation leaves
    /// the devices exactly as its chunk operations, issued one by one up
    /// to the failure, would.
    pub(crate) fn finish(mut self) -> SimTime {
        for device in 0..self.runs.len() {
            self.flush(DeviceId(device));
        }
        self.latest
    }

    /// Reads a chunk of a size-only stripe that the caller found intact:
    /// counted into its device's run, or a per-chunk read where an armed
    /// transient fault can time it out.
    fn read_sized(&mut self, c: &StripeChunk) -> Result<(), FlashError> {
        let device = self.array.device(c.device);
        if device.transient_faults_armed() {
            return self.read_chunk(c).map(drop);
        }
        debug_assert!(
            device.holds_size_only(c.handle, c.len),
            "{} does not hold {} as {} size-only bytes",
            c.device,
            c.handle,
            c.len
        );
        self.count_reads(c.device, c.len, 1);
        Ok(())
    }

    /// Counts `count` reads of `len`-byte size-only chunks into `device`'s
    /// run, making first what it holds of another kind or length.
    fn count_reads(&mut self, device: DeviceId, len: ByteSize, count: u64) {
        let run = self.runs[device.0];
        if run.len != len || run.writes_from.is_some() {
            self.flush(device);
            self.runs[device.0].len = len;
        }
        self.runs[device.0].count += count;
    }

    /// Writes a size-only chunk a rebuild lost: gathered into its device's
    /// run while the device is sure to take it (healthy, with room for the
    /// whole run), so a gathered write cannot be rejected later; else
    /// written at once, where an error surfaces at this chunk.
    pub(crate) fn write_sized(&mut self, c: &StripeChunk) -> Result<(), FlashError> {
        let run = self.runs[c.device.0];
        let next = run.writes_from.map(|first| first + run.count);
        if run.len != c.len || next != Some(c.handle.as_u64()) {
            self.flush(c.device);
        }
        let gathered = self.runs[c.device.0].count;
        let device = self.array.device(c.device);
        if !device.is_healthy() || device.available() < c.len * (gathered + 1) {
            return self.write_chunk(c, StoredChunk::synthetic(c.len));
        }
        self.runs[c.device.0] = PendingRun {
            len: c.len,
            count: gathered + 1,
            writes_from: Some(c.handle.as_u64() - gathered),
        };
        Ok(())
    }

    /// Reads a chunk through the device's per-chunk path, absorbing
    /// transient timeouts: waits out a doubling backoff and retries up to
    /// [`TRANSIENT_RETRY_LIMIT`] times before letting the error escalate.
    /// The backoff is charged to the operation's timeline (the retried read
    /// starts later), so transient faults surface as latency, not data
    /// loss.
    fn read_chunk(&mut self, c: &StripeChunk) -> Result<StoredChunk, FlashError> {
        self.flush(c.device);
        let mut at = self.now;
        let mut backoff = TRANSIENT_BACKOFF;
        let mut attempts = 0;
        loop {
            match self.array.device_mut(c.device).read_chunk(c.handle, at) {
                Err(FlashError::TransientTimeout { .. }) if attempts < TRANSIENT_RETRY_LIMIT => {
                    attempts += 1;
                    *self.transient_retries += 1;
                    at += backoff;
                    backoff = backoff * 2;
                }
                other => {
                    let (chunk, done) = other?;
                    self.completes(done);
                    return Ok(chunk);
                }
            }
        }
    }

    /// Reads a chunk of a stripe: its contents when the stripe is `real`.
    pub(crate) fn read(
        &mut self,
        real: bool,
        c: &StripeChunk,
    ) -> Result<Option<StoredChunk>, FlashError> {
        if real {
            self.read_chunk(c).map(Some)
        } else {
            self.read_sized(c).map(|()| None)
        }
    }

    pub(crate) fn write_chunk(
        &mut self,
        c: &StripeChunk,
        stored: StoredChunk,
    ) -> Result<(), FlashError> {
        self.flush(c.device);
        let done = self
            .array
            .device_mut(c.device)
            .write_chunk(c.handle, stored, self.now)?;
        self.completes(done);
        Ok(())
    }

    /// Writes the chunks of a fresh extent one by one in extent order,
    /// encoding parity from `payload` when there is one.
    pub(crate) fn write_extent(
        &mut self,
        extent: &PlacedExtent,
        payload: Option<&[u8]>,
    ) -> Result<(), StripeError> {
        let image = |c: &StripeChunk, bytes: Option<&[u8]>| match bytes {
            Some(b) => StoredChunk::real(Bytes::copy_from_slice(&b[..c.len.as_bytes() as usize])),
            None => StoredChunk::synthetic(c.len),
        };
        // Where the next data chunk's bytes start in the payload.
        let mut at = 0;
        for stripe in extent.stripes() {
            let stripe_bytes = payload.map(|p| &p[at..]);
            for c in stripe.data() {
                self.write_chunk(&c, image(&c, payload.map(|p| &p[at..])))?;
                at += c.len.as_bytes() as usize;
            }
            if let (Some(bytes), RedundancyScheme::Parity(1..=u8::MAX)) =
                (stripe_bytes, stripe.scheme)
            {
                let k = stripe.redundancy_on.len();
                // Pad each data chunk to the shard length in the scratch
                // pool and encode into reusable parity buffers. The codec
                // wants exactly m data shards; rows past the stripe's real
                // chunks stay zero (phantom tail shards).
                let plen = stripe.shard_len().as_bytes() as usize;
                reset_buffers(&mut self.scratch.shards, stripe.encode_m, plen);
                self.scratch.parity.resize_with(k, Vec::new);
                let mut rest = bytes;
                for (shard, c) in self.scratch.shards.iter_mut().zip(stripe.data()) {
                    let (piece, tail) = rest.split_at(c.len.as_bytes() as usize);
                    shard[..piece.len()].copy_from_slice(piece);
                    rest = tail;
                }
                let rs = self.codecs.get(stripe.encode_m, k)?;
                rs.encode_into(&self.scratch.shards, &mut self.scratch.parity)?;
            }
            for (p, c) in stripe.redundancy().enumerate() {
                let stored = match stripe_bytes {
                    // A replica copies the stripe's one data chunk.
                    Some(bytes) if stripe.scheme.is_replication() => image(&c, Some(bytes)),
                    Some(_) => StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p])),
                    None => image(&c, None),
                };
                self.write_chunk(&c, stored)?;
            }
        }
        Ok(())
    }

    /// Reads every stripe of an extent, degraded ones by reconstruction.
    /// Returns the assembled bytes of a real extent and whether any stripe
    /// was degraded.
    pub(crate) fn read_extent(
        &mut self,
        extent: &PlacedExtent,
    ) -> Result<(Option<Vec<u8>>, bool), StripeError> {
        // When every device of the object vouches for its chunks, no stripe
        // needs a health probe.
        let vouched = extent
            .devices()
            .all(|d| self.array.device(d).all_chunks_intact());
        if vouched && self.count_healthy_read(extent) {
            return Ok((None, false));
        }
        // Else the whole stripes counted by their shares, or none: the walk
        // starts where the counting stopped.
        let counted = if vouched {
            None
        } else {
            self.count_whole_stripes(extent)
        };
        let (from, mut degraded) = match counted {
            Some(degraded) => (extent.full_stripes(), degraded),
            None => (0, false),
        };
        // Bytes of the stripes that yielded any; `None` until one does.
        let mut assembled: Option<Vec<u8>> = None;
        for stripe in extent.stripes_from(from) {
            let health = if vouched {
                debug_assert!(stripe.chunks().all(|c| chunk_intact_on(self.array, &c)));
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

    /// Counts the read of a size-only extent of more than one stripe into
    /// its devices' runs, if those all serve read runs, and says whether it
    /// did. Each device gets one count of its whole data chunks
    /// ([`PlacedExtent::data_chunk_counts`]), and the device of the
    /// object's last data chunk one more read at that chunk's length: the
    /// runs the walk builds, in its order, so every device is charged what
    /// the walk charges it. A one-stripe object is walked: that is no more
    /// work than counting.
    fn count_healthy_read(&mut self, extent: &PlacedExtent) -> bool {
        let served = |d| self.array.device(d).serves_read_runs();
        if extent.extent.real || extent.full_stripes() == 0 || !extent.devices().all(served) {
            return false;
        }
        debug_assert!(extent.stripes().all(|s| s
            .data()
            .all(|c| self.array.device(c.device).holds_size_only(c.handle, c.len))));
        let (counts, (last, last_len)) = extent.data_chunk_counts();
        for (device, count) in counts {
            self.count_reads(device, extent.chunk_size, count);
        }
        self.count_reads(last, last_len, 1);
        true
    }

    /// Counts the reads of a size-only extent's whole stripes into its
    /// devices' runs when each device's share of them is intact or holds
    /// nothing readable ([`lost_shares_on`]), no more shares are lost than
    /// a stripe tolerates, and no device of the extent can time a read out;
    /// says whether those stripes are degraded, or `None` if it counted
    /// nothing. Every whole stripe reads the same survivors as the walk
    /// ([`PlacedExtent::whole_stripe_reads`]), each a whole chunk, so every
    /// device is charged what the walk charges it before the last stripe.
    fn count_whole_stripes(&mut self, extent: &PlacedExtent) -> Option<bool> {
        let armed = |d| self.array.device(d).transient_faults_armed();
        if extent.extent.real || extent.full_stripes() == 0 || extent.devices().any(armed) {
            return None;
        }
        let lost = lost_shares_on(self.array, extent)?;
        if lost.count_ones() as usize > extent.tolerated() {
            return None;
        }
        debug_assert!(extent
            .stripes()
            .take(extent.full_stripes() as usize)
            .all(|s| s.chunks().all(|c| {
                let rank = extent.devices().position(|d| d == c.device);
                if rank.is_some_and(|r| lost >> r & 1 == 1) {
                    !chunk_intact_on(self.array, &c)
                } else {
                    self.array.device(c.device).holds_size_only(c.handle, c.len)
                }
            })));
        extent.whole_stripe_reads(lost, |device, count| {
            self.count_reads(device, extent.chunk_size, count);
        });
        Some(lost != 0)
    }

    /// Reads the data chunks (or the primary replica) of an intact stripe,
    /// appending their bytes to `assembled` if all of them carry bytes.
    fn read_stripe_data(
        &mut self,
        stripe: &Stripe<'_>,
        assembled: &mut Option<Vec<u8>>,
    ) -> Result<(), StripeError> {
        if !stripe.real {
            for c in stripe.data() {
                self.read_sized(&c)?;
            }
            return Ok(());
        }
        let mut bytes = Vec::new();
        let mut whole = true;
        for c in stripe.data() {
            // A chunk overwritten size-only inside a real stripe has no
            // bytes, and then the stripe yields none.
            match self.read_chunk(&c)?.payload().as_bytes() {
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
            if let Some(chunk) = self.read(stripe.real, &replica)? {
                if let Some(b) = chunk.payload().as_bytes() {
                    assembled.get_or_insert_with(Vec::new).extend_from_slice(b);
                }
            }
            return Ok(());
        }

        let shards = self.reconstruct(stripe)?;
        if stripe.real {
            // Assemble data bytes in order, trimming to recorded lengths.
            let out = assembled.get_or_insert_with(Vec::new);
            for (shard, c) in shards.iter().zip(stripe.data()) {
                let shard = shard.as_ref().expect("reconstructed");
                out.extend_from_slice(&shard[..c.len.as_bytes() as usize]);
            }
        }
        Ok(())
    }

    /// What degraded read and rebuild share on a degraded parity stripe:
    /// walks the chunks in codec order, reads the first `m` survivors (a
    /// short stripe's phantom zero shards count as read) and reconstructs
    /// the rest. Returns every shard of a real stripe; a size-only stripe
    /// carries no bytes: it is charged the same chunk reads and builds
    /// nothing.
    ///
    /// Inlined into its two callers: out of line, the walk in
    /// [`StripeIo::read_extent`] that every one-stripe read takes cost the
    /// host a fifth more, though it never calls this.
    #[inline(always)]
    pub(crate) fn reconstruct(
        &mut self,
        stripe: &Stripe<'_>,
    ) -> Result<Vec<Option<Vec<u8>>>, StripeError> {
        let (codec_m, parity_count) = (stripe.encode_m, stripe.redundancy_on.len());
        let parity_len = stripe.shard_len().as_bytes() as usize;
        // The shard slots of a real stripe: every real shard missing until
        // read, the phantom zero shards of a short one always present.
        let mut shards = Vec::new();
        if stripe.real {
            shards.resize(codec_m + parity_count, None);
            shards[stripe.data_on.len()..codec_m].fill(Some(vec![0u8; parity_len]));
        }
        let mut to_read = stripe.data_on.len();
        for (idx, c) in stripe.codec_order() {
            if to_read == 0 {
                break;
            }
            if !chunk_intact_on(self.array, &c) {
                continue;
            }
            to_read -= 1;
            if let Some(chunk) = self.read(stripe.real, &c)? {
                // Zero-padded to the shard length; a chunk overwritten
                // size-only inside a real stripe reads as zeros.
                let mut shard = chunk
                    .payload()
                    .as_bytes()
                    .map_or(Vec::new(), |b| b.to_vec());
                shard.resize(parity_len, 0);
                shards[idx] = Some(shard);
            }
        }
        if stripe.real {
            let rs = self.codecs.get(codec_m, parity_count)?;
            rs.reconstruct(&mut shards)?;
        }
        Ok(shards)
    }

    /// Overwrites the `local_j`-th data chunk of an intact stripe.
    pub(crate) fn overwrite(
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
        let target = &stripe.data_chunk(local_j);
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
                    self.write_chunk(&c, image(&c))?;
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
    /// count, reads what it needs, recomputes parity, writes back. This is
    /// the one home of Section II-B's rule.
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
        let target = &stripe.data_chunk(local_j);
        let k = stripe.redundancy_on.len();
        let m_actual = stripe.data_on.len();
        let plen = stripe.shard_len().as_bytes() as usize;
        let real = stripe.real;

        // Section II-B's rule: the method with the fewest chunk reads; a
        // tie goes to delta, which also touches fewer devices.
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
            for (p, c) in stripe.redundancy().enumerate() {
                if let Some(chunk) = self.read(real, &c)? {
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
            for (j, c) in stripe.data().enumerate() {
                if j == local_j {
                    if let (true, Some(p)) = (real, new_payload) {
                        self.scratch.shards[j][..p.len()].copy_from_slice(p);
                    }
                    continue;
                }
                if let Some(chunk) = self.read(real, &c)? {
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
        for (p, c) in stripe.redundancy().enumerate() {
            let stored = if real {
                StoredChunk::real(Bytes::copy_from_slice(&self.scratch.parity[p]))
            } else {
                StoredChunk::synthetic(c.len)
            };
            self.write_chunk(&c, stored)?;
        }

        Ok(if use_delta {
            ParityUpdate::Delta
        } else {
            ParityUpdate::Direct
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StripeHealth {
    Intact,
    Degraded(usize),
    Lost(usize),
}

pub(crate) fn chunk_intact_on(array: &FlashArray, c: &StripeChunk) -> bool {
    // Only a device with something awaiting rebuild needs the probe: a
    // healthy one with nothing awaiting it vouches for every chunk placed
    // on it (debug builds probe behind the shortcut all the same).
    let device = array.device(c.device);
    let vouched = device.all_chunks_intact();
    debug_assert!(!vouched || device.chunk_is_intact(c.handle));
    vouched || device.chunk_is_intact(c.handle)
}

/// The ranks of `extent`'s devices whose share of its whole stripes holds
/// nothing readable, bit `r` for rank `r`, when every device answers for
/// its share as a whole ([`reo_flashsim::FlashDevice::share_status`]);
/// `None` for an extent of one stripe, or when some share must be asked
/// chunk by chunk.
pub(crate) fn lost_shares_on(array: &FlashArray, extent: &PlacedExtent) -> Option<u64> {
    let (first, full) = (ChunkHandle::new(extent.first_stripe), extent.full_stripes());
    if full == 0 {
        return None;
    }
    let mut lost = 0;
    for (rank, d) in extent.devices().enumerate() {
        match array.device(d).share_status(first, full) {
            ShareStatus::Intact => {}
            ShareStatus::Unreadable => lost |= 1 << rank,
            ShareStatus::Mixed => return None,
        }
    }
    Some(lost)
}

pub(crate) fn stripe_health_on(array: &FlashArray, stripe: &Stripe<'_>) -> StripeHealth {
    let lost = stripe
        .chunks()
        .filter(|c| !chunk_intact_on(array, c))
        .count();
    match lost {
        0 => StripeHealth::Intact,
        // Under replication: recoverable while any replica survives.
        _ if lost <= stripe.tolerated() => StripeHealth::Degraded(lost),
        _ => StripeHealth::Lost(lost),
    }
}
