//! Rebuilding a degraded stripe's lost chunks back onto their devices.

use bytes::Bytes;
use reo_flashsim::{ChunkHandle, DeviceId, FlashError, StoredChunk};
use reo_sim::{ByteSize, SimTime};

use crate::extent::{PlacedExtent, Stripe, StripeChunk};
use crate::io::{chunk_intact_on, stripe_health_on, StripeHealth, StripeIo};
use crate::manager::StripeError;

/// Size-only writes one operation has issued to one device and not yet
/// made: `count` chunks of `len` bytes, handles `first ..`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WriteRun {
    first: u64,
    len: ByteSize,
    count: u64,
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
pub(crate) struct Rebuild<'a> {
    io: StripeIo<'a>,
    gathered: GatheredWrites<'a>,
}

/// The writes a [`Rebuild`] has gathered, apart from its [`StripeIo`] so
/// that stripe I/O can be told to make them.
struct GatheredWrites<'a> {
    runs: &'a mut [WriteRun],
    /// The devices with writes gathered, bit `d` for device `d`.
    on: u64,
}

impl GatheredWrites<'_> {
    /// Makes the writes gathered for `device`, if any.
    fn flush(&mut self, io: &mut StripeIo<'_>, device: DeviceId) {
        if self.on >> device.0 & 1 == 1 {
            self.on &= !(1 << device.0);
            let run = std::mem::take(&mut self.runs[device.0]);
            let first = ChunkHandle::new(run.first);
            let device = io.array.device_mut(device);
            let done = device.write_run(first, run.count, run.len, None, io.now);
            io.completes(done);
        }
    }
}

impl<'a> Rebuild<'a> {
    /// A rebuild issuing through `io`, gathering its writes in `runs` (one
    /// per device, none gathered yet).
    pub(crate) fn new(io: StripeIo<'a>, runs: &'a mut [WriteRun]) -> Self {
        Rebuild {
            io,
            gathered: GatheredWrites { runs, on: 0 },
        }
    }

    /// Makes every gathered write, charges every gathered read, and
    /// returns the instant the rebuild completes — on the error path too,
    /// as [`StripeIo::finish`].
    pub(crate) fn finish(mut self) -> SimTime {
        while self.gathered.on != 0 {
            let device = DeviceId(self.gathered.on.trailing_zeros() as usize);
            self.gathered.flush(&mut self.io, device);
        }
        self.io.finish()
    }

    fn read(&mut self, real: bool, c: &StripeChunk) -> Result<Option<StoredChunk>, FlashError> {
        self.gathered.flush(&mut self.io, c.device);
        self.io.read(real, c)
    }

    fn write_chunk(&mut self, c: &StripeChunk, stored: StoredChunk) -> Result<(), FlashError> {
        self.gathered.flush(&mut self.io, c.device);
        self.io.write_chunk(c, stored)
    }

    /// Writes a size-only chunk: gathered into its device's run while the
    /// device is sure to take it, else written at once.
    fn write_sized(&mut self, c: &StripeChunk) -> Result<(), FlashError> {
        let run = self.gathered.runs[c.device.0];
        if run.len != c.len || run.first + run.count != c.handle.as_u64() {
            self.gathered.flush(&mut self.io, c.device);
        }
        let gathered = self.gathered.runs[c.device.0].count;
        let device = self.io.array.device(c.device);
        if !device.is_healthy() || device.available() < c.len * (gathered + 1) {
            return self.write_chunk(c, StoredChunk::synthetic(c.len));
        }
        self.io.flush_reads(c.device);
        self.gathered.on |= 1 << c.device.0;
        self.gathered.runs[c.device.0] = WriteRun {
            first: c.handle.as_u64() - gathered,
            len: c.len,
            count: gathered + 1,
        };
        Ok(())
    }

    /// Rebuilds every degraded stripe of an extent.
    pub(crate) fn extent(&mut self, extent: &PlacedExtent) -> Result<(), StripeError> {
        for stripe in extent.stripes() {
            match stripe_health_on(self.io.array, &stripe) {
                StripeHealth::Intact => {}
                StripeHealth::Lost(lost) => return Err(stripe.object_lost(lost)),
                StripeHealth::Degraded(_) => self.stripe(&stripe)?,
            }
        }
        Ok(())
    }

    /// Rebuilds the lost chunks of one degraded stripe back onto their
    /// (replaced) devices.
    fn stripe(&mut self, stripe: &Stripe<'_>) -> Result<(), StripeError> {
        // What each lost chunk is rewritten from: a surviving replica, or
        // every shard reconstructed from the first `m` survivors.
        let (mut replica, mut shards) = (None, Vec::new());
        if stripe.scheme.is_replication() {
            let survivor = stripe
                .chunks()
                .find(|c| chunk_intact_on(self.io.array, c))
                .expect("degraded stripe has a survivor");
            let src = self.read(stripe.real, &survivor)?;
            replica = src.and_then(|chunk| chunk.payload().as_bytes().cloned());
        } else {
            let gathered = &mut self.gathered;
            let before_read = |io: &mut StripeIo<'_>, device| gathered.flush(io, device);
            shards = self.io.reconstruct(stripe, before_read)?;
        }

        // A stripe has one chunk on a device, so a write gathered here is
        // not probed again: each lost chunk is met exactly once.
        for (idx, c) in stripe.codec_order() {
            if chunk_intact_on(self.io.array, &c) {
                continue;
            }
            let shard = shards.get(idx).map(|shard| {
                let shard = shard.as_ref().expect("reconstructed");
                Bytes::copy_from_slice(&shard[..c.len.as_bytes() as usize])
            });
            match replica.clone().or(shard) {
                Some(bytes) => self.write_chunk(&c, StoredChunk::real(bytes))?,
                None => self.write_sized(&c)?,
            }
        }
        Ok(())
    }
}
