//! Rebuilding a degraded stripe's lost chunks back onto their devices.

use bytes::Bytes;
use reo_flashsim::StoredChunk;

use crate::extent::{PlacedExtent, Stripe};
use crate::io::{chunk_intact_on, stripe_health_on, StripeHealth, StripeIo};
use crate::manager::StripeError;

impl StripeIo<'_> {
    /// Rebuilds every degraded stripe of an extent.
    pub(crate) fn rebuild_extent(&mut self, extent: &PlacedExtent) -> Result<(), StripeError> {
        for stripe in extent.stripes() {
            match stripe_health_on(self.array, &stripe) {
                StripeHealth::Intact => {}
                StripeHealth::Lost(lost) => return Err(stripe.object_lost(lost)),
                StripeHealth::Degraded(_) => self.rebuild_stripe(&stripe)?,
            }
        }
        Ok(())
    }

    /// Rebuilds the lost chunks of one degraded stripe back onto their
    /// (replaced) devices.
    fn rebuild_stripe(&mut self, stripe: &Stripe<'_>) -> Result<(), StripeError> {
        // What each lost chunk is rewritten from: a surviving replica, or
        // every shard reconstructed from the first `m` survivors.
        let (mut replica, mut shards) = (None, Vec::new());
        if stripe.scheme.is_replication() {
            let survivor = stripe
                .chunks()
                .find(|c| chunk_intact_on(self.array, c))
                .expect("degraded stripe has a survivor");
            let src = self.read(stripe.real, &survivor)?;
            replica = src.and_then(|chunk| chunk.payload().as_bytes().cloned());
        } else {
            shards = self.reconstruct(stripe)?;
        }

        // A stripe has one chunk on a device, so a write gathered here is
        // not probed again: each lost chunk is met exactly once.
        for (idx, c) in stripe.codec_order() {
            if chunk_intact_on(self.array, &c) {
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
