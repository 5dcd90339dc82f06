//! Stripe metadata across a crash: exporting and reinstalling layout
//! blobs, losing the DRAM side, and the three sweeps that compare what the
//! reinstalled extents reference with what the devices hold — as sorted
//! ranges, never chunk by chunk.

use reo_flashsim::{ChunkHandle, DeviceId};

use crate::extent::{decode_layout, encode_layout, ObjectLayout, StripeId};
use crate::manager::{SpaceUsage, StripeError, StripeManager};

impl StripeManager {
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
        out.extend_from_slice(&encode_layout(layout, self.extent(layout)?));
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
        let (owner, requested, first, extent) = decode_layout(bytes)?;
        let top_device = (u64::BITS - extent.healthy.leading_zeros()) as usize;
        if top_device > self.array.device_count() {
            return Err(Corrupt);
        }
        let first_stripe = StripeId(first);
        let placed = extent.placed(first_stripe, self.chunk_size);
        // Every stripe but the last is full, so those alone occupy
        // `width` whole chunks each: more of them than the array has bytes
        // for were never stored.
        let capacity: u128 = (0..self.array.device_count())
            .map(|d| u128::from(self.array.device(DeviceId(d)).config().capacity.as_bytes()))
            .sum();
        let full = placed.full_stripes();
        let full_chunks = u128::from(full) * extent.width() as u128;
        if full_chunks * u128::from(self.chunk_size.as_bytes()) > capacity {
            return Err(Corrupt);
        }
        let stripe_count = u32::try_from(placed.shape.stripes).map_err(|_| Corrupt)?;
        let next_stripe = first.checked_add(placed.shape.stripes).ok_or(Corrupt)?;

        for (d, tail) in placed.tails() {
            let device = self.array.device_mut(d);
            device.note_referenced_run(ChunkHandle::new(first), full);
            if tail.is_some() {
                device.note_referenced(ChunkHandle::new(first + full));
            }
        }
        if let Some(old) = self.extents.remove(&first_stripe) {
            self.release_usage(&old.placed(first_stripe, self.chunk_size));
        }
        self.charge_usage(&placed);
        self.next_stripe = self.next_stripe.max(next_stripe);
        self.extents.insert(first_stripe, extent);
        Ok(ObjectLayout {
            owner,
            size: extent.size,
            scheme: requested,
            first_stripe,
            stripe_count,
        })
    }

    /// Simulates the DRAM side of a power loss: every piece of in-memory
    /// stripe metadata (extents, byte accounting, the allocator cursor)
    /// vanishes. The flash array — the durable medium — is untouched: the
    /// chunks the crash orphans count as used, by the room rule too, until
    /// [`StripeManager::remove_unreferenced_chunks`] collects them.
    pub fn simulate_crash(&mut self) {
        self.extents.clear();
        self.usage = SpaceUsage::default();
        self.next_stripe = 0;
    }

    /// What live stripe metadata references, as ranges
    /// ([`ChunkRefs`]): what the orphan sweep keeps and the
    /// double-allocation check reads, so recovery builds it once for both.
    pub fn chunk_refs(&self) -> ChunkRefs {
        // An extent puts at most one range on a device, so taken in
        // first-stripe order each device's ranges come sorted: placing them
        // device by device, in the order they come, sorts the list without
        // comparing ranges.
        let mut extents: Vec<_> = self.extents.iter().collect();
        extents.sort_unstable_by_key(|&(first, _)| *first);
        let mut ranges = Vec::with_capacity(self.extents.len() * self.array.device_count());
        let mut starts = [0; u64::BITS as usize + 1];
        for (first, extent) in extents {
            let placed = extent.placed(*first, self.chunk_size);
            for (d, tail) in placed.tails() {
                let count = placed.full_stripes() + u64::from(tail.is_some());
                if count > 0 {
                    ranges.push((d, first.0, count));
                    starts[d.0 + 1] += 1;
                }
            }
        }
        for d in 1..starts.len() {
            starts[d] += starts[d - 1];
        }
        let mut refs = vec![(DeviceId(0), 0, 0); ranges.len()];
        for range in ranges {
            let at = &mut starts[range.0 .0];
            refs[*at] = range;
            *at += 1;
        }
        debug_assert!(refs.is_sorted());
        ChunkRefs(refs)
    }

    /// Every `(device, handle)` pair referenced by live stripe metadata,
    /// sorted and deduplicated.
    pub fn referenced_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = self
            .chunk_refs()
            .0
            .into_iter()
            .flat_map(|(d, first, count)| {
                (first..first + count).map(move |h| (d, ChunkHandle::new(h)))
            })
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// Removes every chunk on the array that `refs` — this manager's
    /// [`StripeManager::chunk_refs`] as its metadata stands — does not
    /// name: the orphans left behind by writes whose metadata never
    /// reached the journal before a crash, or by removals whose chunk
    /// frees raced the crash. Returns how many chunks were collected.
    pub fn remove_unreferenced_chunks(&mut self, refs: &ChunkRefs) -> usize {
        debug_assert_eq!(refs, &self.chunk_refs(), "stale reference list");
        // Both sides are sorted ranges: one pass over each device's chunks
        // with a cursor into the references, freeing what lies between.
        let mut refs = refs.0.iter().peekable();
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

/// Every `(device, first handle, count)` range live stripe metadata
/// references — one per extent and device — sorted, overlaps kept
/// ([`StripeManager::chunk_refs`]). It describes the metadata it was built
/// from until an extent is next installed or removed.
#[derive(Debug, PartialEq, Eq)]
pub struct ChunkRefs(Vec<(DeviceId, u64, u64)>);

impl ChunkRefs {
    /// `(device, handle)` pairs claimed by more than one stripe chunk — a
    /// violation of the no-double-allocated-chunk invariant. Empty on a
    /// consistent manager.
    pub fn double_allocated_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        // The ranges are sorted by device and start, so a handle is claimed
        // twice where a range starts before an earlier one on its device
        // has ended; `told` keeps each such handle to one mention.
        let mut dup = Vec::new();
        let (mut on, mut covered, mut told) = (None, 0, 0);
        for &(d, first, count) in &self.0 {
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
}
