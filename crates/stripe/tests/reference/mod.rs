//! The per-chunk stripe manager this crate shipped before objects became
//! extents and device I/O became runs: one map entry and one `Vec` per
//! stripe, one device call and one map probe per chunk. Its loops are kept
//! verbatim (public rustdoc and the accessors the test does not call
//! dropped, the crash-recovery garbage collection put back as a plain walk
//! of the held handles) as the reference `prop_stripe.rs` holds the extent
//! path to: same clock, same device counters, same chunks referenced, same
//! orphans collected, same errors. Its layout blob is the
//! per-chunk one (a row per chunk) the extent path no longer writes. It
//! writes and frees chunk by chunk, so its devices never form a run: what
//! the comparison holds the devices' run tables to is their per-chunk
//! tables.

use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

use bytes::Bytes;
use reo_erasure::{CodecError, ReedSolomon};
use reo_flashsim::{ChunkHandle, DeviceId, FaultPlan, FlashArray, FlashError, StoredChunk};
use reo_sim::{ByteSize, FastMap, Layer, SimDuration, SimTime};
use reo_stripe::{
    ChunkRole, ObjectStatus, ParityUpdate, ReadOutcome, RedundancyScheme, SpaceUsage, StripeLayout,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StripeId(u64);

impl StripeId {
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for StripeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stripe#{}", self.0)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum StripeError {
    Flash(FlashError),
    Codec(CodecError),
    ObjectLost {
        stripe: StripeId,
        lost: usize,
        tolerated: usize,
    },
    UnknownStripe(StripeId),
    EmptyObject,
    PayloadSizeMismatch {
        declared: u64,
        payload: u64,
    },
    NoHealthyDevices,
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

#[derive(Clone, Debug)]
pub struct ObjectLayout {
    owner: u64,
    size: ByteSize,
    scheme: RedundancyScheme,
    stripes: Vec<StripeId>,
}

impl ObjectLayout {
    pub fn scheme(&self) -> RedundancyScheme {
        self.scheme
    }

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
    real: bool,
}

#[derive(Clone, Debug)]
struct StripeMeta {
    scheme: RedundancyScheme,
    encode_m: usize,
    chunks: Vec<StripeChunk>,
}

impl StripeMeta {
    fn tolerated(&self, width: usize) -> usize {
        self.scheme.failures_tolerated(width)
    }
}

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

#[derive(Clone, Debug, Default)]
struct StripeScratch {
    shards: Vec<Vec<u8>>,
    parity: Vec<Vec<u8>>,
}

fn reset_buffers(pool: &mut Vec<Vec<u8>>, count: usize, len: usize) {
    pool.resize_with(count, Vec::new);
    for b in pool.iter_mut() {
        b.clear();
        b.resize(len, 0);
    }
}

struct StripeIo<'a> {
    array: &'a mut FlashArray,
    transient_retries: &'a mut u64,
    codecs: &'a mut CodecCache,
    scratch: &'a mut StripeScratch,
}

#[derive(Clone, Debug)]
pub struct StripeManager {
    array: FlashArray,
    chunk_size: ByteSize,
    next_stripe: u64,
    stripes: FastMap<StripeId, StripeMeta>,
    usage: SpaceUsage,
    transient_retries: u64,
    codecs: CodecCache,
    scratch: StripeScratch,
}

const CHUNK_META_LEN: usize = 1 + 4 + 4 + 8 + 8 + 1;

const TRANSIENT_RETRY_LIMIT: u32 = 3;
const TRANSIENT_BACKOFF: SimDuration = SimDuration::from_micros(500);

impl StripeManager {
    pub fn new(array: FlashArray, chunk_size: ByteSize) -> Self {
        assert!(!chunk_size.is_zero(), "chunk size must be non-zero");
        StripeManager {
            array,
            chunk_size,
            next_stripe: 0,
            stripes: FastMap::default(),
            usage: SpaceUsage::default(),
            transient_retries: 0,
            codecs: CodecCache::default(),
            scratch: StripeScratch::default(),
        }
    }

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

    pub fn transient_retries(&self) -> u64 {
        self.transient_retries
    }

    pub fn inject_latent_corruption(&mut self, plan: &mut FaultPlan, rate: f64) -> usize {
        plan.inject_latent_corruption(&mut self.array, rate)
    }

    pub fn arm_transient_faults(&mut self, plan: &mut FaultPlan, rate: f64) {
        plan.arm_transient_faults(&mut self.array, rate);
    }

    pub fn slow_device(&mut self, plan: &mut FaultPlan, id: DeviceId, factor: f64) {
        plan.slow_device(&mut self.array, id, factor);
    }

    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    pub fn usage(&self) -> SpaceUsage {
        self.usage
    }

    pub fn free_capacity(&self) -> ByteSize {
        self.array
            .healthy_devices()
            .into_iter()
            .map(|d| self.array.device(d).available())
            .sum()
    }

    pub fn fail_device(&mut self, id: DeviceId) {
        self.array.fail_device(id);
    }

    pub fn replace_device(&mut self, id: DeviceId) {
        self.array.replace_device(id);
    }

    /// A chunk's handle is the id of its stripe, the one being assembled
    /// (the one change since the freeze: it used to count chunks).
    fn alloc_handle(&mut self) -> ChunkHandle {
        ChunkHandle::new(self.next_stripe - 1)
    }

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
                let layout = StripeLayout::new(stripe_index, scheme, healthy.len());

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

    pub fn stripe_count(&self) -> usize {
        self.stripes.len()
    }

    pub fn export_object_meta(&self, layout: &ObjectLayout) -> Result<Vec<u8>, StripeError> {
        let mut out = Vec::new();
        self.export_object_meta_into(layout, &mut out)?;
        Ok(out)
    }

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

    pub fn referenced_chunks(&self) -> Vec<(DeviceId, ChunkHandle)> {
        let mut refs: Vec<(DeviceId, ChunkHandle)> = self
            .stripes
            .values()
            .flat_map(|meta| meta.chunks.iter().map(|c| (c.device, c.handle)))
            .collect();
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    pub fn simulate_crash(&mut self) {
        self.stripes.clear();
        self.usage = SpaceUsage::default();
        self.next_stripe = 0;
    }

    /// Removes, chunk by chunk, every chunk the devices hold that no stripe
    /// names: what a crash orphaned. Returns how many.
    pub fn remove_unreferenced_chunks(&mut self) -> usize {
        let referenced: HashSet<_> = self.referenced_chunks().into_iter().collect();
        let mut removed = 0;
        for d in (0..self.array.device_count()).map(DeviceId) {
            for handle in self.array.device(d).chunk_handles() {
                if !referenced.contains(&(d, handle)) {
                    self.array.device_mut(d).remove_chunk(handle);
                    removed += 1;
                }
            }
        }
        removed
    }
}

#[derive(Default)]
struct ChunkCursor {
    stripe_pos: usize,
    first_chunk: u64,
}

impl ChunkCursor {
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
