//! Chunk addressing and contents.

use std::fmt;

use bytes::Bytes;
use reo_sim::ByteSize;

/// An opaque identifier for a chunk stored on one device.
///
/// The namespace is per device: a handle names a chunk only together with
/// the device that holds it, and two devices may use the same handle for
/// different chunks (the stripe manager gives every chunk of a stripe the
/// stripe's id). Handles are chosen by the layer that owns placement and
/// are stable across device failures: after a failure the handle still
/// names the chunk, but reads return
/// [`FlashError::Corrupted`](crate::FlashError::Corrupted). Consecutive
/// handles holding size-only chunks of one length are kept by the device
/// as one run ([`FlashDevice::write_run`](crate::FlashDevice::write_run)).
///
/// # Examples
///
/// ```
/// use reo_flashsim::ChunkHandle;
///
/// let h = ChunkHandle::new(42);
/// assert_eq!(h.as_u64(), 42);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChunkHandle(u64);

impl ChunkHandle {
    /// Creates a handle from a raw value.
    pub const fn new(raw: u64) -> Self {
        ChunkHandle(raw)
    }

    /// The raw value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ChunkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunk#{}", self.0)
    }
}

/// Chunk contents: a real payload, or size-only ("synthetic") content.
///
/// The correctness tests and the examples store real bytes so that erasure
/// reconstruction can be verified exactly. The paper-scale experiment
/// sweeps move hundreds of gigabytes of simulated data; they use
/// `Synthetic` chunks, which occupy no memory but are still charged full
/// service time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChunkPayload {
    /// Real bytes.
    Real(Bytes),
    /// No stored bytes; only the length is tracked.
    Synthetic,
}

impl ChunkPayload {
    /// Returns the real bytes, if present.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            ChunkPayload::Real(b) => Some(b),
            ChunkPayload::Synthetic => None,
        }
    }

    /// `true` if this is a synthetic (size-only) payload.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, ChunkPayload::Synthetic)
    }
}

/// A chunk as stored on a device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredChunk {
    len: ByteSize,
    payload: ChunkPayload,
}

impl StoredChunk {
    /// Creates a chunk with a real payload.
    pub fn real(bytes: Bytes) -> Self {
        StoredChunk {
            len: ByteSize::from_bytes(bytes.len() as u64),
            payload: ChunkPayload::Real(bytes),
        }
    }

    /// Creates a size-only chunk.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero — zero-length chunks are never valid.
    pub fn synthetic(len: ByteSize) -> Self {
        assert!(!len.is_zero(), "chunks must be non-empty");
        StoredChunk {
            len,
            payload: ChunkPayload::Synthetic,
        }
    }

    /// The chunk length.
    pub fn len(&self) -> ByteSize {
        self.len
    }

    /// `true` if the chunk is zero bytes long (never true for chunks built
    /// through the public constructors).
    pub fn is_empty(&self) -> bool {
        self.len.is_zero()
    }

    /// The payload.
    pub fn payload(&self) -> &ChunkPayload {
        &self.payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_chunk_tracks_len() {
        let c = StoredChunk::real(Bytes::from_static(b"hello"));
        assert_eq!(c.len(), ByteSize::from_bytes(5));
        assert_eq!(c.payload().as_bytes().unwrap().as_ref(), b"hello");
        assert!(!c.payload().is_synthetic());
    }

    #[test]
    fn synthetic_chunk_has_no_bytes() {
        let c = StoredChunk::synthetic(ByteSize::from_kib(64));
        assert_eq!(c.len(), ByteSize::from_kib(64));
        assert!(c.payload().as_bytes().is_none());
        assert!(c.payload().is_synthetic());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_synthetic_panics() {
        let _ = StoredChunk::synthetic(ByteSize::ZERO);
    }

    #[test]
    fn handle_display() {
        assert_eq!(ChunkHandle::new(7).to_string(), "chunk#7");
    }
}
