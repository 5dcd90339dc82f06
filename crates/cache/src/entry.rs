//! Per-object cache state.

use reo_osd::{ClassifierInputs, ObjectClass, ObjectKey};
use reo_sim::ByteSize;

/// The cache manager's record for one cached object.
///
/// # Examples
///
/// ```
/// use reo_cache::CacheEntry;
/// use reo_osd::{ObjectId, ObjectKey, PartitionId};
/// use reo_sim::ByteSize;
///
/// let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
/// let mut e = CacheEntry::new(key, ByteSize::from_kib(512), false, false);
/// e.touch();
/// e.touch();
/// assert_eq!(e.freq(), 2);
/// assert!(e.hotness() > 0.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CacheEntry {
    key: ObjectKey,
    size: ByteSize,
    freq: u64,
    dirty: bool,
    metadata: bool,
    class: ObjectClass,
}

impl CacheEntry {
    /// Creates a fresh entry with zero accesses.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(key: ObjectKey, size: ByteSize, dirty: bool, metadata: bool) -> Self {
        assert!(!size.is_zero(), "cached objects must be non-empty");
        let class = ClassifierInputs {
            metadata,
            hot: false,
            dirty,
        }
        .classify();
        CacheEntry {
            key,
            size,
            freq: 0,
            dirty,
            metadata,
            class,
        }
    }

    /// The object's key.
    pub fn key(&self) -> ObjectKey {
        self.key
    }

    /// The object's size.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// Accesses since the object entered the cache (the paper's `Freq`).
    pub fn freq(&self) -> u64 {
        self.freq
    }

    /// `true` if the entry holds unflushed updates.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// `true` if the entry is system metadata.
    pub fn is_metadata(&self) -> bool {
        self.metadata
    }

    /// The entry's current class (as last classified).
    pub fn class(&self) -> ObjectClass {
        self.class
    }

    /// Records one access.
    pub fn touch(&mut self) {
        self.freq += 1;
    }

    /// Starts the entry at the access count of the one it replaces.
    pub(crate) fn carry_freq(&mut self, freq: u64) {
        self.freq = freq;
    }

    /// Marks the entry dirty (a write landed in cache).
    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    /// Marks the entry clean (its contents were flushed to the backend).
    pub fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// The hotness indicator `H = Freq / Size` of Section IV-C.1, with
    /// size measured in mebibytes so the numbers stay in a human-friendly
    /// range. An entry never accessed has `H = 0`.
    pub fn hotness(&self) -> f64 {
        self.freq as f64 / self.size.as_mib_f64()
    }

    /// Reclassifies with an externally decided hot flag (the manager
    /// decides it against `H_hot` under its hotness definition: the
    /// paper's `Freq / Size` or the pure-frequency ablation); returns the
    /// new class.
    pub fn reclassify_as(&mut self, hot: bool) -> ObjectClass {
        self.class = ClassifierInputs {
            metadata: self.metadata,
            hot,
            dirty: self.dirty,
        }
        .classify();
        self.class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_osd::{ObjectId, PartitionId};

    fn key() -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000))
    }

    #[test]
    fn new_entry_is_cold_clean() {
        let e = CacheEntry::new(key(), ByteSize::from_mib(1), false, false);
        assert_eq!(e.class(), ObjectClass::ColdClean);
        assert_eq!(e.freq(), 0);
        assert_eq!(e.hotness(), 0.0);
    }

    #[test]
    fn dirty_and_metadata_dominate_classification() {
        let e = CacheEntry::new(key(), ByteSize::from_mib(1), true, false);
        assert_eq!(e.class(), ObjectClass::Dirty);
        let e = CacheEntry::new(key(), ByteSize::from_mib(1), false, true);
        assert_eq!(e.class(), ObjectClass::Metadata);
        // Metadata wins even when dirty.
        let e = CacheEntry::new(key(), ByteSize::from_mib(1), true, true);
        assert_eq!(e.class(), ObjectClass::Metadata);
    }

    #[test]
    fn hotness_prefers_small_objects() {
        let mut small = CacheEntry::new(key(), ByteSize::from_mib(1), false, false);
        let mut large = CacheEntry::new(key(), ByteSize::from_mib(8), false, false);
        small.touch();
        large.touch();
        assert!(small.hotness() > large.hotness());
    }

    #[test]
    fn reclassify_as_follows_the_hot_flag() {
        let mut e = CacheEntry::new(key(), ByteSize::from_mib(1), false, false);
        e.touch();
        assert_eq!(e.reclassify_as(true), ObjectClass::HotClean);
        assert_eq!(e.class(), ObjectClass::HotClean);
        assert_eq!(e.reclassify_as(false), ObjectClass::ColdClean);
        // Dirty overrides hotness.
        e.mark_dirty();
        assert_eq!(e.reclassify_as(true), ObjectClass::Dirty);
        e.mark_clean();
        assert_eq!(e.reclassify_as(true), ObjectClass::HotClean);
        // So does metadata, dirty or not.
        let mut m = CacheEntry::new(key(), ByteSize::from_mib(1), false, true);
        assert_eq!(m.reclassify_as(true), ObjectClass::Metadata);
        m.mark_dirty();
        assert_eq!(m.reclassify_as(false), ObjectClass::Metadata);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = CacheEntry::new(key(), ByteSize::ZERO, false, false);
    }
}
