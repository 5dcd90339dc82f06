//! Object-granularity LRU ordering.

use std::collections::BTreeMap;

use reo_osd::ObjectKey;
use reo_sim::FastMap;

/// A recency-ordered set of object keys.
///
/// Touching a key moves it to the most-recently-used position; the
/// least-recently-used key is the eviction victim. Backed by a sequence
/// counter and a `BTreeMap`, giving `O(log n)` operations with simple,
/// allocation-light code (the paper caches ~4,000 objects; `n` is small).
///
/// # Examples
///
/// ```
/// use reo_cache::LruList;
/// use reo_osd::{ObjectId, ObjectKey, PartitionId};
///
/// let k = |i: u64| ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i));
/// let mut lru = LruList::new();
/// lru.touch(k(1));
/// lru.touch(k(2));
/// lru.touch(k(1)); // 1 becomes most recent
/// assert_eq!(lru.least_recent(), Some(k(2)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct LruList {
    by_seq: BTreeMap<u64, ObjectKey>,
    seq_of: FastMap<ObjectKey, u64>,
    next_seq: u64,
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList::default()
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.by_seq.len()
    }

    /// `true` when no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    /// `true` if `key` is tracked.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.seq_of.contains_key(&key)
    }

    /// Inserts `key` at (or moves it to) the most-recently-used position.
    pub fn touch(&mut self, key: ObjectKey) {
        if let Some(old) = self.seq_of.remove(&key) {
            self.by_seq.remove(&old);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_seq.insert(seq, key);
        self.seq_of.insert(key, seq);
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: ObjectKey) -> bool {
        match self.seq_of.remove(&key) {
            Some(seq) => {
                self.by_seq.remove(&seq);
                true
            }
            None => false,
        }
    }

    /// The least-recently-used key, if any.
    pub fn least_recent(&self) -> Option<ObjectKey> {
        self.by_seq.values().next().copied()
    }

    /// Removes and returns the least-recently-used key.
    pub fn pop_least_recent(&mut self) -> Option<ObjectKey> {
        let (&seq, &key) = self.by_seq.iter().next()?;
        self.by_seq.remove(&seq);
        self.seq_of.remove(&key);
        Some(key)
    }

    /// Keys from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.by_seq.values().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_osd::{ObjectId, PartitionId};

    fn k(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    #[test]
    fn eviction_order_is_recency() {
        let mut lru = LruList::new();
        for i in 0..4 {
            lru.touch(k(i));
        }
        lru.touch(k(0)); // 0 saved from eviction
        assert_eq!(lru.pop_least_recent(), Some(k(1)));
        assert_eq!(lru.pop_least_recent(), Some(k(2)));
        assert_eq!(lru.pop_least_recent(), Some(k(3)));
        assert_eq!(lru.pop_least_recent(), Some(k(0)));
        assert_eq!(lru.pop_least_recent(), None);
    }

    #[test]
    fn touch_is_idempotent_for_membership() {
        let mut lru = LruList::new();
        lru.touch(k(1));
        lru.touch(k(1));
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(k(1)));
    }

    #[test]
    fn remove_works_and_reports() {
        let mut lru = LruList::new();
        lru.touch(k(1));
        assert!(lru.remove(k(1)));
        assert!(!lru.remove(k(1)));
        assert!(lru.is_empty());
        assert_eq!(lru.least_recent(), None);
    }

    #[test]
    fn iter_is_lru_to_mru() {
        let mut lru = LruList::new();
        lru.touch(k(3));
        lru.touch(k(1));
        lru.touch(k(2));
        lru.touch(k(3));
        let order: Vec<ObjectKey> = lru.iter().collect();
        assert_eq!(order, vec![k(1), k(2), k(3)]);
    }
}
