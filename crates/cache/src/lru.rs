//! Object-granularity LRU ordering.

use std::collections::hash_map::Entry;

use reo_osd::ObjectKey;
use reo_sim::FastMap;

/// A recency-ordered set of object keys.
///
/// Touching a key moves it to the most-recently-used position; the
/// least-recently-used key is the eviction victim. One doubly-linked list
/// threaded through a slab of nodes, behind one map from key to slab slot:
/// `touch`, `remove` and `pop_least_recent` are `O(1)` with one map probe,
/// and the slab's freed slots are reused, so a list at steady size
/// allocates nothing.
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
#[derive(Clone, Debug)]
pub struct LruList {
    /// List nodes and freed slots; a freed slot's `next` chains the free
    /// list.
    nodes: Vec<Node>,
    slot_of: FastMap<ObjectKey, u32>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
    /// First freed slot.
    free: u32,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    key: ObjectKey,
    prev: u32,
    next: u32,
}

/// The null slot.
const NIL: u32 = u32::MAX;

impl Default for LruList {
    fn default() -> Self {
        LruList {
            nodes: Vec::new(),
            slot_of: FastMap::default(),
            head: NIL,
            tail: NIL,
            free: NIL,
        }
    }
}

impl LruList {
    /// Creates an empty list.
    pub fn new() -> Self {
        LruList::default()
    }

    /// Number of keys tracked.
    pub fn len(&self) -> usize {
        self.slot_of.len()
    }

    /// `true` when no keys are tracked.
    pub fn is_empty(&self) -> bool {
        self.slot_of.is_empty()
    }

    /// `true` if `key` is tracked.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.slot_of.contains_key(&key)
    }

    /// Inserts `key` at (or moves it to) the most-recently-used position.
    pub fn touch(&mut self, key: ObjectKey) {
        let slot = match self.slot_of.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                unlink(&mut self.nodes, &mut self.head, &mut self.tail, slot);
                slot
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key,
                    prev: NIL,
                    next: NIL,
                };
                let slot = if self.free == NIL {
                    let slot = u32::try_from(self.nodes.len())
                        .ok()
                        .filter(|&slot| slot != NIL)
                        .expect("fewer than u32::MAX keys");
                    self.nodes.push(node);
                    slot
                } else {
                    let slot = self.free;
                    self.free = self.nodes[slot as usize].next;
                    self.nodes[slot as usize] = node;
                    slot
                };
                *e.insert(slot)
            }
        };
        // Link in behind the tail.
        self.nodes[slot as usize].prev = self.tail;
        self.nodes[slot as usize].next = NIL;
        match self.tail {
            NIL => self.head = slot,
            tail => self.nodes[tail as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Removes `key`; returns `true` if it was present.
    pub fn remove(&mut self, key: ObjectKey) -> bool {
        match self.slot_of.remove(&key) {
            Some(slot) => {
                self.release(slot);
                true
            }
            None => false,
        }
    }

    /// The least-recently-used key, if any.
    pub fn least_recent(&self) -> Option<ObjectKey> {
        self.nodes.get(self.head as usize).map(|node| node.key)
    }

    /// Removes and returns the least-recently-used key.
    pub fn pop_least_recent(&mut self) -> Option<ObjectKey> {
        let key = self.least_recent()?;
        let slot = self.slot_of.remove(&key).expect("listed keys are mapped");
        self.release(slot);
        Some(key)
    }

    /// Keys from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node.key)
        })
    }

    /// Unlinks `slot` and puts it on the free list.
    fn release(&mut self, slot: u32) {
        unlink(&mut self.nodes, &mut self.head, &mut self.tail, slot);
        self.nodes[slot as usize].next = self.free;
        self.free = slot;
    }
}

/// Takes `slot` out of the list, joining its neighbours.
fn unlink(nodes: &mut [Node], head: &mut u32, tail: &mut u32, slot: u32) {
    let Node { prev, next, .. } = nodes[slot as usize];
    match prev {
        NIL => *head = next,
        prev => nodes[prev as usize].next = next,
    }
    match next {
        NIL => *tail = prev,
        next => nodes[next as usize].prev = prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reo_osd::{ObjectId, PartitionId};
    use std::collections::BTreeMap;

    fn k(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    /// The list this one replaced: a sequence counter, a `BTreeMap` from
    /// sequence to key and a map back. Its victim order is the definition
    /// the slab list is held to.
    #[derive(Default)]
    struct SeqLru {
        by_seq: BTreeMap<u64, ObjectKey>,
        seq_of: FastMap<ObjectKey, u64>,
        next_seq: u64,
    }

    impl SeqLru {
        fn touch(&mut self, key: ObjectKey) {
            if let Some(old) = self.seq_of.remove(&key) {
                self.by_seq.remove(&old);
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.by_seq.insert(seq, key);
            self.seq_of.insert(key, seq);
        }

        fn remove(&mut self, key: ObjectKey) -> bool {
            match self.seq_of.remove(&key) {
                Some(seq) => {
                    self.by_seq.remove(&seq);
                    true
                }
                None => false,
            }
        }

        fn least_recent(&self) -> Option<ObjectKey> {
            self.by_seq.values().next().copied()
        }

        fn pop_least_recent(&mut self) -> Option<ObjectKey> {
            let (&seq, &key) = self.by_seq.iter().next()?;
            self.by_seq.remove(&seq);
            self.seq_of.remove(&key);
            Some(key)
        }

        fn iter(&self) -> impl Iterator<Item = ObjectKey> + '_ {
            self.by_seq.values().copied()
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Touch(u64),
        Remove(u64),
        Pop,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few keys, so sequences re-touch, remove and re-insert them.
        prop_oneof![
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Remove),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// Every answer and the whole order, after every step, are the
        /// sequence-numbered list's.
        #[test]
        fn slab_list_orders_victims_like_the_sequence_list(
            ops in proptest::collection::vec(arb_op(), 1..400),
        ) {
            let (mut lru, mut reference) = (LruList::new(), SeqLru::default());
            for op in ops {
                match op {
                    Op::Touch(i) => {
                        lru.touch(k(i));
                        reference.touch(k(i));
                    }
                    Op::Remove(i) => prop_assert_eq!(lru.remove(k(i)), reference.remove(k(i))),
                    Op::Pop => {
                        prop_assert_eq!(lru.pop_least_recent(), reference.pop_least_recent())
                    }
                }
                prop_assert_eq!(lru.least_recent(), reference.least_recent());
                prop_assert_eq!(lru.len(), reference.seq_of.len());
                prop_assert!(lru.iter().eq(reference.iter()));
                prop_assert!(reference.iter().all(|key| lru.contains(key)));
                // Freed slots are reused: the slab never outgrows the most
                // keys ever held at once (24 here).
                prop_assert!(lru.nodes.len() <= 24);
            }
        }
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
