//! Object-granularity LRU ordering.

use std::collections::hash_map::Entry;

use reo_osd::ObjectKey;
use reo_sim::FastMap;

/// A recency-ordered set of object keys, some of them marked.
///
/// Touching a key moves it to the most-recently-used position; the
/// least-recently-used key is the eviction victim. One doubly-linked list
/// threaded through a slab of nodes, behind one map from key to slab slot:
/// `touch`, `remove` and `pop_least_recent` are `O(1)` with one map probe,
/// and the slab's freed slots are reused, so a list at steady size
/// allocates nothing.
///
/// The marked keys (the cache manager marks the dirty ones) are threaded
/// on a second pair of links in the same nodes, always in the order the
/// list has them, so the least-recently-used *marked* key is that list's
/// head — no scan. A touch moves a marked key to both tails; marking a key
/// steps from it toward the recent end to the next marked key, which is
/// no step at all for the key touched last.
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
/// lru.touch(k(3));
/// lru.touch(k(1)); // 1 becomes most recent
/// assert_eq!(lru.least_recent(), Some(k(2)));
/// lru.mark(k(1));
/// lru.mark(k(3));
/// assert_eq!(lru.first_marked(), Some(k(3)));
/// ```
#[derive(Clone, Debug)]
pub struct LruList {
    /// List nodes and freed slots; a freed slot's `all.next` chains the
    /// free list.
    nodes: Vec<Node>,
    slot_of: FastMap<ObjectKey, u32>,
    /// Every key, least recently used first.
    all: Ends,
    /// The marked keys, a sub-sequence of `all`.
    marked: Ends,
    /// First freed slot.
    free: u32,
}

#[derive(Clone, Copy, Debug)]
struct Node {
    key: ObjectKey,
    all: Links,
    /// The node's place among the marked ones, if it is one.
    marked: Option<Links>,
}

/// A node's neighbours on one list.
#[derive(Clone, Copy, Debug)]
struct Links {
    prev: u32,
    next: u32,
}

/// A list's least and most recently used nodes.
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
}

/// The null slot.
const NIL: u32 = u32::MAX;

const UNLINKED: Links = Links {
    prev: NIL,
    next: NIL,
};

const EMPTY: Ends = Ends {
    head: NIL,
    tail: NIL,
};

impl Default for LruList {
    fn default() -> Self {
        LruList {
            nodes: Vec::new(),
            slot_of: FastMap::default(),
            all: EMPTY,
            marked: EMPTY,
            free: NIL,
        }
    }
}

/// One of the two lists threaded through the nodes: where a node keeps
/// its links on it.
trait Thread {
    fn links(node: &mut Node) -> &mut Links;
}

struct All;
struct Marked;

impl Thread for All {
    fn links(node: &mut Node) -> &mut Links {
        &mut node.all
    }
}

impl Thread for Marked {
    fn links(node: &mut Node) -> &mut Links {
        node.marked.as_mut().expect("a marked node")
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

    /// Inserts `key` at (or moves it to) the most-recently-used position;
    /// a marked key stays marked.
    pub fn touch(&mut self, key: ObjectKey) {
        let slot = match self.slot_of.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                unlink::<All>(&mut self.nodes, &mut self.all, slot);
                if self.nodes[slot as usize].marked.is_some() {
                    unlink::<Marked>(&mut self.nodes, &mut self.marked, slot);
                    link_before::<Marked>(&mut self.nodes, &mut self.marked, slot, NIL);
                }
                slot
            }
            Entry::Vacant(e) => {
                let node = Node {
                    key,
                    all: UNLINKED,
                    marked: None,
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
                    self.free = self.nodes[slot as usize].all.next;
                    self.nodes[slot as usize] = node;
                    slot
                };
                *e.insert(slot)
            }
        };
        link_before::<All>(&mut self.nodes, &mut self.all, slot, NIL);
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
        self.nodes.get(self.all.head as usize).map(|node| node.key)
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
        let mut at = self.all.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.all.next;
            Some(node.key)
        })
    }

    /// Marks `key` where it stands; a key that is not tracked, or is
    /// marked already, stays as it is. Costs one step per unmarked key
    /// between this one and the next marked one toward the recent end:
    /// none for the key touched last.
    pub fn mark(&mut self, key: ObjectKey) {
        let Some(slot) = self.slot(key) else {
            return;
        };
        if self.nodes[slot as usize].marked.is_some() {
            return;
        }
        let mut next = self.nodes[slot as usize].all.next;
        while let Some(node) = self.nodes.get(next as usize) {
            if node.marked.is_some() {
                break;
            }
            next = node.all.next;
        }
        self.nodes[slot as usize].marked = Some(UNLINKED);
        link_before::<Marked>(&mut self.nodes, &mut self.marked, slot, next);
    }

    /// Takes the mark off `key`, if it has one.
    pub fn unmark(&mut self, key: ObjectKey) {
        let Some(slot) = self.slot(key) else {
            return;
        };
        if self.nodes[slot as usize].marked.is_some() {
            unlink::<Marked>(&mut self.nodes, &mut self.marked, slot);
            self.nodes[slot as usize].marked = None;
        }
    }

    /// The least-recently-used marked key, if any.
    pub fn first_marked(&self) -> Option<ObjectKey> {
        let first = self.nodes.get(self.marked.head as usize);
        first.map(|node| node.key)
    }

    /// The slot of `key`, without a probe for the key touched last.
    fn slot(&self, key: ObjectKey) -> Option<u32> {
        match self.nodes.get(self.all.tail as usize) {
            Some(last) if last.key == key => Some(self.all.tail),
            _ => self.slot_of.get(&key).copied(),
        }
    }

    /// Unlinks `slot` and puts it on the free list.
    fn release(&mut self, slot: u32) {
        unlink::<All>(&mut self.nodes, &mut self.all, slot);
        if self.nodes[slot as usize].marked.is_some() {
            unlink::<Marked>(&mut self.nodes, &mut self.marked, slot);
        }
        self.nodes[slot as usize].all.next = self.free;
        self.free = slot;
    }
}

/// Takes `slot` out of a list, joining its neighbours.
fn unlink<T: Thread>(nodes: &mut [Node], ends: &mut Ends, slot: u32) {
    let Links { prev, next } = *T::links(&mut nodes[slot as usize]);
    match prev {
        NIL => ends.head = next,
        prev => T::links(&mut nodes[prev as usize]).next = next,
    }
    match next {
        NIL => ends.tail = prev,
        next => T::links(&mut nodes[next as usize]).prev = prev,
    }
}

/// Puts `slot` on a list in front of `next`, which is on it; behind the
/// tail if `next` is `NIL`.
fn link_before<T: Thread>(nodes: &mut [Node], ends: &mut Ends, slot: u32, next: u32) {
    let prev = match next {
        NIL => std::mem::replace(&mut ends.tail, slot),
        next => std::mem::replace(&mut T::links(&mut nodes[next as usize]).prev, slot),
    };
    match prev {
        NIL => ends.head = slot,
        prev => T::links(&mut nodes[prev as usize]).next = slot,
    }
    *T::links(&mut nodes[slot as usize]) = Links { prev, next };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use reo_osd::{ObjectId, PartitionId};
    use std::collections::{BTreeMap, BTreeSet};

    fn k(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    /// The list this one replaced: a sequence counter, a `BTreeMap` from
    /// sequence to key and a map back. Its victim order is the definition
    /// the slab list is held to; the marked order is that order, filtered
    /// by a set of marks.
    #[derive(Default)]
    struct SeqLru {
        by_seq: BTreeMap<u64, ObjectKey>,
        seq_of: FastMap<ObjectKey, u64>,
        next_seq: u64,
        marks: BTreeSet<ObjectKey>,
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
            self.marks.remove(&key);
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
            self.marks.remove(&key);
            Some(key)
        }

        fn iter(&self) -> impl Iterator<Item = ObjectKey> + '_ {
            self.by_seq.values().copied()
        }

        fn mark(&mut self, key: ObjectKey) {
            if self.seq_of.contains_key(&key) {
                self.marks.insert(key);
            }
        }

        fn marked(&self) -> impl Iterator<Item = ObjectKey> + '_ {
            self.iter().filter(|key| self.marks.contains(key))
        }
    }

    impl LruList {
        /// The marked keys by their own links, from the head on and from
        /// the tail back.
        fn marked_both_ways(&self) -> (Vec<ObjectKey>, Vec<ObjectKey>) {
            let walk = |from: u32, step: fn(Links) -> u32| {
                let mut at = from;
                let keys = std::iter::from_fn(move || {
                    let node = self.nodes.get(at as usize)?;
                    at = step(node.marked.expect("a marked node"));
                    Some(node.key)
                });
                keys.collect()
            };
            let forward = walk(self.marked.head, |links| links.next);
            let backward = walk(self.marked.tail, |links| links.prev);
            (forward, backward)
        }
    }

    #[derive(Clone, Debug)]
    enum Op {
        Touch(u64),
        Remove(u64),
        Pop,
        Mark(u64),
        Unmark(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Few keys, so sequences re-touch, remove and re-insert them, and
        // marks land on keys touched long ago, just now and never.
        prop_oneof![
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Touch),
            (0u64..24).prop_map(Op::Remove),
            Just(Op::Pop),
            (0u64..24).prop_map(Op::Mark),
            (0u64..24).prop_map(Op::Mark),
            (0u64..24).prop_map(Op::Unmark),
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
                    Op::Mark(i) => {
                        lru.mark(k(i));
                        reference.mark(k(i));
                    }
                    Op::Unmark(i) => {
                        lru.unmark(k(i));
                        reference.marks.remove(&k(i));
                    }
                }
                // The marked keys are the marked sub-sequence of the order,
                // whichever way their links are followed.
                let marked: Vec<ObjectKey> = reference.marked().collect();
                prop_assert_eq!(lru.first_marked(), marked.first().copied());
                let (forward, mut backward) = lru.marked_both_ways();
                backward.reverse();
                prop_assert_eq!(&forward, &marked);
                prop_assert_eq!(&backward, &marked);
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
    fn a_mark_stays_where_the_key_stands_until_a_touch_moves_both() {
        let mut lru = LruList::new();
        for i in 0..5 {
            lru.touch(k(i));
        }
        // Marks without touches, in no particular order.
        lru.mark(k(3));
        lru.mark(k(1));
        lru.mark(k(4));
        lru.mark(k(9)); // not tracked
        assert_eq!(lru.marked_both_ways().0, [k(1), k(3), k(4)]);
        // A touch of an unmarked key moves no mark; of a marked one, its own.
        lru.touch(k(0));
        assert_eq!(lru.first_marked(), Some(k(1)));
        lru.touch(k(1));
        assert_eq!(lru.marked_both_ways().0, [k(3), k(4), k(1)]);
        lru.mark(k(0)); // between 4 and 1
        assert_eq!(lru.marked_both_ways().0, [k(3), k(4), k(0), k(1)]);
        // The marked head goes: unmarked, removed, popped.
        lru.unmark(k(3));
        assert_eq!(lru.first_marked(), Some(k(4)));
        assert!(lru.contains(k(3)));
        assert!(lru.remove(k(4)));
        assert_eq!(lru.first_marked(), Some(k(0)));
        assert_eq!(lru.pop_least_recent(), Some(k(2)));
        assert_eq!(lru.pop_least_recent(), Some(k(3)));
        assert_eq!(lru.pop_least_recent(), Some(k(0)));
        assert_eq!(lru.first_marked(), Some(k(1)));
        // A reused slot starts unmarked.
        lru.touch(k(7));
        assert_eq!(lru.marked_both_ways().0, [k(1)]);
        lru.unmark(k(1));
        assert_eq!(lru.first_marked(), None);
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
