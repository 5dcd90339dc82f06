#![warn(missing_docs)]
//! `reo-placement`: the deterministic placement layer for multi-target
//! scale-out.
//!
//! A [`PlacementRing`] is a seeded consistent-hash ring (cluster map)
//! that assigns every [`ObjectKey`] to exactly one [`TargetId`]. Each
//! target owns a fixed set of virtual nodes whose ring positions are a
//! pure function of `(seed, target, vnode)`, which gives the ring the
//! three properties the cluster layer builds on:
//!
//! * **Determinism** — two rings built with the same seed and the same
//!   membership produce byte-identical mappings, on any host, in any
//!   membership order. Experiments and chaos schedules replay exactly.
//! * **Minimal movement** — adding a target remaps approximately
//!   `1/N` of the keyspace (only keys whose nearest-successor vnode now
//!   belongs to the newcomer move); removing it restores the *exact*
//!   prior mapping, because every other target's vnodes never moved.
//! * **Balance** — with the default vnode count the max/min share
//!   spread across 16 targets stays within a small constant factor, so
//!   no target becomes a capacity or blast-radius hot spot.
//!
//! The ring is membership-only: it knows nothing about target health.
//! The cluster layer consults its own health view and serves a downed
//! target's range backend-first rather than remapping it — failure is
//! not membership change, so a returning target finds its range intact.
//!
//! # Examples
//!
//! ```
//! use reo_osd::{ObjectId, ObjectKey, PartitionId};
//! use reo_placement::{PlacementRing, TargetId};
//!
//! let mut ring = PlacementRing::new(7);
//! for t in 0..4 {
//!     ring.add_target(TargetId(t));
//! }
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20001));
//! let owner = ring.target_of(key).unwrap();
//! assert!(owner.0 < 4);
//!
//! // Same seed + membership => same mapping, regardless of join order.
//! let mut again = PlacementRing::new(7);
//! for t in [2, 0, 3, 1] {
//!     again.add_target(TargetId(t));
//! }
//! assert_eq!(again.target_of(key), Some(owner));
//! ```

use std::collections::BTreeMap;

use reo_osd::ObjectKey;

/// Identifies one OSD target (cache node) in a cluster. Targets are
/// numbered densely from zero in join order; a removed target's id is
/// never reused within one cluster lifetime.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TargetId(pub usize);

impl std::fmt::Display for TargetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Virtual nodes per target. 96 vnodes keep the max/min key-share
/// spread at 16 targets within ~2x while add/remove stays cheap
/// (a 16-target ring has 1,536 points).
pub const DEFAULT_VNODES: usize = 96;

/// SplitMix64: the avalanche mixer the ring's positions are derived
/// from. Public so tests and the cluster layer can derive compatible
/// per-target seeds from one experiment seed.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One point on the ring: a vnode position plus its owner. Ordered by
/// position with `(target, vnode)` as the deterministic tie-break, so
/// hash collisions cannot make the mapping depend on insertion order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RingPoint {
    position: u64,
    target: TargetId,
    vnode: u32,
}

/// The seeded consistent-hash ring (see the crate docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlacementRing {
    seed: u64,
    points: Vec<RingPoint>,
    epoch: u64,
}

impl PlacementRing {
    /// An empty ring with [`DEFAULT_VNODES`] virtual nodes per target.
    pub fn new(seed: u64) -> Self {
        PlacementRing {
            seed,
            points: Vec::new(),
            epoch: 0,
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Membership-change counter: bumped by every successful
    /// [`PlacementRing::add_target`] / [`PlacementRing::remove_target`].
    /// Two rings with equal seed and epoch history hold equal maps.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of member targets.
    pub fn len(&self) -> usize {
        self.points.len() / DEFAULT_VNODES
    }

    /// `true` when no target is a member.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Member targets in ascending id order.
    pub fn targets(&self) -> Vec<TargetId> {
        let mut out: Vec<TargetId> = self.points.iter().map(|p| p.target).collect();
        out.sort();
        out.dedup();
        out
    }

    /// `true` if `target` is a member.
    pub fn contains(&self, target: TargetId) -> bool {
        self.points.iter().any(|p| p.target == target)
    }

    fn position_of(&self, target: TargetId, vnode: u32) -> u64 {
        mix64(self.seed ^ mix64(((target.0 as u64) << 20) | vnode as u64))
    }

    /// Adds a target's vnodes to the ring. Returns `false` (and leaves
    /// the ring untouched) if the target is already a member.
    pub fn add_target(&mut self, target: TargetId) -> bool {
        if self.contains(target) {
            return false;
        }
        for vnode in 0..DEFAULT_VNODES as u32 {
            let point = RingPoint {
                position: self.position_of(target, vnode),
                target,
                vnode,
            };
            let at = self.points.partition_point(|p| *p < point);
            self.points.insert(at, point);
        }
        self.epoch += 1;
        true
    }

    /// Removes a target's vnodes. Because every other point keeps its
    /// position, the surviving mapping is *exactly* the pre-add one.
    /// Returns `false` if the target was not a member.
    pub fn remove_target(&mut self, target: TargetId) -> bool {
        let before = self.points.len();
        self.points.retain(|p| p.target != target);
        if self.points.len() == before {
            return false;
        }
        self.epoch += 1;
        true
    }

    /// The ring position a key hashes to.
    pub fn key_position(&self, key: ObjectKey) -> u64 {
        mix64(self.seed ^ mix64(key.pid().as_u64()).rotate_left(32) ^ mix64(key.oid().as_u64()))
    }

    /// The target owning `key`: the first vnode at or clockwise-after
    /// the key's position (wrapping). `None` on an empty ring.
    pub fn target_of(&self, key: ObjectKey) -> Option<TargetId> {
        if self.points.is_empty() {
            return None;
        }
        let position = self.key_position(key);
        let at = self.points.partition_point(|p| p.position < position);
        let point = self.points.get(at).unwrap_or(&self.points[0]);
        Some(point.target)
    }

    /// The replica set for `key`: up to `n` pairwise-distinct targets,
    /// collected by continuing the successor walk clockwise past the
    /// owning vnode and keeping the first vnode of each not-yet-seen
    /// target. The first element always equals
    /// [`PlacementRing::target_of`]; if the ring has fewer than `n`
    /// members the walk stops early, so `len == min(n, members)`.
    ///
    /// Because vnode positions are a pure function of
    /// `(seed, target, vnode)` and never move, replica sets inherit the
    /// ring's exact-reversal property: removing a target and re-adding
    /// it restores every replica set bit-for-bit. A join inserts the
    /// newcomer into (some) walks without reordering the survivors, so
    /// a single membership change touches only the minimal set of
    /// replica assignments.
    pub fn replicas_of(&self, key: ObjectKey, n: usize) -> Vec<TargetId> {
        let mut out = Vec::new();
        self.replicas_into(key, n, &mut out);
        out
    }

    /// [`PlacementRing::replicas_of`] into a buffer the caller keeps:
    /// `out` is cleared and then holds the replica set, so a buffer
    /// reused across calls stops allocating once it has held the widest
    /// set asked for.
    pub fn replicas_into(&self, key: ObjectKey, n: usize, out: &mut Vec<TargetId>) {
        out.clear();
        if self.points.is_empty() || n == 0 {
            return;
        }
        let members = self.len();
        let want = n.min(members);
        let position = self.key_position(key);
        let start = self.points.partition_point(|p| p.position < position);
        for step in 0..self.points.len() {
            let point = &self.points[(start + step) % self.points.len()];
            if !out.contains(&point.target) {
                out.push(point.target);
                if out.len() == want {
                    break;
                }
            }
        }
    }

    /// Key counts per target over an arbitrary key set (the balance
    /// metric the proptests and the scale-out report use).
    pub fn shares<I: IntoIterator<Item = ObjectKey>>(&self, keys: I) -> BTreeMap<TargetId, usize> {
        let mut out: BTreeMap<TargetId, usize> =
            self.targets().into_iter().map(|t| (t, 0)).collect();
        for key in keys {
            if let Some(t) = self.target_of(key) {
                *out.entry(t).or_default() += 1;
            }
        }
        out
    }

    /// The keys (of the given set) whose owner differs between `self`
    /// and `other` — the migration work a membership delta implies.
    pub fn remapped<I: IntoIterator<Item = ObjectKey>>(
        &self,
        other: &PlacementRing,
        keys: I,
    ) -> Vec<ObjectKey> {
        keys.into_iter()
            .filter(|&k| self.target_of(k) != other.target_of(k))
            .collect()
    }
}

/// A seeded partition of cluster targets into parity groups of
/// `data + parity` members each (`k` data + `m` parity shards per
/// stripe). The map gives the cluster's erasure-coded protection mode
/// the same three properties the ring gives placement:
///
/// * **Distinct targets, full coverage** — every member target belongs
///   to exactly one group, and a group never lists a target twice, so
///   a stripe's shards land on pairwise-distinct fault domains.
/// * **Minimal movement** — a single join or leave changes *only* the
///   one group that gains or loses the changed target; every other
///   group's member list is untouched, so their stripes stay valid and
///   repair work is contained to the affected group (the group-local
///   repair property of Koh et al.).
/// * **Determinism** — group choice and intra-group shard order are
///   pure functions of `(seed, group, target)`, so equal seeds and
///   equal membership histories produce byte-identical maps.
///
/// Joins fill the emptiest eligible group first (seeded hash as the
/// tie-break) and only open a new group when every existing one is
/// full; leaves shrink the member's group in place. A group with fewer
/// than `data + parity` members still works, at reduced tolerance: a
/// stripe needs `data` surviving members, so a group of `w` members
/// tolerates `w - data` outages (zero or negative ⇒ no protection —
/// honest, never inflated).
///
/// Like the ring, the map is membership-only: failure is not a
/// membership change, so a downed target keeps its group slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParityGroupMap {
    seed: u64,
    data: usize,
    parity: usize,
    /// Member lists per group, each kept in seeded shard order. Groups
    /// are never deleted (an emptied group is refilled by later joins),
    /// so a group's index is a stable identity.
    groups: Vec<Vec<TargetId>>,
}

impl ParityGroupMap {
    /// An empty map for groups of `data + parity` targets.
    ///
    /// # Panics
    ///
    /// Panics if `data` is zero (a stripe needs at least one data
    /// shard).
    pub fn new(seed: u64, data: usize, parity: usize) -> Self {
        assert!(data > 0, "a parity group needs at least one data shard");
        ParityGroupMap {
            seed,
            data,
            parity,
            groups: Vec::new(),
        }
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Data shards per group (`k`).
    pub fn data_shards(&self) -> usize {
        self.data
    }

    /// Parity shards per group (`m`).
    pub fn parity_shards(&self) -> usize {
        self.parity
    }

    /// Full group width (`k + m`).
    pub fn width(&self) -> usize {
        self.data + self.parity
    }

    /// Number of member targets.
    pub fn len(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    /// `true` when no target is a member.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` if `target` is a member.
    pub fn contains(&self, target: TargetId) -> bool {
        self.group_of(target).is_some()
    }

    /// Member targets in ascending id order.
    pub fn targets(&self) -> Vec<TargetId> {
        let mut out: Vec<TargetId> = self.groups.iter().flatten().copied().collect();
        out.sort();
        out
    }

    /// Non-empty groups, each member list in seeded shard order (the
    /// first [`ParityGroupMap::data_shards`] members hold data shards,
    /// the rest parity).
    pub fn groups(&self) -> Vec<Vec<TargetId>> {
        self.groups
            .iter()
            .filter(|g| !g.is_empty())
            .cloned()
            .collect()
    }

    /// The group index `target` belongs to, if a member. Group indices
    /// are stable across joins and leaves of *other* targets.
    pub fn group_of(&self, target: TargetId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&target))
    }

    /// Members of group `group` in seeded shard order; empty for
    /// out-of-range or emptied groups.
    pub fn members(&self, group: usize) -> &[TargetId] {
        self.groups.get(group).map_or(&[], Vec::as_slice)
    }

    /// Concurrent outages group `group` tolerates while still serving
    /// its members' ranges by reconstruction: a stripe needs
    /// [`ParityGroupMap::data_shards`] surviving members, so a group of
    /// `w` members tolerates `w - data` (clamped at zero — a short
    /// group is honestly unprotected, never over-promised).
    pub fn tolerance_of(&self, group: usize) -> usize {
        self.members(group).len().saturating_sub(self.data)
    }

    /// The seeded intra-group order position of `target` in `group` —
    /// shard order is a pure function of `(seed, group, target)`, with
    /// the id as tie-break.
    fn shard_position(&self, group: usize, target: TargetId) -> (u64, usize) {
        (
            mix64(self.seed ^ mix64(group as u64).rotate_left(32) ^ mix64(target.0 as u64)),
            target.0,
        )
    }

    /// Joins `target`: it enters the *emptiest* group with a free slot
    /// (seeded hash breaks ties), or opens a new group when every
    /// existing one is full. Exactly one group changes. Returns `false`
    /// (map untouched) if the target is already a member.
    pub fn add_target(&mut self, target: TargetId) -> bool {
        if self.contains(target) {
            return false;
        }
        let width = self.width();
        let chosen = self
            .groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.len() < width)
            .min_by_key(|&(gid, g)| (g.len(), self.shard_position(gid, target)))
            .map(|(gid, _)| gid);
        let gid = match chosen {
            Some(gid) => gid,
            None => {
                self.groups.push(Vec::with_capacity(width));
                self.groups.len() - 1
            }
        };
        let pos = self.shard_position(gid, target);
        let at = self.groups[gid].partition_point(|&t| self.shard_position(gid, t) < pos);
        self.groups[gid].insert(at, target);
        true
    }

    /// Leaves `target`: its group shrinks in place; every other group
    /// is untouched (the emptied slot is refilled by a later join).
    /// Returns `false` if the target was not a member.
    pub fn remove_target(&mut self, target: TargetId) -> bool {
        match self.group_of(target) {
            Some(gid) => {
                self.groups[gid].retain(|&t| t != target);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_osd::{ObjectId, PartitionId};

    fn key(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    fn ring_of(seed: u64, n: usize) -> PlacementRing {
        let mut ring = PlacementRing::new(seed);
        for t in 0..n {
            ring.add_target(TargetId(t));
        }
        ring
    }

    #[test]
    fn empty_ring_maps_nothing() {
        let ring = PlacementRing::new(1);
        assert!(ring.is_empty());
        assert_eq!(ring.len(), 0);
        assert_eq!(ring.target_of(key(1)), None);
    }

    #[test]
    fn single_target_owns_everything() {
        let ring = ring_of(3, 1);
        for i in 0..200 {
            assert_eq!(ring.target_of(key(i)), Some(TargetId(0)));
        }
    }

    #[test]
    fn membership_order_does_not_matter() {
        let a = ring_of(9, 8);
        let mut b = PlacementRing::new(9);
        for t in [5, 1, 7, 0, 3, 6, 2, 4] {
            b.add_target(TargetId(t));
        }
        for i in 0..500 {
            assert_eq!(a.target_of(key(i)), b.target_of(key(i)));
        }
    }

    #[test]
    fn duplicate_add_and_absent_remove_are_rejected() {
        let mut ring = ring_of(2, 2);
        let epoch = ring.epoch();
        assert!(!ring.add_target(TargetId(1)));
        assert!(!ring.remove_target(TargetId(9)));
        assert_eq!(
            ring.epoch(),
            epoch,
            "rejected changes must not bump the epoch"
        );
        assert!(ring.remove_target(TargetId(1)));
        assert_eq!(ring.epoch(), epoch + 1);
        assert_eq!(ring.targets(), vec![TargetId(0)]);
    }

    #[test]
    fn shares_cover_every_key_exactly_once() {
        let ring = ring_of(4, 5);
        let shares = ring.shares((0..1000).map(key));
        assert_eq!(shares.values().sum::<usize>(), 1000);
        assert_eq!(shares.len(), 5);
        assert!(shares.values().all(|&n| n > 0), "shares = {shares:?}");
    }

    #[test]
    fn replica_sets_start_at_the_owner_and_are_distinct() {
        let ring = ring_of(11, 6);
        for i in 0..400 {
            let k = key(i);
            let set = ring.replicas_of(k, 3);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], ring.target_of(k).unwrap());
            let mut sorted = set.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), set.len(), "duplicate target in {set:?}");
        }
    }

    #[test]
    fn replica_sets_saturate_at_membership() {
        let ring = ring_of(5, 2);
        let set = ring.replicas_of(key(7), 4);
        assert_eq!(set.len(), 2, "cannot place more replicas than targets");
        assert!(ring.replicas_of(key(7), 0).is_empty());
        assert!(PlacementRing::new(1).replicas_of(key(7), 2).is_empty());
    }

    #[test]
    fn replica_sets_reverse_exactly_on_leave() {
        let before = ring_of(8, 5);
        let mut ring = before.clone();
        ring.add_target(TargetId(5));
        ring.remove_target(TargetId(5));
        for i in 0..300 {
            assert_eq!(ring.replicas_of(key(i), 3), before.replicas_of(key(i), 3));
        }
    }

    #[test]
    fn remapped_reports_only_the_moved_keys() {
        let before = ring_of(6, 4);
        let mut after = before.clone();
        after.add_target(TargetId(4));
        let keys: Vec<ObjectKey> = (0..800).map(key).collect();
        let moved = after.remapped(&before, keys.iter().copied());
        assert!(!moved.is_empty());
        // Every moved key now belongs to the newcomer; nothing else moved.
        for k in &moved {
            assert_eq!(after.target_of(*k), Some(TargetId(4)));
        }
    }

    fn groups_of(seed: u64, data: usize, parity: usize, n: usize) -> ParityGroupMap {
        let mut map = ParityGroupMap::new(seed, data, parity);
        for t in 0..n {
            map.add_target(TargetId(t));
        }
        map
    }

    #[test]
    fn parity_groups_partition_the_targets() {
        let map = groups_of(9, 3, 2, 13);
        assert_eq!(map.len(), 13);
        assert_eq!(map.width(), 5);
        let all: Vec<TargetId> = (0..13).map(TargetId).collect();
        assert_eq!(map.targets(), all);
        for g in map.groups() {
            assert!(g.len() <= map.width());
            let mut sorted = g.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), g.len(), "duplicate target in group {g:?}");
        }
        // 13 targets at width 5 fill groups before opening new ones:
        // no more than ceil(13/5) = 3 groups exist.
        assert_eq!(map.groups().len(), 3);
    }

    #[test]
    fn parity_group_tolerance_is_honest_for_short_groups() {
        let mut map = ParityGroupMap::new(4, 3, 2);
        for t in 0..4 {
            map.add_target(TargetId(t));
        }
        // One group of 4 members for a k=3 code: tolerance 1, not 2.
        assert_eq!(map.groups().len(), 1);
        assert_eq!(map.tolerance_of(0), 1);
        map.add_target(TargetId(4));
        assert_eq!(map.tolerance_of(0), 2);
        map.remove_target(TargetId(1));
        map.remove_target(TargetId(2));
        assert_eq!(
            map.tolerance_of(0),
            0,
            "a 3-member k=3 group protects nothing"
        );
    }

    #[test]
    fn parity_group_leave_only_touches_the_members_group() {
        let before = groups_of(21, 2, 1, 9);
        let gone = TargetId(4);
        let hit = before.group_of(gone).unwrap();
        let mut after = before.clone();
        assert!(after.remove_target(gone));
        assert!(!after.contains(gone));
        for gid in 0..before.groups.len() {
            if gid == hit {
                continue;
            }
            assert_eq!(
                after.members(gid),
                before.members(gid),
                "group {gid} was disturbed"
            );
        }
        // The rejoin refills the same slot and restores the exact map.
        after.add_target(gone);
        assert_eq!(after, before);
    }
}
