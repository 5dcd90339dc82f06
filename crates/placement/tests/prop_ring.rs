//! Property tests for the placement ring: balance, minimal movement,
//! exact reversibility, and seed determinism.

use proptest::prelude::*;
use reo_osd::{ObjectId, ObjectKey, PartitionId};
use reo_placement::{ParityGroupMap, PlacementRing, TargetId};

fn key(i: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
}

fn keyset(count: u64, stride: u64) -> Vec<ObjectKey> {
    (0..count).map(|i| key(1 + i * stride)).collect()
}

fn ring_of(seed: u64, targets: usize) -> PlacementRing {
    let mut ring = PlacementRing::new(seed);
    for t in 0..targets {
        ring.add_target(TargetId(t));
    }
    ring
}

proptest! {
    /// Balance at 16 targets: with the default vnode count, the busiest
    /// target's share of a large uniform keyspace stays within a small
    /// constant factor of the idlest target's.
    #[test]
    fn sixteen_target_shares_are_balanced(seed in 0u64..1 << 48, stride in 1u64..64) {
        let ring = ring_of(seed, 16);
        let keys = keyset(8192, stride);
        let shares = ring.shares(keys.iter().copied());
        prop_assert_eq!(shares.len(), 16, "every target owns part of the keyspace");
        let max = *shares.values().max().unwrap();
        let min = *shares.values().min().unwrap();
        prop_assert!(min > 0, "a starved target means broken vnode spreading");
        // Ideal share is 512 keys; the consistent-hash spread with 96
        // vnodes stays comfortably within 3x max/min in practice.
        prop_assert!(
            max <= min * 3,
            "imbalance beyond bound: max={} min={} shares={:?}", max, min, shares
        );
    }

    /// Minimal movement: adding one target to an N-target ring remaps
    /// roughly 1/(N+1) of keys — never more than that plus slack — and
    /// every moved key lands on the newcomer.
    #[test]
    fn adding_a_target_moves_few_keys(seed in 0u64..1 << 48, n in 1usize..12) {
        let before = ring_of(seed, n);
        let mut after = before.clone();
        after.add_target(TargetId(n));
        let keys = keyset(4096, 3);
        let moved = after.remapped(&before, keys.iter().copied());
        for k in &moved {
            prop_assert_eq!(
                after.target_of(*k), Some(TargetId(n)),
                "a key moved between two surviving targets"
            );
        }
        // Expected fraction 1/(N+1); allow generous sampling slack (2x + 64)
        // so the bound stays meaningful while never flaking.
        let bound = (2 * keys.len()) / (n + 1) + 64;
        prop_assert!(
            moved.len() <= bound,
            "add moved {} of {} keys (N={} bound={})", moved.len(), keys.len(), n, bound
        );
    }

    /// Exact reversibility: removing the target just added restores the
    /// *identical* prior mapping for every key, because no surviving
    /// vnode ever changes position.
    #[test]
    fn removing_a_target_restores_the_prior_map(seed in 0u64..1 << 48, n in 1usize..12) {
        let before = ring_of(seed, n);
        let mut ring = before.clone();
        ring.add_target(TargetId(n));
        ring.remove_target(TargetId(n));
        let keys = keyset(4096, 5);
        prop_assert_eq!(ring.targets(), before.targets());
        for k in keys {
            prop_assert_eq!(
                ring.target_of(k), before.target_of(k),
                "mapping not restored after add+remove round trip"
            );
        }
    }

    /// Replica sets are always pairwise-distinct targets, start at the
    /// primary owner, and saturate at ring membership.
    #[test]
    fn replica_sets_are_pairwise_distinct(
        seed in 0u64..1 << 48,
        n in 1usize..10,
        factor in 1usize..5,
        stride in 1u64..32,
    ) {
        let ring = ring_of(seed, n);
        for k in keyset(512, stride) {
            let set = ring.replicas_of(k, factor);
            prop_assert_eq!(set.len(), factor.min(n));
            prop_assert_eq!(set[0], ring.target_of(k).unwrap());
            let mut sorted = set.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), set.len(), "duplicate target in replica set {:?}", set);
        }
    }

    /// Minimal replica movement: a single join only ever *inserts* the
    /// newcomer into a key's replica set (survivors keep their relative
    /// order and no key swaps one old target for another), and the
    /// matching leave restores every replica set exactly.
    #[test]
    fn single_join_changes_minimal_replica_assignments(
        seed in 0u64..1 << 48,
        n in 2usize..10,
        factor in 1usize..4,
    ) {
        let before = ring_of(seed, n);
        let mut after = before.clone();
        after.add_target(TargetId(n));
        let keys = keyset(1024, 3);
        for k in keys.iter().copied() {
            let old = before.replicas_of(k, factor);
            let new = after.replicas_of(k, factor);
            // Survivors that remain in the set keep their relative order,
            // and every member dropped or added is explained by the
            // newcomer pushing the walk along — so the only legal change
            // is "newcomer inserted, tail member displaced".
            let new_without: Vec<TargetId> =
                new.iter().copied().filter(|t| *t != TargetId(n)).collect();
            prop_assert!(
                new_without.iter().zip(old.iter()).all(|(a, b)| a == b),
                "join reordered surviving replicas: old={:?} new={:?}", old, new
            );
            if !new.contains(&TargetId(n)) {
                prop_assert_eq!(
                    &new, &old,
                    "replica set changed without involving the newcomer"
                );
            }
        }
        // Exact reversal extends to replica sets.
        after.remove_target(TargetId(n));
        for k in keys {
            prop_assert_eq!(after.replicas_of(k, factor), before.replicas_of(k, factor));
        }
    }

    /// A replica set written into a caller's buffer is the returned one,
    /// whatever the buffer held: every `n` up to past the membership, on
    /// an empty ring, after a join and after a leave, one buffer reused
    /// throughout.
    #[test]
    fn replicas_into_a_used_buffer_equals_replicas_of(
        seed in 0u64..1 << 48,
        members in 1usize..8,
        stride in 1u64..32,
    ) {
        let mut ring = ring_of(seed, members);
        let mut joined = ring.clone();
        joined.add_target(TargetId(members));
        let empty = PlacementRing::new(seed);
        ring.remove_target(TargetId(members / 2));
        let mut buf = vec![TargetId(usize::MAX); 5];
        for k in keyset(64, stride) {
            for n in 0..=members + 2 {
                for r in [&empty, &joined, &ring] {
                    r.replicas_into(k, n, &mut buf);
                    prop_assert_eq!(&buf, &r.replicas_of(k, n), "n = {}", n);
                    buf.push(TargetId(usize::MAX));
                }
            }
        }
    }

    /// Parity groups are distinct-target and cover every member: each
    /// target is in exactly one group, no group lists a target twice,
    /// and no group exceeds the k+m width.
    #[test]
    fn parity_groups_are_distinct_and_cover_all_targets(
        seed in 0u64..1 << 48,
        data in 1usize..6,
        parity in 0usize..4,
        n in 1usize..24,
    ) {
        let mut map = ParityGroupMap::new(seed, data, parity);
        for t in 0..n {
            map.add_target(TargetId(t));
        }
        prop_assert_eq!(map.len(), n);
        let expected: Vec<TargetId> = (0..n).map(TargetId).collect();
        prop_assert_eq!(map.targets(), expected, "groups must cover every target exactly once");
        let mut seen = 0usize;
        for g in map.groups() {
            prop_assert!(!g.is_empty());
            prop_assert!(g.len() <= data + parity, "group wider than k+m: {:?}", g);
            let mut sorted = g.clone();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), g.len(), "duplicate target in group {:?}", g);
            seen += g.len();
        }
        prop_assert_eq!(seen, n);
        for t in 0..n {
            let t = TargetId(t);
            let gid = map.group_of(t).unwrap();
            prop_assert!(map.members(gid).contains(&t));
        }
    }

    /// Minimal movement: a single join or leave only remaps the one
    /// group that gains or loses the changed target — every other
    /// group's member list (and shard order) is byte-identical.
    #[test]
    fn parity_join_and_leave_touch_only_one_group(
        seed in 0u64..1 << 48,
        data in 1usize..6,
        parity in 0usize..4,
        n in 2usize..20,
        victim in 0usize..20,
    ) {
        let victim = TargetId(victim % n);
        let mut before = ParityGroupMap::new(seed, data, parity);
        for t in 0..n {
            before.add_target(TargetId(t));
        }

        // Join: the newcomer lands in exactly one group; all groups it
        // is absent from match the prior map exactly.
        let mut joined = before.clone();
        prop_assert!(joined.add_target(TargetId(n)));
        let gained = joined.group_of(TargetId(n)).unwrap();
        for gid in 0..joined.groups().len().max(before.groups().len()) {
            if gid == gained {
                let without: Vec<TargetId> = joined
                    .members(gid)
                    .iter()
                    .copied()
                    .filter(|&t| t != TargetId(n))
                    .collect();
                prop_assert_eq!(
                    without.as_slice(), before.members(gid),
                    "join reshuffled survivors inside the gaining group"
                );
            } else {
                prop_assert_eq!(
                    joined.members(gid), before.members(gid),
                    "join disturbed unrelated group {}", gid
                );
            }
        }

        // Leave: only the victim's group shrinks; every other group's
        // member list (and shard order) is byte-identical.
        let hit = before.group_of(victim).unwrap();
        let mut left = before.clone();
        prop_assert!(left.remove_target(victim));
        for gid in 0..before.groups().len() {
            if gid == hit {
                let without: Vec<TargetId> = before
                    .members(gid)
                    .iter()
                    .copied()
                    .filter(|&t| t != victim)
                    .collect();
                prop_assert_eq!(
                    left.members(gid), without.as_slice(),
                    "leave reshuffled survivors inside the losing group"
                );
            } else {
                prop_assert_eq!(
                    left.members(gid), before.members(gid),
                    "leave disturbed unrelated group {}", gid
                );
            }
        }
    }

    /// Same seed + op sequence → identical parity maps; a different
    /// seed shuffles assignment for enough targets to matter.
    #[test]
    fn parity_map_seed_determinism(seed in 0u64..1 << 48) {
        let build = |s: u64| {
            let mut map = ParityGroupMap::new(s, 3, 2);
            for t in 0..17 {
                map.add_target(TargetId(t));
            }
            map.remove_target(TargetId(5));
            map.add_target(TargetId(17));
            map
        };
        prop_assert_eq!(build(seed), build(seed), "same seed and ops must agree");
        let other = build(seed ^ 0x5bd1_e995);
        let same = build(seed);
        let differs = (0..17).filter(|&t| t != 5).any(|t| {
            let t = TargetId(t);
            same.members(same.group_of(t).unwrap()) != other.members(other.group_of(t).unwrap())
        });
        prop_assert!(differs, "a different seed should produce a different grouping");
    }

    /// Same seed + membership → same map; a different seed shuffles it.
    #[test]
    fn seed_determines_the_map(seed in 0u64..1 << 48) {
        let a = ring_of(seed, 6);
        let b = ring_of(seed, 6);
        let other = ring_of(seed ^ 0x5bd1_e995, 6);
        let keys = keyset(1024, 7);
        let mut differs = 0usize;
        for k in keys {
            prop_assert_eq!(a.target_of(k), b.target_of(k), "same seed must agree");
            if a.target_of(k) != other.target_of(k) {
                differs += 1;
            }
        }
        prop_assert!(differs > 0, "a different seed should produce a different map");
    }
}
