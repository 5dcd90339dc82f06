//! Property tests: random operation sequences against the cache manager
//! must preserve its bookkeeping invariants.

use proptest::prelude::*;
use reo_cache::{CacheConfig, CacheManager};
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
use reo_sim::ByteSize;

fn key(i: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
}

#[derive(Clone, Debug)]
enum Op {
    Insert {
        slot: u64,
        size_kib: u64,
        dirty: bool,
    },
    Access {
        slot: u64,
    },
    MarkDirty {
        slot: u64,
    },
    MarkClean {
        slot: u64,
    },
    Remove {
        slot: u64,
    },
    Refresh,
    EvictLru,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..24, 1u64..512, any::<bool>()).prop_map(|(slot, size_kib, dirty)| Op::Insert {
            slot,
            size_kib,
            dirty
        }),
        (0u64..24).prop_map(|slot| Op::Access { slot }),
        (0u64..24).prop_map(|slot| Op::MarkDirty { slot }),
        (0u64..24).prop_map(|slot| Op::MarkClean { slot }),
        (0u64..24).prop_map(|slot| Op::Remove { slot }),
        Just(Op::Refresh),
        Just(Op::EvictLru),
    ]
}

fn check_invariants(m: &CacheManager) -> Result<(), TestCaseError> {
    // used_bytes equals the sum of entry sizes; dirty_bytes the dirty sum.
    let mut used = ByteSize::ZERO;
    let mut dirty = ByteSize::ZERO;
    let mut count = 0usize;
    for (k, _class) in m.classes() {
        let e = m.entry(k).expect("classes() lists live entries");
        used += e.size();
        if e.is_dirty() {
            dirty += e.size();
        }
        count += 1;
    }
    prop_assert_eq!(m.used_bytes(), used, "used bookkeeping drifted");
    prop_assert_eq!(m.dirty_bytes(), dirty, "dirty bookkeeping drifted");
    prop_assert_eq!(m.len(), count);
    // LRU agrees with the index.
    let lru: Vec<ObjectKey> = m.lru_iter().collect();
    prop_assert_eq!(lru.len(), count, "LRU membership drifted");
    for &k in &lru {
        prop_assert!(m.contains(k));
    }
    // The flusher's next victim is the one a scan from the cold end finds.
    let is_dirty = |k: &&ObjectKey| m.entry(**k).expect("listed").is_dirty();
    prop_assert_eq!(m.first_dirty(), lru.iter().find(is_dirty).copied());
    // Dirty entries are exactly class 1 (unless metadata).
    for (k, class) in m.classes() {
        let e = m.entry(k).expect("live");
        if e.is_metadata() {
            prop_assert_eq!(class, ObjectClass::Metadata);
        } else if e.is_dirty() {
            prop_assert_eq!(class, ObjectClass::Dirty, "dirty entry mislabelled");
        } else {
            prop_assert!(class == ObjectClass::HotClean || class == ObjectClass::ColdClean);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn random_ops_preserve_bookkeeping(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let mut m = CacheManager::new(CacheConfig {
            capacity: ByteSize::from_mib(16),
            redundancy_reserve: 0.20,
            hot_parity_overhead: CacheConfig::two_parity_overhead(5),
            size_aware_hotness: true,
        });
        for op in ops {
            match op {
                Op::Insert { slot, size_kib, dirty } => {
                    m.insert(key(slot), ByteSize::from_kib(size_kib), dirty, false);
                }
                Op::Access { slot } => {
                    let _ = m.record_access(key(slot));
                }
                Op::MarkDirty { slot } => {
                    let _ = m.mark_dirty(key(slot));
                }
                Op::MarkClean { slot } => {
                    let _ = m.mark_clean(key(slot));
                }
                Op::Remove { slot } => {
                    let _ = m.remove(key(slot));
                }
                Op::Refresh => {
                    let _ = m.refresh_classification();
                }
                Op::EvictLru => {
                    if let Some(v) = m.lru_victim() {
                        m.remove(v);
                    }
                }
            }
            check_invariants(&m)?;
        }
    }

    /// The adaptive threshold never classifies more parity than the
    /// budget allows (within one object's overshoot).
    #[test]
    fn threshold_respects_budget(
        sizes in proptest::collection::vec(1u64..256, 1..40),
        accesses in proptest::collection::vec(0u64..20, 1..40),
        reserve in 0.01f64..0.5,
    ) {
        let capacity = ByteSize::from_mib(8);
        let overhead = CacheConfig::two_parity_overhead(5);
        let mut m = CacheManager::new(CacheConfig {
            capacity,
            redundancy_reserve: reserve,
            hot_parity_overhead: overhead,
            size_aware_hotness: true,
        });
        for (i, (&s, &a)) in sizes.iter().zip(accesses.iter().cycle()).enumerate() {
            m.insert(key(i as u64), ByteSize::from_kib(s), false, false);
            for _ in 0..a {
                m.record_access(key(i as u64));
            }
        }
        m.refresh_classification();
        let hot_bytes: u64 = m
            .classes()
            .filter(|(_, c)| *c == ObjectClass::HotClean)
            .map(|(k, _)| m.entry(k).expect("live").size().as_bytes())
            .sum();
        let budget = capacity.as_bytes() as f64 * reserve;
        let max_object = 256.0 * 1024.0;
        prop_assert!(
            hot_bytes as f64 * overhead <= budget + max_object * overhead,
            "hot parity {} exceeds budget {}",
            hot_bytes as f64 * overhead,
            budget
        );
    }

    /// LRU eviction order is exactly access-recency order when recency is
    /// distinct.
    #[test]
    fn eviction_order_is_recency(perm in Just(()).prop_perturb(|_, mut rng| {
        use proptest::prelude::RngCore;
        let mut v: Vec<u64> = (0..12).collect();
        for i in (1..v.len()).rev() {
            let j = (rng.next_u32() as usize) % (i + 1);
            v.swap(i, j);
        }
        v
    })) {
        let mut m = CacheManager::new(CacheConfig {
            capacity: ByteSize::from_mib(16),
            redundancy_reserve: 0.1,
            hot_parity_overhead: 0.5,
            size_aware_hotness: true,
        });
        for i in 0..12u64 {
            m.insert(key(i), ByteSize::from_kib(4), false, false);
        }
        for &i in &perm {
            m.record_access(key(i));
        }
        // Victims come out in exactly `perm` order.
        for &expected in &perm {
            let v = m.lru_victim().expect("non-empty");
            prop_assert_eq!(v, key(expected));
            m.remove(v);
        }
        prop_assert!(m.is_empty());
    }
}
