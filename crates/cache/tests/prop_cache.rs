//! Property tests: random operation sequences against the cache manager
//! must preserve its bookkeeping invariants, and every class refresh must
//! match the full stable sort and rescan it replaces.

use proptest::prelude::*;
use reo_cache::{CacheConfig, CacheEntry, CacheManager, ClassChange};
use reo_osd::{ClassifierInputs, ObjectClass, ObjectId, ObjectKey, PartitionId};
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
        metadata: bool,
    },
    Access {
        slot: u64,
        times: u64,
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
    /// A topology change: the budget moves and only the threshold is
    /// recomputed, as `CacheSystem` does after a failure or a spare.
    Retune {
        capacity_mib: u64,
        devices: usize,
    },
}

fn arb_op(size_kib: impl Strategy<Value = u64> + 'static) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..24, size_kib, any::<bool>(), 0u8..8).prop_map(|(slot, size_kib, dirty, m)| {
            Op::Insert {
                slot,
                size_kib,
                dirty,
                metadata: m == 0,
            }
        }),
        (0u64..24, 1u64..6).prop_map(|(slot, times)| Op::Access { slot, times }),
        (0u64..24).prop_map(|slot| Op::MarkDirty { slot }),
        (0u64..24).prop_map(|slot| Op::MarkClean { slot }),
        (0u64..24).prop_map(|slot| Op::Remove { slot }),
        Just(Op::Refresh),
        Just(Op::EvictLru),
        (2u64..24, 3usize..9).prop_map(|(capacity_mib, devices)| Op::Retune {
            capacity_mib,
            devices
        }),
    ]
}

fn apply(m: &mut CacheManager, op: &Op) {
    match *op {
        Op::Insert {
            slot,
            size_kib,
            dirty,
            metadata,
        } => m.insert(key(slot), ByteSize::from_kib(size_kib), dirty, metadata),
        Op::Access { slot, times } => {
            for _ in 0..times {
                let _ = m.record_access(key(slot));
            }
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
        Op::Retune {
            capacity_mib,
            devices,
        } => {
            m.update_topology(
                ByteSize::from_mib(capacity_mib),
                CacheConfig::two_parity_overhead(devices),
            );
            m.recompute_hot_threshold();
        }
    }
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

/// What a refresh should do, worked out the long way from what the manager
/// exposes: every clean candidate stably sorted by descending `H` then key,
/// the sequential budget walk, and a rescan of every entry.
struct ReferenceRefresh {
    changes: Vec<ClassChange>,
    classes: Vec<(ObjectKey, ObjectClass)>,
    promotions: u64,
    demotions: u64,
}

fn reference_refresh(m: &CacheManager) -> ReferenceRefresh {
    let config = *m.config();
    let hotness = |e: &CacheEntry| {
        if config.size_aware_hotness {
            e.hotness()
        } else {
            e.freq() as f64
        }
    };
    let entries: Vec<&CacheEntry> = m
        .classes()
        .map(|(k, _)| m.entry(k).expect("classes() lists live entries"))
        .collect();
    let mut candidates: Vec<(f64, u64, ObjectKey)> = entries
        .iter()
        .filter(|e| !e.is_dirty() && !e.is_metadata() && e.freq() > 0)
        .map(|e| (hotness(e), e.size().as_bytes(), e.key()))
        .collect();
    candidates.sort_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("hotness is finite")
            .then(a.2.cmp(&b.2))
    });
    let budget = config.capacity.as_bytes() as f64 * config.redundancy_reserve;
    let mut consumed = 0.0;
    let mut threshold = f64::INFINITY;
    for &(h, size, _) in &candidates {
        let overhead = size as f64 * config.hot_parity_overhead;
        if consumed + overhead > budget {
            break;
        }
        consumed += overhead;
        threshold = h;
    }
    let mut reference = ReferenceRefresh {
        changes: Vec::new(),
        classes: Vec::new(),
        promotions: 0,
        demotions: 0,
    };
    for e in entries {
        let from = e.class();
        let to = ClassifierInputs {
            metadata: e.is_metadata(),
            hot: e.freq() > 0 && hotness(e) >= threshold,
            dirty: e.is_dirty(),
        }
        .classify();
        reference.classes.push((e.key(), to));
        if from != to {
            if to == ObjectClass::HotClean {
                reference.promotions += 1;
            } else if from == ObjectClass::HotClean {
                reference.demotions += 1;
            }
            reference.changes.push(ClassChange {
                key: e.key(),
                from,
                to,
            });
        }
    }
    reference.changes.sort_by_key(|c| c.key);
    reference
}

/// Refreshes `m` and checks the returned change list, every entry's class
/// and the promotion and demotion counts against [`reference_refresh`].
fn check_refresh(m: &mut CacheManager) -> Result<(), TestCaseError> {
    let size_aware = m.config().size_aware_hotness;
    let before = m.stats();
    let want = reference_refresh(m);
    let got = m.refresh_classification();
    prop_assert_eq!(&got, &want.changes, "size-aware hotness {}", size_aware);
    for &(k, class) in &want.classes {
        prop_assert_eq!(m.entry(k).expect("live").class(), class);
    }
    let after = m.stats();
    prop_assert_eq!(after.promotions, before.promotions + want.promotions);
    prop_assert_eq!(after.demotions, before.demotions + want.demotions);
    Ok(())
}

/// Sizes from a small set, so that `Freq / Size` ties between objects of
/// different sizes are common (and under `H = Freq`, ties are everywhere).
fn arb_size_kib() -> impl Strategy<Value = u64> {
    prop_oneof![Just(64u64), Just(128), Just(256), Just(512)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The refresh sorts on integer keys in place and reclassifies only
    /// the clean entries it sorted; after every operation it must return
    /// the change list, leave every class and count the promotions and
    /// demotions the full stable sort and a rescan of every entry give.
    #[test]
    fn refresh_matches_the_full_sort_and_rescan(
        fill in proptest::collection::vec((arb_size_kib(), 0u64..12, any::<bool>()), 0..32),
        ops in proptest::collection::vec(arb_op(arb_size_kib()), 1..80),
    ) {
        for size_aware_hotness in [true, false] {
            let mut m = CacheManager::new(CacheConfig {
                capacity: ByteSize::from_mib(8),
                redundancy_reserve: 0.20,
                hot_parity_overhead: CacheConfig::two_parity_overhead(5),
                size_aware_hotness,
            });
            // Unrefreshed state first, so the first refresh moves many.
            for (slot, &(size_kib, accesses, dirty)) in fill.iter().enumerate() {
                let k = key(slot as u64);
                m.insert(k, ByteSize::from_kib(size_kib), dirty, false);
                for _ in 0..accesses {
                    m.record_access(k);
                }
            }
            check_refresh(&mut m)?;
            for op in &ops {
                apply(&mut m, op);
                check_refresh(&mut m)?;
            }
        }
    }

    #[test]
    fn random_ops_preserve_bookkeeping(ops in proptest::collection::vec(arb_op(1u64..512), 1..120)) {
        let mut m = CacheManager::new(CacheConfig {
            capacity: ByteSize::from_mib(16),
            redundancy_reserve: 0.20,
            hot_parity_overhead: CacheConfig::two_parity_overhead(5),
            size_aware_hotness: true,
        });
        for op in &ops {
            apply(&mut m, op);
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
