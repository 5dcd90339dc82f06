//! The cache manager: policy over the cached-object index.

use std::cmp::Reverse;

use reo_osd::{ObjectClass, ObjectKey};
use reo_sim::{ByteSize, FastMap};

use crate::entry::CacheEntry;
use crate::lru::LruList;

/// Configuration of the cache manager's policies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CacheConfig {
    /// Total cache capacity the manager budgets against (the flash
    /// array's capacity).
    pub capacity: ByteSize,
    /// Fraction of the capacity reserved for redundancy (the paper's
    /// "predefined data redundancy percentage": 0.10 for Reo-10%, 0.20
    /// for Reo-20%, 0.40 for Reo-40%).
    pub redundancy_reserve: f64,
    /// Parity bytes added per user byte for a hot clean object. With `n`
    /// devices and 2-parity stripes this is `2 / (n - 2)` (each stripe of
    /// `n - 2` data chunks carries 2 parity chunks).
    pub hot_parity_overhead: f64,
    /// Use the paper's size-aware hotness `H = Freq / Size` (`true`,
    /// the default behaviour) or plain access frequency `H = Freq`
    /// (`false`, the ablation baseline).
    pub size_aware_hotness: bool,
}

impl CacheConfig {
    /// The hot-object parity overhead for 2-parity stripes on an
    /// `n`-device array.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (2-parity needs at least 3 devices).
    pub fn two_parity_overhead(n: usize) -> f64 {
        assert!(n >= 3, "2-parity stripes need at least 3 devices");
        2.0 / (n - 2) as f64
    }
}

/// Cumulative cache-policy counters: admission, removal, and periodic
/// reclassification activity. Consumed by the observability exporter
/// (class-move volume explains re-encode traffic on the flash array).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// New objects admitted into the index.
    pub admissions: u64,
    /// Re-inserts of an already-indexed key (size/dirty refresh).
    pub refreshes: u64,
    /// Objects removed (evictions, losses, and teardown).
    pub removals: u64,
    /// Periodic reclassifications into [`ObjectClass::HotClean`].
    pub promotions: u64,
    /// Periodic reclassifications out of [`ObjectClass::HotClean`].
    pub demotions: u64,
    /// Dirty writes redirected straight to the backend because the cache
    /// could not meet the Dirty class's redundancy requirement (degraded
    /// write-through mode).
    pub write_throughs: u64,
    /// Clean-miss fills skipped because the array was rebuilding (the
    /// read was served from the backend without admission).
    pub bypassed_fills: u64,
    /// Replica copies admitted or re-stamped by the cluster layer's
    /// cross-target write fan-out (replication overhead, distinct from
    /// on-demand admissions).
    pub replica_refreshes: u64,
}

impl CacheStats {
    /// Folds another node's counters into this one (cluster-level
    /// aggregation).
    pub fn merge(&mut self, other: &CacheStats) {
        self.admissions += other.admissions;
        self.refreshes += other.refreshes;
        self.removals += other.removals;
        self.promotions += other.promotions;
        self.demotions += other.demotions;
        self.write_throughs += other.write_throughs;
        self.bypassed_fills += other.bypassed_fills;
        self.replica_refreshes += other.replica_refreshes;
    }
}

/// A class change the manager wants shipped to the object storage as a
/// `#SETID#` control message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassChange {
    /// The object whose class changed.
    pub key: ObjectKey,
    /// The class it changed from.
    pub from: ObjectClass,
    /// The class it changed to.
    pub to: ObjectClass,
}

/// One clean entry as the hot-threshold sweep saw it: its hotness, its
/// size in bytes, its key and its class when scanned.
#[derive(Clone, Copy, Debug)]
struct HotCandidate {
    h: f64,
    size: u64,
    key: ObjectKey,
    class: ObjectClass,
}

/// The object cache manager (see the crate docs).
#[derive(Clone, Debug)]
pub struct CacheManager {
    config: CacheConfig,
    entries: FastMap<ObjectKey, CacheEntry>,
    lru: LruList,
    used: ByteSize,
    dirty_used: ByteSize,
    h_hot: f64,
    stats: CacheStats,
    /// Reusable scan buffer for [`Self::recompute_hot_threshold`]: the
    /// periodic threshold sweep sorts every clean entry in place, and
    /// reusing the buffer keeps that sweep allocation-free at steady
    /// state. [`Self::refresh_classification`] reclassifies exactly these
    /// entries.
    hot_scan: Vec<HotCandidate>,
}

impl CacheManager {
    /// Creates an empty cache manager.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero or the reserve is outside `[0, 1)`.
    pub fn new(config: CacheConfig) -> Self {
        assert!(!config.capacity.is_zero(), "capacity must be non-zero");
        assert!(
            (0.0..1.0).contains(&config.redundancy_reserve),
            "redundancy reserve must be in [0, 1)"
        );
        assert!(
            config.hot_parity_overhead >= 0.0,
            "parity overhead must be non-negative"
        );
        CacheManager {
            config,
            entries: FastMap::default(),
            lru: LruList::new(),
            used: ByteSize::ZERO,
            dirty_used: ByteSize::ZERO,
            h_hot: f64::INFINITY,
            stats: CacheStats::default(),
            hot_scan: Vec::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Cumulative policy counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Counts one degraded-mode write-through (a dirty write the cache
    /// declined because Dirty-class redundancy could not be met).
    pub fn note_write_through(&mut self) {
        self.stats.write_throughs += 1;
    }

    /// Counts one bypassed miss-fill (a clean read served from the
    /// backend without admission while the array was rebuilding).
    pub fn note_bypassed_fill(&mut self) {
        self.stats.bypassed_fills += 1;
    }

    /// Counts one replica refresh (the cluster write fan-out admitted
    /// or re-stamped a replica copy on this node).
    pub fn note_replica_refresh(&mut self) {
        self.stats.replica_refreshes += 1;
    }

    /// Updates the topology-dependent parameters after device failures or
    /// spare insertions: the capacity the redundancy budget is computed
    /// against (surviving devices only) and the parity overhead per hot
    /// byte (2-parity on a narrower array costs proportionally more).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `hot_parity_overhead` is negative.
    pub fn update_topology(&mut self, capacity: ByteSize, hot_parity_overhead: f64) {
        assert!(!capacity.is_zero(), "capacity must be non-zero");
        assert!(
            hot_parity_overhead >= 0.0,
            "parity overhead must be non-negative"
        );
        self.config.capacity = capacity;
        self.config.hot_parity_overhead = hot_parity_overhead;
    }

    /// Number of cached objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of cached object sizes (user bytes only; redundancy overhead is
    /// the storage target's concern).
    pub fn used_bytes(&self) -> ByteSize {
        self.used
    }

    /// Sum of dirty object sizes — what the write-back flusher budgets
    /// against.
    pub fn dirty_bytes(&self) -> ByteSize {
        self.dirty_used
    }

    /// `true` if `key` is cached.
    pub fn contains(&self, key: ObjectKey) -> bool {
        self.entries.contains_key(&key)
    }

    /// The class a *newly admitted* object would get under the current
    /// threshold: with `Freq = 1` (the access that brought it in), a small
    /// enough object can clear `H_hot` immediately and deserve hot-clean
    /// protection from the start — important when a large redundancy
    /// reserve sets a low threshold, so newcomers are not left unprotected
    /// until the next periodic refresh.
    pub fn classify_admission(&self, size: ByteSize, dirty: bool, metadata: bool) -> ObjectClass {
        let mut probe = CacheEntry::new(
            ObjectKey::new(
                reo_osd::PartitionId::FIRST,
                reo_osd::ObjectId::new(u64::MAX),
            ),
            size,
            dirty,
            metadata,
        );
        probe.touch();
        let hot = Self::is_hot(&self.config, &probe, self.h_hot);
        reo_osd::ClassifierInputs {
            metadata,
            hot,
            dirty,
        }
        .classify()
    }

    /// The entry for `key`, if cached.
    pub fn entry(&self, key: ObjectKey) -> Option<&CacheEntry> {
        self.entries.get(&key)
    }

    /// Inserts an object into the index and makes it most-recently-used.
    /// Re-inserting an existing key refreshes its size/dirty state but
    /// keeps its access count.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn insert(&mut self, key: ObjectKey, size: ByteSize, dirty: bool, metadata: bool) {
        match self.entries.get_mut(&key) {
            Some(existing) => {
                self.used = self.used.saturating_sub(existing.size()) + size;
                if existing.is_dirty() {
                    self.dirty_used = self.dirty_used.saturating_sub(existing.size());
                }
                let mut updated = CacheEntry::new(key, size, dirty, metadata);
                updated.carry_freq(existing.freq());
                if existing.is_dirty() || dirty {
                    updated.mark_dirty();
                }
                // The access that re-brought the object counts toward Freq.
                updated.touch();
                // Keep the class label consistent with the carried-over
                // dirty flag and the current threshold.
                let hot = Self::is_hot(&self.config, &updated, self.h_hot);
                updated.reclassify_as(hot);
                if updated.is_dirty() {
                    self.dirty_used += size;
                }
                *existing = updated;
                self.stats.refreshes += 1;
            }
            None => {
                let mut entry = CacheEntry::new(key, size, dirty, metadata);
                // "... how many times being accessed since it enters the
                // cache": the access that brought the object in counts.
                entry.touch();
                // Classify against the current threshold immediately (see
                // `classify_admission`).
                let hot = Self::is_hot(&self.config, &entry, self.h_hot);
                entry.reclassify_as(hot);
                if dirty {
                    self.dirty_used += size;
                }
                self.entries.insert(key, entry);
                self.used += size;
                self.stats.admissions += 1;
            }
        }
        self.lru.touch(key);
        // A re-insert never cleans an entry, so a mark only ever goes on.
        if dirty {
            self.lru.mark(key);
        }
    }

    /// Records a hit: bumps the frequency counter and the LRU position.
    /// Returns `false` if the key is not cached.
    pub fn record_access(&mut self, key: ObjectKey) -> bool {
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.touch();
                self.lru.touch(key);
                true
            }
            None => false,
        }
    }

    /// The hotness of an entry under the configured definition:
    /// `Freq / Size` (paper) or plain `Freq` (ablation).
    fn hotness_of(config: &CacheConfig, e: &CacheEntry) -> f64 {
        if config.size_aware_hotness {
            e.hotness()
        } else {
            e.freq() as f64
        }
    }

    fn is_hot(config: &CacheConfig, e: &CacheEntry, h_hot: f64) -> bool {
        e.freq() > 0 && Self::hotness_of(config, e) >= h_hot
    }

    /// Marks a cached object dirty (a write hit). Returns the entry's new
    /// class, or `None` if not cached. The entry keeps its LRU position,
    /// and finding its place among the dirty ones costs a step per clean
    /// entry between it and the next dirty one toward the recent end — none
    /// right after [`CacheManager::record_access`].
    pub fn mark_dirty(&mut self, key: ObjectKey) -> Option<ObjectClass> {
        let h = self.h_hot;
        let config = self.config;
        let e = self.entries.get_mut(&key)?;
        if !e.is_dirty() {
            self.dirty_used += e.size();
            self.lru.mark(key);
        }
        e.mark_dirty();
        let hot = Self::is_hot(&config, e, h);
        Some(e.reclassify_as(hot))
    }

    /// Marks a cached object clean (flushed). Returns the entry's new
    /// class, or `None` if not cached.
    pub fn mark_clean(&mut self, key: ObjectKey) -> Option<ObjectClass> {
        let h = self.h_hot;
        let config = self.config;
        let e = self.entries.get_mut(&key)?;
        if e.is_dirty() {
            self.dirty_used = self.dirty_used.saturating_sub(e.size());
            self.lru.unmark(key);
        }
        e.mark_clean();
        let hot = Self::is_hot(&config, e, h);
        Some(e.reclassify_as(hot))
    }

    /// Removes an object from the index; returns its entry if present.
    pub fn remove(&mut self, key: ObjectKey) -> Option<CacheEntry> {
        let e = self.entries.remove(&key)?;
        self.stats.removals += 1;
        self.lru.remove(key);
        self.used = self.used.saturating_sub(e.size());
        if e.is_dirty() {
            self.dirty_used = self.dirty_used.saturating_sub(e.size());
        }
        Some(e)
    }

    /// The least-recently-used object — the eviction victim.
    pub fn lru_victim(&self) -> Option<ObjectKey> {
        self.lru.least_recent()
    }

    /// The least-recently-used key other than `protect`, optionally
    /// skipping dirty entries (eviction while the backend is down must
    /// not drop unflushed writes). One index probe per scanned key, no
    /// key cloning.
    pub fn pick_victim(&self, protect: Option<ObjectKey>, skip_dirty: bool) -> Option<ObjectKey> {
        self.lru.iter().find(|&k| {
            Some(k) != protect
                && (!skip_dirty
                    || !self
                        .entries
                        .get(&k)
                        .map(CacheEntry::is_dirty)
                        .unwrap_or(false))
        })
    }

    /// The least-recently-used *dirty* key — the write-back flusher's
    /// next victim (oldest dirty data first, the paper's flush order). The
    /// dirty keys are the marked ones of the LRU list, so this reads a
    /// head.
    pub fn first_dirty(&self) -> Option<ObjectKey> {
        self.lru.first_marked()
    }

    /// Keys from least to most recently used (for multi-object eviction).
    pub fn lru_iter(&self) -> impl Iterator<Item = ObjectKey> + '_ {
        self.lru.iter()
    }

    /// All cached keys with their current classes, in unspecified order.
    pub fn classes(&self) -> impl Iterator<Item = (ObjectKey, ObjectClass)> + '_ {
        self.entries.iter().map(|(k, e)| (*k, e.class()))
    }

    /// Recomputes the adaptive `H_hot` threshold (Section IV-C.1).
    ///
    /// Objects are sorted by descending hotness `H`; walking that order,
    /// each clean candidate's parity overhead (`hot_parity_overhead ×
    /// size`) is charged against the redundancy budget (`redundancy_reserve
    /// × capacity` minus what dirty/metadata replication already consumes
    /// conceptually — the paper charges the budget only with parity, and
    /// dirty replication is bounded separately, so we do the same). The
    /// `H` of the last object that fits becomes the new threshold.
    ///
    /// Returns the new threshold.
    pub fn recompute_hot_threshold(&mut self) -> f64 {
        let budget = self.config.capacity.as_bytes() as f64 * self.config.redundancy_reserve;
        self.hot_scan.clear();
        self.hot_scan.extend(
            self.entries
                .iter()
                .filter(|(_, e)| !e.is_dirty() && !e.is_metadata() && e.freq() > 0)
                .map(|(k, e)| HotCandidate {
                    h: Self::hotness_of(&self.config, e),
                    size: e.size().as_bytes(),
                    key: *k,
                    class: e.class(),
                }),
        );
        // Hottest first, ties broken by key so the threshold is independent
        // of hash-map iteration order (experiments must be bit-reproducible).
        // `H` is positive and finite here (`Freq > 0`, sizes non-zero), so
        // its bits order as the number does; keys are unique, so the
        // unstable sort has one possible output, the stable sort's.
        debug_assert!(self.hot_scan.iter().all(|c| c.h > 0.0 && c.h.is_finite()));
        self.hot_scan
            .sort_unstable_by_key(|c| (Reverse(c.h.to_bits()), c.key));

        let mut consumed = 0.0;
        let mut threshold = f64::INFINITY;
        for c in &self.hot_scan {
            let overhead = c.size as f64 * self.config.hot_parity_overhead;
            if consumed + overhead > budget {
                break;
            }
            consumed += overhead;
            threshold = c.h;
        }
        self.h_hot = threshold;
        threshold
    }

    /// Recomputes the threshold, reclassifies the index against it and
    /// returns the changes (to be shipped as `#SETID#` messages), sorted
    /// by key: [`Self::refresh_classification_into`] into a new buffer.
    pub fn refresh_classification(&mut self) -> Vec<ClassChange> {
        let mut changes = Vec::new();
        self.refresh_classification_into(&mut changes);
        changes
    }

    /// Recomputes the threshold, reclassifies the index against it and
    /// puts the changes in `changes` in place of what it held, sorted by
    /// key. A caller that keeps the buffer between refreshes allocates
    /// nothing once it has grown.
    ///
    /// Only a clean, non-metadata entry's class depends on `H_hot`:
    /// metadata and dirty entries are classes 0 and 1 whatever their heat,
    /// and [`Self::insert`], [`Self::mark_dirty`] and [`Self::mark_clean`]
    /// relabel an entry as soon as either flag changes. Every indexed entry
    /// has `Freq ≥ 1`, so those are exactly the entries the threshold sweep
    /// sorted, and one pass over its buffer reclassifies the index; the
    /// index is probed only for an entry whose class changes.
    pub fn refresh_classification_into(&mut self, changes: &mut Vec<ClassChange>) {
        let threshold = self.recompute_hot_threshold();
        changes.clear();
        for c in &self.hot_scan {
            let hot = c.h >= threshold;
            let to = if hot {
                ObjectClass::HotClean
            } else {
                ObjectClass::ColdClean
            };
            if to == c.class {
                continue;
            }
            self.entries
                .get_mut(&c.key)
                .expect("the sweep scanned a live entry")
                .reclassify_as(hot);
            if hot {
                self.stats.promotions += 1;
            } else {
                self.stats.demotions += 1;
            }
            changes.push(ClassChange {
                key: c.key,
                from: c.class,
                to,
            });
        }
        // Key order: the order the changes ship in decides which objects a
        // promotion's room-making evicts.
        changes.sort_unstable_by_key(|c| c.key);
        debug_assert!(self.entries.values().all(|e| e.class()
            == reo_osd::ClassifierInputs {
                metadata: e.is_metadata(),
                hot: Self::is_hot(&self.config, e, threshold),
                dirty: e.is_dirty(),
            }
            .classify()));
    }

    /// Keys of all dirty entries (need flushing before eviction), sorted
    /// for deterministic iteration.
    pub fn dirty_keys(&self) -> Vec<ObjectKey> {
        let mut keys: Vec<ObjectKey> = self
            .entries
            .iter()
            .filter(|(_, e)| e.is_dirty())
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_osd::{ObjectId, PartitionId};

    fn k(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    fn mgr(capacity_mib: u64, reserve: f64) -> CacheManager {
        CacheManager::new(CacheConfig {
            capacity: ByteSize::from_mib(capacity_mib),
            redundancy_reserve: reserve,
            hot_parity_overhead: CacheConfig::two_parity_overhead(5),
            size_aware_hotness: true,
        })
    }

    #[test]
    fn insert_access_remove_lifecycle() {
        let mut m = mgr(64, 0.1);
        m.insert(k(1), ByteSize::from_mib(4), false, false);
        assert!(m.contains(k(1)));
        assert_eq!(m.used_bytes(), ByteSize::from_mib(4));
        // The access that inserted the object counts as Freq = 1.
        assert_eq!(m.entry(k(1)).unwrap().freq(), 1);
        assert!(m.record_access(k(1)));
        assert_eq!(m.entry(k(1)).unwrap().freq(), 2);
        let e = m.remove(k(1)).unwrap();
        assert_eq!(e.freq(), 2);
        assert_eq!(m.used_bytes(), ByteSize::ZERO);
        assert!(!m.record_access(k(1)));
    }

    #[test]
    fn reinsert_preserves_freq_and_dirty() {
        let mut m = mgr(64, 0.1);
        m.insert(k(1), ByteSize::from_mib(4), true, false);
        m.record_access(k(1));
        m.insert(k(1), ByteSize::from_mib(8), false, false);
        let e = m.entry(k(1)).unwrap();
        // insert (1) + access (1) + re-insert access (1).
        assert_eq!(e.freq(), 3);
        assert!(e.is_dirty(), "dirtiness must not be lost by a resize");
        assert_eq!(m.used_bytes(), ByteSize::from_mib(8));
        assert_eq!(m.len(), 1);
        // The count is carried over, not counted up to: a frequency no
        // loop would reach comes back at once.
        for freq in [1_000_000, 1 << 60] {
            m.entries.get_mut(&k(1)).unwrap().carry_freq(freq);
            m.insert(k(1), ByteSize::from_mib(8), false, false);
            let e = m.entry(k(1)).unwrap();
            assert_eq!(e.freq(), freq + 1);
            assert!(e.is_dirty());
        }
        assert_eq!(m.first_dirty(), Some(k(1)));
    }

    #[test]
    fn lru_victim_is_least_recent() {
        let mut m = mgr(64, 0.1);
        m.insert(k(1), ByteSize::from_mib(1), false, false);
        m.insert(k(2), ByteSize::from_mib(1), false, false);
        m.insert(k(3), ByteSize::from_mib(1), false, false);
        m.record_access(k(1));
        assert_eq!(m.lru_victim(), Some(k(2)));
    }

    #[test]
    fn threshold_admits_hottest_until_budget() {
        // Capacity 30 MiB, reserve 10% => 3 MiB of parity budget.
        // Overhead factor 2/3 => ~4.5 MiB of hot data fits.
        let mut m = mgr(30, 0.1);
        // Three 2 MiB objects with different heat.
        for (i, touches) in [(1u64, 9u64), (2, 5), (3, 1)] {
            m.insert(k(i), ByteSize::from_mib(2), false, false);
            for _ in 0..touches {
                m.record_access(k(i));
            }
        }
        let h = m.recompute_hot_threshold();
        // Budget 3 MiB / (2/3 * 2 MiB per object) = 2 objects fit.
        // Freq counts the inserting access too, so the H values are
        // 10/2, 6/2, 2/2; the threshold is the second hottest = 3.
        assert!((h - 3.0).abs() < 1e-9, "h = {h}");
        let changes = m.refresh_classification();
        assert_eq!(changes.len(), 2);
        assert_eq!(m.entry(k(1)).unwrap().class(), ObjectClass::HotClean);
        assert_eq!(m.entry(k(2)).unwrap().class(), ObjectClass::HotClean);
        assert_eq!(m.entry(k(3)).unwrap().class(), ObjectClass::ColdClean);
    }

    #[test]
    fn zero_reserve_keeps_everything_cold() {
        let mut m = mgr(30, 0.0);
        m.insert(k(1), ByteSize::from_mib(1), false, false);
        m.record_access(k(1));
        let h = m.recompute_hot_threshold();
        assert!(h.is_infinite());
        assert!(m.refresh_classification().is_empty());
        assert_eq!(m.entry(k(1)).unwrap().class(), ObjectClass::ColdClean);
    }

    #[test]
    fn untouched_entry_never_hot_even_with_zero_threshold() {
        for size_aware_hotness in [true, false] {
            let config = CacheConfig {
                size_aware_hotness,
                ..*mgr(30, 0.1).config()
            };
            let mut e = CacheEntry::new(k(1), ByteSize::from_mib(1), false, false);
            // Never accessed: not hot even under a zero threshold.
            assert!(!CacheManager::is_hot(&config, &e, 0.0));
            e.touch();
            // H = 1.0 under either definition.
            assert!(CacheManager::is_hot(&config, &e, 0.5));
            assert!(CacheManager::is_hot(&config, &e, 1.0));
            assert!(!CacheManager::is_hot(&config, &e, 2.0));
        }
    }

    #[test]
    fn dirty_objects_are_not_hot_candidates() {
        let mut m = mgr(30, 0.5);
        m.insert(k(1), ByteSize::from_mib(1), true, false);
        for _ in 0..100 {
            m.record_access(k(1));
        }
        m.refresh_classification();
        // Dirty stays class 1 regardless of heat.
        assert_eq!(m.entry(k(1)).unwrap().class(), ObjectClass::Dirty);
        assert_eq!(m.dirty_keys(), vec![k(1)]);
    }

    #[test]
    fn clean_transition_reclassifies() {
        let mut m = mgr(30, 0.5);
        m.insert(k(1), ByteSize::from_mib(1), true, false);
        for _ in 0..10 {
            m.record_access(k(1));
        }
        m.recompute_hot_threshold();
        // While dirty: class 1. After flush: hot clean (it has heat and
        // the 50% reserve easily admits it)... but note dirty objects are
        // not candidates, so the threshold came only from other objects
        // (none) => infinity => cold.
        assert_eq!(m.mark_clean(k(1)), Some(ObjectClass::ColdClean));
        m.refresh_classification();
        assert_eq!(m.entry(k(1)).unwrap().class(), ObjectClass::HotClean);
    }

    #[test]
    fn class_changes_are_reported_once() {
        let mut m = mgr(30, 0.5);
        m.insert(k(1), ByteSize::from_mib(1), false, false);
        m.record_access(k(1));
        let first = m.refresh_classification();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].from, ObjectClass::ColdClean);
        assert_eq!(first[0].to, ObjectClass::HotClean);
        // Second refresh: no change, no report.
        assert!(m.refresh_classification().is_empty());
    }

    #[test]
    fn metadata_is_always_class_zero() {
        let mut m = mgr(30, 0.1);
        m.insert(k(1), ByteSize::from_kib(4), false, true);
        m.refresh_classification();
        assert_eq!(m.entry(k(1)).unwrap().class(), ObjectClass::Metadata);
    }

    #[test]
    #[should_panic(expected = "reserve")]
    fn bad_reserve_panics() {
        let _ = CacheManager::new(CacheConfig {
            capacity: ByteSize::from_mib(1),
            redundancy_reserve: 1.5,
            hot_parity_overhead: 0.5,
            size_aware_hotness: true,
        });
    }

    #[test]
    fn pick_victim_skips_protected_and_dirty() {
        let mut m = mgr(64, 0.1);
        m.insert(k(1), ByteSize::from_mib(1), true, false);
        m.insert(k(2), ByteSize::from_mib(1), false, false);
        m.insert(k(3), ByteSize::from_mib(1), false, false);
        assert_eq!(m.pick_victim(None, false), Some(k(1)));
        assert_eq!(m.pick_victim(Some(k(1)), false), Some(k(2)));
        assert_eq!(m.pick_victim(None, true), Some(k(2)), "k1 is dirty");
        assert_eq!(m.pick_victim(Some(k(2)), true), Some(k(3)));
        assert_eq!(m.first_dirty(), Some(k(1)));
        m.mark_clean(k(1));
        assert_eq!(m.first_dirty(), None);
    }

    #[test]
    fn lru_iter_matches_access_order() {
        let mut m = mgr(64, 0.1);
        for i in 1..=3 {
            m.insert(k(i), ByteSize::from_mib(1), false, false);
        }
        m.record_access(k(1));
        let order: Vec<ObjectKey> = m.lru_iter().collect();
        assert_eq!(order, vec![k(2), k(3), k(1)]);
    }
}
