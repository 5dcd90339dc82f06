//! The program's own counters, read through public accessors
//! (`cache_stats()`, `target().stats()`, `target().journal_stats()`,
//! `backend().stats()`, `device_stats()`, `resilience()`), summed over
//! the nodes of a cluster. With one client and no timers they repeat
//! exactly.

use crate::system::System;

/// The counters kept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    CacheAdmissions,
    CacheRemovals,
    /// Promotions into and demotions out of the hot-clean class.
    CacheClassMoves,
    TargetCreates,
    TargetReads,
    TargetDegradedReads,
    TargetRemoves,
    TargetReencodes,
    TargetRebuilds,
    JournalAppends,
    JournalFlushes,
    JournalCheckpoints,
    JournalBytes,
    BackendReads,
    BackendWrites,
    BackendBytes,
    FlashReads,
    FlashWrites,
    FlashErases,
    FlashQueuedNanos,
    FlashBusyNanos,
    ThrottleStalls,
}

const COUNTERS: usize = Counter::ThrottleStalls as usize + 1;

/// A reading of every counter, or a sum of movements between readings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters([u64; COUNTERS]);

impl Counters {
    /// Reads every counter of `system` now.
    pub fn read(system: &System) -> Counters {
        use Counter::*;
        let mut c = Counters::default();
        let mut add = |counter: Counter, n: u64| c.0[counter as usize] += n;
        for node in system.nodes() {
            let cache = node.cache_stats();
            add(CacheAdmissions, cache.admissions);
            add(CacheRemovals, cache.removals);
            add(CacheClassMoves, cache.promotions + cache.demotions);
            let target = node.target().stats();
            add(TargetCreates, target.creates);
            add(TargetReads, target.reads);
            add(TargetDegradedReads, target.degraded_reads);
            add(TargetRemoves, target.removes);
            add(TargetReencodes, target.reencodes);
            add(TargetRebuilds, target.rebuilds);
            if let Some(journal) = node.target().journal_stats() {
                add(JournalAppends, journal.appends);
                add(JournalFlushes, journal.flushes);
                add(JournalCheckpoints, journal.checkpoints);
                add(JournalBytes, journal.appended_bytes);
            }
            let backend = node.backend().stats();
            add(BackendReads, backend.reads);
            add(BackendWrites, backend.writes);
            add(BackendBytes, backend.bytes_read + backend.bytes_written);
            for device in node.device_stats() {
                add(FlashReads, device.stats.reads);
                add(FlashWrites, device.stats.writes);
                add(FlashErases, device.stats.erases_estimated);
                add(FlashQueuedNanos, device.stats.queued_nanos);
                add(FlashBusyNanos, device.stats.busy_nanos);
            }
            add(ThrottleStalls, node.resilience().throttle_stalls);
        }
        if let System::Cluster(cluster) = system {
            // Outage-window requests are served by the origin store.
            let origin = cluster.origin().stats();
            add(BackendReads, origin.reads);
            add(BackendWrites, origin.writes);
            add(BackendBytes, origin.bytes_read + origin.bytes_written);
        }
        c
    }

    /// Adds the movement from `before` to `after`. A counter that a
    /// planned event reset (a spare's device counters start from zero)
    /// moves by nothing rather than backwards, so readings are taken on
    /// both sides of every event and only the stretches between events
    /// are added up.
    pub fn add_movement(&mut self, before: &Counters, after: &Counters) {
        for ((sum, b), a) in self.0.iter_mut().zip(before.0).zip(after.0) {
            *sum += a.saturating_sub(b);
        }
    }

    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn movement_adds_up_across_a_reset() {
        let reading = |reads: u64| {
            let mut c = Counters::default();
            c.0[Counter::FlashReads as usize] = reads;
            c
        };
        let mut total = Counters::default();
        // 0 -> 100, then an event replaces the device (counter restarts
        // at 0), then 0 -> 40.
        total.add_movement(&reading(0), &reading(100));
        total.add_movement(&reading(0), &reading(40));
        assert_eq!(total.get(Counter::FlashReads), 140);
        // A reading taken across the reset would have lost the first
        // stretch but never goes negative.
        let mut across = Counters::default();
        across.add_movement(&reading(100), &reading(40));
        assert_eq!(across.get(Counter::FlashReads), 0);
    }
}
