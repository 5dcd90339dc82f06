//! Differentiated data recovery: the class-priority rebuild queue.

use std::collections::VecDeque;
use std::fmt;

use reo_osd::{ObjectClass, ObjectKey};

/// A violated rebuild-ledger invariant: the engine's counters no longer
/// account for every item exactly once. This is always a bug in the
/// engine (or memory corruption), never a caller mistake — callers get
/// it surfaced as a sense-coded internal error rather than silent
/// counter drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LedgerImbalance {
    /// Items ever enqueued.
    pub enqueued: u64,
    /// Items popped for rebuild.
    pub completed: u64,
    /// Items still pending in the queues.
    pub pending: u64,
    /// Items dropped by `clear` without being rebuilt.
    pub cancelled: u64,
    /// Sum of the per-class pending counters (must equal `pending`).
    pub pending_by_class: u64,
}

impl fmt::Display for LedgerImbalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery ledger imbalance: enqueued {} != completed {} + pending {} + cancelled {} \
             (per-class pending sum {})",
            self.enqueued, self.completed, self.pending, self.cancelled, self.pending_by_class
        )
    }
}

impl std::error::Error for LedgerImbalance {}

/// One pending rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryItem {
    /// The object to rebuild.
    pub key: ObjectKey,
    /// The class it had when queued — the priority driver.
    pub class: ObjectClass,
}

/// The rebuild scheduler of Section IV-D.
///
/// "When there is no on-demand requests, the reconstruction procedure
/// restores the recoverable data objects according to their class
/// (metadata, dirty data, hot clean data, and finally cold clean data),
/// from Class 0 to Class 3, in that order." The engine is one FIFO queue
/// per class, popped lowest class first; the target pops one item at a
/// time between servicing requests, so on-demand accesses always get the
/// device first.
///
/// # Examples
///
/// ```
/// use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
/// use reo_osd_target::RecoveryEngine;
///
/// let k = |i: u64| ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i));
/// let mut engine = RecoveryEngine::new();
/// engine.enqueue(k(1), ObjectClass::ColdClean);
/// engine.enqueue(k(2), ObjectClass::Dirty);
/// // Dirty data is rebuilt before cold data regardless of insertion order.
/// assert_eq!(engine.pop().unwrap().key, k(2));
/// assert_eq!(engine.pop().unwrap().key, k(1));
/// ```
#[derive(Clone, Debug, Default)]
pub struct RecoveryEngine {
    /// One FIFO per recovery priority; the unprioritized baseline queues
    /// everything in the first.
    queues: [VecDeque<RecoveryItem>; 4],
    enqueued_total: u64,
    completed_total: u64,
    cancelled_total: u64,
    /// Pending count per class id (0..=3), maintained alongside the
    /// queues so time-to-restored-redundancy can be read off without
    /// draining.
    pending_per_class: [usize; 4],
    unprioritized: bool,
}

impl RecoveryEngine {
    /// Creates an empty, class-prioritized engine (Reo's behaviour).
    pub fn new() -> Self {
        RecoveryEngine::default()
    }

    /// Creates an engine that rebuilds strictly in enqueue (FIFO) order,
    /// ignoring classes — the traditional block-order reconstruction
    /// baseline for the ablation study.
    pub fn new_unprioritized() -> Self {
        RecoveryEngine {
            unprioritized: true,
            ..RecoveryEngine::default()
        }
    }

    /// Number of rebuilds still pending.
    pub fn pending(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// `true` when nothing is pending (recovery has ended — the target
    /// reports sense code 0x66).
    pub fn is_idle(&self) -> bool {
        self.queues.iter().all(VecDeque::is_empty)
    }

    /// Total items ever enqueued.
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    /// Total items popped for rebuild.
    pub fn completed_total(&self) -> u64 {
        self.completed_total
    }

    /// Total items dropped by [`RecoveryEngine::clear`] without being
    /// rebuilt. Every item is accounted for exactly once:
    /// `enqueued_total == completed_total + pending + cancelled_total`.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Number of rebuilds still pending for one class.
    pub fn pending_of(&self, class: ObjectClass) -> usize {
        self.pending_per_class[class.recovery_priority() as usize]
    }

    /// Queues an object for rebuild at its class priority (or FIFO when
    /// unprioritized).
    pub fn enqueue(&mut self, key: ObjectKey, class: ObjectClass) {
        let priority = class.recovery_priority() as usize;
        let queue = if self.unprioritized { 0 } else { priority };
        self.queues[queue].push_back(RecoveryItem { key, class });
        self.enqueued_total += 1;
        self.pending_per_class[priority] += 1;
    }

    /// Pops the most important pending rebuild.
    pub fn pop(&mut self) -> Option<RecoveryItem> {
        let item = self.queues.iter_mut().find_map(VecDeque::pop_front)?;
        self.completed_total += 1;
        self.pending_per_class[item.class.recovery_priority() as usize] -= 1;
        Some(item)
    }

    /// Checks the accounting invariants: every item ever enqueued is
    /// completed, pending, or cancelled — exactly one of the three — and
    /// the per-class pending counters sum to the queue lengths. Cheap
    /// (counter arithmetic only), so callers can run it after every
    /// reconcile in debug builds.
    ///
    /// # Errors
    ///
    /// Returns the full counter snapshot as a [`LedgerImbalance`] when
    /// the ledger no longer reconciles.
    pub fn verify_ledger(&self) -> Result<(), LedgerImbalance> {
        let pending = self.pending() as u64;
        let pending_by_class: u64 = self.pending_per_class.iter().map(|&n| n as u64).sum();
        let reconciles = self.enqueued_total
            == self.completed_total + pending + self.cancelled_total
            && pending_by_class == pending;
        if reconciles {
            Ok(())
        } else {
            Err(LedgerImbalance {
                enqueued: self.enqueued_total,
                completed: self.completed_total,
                pending,
                cancelled: self.cancelled_total,
                pending_by_class,
            })
        }
    }

    /// Drops every pending item (e.g. after a second failure invalidates
    /// the queue and the target rebuilds it from scratch). Dropped items
    /// count as cancelled, not completed.
    pub fn clear(&mut self) {
        self.cancelled_total += self.pending() as u64;
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.pending_per_class = [0; 4];
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
    fn strict_class_order() {
        let mut e = RecoveryEngine::new();
        e.enqueue(k(3), ObjectClass::ColdClean);
        e.enqueue(k(2), ObjectClass::HotClean);
        e.enqueue(k(0), ObjectClass::Metadata);
        e.enqueue(k(1), ObjectClass::Dirty);
        let order: Vec<ObjectClass> = std::iter::from_fn(|| e.pop()).map(|i| i.class).collect();
        assert_eq!(
            order,
            vec![
                ObjectClass::Metadata,
                ObjectClass::Dirty,
                ObjectClass::HotClean,
                ObjectClass::ColdClean
            ]
        );
    }

    #[test]
    fn fifo_within_class() {
        let mut e = RecoveryEngine::new();
        for i in 0..5 {
            e.enqueue(k(i), ObjectClass::HotClean);
        }
        let order: Vec<ObjectKey> = std::iter::from_fn(|| e.pop()).map(|i| i.key).collect();
        assert_eq!(order, (0..5).map(k).collect::<Vec<_>>());
    }

    #[test]
    fn unprioritized_engine_is_fifo_across_classes() {
        let mut e = RecoveryEngine::new_unprioritized();
        e.enqueue(k(3), ObjectClass::ColdClean);
        e.enqueue(k(0), ObjectClass::Metadata);
        e.enqueue(k(1), ObjectClass::Dirty);
        let order: Vec<ObjectKey> = std::iter::from_fn(|| e.pop()).map(|i| i.key).collect();
        assert_eq!(order, vec![k(3), k(0), k(1)], "insertion order, not class");
    }

    /// Every item is accounted for exactly once across the counters.
    fn assert_reconciled(e: &RecoveryEngine) {
        if let Err(imbalance) = e.verify_ledger() {
            panic!("{imbalance}");
        }
    }

    #[test]
    fn verify_ledger_catches_counter_drift() {
        let mut e = RecoveryEngine::new();
        e.enqueue(k(1), ObjectClass::Dirty);
        e.enqueue(k(2), ObjectClass::ColdClean);
        e.pop();
        assert!(e.verify_ledger().is_ok());
        // Simulate a lost completion (the drift the invariant exists to
        // catch); only an in-crate test can corrupt the private counter.
        e.completed_total += 1;
        let imbalance = e.verify_ledger().unwrap_err();
        assert_eq!(imbalance.enqueued, 2);
        assert_eq!(imbalance.completed, 2);
        assert_eq!(imbalance.pending, 1);
        assert!(imbalance.to_string().contains("ledger imbalance"));
        e.completed_total -= 1;
        assert!(e.verify_ledger().is_ok());
        // Per-class counters drifting from the queues is also an imbalance.
        e.pending_per_class[0] += 1;
        assert!(e.verify_ledger().is_err());
    }

    #[test]
    fn counters_and_idle() {
        let mut e = RecoveryEngine::new();
        assert!(e.is_idle());
        e.enqueue(k(1), ObjectClass::Dirty);
        e.enqueue(k(2), ObjectClass::Dirty);
        assert_eq!(e.pending(), 2);
        assert_eq!(e.pending_of(ObjectClass::Dirty), 2);
        assert!(!e.is_idle());
        assert_reconciled(&e);
        e.pop();
        assert_eq!(e.enqueued_total(), 2);
        assert_eq!(e.completed_total(), 1);
        assert_eq!(e.pending_of(ObjectClass::Dirty), 1);
        assert_reconciled(&e);
        e.clear();
        assert!(e.is_idle());
        assert_eq!(e.completed_total(), 1, "clear is not completion");
        assert_eq!(e.cancelled_total(), 1, "clear is cancellation");
        assert_eq!(e.pending_of(ObjectClass::Dirty), 0);
        assert_reconciled(&e);
    }

    #[test]
    fn clear_drops_pending_items_without_completing_them() {
        // Regression companion to `OsdTarget::fail_device`: after a second
        // failure clears the queue, nothing pending may remain and nothing
        // may count as completed — the queue was invalidated, not drained.
        let mut e = RecoveryEngine::new();
        e.enqueue(k(1), ObjectClass::Dirty);
        e.enqueue(k(2), ObjectClass::HotClean);
        e.enqueue(k(3), ObjectClass::ColdClean);
        e.pop();
        e.clear();
        assert_eq!(e.pending(), 0);
        assert_eq!(e.pop(), None);
        assert_eq!(e.enqueued_total(), 3);
        assert_eq!(e.completed_total(), 1);
        assert_eq!(e.cancelled_total(), 2, "dropped items are cancelled");
        assert_reconciled(&e);
        // The engine is reusable after a clear: fresh items queue and
        // drain in class order as usual.
        e.enqueue(k(4), ObjectClass::HotClean);
        e.enqueue(k(5), ObjectClass::Dirty);
        assert_eq!(e.pop().unwrap().key, k(5), "dirty first");
        assert_eq!(e.pop().unwrap().key, k(4));
        assert!(e.is_idle());
        assert_reconciled(&e);
    }

    #[test]
    fn per_class_pending_counts_track_the_heap() {
        let mut e = RecoveryEngine::new();
        e.enqueue(k(1), ObjectClass::Metadata);
        e.enqueue(k(2), ObjectClass::ColdClean);
        e.enqueue(k(3), ObjectClass::ColdClean);
        assert_eq!(e.pending_of(ObjectClass::Metadata), 1);
        assert_eq!(e.pending_of(ObjectClass::Dirty), 0);
        assert_eq!(e.pending_of(ObjectClass::ColdClean), 2);
        e.pop(); // metadata drains first
        assert_eq!(e.pending_of(ObjectClass::Metadata), 0);
        assert_eq!(e.pending_of(ObjectClass::ColdClean), 2);
        e.clear();
        assert_eq!(e.pending_of(ObjectClass::ColdClean), 0);
        assert_reconciled(&e);
    }
}
