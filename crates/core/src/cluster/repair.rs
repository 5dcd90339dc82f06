//! The migration queue: ring-delta rebalancing and post-restore repair
//! drain through one QoS token bucket, and each restored target keeps
//! one repair ledger until its redundancy is re-established.

use reo_osd::ObjectKey;
use reo_placement::TargetId;
use reo_sim::{ByteSize, SimTime};

use super::{ClusterSystem, TargetState};

/// What a queued migration is for: ring-delta rebalancing after a
/// membership change, or re-establishing a restored target's
/// redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum MigrationKind {
    Rebalance,
    Repair,
}

/// One pending move. A rebalance (`to == None`) warms the key's current
/// ring owner; a repair (`to == Some(t)`) re-establishes redundancy on
/// the restored target `t`, which may hold the key as a replica or
/// group shard, not the primary.
#[derive(Clone, Copy, Debug)]
pub(super) struct Migration {
    pub(super) key: ObjectKey,
    pub(super) from: Option<usize>,
    pub(super) to: Option<usize>,
    pub(super) kind: MigrationKind,
    /// Class bucket for per-class repair accounting (repairs only).
    pub(super) class_bucket: u8,
}

impl Migration {
    /// A ring-delta move of `key` toward its current owner, retiring
    /// the copy on `from`.
    pub(super) fn rebalance(key: ObjectKey, from: Option<usize>) -> Self {
        Migration {
            key,
            from,
            to: None,
            kind: MigrationKind::Rebalance,
            class_bucket: 0,
        }
    }
}

impl ClusterSystem {
    /// Pending rebalance and repair moves.
    pub fn pending_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Queues the repair of restored target `t`: redundancy the outage
    /// cost is re-established through the same QoS token bucket the
    /// rebuild path uses — a restored node re-enters at full speed
    /// without an unthrottled rescan. `written` is the set of keys
    /// acknowledged behind the outage. Returns the moves queued.
    pub(super) fn queue_repairs(&mut self, t: usize, written: &[ObjectKey], now: SimTime) -> u64 {
        // Class unknown until the re-warm classifies the copy: account
        // it as dirty, the conservative bucket.
        const DIRTY: u8 = 1;
        let mut moves: Vec<(ObjectKey, u8)> = Vec::new();
        if self.policy.replicates() {
            // Every key written behind the outage that the returning
            // target still holds (primary or replica) re-warms.
            for &key in written {
                if self.holds(key, t) {
                    let bucket = self.ledger.get(&key).map_or(DIRTY, |c| c.class_bucket);
                    moves.push((key, bucket));
                }
            }
        } else if self.policy.stripes() {
            // Two flavors — peer shard re-syncs (stripes that
            // re-encoded behind the returning member's back) and owner
            // re-covers (its own keys whose stripes were invalidated
            // by outage-window writes).
            for (&key, entry) in &self.ledger {
                if entry.stale.contains(&t) {
                    moves.push((key, entry.class_bucket));
                }
            }
            for &key in written {
                if self.ring.target_of(key) == Some(TargetId(t)) && !self.ledger.contains_key(&key)
                {
                    moves.push((key, DIRTY));
                }
            }
        }
        let mut pending_by_class = [0u64; 4];
        for &(key, class_bucket) in &moves {
            self.migrations.push_back(Migration {
                key,
                from: None,
                to: Some(t),
                kind: MigrationKind::Repair,
                class_bucket,
            });
            pending_by_class[usize::from(class_bucket) % 4] += 1;
        }
        let queued = moves.len() as u64;
        self.nodes[t].repair_pending_by_class = pending_by_class;
        self.nodes[t].repair_started = now;
        if queued > 0 {
            self.flight.record(
                now,
                "repair-queued",
                format!("target {t}: {queued} repair moves through the rebuild throttle"),
            );
        } else if self.policy.enabled() {
            self.stats.repairs_completed += 1;
            self.flight.record(
                now,
                "repair-complete",
                format!("target {t}: redundancy already current"),
            );
        }
        queued
    }

    /// Retires one pending repair move for target `d` — performed, or
    /// skipped because the world moved on (key gone, target down
    /// again). The last move of a class bucket stops that class's
    /// time-to-restored-redundancy clock; the last move overall
    /// completes the repair (a control-plane event the postmortem arc
    /// wants to show).
    fn complete_repair(&mut self, d: usize, class_bucket: u8) {
        let cb = usize::from(class_bucket) % 4;
        if self.nodes[d].repair_pending_by_class[cb] == 0 {
            return;
        }
        let now = self.now();
        let node = &mut self.nodes[d];
        node.repair_pending_by_class[cb] -= 1;
        if node.repair_pending_by_class[cb] == 0 {
            let elapsed = now.saturating_since(node.repair_started);
            self.stats.ttr_us[cb] = (elapsed.as_nanos() / 1_000) as i64;
        }
        if node.repair_pending_by_class == [0; 4] {
            self.stats.repairs_completed += 1;
            self.flight.record(
                now,
                "repair-complete",
                format!("target {d}: redundancy restored through the rebuild throttle"),
            );
        }
    }

    /// (iii) The body of one repair move toward the up target `d`.
    /// `k = 1` copies the object: a clean, stamped warm copy, counted
    /// as a migration (`false` when `d` no longer holds the key).
    /// `k > 1` re-covers the owner's stripe (re-warm the extent, encode
    /// afresh) or catches a peer's shard up to the encoded version.
    fn repair_move(&mut self, d: usize, key: ObjectKey, size: ByteSize) -> bool {
        if self.policy.data == 1 {
            if !self.holds(key, d) {
                return false;
            }
            self.warm_migrated(d, key, size);
        } else if self.ring.target_of(key) == Some(TargetId(d)) {
            self.nodes[d].system.warm_object(key, size);
            let class = self.nodes[d].system.target().class_of(key);
            if self.policy.protects(class) {
                self.cover_key(d, key, class);
            }
        } else if let Some(entry) = self.ledger.get_mut(&key) {
            entry.stale.remove(&d);
        }
        true
    }

    /// Warms a migrated copy of `key` on the up target `dest`. Warmed
    /// copies are current by construction: where copies carry version
    /// stamps, stamp this one so anti-entropy agrees.
    fn warm_migrated(&mut self, dest: usize, key: ObjectKey, size: ByteSize) {
        if !self.nodes[dest].system.warm_object(key, size) {
            return;
        }
        self.nodes[dest].row.migrated_in += 1;
        if self.policy.data == 1 {
            if let Some(entry) = self.ledger.get(&key) {
                let version = entry.version;
                self.nodes[dest].system.stamp_cached_version(key, version);
            }
        }
    }

    /// Drains one bounded batch of pending migrations through the
    /// cluster's [`crate::system::RebuildThrottle`], charged the bytes each
    /// move put on the wire (unmetered when `drain` — the quiesce drain,
    /// which leaves the bucket as it was). The old owner's copy leaves
    /// through flush-and-remove (dirty data reaches durable storage
    /// first); the new owner warms a clean copy, charging its own device
    /// time.
    pub(super) fn pump_migrations(&mut self, drain: bool) {
        if self.migrations.is_empty() {
            return;
        }
        let now = self.merge_clocks();
        let metered = !drain && self.throttle.open(&self.config, now);
        let batch = self.config.recovery_batch.max(1);
        let migrated = |c: &Self| c.nodes.iter().map(|n| n.row.migrated_in).sum::<u64>();
        let moved_before = migrated(self);
        for _ in 0..batch {
            if metered && !self.throttle.admits(&self.tracer, now) {
                self.flight
                    .record(now, "migration-stall", "rebalance token bucket empty");
                break;
            }
            let Some(migration) = self.migrations.pop_front() else {
                break;
            };
            let Migration { key, from, to, .. } = migration;
            // Bytes the move put on the wire, charged against the
            // throttle; `None` for a move that was skipped.
            let mut moved = None;
            if migration.kind == MigrationKind::Repair {
                let d = to.expect("repairs target a restored member");
                if self.nodes[d].state == TargetState::Up {
                    if let Some(&size) = self.objects.get(&key) {
                        if self.repair_move(d, key, size) {
                            self.stats.repair_moves += 1;
                            // A repair moves one shard; a replica
                            // (k = 1) shard is the whole object.
                            moved = Some(size.scale(1.0 / self.policy.data as f64));
                        }
                    }
                }
                self.complete_repair(d, migration.class_bucket);
            } else if let (Some(dest), Some(&size)) = (
                self.ring.target_of(key).map(|o| o.0),
                self.objects.get(&key),
            ) {
                // Retire the old owner's copy first (write-back discipline).
                if let Some(f) = from {
                    if f != dest && self.nodes[f].state == TargetState::Up {
                        match self.nodes[f].system.flush_and_remove(key) {
                            Ok(Some(_)) => self.nodes[f].row.migrated_out += 1,
                            Ok(None) => {}
                            Err(_) => {
                                // Flush blocked (backend outage): retry later,
                                // never drop an acknowledged dirty object.
                                self.migrations.push_back(migration);
                                continue;
                            }
                        }
                    }
                }
                // A down owner warms on demand after its restore instead.
                if self.nodes[dest].state == TargetState::Up {
                    self.warm_migrated(dest, key, size);
                    moved = Some(size);
                }
            }
            if let Some(bytes) = moved.filter(|_| metered) {
                self.throttle.charge(bytes.as_bytes());
            }
        }
        let moved = migrated(self) - moved_before;
        if moved > 0 {
            self.flight.record(
                now,
                "rebalance-batch",
                format!("{moved} objects moved, {} pending", self.migrations.len()),
            );
        }
        self.merge_clocks();
    }

    /// Runs rebalance batches until the queue drains or `max_batches`
    /// is exhausted (the quiesce step — unthrottled, like the rebuild
    /// drain). Returns `true` when nothing is left pending.
    pub fn drain_rebalance(&mut self, max_batches: usize) -> bool {
        for _ in 0..max_batches {
            if self.migrations.is_empty() {
                break;
            }
            self.pump_migrations(true);
        }
        self.migrations.is_empty()
    }

    /// Quiesces the whole cluster: drains every up node's rebuild queue
    /// and the migration queue. Returns `true` when everything is idle.
    pub fn drain_recovery(&mut self, max_batches: usize) -> bool {
        let mut idle = true;
        for node in &mut self.nodes {
            if node.state == TargetState::Up {
                idle &= node.system.drain_recovery(max_batches);
            }
        }
        idle &= self.drain_rebalance(max_batches);
        self.merge_clocks();
        idle
    }
}
