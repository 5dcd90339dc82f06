//! Membership and outages: join, graceful leave, power loss, restore.

use reo_flashsim::FaultPlan;
use reo_osd::ObjectKey;
use reo_placement::TargetId;

use super::repair::Migration;
use super::{ClusterSystem, Node, TargetState};
use crate::system::CacheSystem;

impl ClusterSystem {
    /// Joins a brand-new target: a fresh node at cluster time with the
    /// full backend view, added to the ring, with ring-delta migrations
    /// toward it enqueued (drained through the QoS throttle between
    /// requests). Returns the newcomer's id.
    pub fn add_target(&mut self) -> TargetId {
        let t = TargetId(self.nodes.len());
        let mut cfg = self.config.clone();
        cfg.fault_seed = FaultPlan::derive_stream_seed(self.seed, t.0 as u64);
        let mut system = CacheSystem::new(cfg);
        system.share_observability(self.tracer.clone(), self.flight.with_target(t.0 as i64));
        let now = self.now();
        system.clock().advance_to(now);
        let mut node = Node::new(t.0, system);
        for (&key, &size) in &self.objects {
            node.system.mirror_backend_object(key, size);
        }
        let prev = self.ring.clone();
        self.ring.add_target(t);
        self.nodes.push(node);
        if self.policy.stripes() {
            self.groups.add_target(t);
            // Minimal re-striping: only the one group that gained the
            // newcomer has a changed stripe layout; its members' covered
            // keys re-encode on their next write or repair.
            if let Some(gid) = self.groups.group_of(t) {
                let members = self.groups.members(gid).to_vec();
                self.invalidate_group_coverage(&members, "group gained a member");
            }
        }
        let remapped = self.ring.remapped(&prev, self.objects.keys().copied());
        for &key in &remapped {
            let from = prev.target_of(key).map(|x| x.0);
            self.migrations.push_back(Migration::rebalance(key, from));
        }
        self.flight.record(
            now,
            "target-added",
            format!("target {} joined, {} keys remapped", t.0, remapped.len()),
        );
        t
    }

    /// Gracefully retires a target: flushes its cached set (dirty
    /// objects first reach its durable backend), drops it from the
    /// ring, and enqueues warm migrations of its mapped objects to the
    /// survivors. Rejected (never a panic) for unknown targets, downed
    /// targets (their journal holds the only copy of acked dirty
    /// writes — restore them first), and the last member.
    pub fn remove_target(&mut self, t: usize) {
        if t >= self.nodes.len() {
            return self.reject("remove-target-unknown");
        }
        match self.nodes[t].state {
            TargetState::Down => return self.reject("remove-target-down"),
            TargetState::Removed => return self.reject("remove-target-removed"),
            TargetState::Up => {}
        }
        if self.ring.len() <= 1 {
            return self.reject("remove-last-target");
        }
        self.merge_clocks();
        // Flush-before-retire: every cached object leaves through the
        // write-back path, so acknowledged dirty data reaches durable
        // storage before the node disappears. A failed flush aborts the
        // retirement with the node fully intact.
        for key in self.nodes[t].system.cached_keys() {
            if self.nodes[t].system.flush_and_remove(key).is_err() {
                return self.reject("remove-target-flush-failed");
            }
            self.nodes[t].row.migrated_out += 1;
        }
        let prev = self.ring.clone();
        self.ring.remove_target(TargetId(t));
        self.nodes[t].state = TargetState::Removed;
        if let Some(gid) = self.groups.group_of(TargetId(t)) {
            let members = self.groups.members(gid).to_vec();
            self.groups.remove_target(TargetId(t));
            self.invalidate_group_coverage(&members, "group lost a member");
        }
        let remapped = self.ring.remapped(&prev, self.objects.keys().copied());
        for &key in &remapped {
            // A remapped key's stripe group changes with its owner:
            // stale coverage must not serve reconstructions.
            if self.policy.stripes() {
                self.invalidate_coverage(key);
            }
            self.migrations
                .push_back(Migration::rebalance(key, Some(t)));
        }
        let now = self.merge_clocks();
        self.flight.record(
            now,
            "target-removed",
            format!("target {t} retired, {} keys remapped", remapped.len()),
        );
    }

    /// Takes a target down: a node-level power loss. Its DRAM state
    /// vanishes (journal survives on its devices); its mapped objects
    /// flip to failover service where redundancy covers them and to
    /// backend-first degraded service otherwise. Rejected (never a
    /// panic) for unknown, already-down, or removed targets.
    pub fn fail_target(&mut self, t: usize) {
        if t >= self.nodes.len() {
            return self.reject("fail-target-unknown");
        }
        match self.nodes[t].state {
            TargetState::Down => return self.reject("fail-target-already-down"),
            TargetState::Removed => return self.reject("fail-target-removed"),
            TargetState::Up => {}
        }
        let now = self.merge_clocks();
        self.nodes[t].system.crash();
        self.nodes[t].state = TargetState::Down;
        self.nodes[t].row.outages += 1;
        self.nodes[t].outage_started = Some(now);
        if !self
            .outages
            .iter()
            .any(|(down, ring)| down.0 == t && *ring == self.ring)
        {
            self.outages.push((TargetId(t), self.ring.clone()));
        }
        // A member leaving `Up` is the cluster-level analog of a target
        // leaving `Healthy`: capture the lookback window now.
        self.flight
            .record(now, "target-down", format!("target {t} power loss"));
        self.note_group_degraded(now, t);
        self.flight.dump(now, format!("target-down:{t}"));
    }

    /// Brings a downed target (or its replacement hardware holding the
    /// same devices and journal) back: journal replay restores the
    /// pre-outage state, then exactly the keys written behind the
    /// outage are invalidated (ring-delta, never a full rescan), any
    /// keys the ring moved away while it was down are enqueued for
    /// migration, and the redundancy the outage cost is queued for
    /// repair. Rejected for targets that are not down; a target whose
    /// journal is unrecoverable stays down (rejected, counted).
    pub fn restore_target(&mut self, t: usize) {
        if t >= self.nodes.len() {
            return self.reject("restore-target-unknown");
        }
        if self.nodes[t].state != TargetState::Down {
            return self.reject("restore-target-not-down");
        }
        self.merge_clocks();
        if self.nodes[t].system.recover().is_err() {
            // The journal itself is unrecoverable: the node stays down
            // (its range keeps serving backend-first) — honest
            // degradation, not a panic.
            return self.reject("restore-target-journal-unrecoverable");
        }
        // Ring-delta invalidation: only entries overwritten behind the
        // outage are stale; everything else replayed from the journal
        // is authoritative.
        let written: Vec<ObjectKey> = std::mem::take(&mut self.nodes[t].written_while_down)
            .into_iter()
            .collect();
        for &key in &written {
            self.nodes[t].system.invalidate_cached(key);
            if let Some(&size) = self.objects.get(&key) {
                self.nodes[t].system.mirror_backend_object(key, size);
            }
        }
        // Membership may have changed while the node was away: hand off
        // keys it no longer owns through the normal migration path.
        // Under replication, "owns" extends to the key's replica set.
        for key in self.nodes[t].system.cached_keys() {
            if !self.holds(key, t) {
                self.migrations
                    .push_back(Migration::rebalance(key, Some(t)));
            }
        }
        self.nodes[t].state = TargetState::Up;
        let now = self.merge_clocks();
        let repairs = self.queue_repairs(t, &written, now);
        if let Some(started) = self.nodes[t].outage_started.take() {
            self.nodes[t].row.rebuild_window_us =
                (now.saturating_since(started).as_nanos() / 1_000) as i64;
        }
        self.flight.record(
            now,
            "target-restored",
            format!(
                "target {t} rebuilt in {} us, {repairs} repair moves queued",
                self.nodes[t].row.rebuild_window_us
            ),
        );
    }
}
