//! The one cross-target redundancy model: a [`Redundancy`] geometry
//! `k + m` with a class mask, one coverage ledger, one counter set.
//!
//! Replication is the `k = 1` geometry (every shard is a whole copy,
//! held by the key's ring successors); `k > 1` stripes a protected
//! object across its owner's parity group. What the two geometries
//! share lives once — the policy, the ledger, the repair queue
//! (`repair.rs`), the counters. What a geometry *computes* differently
//! stays one function per side, selected by `policy.data == 1`:
//! materialising an acked write ([`ClusterSystem::fan_out_write`] vs
//! [`ClusterSystem::update_stripe`]), serving a down owner's read
//! ([`ClusterSystem::replica_server`] vs
//! [`ClusterSystem::serve_reconstructed`]), the body of a repair move,
//! and anti-entropy, which exists only where real copies do.

use std::collections::BTreeSet;

use reo_erasure::ReedSolomon;
use reo_osd::{ObjectClass, ObjectKey, SenseCode};
use reo_placement::{mix64, ParityGroupMap, TargetId};
use reo_sim::{ByteSize, SimDuration, SimTime};
use reo_workload::Request;

use super::{ClusterSystem, TargetState};
use crate::metrics::class_slot;
use crate::system::RequestOutcome;

/// Requests between piggybacked anti-entropy steps (the cluster-level
/// analog of the scrubber cursor's cadence).
pub(super) const ANTI_ENTROPY_PERIOD: u64 = 16;

/// Covered keys examined per anti-entropy step.
pub(super) const ANTI_ENTROPY_BUDGET: usize = 32;

/// Per-class cross-target redundancy: a protected object is spread over
/// `data + parity` targets and survives `parity` concurrent outages at
/// cache speed, for `parity / data` extra flash per protected byte.
///
/// * `data == 1` is replication: `parity` extra whole copies on the
///   key's ring successors, refreshed at the write barrier; a down
///   owner's range routes to a holder's cache.
/// * `data > 1` is a parity group: targets partition into seeded groups
///   ([`ParityGroupMap`]) and a down member's covered range is rebuilt
///   by degraded reconstruction from the surviving members.
///
/// The mask maps the paper's per-class redundancy idea onto the
/// cluster: scan-class clean data is cheap to refetch (unprotected),
/// hot read classes and dirty data earn protection. Beyond `parity`
/// losses the range degrades honestly to backend-first service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Redundancy {
    /// Data shards (`k`); `1` makes every shard a whole copy.
    pub data: usize,
    /// Redundant shards (`m` — the outage tolerance).
    pub parity: usize,
    /// Which classes are protected: `[metadata, dirty, hot_clean,
    /// cold_clean]`.
    pub protects: [bool; 4],
}

impl Redundancy {
    /// No redundancy anywhere: single-copy semantics, byte-identical to
    /// the plain ring cluster. The default.
    pub fn none() -> Self {
        Redundancy {
            data: 1,
            parity: 0,
            protects: [false; 4],
        }
    }

    /// The reference replication policy: a second copy of everything
    /// that hurts on an outage (metadata, dirty, hot clean), single-copy
    /// for the scan class whose misses the backend absorbs cheaply.
    pub fn two_way() -> Self {
        Redundancy::reo(1, 1)
    }

    /// Uniform `n`-way replication for every class (sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn n_way(n: usize) -> Self {
        assert!(n > 0, "a replication factor counts the primary copy");
        Redundancy {
            data: 1,
            parity: n - 1,
            protects: [true; 4],
        }
    }

    /// The reference geometry `k + m`, protecting every class that
    /// hurts on an outage (metadata, dirty, hot clean) and leaving the
    /// scan class to the backend.
    ///
    /// # Panics
    ///
    /// Panics if `data` is zero.
    pub fn reo(data: usize, parity: usize) -> Self {
        assert!(data > 0, "a stripe needs at least one data shard");
        Redundancy {
            data,
            parity,
            protects: [true, true, true, false],
        }
    }

    /// Whether the policy protects one serving class. Unknown (`None`)
    /// classes are writes not yet classified or backend-first serves:
    /// treat them as dirty, the most conservative class.
    pub fn protects(&self, class: Option<ObjectClass>) -> bool {
        self.parity > 0 && self.protects[class_bucket(class)]
    }

    /// Whole cached copies a write of `class` keeps across the ring
    /// (the primary included): `1 + m` for a protected class under
    /// replication, `1` otherwise — parity shards are not copies.
    pub fn copies(&self, class: Option<ObjectClass>) -> usize {
        if self.data == 1 && self.protects(class) {
            1 + self.parity
        } else {
            1
        }
    }

    /// `true` when at least one class is protected.
    pub fn enabled(&self) -> bool {
        self.parity > 0 && self.protects.contains(&true)
    }

    /// `true` when redundancy is whole copies on ring successors.
    pub fn replicates(&self) -> bool {
        self.data == 1 && self.enabled()
    }

    /// `true` when redundancy is parity shards across a group.
    pub fn stripes(&self) -> bool {
        self.data > 1 && self.enabled()
    }

    /// The flash-capacity overhead the policy pays per protected byte:
    /// `m / k`.
    pub fn overhead(&self) -> f64 {
        self.parity as f64 / self.data as f64
    }
}

impl Default for Redundancy {
    fn default() -> Self {
        Redundancy::none()
    }
}

/// Slot of a serving class in `[metadata, dirty, hot_clean,
/// cold_clean]`, with the `None` ⇒ dirty rule of
/// [`Redundancy::protects`].
fn class_bucket(class: Option<ObjectClass>) -> usize {
    class_slot(Some(class.unwrap_or(ObjectClass::Dirty)))
}

/// Cumulative redundancy counters, exported as the `redundancy` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RedundancySnapshot {
    /// Requests for a down target's range served at cache speed: from a
    /// replica holder's cache, or by degraded erasure reconstruction
    /// from the surviving group members.
    pub failover_serves: u64,
    /// Acked writes of a protected class that materialised redundancy
    /// (fanned out to the replica set, or re-encoded the stripe).
    pub protected_writes: u64,
    /// Replica copies refreshed (admitted or re-stamped) by the fan-out.
    pub copies_refreshed: u64,
    /// Ledger entries dropped because a stripe could no longer match
    /// the authoritative content (write behind a down owner, or group
    /// membership change re-striping the group).
    pub coverage_invalidations: u64,
    /// Object bytes rebuilt by degraded reconstruction.
    pub reconstructed_bytes: u64,
    /// Replica divergences injected by
    /// [`crate::PlannedEvent::InjectReplicaDivergence`].
    pub divergences_injected: u64,
    /// Diverged replica copies detected (anti-entropy compare, read-path
    /// version check, or healed by a newer write's fan-out).
    pub divergences_detected: u64,
    /// Diverged replica copies repaired (refreshed to the authoritative
    /// version, or invalidated when no longer a holder).
    pub divergences_repaired: u64,
    /// Completed anti-entropy passes over the covered namespace.
    pub anti_entropy_passes: u64,
    /// Repair moves drained through the rebuild QoS token bucket after
    /// restores (object re-warms, shard re-syncs, owner re-covers).
    pub repair_moves: u64,
    /// Completed repairs (a restored target's redundancy fully
    /// re-established).
    pub repairs_completed: u64,
    /// Reads of a down target's covered range that exceeded the
    /// tolerance (more than `m` holders lost) and degraded honestly to
    /// backend-first service.
    pub beyond_tolerance_serves: u64,
    /// Per-class time-to-restored-redundancy of the latest completed
    /// repair, microseconds (`[metadata, dirty, hot_clean,
    /// cold_clean]`; `-1` until a class completes a repair).
    pub ttr_us: [i64; 4],
}

impl Default for RedundancySnapshot {
    fn default() -> Self {
        RedundancySnapshot {
            failover_serves: 0,
            protected_writes: 0,
            copies_refreshed: 0,
            coverage_invalidations: 0,
            reconstructed_bytes: 0,
            divergences_injected: 0,
            divergences_detected: 0,
            divergences_repaired: 0,
            anti_entropy_passes: 0,
            repair_moves: 0,
            repairs_completed: 0,
            beyond_tolerance_serves: 0,
            ttr_us: [-1; 4],
        }
    }
}

/// One ledger entry: what the cluster knows about a covered key's
/// redundancy. Replica copies are stamped with `version` at fan-out
/// time and anti-entropy compares stamps against it; a stripe's shards
/// are a function of it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(super) struct Coverage {
    /// Authoritative content version, bumped by every protected write.
    pub(super) version: u64,
    /// Class bucket the write was protected under (per-class repair
    /// accounting).
    pub(super) class_bucket: u8,
    /// Whole cached copies recorded at write time — the key's replica
    /// set is that many ring successors (`1` when `k > 1`: only the
    /// owner caches the object, parity shards are virtual).
    pub(super) copies: usize,
    /// Group members whose shards missed an encode (down at the time)
    /// and need a repair re-sync before they can serve reconstructions
    /// again. Always empty under replication: a down holder's copy is
    /// invalidated at restore instead.
    pub(super) stale: BTreeSet<usize>,
}

/// The shard buffers a degraded parity serve works in, kept by the
/// cluster across serves.
#[derive(Clone, Debug, Default)]
pub(super) struct StripeBuffers {
    /// The `k` data shards as synthesized — what the decode must restore.
    pub(super) data: Vec<Vec<u8>>,
    /// The `m` parity shards encoded from them.
    pub(super) parity: Vec<Vec<u8>>,
    /// The `k + m` slots [`ReedSolomon::reconstruct`] works on: copies
    /// of the surviving shards, `None` for an erased one.
    pub(super) shards: Vec<Option<Vec<u8>>>,
}

/// The mixer state one stripe shard's bytes grow from: a pure function
/// of the cluster seed, the key's ring position, the stripe's content
/// version and the group member holding the shard.
pub(super) fn shard_seed(seed: u64, key_pos: u64, version: u64, member: u64) -> u64 {
    mix64(seed ^ key_pos ^ mix64(version) ^ mix64(member.wrapping_add(1)))
}

/// Fills `shard` with `len` bytes of the mixer's stream after `from`:
/// each [`mix64`] step yields eight bytes (little-endian), the last word
/// cut to the shard's length. Nothing `shard` held before survives.
pub(super) fn fill_shard(shard: &mut Vec<u8>, len: usize, from: u64) {
    shard.resize(len, 0);
    let mut x = from;
    let mut words = shard.chunks_exact_mut(8);
    for word in &mut words {
        x = mix64(x);
        word.copy_from_slice(&x.to_le_bytes());
    }
    let tail = words.into_remainder();
    tail.copy_from_slice(&mix64(x).to_le_bytes()[..tail.len()]);
}

impl ClusterSystem {
    /// Sets the redundancy policy before traffic starts: protected
    /// classes gain coverage as they are next written. A striping
    /// policy partitions the current ring members into seeded `k + m`
    /// groups and builds the codec.
    pub fn with_redundancy(mut self, policy: Redundancy) -> Self {
        self.policy = policy;
        self.ledger.clear();
        self.groups = ParityGroupMap::new(self.seed, policy.data, policy.parity);
        self.codec = None;
        if policy.stripes() {
            for t in self.ring.targets() {
                self.groups.add_target(t);
            }
            self.codec = Some(
                ReedSolomon::new(policy.data, policy.parity)
                    .expect("redundancy policy is a valid codec geometry"),
            );
        }
        self
    }

    /// The `benchmark/` workspace is frozen outside benchmark PRs and
    /// still builds its clusters through this name (until ROADMAP's
    /// single-perf-harness item).
    #[doc(hidden)]
    pub fn with_replication_policy(self, policy: Redundancy) -> Self {
        self.with_redundancy(policy)
    }

    /// See [`ClusterSystem::with_replication_policy`].
    #[doc(hidden)]
    pub fn with_parity_policy(self, policy: Redundancy) -> Self {
        self.with_redundancy(policy)
    }

    /// The active redundancy policy.
    pub fn redundancy(&self) -> Redundancy {
        self.policy
    }

    /// Cumulative redundancy counters.
    pub fn redundancy_snapshot(&self) -> RedundancySnapshot {
        self.stats
    }

    /// `true` when target `t` is in `key`'s current replica set (the
    /// primary owner counts; the set's size comes from the key's ledger
    /// entry, single-copy for uncovered keys).
    pub(super) fn holds(&mut self, key: ObjectKey, t: usize) -> bool {
        let copies = self.ledger.get(&key).map_or(1, |c| c.copies);
        self.ring.replicas_into(key, copies, &mut self.holders);
        self.holders.contains(&TargetId(t))
    }

    /// Drops `key`'s ledger entry because its redundancy can no longer
    /// match the authoritative content.
    pub(super) fn invalidate_coverage(&mut self, key: ObjectKey) {
        if self.ledger.remove(&key).is_some() {
            self.stats.coverage_invalidations += 1;
        }
    }

    /// `true` when `member`'s shard cannot contribute right now: the
    /// member is not up, or (for `entry`'s key) it missed an encode.
    fn shard_lost(&self, member: TargetId, entry: Option<&Coverage>) -> bool {
        self.nodes[member.0].state != TargetState::Up
            || entry.is_some_and(|c| c.stale.contains(&member.0))
    }

    /// Shards unavailable among `holders` — the one place losses are
    /// counted. Compare against the key's tolerance: `copies - 1` ring
    /// successors under replication,
    /// [`ParityGroupMap::tolerance_of`] its owner's group otherwise (a
    /// group narrower than `k + m` honestly tolerates less).
    pub(super) fn lost_shards(&self, holders: &[TargetId], entry: Option<&Coverage>) -> usize {
        holders
            .iter()
            .filter(|&&h| self.shard_lost(h, entry))
            .count()
    }

    /// Records the group-level consequence of a member going down (a
    /// striping policy only: replica sets are per key, not per group).
    pub(super) fn note_group_degraded(&mut self, now: SimTime, t: usize) {
        let Some(gid) = self.groups.group_of(TargetId(t)) else {
            return;
        };
        let lost = self.lost_shards(self.groups.members(gid), None);
        let tolerance = self.groups.tolerance_of(gid);
        let (kind, consequence) = if lost > tolerance {
            (
                "parity-tolerance-exceeded",
                "covered range degrades to backend-first",
            )
        } else {
            ("parity-group-degraded", "serving by reconstruction")
        };
        self.flight.record(
            now,
            kind,
            format!("group {gid}: {lost}/{tolerance} shards lost, {consequence}"),
        );
    }

    /// Drops coverage for every covered key owned by one of `members`
    /// — the group's stripe layout changed (join/leave), so its stripes
    /// no longer match and must re-encode. Exactly the affected group
    /// pays; every other group's coverage is untouched (the
    /// cluster-level payoff of the map's minimal-movement rule).
    pub(super) fn invalidate_group_coverage(&mut self, members: &[TargetId], why: &str) {
        let before = self.ledger.len();
        let ring = &self.ring;
        self.ledger.retain(|&k, _| {
            !ring
                .target_of(k)
                .is_some_and(|owner| members.contains(&owner))
        });
        let dropped = (before - self.ledger.len()) as u64;
        if dropped == 0 {
            return;
        }
        self.stats.coverage_invalidations += dropped;
        let now = self.now();
        self.flight.record(
            now,
            "parity-coverage-reset",
            format!("{dropped} stripes dropped ({why})"),
        );
    }

    /// Advances `key`'s ledger entry for one protected write and returns
    /// the new authoritative version.
    fn cover(
        &mut self,
        key: ObjectKey,
        class: Option<ObjectClass>,
        copies: usize,
        stale: BTreeSet<usize>,
    ) -> u64 {
        self.stats.protected_writes += 1;
        let entry = self.ledger.entry(key).or_default();
        entry.version += 1;
        entry.class_bucket = class_bucket(class) as u8;
        entry.copies = copies;
        entry.stale = stale;
        entry.version
    }

    // ---- (i) materialising redundancy on an acked write ------------------

    /// Materialises redundancy for one acknowledged write at the
    /// request barrier (so it cannot reorder against the foreground).
    /// Redundancy never substitutes for durability: the ack already
    /// happened under the serving node's journal rules (or on the
    /// origin store, backend-first).
    pub(super) fn protect_write(&mut self, server: Option<usize>, owner: usize, request: &Request) {
        if self.policy.data == 1 {
            self.fan_out_write(server, request.key, request.size);
        } else {
            self.update_stripe(server, owner, request.key);
        }
    }

    /// `k = 1`: bumps the authoritative content version, refreshes and
    /// stamps every up holder's copy (the server included — its own
    /// stamp must advance past any older fan-out), and marks the key
    /// written-behind-the-back of every down holder so its stale copy
    /// is invalidated at restore.
    fn fan_out_write(&mut self, server: Option<usize>, key: ObjectKey, size: ByteSize) {
        let class = server.and_then(|s| self.nodes[s].system.target().class_of(key));
        let copies = self.policy.copies(class).min(self.ring.len());
        if copies <= 1 {
            return;
        }
        let version = self.cover(key, class, copies, BTreeSet::new());
        let mut refreshed = 0u64;
        // The loop needs `&mut self`: borrow the kept buffer around it.
        let mut holders = std::mem::take(&mut self.holders);
        self.ring.replicas_into(key, copies, &mut holders);
        for &TargetId(h) in &holders {
            match self.nodes[h].state {
                TargetState::Up => {
                    // A newer write's fan-out supersedes (and thereby
                    // repairs) any injected divergence on this copy.
                    self.audit_divergence(key, h, "copy healed by newer write");
                    if self.nodes[h].system.refresh_replica(key, size, version) {
                        refreshed += 1;
                    }
                }
                TargetState::Down => {
                    self.nodes[h].written_while_down.insert(key);
                }
                TargetState::Removed => {}
            }
        }
        self.holders = holders;
        self.stats.copies_refreshed += refreshed;
    }

    /// `k > 1`: a write served by its up owner re-encodes the stripe; a
    /// write acked anywhere else (backend-first) cannot re-encode — any
    /// existing stripe no longer matches the authoritative content and
    /// is dropped, honestly.
    fn update_stripe(&mut self, server: Option<usize>, owner: usize, key: ObjectKey) {
        if server != Some(owner) {
            return self.invalidate_coverage(key);
        }
        let class = self.nodes[owner].system.target().class_of(key);
        if self.policy.protects(class) {
            self.cover_key(owner, key, class);
        } else {
            self.invalidate_coverage(key);
        }
    }

    /// (Re-)encodes `key`'s stripe across its owner's group at the next
    /// content version: members down at encode time are stale until the
    /// repair path re-syncs their shards.
    pub(super) fn cover_key(&mut self, owner: usize, key: ObjectKey, class: Option<ObjectClass>) {
        let Some(gid) = self.groups.group_of(TargetId(owner)) else {
            return;
        };
        let stale: BTreeSet<usize> = self
            .groups
            .members(gid)
            .iter()
            .filter(|&&m| self.shard_lost(m, None))
            .map(|m| m.0)
            .collect();
        self.cover(key, class, 1, stale);
    }

    // ---- (ii) serving a down owner's read --------------------------------

    /// `k = 1`: the first up member of a down owner's replica set
    /// serves at full speed (its cache holds a fanned-out copy, or at
    /// worst fills from its own backend mirror). Never silently serves
    /// stale: a copy whose version stamp trails the authoritative
    /// version is repaired before it serves (the read-path half of
    /// anti-entropy).
    pub(super) fn replica_server(&mut self, now: SimTime, key: ObjectKey) -> Option<usize> {
        if !self.policy.replicates() {
            return None;
        }
        self.ring
            .replicas_into(key, 1 + self.policy.parity, &mut self.holders);
        let s = self
            .holders
            .iter()
            .skip(1)
            .find(|h| self.nodes[h.0].state == TargetState::Up)?
            .0;
        if let Some(version) = self.ledger.get(&key).map(|c| c.version) {
            let stamp = self.nodes[s].system.cached_version(key);
            if let Some(stamp) = stamp.filter(|&stamp| stamp != version) {
                self.repair_copy(key, s, stamp, version, true);
            }
        }
        self.tracer.annotate("replica-serve", now);
        Some(s)
    }

    /// `k > 1`: `true` when a read of `key` (owned by the down target
    /// `owner`) can be served by degraded reconstruction — the key has
    /// current stripe coverage and its owner's group is within its
    /// tolerance counting down and stale members.
    pub(super) fn reconstructible(&self, key: ObjectKey, owner: usize) -> bool {
        let Some(entry) = self.ledger.get(&key) else {
            return false;
        };
        let Some(gid) = self.groups.group_of(TargetId(owner)) else {
            return false;
        };
        self.lost_shards(self.groups.members(gid), Some(entry)) <= self.groups.tolerance_of(gid)
    }

    /// `k > 1`: serves one read of a downed owner's range by degraded
    /// erasure reconstruction from the surviving group members, at
    /// cache speed: `k` shard reads proceed in parallel, so the serve
    /// costs one shard read — honest [`SenseCode::RecoveredError`]
    /// sense, counted as an available degraded hit in the owner's SLO
    /// burn (the cluster analog of a single-node degraded stripe read).
    pub(super) fn serve_reconstructed(
        &mut self,
        owner: usize,
        request: &Request,
    ) -> RequestOutcome {
        let start = self.origin_clock.now();
        let size = self
            .objects
            .get(&request.key)
            .copied()
            .unwrap_or(request.size);
        self.reconstruct_stripe(owner, request.key, size);
        let shard_bytes = (size.as_bytes() / self.policy.data as u64).max(1);
        let rate = self.config.device.read.bytes_per_sec().max(1);
        let nanos = ((u128::from(shard_bytes) * 1_000_000_000) / u128::from(rate)) as u64;
        self.origin_clock.advance(SimDuration::from_nanos(nanos));
        self.stats.reconstructed_bytes += size.as_bytes();
        self.outage_outcome(owner, request, start, true, true, SenseCode::RecoveredError)
    }

    /// Runs the real `k + m` codec for one degraded serve. Stripe
    /// shards are deterministic functions of `(seed, key, stripe
    /// version, member)` ([`shard_seed`], [`fill_shard`]), so the serve
    /// re-synthesizes the `k` data extents, encodes their parity, erases
    /// every lost shard (down, stale, or phantom — a slot the narrow
    /// group never had), and decodes through
    /// [`ReedSolomon::reconstruct`] — whose per-erasure-pattern cached
    /// plans make repeat serves under the same outage skip the matrix
    /// inversion. The decode is verified against the original shards,
    /// so every outage serve is a kernel-fidelity check. All of it
    /// happens in the kept [`StripeBuffers`]: after the first serve only
    /// `reconstruct` allocates, for the slots it rebuilds.
    pub(super) fn reconstruct_stripe(&mut self, owner: usize, key: ObjectKey, size: ByteSize) {
        let Some(codec) = &self.codec else {
            return;
        };
        let Some(gid) = self.groups.group_of(TargetId(owner)) else {
            return;
        };
        let Some(entry) = self.ledger.get(&key) else {
            return;
        };
        let members = self.groups.members(gid);
        let k = self.policy.data;
        let shard_len = (size.as_bytes() as usize / k).clamp(64, 4096);
        let key_pos = self.ring.key_position(key);
        let mut bufs = std::mem::take(&mut self.stripe_buffers);
        let StripeBuffers {
            data,
            parity,
            shards,
        } = &mut bufs;
        data.resize_with(k, Vec::new);
        parity.resize_with(self.policy.parity, Vec::new);
        shards.resize_with(k + self.policy.parity, || None);
        for (slot, shard) in data.iter_mut().enumerate() {
            let member = members
                .get(slot)
                .map_or(u64::MAX - slot as u64, |m| m.0 as u64);
            let from = shard_seed(self.seed, key_pos, entry.version, member);
            fill_shard(shard, shard_len, from);
        }
        codec
            .encode_into(data, parity)
            .expect("stripe shards share one length by construction");
        for (slot, (shard, bytes)) in shards
            .iter_mut()
            .zip(data.iter().chain(parity.iter()))
            .enumerate()
        {
            if members
                .get(slot)
                .is_none_or(|&m| self.shard_lost(m, Some(entry)))
            {
                *shard = None;
            } else {
                let kept = shard.get_or_insert_with(Vec::new);
                kept.clear();
                kept.extend_from_slice(bytes);
            }
        }
        codec
            .reconstruct(shards)
            .expect("losses within tolerance were checked before routing here");
        for (decoded, original) in shards.iter().zip(data.iter()) {
            assert!(
                decoded.as_deref() == Some(original.as_slice()),
                "degraded reconstruction must restore the exact extents"
            );
        }
        self.stripe_buffers = bufs;
    }

    // ---- (iv) anti-entropy and divergence injection (k = 1 only) ---------

    /// Settles one deliberately diverged copy that needs no stamp
    /// compare any more — `how` says what resolved it — so the
    /// 100%-detection ledger stays balanced.
    fn audit_divergence(&mut self, key: ObjectKey, t: usize, how: &str) {
        if self.injected_divergences.remove(&(key, t)) {
            let now = self.now();
            self.stats.divergences_detected += 1;
            self.stats.divergences_repaired += 1;
            self.flight
                .record(now, "replica-divergence", format!("target {t} {how}"));
        }
    }

    /// Repairs target `t`'s copy of `key`, whose version `stamp`
    /// differs from the authoritative `version`: a current `holder` is
    /// refreshed to it, a copy with no reason to exist any more is
    /// invalidated. Shared by the anti-entropy walk and the read path.
    fn repair_copy(&mut self, key: ObjectKey, t: usize, stamp: u64, version: u64, holder: bool) {
        let now = self.now();
        self.injected_divergences.remove(&(key, t));
        self.stats.divergences_detected += 1;
        self.flight.record(
            now,
            "replica-divergence",
            format!("target {t} stamp v{stamp} != authoritative v{version}"),
        );
        if !holder {
            self.nodes[t].system.invalidate_cached(key);
        } else if let Some(&size) = self.objects.get(&key) {
            self.nodes[t].system.refresh_replica(key, size, version);
        }
        self.stats.divergences_repaired += 1;
    }

    /// Seeded replica-divergence injection
    /// ([`crate::PlannedEvent::InjectReplicaDivergence`]): every
    /// *current* stamped replica copy on an up non-primary holder
    /// independently rolls its version stamp back with probability
    /// `ppm` parts per million. Draws are a pure function of the
    /// cluster seed, the injection round, the key, and the holder —
    /// equal seeds diverge equal copies. Returns the number of copies
    /// diverged.
    pub(super) fn inject_replica_divergence(&mut self, ppm: u32) -> u64 {
        self.injection_rounds += 1;
        let round = self.injection_rounds;
        let mut injected = 0u64;
        let entries: Vec<(ObjectKey, u64, usize)> = self
            .ledger
            .iter()
            .map(|(&k, c)| (k, c.version, c.copies))
            .collect();
        for (key, version, copies) in entries {
            self.ring.replicas_into(key, copies, &mut self.holders);
            for &TargetId(h) in self.holders.iter().skip(1) {
                if self.nodes[h].state != TargetState::Up
                    || self.nodes[h].system.cached_version(key) != Some(version)
                {
                    continue;
                }
                let draw = mix64(
                    self.seed
                        ^ mix64(round)
                        ^ self.ring.key_position(key)
                        ^ mix64(0x5EED_0000 | h as u64),
                );
                if draw % 1_000_000 < u64::from(ppm) {
                    self.nodes[h]
                        .system
                        .stamp_cached_version(key, version.wrapping_sub(1));
                    self.injected_divergences.insert((key, h));
                    injected += 1;
                }
            }
        }
        self.stats.divergences_injected += injected;
        let now = self.now();
        self.flight.record(
            now,
            "divergence-injected",
            format!("{injected} replica copies rolled back (round {round})"),
        );
        injected
    }

    /// One bounded anti-entropy step: walks up to
    /// [`ANTI_ENTROPY_BUDGET`] covered keys from the cursor (the
    /// cluster-level analog of the scrubber cursor) and compares every
    /// up node's version stamp against the authoritative version. An
    /// equal stamp is done; only a differing one asks the ring for the
    /// key's replica set, to repair it — a current holder is refreshed
    /// to the authoritative version, a stale non-holder invalidated.
    /// Returns `true` when this step completed a full pass over the
    /// covered namespace.
    pub(super) fn anti_entropy_step(&mut self) -> bool {
        if self.ledger.is_empty() {
            return true;
        }
        let from = match self.anti_entropy_cursor {
            Some(cursor) => std::ops::Bound::Excluded(cursor),
            None => std::ops::Bound::Unbounded,
        };
        let mut batch = [(ObjectKey::control(), 0u64, 0usize); ANTI_ENTROPY_BUDGET];
        let mut n = 0;
        for (slot, (&k, c)) in batch
            .iter_mut()
            .zip(self.ledger.range((from, std::ops::Bound::Unbounded)))
        {
            *slot = (k, c.version, c.copies);
            n += 1;
        }
        let batch = &batch[..n];
        let completed = n < ANTI_ENTROPY_BUDGET;
        self.anti_entropy_cursor = batch.last().map(|&(k, _, _)| k);
        for &(key, version, copies) in batch {
            for i in 0..self.nodes.len() {
                if self.nodes[i].state != TargetState::Up {
                    continue;
                }
                match self.nodes[i].system.cached_version(key) {
                    Some(stamp) if stamp == version => {}
                    Some(stamp) => {
                        self.ring.replicas_into(key, copies, &mut self.holders);
                        let holder = self.holders.contains(&TargetId(i));
                        self.repair_copy(key, i, stamp, version, holder);
                    }
                    // The copy is gone (evicted, crashed out, or
                    // invalidated since). If it was a deliberately
                    // diverged copy, eviction IS the non-holder repair
                    // action, so the divergence is resolved.
                    None if !self.injected_divergences.is_empty() => {
                        self.audit_divergence(key, i, "stale copy already evicted");
                    }
                    None => {}
                }
            }
        }
        if completed {
            self.anti_entropy_cursor = None;
            self.stats.anti_entropy_passes += 1;
        }
        completed
    }

    /// Runs one *complete* anti-entropy pass over the covered namespace
    /// (the quiesce-time drain; the steady-state path piggybacks
    /// bounded steps on the request cadence). Any partial walk in
    /// flight is abandoned first, so the pass provably covers every
    /// covered key. A no-op unless the policy keeps real copies.
    pub fn run_anti_entropy_pass(&mut self) {
        if !self.policy.replicates() {
            return;
        }
        self.anti_entropy_cursor = None;
        while !self.anti_entropy_step() {}
    }
}
