//! What a cluster reports: health, per-target rows, aggregated
//! measurements, and the resilience counters of the whole cluster.

use std::ops::Add;

use reo_placement::{PlacementRing, TargetId};
use reo_sim::SimDuration;

use super::redundancy::RedundancySnapshot;
use super::{ClusterSystem, TargetState};
use crate::metrics::{MetricsSnapshot, SloSnapshot, TargetMetricsRow, CLASS_LABELS};
use crate::system::ResilienceSnapshot;

/// The cluster-level health view derived from per-target
/// [`crate::HealthState`] machines and lifecycle states.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterHealth {
    /// Current ring members.
    pub members: usize,
    /// Members serving at full fidelity.
    pub up: usize,
    /// Members down (their ranges served by failover or backend-first).
    pub down: usize,
    /// Fraction of the known namespace currently mapped to a down
    /// target — the *live* blast radius.
    pub degraded_fraction: f64,
    /// A stable label: `"healthy"`, `"recovering"`, or
    /// `"degraded(<down>/<members>)"`.
    pub label: String,
}

/// Flash-capacity accounting across the cluster's up members, split
/// into primary bytes (owner-cached user objects) and the two
/// redundancy flavors — what the equal-budget sweep reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashOverheadReport {
    /// Cached user bytes held by their ring owner.
    pub primary_bytes: u64,
    /// Cached user bytes held as replica copies (`k = 1`).
    pub replica_bytes: u64,
    /// Parity-shard bytes held for covered stripes (`size × m / k` per
    /// covered, owner-cached object; `k > 1`).
    pub parity_bytes: u64,
}

impl FlashOverheadReport {
    /// Redundancy bytes (replica + parity) per primary byte — `0` when
    /// nothing is cached.
    pub fn overhead_fraction(&self) -> f64 {
        if self.primary_bytes == 0 {
            0.0
        } else {
            (self.replica_bytes + self.parity_bytes) as f64 / self.primary_bytes as f64
        }
    }
}

impl ClusterSystem {
    /// Dirty objects permanently lost, summed over all nodes.
    pub fn dirty_data_lost(&self) -> u64 {
        self.nodes.iter().map(|n| n.system.dirty_data_lost()).sum()
    }

    /// `keys` as a fraction of the known namespace.
    fn namespace_fraction(&self, keys: usize) -> f64 {
        if self.objects.is_empty() {
            0.0
        } else {
            keys as f64 / self.objects.len() as f64
        }
    }

    /// Fraction of the known namespace that ever received a degraded
    /// response.
    pub fn observed_degraded_fraction(&self) -> f64 {
        self.namespace_fraction(self.degraded_keys.len())
    }

    /// How many keys of the namespace some `(target, ring)` of `outages`
    /// maps to that target, each key counted once.
    fn keys_mapped_to<'r>(
        &self,
        outages: impl Iterator<Item = (TargetId, &'r PlacementRing)> + Clone,
    ) -> usize {
        self.objects
            .keys()
            .filter(|&&key| {
                outages
                    .clone()
                    .any(|(down, ring)| ring.target_of(key) == Some(down))
            })
            .count()
    }

    /// Fraction of the known namespace ever mapped to a down target since
    /// the last [`ClusterSystem::reset_stats`]: each key the ring at some
    /// outage's start mapped to the target that went down. Counted when
    /// asked, over the namespace as it stands, so a key first written
    /// after its owner went down counts too.
    pub fn mapped_degraded_fraction(&self) -> f64 {
        let outages = self.outages.iter().map(|(down, ring)| (*down, ring));
        self.namespace_fraction(self.keys_mapped_to(outages))
    }

    /// The cluster's resilience counters, the cluster-level view of
    /// [`crate::CacheSystem::resilience`]: the cluster health label, its
    /// own rejected events and migration-throttle counters, and every
    /// node's counters merged ([`ResilienceSnapshot::merge`]).
    pub fn resilience(&self) -> ResilienceSnapshot {
        let mut resilience = ResilienceSnapshot {
            health: self.health_label(self.down_targets()),
            health_transitions: 0,
            shed_requests: 0,
            write_throughs: 0,
            bypassed_fills: 0,
            rejected_events: self.rejections.total(),
            rejected_events_by_reason: self.rejections.rows(),
            internal_errors: 0,
            throttle_stalls: self.throttle.stalls,
            rebuild_throttle_bytes: self.throttle.bytes,
            ttr_us: [-1; 4],
        };
        for node in &self.nodes {
            resilience.merge(&node.system.resilience());
        }
        resilience
    }

    /// Targets down now.
    fn down_targets(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == TargetState::Down)
            .count()
    }

    /// [`ClusterHealth::label`] with `down` targets down — no walk of the
    /// namespace.
    fn health_label(&self, down: usize) -> String {
        if down > 0 {
            format!("degraded({down}/{})", self.ring.len())
        } else if self
            .nodes
            .iter()
            .filter(|n| n.state == TargetState::Up)
            .any(|n| n.system.health() != crate::HealthState::Healthy)
            || !self.migrations.is_empty()
        {
            "recovering".to_string()
        } else {
            "healthy".to_string()
        }
    }

    /// The cluster-level health view. Its `degraded_fraction` walks the
    /// namespace while a target is down.
    pub fn health(&self) -> ClusterHealth {
        let members = self.ring.len();
        let down = self.down_targets();
        let mapped_down = if down == 0 {
            0
        } else {
            let down_now = self
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.state == TargetState::Down)
                .map(|(t, _)| (TargetId(t), &self.ring));
            self.keys_mapped_to(down_now)
        };
        ClusterHealth {
            members,
            up: members - down,
            down,
            degraded_fraction: self.namespace_fraction(mapped_down),
            label: self.health_label(down),
        }
    }

    /// Current flash-capacity split across up members: primary bytes
    /// (owner-cached user objects), replica bytes (non-owner cached
    /// copies), and parity bytes (`size × m / k` per covered,
    /// owner-cached stripe) — the equal-budget sweep's overhead ledger.
    pub fn flash_overhead(&self) -> FlashOverheadReport {
        // Parity shards are virtual; real copies are counted where
        // they are cached.
        let parity_per_byte = if self.policy.stripes() {
            self.policy.overhead()
        } else {
            0.0
        };
        let mut report = FlashOverheadReport::default();
        for (i, node) in self.nodes.iter().enumerate() {
            if node.state != TargetState::Up {
                continue;
            }
            for (key, size) in node.system.cached_user_entries() {
                let bytes = size.as_bytes();
                if self.ring.target_of(key) != Some(TargetId(i)) {
                    report.replica_bytes += bytes;
                    continue;
                }
                report.primary_bytes += bytes;
                if self.ledger.contains_key(&key) {
                    report.parity_bytes += (bytes as f64 * parity_per_byte).round() as u64;
                }
            }
        }
        report
    }

    /// Resets all measurement state (end of warm-up): per-target
    /// request counters, the degraded-namespace ledgers (observed keys
    /// and the outage log), every node's metrics, and the cluster's own
    /// counters. Membership, caches, per-target outage counts and rebuild
    /// windows, and pending migrations are untouched.
    pub fn reset_stats(&mut self) {
        let now = self.merge_clocks();
        for node in &mut self.nodes {
            let row = &mut node.row;
            *row = TargetMetricsRow {
                target: row.target,
                outages: row.outages,
                rebuild_window_us: row.rebuild_window_us,
                migrated_in: row.migrated_in,
                migrated_out: row.migrated_out,
                ..TargetMetricsRow::default()
            };
            node.system.metrics_mut().reset_all(now);
        }
        self.degraded_keys.clear();
        self.outages.clear();
        self.throttle.stalls = 0;
        self.throttle.bytes = 0;
        self.stats = RedundancySnapshot::default();
        // Observability state restarts with measurement: warm-up spans,
        // exemplars, flight events, and postmortems would otherwise leak
        // into the measured pass.
        self.tracer.reset();
        self.flight.reset();
    }

    /// One row per created target: the blast-radius view
    /// ([`TargetMetricsRow`]).
    pub fn target_rows(&self) -> Vec<TargetMetricsRow> {
        self.nodes
            .iter()
            .map(|node| TargetMetricsRow {
                health: match node.state {
                    TargetState::Up => node.system.health().label(),
                    other => other.label().to_string(),
                },
                ..node.row.clone()
            })
            .collect()
    }

    /// Aggregated measurements across the cluster with per-target rows
    /// filled in. Counters are exact sums over node metrics (outage
    /// serves are recorded into the owning node as external samples, so
    /// the sums cover them and the SLO monitor saw them too); the mean
    /// latency is request-weighted and the p99 is the max over nodes — a
    /// kept upper bound: per-node histograms *can* be merged exactly
    /// ([`reo_sim::Histogram::merge`]), and doing so moves every cluster
    /// artifact, so it lands alone (ROADMAP, "exact cluster p99").
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        let mut weighted_mean_nanos = 0u128;
        for node in &self.nodes {
            let s = node.system.metrics().totals();
            agg.combine(&s, u64::add);
            agg.elapsed = agg.elapsed.max(s.elapsed);
            agg.p99_latency = agg.p99_latency.max(s.p99_latency);
            weighted_mean_nanos += s.mean_latency.as_nanos() as u128 * s.requests as u128;
        }
        // One failover counter; the snapshot keeps a column per
        // mechanism, and the policy says which one served.
        if self.policy.data == 1 {
            agg.served_by_replica = self.stats.failover_serves;
        } else {
            agg.served_by_parity = self.stats.failover_serves;
        }
        if agg.requests > 0 {
            agg.mean_latency =
                SimDuration::from_nanos((weighted_mean_nanos / agg.requests as u128) as u64);
        }
        agg.slos = self.merged_slos();
        agg.targets = self.target_rows();
        agg
    }

    /// Folds every node's per-class SLO rows into cluster rows: raw
    /// counters add exactly ([`SloSnapshot::merge`]), and the derived
    /// burn rates are recomputed from the merged counters. Rows keep
    /// [`CLASS_LABELS`] order.
    fn merged_slos(&self) -> Vec<SloSnapshot> {
        let mut merged: Vec<Option<SloSnapshot>> = vec![None; CLASS_LABELS.len()];
        for node in &self.nodes {
            for row in node.system.metrics().slos() {
                let slot = CLASS_LABELS
                    .iter()
                    .position(|&l| l == row.class)
                    .expect("SLO row uses a known class label");
                match &mut merged[slot] {
                    Some(agg) => agg.merge(&row),
                    slot @ None => *slot = Some(row),
                }
            }
        }
        merged.into_iter().flatten().collect()
    }
}
