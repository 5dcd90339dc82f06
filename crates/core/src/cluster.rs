//! Multi-target scale-out: N cache nodes behind a deterministic
//! placement layer.
//!
//! A [`ClusterSystem`] grows the single-box [`CacheSystem`] into a
//! cluster: every member target is a complete cache node (its own flash
//! array, OSD target, journal, cache manager, backend view, and
//! virtual clock), and a seeded [`PlacementRing`] maps each object key
//! to exactly one owner. The design goals, in order:
//!
//! * **Blast-radius containment** — a target outage flips *only its
//!   mapped objects* to backend-first degraded service (honest
//!   [`SenseCode::RecoveredError`] / [`SenseCode::NotReady`] sense
//!   codes, never a panic); unaffected targets keep serving at full
//!   fidelity with an unchanged sense-code mix.
//! * **No acknowledged-write loss** — node outage is modeled as a
//!   power loss ([`CacheSystem::crash`]): the node's journal survives,
//!   so a returning (or replacement) target recovers via journal
//!   replay plus *ring-delta* invalidation of exactly the keys that
//!   were overwritten behind its back — never a full rescan. Writes
//!   during the outage land durably on the backend tier first.
//! * **Throttled rebalancing** — membership changes enqueue object
//!   migrations that drain through the same QoS token-bucket
//!   discipline the rebuild path uses
//!   ([`SystemConfig::rebuild_bandwidth_pct`]), so rebalance traffic
//!   cannot starve on-demand requests.
//! * **Determinism** — each node's fault stream derives from the
//!   experiment seed and its target id
//!   ([`FaultPlan::derive_stream_seed`]), routing is a pure function of
//!   the seeded ring, all bookkeeping lives in ordered containers, and
//!   per-target virtual clocks are merged to their max at request
//!   barriers — equal seeds replay byte-identical cluster histories.
//! * **Full-speed failover** — with a [`ReplicationPolicy`], acked
//!   writes fan out to the key's ring replica set at the request
//!   barrier (stamped with an authoritative content version), so a
//!   target outage routes its range to a peer's *cache* (`replica-serve`)
//!   instead of degrading to backend-first; an anti-entropy pass
//!   piggybacked on the request cadence compares version stamps and
//!   repairs diverged replicas, and a restore runs failback as
//!   ring-delta reconciliation through the same QoS token bucket the
//!   rebuild path uses. The default policy is
//!   [`ReplicationPolicy::none`], which keeps single-copy semantics
//!   byte-identical to the pre-replication cluster.
//!
//! The backend tier (the `origin` store plus each node's mirror of the
//! key map) survives node outages by construction: it is the durable
//! home the cache sits in front of, exactly as in the single-node
//! model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use reo_backend::BackendStore;
use reo_erasure::ReedSolomon;
use reo_flashsim::{DeviceId, FaultPlan};
use reo_osd::{ObjectClass, ObjectKey, SenseCode};
use reo_placement::{mix64, ParityGroupMap, PlacementRing, TargetId};
use reo_sim::{
    ByteSize, FlightRecorder, Layer, SimClock, SimDuration, SimTime, TokenBucket, Tracer,
};
use reo_workload::{Operation, Request, Trace, WorkloadObject};

use crate::config::SystemConfig;
use crate::metrics::{MetricsSnapshot, RequestSample, SloSnapshot, TargetMetricsRow, CLASS_LABELS};
use crate::runner::{ExperimentPlan, PlannedEvent};
use crate::system::{backend_sense, CacheSystem, RequestOutcome};

/// Requests between piggybacked anti-entropy steps (the cluster-level
/// analog of the scrubber cursor's cadence).
const ANTI_ENTROPY_PERIOD: u64 = 16;

/// Replicated keys examined per anti-entropy step.
const ANTI_ENTROPY_BUDGET: usize = 32;

/// Per-class cross-target replication factors (total copies including
/// the primary; `1` = no replication for that class). The policy maps
/// the paper's per-class redundancy idea onto the cluster: scan-class
/// clean data is cheap to refetch (no replicas), hot read classes earn
/// a second cache copy for full-speed failover, and dirty metadata is
/// replicated ahead of its journal-backed flush so an outage does not
/// drop its range to backend-first service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicationPolicy {
    /// Copies of replicated-metadata-class objects.
    pub metadata: usize,
    /// Copies of dirty (write-back) objects.
    pub dirty: usize,
    /// Copies of hot clean objects.
    pub hot_clean: usize,
    /// Copies of cold clean objects (scan class — usually 1).
    pub cold_clean: usize,
}

impl ReplicationPolicy {
    /// No replication anywhere: single-copy semantics, byte-identical
    /// to the pre-replication cluster. The default.
    pub fn none() -> Self {
        ReplicationPolicy {
            metadata: 1,
            dirty: 1,
            hot_clean: 1,
            cold_clean: 1,
        }
    }

    /// The reference policy: 2-way for everything that hurts on an
    /// outage (metadata, dirty, hot clean), single-copy for the scan
    /// class whose misses the backend absorbs cheaply.
    pub fn two_way() -> Self {
        ReplicationPolicy {
            metadata: 2,
            dirty: 2,
            hot_clean: 2,
            cold_clean: 1,
        }
    }

    /// Uniform `n`-way replication for every class (sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn n_way(n: usize) -> Self {
        assert!(n > 0, "a replication factor counts the primary copy");
        ReplicationPolicy {
            metadata: n,
            dirty: n,
            hot_clean: n,
            cold_clean: n,
        }
    }

    /// The factor for one serving class. Unknown (`None`) classes are
    /// writes not yet classified or backend-first serves: treat them as
    /// dirty, the most conservative class.
    pub fn factor_for(&self, class: Option<ObjectClass>) -> usize {
        match class {
            Some(ObjectClass::Metadata) => self.metadata,
            Some(ObjectClass::Dirty) | None => self.dirty,
            Some(ObjectClass::HotClean) => self.hot_clean,
            Some(ObjectClass::ColdClean) => self.cold_clean,
        }
    }

    /// The largest factor any class uses (`1` = replication off).
    pub fn max_factor(&self) -> usize {
        self.metadata
            .max(self.dirty)
            .max(self.hot_clean)
            .max(self.cold_clean)
            .max(1)
    }

    /// `true` when at least one class keeps more than one copy.
    pub fn enabled(&self) -> bool {
        self.max_factor() > 1
    }
}

impl Default for ReplicationPolicy {
    fn default() -> Self {
        ReplicationPolicy::none()
    }
}

/// Cumulative replication counters, exported as the `replication`
/// record.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationSnapshot {
    /// Requests for a down target's range served at full speed from a
    /// replica holder's cache.
    pub replica_serves: u64,
    /// Acked writes fanned out to at least one replica holder.
    pub fanout_writes: u64,
    /// Replica copies refreshed (admitted or re-stamped) by the fan-out.
    pub fanout_refreshes: u64,
    /// Replica divergences injected by
    /// [`PlannedEvent::InjectReplicaDivergence`].
    pub divergences_injected: u64,
    /// Diverged replica copies detected (anti-entropy compare, read-path
    /// version check, or healed by a newer write's fan-out).
    pub divergences_detected: u64,
    /// Diverged replica copies repaired (refreshed to the authoritative
    /// version, or invalidated when no longer a holder).
    pub divergences_repaired: u64,
    /// Completed anti-entropy passes over the replicated namespace.
    pub anti_entropy_passes: u64,
    /// Completed failback reconciliations (restored target re-warmed
    /// through the QoS token bucket).
    pub failbacks_completed: u64,
}

/// Per-class cross-target parity-group protection: targets partition
/// into seeded groups of `data + parity` members
/// ([`ParityGroupMap`]), and each protected cached object's stripe
/// spans its owner's group — `data` co-located cache extents plus
/// `parity` erasure shards. A downed member's range keeps serving at
/// cache speed by degraded reconstruction from the surviving group
/// members, for `parity / data` extra flash instead of replication's
/// `(n-1)×`. Up to `parity` concurrent member outages are absorbed;
/// beyond that the range degrades honestly to backend-first service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityGroupPolicy {
    /// Data shards per group (`k`).
    pub data: usize,
    /// Parity shards per group (`m` — the outage tolerance).
    pub parity: usize,
    /// Protect replicated-metadata-class objects.
    pub metadata: bool,
    /// Protect dirty (write-back) objects.
    pub dirty: bool,
    /// Protect hot clean objects.
    pub hot_clean: bool,
    /// Protect cold clean objects (scan class — usually not).
    pub cold_clean: bool,
}

impl ParityGroupPolicy {
    /// No parity protection anywhere: byte-identical to the
    /// pre-parity cluster. The default.
    pub fn none() -> Self {
        ParityGroupPolicy {
            data: 1,
            parity: 0,
            metadata: false,
            dirty: false,
            hot_clean: false,
            cold_clean: false,
        }
    }

    /// The reference policy: `k + m` groups protecting every class
    /// that hurts on an outage (metadata, dirty, hot clean), leaving
    /// the scan class to the backend.
    ///
    /// # Panics
    ///
    /// Panics if `data` is zero.
    pub fn reo(data: usize, parity: usize) -> Self {
        assert!(data > 0, "a parity group needs at least one data shard");
        ParityGroupPolicy {
            data,
            parity,
            metadata: true,
            dirty: true,
            hot_clean: true,
            cold_clean: false,
        }
    }

    /// `k + m` groups protecting every class (sweep experiments).
    ///
    /// # Panics
    ///
    /// Panics if `data` is zero.
    pub fn uniform(data: usize, parity: usize) -> Self {
        assert!(data > 0, "a parity group needs at least one data shard");
        ParityGroupPolicy {
            metadata: true,
            dirty: true,
            hot_clean: true,
            cold_clean: true,
            ..ParityGroupPolicy::reo(data, parity)
        }
    }

    /// Whether the policy protects one serving class. Unknown (`None`)
    /// classes are writes not yet classified: treat them as dirty, the
    /// most conservative class (same rule as
    /// [`ReplicationPolicy::factor_for`]).
    pub fn protects(&self, class: Option<ObjectClass>) -> bool {
        if self.parity == 0 {
            return false;
        }
        match class {
            Some(ObjectClass::Metadata) => self.metadata,
            Some(ObjectClass::Dirty) | None => self.dirty,
            Some(ObjectClass::HotClean) => self.hot_clean,
            Some(ObjectClass::ColdClean) => self.cold_clean,
        }
    }

    /// `true` when at least one class is protected with real parity.
    pub fn enabled(&self) -> bool {
        self.parity > 0 && (self.metadata || self.dirty || self.hot_clean || self.cold_clean)
    }

    /// The flash-capacity overhead fraction the policy pays per
    /// protected byte: `m / k` (vs. replication's `factor - 1`).
    pub fn overhead(&self) -> f64 {
        self.parity as f64 / self.data as f64
    }
}

impl Default for ParityGroupPolicy {
    fn default() -> Self {
        ParityGroupPolicy::none()
    }
}

/// Cumulative parity-group counters, exported as the `parity_group`
/// record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParityGroupSnapshot {
    /// Reads of a down target's range answered by degraded erasure
    /// reconstruction from its surviving group peers, at cache speed.
    pub parity_serves: u64,
    /// Stripe (re-)encodes: acked writes whose protected class updated
    /// the owner group's parity coverage.
    pub stripe_updates: u64,
    /// Coverage entries dropped because a stripe could no longer match
    /// the authoritative content (write behind a down owner, or group
    /// membership change re-striping the group).
    pub coverage_invalidations: u64,
    /// Object bytes rebuilt by degraded reconstruction.
    pub reconstructed_bytes: u64,
    /// Repair moves drained through the rebuild QoS token bucket
    /// (peer shard re-syncs plus owner re-covers) after restores.
    pub repair_warms: u64,
    /// Completed group-aware repairs (a restored target's redundancy
    /// fully re-established).
    pub repairs_completed: u64,
    /// Reads of a down target's covered range that exceeded the
    /// group's tolerance (more than `m` members lost) and degraded
    /// honestly to backend-first service.
    pub beyond_tolerance_serves: u64,
    /// Per-class time-to-restored-redundancy of the latest completed
    /// repair, microseconds (`[metadata, dirty, hot_clean,
    /// cold_clean]`; `-1` until a class completes a repair).
    pub ttr_us: [i64; 4],
}

impl Default for ParityGroupSnapshot {
    fn default() -> Self {
        ParityGroupSnapshot {
            parity_serves: 0,
            stripe_updates: 0,
            coverage_invalidations: 0,
            reconstructed_bytes: 0,
            repair_warms: 0,
            repairs_completed: 0,
            beyond_tolerance_serves: 0,
            ttr_us: [-1; 4],
        }
    }
}

/// Flash-capacity accounting across the cluster's up members, split
/// into primary bytes (owner-cached user objects) and the two
/// redundancy flavors — what the equal-budget replication-vs-parity
/// sweep reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlashOverheadReport {
    /// Cached user bytes held by their ring owner.
    pub primary_bytes: u64,
    /// Cached user bytes held as replica copies (replication policy).
    pub replica_bytes: u64,
    /// Parity-shard bytes held for covered stripes (`size × m / k` per
    /// covered, owner-cached object).
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

/// Per-key parity-coverage state: the stripe's content version, the
/// class bucket it was encoded under, and the group members whose
/// shards missed an update (down at encode time) and need a repair
/// re-sync before they can serve reconstructions again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ParityCoverage {
    version: u64,
    class_bucket: u8,
    stale: BTreeSet<usize>,
}

/// What a queued migration is for: ring-delta rebalancing after a
/// membership change, failback reconciliation toward a restored
/// replica holder, or a parity-group repair re-establishing a restored
/// member's redundancy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MigrationKind {
    Rebalance,
    Failback,
    Repair,
}

/// Cluster-level lifecycle state of one target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetState {
    /// Serving its mapped range at full fidelity.
    Up,
    /// Crashed (node-level power loss): its mapped range is served
    /// backend-first until a restore.
    Down,
    /// Gracefully retired: flushed, drained, and dropped from the ring.
    Removed,
}

impl TargetState {
    fn label(self) -> &'static str {
        match self {
            TargetState::Up => "up",
            TargetState::Down => "down",
            TargetState::Removed => "removed",
        }
    }
}

/// Per-target request counters kept by the cluster router (the node's
/// own [`crate::Metrics`] only see requests the node handled itself;
/// these rows also cover outage-window degraded serves).
#[derive(Clone, Debug, Default)]
struct TargetStats {
    requests: u64,
    reads: u64,
    read_hits: u64,
    degraded_reads: u64,
    shed: u64,
    /// The subset of `requests` served at full speed from a replica
    /// holder's cache while this (owning) target was down.
    replica_serves: u64,
    /// The subset of `reads` answered by degraded erasure
    /// reconstruction from this (owning, down) target's group peers.
    parity_serves: u64,
    sense_mix: BTreeMap<&'static str, u64>,
}

/// One member node: a full cache system plus its cluster-level state.
#[derive(Clone, Debug)]
struct Node {
    system: CacheSystem,
    state: TargetState,
    stats: TargetStats,
    /// Keys acknowledged on the backend tier while this node was down —
    /// the exact invalidation delta its restore must apply.
    written_while_down: BTreeSet<ObjectKey>,
    outages: u64,
    outage_started: Option<SimTime>,
    /// Duration of the latest fail→restore window, microseconds; `-1`
    /// until the first completed window.
    rebuild_window_us: i64,
    migrated_in: u64,
    migrated_out: u64,
    /// Failback warms still pending for this target after a restore
    /// (replication only); `failback-complete` fires when it hits zero.
    failback_pending: u64,
    /// Parity repairs still pending for this target after a restore;
    /// `parity-repair-complete` fires when it hits zero.
    repair_pending: u64,
    /// The per-class split of `repair_pending` (class buckets in
    /// [`CLASS_LABELS`] order, `uncached` excluded) — each class's
    /// time-to-restored-redundancy stops when its bucket drains.
    repair_pending_by_class: [u64; 4],
    /// When the pending repair was queued (restore time).
    repair_started: Option<SimTime>,
}

impl Node {
    fn new(system: CacheSystem) -> Self {
        Node {
            system,
            state: TargetState::Up,
            stats: TargetStats::default(),
            written_while_down: BTreeSet::new(),
            outages: 0,
            outage_started: None,
            rebuild_window_us: -1,
            migrated_in: 0,
            migrated_out: 0,
            failback_pending: 0,
            repair_pending: 0,
            repair_pending_by_class: [0; 4],
            repair_started: None,
        }
    }
}

/// One pending rebalance/failback/repair move. `to == None` warms the
/// key's current ring owner (membership rebalancing); `to == Some(t)`
/// is a failback warm or parity repair toward a restored target `t`
/// (which may hold the key as a replica or group shard, not the
/// primary).
#[derive(Clone, Copy, Debug)]
struct Migration {
    key: ObjectKey,
    from: Option<usize>,
    to: Option<usize>,
    kind: MigrationKind,
    /// Class bucket for per-class repair accounting (repairs only).
    class_bucket: u8,
}

/// The cluster-level health view derived from per-target
/// [`crate::HealthState`] machines and lifecycle states.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterHealth {
    /// Current ring members.
    pub members: usize,
    /// Members serving at full fidelity.
    pub up: usize,
    /// Members down (their ranges served backend-first).
    pub down: usize,
    /// Fraction of the known namespace currently mapped to a down
    /// target — the *live* blast radius.
    pub degraded_fraction: f64,
    /// A stable label: `"healthy"`, `"recovering"`, or
    /// `"degraded(<down>/<members>)"`.
    pub label: String,
}

/// Everything one cluster experiment run produced.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterRunResult {
    /// Aggregated measurements with per-target rows filled in
    /// ([`MetricsSnapshot::targets`]).
    pub totals: MetricsSnapshot,
    /// Simulated span of the measured pass (max over per-target
    /// clocks, which are merged at request barriers).
    pub elapsed: SimDuration,
    /// Aggregate requests per simulated second.
    pub aggregate_req_per_sec: f64,
    /// Fraction of the namespace that *ever saw* a degraded response
    /// (degraded read, backend-first serve, medium error, or shed)
    /// during the run.
    pub observed_degraded_fraction: f64,
    /// Fraction of the namespace that was *ever mapped* to a down
    /// target during the run — ring balance makes this ≈ `k/N` for `k`
    /// concurrently failed targets.
    pub mapped_degraded_fraction: f64,
    /// Dirty objects permanently lost, summed over nodes (0 unless
    /// redundancy was exhausted inside a node).
    pub dirty_data_lost: u64,
    /// Objects moved by ring-delta rebalancing.
    pub migrated_objects: u64,
    /// Migration batches stalled by an empty QoS token bucket.
    pub migration_stalls: u64,
    /// Bytes of migration traffic charged against the throttle.
    pub migration_throttle_bytes: u64,
    /// Cluster-level planned events rejected as no-ops.
    pub rejected_events: u64,
    /// Per-reason breakdown of the rejections.
    pub rejected_events_by_reason: Vec<(String, u64)>,
    /// Cluster health label at the end of the run.
    pub health: String,
    /// Replication counters (all zero when the policy is
    /// [`ReplicationPolicy::none`]).
    pub replication: ReplicationSnapshot,
    /// Parity-group counters (all cold when the policy is
    /// [`ParityGroupPolicy::none`]).
    pub parity: ParityGroupSnapshot,
    /// End-of-run flash-capacity split (primary vs. redundancy bytes).
    pub flash_overhead: FlashOverheadReport,
}

/// N cache nodes behind a seeded placement ring (see the module docs).
#[derive(Clone, Debug)]
pub struct ClusterSystem {
    /// Per-node configuration template (each node gets a derived fault
    /// seed).
    config: SystemConfig,
    seed: u64,
    ring: PlacementRing,
    nodes: Vec<Node>,
    /// The durable origin store behind every cache node: outage-window
    /// requests are served/acknowledged here first.
    origin: BackendStore,
    origin_clock: SimClock,
    /// The authoritative key → size map of the namespace.
    objects: BTreeMap<ObjectKey, ByteSize>,
    /// Pending rebalance/failback moves.
    migrations: VecDeque<Migration>,
    migration_throttle: Option<TokenBucket>,
    migration_stalls: u64,
    migration_throttle_bytes: u64,
    migrated_objects: u64,
    /// Keys that ever received a degraded-mode response.
    degraded_keys: BTreeSet<ObjectKey>,
    /// Keys that were ever mapped to a down target.
    mapped_degraded: BTreeSet<ObjectKey>,
    rejected_events: u64,
    rejected_by_reason: BTreeMap<&'static str, u64>,
    measure_started: SimTime,
    /// One shared `reo-trace` recorder across every node: cluster-level
    /// [`Layer::Placement`] spans root each request's trace tree, and the
    /// owning node's spans nest under them.
    tracer: Tracer,
    /// One shared black-box ring across every node; each node records
    /// through a handle tagged with its target id.
    flight: FlightRecorder,
    /// Per-class cross-target replication factors (default: none).
    replication: ReplicationPolicy,
    /// Authoritative content versions of the replicated namespace:
    /// `key → (version, factor)`, bumped by every acked write whose
    /// class replicates. Replica copies are stamped with the version at
    /// fan-out time; anti-entropy compares stamps against this map.
    versions: BTreeMap<ObjectKey, (u64, usize)>,
    /// Replica copies deliberately rolled back by
    /// [`PlannedEvent::InjectReplicaDivergence`], as `(key, target)` —
    /// the ledger the 100%-detection acceptance check audits.
    injected_divergences: BTreeSet<(ObjectKey, usize)>,
    /// Divergence-injection rounds applied (salts the seeded draws).
    injection_rounds: u64,
    /// Resume point of the bounded anti-entropy walk (`None` at pass
    /// boundaries, like the scrubber cursor).
    anti_entropy_cursor: Option<ObjectKey>,
    /// Requests handled since construction (anti-entropy cadence).
    requests_handled: u64,
    repl_stats: ReplicationSnapshot,
    /// Per-class parity-group protection (default: none).
    parity: ParityGroupPolicy,
    /// Seeded target → parity-group partition (empty unless the policy
    /// is enabled).
    parity_groups: ParityGroupMap,
    /// The `k + m` systematic Reed–Solomon codec degraded serves
    /// reconstruct through (its per-erasure-pattern decode plans are
    /// cached, so steady-state outage serves skip the matrix inversion).
    parity_codec: Option<ReedSolomon>,
    /// Per-key stripe coverage: which protected keys are currently
    /// erasure-coded across their owner's group, at which version, and
    /// which members' shards are stale (missed an encode while down).
    parity_coverage: BTreeMap<ObjectKey, ParityCoverage>,
    parity_stats: ParityGroupSnapshot,
}

impl ClusterSystem {
    /// Builds a cluster of `targets` nodes from a per-node
    /// configuration. The placement seed and every node's fault-stream
    /// seed derive from [`SystemConfig::fault_seed`], so equal
    /// configurations replay identical cluster histories.
    ///
    /// # Panics
    ///
    /// Panics if `targets` is zero (a cluster needs at least one node).
    pub fn new(config: SystemConfig, targets: usize) -> Self {
        assert!(targets > 0, "a cluster needs at least one target");
        let seed = config.fault_seed;
        let origin_clock = SimClock::new();
        let tracer = Tracer::new();
        let mut origin = BackendStore::new(config.backend, origin_clock.clone());
        origin.set_tracer(tracer.clone());
        let mut cluster = ClusterSystem {
            config,
            seed,
            ring: PlacementRing::new(seed),
            nodes: Vec::new(),
            origin,
            origin_clock,
            objects: BTreeMap::new(),
            migrations: VecDeque::new(),
            migration_throttle: None,
            migration_stalls: 0,
            migration_throttle_bytes: 0,
            migrated_objects: 0,
            degraded_keys: BTreeSet::new(),
            mapped_degraded: BTreeSet::new(),
            rejected_events: 0,
            rejected_by_reason: BTreeMap::new(),
            measure_started: SimTime::ZERO,
            tracer,
            flight: FlightRecorder::new(),
            replication: ReplicationPolicy::none(),
            versions: BTreeMap::new(),
            injected_divergences: BTreeSet::new(),
            injection_rounds: 0,
            anti_entropy_cursor: None,
            requests_handled: 0,
            repl_stats: ReplicationSnapshot::default(),
            parity: ParityGroupPolicy::none(),
            parity_groups: ParityGroupMap::new(seed, 1, 0),
            parity_codec: None,
            parity_coverage: BTreeMap::new(),
            parity_stats: ParityGroupSnapshot::default(),
        };
        for _ in 0..targets {
            cluster.add_target();
        }
        cluster
    }

    /// The per-node configuration template.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Sets the per-class replication policy. Takes effect for writes
    /// acked from now on; already-cached single copies replicate
    /// lazily as they are next written.
    pub fn set_replication_policy(&mut self, policy: ReplicationPolicy) {
        self.replication = policy;
    }

    /// Builder-style [`ClusterSystem::set_replication_policy`].
    pub fn with_replication_policy(mut self, policy: ReplicationPolicy) -> Self {
        self.set_replication_policy(policy);
        self
    }

    /// The active replication policy.
    pub fn replication_policy(&self) -> ReplicationPolicy {
        self.replication
    }

    /// Cumulative replication counters.
    pub fn replication_snapshot(&self) -> ReplicationSnapshot {
        self.repl_stats
    }

    /// Sets the parity-group protection policy: current ring members
    /// are partitioned into seeded `k + m` groups and protected-class
    /// content starts striping as it is next written (existing cached
    /// copies gain coverage lazily, like replication).
    pub fn set_parity_policy(&mut self, policy: ParityGroupPolicy) {
        self.parity = policy;
        self.parity_groups = ParityGroupMap::new(self.seed, policy.data, policy.parity);
        self.parity_codec = None;
        if !self.parity_coverage.is_empty() {
            self.parity_stats.coverage_invalidations += self.parity_coverage.len() as u64;
            self.parity_coverage.clear();
        }
        if policy.enabled() {
            for t in self.ring.targets() {
                self.parity_groups.add_target(t);
            }
            self.parity_codec = Some(
                ReedSolomon::new(policy.data, policy.parity)
                    .expect("parity policy is a valid codec geometry"),
            );
        }
    }

    /// Builder-style [`ClusterSystem::set_parity_policy`].
    pub fn with_parity_policy(mut self, policy: ParityGroupPolicy) -> Self {
        self.set_parity_policy(policy);
        self
    }

    /// The active parity-group policy.
    pub fn parity_policy(&self) -> ParityGroupPolicy {
        self.parity
    }

    /// Cumulative parity-group counters.
    pub fn parity_snapshot(&self) -> ParityGroupSnapshot {
        self.parity_stats
    }

    /// The seeded target → parity-group partition (empty unless the
    /// policy is enabled).
    pub fn parity_groups(&self) -> &ParityGroupMap {
        &self.parity_groups
    }

    /// Current flash-capacity split across up members: primary bytes
    /// (owner-cached user objects), replica bytes (non-owner cached
    /// copies), and parity bytes (`size × m / k` per covered,
    /// owner-cached stripe) — the equal-budget sweep's overhead ledger.
    pub fn flash_overhead(&self) -> FlashOverheadReport {
        let cached: Vec<Option<BTreeMap<ObjectKey, ByteSize>>> = self
            .nodes
            .iter()
            .map(|n| {
                (n.state == TargetState::Up)
                    .then(|| n.system.cached_user_entries().into_iter().collect())
            })
            .collect();
        let mut report = FlashOverheadReport::default();
        for (i, entries) in cached.iter().enumerate() {
            let Some(entries) = entries else { continue };
            for (&key, &size) in entries {
                if self.ring.target_of(key) == Some(TargetId(i)) {
                    report.primary_bytes += size.as_bytes();
                } else {
                    report.replica_bytes += size.as_bytes();
                }
            }
        }
        if self.parity.enabled() {
            let overhead = self.parity.overhead();
            for &key in self.parity_coverage.keys() {
                let Some(owner) = self.ring.target_of(key) else {
                    continue;
                };
                let holds = cached[owner.0]
                    .as_ref()
                    .and_then(|entries| entries.get(&key));
                if let Some(size) = holds {
                    report.parity_bytes += (size.as_bytes() as f64 * overhead).round() as u64;
                }
            }
        }
        report
    }

    /// Turns cluster-wide request tracing on: one shared recorder spans
    /// every node, and the cluster's own [`Layer::Placement`] span roots
    /// each request's trace tree.
    pub fn enable_tracing(&mut self) {
        self.tracer.set_enabled(true);
    }

    /// The shared tracer handle (disabled unless
    /// [`ClusterSystem::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The shared black-box flight recorder (always on).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The placement ring (read-only).
    pub fn ring(&self) -> &PlacementRing {
        &self.ring
    }

    /// Targets ever created (including removed ones; ring membership is
    /// [`PlacementRing::len`]).
    pub fn targets_created(&self) -> usize {
        self.nodes.len()
    }

    /// One member node's cache system, for assertions.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never created.
    pub fn node(&self, t: usize) -> &CacheSystem {
        &self.nodes[t].system
    }

    /// One member node's cluster-level lifecycle state.
    ///
    /// # Panics
    ///
    /// Panics if `t` was never created.
    pub fn target_state(&self, t: usize) -> TargetState {
        self.nodes[t].state
    }

    /// The durable origin store (for assertions about outage-window
    /// writes).
    pub fn origin(&self) -> &BackendStore {
        &self.origin
    }

    /// Current cluster-wide simulated time: the max over every member
    /// clock (clocks are merged to this value at request barriers).
    pub fn now(&self) -> SimTime {
        let mut t = self.origin_clock.now();
        for node in &self.nodes {
            t = t.max(node.system.clock().now());
        }
        t
    }

    /// Advances every member clock (and the origin's) to the cluster
    /// max — the per-target virtual-clock merge that keeps discrete
    /// time deterministic across nodes. Returns the merged instant.
    fn merge_clocks(&mut self) -> SimTime {
        let t = self.now();
        for node in &self.nodes {
            node.system.clock().advance_to(t);
        }
        self.origin_clock.advance_to(t);
        t
    }

    /// Records one rejected cluster event under a stable reason label
    /// (and into the flight recorder — a rejected event near a trigger
    /// is exactly what a post-mortem wants to show).
    fn reject(&mut self, reason: &'static str) {
        self.rejected_events += 1;
        *self.rejected_by_reason.entry(reason).or_insert(0) += 1;
        self.flight.record(self.now(), "rejected-event", reason);
    }

    /// Cluster-level planned events rejected so far.
    pub fn rejected_events(&self) -> u64 {
        self.rejected_events
    }

    /// Per-reason breakdown of rejected cluster events.
    pub fn rejected_events_by_reason(&self) -> Vec<(String, u64)> {
        self.rejected_by_reason
            .iter()
            .map(|(&r, &n)| (r.to_string(), n))
            .collect()
    }

    /// Loads the authoritative data set into the cluster: the origin
    /// store, every node's backend mirror, and the key → size map.
    pub fn populate(&mut self, objects: &[WorkloadObject]) {
        for o in objects {
            self.objects.insert(o.key, o.size);
            self.origin.insert(o.key, o.size, None);
            for node in &mut self.nodes {
                node.system.mirror_backend_object(o.key, o.size);
            }
        }
    }

    /// Dirty objects permanently lost, summed over all nodes.
    pub fn dirty_data_lost(&self) -> u64 {
        self.nodes.iter().map(|n| n.system.dirty_data_lost()).sum()
    }

    /// Pending rebalance moves.
    pub fn pending_migrations(&self) -> usize {
        self.migrations.len()
    }

    /// Fraction of the known namespace that ever received a degraded
    /// response.
    pub fn observed_degraded_fraction(&self) -> f64 {
        if self.objects.is_empty() {
            0.0
        } else {
            self.degraded_keys.len() as f64 / self.objects.len() as f64
        }
    }

    /// Fraction of the known namespace ever mapped to a down target.
    pub fn mapped_degraded_fraction(&self) -> f64 {
        if self.objects.is_empty() {
            0.0
        } else {
            self.mapped_degraded.len() as f64 / self.objects.len() as f64
        }
    }

    /// The cluster-level health view.
    pub fn health(&self) -> ClusterHealth {
        let members = self.ring.len();
        let down = self
            .nodes
            .iter()
            .filter(|n| n.state == TargetState::Down)
            .count();
        let up = members - down;
        let live_degraded = if self.objects.is_empty() || down == 0 {
            0.0
        } else {
            let mapped_down = self
                .objects
                .keys()
                .filter(|&&k| {
                    self.ring
                        .target_of(k)
                        .is_some_and(|t| self.nodes[t.0].state == TargetState::Down)
                })
                .count();
            mapped_down as f64 / self.objects.len() as f64
        };
        let label = if down > 0 {
            format!("degraded({down}/{members})")
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
        };
        ClusterHealth {
            members,
            up,
            down,
            degraded_fraction: live_degraded,
            label,
        }
    }

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
        let mut node = Node::new(system);
        for (&key, &size) in &self.objects {
            node.system.mirror_backend_object(key, size);
        }
        let prev = self.ring.clone();
        self.ring.add_target(t);
        self.nodes.push(node);
        if self.parity.enabled() {
            self.parity_groups.add_target(t);
            // Minimal re-striping: only the one group that gained the
            // newcomer has a changed stripe layout; its members' covered
            // keys re-encode on their next write or repair.
            if let Some(gid) = self.parity_groups.group_of(t) {
                let members = self.parity_groups.members(gid).to_vec();
                self.invalidate_group_coverage(&members, "group gained a member");
            }
        }
        let mut moved = 0u64;
        for key in self.ring.remapped(&prev, self.objects.keys().copied()) {
            let from = prev.target_of(key).map(|x| x.0);
            self.migrations.push_back(Migration {
                key,
                from,
                to: None,
                kind: MigrationKind::Rebalance,
                class_bucket: 0,
            });
            moved += 1;
        }
        self.flight.record(
            now,
            "target-added",
            format!("target {} joined, {moved} keys remapped", t.0),
        );
        t
    }

    /// Drops parity coverage for every covered key owned by one of
    /// `members` — the group's stripe layout changed (join/leave), so
    /// its stripes no longer match and must re-encode. Exactly the
    /// affected group pays; every other group's coverage is untouched
    /// (the cluster-level payoff of the map's minimal-movement rule).
    fn invalidate_group_coverage(&mut self, members: &[TargetId], why: &str) {
        let stale: Vec<ObjectKey> = self
            .parity_coverage
            .keys()
            .filter(|&&k| {
                self.ring
                    .target_of(k)
                    .is_some_and(|owner| members.contains(&owner))
            })
            .copied()
            .collect();
        if stale.is_empty() {
            return;
        }
        let dropped = stale.len() as u64;
        for key in stale {
            self.parity_coverage.remove(&key);
        }
        self.parity_stats.coverage_invalidations += dropped;
        let now = self.now();
        self.flight.record(
            now,
            "parity-coverage-reset",
            format!("{dropped} stripes dropped ({why})"),
        );
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
            self.nodes[t].migrated_out += 1;
        }
        let prev = self.ring.clone();
        self.ring.remove_target(TargetId(t));
        self.nodes[t].state = TargetState::Removed;
        if self.parity.enabled() && self.parity_groups.contains(TargetId(t)) {
            let gid = self.parity_groups.group_of(TargetId(t)).expect("member");
            let members = self.parity_groups.members(gid).to_vec();
            self.parity_groups.remove_target(TargetId(t));
            self.invalidate_group_coverage(&members, "group lost a member");
        }
        let mut moved = 0u64;
        for key in self.ring.remapped(&prev, self.objects.keys().copied()) {
            // A remapped key's stripe group changes with its owner:
            // stale coverage must not serve reconstructions.
            if self.parity_coverage.remove(&key).is_some() {
                self.parity_stats.coverage_invalidations += 1;
            }
            self.migrations.push_back(Migration {
                key,
                from: Some(t),
                to: None,
                kind: MigrationKind::Rebalance,
                class_bucket: 0,
            });
            moved += 1;
        }
        let now = self.merge_clocks();
        self.flight.record(
            now,
            "target-removed",
            format!("target {t} retired, {moved} keys remapped"),
        );
    }

    /// Takes a target down: a node-level power loss. Its DRAM state
    /// vanishes (journal survives on its devices); its mapped objects
    /// flip to backend-first degraded service. Rejected (never a
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
        self.nodes[t].outages += 1;
        self.nodes[t].outage_started = Some(now);
        for &key in self.objects.keys() {
            if self.ring.target_of(key) == Some(TargetId(t)) {
                self.mapped_degraded.insert(key);
            }
        }
        // A member leaving `Up` is the cluster-level analog of a target
        // leaving `Healthy`: capture the lookback window now.
        self.flight
            .record(now, "target-down", format!("target {t} power loss"));
        if self.parity.enabled() {
            if let Some(gid) = self.parity_groups.group_of(TargetId(t)) {
                let lost = self.parity_group_losses(gid);
                if lost > self.parity.parity {
                    self.flight.record(
                        now,
                        "parity-tolerance-exceeded",
                        format!(
                            "group {gid}: {lost} shards lost > m={}, covered range \
                             degrades to backend-first",
                            self.parity.parity
                        ),
                    );
                } else {
                    self.flight.record(
                        now,
                        "parity-group-degraded",
                        format!(
                            "group {gid}: {lost}/{} shards lost, serving by reconstruction",
                            self.parity.parity
                        ),
                    );
                }
            }
        }
        self.flight.dump(now, format!("target-down:{t}"));
    }

    /// Shards of group `gid` unavailable right now, before per-key
    /// staleness: members not `Up` plus phantom shards (a group
    /// narrower than `k + m` never had its tail shards).
    fn parity_group_losses(&self, gid: usize) -> usize {
        let members = self.parity_groups.members(gid);
        let phantom = self.parity_groups.width().saturating_sub(members.len());
        phantom
            + members
                .iter()
                .filter(|m| self.nodes[m.0].state != TargetState::Up)
                .count()
    }

    /// Brings a downed target (or its replacement hardware holding the
    /// same devices and journal) back: journal replay restores the
    /// pre-outage state, then exactly the keys written behind the
    /// outage are invalidated (ring-delta, never a full rescan), and
    /// any keys the ring moved away while it was down are enqueued for
    /// migration. Rejected for targets that are not down; a target
    /// whose journal is unrecoverable stays down (rejected, counted).
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
        let stale: Vec<ObjectKey> = self.nodes[t].written_while_down.iter().copied().collect();
        for &key in &stale {
            self.nodes[t].system.invalidate_cached(key);
            if let Some(&size) = self.objects.get(&key) {
                self.nodes[t].system.mirror_backend_object(key, size);
            }
        }
        self.nodes[t].written_while_down.clear();
        // Membership may have changed while the node was away: hand off
        // keys it no longer owns through the normal migration path.
        // With replication on, "owns" extends to the key's replica set.
        for key in self.nodes[t].system.cached_keys() {
            if !self.holds(key, t) {
                self.migrations.push_back(Migration {
                    key,
                    from: Some(t),
                    to: None,
                    kind: MigrationKind::Rebalance,
                    class_bucket: 0,
                });
            }
        }
        // Failback as ring-delta reconciliation: every key written
        // behind the outage that the returning target still holds
        // (primary or replica) re-warms through the same QoS token
        // bucket the rebuild path uses — a restored node re-enters at
        // full speed without an unthrottled rescan.
        let mut failback = 0u64;
        if self.replication.enabled() {
            for &key in &stale {
                if self.holds(key, t) {
                    self.migrations.push_back(Migration {
                        key,
                        from: None,
                        to: Some(t),
                        kind: MigrationKind::Failback,
                        class_bucket: 0,
                    });
                    failback += 1;
                }
            }
        }
        self.nodes[t].failback_pending = failback;
        // Group-aware repair: redundancy the outage cost is
        // re-established through the same QoS bucket, in two flavors —
        // peer shard re-syncs (stripes that re-encoded behind the
        // returning member's back) and owner re-covers (its own keys
        // whose stripes were invalidated by outage-window writes).
        let mut repairs = 0u64;
        let mut repairs_by_class = [0u64; 4];
        if self.parity.enabled() {
            let resync: Vec<(ObjectKey, u8)> = self
                .parity_coverage
                .iter()
                .filter(|(_, cov)| cov.stale.contains(&t))
                .map(|(&key, cov)| (key, cov.class_bucket))
                .collect();
            for (key, class_bucket) in resync {
                self.migrations.push_back(Migration {
                    key,
                    from: None,
                    to: Some(t),
                    kind: MigrationKind::Repair,
                    class_bucket,
                });
                repairs += 1;
                repairs_by_class[usize::from(class_bucket) % 4] += 1;
            }
            for &key in &stale {
                if self.ring.target_of(key) == Some(TargetId(t))
                    && !self.parity_coverage.contains_key(&key)
                {
                    // Class unknown until the re-warm classifies the
                    // copy: account it as dirty, the conservative bucket.
                    self.migrations.push_back(Migration {
                        key,
                        from: None,
                        to: Some(t),
                        kind: MigrationKind::Repair,
                        class_bucket: 1,
                    });
                    repairs += 1;
                    repairs_by_class[1] += 1;
                }
            }
        }
        self.nodes[t].repair_pending = repairs;
        self.nodes[t].repair_pending_by_class = repairs_by_class;
        self.nodes[t].state = TargetState::Up;
        let now = self.merge_clocks();
        self.nodes[t].repair_started = (repairs > 0).then_some(now);
        if repairs > 0 {
            self.flight.record(
                now,
                "parity-repair-queued",
                format!("target {t}: {repairs} shard repairs through the rebuild throttle"),
            );
        } else if self.parity.enabled() {
            self.parity_stats.repairs_completed += 1;
            self.flight.record(
                now,
                "parity-repair-complete",
                format!("target {t}: redundancy already current"),
            );
        }
        if let Some(started) = self.nodes[t].outage_started.take() {
            self.nodes[t].rebuild_window_us =
                (now.saturating_since(started).as_nanos() / 1_000) as i64;
        }
        self.flight.record(
            now,
            "target-restored",
            format!(
                "target {t} rebuilt in {} us, {failback} failback warms queued",
                self.nodes[t].rebuild_window_us
            ),
        );
        if self.replication.enabled() && failback == 0 {
            self.repl_stats.failbacks_completed += 1;
            self.flight.record(
                now,
                "failback-complete",
                format!("target {t}: nothing to reconcile"),
            );
        }
    }

    /// `true` when target `t` is in `key`'s current replica set (the
    /// primary owner counts; factor comes from the key's recorded
    /// replication entry, single-copy for never-replicated keys).
    fn holds(&self, key: ObjectKey, t: usize) -> bool {
        let factor = self.versions.get(&key).map_or(1, |&(_, f)| f);
        self.ring.replicas_of(key, factor).contains(&TargetId(t))
    }

    /// Serves one request of a downed target's range backend-first:
    /// reads come from the origin store as honest recovered errors,
    /// writes are acknowledged by the origin store and tracked for
    /// ring-delta invalidation at restore time.
    fn serve_degraded(&mut self, t: usize, request: &Request) -> RequestOutcome {
        let start = self.origin_clock.now();
        let (sense, degraded) = match request.op {
            Operation::Read => match self.origin.read(request.key) {
                Ok(_) => (SenseCode::RecoveredError, true),
                Err(e) => (backend_sense(&e), false),
            },
            Operation::Write => match self.origin.write(request.key, request.size, None) {
                Ok(_) => {
                    self.nodes[t].written_while_down.insert(request.key);
                    (SenseCode::Success, false)
                }
                Err(e) => (backend_sense(&e), false),
            },
        };
        let completed_at = self.origin_clock.now();
        let latency = completed_at.saturating_since(start);
        // Record the serve into the owner's metrics as an external
        // sample (class unknown — the node never saw the request), so
        // cluster aggregates stay exact sums over node metrics and the
        // owner's availability burn rate reflects the outage honestly:
        // a recovered backend-first serve is available, a shed is not.
        self.nodes[t].system.record_external_sample(
            RequestSample::basic(
                request.op == Operation::Read,
                false,
                degraded,
                request.size,
                latency,
                completed_at,
            )
            .with_ok(sense.is_available()),
        );
        RequestOutcome {
            hit: false,
            degraded,
            latency,
            completed_at,
            sense,
        }
    }

    /// `true` when a read of `key` (owned by the down target `owner`)
    /// can be served by degraded reconstruction: the key has current
    /// stripe coverage and its owner's group has lost at most `m`
    /// shards (down, stale, or phantom — a group narrower than `k + m`
    /// honestly counts its missing tail as lost).
    fn parity_reconstructible(&self, key: ObjectKey, owner: usize) -> bool {
        let Some(cov) = self.parity_coverage.get(&key) else {
            return false;
        };
        let Some(gid) = self.parity_groups.group_of(TargetId(owner)) else {
            return false;
        };
        let members = self.parity_groups.members(gid);
        let phantom = self.parity_groups.width().saturating_sub(members.len());
        let lost = phantom
            + members
                .iter()
                .filter(|m| self.nodes[m.0].state != TargetState::Up || cov.stale.contains(&m.0))
                .count();
        lost <= self.parity.parity
    }

    /// Serves one read of a downed owner's range by degraded erasure
    /// reconstruction from the surviving group members, at cache speed:
    /// `k` shard reads proceed in parallel, so the serve costs one
    /// shard read — honest [`SenseCode::RecoveredError`] sense, counted
    /// as an available degraded hit in the owner's SLO burn (the
    /// cluster analog of a single-node degraded stripe read).
    fn serve_parity(&mut self, owner: usize, request: &Request) -> RequestOutcome {
        let start = self.origin_clock.now();
        let size = self
            .objects
            .get(&request.key)
            .copied()
            .unwrap_or(request.size);
        self.reconstruct_stripe(owner, request.key, size);
        let k = self.parity.data.max(1) as u64;
        let shard_bytes = (size.as_bytes() / k).max(1);
        let rate = self.config.device.read.bytes_per_sec().max(1);
        let nanos = ((u128::from(shard_bytes) * 1_000_000_000) / u128::from(rate)) as u64;
        let completed_at = self.origin_clock.advance(SimDuration::from_nanos(nanos));
        let latency = completed_at.saturating_since(start);
        self.parity_stats.parity_serves += 1;
        self.parity_stats.reconstructed_bytes += size.as_bytes();
        self.nodes[owner].system.record_external_sample(
            RequestSample::basic(true, true, true, request.size, latency, completed_at)
                .with_ok(true),
        );
        RequestOutcome {
            hit: true,
            degraded: true,
            latency,
            completed_at,
            sense: SenseCode::RecoveredError,
        }
    }

    /// Runs the real `k + m` codec for one degraded serve. Stripe
    /// shards are deterministic functions of `(seed, key, stripe
    /// version, member)`, so the serve re-synthesizes the surviving
    /// extents, erases every down/stale/phantom shard, and decodes
    /// through [`ReedSolomon::reconstruct`] — whose per-erasure-pattern
    /// cached plans make repeat serves under the same outage skip the
    /// matrix inversion. The decode is verified against the original
    /// shards, so every outage serve is a kernel-fidelity check.
    fn reconstruct_stripe(&mut self, owner: usize, key: ObjectKey, size: ByteSize) {
        let Some(codec) = &self.parity_codec else {
            return;
        };
        let Some(gid) = self.parity_groups.group_of(TargetId(owner)) else {
            return;
        };
        let Some(cov) = self.parity_coverage.get(&key) else {
            return;
        };
        let members = self.parity_groups.members(gid);
        let k = self.parity.data;
        let shard_len = (size.as_bytes() as usize / k.max(1)).clamp(64, 4096);
        let key_pos = self.ring.key_position(key);
        let synth = |slot: usize| -> Vec<u8> {
            let member = members
                .get(slot)
                .map_or(u64::MAX - slot as u64, |m| m.0 as u64);
            let mut x =
                mix64(self.seed ^ key_pos ^ mix64(cov.version) ^ mix64(member.wrapping_add(1)));
            let mut out = vec![0u8; shard_len];
            for b in out.iter_mut() {
                x = mix64(x);
                *b = x as u8;
            }
            out
        };
        let data: Vec<Vec<u8>> = (0..k).map(synth).collect();
        let parity = codec
            .encode(&data)
            .expect("stripe shards share one length by construction");
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        for (slot, shard) in shards.iter_mut().enumerate() {
            let erased = match members.get(slot) {
                Some(m) => self.nodes[m.0].state != TargetState::Up || cov.stale.contains(&m.0),
                None => true, // phantom shard: never existed
            };
            if erased {
                *shard = None;
            }
        }
        codec
            .reconstruct(&mut shards)
            .expect("losses within tolerance were checked before routing here");
        for (slot, original) in data.iter().enumerate() {
            debug_assert_eq!(
                shards[slot].as_deref(),
                Some(original.as_slice()),
                "degraded reconstruction must restore the exact extents"
            );
        }
    }

    /// Re-points `key`'s parity coverage after an acked write. A write
    /// served by its up owner re-encodes the stripe (members down right
    /// now miss the update and are marked stale until repair); a write
    /// acked anywhere else (backend-first or a replica holder) cannot
    /// re-encode — any existing stripe no longer matches the
    /// authoritative content and is dropped, honestly.
    fn update_parity_coverage(&mut self, server: Option<usize>, owner: usize, key: ObjectKey) {
        if server != Some(owner) {
            if self.parity_coverage.remove(&key).is_some() {
                self.parity_stats.coverage_invalidations += 1;
            }
            return;
        }
        let class = self.nodes[owner].system.target().class_of(key);
        if !self.parity.protects(class) {
            if self.parity_coverage.remove(&key).is_some() {
                self.parity_stats.coverage_invalidations += 1;
            }
            return;
        }
        self.cover_key(owner, key, class);
    }

    /// (Re-)encodes `key`'s stripe across its owner's group at the next
    /// content version: members down at encode time are stale until the
    /// repair path re-syncs their shards.
    fn cover_key(&mut self, owner: usize, key: ObjectKey, class: Option<ObjectClass>) {
        let Some(gid) = self.parity_groups.group_of(TargetId(owner)) else {
            return;
        };
        let stale: BTreeSet<usize> = self
            .parity_groups
            .members(gid)
            .iter()
            .filter(|m| self.nodes[m.0].state != TargetState::Up)
            .map(|m| m.0)
            .collect();
        let class_bucket = match class {
            Some(ObjectClass::Metadata) => 0,
            Some(ObjectClass::Dirty) | None => 1,
            Some(ObjectClass::HotClean) => 2,
            Some(ObjectClass::ColdClean) => 3,
        };
        let version = self.parity_coverage.get(&key).map_or(0, |c| c.version) + 1;
        self.parity_coverage.insert(
            key,
            ParityCoverage {
                version,
                class_bucket,
                stale,
            },
        );
        self.parity_stats.stripe_updates += 1;
    }

    /// Handles one request end to end: merge clocks, route by the ring,
    /// serve (full fidelity on an up target, backend-first on a down
    /// one), mirror acknowledged writes, then pump one throttled
    /// migration batch.
    pub fn handle(&mut self, request: &Request) -> RequestOutcome {
        let now = self.merge_clocks();
        // The cluster mints the trace: its Placement-layer span roots the
        // request tree, and the owning node's scope nests inside (nested
        // `begin_request` calls do not mint a second trace id).
        let trace_started = self.tracer.begin(&self.origin_clock);
        if trace_started.is_some() {
            self.tracer.begin_request();
        }
        let Some(owner) = self.ring.target_of(request.key) else {
            // An empty ring cannot serve anything: shed honestly.
            if trace_started.is_some() {
                self.tracer
                    .record(Layer::Placement, "shed", trace_started, now);
                self.tracer
                    .end_request(SimDuration::ZERO, Some(SenseCode::NotReady.label()));
            }
            return RequestOutcome {
                hit: false,
                degraded: false,
                latency: SimDuration::ZERO,
                completed_at: now,
                sense: SenseCode::NotReady,
            };
        };
        let t = owner.0;
        // Failover routing: an up owner serves normally; a down owner's
        // range goes to the first up member of the key's replica set at
        // full speed (its cache holds a fanned-out copy, or at worst
        // fills from its own backend mirror); only when the outage
        // exceeds the replication factor does the range degrade
        // honestly to backend-first service.
        let server = if self.nodes[t].state == TargetState::Up {
            Some(t)
        } else if self.replication.enabled() {
            self.ring
                .replicas_of(request.key, self.replication.max_factor())
                .into_iter()
                .skip(1)
                .find(|h| self.nodes[h.0].state == TargetState::Up)
                .map(|h| h.0)
        } else {
            None
        };
        let via_replica = server.is_some() && server != Some(t);
        if via_replica {
            let s = server.unwrap();
            // Never silently serve stale: a replica copy whose version
            // stamp trails the authoritative version is repaired before
            // it serves (the read-path half of anti-entropy).
            if let Some(&(version, _)) = self.versions.get(&request.key) {
                if let Some(stamp) = self.nodes[s].system.cached_version(request.key) {
                    if stamp != version {
                        self.note_divergence(now, request.key, s, stamp, version);
                        if let Some(&size) = self.objects.get(&request.key) {
                            self.nodes[s]
                                .system
                                .refresh_replica(request.key, size, version);
                            self.repl_stats.divergences_repaired += 1;
                        }
                    }
                }
            }
            self.tracer.annotate("replica-serve", now);
        }
        // Parity failover: with no up server (owner down, no replica
        // holder), a covered read whose group is within tolerance is
        // reconstructed from the surviving members at cache speed;
        // losses beyond `m` degrade honestly to backend-first.
        let via_parity = server.is_none()
            && request.op == Operation::Read
            && self.parity.enabled()
            && self.parity_reconstructible(request.key, t);
        let outcome = match server {
            Some(s) => self.nodes[s].system.handle(request),
            None if via_parity => {
                self.tracer.annotate("parity-serve", now);
                self.serve_parity(t, request)
            }
            None => {
                if request.op == Operation::Read
                    && self.parity.enabled()
                    && self.parity_coverage.contains_key(&request.key)
                {
                    self.parity_stats.beyond_tolerance_serves += 1;
                }
                self.tracer.annotate("outage-serve", now);
                self.serve_degraded(t, request)
            }
        };
        if via_replica {
            self.repl_stats.replica_serves += 1;
        }
        let stats = &mut self.nodes[t].stats;
        stats.requests += 1;
        if via_replica {
            stats.replica_serves += 1;
        }
        if via_parity {
            stats.parity_serves += 1;
        }
        if request.op == Operation::Read {
            stats.reads += 1;
            if outcome.hit {
                stats.read_hits += 1;
            }
            if outcome.degraded {
                stats.degraded_reads += 1;
            }
        }
        if outcome.sense == SenseCode::NotReady {
            stats.shed += 1;
        }
        *stats.sense_mix.entry(outcome.sense.label()).or_insert(0) += 1;
        if outcome.degraded || outcome.sense.is_error() || outcome.sense == SenseCode::NotReady {
            self.degraded_keys.insert(request.key);
        }
        let acked =
            outcome.sense == SenseCode::Success || outcome.sense == SenseCode::RecoveredError;
        if request.op == Operation::Write && acked {
            self.objects.insert(request.key, request.size);
            self.mirror_write(server.unwrap_or(t), request.key, request.size);
            if self.replication.enabled() {
                self.fan_out_write(server, request.key, request.size);
            }
            if self.parity.enabled() {
                self.update_parity_coverage(server, t, request.key);
            }
        }
        self.requests_handled += 1;
        if self.replication.enabled()
            && !self.versions.is_empty()
            && self.requests_handled.is_multiple_of(ANTI_ENTROPY_PERIOD)
        {
            self.anti_entropy_step(ANTI_ENTROPY_BUDGET);
        }
        self.pump_migrations(false);
        let end = self.merge_clocks();
        if trace_started.is_some() {
            // Recorded last so it covers every span the serve produced
            // (including async write-backs completing past `end`): the
            // tree builder roots the request at this Placement span.
            self.tracer
                .record_enclosing(Layer::Placement, "request", trace_started, end);
            let label = (outcome.sense != SenseCode::Success).then(|| outcome.sense.label());
            self.tracer.end_request(outcome.latency, label);
        }
        outcome
    }

    /// Mirrors an acknowledged write's key map entry into the origin
    /// store and every other node's backend view (charge-free): the
    /// backend tier is one logical store, so a later read resolves
    /// wherever placement or failover routes it.
    fn mirror_write(&mut self, acked_by: usize, key: ObjectKey, size: ByteSize) {
        self.origin.insert(key, size, None);
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if i != acked_by && node.state != TargetState::Removed {
                node.system.mirror_backend_object(key, size);
            }
        }
    }

    /// Fans one acknowledged write out to the key's replica set at the
    /// request barrier (so replication cannot reorder against the
    /// foreground): bumps the authoritative content version, refreshes
    /// and stamps every up holder's copy (the server included — its
    /// own stamp must advance past any older fan-out), and marks the
    /// key written-behind-the-back of every down holder so its stale
    /// copy is invalidated at restore. Replication never substitutes
    /// for durability: the ack already happened under the serving
    /// node's journal rules (or on the origin store, backend-first).
    fn fan_out_write(&mut self, server: Option<usize>, key: ObjectKey, size: ByteSize) {
        let class = server.and_then(|s| self.nodes[s].system.target().class_of(key));
        let factor = self.replication.factor_for(class).min(self.ring.len());
        if factor <= 1 {
            return;
        }
        let version = match self.versions.get(&key) {
            Some(&(v, _)) => v + 1,
            None => 1,
        };
        self.versions.insert(key, (version, factor));
        let mut refreshed = 0u64;
        for holder in self.ring.replicas_of(key, factor) {
            let h = holder.0;
            match self.nodes[h].state {
                TargetState::Up => {
                    // A newer write's fan-out supersedes (and thereby
                    // repairs) any injected divergence on this copy.
                    if self.injected_divergences.remove(&(key, h)) {
                        let now = self.now();
                        self.repl_stats.divergences_detected += 1;
                        self.repl_stats.divergences_repaired += 1;
                        self.flight.record(
                            now,
                            "replica-divergence",
                            format!("target {h} copy healed by newer write"),
                        );
                    }
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
        self.repl_stats.fanout_writes += 1;
        self.repl_stats.fanout_refreshes += refreshed;
    }

    /// Records one detected replica divergence (shared by the
    /// anti-entropy walk and the read-path version check).
    fn note_divergence(&mut self, now: SimTime, key: ObjectKey, t: usize, stamp: u64, auth: u64) {
        self.injected_divergences.remove(&(key, t));
        self.repl_stats.divergences_detected += 1;
        self.flight.record(
            now,
            "replica-divergence",
            format!("target {t} stamp v{stamp} != authoritative v{auth}"),
        );
    }

    /// Seeded replica-divergence injection
    /// ([`PlannedEvent::InjectReplicaDivergence`]): every *current*
    /// stamped replica copy on an up non-primary holder independently
    /// rolls its version stamp back with probability `ppm` parts per
    /// million. Draws are a pure function of the cluster seed, the
    /// injection round, the key, and the holder — equal seeds diverge
    /// equal copies. Returns the number of copies diverged.
    fn inject_replica_divergence(&mut self, ppm: u32) -> u64 {
        self.injection_rounds += 1;
        let round = self.injection_rounds;
        let mut injected = 0u64;
        let entries: Vec<(ObjectKey, u64, usize)> = self
            .versions
            .iter()
            .map(|(&k, &(v, f))| (k, v, f))
            .collect();
        for (key, version, factor) in entries {
            for holder in self.ring.replicas_of(key, factor).into_iter().skip(1) {
                let h = holder.0;
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
        self.repl_stats.divergences_injected += injected;
        let now = self.now();
        self.flight.record(
            now,
            "divergence-injected",
            format!("{injected} replica copies rolled back (round {round})"),
        );
        injected
    }

    /// One bounded anti-entropy step: walks up to `budget` replicated
    /// keys from the cursor (the cluster-level analog of the scrubber
    /// cursor), compares every up node's version stamp against the
    /// authoritative version, and repairs mismatches — current holders
    /// are refreshed to the authoritative version, stale non-holders
    /// are invalidated. Returns `true` when this step completed a full
    /// pass over the replicated namespace.
    fn anti_entropy_step(&mut self, budget: usize) -> bool {
        if self.versions.is_empty() {
            return true;
        }
        let keys: Vec<(ObjectKey, u64, usize)> = match self.anti_entropy_cursor {
            Some(cursor) => self
                .versions
                .range((
                    std::ops::Bound::Excluded(cursor),
                    std::ops::Bound::Unbounded,
                ))
                .take(budget)
                .map(|(&k, &(v, f))| (k, v, f))
                .collect(),
            None => self
                .versions
                .iter()
                .take(budget)
                .map(|(&k, &(v, f))| (k, v, f))
                .collect(),
        };
        let completed = keys.len() < budget;
        self.anti_entropy_cursor = keys.last().map(|&(k, _, _)| k);
        for (key, version, factor) in keys {
            let holders = self.ring.replicas_of(key, factor);
            for i in 0..self.nodes.len() {
                if self.nodes[i].state != TargetState::Up {
                    continue;
                }
                let Some(stamp) = self.nodes[i].system.cached_version(key) else {
                    // The copy is gone (evicted, crashed out, or
                    // invalidated since). If it was a deliberately
                    // diverged copy, audit the ledger: eviction IS the
                    // non-holder repair action, so the divergence is
                    // resolved — count it so the 100%-detection check
                    // stays balanced.
                    if self.injected_divergences.remove(&(key, i)) {
                        let now = self.now();
                        self.repl_stats.divergences_detected += 1;
                        self.repl_stats.divergences_repaired += 1;
                        self.flight.record(
                            now,
                            "replica-divergence",
                            format!("target {i} stale copy already evicted"),
                        );
                    }
                    continue;
                };
                if stamp == version {
                    continue;
                }
                let now = self.now();
                self.note_divergence(now, key, i, stamp, version);
                if holders.contains(&TargetId(i)) {
                    if let Some(&size) = self.objects.get(&key) {
                        self.nodes[i].system.refresh_replica(key, size, version);
                    }
                } else {
                    // No longer a holder: the stale copy has no reason
                    // to exist at all.
                    self.nodes[i].system.invalidate_cached(key);
                }
                self.repl_stats.divergences_repaired += 1;
            }
        }
        if completed {
            self.anti_entropy_cursor = None;
            self.repl_stats.anti_entropy_passes += 1;
        }
        completed
    }

    /// Runs one *complete* anti-entropy pass over the replicated
    /// namespace (the quiesce-time drain; the steady-state path
    /// piggybacks bounded steps on the request cadence). Any partial
    /// walk in flight is abandoned first, so the pass provably covers
    /// every replicated key.
    pub fn run_anti_entropy_pass(&mut self) {
        self.anti_entropy_cursor = None;
        loop {
            if self.anti_entropy_step(ANTI_ENTROPY_BUDGET) {
                break;
            }
        }
    }

    /// Drains one bounded batch of pending migrations through the QoS
    /// token bucket (unthrottled when `foreground_idle` — the quiesce
    /// drain). The old owner's copy leaves through flush-and-remove
    /// (dirty data reaches durable storage first); the new owner warms
    /// a clean copy, charging its own device time.
    fn pump_migrations(&mut self, foreground_idle: bool) {
        if self.migrations.is_empty() {
            return;
        }
        let now = self.merge_clocks();
        let pct = self.config.rebuild_bandwidth_pct;
        let mut bucket = if pct > 0 && !foreground_idle {
            let device_rate = self.config.device.read.bytes_per_sec();
            let rate = ((device_rate as u128 * pct as u128) / 100).max(1) as u64;
            let burst = self.config.chunk_size.max(ByteSize::from_kib(64)) * 2;
            let mut b = self
                .migration_throttle
                .take()
                .unwrap_or_else(|| TokenBucket::new(rate, burst, now));
            b.set_rate(rate);
            b.refill(now);
            Some(b)
        } else {
            None
        };
        let batch = self.config.recovery_batch.max(1);
        let moved_before = self.migrated_objects;
        for _ in 0..batch {
            if let Some(b) = &bucket {
                if !b.has_tokens() {
                    self.migration_stalls += 1;
                    self.tracer.annotate("qos-stall", now);
                    self.flight
                        .record(now, "migration-stall", "rebalance token bucket empty");
                    break;
                }
            }
            let Some(migration) = self.migrations.pop_front() else {
                break;
            };
            let Migration {
                key,
                from,
                to,
                kind,
                class_bucket,
            } = migration;
            if kind == MigrationKind::Repair {
                // Group-aware repair: an owner re-cover re-warms the
                // extent and encodes a fresh stripe; a peer shard
                // re-sync catches the restored member's shard up to the
                // encoded version. Either way the move is shard-sized
                // against the QoS bucket, and skipped moves (key gone,
                // member down again) still retire the pending count.
                let d = to.expect("repairs target a restored member");
                if self.nodes[d].state != TargetState::Up {
                    self.complete_repair(d, class_bucket);
                    continue;
                }
                let Some(&size) = self.objects.get(&key) else {
                    self.complete_repair(d, class_bucket);
                    continue;
                };
                if self.ring.target_of(key) == Some(TargetId(d)) {
                    self.nodes[d].system.warm_object(key, size);
                    let class = self.nodes[d].system.target().class_of(key);
                    if self.parity.protects(class) {
                        self.cover_key(d, key, class);
                    }
                } else if let Some(cov) = self.parity_coverage.get_mut(&key) {
                    cov.stale.remove(&d);
                }
                self.parity_stats.repair_warms += 1;
                if let Some(b) = &mut bucket {
                    let shard = size.scale(1.0 / self.parity.data.max(1) as f64);
                    b.charge(shard);
                    self.migration_throttle_bytes += shard.as_bytes();
                }
                self.complete_repair(d, class_bucket);
                continue;
            }
            // A failback warm completes (for pending accounting) once
            // it leaves the queue for good — warmed, or skipped because
            // the world moved on (key gone, holder down again, …).
            let dest = match to {
                Some(d) => {
                    if self.nodes[d].state == TargetState::Up && self.holds(key, d) {
                        Some(d)
                    } else {
                        self.complete_failback(d);
                        continue;
                    }
                }
                None => self.ring.target_of(key).map(|o| o.0),
            };
            let Some(dest) = dest else {
                continue;
            };
            let Some(&size) = self.objects.get(&key) else {
                if let Some(d) = to {
                    self.complete_failback(d);
                }
                continue;
            };
            // Retire the old owner's copy first (write-back discipline).
            if let Some(f) = from {
                if f != dest && self.nodes[f].state == TargetState::Up {
                    match self.nodes[f].system.flush_and_remove(key) {
                        Ok(Some(_)) => self.nodes[f].migrated_out += 1,
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
            if self.nodes[dest].state == TargetState::Up {
                if self.nodes[dest].system.warm_object(key, size) {
                    self.nodes[dest].migrated_in += 1;
                    self.migrated_objects += 1;
                    // Warmed copies are current by construction: stamp
                    // them so anti-entropy agrees.
                    if let Some(&(version, _)) = self.versions.get(&key) {
                        self.nodes[dest].system.stamp_cached_version(key, version);
                    }
                }
                if let Some(b) = &mut bucket {
                    b.charge(size);
                    self.migration_throttle_bytes += size.as_bytes();
                }
            }
            if let Some(d) = to {
                self.complete_failback(d);
            }
            // A down owner warms on demand after its restore instead.
        }
        self.migration_throttle = bucket;
        let moved = self.migrated_objects - moved_before;
        if moved > 0 {
            self.flight.record(
                now,
                "rebalance-batch",
                format!("{moved} objects moved, {} pending", self.migrations.len()),
            );
        }
        self.merge_clocks();
    }

    /// Retires one pending parity repair for target `d`. The last move
    /// of a class bucket stops that class's time-to-restored-redundancy
    /// clock; the last move overall completes the repair (a
    /// control-plane event the postmortem arc wants to show).
    fn complete_repair(&mut self, d: usize, class_bucket: u8) {
        let now = self.now();
        let node = &mut self.nodes[d];
        if node.repair_pending == 0 {
            return;
        }
        node.repair_pending -= 1;
        let cb = usize::from(class_bucket) % 4;
        if node.repair_pending_by_class[cb] > 0 {
            node.repair_pending_by_class[cb] -= 1;
            if node.repair_pending_by_class[cb] == 0 {
                if let Some(started) = node.repair_started {
                    self.parity_stats.ttr_us[cb] =
                        (now.saturating_since(started).as_nanos() / 1_000) as i64;
                }
            }
        }
        if node.repair_pending == 0 {
            node.repair_started = None;
            self.parity_stats.repairs_completed += 1;
            self.flight.record(
                now,
                "parity-repair-complete",
                format!("target {d}: redundancy restored through the rebuild throttle"),
            );
        }
    }

    /// Retires one pending failback warm for target `d`; the last one
    /// completes the reconciliation (a control-plane event the
    /// postmortem arc wants to show).
    fn complete_failback(&mut self, d: usize) {
        let node = &mut self.nodes[d];
        if node.failback_pending == 0 {
            return;
        }
        node.failback_pending -= 1;
        if node.failback_pending == 0 {
            self.repl_stats.failbacks_completed += 1;
            let now = self.now();
            self.flight.record(
                now,
                "failback-complete",
                format!("target {d} reconciled through the rebuild throttle"),
            );
        }
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

    /// Maps a global device id onto `(target, local device)`: cluster
    /// plans address devices in one global namespace, `devices_per_node
    /// * target + local`.
    fn map_device(&self, d: DeviceId) -> Option<(usize, DeviceId)> {
        let per_node = self.config.devices;
        let t = d.0 / per_node;
        (t < self.nodes.len()).then(|| (t, DeviceId(d.0 % per_node)))
    }

    /// Applies one planned event at cluster scope. Device-scoped events
    /// use the global device namespace; backend events hit the whole
    /// backend tier; `Crash` is a cluster-wide power loss (every up
    /// node crashes and recovers); target events drive the membership
    /// and outage machinery. Unroutable events are rejected, never a
    /// panic.
    pub fn apply_event(&mut self, event: PlannedEvent) {
        match event {
            PlannedEvent::FailTarget(t) => self.fail_target(t),
            PlannedEvent::RestoreTarget(t) => self.restore_target(t),
            PlannedEvent::InjectReplicaDivergence { ppm } => {
                if !self.replication.enabled() {
                    return self.reject("divergence-no-replication");
                }
                self.inject_replica_divergence(ppm);
            }
            PlannedEvent::AddTarget => {
                self.add_target();
            }
            PlannedEvent::RemoveTarget(t) => self.remove_target(t),
            PlannedEvent::FailDevice(d) => match self.map_device(d) {
                Some((t, local)) if self.nodes[t].state == TargetState::Up => {
                    self.nodes[t].system.fail_device(local);
                }
                Some(_) => self.reject("device-event-target-not-up"),
                None => self.reject("device-event-unknown-target"),
            },
            PlannedEvent::InsertSpare(d) => match self.map_device(d) {
                Some((t, local)) if self.nodes[t].state == TargetState::Up => {
                    self.nodes[t].system.insert_spare(local);
                }
                Some(_) => self.reject("device-event-target-not-up"),
                None => self.reject("device-event-unknown-target"),
            },
            PlannedEvent::SlowDevice { device, factor_pct } => match self.map_device(device) {
                Some((t, local)) if self.nodes[t].state == TargetState::Up => {
                    self.nodes[t]
                        .system
                        .slow_device(local, f64::from(factor_pct) / 100.0);
                }
                Some(_) => self.reject("device-event-target-not-up"),
                None => self.reject("device-event-unknown-target"),
            },
            PlannedEvent::CorruptChunks { ppm } => {
                for node in &mut self.nodes {
                    if node.state == TargetState::Up {
                        node.system.inject_chunk_corruption(f64::from(ppm) / 1e6);
                    }
                }
            }
            PlannedEvent::TransientFaults { ppm } => {
                for node in &mut self.nodes {
                    if node.state == TargetState::Up {
                        node.system.arm_transient_faults(f64::from(ppm) / 1e6);
                    }
                }
            }
            PlannedEvent::StartScrub => {
                for node in &mut self.nodes {
                    if node.state == TargetState::Up {
                        node.system.enable_scrubber();
                    }
                }
            }
            PlannedEvent::FailBackend => {
                self.origin.fail();
                for node in &mut self.nodes {
                    if node.state != TargetState::Removed {
                        node.system.fail_backend();
                    }
                }
            }
            PlannedEvent::RestoreBackend => {
                self.origin.restore();
                for node in &mut self.nodes {
                    if node.state != TargetState::Removed {
                        node.system.restore_backend();
                    }
                }
            }
            PlannedEvent::SlowBackend { factor_pct } => {
                let factor = f64::from(factor_pct) / 100.0;
                self.origin.set_slow_factor(factor);
                for node in &mut self.nodes {
                    if node.state != TargetState::Removed {
                        node.system.slow_backend(factor);
                    }
                }
            }
            PlannedEvent::Crash => {
                for node in &mut self.nodes {
                    if node.state == TargetState::Up {
                        node.system.crash();
                        node.system
                            .recover()
                            .expect("restart recovery after a planned cluster-wide crash");
                    }
                }
            }
        }
        self.merge_clocks();
    }

    /// Resets all measurement state (end of warm-up): per-target rows,
    /// degraded-namespace ledgers, every node's metrics, and the
    /// cluster's request counters. Membership, caches, and pending
    /// migrations are untouched.
    pub fn reset_stats(&mut self) {
        let now = self.merge_clocks();
        for node in &mut self.nodes {
            node.stats = TargetStats::default();
            node.system.metrics_mut().reset_all(now);
        }
        self.degraded_keys.clear();
        self.mapped_degraded.clear();
        self.migration_stalls = 0;
        self.migration_throttle_bytes = 0;
        self.migrated_objects = 0;
        self.repl_stats = ReplicationSnapshot::default();
        self.parity_stats = ParityGroupSnapshot::default();
        self.measure_started = now;
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
            .enumerate()
            .map(|(i, node)| {
                let health = match node.state {
                    TargetState::Up => node.system.health().label(),
                    other => other.label().to_string(),
                };
                TargetMetricsRow {
                    target: i,
                    health,
                    requests: node.stats.requests,
                    reads: node.stats.reads,
                    read_hits: node.stats.read_hits,
                    degraded_reads: node.stats.degraded_reads,
                    shed_requests: node.stats.shed,
                    outages: node.outages,
                    rebuild_window_us: node.rebuild_window_us,
                    migrated_in: node.migrated_in,
                    migrated_out: node.migrated_out,
                    replica_serves: node.stats.replica_serves,
                    parity_serves: node.stats.parity_serves,
                    sense_mix: node
                        .stats
                        .sense_mix
                        .iter()
                        .map(|(&label, &count)| (label.to_string(), count))
                        .collect(),
                }
            })
            .collect()
    }

    /// Aggregated measurements across the cluster with per-target rows
    /// filled in. Counters are exact sums over node metrics (outage
    /// serves are recorded into the owning node as external samples);
    /// the mean latency is request-weighted and the p99 is the max
    /// over nodes (an upper bound, since per-node histograms cannot be
    /// merged exactly).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        let mut weighted_mean_nanos = 0u128;
        for node in &self.nodes {
            let s = node.system.metrics().totals();
            agg.requests += s.requests;
            agg.reads += s.reads;
            agg.read_hits += s.read_hits;
            agg.writes += s.writes;
            agg.degraded_reads += s.degraded_reads;
            agg.requested_bytes += s.requested_bytes;
            agg.requested_write_bytes += s.requested_write_bytes;
            agg.device_bytes += s.device_bytes;
            agg.device_write_bytes += s.device_write_bytes;
            agg.backend_bytes += s.backend_bytes;
            agg.medium_errors += s.medium_errors;
            agg.repairs += s.repairs;
            agg.scrub_passes += s.scrub_passes;
            agg.unrecoverable_fallbacks += s.unrecoverable_fallbacks;
            agg.journal_appends += s.journal_appends;
            agg.checkpoint_count += s.checkpoint_count;
            agg.replayed_records += s.replayed_records;
            agg.torn_tail_detected += s.torn_tail_detected;
            agg.recovery_duration_us += s.recovery_duration_us;
            agg.elapsed = agg.elapsed.max(s.elapsed);
            agg.p99_latency = agg.p99_latency.max(s.p99_latency);
            weighted_mean_nanos += s.mean_latency.as_nanos() as u128 * s.requests as u128;
            // Outage-window serves are recorded into the owning node's
            // metrics as external samples, so the sums above already
            // cover them (and the SLO monitor saw them too).
        }
        agg.served_by_replica = self.repl_stats.replica_serves;
        agg.served_by_parity = self.parity_stats.parity_serves;
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
            for row in node.system.metrics().totals().slos {
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

    /// Runs `trace` through the cluster under `plan` (warm-up passes,
    /// events at request indices, measurement reset in between), then
    /// reports aggregate and per-target results.
    ///
    /// # Panics
    ///
    /// Panics if event indices are not sorted in non-decreasing order.
    pub fn run(&mut self, trace: &Trace, plan: &ExperimentPlan) -> ClusterRunResult {
        assert!(
            plan.events.windows(2).all(|w| w[0].0 <= w[1].0),
            "event indices must be non-decreasing"
        );
        self.populate(trace.objects());
        // Warm-up observability is discarded by `reset_stats` anyway, so
        // don't pay for recording it (same as `ExperimentRunner::run`).
        let was_tracing = self.tracer.is_enabled();
        self.tracer.set_enabled(false);
        for _ in 0..plan.warmup_passes {
            for request in trace.requests() {
                self.handle(request);
            }
        }
        self.tracer.set_enabled(was_tracing);
        self.reset_stats();
        let mut events = plan.events.iter().peekable();
        for (i, request) in trace.requests().iter().enumerate() {
            while let Some(&&(at, event)) = events.peek() {
                if at > i {
                    break;
                }
                events.next();
                self.apply_event(event);
            }
            self.handle(request);
        }
        for &(_, event) in events {
            self.apply_event(event);
        }
        let end = self.merge_clocks();
        let elapsed = end.saturating_since(self.measure_started);
        let totals = self.metrics_snapshot();
        let secs = elapsed.as_nanos() as f64 / 1e9;
        ClusterRunResult {
            aggregate_req_per_sec: if secs > 0.0 {
                totals.requests as f64 / secs
            } else {
                0.0
            },
            elapsed,
            observed_degraded_fraction: self.observed_degraded_fraction(),
            mapped_degraded_fraction: self.mapped_degraded_fraction(),
            dirty_data_lost: self.dirty_data_lost(),
            migrated_objects: self.migrated_objects,
            migration_stalls: self.migration_stalls,
            migration_throttle_bytes: self.migration_throttle_bytes,
            rejected_events: self.rejected_events,
            rejected_events_by_reason: self.rejected_events_by_reason(),
            health: self.health().label,
            replication: self.repl_stats,
            parity: self.parity_stats,
            flash_overhead: self.flash_overhead(),
            totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use reo_workload::{Locality, WorkloadSpec};

    fn trace(seed: u64, requests: usize) -> Trace {
        WorkloadSpec {
            objects: 120,
            mean_object_size: ByteSize::from_kib(128),
            size_sigma: 0.5,
            locality: Locality::Medium,
            requests,
            write_ratio: 0.3,
            temporal_reuse: Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(seed)
    }

    fn cluster(targets: usize, trace: &Trace) -> ClusterSystem {
        let cache = trace.summary().data_set_bytes.scale(0.25);
        let mut cfg = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
        cfg.chunk_size = ByteSize::from_kib(16);
        let mut c = ClusterSystem::new(cfg, targets);
        c.populate(trace.objects());
        c
    }

    #[test]
    fn routing_covers_every_target() {
        let t = trace(1, 800);
        let mut c = cluster(4, &t);
        for r in t.requests() {
            c.handle(r);
        }
        let rows = c.target_rows();
        assert_eq!(rows.len(), 4);
        assert!(
            rows.iter().all(|r| r.requests > 0),
            "ring balance must spread requests: {rows:?}"
        );
        assert_eq!(
            rows.iter().map(|r| r.requests).sum::<u64>(),
            800,
            "every request routed exactly once"
        );
    }

    #[test]
    fn same_seed_clusters_replay_identically() {
        let t = trace(2, 600);
        let mut a = cluster(3, &t);
        let mut b = cluster(3, &t);
        for r in t.requests() {
            let oa = a.handle(r);
            let ob = b.handle(r);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.now(), b.now());
        assert_eq!(a.target_rows(), b.target_rows());
    }

    #[test]
    fn outage_degrades_only_the_mapped_range() {
        let t = trace(3, 900);
        let mut c = cluster(4, &t);
        for r in t.requests().iter().take(300) {
            c.handle(r);
        }
        c.fail_target(1);
        assert_eq!(c.target_state(1), TargetState::Down);
        for r in t.requests().iter().skip(300).take(300) {
            let owner = c.ring().target_of(r.key).unwrap();
            let out = c.handle(r);
            if owner.0 == 1 {
                assert!(
                    out.sense == SenseCode::RecoveredError || out.sense == SenseCode::Success,
                    "outage range must be served degraded or acked, got {:?}",
                    out.sense
                );
            }
        }
        // Unaffected targets saw no outage-path serves at all.
        let rows = c.target_rows();
        for row in rows.iter().filter(|r| r.target != 1) {
            assert_eq!(row.shed_requests, 0, "blast radius leaked to {row:?}");
            assert_eq!(row.outages, 0);
        }
        let mapped = c.mapped_degraded_fraction();
        assert!(
            (0.05..=0.60).contains(&mapped),
            "one of four targets maps ≈1/4 of the namespace, got {mapped}"
        );
        // Restore: journal replay + ring-delta invalidation, never a loss.
        c.restore_target(1);
        assert_eq!(c.target_state(1), TargetState::Up);
        assert!(c.target_rows()[1].rebuild_window_us >= 0);
        for r in t.requests().iter().skip(600) {
            let out = c.handle(r);
            assert_ne!(out.sense, SenseCode::Failure);
        }
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn writes_during_outage_survive_restore() {
        let t = trace(4, 400);
        let mut c = cluster(2, &t);
        for r in t.requests() {
            c.handle(r);
        }
        // Find a key owned by target 0 and overwrite it during an outage.
        let key = *c
            .objects
            .keys()
            .find(|&&k| c.ring.target_of(k) == Some(TargetId(0)))
            .expect("target 0 owns part of the namespace");
        let write = Request {
            op: Operation::Write,
            key,
            size: ByteSize::from_kib(64),
        };
        c.fail_target(0);
        let out = c.handle(&write);
        assert_eq!(out.sense, SenseCode::Success, "outage write acked durably");
        c.restore_target(0);
        // The restored node must serve the *new* contents (its stale
        // cached copy was invalidated): a read succeeds and the backend
        // map agrees on the new size everywhere.
        let read = Request {
            op: Operation::Read,
            key,
            size: ByteSize::from_kib(64),
        };
        let out = c.handle(&read);
        assert!(
            out.sense == SenseCode::Success || out.sense == SenseCode::RecoveredError,
            "restored target must serve the overwritten object, got {:?}",
            out.sense
        );
        assert_eq!(c.origin().size_of(key), Some(ByteSize::from_kib(64)));
        assert_eq!(
            c.node(0).backend().size_of(key),
            Some(ByteSize::from_kib(64))
        );
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn join_and_leave_rebalance_minimally_and_reversibly() {
        let t = trace(5, 600);
        let mut c = cluster(3, &t);
        for r in t.requests() {
            c.handle(r);
        }
        let before: Vec<Option<TargetId>> =
            c.objects.keys().map(|&k| c.ring.target_of(k)).collect();
        let newcomer = c.add_target();
        assert_eq!(newcomer, TargetId(3));
        let moved = c.pending_migrations();
        assert!(moved > 0, "a join must remap part of the namespace");
        assert!(
            moved <= c.objects.len() / 2,
            "a join must not reshuffle the world: moved {moved} of {}",
            c.objects.len()
        );
        assert!(c.drain_rebalance(100_000), "rebalance must drain");
        assert!(c.target_rows()[3].migrated_in > 0);
        // Leave: the ring returns to the exact prior map.
        c.remove_target(3);
        assert_eq!(c.target_state(3), TargetState::Removed);
        let after: Vec<Option<TargetId>> = c.objects.keys().map(|&k| c.ring.target_of(k)).collect();
        assert_eq!(before, after, "remove must restore the prior mapping");
        assert!(c.drain_rebalance(100_000));
        assert_eq!(c.dirty_data_lost(), 0);
        // The retired node keeps nothing user-visible in cache.
        assert!(c.node(3).cached_keys().is_empty());
    }

    #[test]
    fn cluster_event_rejections_are_counted_by_reason() {
        let t = trace(6, 100);
        let mut c = cluster(2, &t);
        c.fail_target(7); // unknown
        c.fail_target(0);
        c.fail_target(0); // already down
        c.remove_target(0); // down targets cannot be removed
        c.restore_target(1); // not down
        c.restore_target(0);
        c.remove_target(0);
        c.remove_target(1); // last member
        let by_reason: BTreeMap<String, u64> = c.rejected_events_by_reason().into_iter().collect();
        assert_eq!(by_reason["fail-target-unknown"], 1);
        assert_eq!(by_reason["fail-target-already-down"], 1);
        assert_eq!(by_reason["remove-target-down"], 1);
        assert_eq!(by_reason["restore-target-not-down"], 1);
        assert_eq!(by_reason["remove-last-target"], 1);
        assert_eq!(c.rejected_events(), 5);
    }

    #[test]
    fn cluster_traces_root_at_the_placement_layer() {
        let t = trace(8, 400);
        let mut c = cluster(2, &t);
        c.enable_tracing();
        for r in t.requests() {
            c.handle(r);
        }
        assert!(c.tracer().same_recorder(c.node(0).tracer()));
        assert!(c.tracer().same_recorder(c.node(1).tracer()));
        let breakdown = c.tracer().breakdown();
        let placement = breakdown
            .layers
            .iter()
            .find(|l| l.layer == Layer::Placement)
            .expect("placement spans recorded");
        assert_eq!(placement.spans, 400, "one root span per request");
        // Exemplars exist (slow top-K at minimum) and every tree roots
        // at the cluster's Placement span.
        let exemplars = c.tracer().exemplars();
        assert!(!exemplars.is_empty());
        for tree in &exemplars {
            let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent == 0).collect();
            assert_eq!(roots.len(), 1, "exactly one root: {tree:?}");
            assert_eq!(roots[0].layer, Layer::Placement);
        }
    }

    #[test]
    fn target_outage_dumps_a_postmortem_with_lookback() {
        let t = trace(9, 300);
        let mut c = cluster(3, &t);
        for r in t.requests().iter().take(100) {
            c.handle(r);
        }
        c.fail_target(7); // rejected: lands in the lookback window
        c.fail_target(1);
        let pms = c.flight().postmortems();
        assert_eq!(pms.len(), 1);
        assert_eq!(pms[0].trigger, "target-down:1");
        assert!(
            pms[0]
                .events
                .iter()
                .any(|e| e.kind == "rejected-event" && e.detail == "fail-target-unknown"),
            "the rejected event precedes the trigger in the window"
        );
        c.restore_target(1);
        assert!(c
            .flight()
            .events()
            .iter()
            .any(|e| e.kind == "target-restored"),);
    }

    #[test]
    fn cluster_snapshot_merges_slo_rows_across_nodes() {
        let t = trace(10, 600);
        let mut c = cluster(3, &t);
        for r in t.requests() {
            c.handle(r);
        }
        let snap = c.metrics_snapshot();
        assert!(!snap.slos.is_empty(), "SLO rows must be merged in");
        let per_node: u64 = (0..3)
            .map(|i| {
                c.node(i)
                    .metrics()
                    .totals()
                    .slos
                    .iter()
                    .map(|r| r.requests)
                    .sum::<u64>()
            })
            .sum();
        let merged: u64 = snap.slos.iter().map(|r| r.requests).sum();
        assert_eq!(merged, per_node, "counters add exactly");
        // Rows keep CLASS_LABELS order.
        let positions: Vec<usize> = snap
            .slos
            .iter()
            .map(|r| CLASS_LABELS.iter().position(|&l| l == r.class).unwrap())
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn run_reports_aggregate_and_per_target_rows() {
        let t = trace(7, 600);
        let mut c = cluster(4, &t);
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(200, PlannedEvent::FailTarget(2))
        .with_event(400, PlannedEvent::RestoreTarget(2));
        let result = c.run(&t, &plan);
        assert_eq!(result.totals.requests, 600);
        assert_eq!(result.totals.targets.len(), 4);
        assert!(result.aggregate_req_per_sec > 0.0);
        assert!(result.mapped_degraded_fraction > 0.0);
        assert_eq!(result.dirty_data_lost, 0);
        assert_eq!(result.totals.targets[2].outages, 1);
        assert!(result.totals.targets[2].rebuild_window_us >= 0);
    }

    #[test]
    fn default_policy_keeps_replication_machinery_cold() {
        let t = trace(11, 600);
        let mut c = cluster(4, &t);
        for r in t.requests() {
            c.handle(r);
        }
        let snap = c.replication_snapshot();
        assert_eq!(snap, ReplicationSnapshot::default());
        assert!(c.versions.is_empty(), "no versions without a policy");
        assert_eq!(c.metrics_snapshot().served_by_replica, 0);
    }

    #[test]
    fn replica_serve_keeps_a_failed_range_on_cache_speed() {
        let t = trace(13, 1200);
        let mut c = cluster(4, &t).with_replication_policy(ReplicationPolicy::two_way());
        for r in t.requests().iter().take(600) {
            c.handle(r);
        }
        let snap = c.replication_snapshot();
        assert!(snap.fanout_writes > 0, "writes must fan out");
        assert!(snap.fanout_refreshes > 0);
        c.fail_target(0);
        for r in t.requests().iter().skip(600) {
            let owner = c.ring().target_of(r.key).unwrap();
            let out = c.handle(r);
            if owner.0 == 0 {
                // The replica holder serves the range at full fidelity:
                // never shed, never backend-first recovered errors on
                // writes — plain acks and (mostly) cache hits.
                assert_ne!(out.sense, SenseCode::NotReady, "range was shed");
            }
        }
        let snap = c.replication_snapshot();
        assert!(
            snap.replica_serves > 0,
            "outage range must be replica-served"
        );
        let totals = c.metrics_snapshot();
        assert_eq!(totals.served_by_replica, snap.replica_serves);
        assert_eq!(totals.targets[0].replica_serves, snap.replica_serves);
        // Replica serves are not degraded service: the observed
        // degraded namespace stays well below the mapped-down range.
        assert!(c.observed_degraded_fraction() < c.mapped_degraded_fraction());
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn double_outage_beyond_factor_degrades_honestly() {
        let t = trace(17, 1200);
        let mut c = cluster(4, &t).with_replication_policy(ReplicationPolicy::two_way());
        for r in t.requests().iter().take(600) {
            c.handle(r);
        }
        c.fail_target(0);
        c.fail_target(1);
        let mut backend_first = 0u64;
        for r in t.requests().iter().skip(600) {
            let out = c.handle(r);
            assert_ne!(out.sense, SenseCode::Failure, "never a hard failure");
            if out.sense == SenseCode::RecoveredError {
                backend_first += 1;
            }
        }
        // Keys whose whole 2-way replica set is down fall back to
        // honest backend-first service.
        assert!(
            backend_first > 0,
            "an outage exceeding the replication factor must reach the backend path"
        );
        c.restore_target(0);
        c.restore_target(1);
        assert!(c.drain_recovery(1_000_000));
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn injected_divergences_are_fully_detected_and_repaired() {
        let t = trace(19, 900);
        let mut c = cluster(4, &t).with_replication_policy(ReplicationPolicy::two_way());
        for r in t.requests() {
            c.handle(r);
        }
        let injected = c.inject_replica_divergence(1_000_000); // every current copy
        assert!(injected > 0, "a saturated injection must diverge something");
        c.run_anti_entropy_pass();
        let snap = c.replication_snapshot();
        assert_eq!(snap.divergences_injected, injected);
        assert_eq!(
            snap.divergences_detected, injected,
            "anti-entropy must detect 100% of injected divergences: {snap:?}, ledger {:?}",
            c.injected_divergences
        );
        assert!(snap.divergences_repaired >= injected);
        assert!(c.injected_divergences.is_empty(), "ledger fully audited");
        // A second pass finds nothing new.
        c.run_anti_entropy_pass();
        assert_eq!(c.replication_snapshot().divergences_detected, injected);
        assert!(
            c.flight
                .events()
                .iter()
                .any(|e| e.kind == "replica-divergence"),
            "divergence detections are control-plane flight events"
        );
    }

    #[test]
    fn failback_reconciles_through_the_throttle_and_completes() {
        let t = trace(23, 1500);
        let mut c = cluster(4, &t).with_replication_policy(ReplicationPolicy::two_way());
        for r in t.requests().iter().take(500) {
            c.handle(r);
        }
        c.fail_target(2);
        for r in t.requests().iter().skip(500).take(500) {
            c.handle(r);
        }
        c.restore_target(2);
        for r in t.requests().iter().skip(1000) {
            c.handle(r);
        }
        assert!(c.drain_recovery(1_000_000));
        assert_eq!(c.nodes[2].failback_pending, 0);
        let snap = c.replication_snapshot();
        assert!(
            snap.failbacks_completed >= 1,
            "restore must complete a failback reconciliation"
        );
        assert!(
            c.flight
                .events()
                .iter()
                .any(|e| e.kind == "failback-complete"),
            "failback completion is a control-plane flight event"
        );
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn default_policy_keeps_parity_machinery_cold() {
        let t = trace(31, 600);
        let mut c = cluster(4, &t);
        for r in t.requests() {
            c.handle(r);
        }
        assert_eq!(c.parity_snapshot(), ParityGroupSnapshot::default());
        assert!(c.parity_coverage.is_empty(), "no stripes without a policy");
        assert!(c.parity_groups().is_empty());
        let totals = c.metrics_snapshot();
        assert_eq!(totals.served_by_parity, 0);
        let overhead = c.flash_overhead();
        assert_eq!(overhead.parity_bytes, 0);
        assert_eq!(overhead.replica_bytes, 0);
        assert!(overhead.primary_bytes > 0, "the cache is warm");
    }

    #[test]
    fn parity_serve_keeps_a_failed_range_on_cache_speed() {
        let t = trace(37, 1200);
        let mut c = cluster(4, &t).with_parity_policy(ParityGroupPolicy::reo(3, 1));
        for r in t.requests().iter().take(600) {
            c.handle(r);
        }
        let snap = c.parity_snapshot();
        assert!(snap.stripe_updates > 0, "protected writes must stripe");
        // m/k overhead, not replication's (n-1)x: the parity bytes for
        // the covered set stay at or below a third of primary (+ slack
        // for integer rounding).
        let overhead = c.flash_overhead();
        assert_eq!(overhead.replica_bytes, 0);
        assert!(
            (overhead.parity_bytes as f64) <= overhead.primary_bytes as f64 * (1.0 / 3.0 + 0.05),
            "parity overhead exceeded m/k: {overhead:?}"
        );
        c.fail_target(0);
        let mut parity_hits = 0u64;
        for r in t.requests().iter().skip(600) {
            let owner = c.ring().target_of(r.key).unwrap();
            let covered = c.parity_coverage.contains_key(&r.key);
            let out = c.handle(r);
            if owner.0 == 0 && r.op == Operation::Read && covered {
                // Covered reads of the down range are reconstructed at
                // cache speed: honest recovered-error hits, never shed.
                assert_eq!(out.sense, SenseCode::RecoveredError);
                assert!(out.hit, "a parity serve counts as a cache hit");
                parity_hits += 1;
            }
        }
        let snap = c.parity_snapshot();
        assert!(snap.parity_serves > 0, "outage range must parity-serve");
        assert!(snap.parity_serves >= parity_hits);
        assert!(snap.reconstructed_bytes > 0);
        assert_eq!(snap.beyond_tolerance_serves, 0, "one outage is within m=1");
        let totals = c.metrics_snapshot();
        assert_eq!(totals.served_by_parity, snap.parity_serves);
        assert_eq!(totals.targets[0].parity_serves, snap.parity_serves);
        assert_eq!(c.dirty_data_lost(), 0);
        // Degraded serves re-used the same erasure pattern: the codec's
        // decode-plan cache stayed per-pattern, not per-serve.
        let patterns = c.parity_codec.as_ref().unwrap().cached_decode_patterns();
        assert!(
            (1..=4).contains(&patterns),
            "repeat serves under one outage share cached plans, got {patterns}"
        );
    }

    #[test]
    fn double_outage_beyond_tolerance_degrades_honestly() {
        let t = trace(41, 1200);
        let mut c = cluster(4, &t).with_parity_policy(ParityGroupPolicy::reo(3, 1));
        for r in t.requests().iter().take(600) {
            c.handle(r);
        }
        // One group of four members at k=3 tolerates exactly one loss.
        c.fail_target(0);
        c.fail_target(1);
        for r in t.requests().iter().skip(600) {
            let out = c.handle(r);
            assert_ne!(out.sense, SenseCode::Failure, "never a hard failure");
            let owner = c.ring().target_of(r.key).unwrap();
            if (owner.0 == 0 || owner.0 == 1) && r.op == Operation::Read {
                assert!(!out.hit, "beyond-m losses must not fake cache hits");
            }
        }
        let snap = c.parity_snapshot();
        assert_eq!(snap.parity_serves, 0, "no reconstruction beyond tolerance");
        assert!(
            snap.beyond_tolerance_serves > 0,
            "covered reads beyond m degrade honestly to backend-first: {snap:?}"
        );
        assert!(c
            .flight()
            .events()
            .iter()
            .any(|e| e.kind == "parity-tolerance-exceeded"));
        c.restore_target(0);
        c.restore_target(1);
        assert!(c.drain_recovery(1_000_000));
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn parity_repair_restores_redundancy_through_the_throttle() {
        let t = trace(43, 1500);
        let mut c = cluster(4, &t).with_parity_policy(ParityGroupPolicy::reo(3, 1));
        for r in t.requests().iter().take(500) {
            c.handle(r);
        }
        c.fail_target(2);
        for r in t.requests().iter().skip(500).take(500) {
            c.handle(r);
        }
        // Stripes re-encoded behind target 2's back marked it stale.
        assert!(
            c.parity_coverage.values().any(|cov| cov.stale.contains(&2)),
            "outage-window writes must leave stale shards to repair"
        );
        c.restore_target(2);
        assert!(
            c.flight()
                .events()
                .iter()
                .any(|e| e.kind == "parity-repair-queued"),
            "a lossy outage queues repair work"
        );
        for r in t.requests().iter().skip(1000) {
            c.handle(r);
        }
        assert!(c.drain_recovery(1_000_000));
        assert_eq!(c.nodes[2].repair_pending, 0);
        let snap = c.parity_snapshot();
        assert!(snap.repair_warms > 0, "repairs drain through the queue");
        assert!(snap.repairs_completed >= 1);
        assert!(
            snap.ttr_us.iter().any(|&ttr| ttr >= 0),
            "at least one class records time-to-restored-redundancy: {snap:?}"
        );
        assert!(
            !c.parity_coverage.values().any(|cov| cov.stale.contains(&2)),
            "repair must clear every stale shard"
        );
        assert!(c
            .flight()
            .events()
            .iter()
            .any(|e| e.kind == "parity-repair-complete"));
        assert_eq!(c.dirty_data_lost(), 0);
    }

    #[test]
    fn parity_clusters_replay_identically() {
        let t = trace(47, 900);
        let run = |_| {
            let mut c = cluster(4, &t).with_parity_policy(ParityGroupPolicy::reo(3, 1));
            for r in t.requests().iter().take(300) {
                c.handle(r);
            }
            c.fail_target(0);
            for r in t.requests().iter().skip(300).take(300) {
                c.handle(r);
            }
            c.restore_target(0);
            for r in t.requests().iter().skip(600) {
                c.handle(r);
            }
            c.drain_recovery(1_000_000);
            (c.parity_snapshot(), c.target_rows(), c.metrics_snapshot())
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.0, b.0, "parity counters must replay exactly");
        assert_eq!(a.1, b.1, "per-target rows must replay exactly");
        assert_eq!(a.2, b.2, "aggregates must replay exactly");
    }

    #[test]
    fn replicated_clusters_replay_identically() {
        let t = trace(29, 900);
        let run = |_| {
            let mut c = cluster(4, &t).with_replication_policy(ReplicationPolicy::two_way());
            for r in t.requests().iter().take(300) {
                c.handle(r);
            }
            c.fail_target(0);
            for r in t.requests().iter().skip(300).take(200) {
                c.handle(r);
            }
            c.apply_event(PlannedEvent::InjectReplicaDivergence { ppm: 500_000 });
            for r in t.requests().iter().skip(500).take(200) {
                c.handle(r);
            }
            c.restore_target(0);
            for r in t.requests().iter().skip(700) {
                c.handle(r);
            }
            c.run_anti_entropy_pass();
            (
                c.replication_snapshot(),
                c.target_rows(),
                c.metrics_snapshot(),
            )
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.0, b.0, "replication counters must replay exactly");
        assert_eq!(a.1, b.1, "per-target rows must replay exactly");
        assert_eq!(a.2, b.2, "aggregates must replay exactly");
    }
}
