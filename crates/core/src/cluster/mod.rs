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
//!   ([`reo_flashsim::FaultPlan::derive_stream_seed`]), routing is a pure
//!   function of the seeded ring, all bookkeeping lives in ordered
//!   containers, and per-target virtual clocks are merged to their max
//!   at request barriers — equal seeds replay byte-identical cluster
//!   histories.
//! * **Full-speed failover** — with a [`Redundancy`] policy, acked
//!   writes of a protected class materialise redundancy at the request
//!   barrier (`k = 1`: stamped copies on the key's ring successors;
//!   `k > 1`: a stripe across the owner's parity group), so a target
//!   outage keeps its range on cache speed (`replica-serve` /
//!   `parity-serve`) instead of degrading to backend-first, and a
//!   restore repairs what the outage cost through the same QoS token
//!   bucket the rebuild path uses. The default policy is
//!   [`Redundancy::none`], which keeps single-copy semantics.
//!
//! The backend tier (the `origin` store plus each node's mirror of the
//! key map) survives node outages by construction: it is the durable
//! home the cache sits in front of, exactly as in the single-node
//! model.
//!
//! Each submodule is an `impl ClusterSystem` block over one concern
//! (DESIGN.md §11 has the map); everything a request does across
//! targets is listed in one place, at the end of
//! [`ClusterSystem::handle`].

mod membership;
mod redundancy;
mod repair;
mod report;
#[cfg(test)]
mod tests;

pub use redundancy::{Redundancy, RedundancySnapshot};
pub use report::{ClusterHealth, FlashOverheadReport};

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use reo_backend::BackendStore;
use reo_erasure::ReedSolomon;
use reo_flashsim::DeviceId;
use reo_osd::{ObjectKey, SenseCode};
use reo_placement::{ParityGroupMap, PlacementRing, TargetId};
use reo_sim::{ByteSize, FlightRecorder, Layer, SimClock, SimDuration, SimTime, Tracer};
use reo_workload::{Operation, Request, Trace, WorkloadObject};

use crate::config::SystemConfig;
use crate::metrics::{MetricsSnapshot, RequestSample, TargetMetricsRow};
use crate::runner::{ExperimentPlan, PlannedEvent};
use crate::system::{backend_sense, CacheSystem, RebuildThrottle, Rejections, RequestOutcome};
use redundancy::{Coverage, StripeBuffers, ANTI_ENTROPY_PERIOD};
use repair::Migration;

/// Cluster-level lifecycle state of one target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TargetState {
    /// Serving its mapped range at full fidelity.
    Up,
    /// Crashed (node-level power loss): its mapped range is served by
    /// failover where redundancy covers it, backend-first otherwise,
    /// until a restore.
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

/// One member node: a full cache system plus its cluster-level state.
#[derive(Clone, Debug)]
struct Node {
    system: CacheSystem,
    state: TargetState,
    /// The counters this target reports, kept by the cluster router
    /// (the node's own [`crate::Metrics`] only see requests the node
    /// handled itself; this row also covers outage-window serves). The
    /// health label is filled in at report time.
    row: TargetMetricsRow,
    /// Keys acknowledged on the backend tier while this node was down —
    /// the exact invalidation delta its restore must apply.
    written_while_down: BTreeSet<ObjectKey>,
    outage_started: Option<SimTime>,
    /// Repair moves still pending for this target after a restore, per
    /// class bucket ([`crate::CLASS_LABELS`] order, `uncached`
    /// excluded): each class's time-to-restored-redundancy stops when
    /// its bucket drains, and `repair-complete` fires when all have.
    repair_pending_by_class: [u64; 4],
    /// When the pending repair was queued (restore time).
    repair_started: SimTime,
}

impl Node {
    fn new(target: usize, system: CacheSystem) -> Self {
        Node {
            system,
            state: TargetState::Up,
            row: TargetMetricsRow {
                target,
                rebuild_window_us: -1,
                ..TargetMetricsRow::default()
            },
            written_while_down: BTreeSet::new(),
            outage_started: None,
            repair_pending_by_class: [0; 4],
            repair_started: SimTime::ZERO,
        }
    }
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
    /// Pending rebalance and repair moves.
    migrations: VecDeque<Migration>,
    /// The migration queue's rebuild throttle (never restarted).
    throttle: RebuildThrottle,
    /// Keys that ever received a degraded-mode response.
    degraded_keys: BTreeSet<ObjectKey>,
    /// Every target outage since the last reset, once per distinct
    /// `(target, ring at failure)`: the keys ever mapped to a down target
    /// are counted against it on demand, never collected.
    outages: Vec<(TargetId, PlacementRing)>,
    /// Cluster-level planned events rejected as no-ops.
    rejections: Rejections,
    /// One shared `reo-trace` recorder across every node: cluster-level
    /// [`Layer::Placement`] spans root each request's trace tree, and the
    /// owning node's spans nest under them.
    tracer: Tracer,
    /// One shared black-box ring across every node; each node records
    /// through a handle tagged with its target id.
    flight: FlightRecorder,
    /// The cross-target redundancy policy (default: none).
    policy: Redundancy,
    /// The coverage ledger: every key whose latest acked write
    /// materialised redundancy, with its authoritative content version.
    ledger: BTreeMap<ObjectKey, Coverage>,
    stats: RedundancySnapshot,
    /// Seeded target → parity-group partition (empty unless the policy
    /// stripes).
    groups: ParityGroupMap,
    /// The `k + m` systematic Reed–Solomon codec degraded serves
    /// reconstruct through (its per-erasure-pattern decode plans are
    /// cached, so steady-state outage serves skip the matrix inversion).
    codec: Option<ReedSolomon>,
    /// What a degraded parity serve synthesizes, encodes and decodes in
    /// (at most `2k + 2m` shards of 4 KiB).
    stripe_buffers: StripeBuffers,
    /// The one replica-set buffer [`PlacementRing::replicas_into`]
    /// fills: whoever needs `&mut self` while reading it takes it out
    /// and puts it back.
    holders: Vec<TargetId>,
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
            throttle: RebuildThrottle::default(),
            degraded_keys: BTreeSet::new(),
            outages: Vec::new(),
            rejections: Rejections::default(),
            tracer,
            flight: FlightRecorder::new(),
            policy: Redundancy::none(),
            ledger: BTreeMap::new(),
            stats: RedundancySnapshot::default(),
            groups: ParityGroupMap::new(seed, 1, 0),
            codec: None,
            stripe_buffers: StripeBuffers::default(),
            holders: Vec::new(),
            injected_divergences: BTreeSet::new(),
            injection_rounds: 0,
            anti_entropy_cursor: None,
            requests_handled: 0,
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

    /// Records one rejected cluster event ([`Rejections::record`]).
    fn reject(&mut self, reason: &'static str) {
        self.rejections.record(&self.flight, self.now(), reason);
    }

    /// Loads the authoritative data set into the cluster: the origin
    /// store, every node's backend mirror, and the key → size map.
    pub fn populate(&mut self, objects: &[WorkloadObject]) {
        self.origin.reserve(objects.len());
        for o in objects {
            self.objects.insert(o.key, o.size);
            self.origin.insert(o.key, o.size, None);
        }
        for node in &mut self.nodes {
            node.system.populate(objects);
        }
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
        self.outage_outcome(t, request, start, false, degraded, sense)
    }

    /// Completes one serve the cluster performed on a down owner's
    /// behalf at the origin clock's current instant. The serve is
    /// recorded into the owner's metrics as an external sample (class
    /// unknown — the node never saw the request), so cluster aggregates
    /// stay exact sums over node metrics and the owner's availability
    /// burn rate reflects the outage honestly: a recovered serve is
    /// available, a shed is not.
    fn outage_outcome(
        &mut self,
        owner: usize,
        request: &Request,
        start: SimTime,
        hit: bool,
        degraded: bool,
        sense: SenseCode,
    ) -> RequestOutcome {
        let completed_at = self.origin_clock.now();
        let latency = completed_at.saturating_since(start);
        let is_read = request.op == Operation::Read;
        self.nodes[owner].system.record_external_sample(
            RequestSample::basic(is_read, hit, degraded, request.size, latency, completed_at)
                .with_ok(sense.is_available()),
        );
        RequestOutcome {
            hit,
            degraded,
            latency,
            completed_at,
            sense,
        }
    }

    /// Handles one request end to end: merge clocks, route by the ring,
    /// serve (full fidelity on an up target; failover or backend-first
    /// on a down one), then apply the request's cross-target effects.
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
        // Failover routing: an up owner serves normally. A down owner's
        // range goes to a replica holder's cache at full speed (k = 1),
        // or its covered reads are reconstructed from the surviving
        // group members at cache speed (k > 1); only losses beyond the
        // tolerance `m` degrade honestly to backend-first service.
        let is_read = request.op == Operation::Read;
        let server = if self.nodes[t].state == TargetState::Up {
            Some(t)
        } else {
            self.replica_server(now, request.key)
        };
        let via_replica = server.is_some_and(|s| s != t);
        let via_parity = server.is_none()
            && is_read
            && self.policy.stripes()
            && self.reconstructible(request.key, t);
        let outcome = match server {
            Some(s) => self.nodes[s].system.handle(request),
            None if via_parity => {
                self.tracer.annotate("parity-serve", now);
                self.serve_reconstructed(t, request)
            }
            None => {
                if is_read && self.ledger.contains_key(&request.key) {
                    self.stats.beyond_tolerance_serves += 1;
                }
                self.tracer.annotate("outage-serve", now);
                self.serve_degraded(t, request)
            }
        };
        self.stats.failover_serves += u64::from(via_replica || via_parity);
        let row = &mut self.nodes[t].row;
        row.requests += 1;
        row.replica_serves += u64::from(via_replica);
        row.parity_serves += u64::from(via_parity);
        if is_read {
            row.reads += 1;
            row.read_hits += u64::from(outcome.hit);
            row.degraded_reads += u64::from(outcome.degraded);
        }
        row.shed_requests += u64::from(outcome.sense == SenseCode::NotReady);
        let label = outcome.sense.label();
        match row
            .sense_mix
            .binary_search_by(|(l, _)| l.as_str().cmp(label))
        {
            Ok(i) => row.sense_mix[i].1 += 1,
            Err(i) => row.sense_mix.insert(i, (label.to_string(), 1)),
        }
        if outcome.degraded || outcome.sense.is_error() || outcome.sense == SenseCode::NotReady {
            self.degraded_keys.insert(request.key);
        }

        // Cross-target effects of one request, all applied here at the
        // request barrier and in this order: (1) an acked write's key-map
        // entry is mirrored to the whole backend tier, (2) a protected
        // acked write materialises its redundancy, (3) one anti-entropy
        // step every `ANTI_ENTROPY_PERIOD` requests where real copies
        // exist, (4) one throttled batch of migrations. Nothing else a
        // request does touches a node other than the one that served it.
        let acked =
            outcome.sense == SenseCode::Success || outcome.sense == SenseCode::RecoveredError;
        if !is_read && acked {
            self.objects.insert(request.key, request.size);
            self.mirror_write(server.unwrap_or(t), request.key, request.size);
            if self.policy.enabled() {
                self.protect_write(server, t, request);
            }
        }
        self.requests_handled += 1;
        if self.policy.replicates()
            && !self.ledger.is_empty()
            && self.requests_handled.is_multiple_of(ANTI_ENTROPY_PERIOD)
        {
            self.anti_entropy_step();
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

    /// Applies a device event to the node that owns global device `d`:
    /// cluster plans address devices in one global namespace,
    /// `devices_per_node * target + local`, and `local` re-addresses the
    /// event to the node's own id.
    fn on_device(&mut self, d: DeviceId, local: impl FnOnce(DeviceId) -> PlannedEvent) {
        let per_node = self.config.devices;
        match self.nodes.get_mut(d.0 / per_node) {
            Some(node) if node.state == TargetState::Up => {
                node.system.apply_event(local(DeviceId(d.0 % per_node)));
            }
            Some(_) => self.reject("device-event-target-not-up"),
            None => self.reject("device-event-unknown-target"),
        }
    }

    /// Applies `event` to every node whose state passes `wanted`.
    fn on_nodes(&mut self, wanted: impl Fn(TargetState) -> bool, event: PlannedEvent) {
        for node in self.nodes.iter_mut().filter(|n| wanted(n.state)) {
            node.system.apply_event(event);
        }
    }

    /// Applies one planned event at cluster scope. Target events drive the
    /// membership and outage machinery and replica divergence the
    /// redundancy ledger; every other event means on each node it reaches
    /// what [`CacheSystem::apply_event`] says. A device event reaches the
    /// node owning its global device id; a backend event hits the origin
    /// store and every member's view of the backend tier; the rest reach
    /// every up node (`Crash` is a cluster-wide power loss). Unroutable
    /// events are rejected, never a panic.
    pub fn apply_event(&mut self, event: PlannedEvent) {
        let up = |s: TargetState| s == TargetState::Up;
        let member = |s: TargetState| s != TargetState::Removed;
        match event {
            PlannedEvent::FailTarget(t) => self.fail_target(t),
            PlannedEvent::RestoreTarget(t) => self.restore_target(t),
            PlannedEvent::InjectReplicaDivergence { ppm } => {
                if !self.policy.replicates() {
                    return self.reject("divergence-no-replication");
                }
                self.inject_replica_divergence(ppm);
            }
            PlannedEvent::AddTarget => {
                self.add_target();
            }
            PlannedEvent::RemoveTarget(t) => self.remove_target(t),
            PlannedEvent::FailDevice(d) => self.on_device(d, PlannedEvent::FailDevice),
            PlannedEvent::InsertSpare(d) => self.on_device(d, PlannedEvent::InsertSpare),
            PlannedEvent::SlowDevice { device, factor_pct } => {
                self.on_device(device, |device| PlannedEvent::SlowDevice {
                    device,
                    factor_pct,
                });
            }
            PlannedEvent::FailBackend => {
                self.origin.fail();
                self.on_nodes(member, event);
            }
            PlannedEvent::RestoreBackend => {
                self.origin.restore();
                self.on_nodes(member, event);
            }
            PlannedEvent::SlowBackend { factor_pct } => {
                self.origin.set_slow_factor(f64::from(factor_pct) / 100.0);
                self.on_nodes(member, event);
            }
            PlannedEvent::CorruptChunks { .. }
            | PlannedEvent::TransientFaults { .. }
            | PlannedEvent::StartScrub
            | PlannedEvent::Crash => self.on_nodes(up, event),
        }
        self.merge_clocks();
    }

    /// Runs `trace` through the cluster under `plan` (warm-up passes,
    /// events at request indices, measurement reset in between) and
    /// returns the measured pass's [`ClusterSystem::metrics_snapshot`].
    /// Everything else a run measured is read off the cluster afterwards
    /// ([`ClusterSystem::resilience`], [`ClusterSystem::health`],
    /// [`ClusterSystem::redundancy_snapshot`], ...).
    ///
    /// # Panics
    ///
    /// Panics if event indices are not sorted in non-decreasing order.
    pub fn run(&mut self, trace: &Trace, plan: &ExperimentPlan) -> MetricsSnapshot {
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
        self.merge_clocks();
        self.metrics_snapshot()
    }
}
