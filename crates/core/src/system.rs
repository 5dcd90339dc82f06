//! The closed-loop cache server.

use std::collections::BTreeMap;

use reo_backend::{BackendError, BackendStore};
use reo_cache::{CacheConfig, CacheManager, ClassChange};
use reo_flashsim::{DeviceId, FaultPlan, FlashArray};
use reo_journal::{CrashOutcome, Journal};
use reo_osd::control::ControlMessage;
use reo_osd::{ObjectClass, ObjectKey, SenseCode};
use reo_osd_target::{OsdTarget, ProtectionPolicy, RecoveryOutcome, TargetError, TargetRecovery};
use reo_sim::{
    ByteSize, FlightRecorder, Layer, SimClock, SimDuration, SimTime, TokenBucket, Tracer,
};
use reo_stripe::{Room, StripeManager};
use reo_workload::{Operation, Request, WorkloadObject};

use crate::config::SystemConfig;
use crate::metrics::{Metrics, RequestSample, LAYER_COUNTERS};
use crate::runner::PlannedEvent;

/// Requests between two background-scrubber steps, once a
/// [`PlannedEvent::StartScrub`] has turned it on.
const SCRUB_PERIOD: usize = 32;
/// Objects whose chunk integrity one scrubber step verifies.
const SCRUB_BUDGET: usize = 8;

/// What happened to one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestOutcome {
    /// `true` if a read was served from cache (writes are always absorbed
    /// by the write-back cache and reported as non-hits).
    pub hit: bool,
    /// `true` if serving required on-the-fly reconstruction.
    pub degraded: bool,
    /// The request's latency.
    pub latency: SimDuration,
    /// Completion instant.
    pub completed_at: SimTime,
    /// The T10 sense code of the completion: [`SenseCode::Success`] on the
    /// normal path, [`SenseCode::RecoveredError`] for degraded serving,
    /// [`SenseCode::MediumError`] when the cache copy was unusable and the
    /// backend served instead, [`SenseCode::NotReady`] when the request
    /// was shed because neither tier could serve it (never a panic).
    pub sense: SenseCode,
}

/// The cache server's overall health, derived from device failures, the
/// rebuild queue, and backend reachability (the cascading-failure state
/// machine; see DESIGN.md §9 for the transition table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthState {
    /// All devices healthy, backend reachable, nothing queued for rebuild.
    Healthy,
    /// Serving with reduced margins: `n` cache devices are failed (and/or
    /// the backend is down, with the cache fully covering; that edge is
    /// `Degraded(0)`), but every class still meets its redundancy floor.
    Degraded(usize),
    /// A spare is in and the rebuild queue is draining back toward
    /// [`HealthState::Healthy`].
    Recovering,
    /// The cache can no longer meet Dirty-class redundancy (or is offline
    /// entirely): dirty writes go straight to the backend, reads fall back
    /// on a miss. Service continues through the backend.
    ReadOnly,
    /// The cache is unusable *and* the backend is down: requests are shed
    /// with [`SenseCode::NotReady`] — never a panic or a silent wrong
    /// answer.
    Unavailable,
}

impl HealthState {
    /// A stable lowercase label for export ("healthy", "degraded(2)", …).
    pub fn label(&self) -> String {
        match self {
            HealthState::Healthy => "healthy".to_string(),
            HealthState::Degraded(n) => format!("degraded({n})"),
            HealthState::Recovering => "recovering".to_string(),
            HealthState::ReadOnly => "read-only".to_string(),
            HealthState::Unavailable => "unavailable".to_string(),
        }
    }
}

/// Point-in-time resilience counters: the health machine, degraded-mode
/// decisions, rebuild-throttle activity, and per-class
/// time-to-restored-redundancy. Exported as the JSONL `resilience` record.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceSnapshot {
    /// Current [`HealthState`] label.
    pub health: String,
    /// Health-state transitions observed since construction.
    pub health_transitions: u64,
    /// Requests shed with [`SenseCode::NotReady`] (cache unusable and
    /// backend down).
    pub shed_requests: u64,
    /// Dirty writes redirected to the backend in degraded write-through
    /// mode.
    pub write_throughs: u64,
    /// Clean-miss fills bypassed while the array was rebuilding.
    pub bypassed_fills: u64,
    /// Planned events rejected as no-ops (failing an already-failed
    /// device, sparing a healthy slot, addressing an unknown device): the
    /// sum of `rejected_events_by_reason`.
    pub rejected_events: u64,
    /// Per-reason breakdown of `rejected_events` as `(reason, count)`
    /// rows sorted by reason — chaos-schedule authoring mistakes are
    /// debuggable instead of a bare count. Reasons are stable labels
    /// (e.g. `"fail-device-already-failed"`, `"spare-device-unknown"`).
    pub rejected_events_by_reason: Vec<(String, u64)>,
    /// Internal accounting invariants found violated by the debug-mode
    /// post-reconcile ledger check. Always 0 in correct operation; a
    /// nonzero count means a bug was surfaced as a sense-coded error
    /// instead of silent drift.
    pub internal_errors: u64,
    /// Rebuild batches stalled by an empty token bucket.
    pub throttle_stalls: u64,
    /// Bytes of rebuild traffic charged against the throttle.
    pub rebuild_throttle_bytes: u64,
    /// Per-class time-to-restored-redundancy of the latest completed
    /// rebuild episode, microseconds, indexed by class id (metadata,
    /// dirty, hot clean, cold clean); `-1` while not (yet) restored.
    pub ttr_us: [i64; 4],
}

impl ResilienceSnapshot {
    /// Folds another node's counters into this one (cluster-level
    /// aggregation): counters add, rejection reasons add per label
    /// (rows stay sorted), and each class keeps the worst
    /// time-to-restored-redundancy. `health` is the caller's to set — a
    /// cluster has its own health label.
    pub fn merge(&mut self, other: &ResilienceSnapshot) {
        self.health_transitions += other.health_transitions;
        self.shed_requests += other.shed_requests;
        self.write_throughs += other.write_throughs;
        self.bypassed_fills += other.bypassed_fills;
        self.rejected_events += other.rejected_events;
        self.internal_errors += other.internal_errors;
        self.throttle_stalls += other.throttle_stalls;
        self.rebuild_throttle_bytes += other.rebuild_throttle_bytes;
        let rows = &mut self.rejected_events_by_reason;
        for (reason, count) in &other.rejected_events_by_reason {
            match rows.binary_search_by(|(r, _)| r.cmp(reason)) {
                Ok(i) => rows[i].1 += count,
                Err(i) => rows.insert(i, (reason.clone(), *count)),
            }
        }
        for (slot, us) in self.ttr_us.iter_mut().zip(other.ttr_us) {
            *slot = (*slot).max(us);
        }
    }
}

/// Planned events rejected as no-ops, counted by stable reason label —
/// a node's and a cluster's alike.
#[derive(Clone, Debug, Default)]
pub(crate) struct Rejections(BTreeMap<&'static str, u64>);

impl Rejections {
    /// Counts one rejection under `reason` and logs the label to `flight`
    /// at `now`, so a post-mortem shows *why* an event was dropped, not
    /// just that one was.
    pub(crate) fn record(&mut self, flight: &FlightRecorder, now: SimTime, reason: &'static str) {
        *self.0.entry(reason).or_insert(0) += 1;
        flight.record(now, "rejected-event", reason);
    }

    /// Rejections so far.
    pub(crate) fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// `(reason, count)` rows sorted by reason.
    pub(crate) fn rows(&self) -> Vec<(String, u64)> {
        self.0.iter().map(|(&r, &n)| (r.to_string(), n)).collect()
    }
}

/// The rebuild QoS throttle: one token bucket metering background repair
/// traffic against the foreground — a node's rebuild batches and a
/// cluster's migration batches alike — refilled at
/// [`SystemConfig::rebuild_bandwidth_pct`] % of one device's read rate,
/// with the batches it stalled and the bytes charged to it.
#[derive(Clone, Debug, Default)]
pub(crate) struct RebuildThrottle {
    /// Built by the first metered batch; `None` again after a restart.
    bucket: Option<TokenBucket>,
    /// Batches stalled by an empty bucket.
    pub(crate) stalls: u64,
    /// Bytes of background traffic charged against the bucket.
    pub(crate) bytes: u64,
}

impl RebuildThrottle {
    /// Opens one batch at `now`: `false` when `config` meters nothing
    /// (`rebuild_bandwidth_pct == 0`), otherwise refills the bucket,
    /// building it full on first use.
    pub(crate) fn open(&mut self, config: &SystemConfig, now: SimTime) -> bool {
        let pct = config.rebuild_bandwidth_pct;
        if pct == 0 {
            return false;
        }
        let bucket = self.bucket.get_or_insert_with(|| {
            let device_rate = config.device.read.bytes_per_sec();
            let rate = ((device_rate as u128 * pct as u128) / 100).max(1) as u64;
            // Burst sized to a couple of stripes' worth of chunk traffic:
            // deep enough to absorb one move's overdraft, shallow enough
            // that a backlog cannot ride the burst past the cap.
            let burst = config.chunk_size.max(ByteSize::from_kib(64)) * 2;
            TokenBucket::new(rate, burst, now)
        });
        bucket.refill(now);
        true
    }

    /// `true` while an open batch may start one more move; otherwise
    /// counts a stall and annotates it `qos-stall` at `now`.
    pub(crate) fn admits(&mut self, tracer: &Tracer, now: SimTime) -> bool {
        if self.bucket.is_some_and(|b| b.has_tokens()) {
            return true;
        }
        self.stalls += 1;
        tracer.annotate("qos-stall", now);
        false
    }

    /// Charges `bytes` a move put on the wire. The cost of a move is only
    /// known after performing it; the bucket absorbs the overdraft and
    /// repays it from refills.
    pub(crate) fn charge(&mut self, bytes: u64) {
        if let Some(bucket) = &mut self.bucket {
            bucket.charge(ByteSize::from_bytes(bytes));
        }
        self.bytes += bytes;
    }

    /// Drops the bucket: the next metered batch starts a new episode with
    /// a full burst.
    pub(crate) fn restart(&mut self) {
        self.bucket = None;
    }
}

/// Maps a backend error onto the T10 sense code the initiator reports:
/// an outage is "not ready", a missing object is a medium error (its
/// last copy is gone), anything else a generic failure.
pub(crate) fn backend_sense(e: &BackendError) -> SenseCode {
    match e {
        BackendError::Unavailable => SenseCode::NotReady,
        BackendError::UnknownObject(_) => SenseCode::MediumError,
        _ => SenseCode::Failure,
    }
}

/// An empty cache manager for `config` — a new node's, and a crashed
/// one's before [`CacheSystem::recover`] repopulates it.
fn cache_manager(config: &SystemConfig) -> CacheManager {
    CacheManager::new(CacheConfig {
        capacity: config.cache_capacity,
        redundancy_reserve: config.scheme.redundancy_reserve(),
        hot_parity_overhead: hot_parity_overhead(config.devices),
        size_aware_hotness: config.size_aware_hotness,
    })
}

/// Parity bytes per user byte of a hot clean object on `healthy` devices:
/// Reo's hot scheme as that many devices can give it, so one device
/// carries no parity at all.
fn hot_parity_overhead(healthy: usize) -> f64 {
    let scheme = ProtectionPolicy::differentiated()
        .scheme_for(ObjectClass::HotClean)
        .clamped_to(healthy);
    scheme.parity_chunks(healthy) as f64 / scheme.data_chunks_per_stripe(healthy) as f64
}

/// What one restart recovery ([`CacheSystem::recover`]) did.
#[derive(Clone, Debug)]
pub struct SystemRecovery {
    /// The target-level replay report (records replayed, torn tail,
    /// orphans collected, invariant violations).
    pub target: TargetRecovery,
    /// Simulated time the recovery took (journal read + replay + metadata
    /// reinstallation + orphan collection).
    pub duration: SimDuration,
    /// Cache-manager entries rebuilt from the recovered object map.
    pub cache_entries_restored: usize,
}

/// The cache server: cache-manager policy on the initiator side, object
/// storage target on the device side, backend store behind it.
///
/// See the crate docs for an end-to-end example.
#[derive(Clone, Debug)]
pub struct CacheSystem {
    config: SystemConfig,
    clock: SimClock,
    target: OsdTarget,
    cache: CacheManager,
    backend: BackendStore,
    metrics: Metrics,
    requests_seen: usize,
    /// Whether the background scrubber runs ([`PlannedEvent::StartScrub`]).
    scrubbing: bool,
    dirty_data_lost: u64,
    offline: bool,
    faults: FaultPlan,
    /// The layer counters already folded into the metrics, in
    /// [`Metrics::note_layers`] order — the one delta base.
    layers_seen: [u64; LAYER_COUNTERS],
    /// The shared `reo-trace` handle (disabled unless
    /// [`CacheSystem::enable_tracing`] is called).
    tracer: Tracer,
    /// The black-box flight recorder: always on (control-plane events
    /// are rare), dumped into postmortems when health leaves `Healthy`
    /// or an internal error fires. The cluster layer replaces it with a
    /// target-tagged handle to one shared ring.
    flight: FlightRecorder,
    /// The derived health state as of the last reconciliation.
    health: HealthState,
    /// Health-state transitions observed.
    health_transitions: u64,
    /// Requests shed with `NotReady` (neither tier could serve).
    shed_requests: u64,
    /// Planned events rejected as defensive no-ops.
    rejections: Rejections,
    /// Internal-invariant violations detected by the debug-mode
    /// post-reconcile check.
    internal_errors: u64,
    /// Sense code of a freshly detected internal fault, reported on the
    /// completion of the request that detected it.
    internal_fault: Option<SenseCode>,
    /// The rebuild QoS throttle (config `rebuild_bandwidth_pct > 0`),
    /// restarted by every device failure and spare insertion.
    throttle: RebuildThrottle,
    /// Start instant of the in-flight rebuild episode (set by
    /// `insert_spare`, cleared by a further `fail_device`).
    rebuild_started_at: Option<SimTime>,
    /// Per-class instants at which the rebuild queue drained, indexed by
    /// class id — the time-to-restored-redundancy ledger.
    redundancy_restored_at: [Option<SimTime>; 4],
    /// The class changes of the refresh in flight; kept between refreshes
    /// only for its capacity.
    class_changes: Vec<ClassChange>,
}

impl CacheSystem {
    /// Builds a system from a configuration.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical configurations (zero devices/capacity).
    pub fn new(config: SystemConfig) -> Self {
        assert!(config.devices > 0, "need at least one device");
        let clock = SimClock::new();
        let array = FlashArray::new(config.devices, config.device, clock.clone());
        let stripes = StripeManager::new(array, config.chunk_size);
        let mut target = OsdTarget::new(stripes, config.scheme.policy());
        if !config.prioritized_recovery {
            target.set_unprioritized_recovery();
        }
        let cache = cache_manager(&config);
        let mut backend = BackendStore::new(config.backend, clock.clone());
        let metrics = Metrics::new(clock.now());
        let faults = FaultPlan::new(config.fault_seed);
        let tracer = Tracer::new();
        target.set_tracer(tracer.clone());
        backend.set_tracer(tracer.clone());
        // The journal attaches before format so the reserved metadata
        // objects are journaled; the initial checkpoint makes an immediate
        // crash recoverable to the formatted state.
        target.attach_journal(Journal::format(config.fsync_interval));
        target
            .format()
            .expect("cache devices must have room for the metadata objects");
        target.take_checkpoint();
        CacheSystem {
            config,
            clock,
            target,
            cache,
            backend,
            metrics,
            requests_seen: 0,
            scrubbing: false,
            dirty_data_lost: 0,
            offline: false,
            faults,
            layers_seen: [0; LAYER_COUNTERS],
            tracer,
            flight: FlightRecorder::new(),
            health: HealthState::Healthy,
            health_transitions: 0,
            shed_requests: 0,
            rejections: Rejections::default(),
            internal_errors: 0,
            internal_fault: None,
            throttle: RebuildThrottle::default(),
            rebuild_started_at: None,
            redundancy_restored_at: [None; 4],
            class_changes: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// Changes the classification refresh period at runtime (0 disables
    /// further refreshes). Used by experiments that must isolate the
    /// recovery engine from the incidental healing that re-encoding class
    /// changes performs.
    pub fn set_classification_period(&mut self, period: usize) {
        self.config.classification_period = period;
    }

    /// Changes the write-back flusher's dirty watermark at runtime (1.0
    /// effectively disables flushing). Used by experiments that must stop
    /// the flusher from re-encoding dirty objects mid-measurement.
    pub fn set_dirty_flush_watermark(&mut self, watermark: f64) {
        self.config.dirty_flush_watermark = watermark;
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The measurements so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Turns per-layer request tracing on (`reo-trace`). Spans recorded
    /// from now on are aggregated in [`CacheSystem::tracer`]'s breakdown.
    pub fn enable_tracing(&mut self) {
        self.tracer.set_enabled(true);
    }

    /// The shared tracer handle (disabled unless
    /// [`CacheSystem::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The black-box flight recorder (always on; see
    /// [`reo_sim::FlightRecorder`]).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Replaces this system's tracer and flight recorder with shared
    /// handles (the cluster layer's one-recorder-per-cluster wiring),
    /// re-propagating the tracer through every instrumented layer.
    pub fn share_observability(&mut self, tracer: Tracer, flight: FlightRecorder) {
        self.target.set_tracer(tracer.clone());
        self.backend.set_tracer(tracer.clone());
        self.tracer = tracer;
        self.flight = flight;
    }

    /// The cache manager's policy counters.
    pub fn cache_stats(&self) -> reo_cache::CacheStats {
        self.cache.stats()
    }

    /// Per-device rows of the flash array (the exporter's device table).
    pub fn device_stats(&self) -> Vec<reo_flashsim::DeviceReport> {
        self.target.array().device_stats()
    }

    /// Mutable access to the measurements (for window rolling).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The backend store (for assertions about flushes).
    pub fn backend(&self) -> &BackendStore {
        &self.backend
    }

    /// The object storage target (for assertions about classes/usage).
    pub fn target(&self) -> &OsdTarget {
        &self.target
    }

    /// Objects currently cached.
    pub fn cached_objects(&self) -> usize {
        self.cache.len()
    }

    /// The space-efficiency metric: user bytes over total occupied flash
    /// bytes (Section VI-B).
    pub fn space_efficiency(&self) -> f64 {
        self.target.usage().space_efficiency()
    }

    /// Dirty objects whose only copy was destroyed by failures — the
    /// paper's "permanent data loss" count. Always 0 for Reo as long as
    /// one device survives.
    pub fn dirty_data_lost(&self) -> u64 {
        self.dirty_data_lost
    }

    /// The current health state (reconciled after every request and every
    /// fault event).
    pub fn health(&self) -> HealthState {
        self.health
    }

    /// Point-in-time resilience counters for export and assertions.
    pub fn resilience(&self) -> ResilienceSnapshot {
        let cache_stats = self.cache.stats();
        let mut ttr_us = [-1i64; 4];
        if let Some(started) = self.rebuild_started_at {
            for (slot, restored) in ttr_us.iter_mut().zip(self.redundancy_restored_at) {
                if let Some(at) = restored {
                    *slot = (at.saturating_since(started).as_nanos() / 1_000) as i64;
                }
            }
        }
        ResilienceSnapshot {
            health: self.health.label(),
            health_transitions: self.health_transitions,
            shed_requests: self.shed_requests,
            write_throughs: cache_stats.write_throughs,
            bypassed_fills: cache_stats.bypassed_fills,
            rejected_events: self.rejections.total(),
            rejected_events_by_reason: self.rejections.rows(),
            internal_errors: self.internal_errors,
            throttle_stalls: self.throttle.stalls,
            rebuild_throttle_bytes: self.throttle.bytes,
            ttr_us,
        }
    }

    /// Records one rejected planned event ([`Rejections::record`]).
    fn reject_event(&mut self, reason: &'static str) {
        self.rejections
            .record(&self.flight, self.clock.now(), reason);
    }

    /// Runs the target's recovery-ledger invariant check on demand (the
    /// same check debug builds run after every health reconcile).
    ///
    /// # Errors
    ///
    /// Returns the sense-coded [`TargetError::Internal`] on a ledger
    /// imbalance.
    pub fn verify_internal(&self) -> Result<(), TargetError> {
        self.target.verify_recovery_ledger()
    }

    /// `true` while the cache can still give a freshly written dirty
    /// object the redundancy its class requires. Under differentiated
    /// protection dirty data is replicated, which takes at least two
    /// healthy devices; uniform schemes manage the array as one group, so
    /// the requirement holds exactly while the array is within tolerance
    /// (not offline).
    fn dirty_redundancy_met(&self) -> bool {
        if self.offline {
            return false;
        }
        if self.config.scheme.is_differentiated() {
            self.config
                .devices
                .saturating_sub(self.target.failed_devices())
                >= 2
        } else {
            true
        }
    }

    /// Derives the health state from the ground truth (failure counts,
    /// rebuild queue, backend reachability) and counts the transition if
    /// it changed.
    fn reconcile_health(&mut self) {
        let failed = self.target.failed_devices();
        let cache_unusable = self.offline || !self.dirty_redundancy_met();
        let next = if cache_unusable {
            if self.backend.is_down() {
                HealthState::Unavailable
            } else {
                HealthState::ReadOnly
            }
        } else if self.backend.is_down() || failed > 0 {
            HealthState::Degraded(failed)
        } else if self.target.recovery_pending() > 0 {
            HealthState::Recovering
        } else {
            HealthState::Healthy
        };
        if next != self.health {
            let prev = self.health;
            self.health = next;
            self.health_transitions += 1;
            let now = self.clock.now();
            self.flight.record(
                now,
                "health-transition",
                format!("{} -> {}", prev.label(), next.label()),
            );
            // Leaving Healthy is the black-box trigger: snapshot the
            // event ring into a postmortem while the context is fresh.
            if prev == HealthState::Healthy {
                self.flight
                    .dump(now, format!("health-left-healthy:{}", next.label()));
            }
        }
        // Debug builds re-verify the rebuild ledger after every
        // reconcile: drift is counted and surfaced as a sense-coded
        // error on the detecting request's completion — never silent.
        #[cfg(debug_assertions)]
        if let Err(e) = self.target.verify_recovery_ledger() {
            self.internal_errors += 1;
            self.internal_fault = Some(e.sense());
            let now = self.clock.now();
            self.flight.record(now, "internal-error", e.sense().label());
            self.flight.dump(now, "internal-error");
        }
    }

    /// Applies one planned event to this node — the node's only fault
    /// door. This is what an event means on a node, for
    /// [`crate::ExperimentRunner::run`] and for every node a
    /// [`crate::ClusterSystem::apply_event`] reaches: device events address
    /// this node's own devices, and a `Crash` is a power loss followed by an
    /// immediate [`CacheSystem::recover`]. The five cluster events (target
    /// membership and replica divergence) mean nothing on one node and are
    /// rejected under `cluster-event-single-target` — counted and traced,
    /// never a panic.
    ///
    /// # Panics
    ///
    /// On a `SlowDevice` of a device this node does not have, a zero
    /// `factor_pct`, or a restart recovery that fails.
    pub fn apply_event(&mut self, event: PlannedEvent) {
        let now = self.clock.now();
        match event {
            PlannedEvent::FailDevice(d) => self.fail_device(d),
            PlannedEvent::InsertSpare(d) => self.insert_spare(d),
            // Draws come from `SystemConfig::fault_seed`, so equal seeds
            // damage equal chunks and time out equal reads.
            PlannedEvent::CorruptChunks { ppm } => {
                self.target
                    .inject_latent_corruption(&mut self.faults, f64::from(ppm) / 1e6);
            }
            PlannedEvent::TransientFaults { ppm } => {
                self.target
                    .arm_transient_faults(&mut self.faults, f64::from(ppm) / 1e6);
            }
            PlannedEvent::SlowDevice { device, factor_pct } => {
                let factor = f64::from(factor_pct) / 100.0;
                self.target.slow_device(&mut self.faults, device, factor);
            }
            PlannedEvent::StartScrub => self.scrubbing = true,
            // While the backend is down the cache keeps serving hits;
            // misses and dirty evictions are shed or deferred.
            PlannedEvent::FailBackend => {
                self.flight.record(now, "fault-injected", "fail-backend");
                self.backend.fail();
                self.reconcile_health();
            }
            PlannedEvent::RestoreBackend => {
                self.flight.record(now, "fault-injected", "restore-backend");
                self.backend.restore();
                self.reconcile_health();
            }
            PlannedEvent::SlowBackend { factor_pct } => {
                let factor = f64::from(factor_pct) / 100.0;
                let detail = format!("slow-backend x{factor}");
                self.flight.record(now, "fault-injected", detail);
                self.backend.set_slow_factor(factor);
            }
            PlannedEvent::Crash => {
                self.crash();
                self.recover()
                    .expect("restart recovery after a planned crash");
            }
            PlannedEvent::FailTarget(_)
            | PlannedEvent::RestoreTarget(_)
            | PlannedEvent::AddTarget
            | PlannedEvent::RemoveTarget(_)
            | PlannedEvent::InjectReplicaDivergence { .. } => {
                self.reject_event("cluster-event-single-target");
            }
        }
    }

    /// Loads the authoritative data set into the backend (charge-free).
    pub fn populate(&mut self, objects: &[WorkloadObject]) {
        self.backend.reserve(objects.len());
        for o in objects {
            self.backend.insert(o.key, o.size, None);
        }
    }

    /// Keys of every cached user object (system metadata excluded) — the
    /// cluster layer's enumeration for ring-delta migration.
    pub fn cached_keys(&self) -> Vec<ObjectKey> {
        self.cache
            .lru_iter()
            .filter(|k| !k.is_system_metadata())
            .collect()
    }

    /// Every cached user object with its size (system metadata excluded)
    /// — the cluster layer's enumeration for flash-capacity accounting
    /// (primary vs. redundancy bytes).
    pub fn cached_user_entries(&self) -> Vec<(ObjectKey, ByteSize)> {
        self.cached_keys()
            .into_iter()
            .filter_map(|k| self.cache.entry(k).map(|e| (k, e.size())))
            .collect()
    }

    /// Drops one cached object *without* flushing — pure invalidation for
    /// when the authoritative copy lives elsewhere (ownership migrated
    /// away, or the copy went stale behind an outage while writes landed
    /// on the backend). The caller asserts durability is already met;
    /// dirty entries are dropped too and do **not** count as dirty loss.
    /// Returns `true` if the object was cached.
    pub fn invalidate_cached(&mut self, key: ObjectKey) -> bool {
        let existed = self.cache.remove(key).is_some();
        let _ = self.target.remove_object(key);
        existed
    }

    /// Flushes (if dirty) and removes one cached object — migration out
    /// of a healthy node. Returns the object's size when it was cached,
    /// `Ok(None)` when it was not, and the sense-coded error when a
    /// required flush failed (backend outage) — the entry is then left
    /// untouched so no acknowledged write is lost.
    ///
    /// # Errors
    ///
    /// [`SenseCode::NotReady`] when the dirty flush could not land.
    pub fn flush_and_remove(&mut self, key: ObjectKey) -> Result<Option<ByteSize>, SenseCode> {
        let Some(size) = self.cache.entry(key).map(|e| e.size()) else {
            return Ok(None);
        };
        if self.evict(key) {
            Ok(Some(size))
        } else {
            Err(SenseCode::NotReady)
        }
    }

    /// Admits a clean warm copy (migration in), charging normal write
    /// time. Returns `true` when the object is cached afterwards (an
    /// object too large to ever fit is bypassed, not an error).
    pub fn warm_object(&mut self, key: ObjectKey, size: ByteSize) -> bool {
        if self.offline {
            return false;
        }
        if self.cache.contains(key) {
            return true;
        }
        self.admit(key, size, false);
        self.cache.contains(key)
    }

    /// Registers an object in this node's backend key map charge-free.
    /// The cluster layer mirrors every acknowledged write into all
    /// nodes' backends so a read lands correctly wherever placement or
    /// failover routes it next.
    pub fn mirror_backend_object(&mut self, key: ObjectKey, size: ByteSize) {
        self.backend.insert(key, size, None);
    }

    /// The replication content version stamped on this node's cached
    /// copy of `key` (`None` when uncached or never stamped — an
    /// unstamped copy came through the primary serving path and is
    /// authoritative by construction).
    pub fn cached_version(&self, key: ObjectKey) -> Option<u64> {
        self.target.replica_version(key)
    }

    /// Stamps the replication content version on this node's cached
    /// copy of `key` (metadata-only; a no-op when uncached).
    pub fn stamp_cached_version(&mut self, key: ObjectKey, version: u64) {
        let _ = self.target.stamp_replica_version(key, version);
    }

    /// Refreshes this node's replica copy of `key` to `version`: admits
    /// a clean warm copy if absent (charging normal write time, like
    /// [`CacheSystem::warm_object`]) and stamps the content version.
    /// Returns `true` when a stamped copy is cached afterwards. Called
    /// by the cluster layer's write fan-out and anti-entropy repair;
    /// never touches dirtiness or the journal — durability of the
    /// acknowledged write is the *acking* node's journal's job, the
    /// replica copy exists purely to serve reads at full speed.
    pub fn refresh_replica(&mut self, key: ObjectKey, size: ByteSize, version: u64) -> bool {
        if !self.warm_object(key, size) {
            return false;
        }
        self.stamp_cached_version(key, version);
        self.cache.note_replica_refresh();
        true
    }

    /// Records one externally-served request sample into this node's
    /// metrics and SLO monitor. The cluster's backend-first outage path
    /// serves a down target's range without the node's participation;
    /// recording the serve here keeps the owner's availability burn
    /// rates honest (a shed request burns, a recovered serve does not).
    pub fn record_external_sample(&mut self, sample: RequestSample) {
        self.metrics.record(sample);
    }

    /// Stripe reads retried past a transient device timeout so far.
    pub fn transient_retries(&self) -> u64 {
        self.target.transient_retries()
    }

    /// Injects a whole-device failure (the "shootdown" command). Failing
    /// an already-failed or unknown device is an explicit rejected no-op
    /// (counted per reason and traced) — a duplicate or misaddressed
    /// event must not double-count damage, corrupt recovery state, or
    /// panic.
    pub fn fail_device(&mut self, device: DeviceId) {
        if device.0 >= self.config.devices {
            self.reject_event("fail-device-unknown");
            return;
        }
        if !self.target.array().device(device).is_healthy() {
            self.reject_event("fail-device-already-failed");
            return;
        }
        self.flight.record(
            self.clock.now(),
            "fault-injected",
            format!("fail-device {}", device.0),
        );
        self.target.fail_device(device);
        // A further failure aborts any in-flight rebuild episode: the
        // queue was cleared, and its time-to-restored ledger with it.
        self.rebuild_started_at = None;
        self.redundancy_restored_at = [None; 4];
        self.throttle.restart();
        // Dirty objects that just became irrecoverable are permanent loss.
        for key in self.cache.dirty_keys() {
            if matches!(
                self.target.object_status(key),
                Ok(reo_stripe::ObjectStatus::Lost)
            ) {
                self.evict_lost(key);
            }
        }
        // Uniform protection manages the array as one RAID-like group:
        // once failures exceed the parity level the whole cache "is
        // corrupted and becomes unusable" (Section VI-C) — Reo instead
        // stays up on the survivors.
        if self.uniform_array_failed() {
            self.take_offline();
        }
        self.retune_cache_topology();
        self.reconcile_health();
    }

    /// Re-derives the cache manager's capacity and hot-parity overhead
    /// from the surviving device count, so the adaptive threshold keeps
    /// budgeting against reality after failures and spare insertions.
    fn retune_cache_topology(&mut self) {
        let healthy = self
            .config
            .devices
            .saturating_sub(self.target.failed_devices())
            .max(1);
        let capacity = ByteSize::from_bytes(
            self.config.cache_capacity.as_bytes() / self.config.devices as u64 * healthy as u64,
        )
        .max(ByteSize::from_kib(1));
        self.cache
            .update_topology(capacity, hot_parity_overhead(healthy));
        if self.config.scheme.is_differentiated() {
            // Re-derive the threshold immediately so admissions budget
            // against the new topology; the periodic refresh ships the
            // resulting class changes.
            self.cache.recompute_hot_threshold();
        }
    }

    /// `true` when a uniform scheme's array has more failed devices than
    /// its scheme tolerates; never for Reo (no array-wide failure mode).
    fn uniform_array_failed(&self) -> bool {
        match self.config.scheme.policy() {
            ProtectionPolicy::Uniform(scheme) => {
                self.target.failed_devices() > scheme.failures_tolerated(self.config.devices)
            }
            ProtectionPolicy::Differentiated => false,
        }
    }

    /// Drops every cached object and stops admitting new ones. The cache
    /// stays empty while offline: every admission path returns early.
    fn take_offline(&mut self) {
        for key in self.target.keys() {
            self.evict_lost(key);
        }
        self.offline = true;
        debug_assert!(self.cache.is_empty(), "an offline cache holds nothing");
    }

    /// `true` when the uniform array has failed past its parity level and
    /// caching is suspended.
    pub fn is_offline(&self) -> bool {
        self.offline
    }

    /// Replaces a failed device with a blank spare and schedules the
    /// prioritized rebuild. Irrecoverable objects are evicted immediately
    /// (their next access is a plain miss). Sparing a *healthy* slot or an
    /// unknown one is an explicit rejected no-op (counted per reason and
    /// traced) — the flash layer would happily blank a healthy device,
    /// silently destroying its data.
    pub fn insert_spare(&mut self, device: DeviceId) {
        if device.0 >= self.config.devices {
            self.reject_event("spare-device-unknown");
            return;
        }
        if self.target.array().device(device).is_healthy() {
            self.reject_event("spare-slot-healthy");
            return;
        }
        self.flight.record(
            self.clock.now(),
            "fault-injected",
            format!("insert-spare {}", device.0),
        );
        let lost = self.target.insert_spare(device);
        if self.offline && !self.uniform_array_failed() {
            // The (now empty) array is usable again; it re-warms.
            self.offline = false;
        }
        for key in lost {
            self.evict_lost(key);
        }
        self.retune_cache_topology();
        // A fresh rebuild episode begins: reset the time-to-restored
        // ledger and the throttle bucket (a new episode starts with a full
        // burst), then stamp classes that have nothing queued — their
        // redundancy was never lost, so their restore time is zero.
        self.rebuild_started_at = Some(self.clock.now());
        self.redundancy_restored_at = [None; 4];
        self.throttle.restart();
        self.note_redundancy_progress();
        self.reconcile_health();
    }

    /// Rebuilds still queued by the recovery engine.
    pub fn recovery_pending(&self) -> usize {
        self.target.recovery_pending()
    }

    /// Runs rebuild batches until the queue drains or `max_batches` is
    /// exhausted (the chaos harness's quiesce step). Returns `true` when
    /// nothing is left pending.
    pub fn drain_recovery(&mut self, max_batches: usize) -> bool {
        for _ in 0..max_batches {
            if self.target.recovery_pending() == 0 {
                break;
            }
            self.run_recovery_batch(true);
        }
        self.reconcile_health();
        self.target.recovery_pending() == 0
    }

    /// Handles one request end to end and records it in the metrics.
    pub fn handle(&mut self, request: &Request) -> RequestOutcome {
        let start = self.clock.now();
        self.requests_seen += 1;
        let trace_started = self.tracer.begin(&self.clock);
        if trace_started.is_some() {
            self.tracer.begin_request();
        }

        let (hit, degraded, class, sense) = match request.op {
            Operation::Read => self.handle_read(request),
            Operation::Write => {
                let (class, sense) = self.handle_write(request);
                (false, false, class, sense)
            }
        };
        let completed_at = self.clock.now();
        let latency = completed_at.saturating_since(start);
        let op = match request.op {
            Operation::Read => "read",
            Operation::Write => "write",
        };
        self.tracer
            .record(Layer::Cache, op, trace_started, completed_at);
        if degraded {
            self.tracer.annotate("degraded-path", completed_at);
        }
        // The byte counters are read here and the rest after housekeeping:
        // the traffic housekeeping moves is charged to the next request.
        let bytes_moved = self.byte_counters();

        // Housekeeping happens after the request completes: it consumes
        // device time but is not part of this request's latency.
        if self.config.scheme.is_differentiated()
            && self.config.classification_period > 0
            && self
                .requests_seen
                .is_multiple_of(self.config.classification_period)
        {
            self.refresh_classification();
        }
        if self.target.recovery_pending() > 0
            && self
                .requests_seen
                .is_multiple_of(self.config.recovery_period.max(1))
        {
            self.run_recovery_batch(false);
        }
        self.run_flusher();
        if !self.offline && self.scrubbing && self.requests_seen.is_multiple_of(SCRUB_PERIOD) {
            self.run_scrubber();
        }
        if self.config.checkpoint_period > 0
            && self
                .requests_seen
                .is_multiple_of(self.config.checkpoint_period)
        {
            self.target.take_checkpoint();
        }
        self.note_layers(bytes_moved);
        self.reconcile_health();

        // A detected internal-invariant violation overrides the outcome's
        // sense code: the answer may rest on corrupted accounting, so the
        // completion reports the malfunction honestly.
        let sense = self.internal_fault.take().unwrap_or(sense);

        self.metrics.record(RequestSample {
            is_read: request.op == Operation::Read,
            hit,
            degraded,
            class,
            requested: request.size,
            latency,
            completed_at,
            ok: sense.is_available(),
        });
        if trace_started.is_some() {
            let label = (sense != SenseCode::Success).then(|| sense.label());
            self.tracer.end_request(latency, label);
        }

        RequestOutcome {
            hit,
            degraded,
            latency,
            completed_at,
            sense,
        }
    }

    /// The cumulative byte counters of the flash array (read, written)
    /// and the backend (both directions) — the first three columns of a
    /// [`Metrics::note_layers`] reading.
    fn byte_counters(&self) -> [u64; 3] {
        let flash = self.target.array().stats();
        let backend = self.backend.stats();
        [
            flash.bytes_read,
            flash.bytes_written,
            backend.bytes_read + backend.bytes_written,
        ]
    }

    /// Completes a layer-counter reading — the byte counters as read when
    /// the request completed, plus the target's fault counters and the
    /// journal's as of now — and folds its movement since the previous
    /// reading into the metrics.
    fn note_layers(&mut self, [flash_read, flash_written, backend]: [u64; 3]) {
        let faults = self.target.stats();
        let journal = self
            .target
            .journal_stats()
            .expect("CacheSystem always attaches a journal");
        let now = [
            flash_read,
            flash_written,
            backend,
            faults.medium_errors,
            faults.repairs,
            faults.scrub_passes,
            journal.appends,
            journal.checkpoints,
        ];
        // Saturating: replacing a failed device with a blank spare resets
        // its per-device counters, so the flash aggregate can move
        // backwards; the base re-anchors there.
        let seen = std::mem::replace(&mut self.layers_seen, now);
        self.metrics
            .note_layers(std::array::from_fn(|i| now[i].saturating_sub(seen[i])));
    }

    fn handle_read(&mut self, request: &Request) -> (bool, bool, Option<ObjectClass>, SenseCode) {
        let key = request.key;
        if self.offline {
            // The caching layer is down: every request goes to the backend.
            // A backend outage on top of that leaves nothing to serve from
            // — shed with NotReady rather than panic.
            let sense = match self.backend.read(key) {
                Ok(_) => SenseCode::MediumError,
                Err(e) => self.shed(&e),
            };
            return (false, false, None, sense);
        }
        let mut cache_copy_lost = false;
        if self.cache.contains(key) {
            let class = self.target.class_of(key);
            match self.target.read_object(key) {
                Ok(outcome) => {
                    self.cache.record_access(key);
                    let sense = if outcome.degraded {
                        SenseCode::RecoveredError
                    } else {
                        SenseCode::Success
                    };
                    return (true, outcome.degraded, class, sense);
                }
                Err(_) => {
                    // Irrecoverable in cache (or dropped by a failed
                    // re-encode): evict and fall through to the backend —
                    // possible only for clean data, which is why cold
                    // clean objects may go unprotected at all. The client
                    // still gets correct bytes; only performance degrades.
                    self.metrics.note_fallback();
                    self.evict_lost(key);
                    cache_copy_lost = true;
                }
            }
        }
        // Miss: fetch from the backend and admit — unless the array is
        // rebuilding, in which case the fill is bypassed so rebuild and
        // on-demand traffic do not also compete with fill writes.
        let fetched = match self.backend.read(key) {
            Ok(f) => f,
            Err(e) => return (false, false, None, self.shed(&e)),
        };
        if self.target.recovery_pending() > 0 {
            self.cache.note_bypassed_fill();
        } else {
            self.admit(key, fetched.size, false);
        }
        let sense = if cache_copy_lost {
            SenseCode::MediumError
        } else {
            SenseCode::Success
        };
        (false, false, None, sense)
    }

    /// Returns the class that absorbed the write (`None` when it went
    /// straight through to the backend) and the completion sense code.
    fn handle_write(&mut self, request: &Request) -> (Option<ObjectClass>, SenseCode) {
        let key = request.key;
        if !self.dirty_redundancy_met() {
            // Degraded write-through mode, offline included: the cache
            // cannot give a new dirty object the redundancy its class
            // requires, so the write's durable home is the backend. The
            // backend write is acknowledged *before* any cached (now
            // stale) copy is dropped, so a backend outage here sheds the
            // new write without losing the previously acknowledged
            // contents.
            let sense = self.write_through(key, request.size);
            if sense == SenseCode::Success {
                self.cache.note_write_through();
                if self.cache.contains(key) {
                    self.invalidate_cached(key);
                }
            }
            return (None, sense);
        }
        if self.cache.contains(key) {
            // Whole-object overwrite of a cached object: rewrite it in
            // cache under the dirty class.
            // Accessed first: dirtying the entry touched last costs no
            // search for its place among the dirty ones.
            self.cache.record_access(key);
            self.cache.mark_dirty(key);
            if self.target.class_of(key) == Some(ObjectClass::Dirty)
                && self
                    .target
                    .write_range(key, 0, request.size.as_bytes())
                    .is_ok()
            {
                // Fast path: the object is already under the dirty
                // scheme; its chunks were overwritten in place with
                // per-chunk parity maintenance.
                return (Some(ObjectClass::Dirty), SenseCode::Success);
            }
            if self.backend.is_down() {
                // Re-storing replaces the object and may need evictions;
                // with the backend down neither the write-through fallback
                // nor dirty evictions can land. Shed the new write rather
                // than risk destroying the acknowledged copy.
                self.shed_requests += 1;
                return (None, SenseCode::NotReady);
            }
            let _ = self.target.remove_object(key);
            if !self.create_with_eviction(key, request.size, ObjectClass::Dirty) {
                // Could not re-store the new contents: drop the entry and
                // write straight through so nothing is lost.
                self.cache.remove(key);
                return (None, self.write_through(key, request.size));
            }
            (Some(ObjectClass::Dirty), SenseCode::Success)
        } else {
            // Write-allocate: the whole object is overwritten, so no
            // backend read is needed; it lands in cache dirty.
            let sense = self.admit(key, request.size, true);
            (self.target.class_of(key), sense)
        }
    }

    /// Admits an object into the cache (evicting as needed). Bypasses the
    /// cache if the object cannot fit even when empty. Returns the sense
    /// code of the absorption (a dirty object that fits nowhere durable is
    /// shed with `NotReady`).
    fn admit(&mut self, key: ObjectKey, size: ByteSize, dirty: bool) -> SenseCode {
        // Admission-time classification: under a generous redundancy
        // reserve a newcomer can be hot (and protected) from the start.
        let class = if self.config.scheme.is_differentiated() {
            self.cache.classify_admission(size, dirty, false)
        } else if dirty {
            ObjectClass::Dirty
        } else {
            ObjectClass::ColdClean
        };
        if self.create_with_eviction(key, size, class) {
            self.cache.insert(key, size, dirty, false);
            SenseCode::Success
        } else if dirty {
            // Could not cache a dirty object: write it straight through to
            // the backend so nothing is lost.
            self.write_through(key, size)
        } else {
            SenseCode::Success
        }
    }

    /// Sheds a request neither tier can take: counts it and answers with
    /// the backend error's sense code.
    fn shed(&mut self, e: &BackendError) -> SenseCode {
        self.shed_requests += 1;
        backend_sense(e)
    }

    /// Writes `key` straight to the backend, the durable home of a write
    /// the cache cannot absorb; [`CacheSystem::shed`] when that fails too.
    fn write_through(&mut self, key: ObjectKey, size: ByteSize) -> SenseCode {
        match self.backend.write(key, size, None) {
            Ok(_) => SenseCode::Success,
            Err(e) => self.shed(&e),
        }
    }

    /// Creates the object on the target, evicting LRU victims until it
    /// fits. Returns `false` if it can never fit.
    fn create_with_eviction(&mut self, key: ObjectKey, size: ByteSize, class: ObjectClass) -> bool {
        loop {
            match self.target.create_object(key, size, class, None) {
                Ok(_) => return true,
                Err(TargetError::CacheFull { .. }) => {
                    if !self.evict_for(key, size, class) {
                        return false;
                    }
                }
                Err(TargetError::AlreadyExists(_)) => {
                    // Stale target entry without a cache entry: replace it.
                    let _ = self.target.remove_object(key);
                }
                Err(_) => return false,
            }
        }
    }

    /// After the target refused a create or class change of `key` for room
    /// (writing nothing), evicts the least-recently-used other object —
    /// the paper's plain LRU; dirty ones only while the backend is up —
    /// unless the array can never hold `key`. Returns whether it evicted,
    /// so the caller retries.
    fn evict_for(&mut self, key: ObjectKey, size: ByteSize, class: ObjectClass) -> bool {
        if self.target.room_for(key, size, class) == Room::Never {
            return false;
        }
        match self.cache.pick_victim(Some(key), self.backend.is_down()) {
            Some(victim) => self.evict(victim),
            None => false,
        }
    }

    /// Evicts an object, flushing it to the backend first if dirty
    /// (write-back). Returns `false` — leaving the entry untouched — when
    /// the flush fails (backend outage): an acknowledged dirty object must
    /// never be dropped unflushed.
    fn evict(&mut self, key: ObjectKey) -> bool {
        let dirty_size = self
            .cache
            .entry(key)
            .filter(|e| e.is_dirty())
            .map(|e| e.size());
        if let Some(size) = dirty_size {
            if self.backend.write(key, size, None).is_err() {
                return false;
            }
        }
        self.cache.remove(key);
        let _ = self.target.remove_object(key);
        true
    }

    /// Evicts an object whose cache copy is unreadable (no flush possible).
    fn evict_lost(&mut self, key: ObjectKey) {
        if let Some(entry) = self.cache.remove(key) {
            if entry.is_dirty() {
                self.dirty_data_lost += 1;
            }
        }
        let _ = self.target.remove_object(key);
    }

    /// Recomputes the hot threshold and ships every class change to the
    /// target through the control mailbox (`#SETID#`), evicting cold tail
    /// objects when a promotion needs parity space.
    // Once in `classification_period` requests: out of line, so the
    // refresh does not grow `handle`'s body for every other request.
    #[inline(never)]
    fn refresh_classification(&mut self) {
        let mut changes = std::mem::take(&mut self.class_changes);
        self.cache.refresh_classification_into(&mut changes);
        // One buffer for every message of the burst; its length is the
        // longest control message's, or this does not compile.
        let mut wire = [0; 40];
        for &change in &changes {
            let size = match self.cache.entry(change.key) {
                Some(e) => e.size(),
                None => continue,
            };
            let msg = ControlMessage::SetClass {
                key: change.key,
                class: change.to,
            };
            // A promotion grows the object's share of some device: the
            // target refuses it, touching nothing, until evictions make room.
            loop {
                match self.target.handle_control_write(msg.encode_into(&mut wire)) {
                    Ok(SenseCode::CacheFull) if self.evict_for(change.key, size, change.to) => {
                        continue
                    }
                    // Irrecoverable: the object is no longer in cache.
                    Ok(SenseCode::Corrupted) => self.evict_lost(change.key),
                    // Applied, or refused with no room to make: the next
                    // refresh retries.
                    Ok(_) => {}
                    Err(e) => debug_assert!(false, "control write failed: {e}"),
                }
                break;
            }
        }
        self.class_changes = changes;
    }

    /// The background write-back flusher: while the dirty share of the
    /// cache exceeds the configured watermark, flush the oldest dirty
    /// objects to the backend (charging its service time) and reclassify
    /// them clean — which drops their replication down to their clean
    /// class's redundancy. Bounded per request so on-demand traffic keeps
    /// priority.
    fn run_flusher(&mut self) {
        if self.offline || self.backend.is_down() {
            return;
        }
        let watermark = self.config.dirty_flush_watermark.clamp(0.0, 1.0);
        let limit = self.config.cache_capacity.scale(watermark);
        let mut budget = 4usize;
        while budget > 0 && self.cache.dirty_bytes() > limit {
            // The flusher only uses *spare* backend capacity: if the
            // spindle is still busy with on-demand misses (or earlier
            // flushes), dirty data waits. Under heavy write ratios the
            // backend saturates and the dirty set grows past the
            // watermark — the realistic backpressure that costs clean
            // cache space (Section VI-D's declining curve).
            if !self.backend.is_idle_at(self.clock.now()) {
                break;
            }
            budget -= 1;
            let Some(key) = self.cache.first_dirty() else {
                break;
            };
            let size = self.cache.entry(key).expect("victim is cached").size();
            let _ = self.backend.write_background(key, size, None);
            if let Some(new_class) = self.cache.mark_clean(key) {
                match self.target.set_class(key, new_class) {
                    Ok(_) => {}
                    // No room to re-encode: the target left the old
                    // (replicated) layout as it was; a later refresh retries.
                    Err(TargetError::CacheFull { .. }) => {}
                    Err(_) => self.evict_lost(key),
                }
            }
        }
    }

    /// One bounded background-scrubber step: verifies chunk integrity of
    /// the next [`SCRUB_BUDGET`] objects, repairing recoverable damage
    /// proactively; objects found irrecoverable are evicted so their next
    /// access is a clean miss instead of a medium error.
    fn run_scrubber(&mut self) {
        let report = self.target.scrub_step(SCRUB_BUDGET);
        for key in report.lost {
            self.evict_lost(key);
        }
    }

    /// Runs a bounded batch of background rebuilds (between requests, per
    /// Section IV-D's on-demand-first rule). With a configured
    /// [`SystemConfig::rebuild_bandwidth_pct`], each rebuild's flash bytes
    /// are metered through the [`RebuildThrottle`]. `drain` marks the
    /// quiesce drain ([`CacheSystem::drain_recovery`]), the one batch that
    /// runs unmetered; it leaves the bucket as it was.
    fn run_recovery_batch(&mut self, drain: bool) {
        let now = self.clock.now();
        let metered = !drain && self.throttle.open(&self.config, now);
        for _ in 0..self.config.recovery_batch.max(1) {
            if metered && !self.throttle.admits(&self.tracer, now) {
                break;
            }
            let before = metered.then(|| self.target.array().stats());
            let outcome = self.target.recover_next();
            if let Some(before) = before {
                let after = self.target.array().stats();
                self.throttle.charge(
                    after.bytes_read.saturating_sub(before.bytes_read)
                        + after.bytes_written.saturating_sub(before.bytes_written),
                );
            }
            match outcome {
                None => break,
                Some(RecoveryOutcome::Rebuilt(..)) | Some(RecoveryOutcome::Skipped(_)) => {}
                Some(RecoveryOutcome::Lost(key)) => self.evict_lost(key),
            }
        }
        self.note_redundancy_progress();
    }

    /// Stamps the restore instant of every class whose rebuild queue has
    /// drained — the per-class time-to-restored-redundancy ledger. No-op
    /// outside a rebuild episode.
    fn note_redundancy_progress(&mut self) {
        if self.rebuild_started_at.is_none() {
            return;
        }
        let now = self.clock.now();
        let engine = self.target.recovery_engine();
        for class in [
            ObjectClass::Metadata,
            ObjectClass::Dirty,
            ObjectClass::HotClean,
            ObjectClass::ColdClean,
        ] {
            let idx = class.recovery_priority() as usize;
            if self.redundancy_restored_at[idx].is_none() && engine.pending_of(class) == 0 {
                self.redundancy_restored_at[idx] = Some(now);
            }
        }
    }

    /// Simulates a sudden power loss: every piece of DRAM state — the
    /// target's object map and allocation tables, the cache manager's
    /// index, the journal's staging buffer — vanishes; only the flash
    /// chunks and the durable journal survive. The tail of the journal's
    /// last flush may be torn (partially persisted), with the tear length
    /// drawn from the fault plan's dedicated power-loss stream so equal
    /// seeds crash identically.
    ///
    /// The system answers everything with [`SenseCode::NotReady`] until
    /// [`CacheSystem::recover`] is called.
    pub fn crash(&mut self) -> CrashOutcome {
        self.flight
            .record(self.clock.now(), "fault-injected", "crash");
        let tear = self.faults.crash_tear_bytes(128) as usize;
        let outcome = self
            .target
            .simulate_crash(tear)
            .expect("CacheSystem always attaches a journal");
        // The initiator-side cache index is DRAM too: rebuild from scratch
        // (recover() repopulates it from the recovered object map).
        self.cache = cache_manager(&self.config);
        outcome
    }

    /// Deterministic restart recovery after [`CacheSystem::crash`]: replays
    /// checkpoint + journal into the target, rebuilds the cache manager's
    /// index from the recovered object map (replaying persisted access
    /// frequencies so hotness classification survives the restart), and
    /// charges the modeled recovery time to the simulation clock.
    ///
    /// # Errors
    ///
    /// Propagates [`TargetError`] if the journal is unreadable or the
    /// replayed metadata is corrupt.
    pub fn recover(&mut self) -> Result<SystemRecovery, TargetError> {
        let report = self.target.recover_from_journal()?;
        let mut restored = 0usize;
        for (key, class, size, freq) in self.target.inventory() {
            if key.is_system_metadata() {
                continue;
            }
            self.cache
                .insert(key, size, class == ObjectClass::Dirty, false);
            // `insert` counts one access; replay the rest, capped — the
            // hotness classifier saturates long before 32.
            for _ in 1..freq.min(32) {
                self.cache.record_access(key);
            }
            restored += 1;
        }
        // Mount cost plus per-record replay and per-object metadata
        // reinstallation time, charged to the simulation clock so
        // recovery shows up in end-to-end timings.
        let replayed = report.replayed_records as u64;
        let started = self.clock.now();
        let duration = SimDuration::from_micros(500 + 2 * replayed + 20 * restored as u64);
        self.clock.advance(duration);
        self.tracer
            .record_span(Layer::Journal, "replay", started, self.clock.now());
        self.flight.record(
            self.clock.now(),
            "journal-replay",
            format!(
                "replayed {replayed} records, restored {restored} objects, torn_tail {}",
                report.torn_tail
            ),
        );
        self.metrics
            .note_recovery(replayed, report.torn_tail, duration.as_nanos() / 1_000);
        // `Journal::recover` starts a fresh stats ledger, so what it holds
        // is this recovery's own activity: count it now and re-base the two
        // journal columns on it, so the recovery checkpoint is counted
        // exactly once. The other columns wait for the next request.
        let journal = self
            .target
            .journal_stats()
            .expect("CacheSystem always attaches a journal");
        let [.., appends, checkpoints] = &mut self.layers_seen;
        (*appends, *checkpoints) = (journal.appends, journal.checkpoints);
        self.metrics
            .note_layers([0, 0, 0, 0, 0, 0, journal.appends, journal.checkpoints]);
        self.reconcile_health();
        Ok(SystemRecovery {
            target: report,
            duration,
            cache_entries_restored: restored,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeConfig;
    use reo_workload::WorkloadSpec;

    fn small_trace(seed: u64) -> reo_workload::Trace {
        WorkloadSpec {
            objects: 100,
            mean_object_size: ByteSize::from_kib(256),
            size_sigma: 0.7,
            locality: reo_workload::Locality::Medium,
            requests: 800,
            write_ratio: 0.0,
            temporal_reuse: reo_workload::Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(seed)
    }

    fn system_for(
        scheme: SchemeConfig,
        trace: &reo_workload::Trace,
        cache_frac: f64,
    ) -> CacheSystem {
        let cache = trace.summary().data_set_bytes.scale(cache_frac);
        let mut config = SystemConfig::paper_defaults(scheme, cache);
        config.chunk_size = ByteSize::from_kib(16);
        let mut sys = CacheSystem::new(config);
        sys.populate(trace.objects());
        sys
    }

    #[test]
    fn hit_ratio_grows_with_cache_size() {
        let trace = small_trace(1);
        let mut ratios = Vec::new();
        for frac in [0.05, 0.15, 0.40] {
            let mut sys = system_for(SchemeConfig::Parity(0), &trace, frac);
            for r in trace.requests() {
                sys.handle(r);
            }
            ratios.push(sys.metrics().totals().hit_ratio_pct());
        }
        assert!(
            ratios[0] < ratios[1] && ratios[1] < ratios[2],
            "ratios = {ratios:?}"
        );
    }

    #[test]
    fn more_parity_means_lower_hit_ratio() {
        let trace = small_trace(2);
        let mut by_scheme = Vec::new();
        for scheme in [
            SchemeConfig::Parity(0),
            SchemeConfig::Parity(2),
            SchemeConfig::FullReplication,
        ] {
            let mut sys = system_for(scheme, &trace, 0.10);
            for r in trace.requests() {
                sys.handle(r);
            }
            by_scheme.push(sys.metrics().totals().hit_ratio_pct());
        }
        assert!(
            by_scheme[0] > by_scheme[1] && by_scheme[1] > by_scheme[2],
            "hit ratios = {by_scheme:?}"
        );
    }

    #[test]
    fn space_efficiency_tracks_scheme() {
        let trace = small_trace(3);
        let mut sys = system_for(SchemeConfig::Parity(1), &trace, 0.10);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        let eff = sys.space_efficiency();
        assert!((0.75..=0.85).contains(&eff), "1-parity eff = {eff}");

        let mut sys0 = system_for(SchemeConfig::Parity(0), &trace, 0.10);
        for r in trace.requests().iter().take(300) {
            sys0.handle(r);
        }
        assert!((sys0.space_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn misses_cost_more_than_hits() {
        let trace = small_trace(4);
        let mut sys = system_for(SchemeConfig::Parity(0), &trace, 0.5);
        // First access to an object: miss; repeat: hit.
        let req = &trace.requests()[0];
        let miss = sys.handle(req);
        assert!(!miss.hit);
        let hit = sys.handle(req);
        assert!(hit.hit);
        assert!(
            hit.latency < miss.latency,
            "hit {} >= miss {}",
            hit.latency,
            miss.latency
        );
    }

    #[test]
    fn zero_parity_cache_dies_with_one_device() {
        let trace = small_trace(5);
        let mut sys = system_for(SchemeConfig::Parity(0), &trace, 0.20);
        for r in trace.requests().iter().take(400) {
            sys.handle(r);
        }
        let now = sys.clock().now();
        sys.metrics_mut().roll_window(now);
        sys.fail_device(DeviceId(0));
        for r in trace.requests().iter().skip(400).take(200) {
            sys.handle(r);
        }
        // With no redundancy the whole cache is corrupted and goes
        // offline (Section VI-C): the hit ratio drops to zero.
        assert!(sys.is_offline());
        let window = sys.metrics().window();
        assert_eq!(window.hit_ratio_pct(), 0.0);
    }

    #[test]
    fn reo_keeps_serving_after_failures() {
        let trace = small_trace(6);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.20);
        for r in trace.requests().iter().take(500) {
            sys.handle(r);
        }
        let now = sys.clock().now();
        sys.metrics_mut().roll_window(now);
        sys.fail_device(DeviceId(0));
        for r in trace.requests().iter().skip(500).take(300) {
            sys.handle(r);
        }
        let reo_window = sys.metrics().window().hit_ratio_pct();
        assert!(reo_window > 10.0, "Reo after 1 failure: {reo_window}%");
        assert_eq!(sys.dirty_data_lost(), 0);
    }

    #[test]
    fn write_back_flushes_on_eviction() {
        let trace = small_trace(7);
        // Tiny cache forces evictions.
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.10 }, &trace, 0.05);
        let writes: Vec<Request> = trace
            .requests()
            .iter()
            .take(200)
            .map(|r| Request {
                op: Operation::Write,
                ..*r
            })
            .collect();
        for w in &writes {
            sys.handle(w);
        }
        // Every evicted dirty object must have been flushed: total version
        // bumps in the backend equal flushes; at least one happened.
        assert!(sys.backend().stats().writes > 0, "no write-back flushes");
        assert_eq!(sys.metrics().totals().writes, 200);
        assert_eq!(sys.dirty_data_lost(), 0);
    }

    #[test]
    fn dirty_data_survives_failures_under_reo() {
        let trace = small_trace(8);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.20);
        // Write a handful of objects, then kill all but one device.
        for r in trace.requests().iter().take(50) {
            sys.handle(&Request {
                op: Operation::Write,
                ..*r
            });
        }
        for d in 0..4 {
            sys.fail_device(DeviceId(d));
        }
        assert_eq!(sys.dirty_data_lost(), 0, "replicated dirty data survived");

        // Under uniform 1-parity, the same scenario loses dirty data.
        let mut uni = system_for(SchemeConfig::Parity(1), &trace, 0.20);
        for r in trace.requests().iter().take(50) {
            uni.handle(&Request {
                op: Operation::Write,
                ..*r
            });
        }
        for d in 0..4 {
            uni.fail_device(DeviceId(d));
        }
        assert!(
            uni.dirty_data_lost() > 0,
            "1-parity cannot survive 4 failures"
        );
    }

    #[test]
    fn degraded_reads_report_recovered_error_on_the_wire() {
        let trace = small_trace(10);
        let mut sys = system_for(SchemeConfig::Parity(1), &trace, 0.20);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        sys.fail_device(DeviceId(0));
        assert!(!sys.is_offline(), "1-parity tolerates one failure");
        // A cached object with a chunk on the failed device is served by
        // reconstruction: a hit, and the initiator is told it was recovered.
        let (key, size) = sys
            .cached_user_entries()
            .into_iter()
            .find(|&(key, _)| {
                sys.target().object_status(key) == Ok(reo_stripe::ObjectStatus::Degraded)
            })
            .expect("a cached object touches the failed device");
        let read = Request {
            key,
            op: Operation::Read,
            size,
        };
        let out = sys.handle(&read);
        assert!(out.hit && out.degraded, "{out:?}");
        assert_eq!(out.sense, SenseCode::RecoveredError);
    }

    #[test]
    fn recovery_restores_hit_ratio() {
        let trace = small_trace(9);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.40 }, &trace, 0.20);
        for r in trace.requests().iter().take(500) {
            sys.handle(r);
        }
        sys.fail_device(DeviceId(1));
        sys.insert_spare(DeviceId(1));
        let pending = sys.recovery_pending();
        // Protected (hot/dirty/metadata) objects are queued for rebuild.
        for r in trace.requests().iter().skip(500).take(300) {
            sys.handle(r);
        }
        assert!(
            sys.recovery_pending() < pending || pending == 0,
            "background recovery progressed"
        );
    }

    #[test]
    fn classification_promotes_hot_objects() {
        let trace = small_trace(10);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.40 }, &trace, 0.30);
        // With ~30 cached objects the LRU churn can evict a promoted
        // object again, so assert the peak across the run rather than the
        // final instant.
        let mut max_hot = 0usize;
        for r in trace.requests() {
            sys.handle(r);
            let hot = trace
                .objects()
                .iter()
                .filter(|o| sys.target().class_of(o.key) == Some(ObjectClass::HotClean))
                .count();
            max_hot = max_hot.max(hot);
        }
        assert!(max_hot > 0, "no objects were ever promoted to hot");
        assert!(sys.target().stats().control_messages > 0);
        assert!(sys.target().stats().reencodes > 0);
    }

    fn write_trace(seed: u64) -> reo_workload::Trace {
        WorkloadSpec {
            objects: 80,
            mean_object_size: ByteSize::from_kib(128),
            size_sigma: 0.5,
            locality: reo_workload::Locality::Medium,
            requests: 600,
            write_ratio: 0.3,
            temporal_reuse: reo_workload::Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(seed)
    }

    #[test]
    fn crash_and_recover_mid_trace_keeps_serving() {
        let trace = write_trace(7);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.30);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        let cached_before = sys.cached_objects();
        let outcome = sys.crash();
        assert!(sys.target().is_warming());
        assert_eq!(sys.cached_objects(), 0, "the DRAM index must vaporize");
        let report = sys.recover().expect("restart recovery succeeds");
        assert!(
            report.target.violations.is_empty(),
            "consistency violations: {:?}",
            report.target.violations
        );
        assert!(!sys.target().is_warming());
        assert!(
            report.cache_entries_restored > 0 && report.cache_entries_restored <= cached_before,
            "restored {} of {} entries",
            report.cache_entries_restored,
            cached_before
        );
        for r in trace.requests().iter().skip(300) {
            sys.handle(r);
        }
        let totals = sys.metrics().totals();
        assert!(totals.journal_appends > 0);
        assert!(
            totals.checkpoint_count >= 2,
            "format + recovery checkpoints"
        );
        assert!(totals.replayed_records > 0 || report.target.replayed_records == 0);
        assert_eq!(totals.torn_tail_detected, u64::from(outcome.partial_tail));
        assert!(totals.recovery_duration_us > 0);
        assert!(
            sys.metrics().totals().hit_ratio_pct() > 0.0,
            "the recovered cache must serve hits again"
        );
    }

    #[test]
    fn acknowledged_dirty_writes_survive_a_crash() {
        let trace = write_trace(8);
        let cache = trace.summary().data_set_bytes.scale(0.30);
        let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
        config.chunk_size = ByteSize::from_kib(16);
        // Keep dirty objects dirty: the point here is the ack barrier, not
        // the flusher.
        config.dirty_flush_watermark = 1.0;
        let mut sys = CacheSystem::new(config);
        sys.populate(trace.objects());
        for r in trace.requests().iter().take(250) {
            sys.handle(r);
        }
        let dirty_before: Vec<ObjectKey> = sys
            .target()
            .inventory()
            .into_iter()
            .filter(|(key, class, ..)| *class == ObjectClass::Dirty && !key.is_system_metadata())
            .map(|(key, ..)| key)
            .collect();
        assert!(!dirty_before.is_empty(), "trace produced no dirty objects");
        sys.crash();
        let report = sys.recover().expect("restart recovery succeeds");
        assert!(
            report.target.violations.is_empty(),
            "violations: {:?}, lost: {:?}, degraded: {}, restored: {}",
            report.target.violations,
            report.target.lost,
            report.target.degraded,
            report.target.restored_objects
        );
        assert!(
            report.target.lost.is_empty(),
            "a pure power loss must not lose objects: {:?}",
            report.target.lost
        );
        // Every dirty object acknowledged before the crash is still
        // present and still marked dirty (so the flusher will write it
        // back; a lost dirty ack would silently drop user data).
        for key in dirty_before {
            let found = sys
                .target()
                .inventory()
                .into_iter()
                .find(|(k, ..)| *k == key);
            match found {
                Some((_, class, ..)) => assert_eq!(
                    class,
                    ObjectClass::Dirty,
                    "{key:?} lost its dirty label across the crash"
                ),
                None => panic!("acknowledged dirty object {key:?} vanished in the crash"),
            }
        }
        assert_eq!(sys.dirty_data_lost(), 0);
    }

    #[test]
    fn redundant_fault_events_are_rejected_not_replayed() {
        let trace = small_trace(11);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.20);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        // Spare into a healthy slot first: nothing must be cleared.
        let cached = sys.cached_objects();
        sys.insert_spare(DeviceId(2));
        assert_eq!(sys.resilience().rejected_events, 1);
        assert_eq!(sys.cached_objects(), cached, "healthy slot untouched");

        // Fail once, then fail the same device again: the second shot is a
        // no-op (no double-count, no second recovery reset).
        sys.fail_device(DeviceId(0));
        let failed = sys.target().failed_devices();
        sys.fail_device(DeviceId(0));
        assert_eq!(sys.resilience().rejected_events, 2);
        assert_eq!(sys.target().failed_devices(), failed);

        // And the reverse ordering: spare in, then a second spare into the
        // now-healthy slot is rejected too.
        sys.insert_spare(DeviceId(0));
        sys.insert_spare(DeviceId(0));
        assert_eq!(sys.resilience().rejected_events, 3);

        // Unknown devices are rejected (never a panic) under their own
        // reasons, and the breakdown reconciles with the aggregate.
        sys.fail_device(DeviceId(99));
        sys.insert_spare(DeviceId(99));
        let resilience = sys.resilience();
        assert_eq!(resilience.rejected_events, 5);
        let by_reason: std::collections::BTreeMap<&str, u64> = resilience
            .rejected_events_by_reason
            .iter()
            .map(|(r, n)| (r.as_str(), *n))
            .collect();
        assert_eq!(by_reason["spare-slot-healthy"], 2);
        assert_eq!(by_reason["fail-device-already-failed"], 1);
        assert_eq!(by_reason["fail-device-unknown"], 1);
        assert_eq!(by_reason["spare-device-unknown"], 1);
        assert_eq!(
            by_reason.values().sum::<u64>(),
            resilience.rejected_events,
            "breakdown must reconcile with the aggregate"
        );
    }

    #[test]
    fn cluster_events_are_rejected_on_a_single_node() {
        let trace = small_trace(6);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.15);
        for event in [
            PlannedEvent::FailTarget(0),
            PlannedEvent::RestoreTarget(0),
            PlannedEvent::AddTarget,
            PlannedEvent::RemoveTarget(0),
            PlannedEvent::InjectReplicaDivergence { ppm: 500_000 },
        ] {
            sys.apply_event(event);
        }
        let resilience = sys.resilience();
        assert_eq!(
            resilience.rejected_events_by_reason,
            [("cluster-event-single-target".to_string(), 5)]
        );
        assert_eq!(resilience.rejected_events, 5);
        assert_eq!(sys.health(), HealthState::Healthy);
    }

    #[test]
    fn internal_ledger_check_is_clean_in_normal_operation() {
        let trace = small_trace(13);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.20);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        sys.fail_device(DeviceId(0));
        sys.insert_spare(DeviceId(0));
        sys.drain_recovery(10_000);
        for r in trace.requests().iter().skip(300).take(100) {
            sys.handle(r);
        }
        assert!(sys.verify_internal().is_ok());
        assert_eq!(sys.resilience().internal_errors, 0);
    }

    #[test]
    fn health_tracks_failures_rebuild_and_restoration() {
        let trace = small_trace(12);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.20);
        assert_eq!(sys.health(), HealthState::Healthy);
        for r in trace.requests().iter().take(300) {
            sys.handle(r);
        }
        sys.fail_device(DeviceId(0));
        sys.handle(&trace.requests()[300]);
        assert_eq!(sys.health(), HealthState::Degraded(1));

        sys.insert_spare(DeviceId(0));
        if sys.recovery_pending() > 0 {
            assert_eq!(sys.health(), HealthState::Recovering);
        }
        assert!(sys.drain_recovery(10_000), "rebuild queue drains");
        assert_eq!(sys.health(), HealthState::Healthy);
        assert!(sys.resilience().health_transitions >= 2);

        // Per-class time-to-restored-redundancy is stamped for the
        // rebuild episode: never negative once an episode completed.
        let ttr = sys.resilience().ttr_us;
        assert!(ttr.iter().all(|&t| t >= 0), "ttr = {ttr:?}");
    }

    #[test]
    fn backend_outage_degrades_and_sheds_only_what_it_must() {
        let trace = write_trace(9);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.30);
        for r in trace.requests().iter().take(200) {
            sys.handle(r);
        }
        sys.apply_event(PlannedEvent::FailBackend);
        // Cached reads still work; uncached reads and evict-blocked writes
        // shed with NotReady instead of panicking or losing acks.
        let mut served = 0u64;
        for r in trace.requests().iter().skip(200).take(200) {
            let out = sys.handle(r);
            match out.sense {
                SenseCode::NotReady => {}
                _ => served += 1,
            }
        }
        assert!(served > 0, "cached objects keep being served");
        assert!(matches!(
            sys.health(),
            HealthState::Degraded(_) | HealthState::Unavailable
        ));
        assert_eq!(sys.dirty_data_lost(), 0);

        sys.apply_event(PlannedEvent::RestoreBackend);
        for r in trace.requests().iter().skip(400) {
            sys.handle(r);
        }
        assert_eq!(sys.health(), HealthState::Healthy);
        assert_eq!(sys.dirty_data_lost(), 0);
    }

    #[test]
    fn writes_fall_back_to_write_through_without_dirty_redundancy() {
        let trace = write_trace(10);
        let mut sys = system_for(SchemeConfig::Reo { reserve: 0.20 }, &trace, 0.30);
        for r in trace.requests().iter().take(200) {
            sys.handle(r);
        }
        // Four of five devices down: Dirty-class replication is impossible,
        // so the admission path must switch to write-through.
        for d in 0..4 {
            sys.fail_device(DeviceId(d));
        }
        assert!(matches!(
            sys.health(),
            HealthState::ReadOnly | HealthState::Unavailable
        ));
        let backend_writes_before = sys.backend().stats().writes;
        for r in trace.requests().iter().skip(200).take(200) {
            let out = sys.handle(r);
            assert_ne!(out.sense, SenseCode::Failure, "never an opaque failure");
        }
        let snap = sys.resilience();
        assert!(snap.write_throughs > 0, "no write-through fallbacks");
        assert!(
            sys.backend().stats().writes > backend_writes_before,
            "write-through writes reached the backend"
        );
        assert_eq!(sys.dirty_data_lost(), 0, "acks honored via the backend");
    }

    #[test]
    fn clean_fills_bypass_the_cache_while_rebuilding() {
        let trace = small_trace(13);
        let cache = trace.summary().data_set_bytes.scale(0.20);
        let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
        config.chunk_size = ByteSize::from_kib(16);
        // Stretch the rebuild window so misses land while recovery is
        // still pending.
        config.recovery_batch = 1;
        config.recovery_period = 64;
        let mut sys = CacheSystem::new(config);
        sys.populate(trace.objects());
        for r in trace.requests().iter().take(400) {
            sys.handle(r);
        }
        sys.fail_device(DeviceId(0));
        sys.insert_spare(DeviceId(0));
        assert!(sys.recovery_pending() > 0, "rebuild backlog exists");
        for r in trace.requests().iter().skip(400) {
            sys.handle(r);
            if sys.recovery_pending() == 0 {
                break;
            }
        }
        assert!(
            sys.resilience().bypassed_fills > 0,
            "misses during rebuild must bypass the fill path"
        );
    }

    #[test]
    fn rebuild_throttle_slows_recovery_and_counts_stalls() {
        // A write-heavy trace leaves hundreds of protected (dirty) objects
        // in the cache, so the spare insertion builds a rebuild backlog
        // well past the throttle's burst allowance.
        let trace = WorkloadSpec {
            objects: 400,
            mean_object_size: ByteSize::from_kib(128),
            size_sigma: 0.5,
            locality: reo_workload::Locality::Medium,
            requests: 1200,
            write_ratio: 0.5,
            temporal_reuse: reo_workload::Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(14);
        let cache = trace.summary().data_set_bytes.scale(0.50);
        let mut throttled_cfg =
            SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
        throttled_cfg.chunk_size = ByteSize::from_kib(16);
        throttled_cfg.dirty_flush_watermark = 1.0;
        throttled_cfg.recovery_batch = 8;
        throttled_cfg.rebuild_bandwidth_pct = 1;
        let mut open_cfg = throttled_cfg.clone();
        open_cfg.rebuild_bandwidth_pct = 0;

        let run = |mut sys: CacheSystem| {
            sys.populate(trace.objects());
            for r in trace.requests().iter().take(800) {
                sys.handle(r);
            }
            sys.fail_device(DeviceId(0));
            sys.insert_spare(DeviceId(0));
            assert!(
                sys.recovery_pending() > 32,
                "needs a deep rebuild queue, got {}",
                sys.recovery_pending()
            );
            let mut batches = 0usize;
            for r in trace.requests().iter().cycle().skip(800) {
                if sys.recovery_pending() == 0 || batches > 20_000 {
                    break;
                }
                sys.handle(r);
                batches += 1;
            }
            (batches, sys.resilience())
        };

        let (open_batches, open_snap) = run(CacheSystem::new(open_cfg));
        let (throttled_batches, throttled_snap) = run(CacheSystem::new(throttled_cfg));
        assert_eq!(open_snap.throttle_stalls, 0, "pct=0 never engages");
        assert_eq!(open_snap.rebuild_throttle_bytes, 0);
        assert!(throttled_snap.throttle_stalls > 0, "a 1% cap must stall");
        assert!(throttled_snap.rebuild_throttle_bytes > 0);
        assert!(
            throttled_batches > open_batches,
            "throttled rebuild ({throttled_batches} rounds) must outlast \
             the open one ({open_batches})"
        );
    }

    /// Every branch that sheds a request or writes it through to the
    /// backend, each with the backend up and with it down: the
    /// completion's sense code, the requests it shed, the write-throughs
    /// it counted, and whether the key is cached afterwards.
    #[test]
    fn write_through_and_shed_rules_are_pinned() {
        type Setup = fn(&mut CacheSystem, &reo_workload::Trace) -> Request;
        type Expected = (SenseCode, u64, u64, bool);
        fn write(key: ObjectKey, size: ByteSize) -> Request {
            Request {
                key,
                op: Operation::Write,
                size,
            }
        }
        // A cached object the target holds under a clean class, so a
        // whole-object overwrite has to re-store it.
        fn cached_clean(sys: &CacheSystem) -> (ObjectKey, ByteSize) {
            sys.cached_user_entries()
                .into_iter()
                .find(|&(k, _)| sys.target().class_of(k) != Some(ObjectClass::Dirty))
                .expect("a clean cached object")
        }
        // Larger than the whole array: no class of it fits anywhere.
        fn too_large(sys: &CacheSystem) -> ByteSize {
            sys.config().cache_capacity * 2
        }
        let cases: [(&str, SchemeConfig, Setup, [Expected; 2]); 5] = [
            (
                "offline write",
                SchemeConfig::Parity(1),
                |sys, trace| {
                    sys.apply_event(PlannedEvent::FailDevice(DeviceId(0)));
                    sys.apply_event(PlannedEvent::FailDevice(DeviceId(1)));
                    assert!(sys.is_offline());
                    let o = &trace.objects()[0];
                    write(o.key, o.size)
                },
                [
                    (SenseCode::Success, 0, 1, false),
                    (SenseCode::NotReady, 1, 0, false),
                ],
            ),
            (
                "degraded write-through",
                SchemeConfig::Reo { reserve: 0.20 },
                |sys, _| {
                    for d in 0..4 {
                        sys.apply_event(PlannedEvent::FailDevice(DeviceId(d)));
                    }
                    let (key, size) = sys.cached_user_entries()[0];
                    write(key, size)
                },
                [
                    (SenseCode::Success, 0, 1, false),
                    (SenseCode::NotReady, 1, 0, true),
                ],
            ),
            (
                "cached overwrite",
                SchemeConfig::Reo { reserve: 0.20 },
                |sys, _| {
                    let (key, size) = cached_clean(sys);
                    write(key, size)
                },
                [
                    (SenseCode::Success, 0, 0, true),
                    (SenseCode::NotReady, 1, 0, true),
                ],
            ),
            (
                "failed re-store",
                SchemeConfig::Reo { reserve: 0.20 },
                |sys, _| {
                    let (key, _) = cached_clean(sys);
                    write(key, too_large(sys))
                },
                [
                    (SenseCode::Success, 0, 0, false),
                    (SenseCode::NotReady, 1, 0, true),
                ],
            ),
            (
                "dirty admit that fits nowhere",
                SchemeConfig::Reo { reserve: 0.20 },
                |sys, trace| {
                    let cached = sys.cached_keys();
                    let o = trace
                        .objects()
                        .iter()
                        .find(|o| !cached.contains(&o.key))
                        .expect("an uncached object");
                    write(o.key, too_large(sys))
                },
                [
                    (SenseCode::Success, 0, 0, false),
                    (SenseCode::NotReady, 1, 0, false),
                ],
            ),
        ];
        let trace = write_trace(11);
        for (name, scheme, setup, expected) in cases {
            for (backend_down, want) in [false, true].into_iter().zip(expected) {
                let mut sys = system_for(scheme, &trace, 0.30);
                for r in trace.requests().iter().take(300) {
                    sys.handle(r);
                }
                let request = setup(&mut sys, &trace);
                if backend_down {
                    sys.apply_event(PlannedEvent::FailBackend);
                }
                let before = sys.resilience();
                let outcome = sys.handle(&request);
                let after = sys.resilience();
                let got = (
                    outcome.sense,
                    after.shed_requests - before.shed_requests,
                    after.write_throughs - before.write_throughs,
                    sys.cached_keys().contains(&request.key),
                );
                assert_eq!(got, want, "{name}, backend down: {backend_down}");
            }
        }
    }

    /// Nodes of one and two devices build and serve under every scheme:
    /// the hot class's parity is clamped to the array, as the stripe layer
    /// clamps it, and a uniform array goes offline past what its scheme
    /// tolerates on that many devices.
    #[test]
    fn narrow_arrays_build_serve_and_fail_by_their_scheme() {
        let trace = WorkloadSpec {
            objects: 100,
            mean_object_size: ByteSize::from_kib(256),
            size_sigma: 0.7,
            locality: reo_workload::Locality::Medium,
            requests: 2_000,
            write_ratio: 0.2,
            temporal_reuse: reo_workload::Locality::Medium.temporal_reuse(),
            reuse_window: 100,
        }
        .generate(11);
        for devices in [1, 2] {
            for scheme in [
                SchemeConfig::Parity(0),
                SchemeConfig::Parity(1),
                SchemeConfig::FullReplication,
                SchemeConfig::Reo { reserve: 0.20 },
            ] {
                let cache = trace.summary().data_set_bytes.scale(0.20);
                let mut config = SystemConfig::paper_defaults(scheme, cache);
                config.devices = devices;
                config.device.capacity = ByteSize::from_bytes(cache.as_bytes() / devices as u64);
                config.chunk_size = ByteSize::from_kib(16);
                let mut sys = CacheSystem::new(config);
                sys.populate(trace.objects());
                for r in trace.requests() {
                    sys.handle(r);
                }
                let totals = sys.metrics().totals();
                assert_eq!(totals.requests, 2_000, "{scheme} on {devices}");
                assert!(totals.read_hits > 0, "{scheme} on {devices}");

                sys.fail_device(DeviceId(0));
                let offline = match scheme {
                    SchemeConfig::Parity(0) => true,
                    SchemeConfig::Parity(_) | SchemeConfig::FullReplication => devices == 1,
                    SchemeConfig::Reo { .. } => false,
                };
                assert_eq!(sys.is_offline(), offline, "{scheme} on {devices}");
            }
        }
    }

    /// The copy of the hot overhead the cache crate keeps for callers that
    /// build a `CacheConfig` by hand agrees with the node's, bit for bit.
    #[test]
    fn two_parity_overhead_is_the_node_hot_overhead() {
        for n in 3..=8 {
            assert_eq!(
                CacheConfig::two_parity_overhead(n).to_bits(),
                hot_parity_overhead(n).to_bits(),
                "{n} devices"
            );
        }
        assert_eq!(hot_parity_overhead(2), 1.0);
        assert_eq!(hot_parity_overhead(1), 0.0);
    }

    /// A user object key of the tests below.
    fn user(i: u64) -> ObjectKey {
        use reo_osd::{ObjectId, PartitionId};
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
    }

    /// A node under `scheme` of five 1 MiB devices and 16 KiB chunks,
    /// filled with one-chunk objects while device 0 was out, up to the
    /// first admission that had to evict, then given a blank spare there:
    /// device 0 has room for nearly a whole device, the other four for
    /// less than a few chunks each — far more free bytes in sum than on
    /// the fullest device.
    fn filled_around_a_spare(scheme: SchemeConfig) -> CacheSystem {
        let mut config = SystemConfig::paper_defaults(scheme, ByteSize::from_mib(5));
        config.chunk_size = ByteSize::from_kib(16);
        let mut sys = CacheSystem::new(config);
        sys.target.fail_device(DeviceId(0));
        for i in 0.. {
            let cached = sys.cached_objects();
            sys.warm_object(user(i), ByteSize::from_kib(16));
            if sys.cached_objects() <= cached {
                break;
            }
        }
        sys.target.insert_spare(DeviceId(0));
        sys.drain_recovery(usize::MAX);
        let free = |d| sys.target.array().device(DeviceId(d)).available();
        assert!(free(0) > ByteSize::from_kib(900), "{scheme}: {}", free(0));
        assert!((1..5).all(|d| free(d) < ByteSize::from_kib(64)), "{scheme}");
        sys
    }

    /// Runs `op` on `sys` and asserts that every write it put on a device
    /// is a chunk that stays there: a chunk under a handle past every
    /// handle the devices held before. A store a device refused, written
    /// and taken back, would show as a write with no chunk.
    fn no_refused_write(sys: &mut CacheSystem, label: &str, op: impl FnOnce(&mut CacheSystem)) {
        let devices = || (0..5).map(DeviceId);
        let writes = |sys: &CacheSystem, d| sys.target.array().device(d).stats().writes;
        let handles = |sys: &CacheSystem, d| sys.target.array().device(d).chunk_handles();
        let before: Vec<_> = devices().map(|d| writes(sys, d)).collect();
        let newest = devices()
            .flat_map(|d| handles(sys, d))
            .max()
            .expect("a chunk");
        op(sys);
        for (d, before) in devices().zip(before) {
            let stored = handles(sys, d).into_iter().filter(|&h| h > newest).count();
            assert_eq!(
                writes(sys, d) - before,
                stored as u64,
                "{label}: ssd{}",
                d.0
            );
        }
    }

    /// On a node whose free bytes sit on one device, an admission evicts
    /// until every device has room for its share, under every scheme: it
    /// lands, and no device writes a chunk it then takes back.
    #[test]
    fn a_create_makes_room_on_every_device_before_it_writes() {
        for scheme in [
            SchemeConfig::Reo { reserve: 0.20 },
            SchemeConfig::Parity(1),
            SchemeConfig::Parity(0),
            SchemeConfig::FullReplication,
        ] {
            let mut sys = filled_around_a_spare(scheme);
            let label = scheme.label();
            no_refused_write(&mut sys, &label, |sys| {
                assert!(sys.warm_object(user(1 << 20), ByteSize::from_kib(200)));
            });
            assert!(sys.target.contains(user(1 << 20)), "{label}");
        }
    }

    /// A promotion on that node under Reo: the refresh evicts until every
    /// device has room for the object's hot share, counting its cold share
    /// as freed, so the re-encode lands — where free bytes summed over the
    /// devices say there is room already and evict nothing. The reserve
    /// (2.6 % of 5 MiB) has room for the parity of the one object read
    /// again and again, and of no one-chunk object besides.
    #[test]
    fn a_promotion_makes_room_on_every_device_before_it_writes() {
        let mut sys = filled_around_a_spare(SchemeConfig::Reo { reserve: 0.026 });
        sys.set_classification_period(usize::MAX);
        let (key, size) = (user(1 << 20), ByteSize::from_kib(192));
        assert!(sys.warm_object(key, size));
        assert_eq!(sys.target.class_of(key), Some(ObjectClass::ColdClean));
        let read = Request {
            key,
            op: Operation::Read,
            size,
        };
        for _ in 0..20 {
            assert!(sys.handle(&read).hit);
        }
        sys.drain_recovery(usize::MAX);
        assert_eq!(
            sys.target.room_for(key, size, ObjectClass::HotClean),
            Room::Short
        );
        no_refused_write(&mut sys, "refresh", CacheSystem::refresh_classification);
        assert_eq!(sys.target.class_of(key), Some(ObjectClass::HotClean));
    }

    /// A promotion the array can never take — a device would have to hold
    /// more of the hot encoding than it holds bytes — is refused before
    /// anything is read: the refresh sends it, evicts nothing (not the
    /// dirty object there for the taking), and no device does any I/O;
    /// the entry stays cached, cold.
    #[test]
    fn a_promotion_the_array_never_takes_changes_nothing() {
        let config =
            SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.9 }, ByteSize::from_mib(5));
        let mut sys = CacheSystem::new(config);
        sys.set_classification_period(usize::MAX);
        let (key, size) = (user(1), ByteSize::from_mib(4));
        assert!(sys.warm_object(key, size));
        let write = Request {
            key: user(2),
            op: Operation::Write,
            size: ByteSize::from_kib(64),
        };
        sys.handle(&write);
        let read = Request {
            key,
            op: Operation::Read,
            size,
        };
        for _ in 0..20 {
            assert!(sys.handle(&read).hit);
        }
        assert_eq!(
            sys.target.room_for(key, size, ObjectClass::HotClean),
            Room::Never
        );
        let io = |sys: &CacheSystem| {
            let array = sys.target.array();
            let stats = (0..5).map(|d| array.device(DeviceId(d)).stats());
            stats.collect::<Vec<_>>()
        };
        let (before, cached) = (io(&sys), sys.cached_objects());
        let sent = sys.target.stats().control_messages;
        sys.refresh_classification();
        assert!(
            sys.target.stats().control_messages > sent,
            "no promotion sent"
        );
        assert_eq!(sys.target.class_of(key), Some(ObjectClass::ColdClean));
        assert!(sys.cache.contains(key) && sys.cache.contains(user(2)));
        assert_eq!(sys.cached_objects(), cached);
        assert_eq!(io(&sys), before);
        assert_eq!(sys.target.stats().reencodes, 0);
    }
}
