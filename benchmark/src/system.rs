//! The program under test behind one face: a single `CacheSystem` or a
//! `ClusterSystem`, built at a workload's geometry and driven request by
//! request with a timestamp at every request boundary.

use std::time::Instant;

use reo_core::{
    CacheSystem, ClusterSystem, MetricsSnapshot, ParityGroupPolicy, PlannedEvent,
    ReplicationPolicy, RequestOutcome, SchemeConfig, SystemConfig, TargetState,
};
use reo_sim::Tracer;
use reo_workload::{Request, Trace};

use crate::workloads::{Topology, Workload, CLUSTER_TARGETS};

/// Share of the data set the cache holds.
const CACHE_FRACTION: f64 = 0.10;

pub enum System {
    Single(Box<CacheSystem>),
    Cluster(Box<ClusterSystem>),
}

/// The configuration every workload shares, sized to `trace`.
pub fn config_for(trace: &Trace) -> SystemConfig {
    SystemConfig::paper_defaults(
        SchemeConfig::Reo { reserve: 0.20 },
        trace.summary().data_set_bytes.scale(CACHE_FRACTION),
    )
}

impl System {
    /// Constructs the system for `workload`; the data set is not loaded
    /// yet (see [`System::populate`]).
    pub fn new(workload: &Workload, trace: &Trace) -> System {
        let config = config_for(trace);
        match workload.topology {
            Topology::Single => System::Single(Box::new(CacheSystem::new(config))),
            Topology::ClusterRepl2 => System::Cluster(Box::new(
                ClusterSystem::new(config, CLUSTER_TARGETS)
                    .with_replication_policy(ReplicationPolicy::two_way()),
            )),
            Topology::ClusterParity31 => System::Cluster(Box::new(
                ClusterSystem::new(config, CLUSTER_TARGETS)
                    .with_parity_policy(ParityGroupPolicy::reo(3, 1)),
            )),
        }
    }

    pub fn populate(&mut self, trace: &Trace) {
        match self {
            System::Single(s) => s.populate(trace.objects()),
            System::Cluster(c) => c.populate(trace.objects()),
        }
    }

    pub fn handle(&mut self, request: &Request) -> RequestOutcome {
        match self {
            System::Single(s) => s.handle(request),
            System::Cluster(c) => c.handle(request),
        }
    }

    /// Applies one planned event.
    ///
    /// # Panics
    ///
    /// Panics on an event no workload schedules for this topology.
    pub fn apply(&mut self, event: PlannedEvent) {
        match (self, event) {
            (System::Single(s), PlannedEvent::FailDevice(d)) => s.fail_device(d),
            (System::Single(s), PlannedEvent::InsertSpare(d)) => s.insert_spare(d),
            (System::Cluster(c), event) => c.apply_event(event),
            (System::Single(_), other) => panic!("no single-node workload schedules {other:?}"),
        }
    }

    /// Ends warm-up: measurements (and the observability state that
    /// restarts with them) are reset, caches and membership are kept.
    pub fn start_measuring(&mut self) {
        match self {
            System::Single(s) => {
                let now = s.clock().now();
                s.metrics_mut().reset_all(now);
                s.tracer().reset();
                s.flight().reset();
            }
            System::Cluster(c) => c.reset_stats(),
        }
    }

    /// Measurements since [`System::start_measuring`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        match self {
            System::Single(s) => s.metrics().totals(),
            System::Cluster(c) => c.metrics_snapshot(),
        }
    }

    /// The member `CacheSystem`s (one for a single node), in target order.
    pub fn nodes(&self) -> Vec<&CacheSystem> {
        match self {
            System::Single(s) => vec![s],
            System::Cluster(c) => (0..c.targets_created()).map(|t| c.node(t)).collect(),
        }
    }

    /// User bytes over occupied flash bytes, across all nodes, in percent.
    pub fn space_efficiency_pct(&self) -> f64 {
        let (mut user, mut total) = (0u64, 0u64);
        for node in self.nodes() {
            let usage = node.target().usage();
            user += usage.user_bytes.as_bytes();
            total += usage.total().as_bytes();
        }
        100.0 * user as f64 / total.max(1) as f64
    }

    /// Internal-invariant violations the program itself detected.
    pub fn internal_errors(&self) -> u64 {
        self.nodes()
            .iter()
            .map(|n| n.resilience().internal_errors)
            .sum()
    }

    /// Runs the recovery-ledger check of every node that is up.
    pub fn verify_internal(&self) -> Result<(), String> {
        match self {
            System::Single(s) => s.verify_internal().map_err(|e| e.to_string()),
            System::Cluster(c) => (0..c.targets_created())
                .filter(|&t| c.target_state(t) == TargetState::Up)
                .try_for_each(|t| {
                    c.node(t)
                        .verify_internal()
                        .map_err(|e| format!("target {t}: {e}"))
                }),
        }
    }

    pub fn enable_tracing(&mut self) {
        match self {
            System::Single(s) => s.enable_tracing(),
            System::Cluster(c) => c.enable_tracing(),
        }
    }

    pub fn tracer(&self) -> &Tracer {
        match self {
            System::Single(s) => s.tracer(),
            System::Cluster(c) => c.tracer(),
        }
    }
}

/// One timed step of a pass.
pub enum Step<'a> {
    /// Request `index` completed with `outcome`.
    Request {
        index: usize,
        outcome: &'a RequestOutcome,
    },
    /// The next planned event is about to be applied; what the callback
    /// spends here is charged to the event's step.
    BeforeEvent,
    /// Planned event number `index` was applied.
    Event { index: usize },
}

/// Drives `requests` through `system`, applying each of `events`
/// immediately before the request with its index, and reports every step
/// with its host time in nanoseconds. One `Instant::now()` per request
/// boundary: a request's step runs from the end of the previous step to
/// its own completion, so the harness's own bookkeeping is inside the
/// steps and the steps add up to the pass.
pub fn drive(
    system: &mut System,
    requests: &[Request],
    events: &[(usize, PlannedEvent)],
    mut each: impl FnMut(&System, Step<'_>, u64),
) {
    let mut pending = events.iter().enumerate().peekable();
    let mut last = Instant::now();
    for (index, request) in requests.iter().enumerate() {
        while let Some(&(event_index, &(at, event))) = pending.peek() {
            if at > index {
                break;
            }
            pending.next();
            each(system, Step::BeforeEvent, 0);
            system.apply(event);
            let now = Instant::now();
            each(system, Step::Event { index: event_index }, nanos(now, last));
            last = now;
        }
        let outcome = system.handle(request);
        let now = Instant::now();
        each(
            system,
            Step::Request {
                index,
                outcome: &outcome,
            },
            nanos(now, last),
        );
        last = now;
    }
    assert!(
        pending.next().is_none(),
        "every event must fall inside the pass"
    );
}

fn nanos(later: Instant, earlier: Instant) -> u64 {
    later.duration_since(earlier).as_nanos() as u64
}
