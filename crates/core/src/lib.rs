#![warn(missing_docs)]
//! Reo: a reliable, efficient, object-based flash cache — the top-level
//! crate of this reproduction.
//!
//! This crate wires the substrates together into the system the paper
//! evaluates (Figure 3):
//!
//! ```text
//!   workload ──▶ CacheSystem (osd-initiator: CacheManager policy)
//!                    │  object interface (#SETID# / #QUERY# mailbox)
//!                    ▼
//!                OsdTarget (osd-target: index + encoding + recovery)
//!                    │ stripes
//!                    ▼
//!                FlashArray (5 simulated SSDs)        BackendStore (HDD)
//! ```
//!
//! * [`SchemeConfig`] — the six protection configurations of the
//!   evaluation: `0-parity`, `1-parity`, `2-parity`, `full-replication`
//!   (uniform baselines) and `Reo-10/20/40%` (differentiated redundancy
//!   with that fraction of flash reserved for parity).
//! * [`CacheSystem`] — the closed-loop cache server: read hits/misses,
//!   write-back dirty data, LRU eviction with flush-before-evict,
//!   periodic adaptive reclassification shipped through the control
//!   mailbox, on-demand degraded reads, and background prioritized
//!   recovery interleaved between requests.
//! * [`Metrics`] — the paper's four measurements: space efficiency, hit
//!   ratio (read requests), bandwidth (MB/s of requested data per
//!   simulated second), mean latency.
//! * [`ExperimentRunner`] — drives a [`reo_workload::Trace`] through a
//!   system with optional warm-up, failure injection at request indices
//!   (the paper's 10k/20k/30k/40k shootdowns), spare insertion, and
//!   windowed measurement between events.
//!
//! # Examples
//!
//! ```
//! use reo_core::{CacheSystem, SchemeConfig, SystemConfig};
//! use reo_workload::WorkloadSpec;
//!
//! let trace = WorkloadSpec::medium().with_objects(200).with_requests(500).generate(1);
//! let config = SystemConfig::paper_defaults(
//!     SchemeConfig::Reo { reserve: 0.20 },
//!     trace.summary().data_set_bytes.scale(0.10),
//! );
//! let mut system = CacheSystem::new(config);
//! system.populate(trace.objects());
//! for request in trace.requests() {
//!     system.handle(request);
//! }
//! let snap = system.metrics().totals();
//! assert!(snap.requests > 0);
//! ```

mod cluster;
mod config;
mod metrics;
mod runner;
mod system;

pub use cluster::{
    ClusterHealth, ClusterSystem, FlashOverheadReport, Redundancy, RedundancySnapshot, TargetState,
};
// Compat names for the frozen `benchmark/` workspace (ROADMAP's
// single-perf-harness item deletes them with
// `ClusterSystem::with_{replication,parity}_policy`).
#[doc(hidden)]
pub type ReplicationPolicy = Redundancy;
#[doc(hidden)]
pub type ParityGroupPolicy = Redundancy;
pub use config::{SchemeConfig, SystemConfig};
pub use metrics::{
    ClassSnapshot, Metrics, MetricsSnapshot, RequestSample, SloSnapshot, TargetMetricsRow,
    CLASS_LABELS, LAYER_COUNTERS, SLO_AVAILABILITY_TARGET_PCT, SLO_FAST_WINDOW_SECS,
    SLO_LATENCY_TARGET_PCT, SLO_LATENCY_THRESHOLDS_MS, SLO_SLOW_WINDOW_SECS,
};
pub use runner::{
    EventOutcome, ExperimentPlan, ExperimentResult, ExperimentRunner, PlannedEvent, TimeSeriesPoint,
};
pub use system::{CacheSystem, HealthState, RequestOutcome, ResilienceSnapshot, SystemRecovery};

pub use reo_flashsim::{DeviceId, DeviceReport};
pub use reo_placement::{PlacementRing, TargetId};
