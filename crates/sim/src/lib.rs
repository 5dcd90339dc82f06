#![warn(missing_docs)]
//! Simulation substrate for the Reo object-based flash cache reproduction.
//!
//! The Reo paper (ICDCS'19) evaluates its prototype on a physical testbed:
//! a five-SSD flash array, a hard-drive backend, and a 10 GbE network. This
//! crate provides the *time base* that lets the rest of the workspace model
//! that hardware deterministically in user space:
//!
//! * [`SimTime`] / [`SimDuration`] — a nanosecond-resolution virtual clock.
//! * [`SimClock`] — a monotonically advancing clock shared by simulated
//!   devices.
//! * [`ServiceModel`] — per-device service-time model (fixed per-operation
//!   latency plus a bandwidth term), used by the SSD, HDD, and network
//!   models.
//! * [`ByteSize`] — a byte-count newtype with human-friendly constructors.
//! * [`Histogram`] — the log-bucketed latency histogram behind every mean
//!   and percentile the paper reports.
//! * [`rng`] — seed-deterministic random number helpers so that every
//!   experiment is exactly reproducible.
//! * [`TokenBucket`] — a deterministic byte-rate throttle over simulated
//!   time, used to cap background (rebuild) bandwidth.
//! * [`Tracer`] — the `reo-trace` span recorder: sim-clock-stamped,
//!   per-layer latency attribution with near-zero cost when disabled, plus
//!   per-request [`TraceTree`] exemplar capture.
//! * [`FlightRecorder`] — a black-box ring of structured control-plane
//!   events with deterministic [`Postmortem`] dumps.
//! * [`FastMap`] — a `HashMap` over a deterministic multiply-rotate
//!   [`FastHasher`], for maps keyed by identifiers the simulator issues.
//!
//! Nothing in this crate (or its dependents) reads the wall clock; simulated
//! time only moves when a model says it does.
//!
//! # Examples
//!
//! ```
//! use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};
//!
//! // An SSD that costs 100us per operation and streams at 500 MB/s.
//! let ssd = ServiceModel::new(SimDuration::from_micros(100), 500 * 1024 * 1024);
//! let clock = SimClock::new();
//! let t = ssd.service_time(ByteSize::from_mib(1));
//! clock.advance(t);
//! assert!(clock.now().as_nanos() > 0);
//! ```

mod flight;
mod hash;
mod qos;
pub mod rng;
mod service;
mod size;
mod stats;
mod time;
mod trace;

pub use flight::{FlightEvent, FlightRecorder, Postmortem};
pub use hash::{FastHasher, FastMap};
pub use qos::TokenBucket;
pub use service::ServiceModel;
pub use size::ByteSize;
pub use stats::Histogram;
pub use time::{SimClock, SimDuration, SimTime};
pub use trace::{
    Layer, LayerBreakdown, TraceAnnotation, TraceBreakdown, TraceSpanNode, TraceTree, Tracer,
};
