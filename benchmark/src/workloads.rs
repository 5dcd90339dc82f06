//! The six workloads: what they run and why they exist.
//!
//! All share `SchemeConfig::Reo { reserve: 0.20 }`, a cache of 10 % of
//! the data set, 64 KiB chunks, five devices and
//! `SystemConfig::paper_defaults`. The load is a closed loop with one
//! client — the simulator's own model: `handle` returns before the next
//! request is issued — generated in-process on one thread.

use reo_core::{DeviceId, PlannedEvent};
use reo_sim::ByteSize;
use reo_workload::{Trace, WorkloadSpec};

/// What the requests are served by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// One `CacheSystem`.
    Single,
    /// `ClusterSystem` of four targets with `ReplicationPolicy::two_way()`.
    ClusterRepl2,
    /// `ClusterSystem` of four targets with `ParityGroupPolicy::reo(3, 1)`.
    ClusterParity31,
}

/// Targets in the cluster workloads.
pub const CLUSTER_TARGETS: usize = 4;

/// Traces per repetition. Runs differ in `--seed`, and one trace's
/// object population (which objects are hot, and how large they are)
/// moves every metric by 5-35 % — a few very large hot objects by much
/// more — however long the trace is. A repetition therefore runs this
/// many independent traces, each on a fresh system, and an end-to-end
/// metric is the mean of the middle half of its values over them. More
/// parts leave fewer repetitions in a run; with the envelope taken to its
/// quiet-host limit, six repetitions of eighteen parts are as steady
/// against the host as twelve of nine, and steadier against the seed.
pub const PARTS: usize = 18;

/// One workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    spec: fn() -> WorkloadSpec,
    /// Requests of one part's warm-up pass (part of set-up).
    pub warm: usize,
    /// Requests of one part's measured pass.
    pub measured: usize,
    /// Events as `(fraction of the measured pass, event)`, in order.
    events: &'static [(f64, PlannedEvent)],
    pub topology: Topology,
}

fn small_objects_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::medium().with_objects(40_000);
    spec.mean_object_size = ByteSize::from_kib(64);
    spec
}

// Request counts are per part, sized so that a repetition (all parts)
// takes 1.8-3.3 s here and a 20 s run gets the envelope six
// repetitions or more (five when the host is busy). A warm-up is long
// enough to fill the cache about twice over. `write_heavy` measures
// 1 000 requests so that a part keeps 50 samples beyond its p95, which
// sits where the request times climb steeply, and ten beyond its p99.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "read_medium",
        why: "paper Fig. 6 point: 4.4 MiB objects of ~70 chunks, so per-chunk stripe and flash-model work dominates",
        spec: WorkloadSpec::medium,
        warm: 2_000,
        measured: 3_000,
        events: &[],
        topology: Topology::Single,
    },
    Workload {
        name: "small_objects",
        why: "one 64 KiB chunk per object: index, classifier and metrics do the work and chunk-proportional layers are bypassed",
        spec: small_objects_spec,
        warm: 12_000,
        measured: 20_000,
        events: &[],
        topology: Topology::Single,
    },
    Workload {
        name: "write_heavy",
        why: "50 % writes: dirty replication, journal append and flush before ack, dirty eviction and backend flushes (paper Fig. 9)",
        spec: || WorkloadSpec::write_intensive(0.5),
        warm: 700,
        measured: 1_000,
        events: &[],
        topology: Topology::Single,
    },
    Workload {
        name: "degraded_rebuild",
        why: "two device failures and spare insertions mid-pass: degraded reads, class-prioritised recovery, rebuild traffic (paper Fig. 8)",
        spec: WorkloadSpec::medium,
        warm: 2_000,
        measured: 2_400,
        events: &[
            (0.10, PlannedEvent::FailDevice(DeviceId(0))),
            (0.30, PlannedEvent::InsertSpare(DeviceId(0))),
            (0.60, PlannedEvent::FailDevice(DeviceId(1))),
            (0.80, PlannedEvent::InsertSpare(DeviceId(1))),
        ],
        topology: Topology::Single,
    },
    Workload {
        name: "cluster_repl2",
        why: "four targets, 2-way replication, a target outage: ring routing, write fan-out, replica serving, anti-entropy, failback",
        spec: || WorkloadSpec::write_intensive(0.2),
        warm: 800,
        measured: 1_200,
        events: &[
            (0.25, PlannedEvent::FailTarget(1)),
            (0.75, PlannedEvent::RestoreTarget(1)),
        ],
        topology: Topology::ClusterRepl2,
    },
    Workload {
        name: "cluster_parity31",
        why: "same cluster under 3+1 parity groups: the only workload where the GF(256) codec runs on the request path",
        spec: || WorkloadSpec::write_intensive(0.2),
        warm: 800,
        measured: 1_200,
        events: &[
            (0.25, PlannedEvent::FailTarget(1)),
            (0.75, PlannedEvent::RestoreTarget(1)),
        ],
        topology: Topology::ClusterParity31,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload with request counts divided by `divisor` (tests run
    /// the real code path on a small trace).
    #[cfg(test)]
    pub fn shrunk(mut self, divisor: usize) -> Workload {
        self.warm = (self.warm / divisor).max(1);
        self.measured = (self.measured / divisor).max(1);
        self
    }

    /// The generator settings: warm-up and measured requests in one trace.
    pub fn spec(&self) -> WorkloadSpec {
        (self.spec)().with_requests(self.warm + self.measured)
    }

    /// The inputs of part `part` for `seed`. The program under test
    /// receives only this.
    pub fn generate(&self, seed: u64, part: usize) -> Trace {
        debug_assert!(part < PARTS);
        self.spec()
            .generate(seed.wrapping_mul(PARTS as u64).wrapping_add(part as u64))
    }

    /// Events as `(index into the measured pass, event)`: each fires
    /// immediately before the request with that index.
    pub fn events(&self) -> Vec<(usize, PlannedEvent)> {
        self.events
            .iter()
            .map(|&(fraction, event)| ((fraction * self.measured as f64) as usize, event))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_at_the_stated_fractions() {
        let w = Workload::by_name("degraded_rebuild").unwrap();
        assert_eq!(
            w.events(),
            vec![
                (240, PlannedEvent::FailDevice(DeviceId(0))),
                (720, PlannedEvent::InsertSpare(DeviceId(0))),
                (1_440, PlannedEvent::FailDevice(DeviceId(1))),
                (1_920, PlannedEvent::InsertSpare(DeviceId(1))),
            ]
        );
        for name in ["cluster_repl2", "cluster_parity31"] {
            let w = Workload::by_name(name).unwrap();
            assert_eq!(
                w.events(),
                vec![
                    (300, PlannedEvent::FailTarget(1)),
                    (900, PlannedEvent::RestoreTarget(1)),
                ]
            );
        }
        assert!(Workload::by_name("read_medium")
            .unwrap()
            .events()
            .is_empty());
    }

    #[test]
    fn events_keep_their_fractions_when_shrunk() {
        let w = Workload::by_name("degraded_rebuild").unwrap().shrunk(10);
        let at: Vec<usize> = w.events().iter().map(|&(i, _)| i).collect();
        assert_eq!(at, vec![24, 72, 144, 192]);
    }

    #[test]
    fn the_seed_reaches_the_generator() {
        let w = Workload::by_name("write_heavy").unwrap().shrunk(10);
        let a = w.generate(42, 0);
        assert_eq!(a.requests(), w.generate(42, 0).requests());
        assert_ne!(a.requests(), w.generate(7, 0).requests());
        assert_ne!(a.requests(), w.generate(42, 1).requests());
        assert_eq!(a.requests().len(), w.warm + w.measured);
        // Neighbouring seeds share no part.
        assert_ne!(
            w.generate(42, PARTS - 1).requests(),
            w.generate(43, 0).requests()
        );
    }

    #[test]
    fn names_are_unique_and_whys_fit_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
