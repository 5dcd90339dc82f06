//! The timed repetitions and the end-to-end metrics.
//!
//! A repetition runs the workload's parts one after another. A part is:
//! generate its trace, construct the system, load the data set, run the
//! warm-up pass (all of that is set-up), then run the measured pass.
//! Every repetition uses the same seed and fresh systems, so step *i*
//! does identical work each time and the envelope rule applies; the
//! simulated outputs must come out bit-identical. The end-to-end host
//! times are envelope times taken to their quiet-host limit.

use std::time::{Duration, Instant};

use reo_core::{MetricsSnapshot, RequestOutcome};
use reo_osd::SenseCode;
use reo_sim::TraceBreakdown;
use reo_workload::{Operation, Trace};

use crate::alloc::AllocCount;
use crate::counters::Counters;
use crate::envelope::{self, Envelope};
use crate::system::{drive, Step, System};
use crate::workloads::{Topology, Workload};
use crate::GLOBAL;

/// Fewest repetitions a run reports from, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The set-up steps that are single calls; the warm-up pass adds one
/// step per request.
const SETUP_CALLS: [&str; 4] = ["generate", "construct", "populate", "start_measuring"];

/// What the program produced in one measured pass. Simulated, so equal
/// between repetitions down to the last bit.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outputs {
    pub snapshot: MetricsSnapshot,
    pub space_efficiency_pct: f64,
    /// Reads the program reported as cache hits.
    pub hits: u64,
    /// Requests served by on-the-fly reconstruction.
    pub degraded: u64,
    /// Requests shed with `SenseCode::NotReady`.
    pub not_ready: u64,
    pub internal_errors: u64,
}

impl Outputs {
    pub fn collect(system: &System, snapshot: MetricsSnapshot, tally: Tally) -> Outputs {
        Outputs {
            snapshot,
            space_efficiency_pct: system.space_efficiency_pct(),
            hits: tally.hits,
            degraded: tally.degraded,
            not_ready: tally.not_ready,
            internal_errors: system.internal_errors(),
        }
    }

    /// Requests that did not complete: shed ones plus detected internal
    /// faults.
    pub fn failed(&self) -> u64 {
        self.not_ready + self.internal_errors
    }

    /// The checks one part's outputs must pass, as failure messages.
    pub fn check(&self, workload: &Workload) -> Vec<String> {
        let mut failures = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                failures.push(format!("{}: {what}", workload.name));
            }
        };
        let s = &self.snapshot;
        require(
            s.requests == workload.measured as u64,
            format!(
                "{} requests recorded, {} issued",
                s.requests, workload.measured
            ),
        );
        require(
            self.failed() == 0,
            format!(
                "{} requests shed, {} internal errors",
                self.not_ready, self.internal_errors
            ),
        );
        require(
            s.read_hits == self.hits && s.degraded_reads == self.degraded,
            format!(
                "metrics count {} hits / {} degraded, completions said {} / {}",
                s.read_hits, s.degraded_reads, self.hits, self.degraded
            ),
        );
        failures
    }
}

/// A workload that silently stops exercising its layer fails here: the
/// serves that mark the layer are counted over all parts.
pub fn check_exercised(workload: &Workload, parts: &[Outputs]) -> Vec<String> {
    let sum = |of: fn(&Outputs) -> u64| parts.iter().map(of).sum::<u64>();
    let by_parity = sum(|o| o.snapshot.served_by_parity);
    let by_replica = sum(|o| o.snapshot.served_by_replica);
    let degraded = sum(|o| o.degraded);
    let ok = match workload.topology {
        Topology::Single => by_parity == 0 && by_replica == 0,
        Topology::ClusterRepl2 => by_replica > 0 && by_parity == 0,
        Topology::ClusterParity31 => by_parity > 0 && degraded > 0 && by_replica == 0,
    } && (workload.name != "degraded_rebuild" || degraded > 0);
    if ok {
        Vec::new()
    } else {
        vec![format!(
            "{}: {by_parity} parity serves, {by_replica} replica serves, {degraded} degraded serves",
            workload.name
        )]
    }
}

/// Completion counts kept by the load generator itself, to hold against
/// the program's own metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    hits: u64,
    degraded: u64,
    not_ready: u64,
}

impl Tally {
    pub fn note(&mut self, outcome: &RequestOutcome) {
        self.hits += u64::from(outcome.hit);
        self.degraded += u64::from(outcome.degraded);
        self.not_ready += u64::from(outcome.sense == SenseCode::NotReady);
    }
}

/// Set-up: generate, construct, populate, warm up, reset measurements.
/// `call` and `warm` see each step's host time. Returns the trace and
/// the warmed system at the start of its measured pass.
fn set_up(
    workload: &Workload,
    seed: u64,
    part: usize,
    mut call: impl FnMut(usize, u64),
    mut warm: impl FnMut(usize, u64),
) -> (Trace, System) {
    let mut last = Instant::now();
    let mut lap = || {
        let now = Instant::now();
        let ns = now.duration_since(last).as_nanos() as u64;
        last = now;
        ns
    };
    let trace = workload.generate(seed, part);
    call(0, lap());
    let mut system = System::new(workload, &trace);
    call(1, lap());
    system.populate(&trace);
    call(2, lap());
    drive(
        &mut system,
        &trace.requests()[..workload.warm],
        &[],
        |_, step, ns| {
            if let Step::Request { index, .. } = step {
                warm(index, ns);
            }
        },
    );
    lap();
    system.start_measuring();
    call(3, lap());
    (trace, system)
}

/// How a request completed: the buckets `core.handle.*` is split by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    ReadHit,
    ReadMiss,
    Write,
    /// Served by on-the-fly reconstruction, whatever the operation.
    Degraded,
}

impl Bucket {
    pub const ALL: [Bucket; 4] = [
        Bucket::ReadHit,
        Bucket::ReadMiss,
        Bucket::Write,
        Bucket::Degraded,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Bucket::ReadHit => "read_hit",
            Bucket::ReadMiss => "read_miss",
            Bucket::Write => "write",
            Bucket::Degraded => "degraded",
        }
    }

    /// The names of the bucket's `us_p50` and `share_pct` metrics.
    pub fn metric_names(self) -> (&'static str, &'static str) {
        match self {
            Bucket::ReadHit => (
                "core.handle.read_hit.us_p50",
                "core.handle.read_hit.share_pct",
            ),
            Bucket::ReadMiss => (
                "core.handle.read_miss.us_p50",
                "core.handle.read_miss.share_pct",
            ),
            Bucket::Write => ("core.handle.write.us_p50", "core.handle.write.share_pct"),
            Bucket::Degraded => (
                "core.handle.degraded.us_p50",
                "core.handle.degraded.share_pct",
            ),
        }
    }

    fn of(op: Operation, outcome: &RequestOutcome) -> Bucket {
        match (outcome.degraded, op, outcome.hit) {
            (true, ..) => Bucket::Degraded,
            (false, Operation::Write, _) => Bucket::Write,
            (false, Operation::Read, true) => Bucket::ReadHit,
            (false, Operation::Read, false) => Bucket::ReadMiss,
        }
    }
}

/// What only repetition 0 records, over all parts in order. The extra
/// work is in no other repetition, so the envelope does not see it.
#[derive(Default)]
pub struct FirstRep {
    /// The bucket of every measured request.
    pub buckets: Vec<Bucket>,
    /// Host time of every measured request in this repetition alone.
    pub request_ns: Vec<u64>,
    /// `(position among the measured requests, host time)` of every event.
    pub event_ns: Vec<(usize, u64)>,
    /// Allocations of each part's measured pass.
    pub allocs: Vec<AllocCount>,
    /// Movement of the program's counters over the measured passes.
    pub counters: Counters,
    /// The sim-time tracer's aggregates per part, when tracing was on.
    pub breakdowns: Vec<TraceBreakdown>,
    /// Trace statistics per part.
    pub traces: Vec<reo_workload::TraceSummary>,
    /// Simulated latency of every measured request, as its completion
    /// reported it.
    pub latency_ns: Vec<u64>,
}

/// How long to go on repeating.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// For about this many seconds, and at least [`MIN_REPS`] times.
    Seconds(f64),
    /// This many times: two envelopes are only comparable when they are
    /// the minimum over equally many repetitions.
    Reps(usize),
}

/// The timed repetitions of one workload.
pub struct Timed {
    pub reps: usize,
    setup_calls: Envelope,
    warm: Envelope,
    requests: Envelope,
    events: Envelope,
    snapshot_call: Envelope,
    /// The peak resident set while a part ran, in KiB: like a step, the
    /// smallest over the repetitions.
    peak_rss_kib: Envelope,
    /// Wall time of each repetition's measured passes, for
    /// `bench.interference_pct`.
    pass_wall_ns: Vec<f64>,
    /// One per part.
    pub outputs: Vec<Outputs>,
    pub first: FirstRep,
}

impl Timed {
    /// Repeats the first `parts` parts of `workload` for `budget`, with
    /// the program's sim-time tracer on or off, and checks every
    /// repetition's outputs.
    ///
    /// # Errors
    ///
    /// Returns the failed checks: outputs that differ between
    /// repetitions, failed requests, a dirty recovery ledger, or a
    /// workload that no longer exercises its layer.
    pub fn run(
        workload: &Workload,
        seed: u64,
        parts: usize,
        budget: Budget,
        tracing: bool,
    ) -> Result<Timed, Vec<String>> {
        let started = Instant::now();
        let event_plan = workload.events();
        let mut t = Timed {
            reps: 0,
            setup_calls: Envelope::new(parts * SETUP_CALLS.len()),
            warm: Envelope::new(parts * workload.warm),
            requests: Envelope::new(parts * workload.measured),
            events: Envelope::new(parts * event_plan.len()),
            snapshot_call: Envelope::new(1),
            peak_rss_kib: Envelope::new(parts),
            pass_wall_ns: Vec::new(),
            outputs: Vec::new(),
            first: FirstRep::default(),
        };
        let mut last_rep = Duration::ZERO;
        let go_on = |reps: usize, last_rep: Duration| match budget {
            // Stop where the time is nearer than another repetition's end.
            Budget::Seconds(seconds) => {
                reps < MIN_REPS
                    || started.elapsed() + last_rep / 2 <= Duration::from_secs_f64(seconds)
            }
            Budget::Reps(wanted) => reps < wanted,
        };
        while go_on(t.reps, last_rep) {
            let rep_started = Instant::now();
            let rep = t.reps;
            let is_first = rep == 0;
            let mut pass_wall_ns = 0.0;
            for part in 0..parts {
                reset_peak_rss();
                let (trace, mut system) = set_up(
                    workload,
                    seed,
                    part,
                    |step, ns| {
                        t.setup_calls
                            .observe(rep, part * SETUP_CALLS.len() + step, ns)
                    },
                    |step, ns| t.warm.observe(rep, part * workload.warm + step, ns),
                );
                if tracing {
                    system.enable_tracing();
                }
                let measured = &trace.requests()[workload.warm..];
                let request_base = part * workload.measured;
                let event_base = part * event_plan.len();

                let mut tally = Tally::default();
                let (requests, events, first) = (&mut t.requests, &mut t.events, &mut t.first);
                let mut reading = is_first.then(|| Counters::read(&system));
                let allocs_before = GLOBAL.count();
                let pass_started = Instant::now();
                drive(
                    &mut system,
                    measured,
                    &event_plan,
                    |system, step, ns| match step {
                        Step::Request { index, outcome } => {
                            requests.observe(rep, request_base + index, ns);
                            tally.note(outcome);
                            if is_first {
                                first.buckets.push(Bucket::of(measured[index].op, outcome));
                                first.request_ns.push(ns);
                                first.latency_ns.push(outcome.latency.as_nanos());
                            }
                        }
                        // Counters are read on both sides of an event,
                        // which may reset some of them.
                        Step::BeforeEvent => {
                            if let Some(before) = reading.take() {
                                first
                                    .counters
                                    .add_movement(&before, &Counters::read(system));
                            }
                        }
                        Step::Event { index } => {
                            events.observe(rep, event_base + index, ns);
                            if is_first {
                                first
                                    .event_ns
                                    .push((request_base + event_plan[index].0, ns));
                                reading = Some(Counters::read(system));
                            }
                        }
                    },
                );
                pass_wall_ns += pass_started.elapsed().as_nanos() as f64;
                t.peak_rss_kib.observe(rep, part, peak_rss_kib());
                if is_first {
                    first.allocs.push(GLOBAL.count().since(allocs_before));
                    if let Some(before) = reading.take() {
                        first
                            .counters
                            .add_movement(&before, &Counters::read(&system));
                    }
                    if tracing {
                        first.breakdowns.push(system.tracer().breakdown());
                    }
                    first.traces.push(trace.summary());
                }

                let snapshot_started = Instant::now();
                let snapshot = system.snapshot();
                t.snapshot_call
                    .observe(rep, 0, snapshot_started.elapsed().as_nanos() as u64);
                let outputs = Outputs::collect(&system, snapshot, tally);
                let mut failures = Vec::new();
                if let Err(e) = system.verify_internal() {
                    failures.push(format!("{}: recovery ledger: {e}", workload.name));
                }
                if is_first {
                    failures.extend(outputs.check(workload));
                    t.outputs.push(outputs);
                } else if outputs != t.outputs[part] {
                    failures.push(format!(
                        "{}: repetition {rep} part {part} produced different simulated outputs than repetition 0",
                        workload.name
                    ));
                }
                if !failures.is_empty() {
                    return Err(failures);
                }
                // `system` is freed here, before the next is built, so
                // peak memory is one system's.
            }
            if is_first {
                let failures = check_exercised(workload, &t.outputs);
                if !failures.is_empty() {
                    return Err(failures);
                }
            }
            t.pass_wall_ns.push(pass_wall_ns);
            t.reps += 1;
            last_rep = rep_started.elapsed();
        }
        Ok(t)
    }

    /// Measured requests of one repetition, all parts.
    pub fn measured(&self) -> usize {
        self.requests.steps().len()
    }

    /// Requests attempted and failed in the measured passes of all
    /// repetitions.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let failed: u64 = self.outputs.iter().map(Outputs::failed).sum();
        let reps = self.reps as u64;
        (self.measured() as u64 * reps, failed * reps)
    }

    /// Envelope time of the measured passes, events included.
    pub fn pass_ns(&self) -> u64 {
        self.requests.total_ns() + self.events.total_ns()
    }

    /// Envelope time of the events alone.
    pub fn events_ns(&self) -> u64 {
        self.events.total_ns()
    }

    /// Envelope time of trace generation.
    pub fn generate_ns(&self) -> u64 {
        self.setup_calls
            .steps()
            .iter()
            .step_by(SETUP_CALLS.len())
            .sum()
    }

    /// Envelope time of one `snapshot()` call.
    pub fn snapshot_ns(&self) -> u64 {
        self.snapshot_call.total_ns()
    }

    /// The per-request envelope, parts in order.
    pub fn request_ns(&self) -> &[u64] {
        self.requests.steps()
    }

    /// How dirty the host was: median whole-pass wall time over the
    /// envelope, minus one, in percent.
    pub fn interference_pct(&self) -> f64 {
        let mut walls = self.pass_wall_ns.clone();
        100.0 * (envelope::median(&mut walls) / self.pass_ns() as f64 - 1.0)
    }

    /// What takes the envelope time of set-up to its quiet-host limit
    /// ([`envelope::limit_factor`]), over the set-ups of all parts.
    pub fn setup_limit(&self) -> f64 {
        envelope::limit_factor(&[&self.setup_calls, &self.warm])
    }

    /// The same for the measured passes, events included.
    pub fn pass_limit(&self) -> f64 {
        envelope::limit_factor(&[&self.requests, &self.events])
    }

    /// The end-to-end metrics of each part, as `(name, value)` in
    /// `spec::END_TO_END` order. Host times are envelope times taken to
    /// the quiet-host limit.
    pub fn part_metrics(&self) -> Vec<Vec<(&'static str, f64)>> {
        let parts = self.outputs.len();
        let (setup_limit, pass_limit) = (self.setup_limit(), self.pass_limit());
        fn of_part(steps: &[u64], part: usize, parts: usize) -> &[u64] {
            let len = steps.len() / parts;
            &steps[part * len..(part + 1) * len]
        }
        (0..parts)
            .map(|part| {
                let sum = |e: &Envelope| of_part(e.steps(), part, parts).iter().sum::<u64>();
                let setup_ns = setup_limit * (sum(&self.setup_calls) + sum(&self.warm)) as f64;
                let pass_ns = pass_limit * (sum(&self.requests) + sum(&self.events)) as f64;
                let us = |ns: u64| pass_limit * ns as f64 / 1e3;
                let requests = envelope::sorted(of_part(self.requests.steps(), part, parts));
                let n = requests.len() as f64;
                let allocs = self.first.allocs[part];
                let outputs = &self.outputs[part];
                let s = &outputs.snapshot;
                let latency = envelope::sorted(of_part(&self.first.latency_ns, part, parts));
                vec![
                    ("setup_s", setup_ns / 1e9),
                    ("host_req_per_s", n / (pass_ns / 1e9)),
                    (
                        "host_us_per_req_p50",
                        us(envelope::percentile(&requests, 50.0)),
                    ),
                    (
                        "host_us_per_req_p95",
                        us(envelope::percentile(&requests, 95.0)),
                    ),
                    ("allocs_per_req", allocs.calls as f64 / n),
                    ("alloc_bytes_per_req", allocs.bytes as f64 / n),
                    (
                        "peak_rss_mib",
                        self.peak_rss_kib.steps()[part] as f64 / 1024.0,
                    ),
                    ("sim_hit_ratio_pct", s.hit_ratio_pct()),
                    ("sim_bandwidth_mib_s", s.bandwidth_mib_s()),
                    ("sim_mean_latency_ms", s.mean_latency_ms()),
                    (
                        "sim_p99_latency_ms",
                        envelope::percentile(&latency, 99.0) as f64 / 1e6,
                    ),
                    ("sim_flash_bytes_per_user_byte", s.amplification()),
                    ("sim_space_efficiency_pct", outputs.space_efficiency_pct),
                ]
            })
            .collect()
    }

    /// The end-to-end metrics: each is the mean of the middle half
    /// ([`envelope::midmean`]) of its per-part values from
    /// [`Timed::part_metrics`].
    pub fn metrics(&self, parts: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
        (0..parts[0].len())
            .map(|m| {
                let mut values: Vec<f64> = parts.iter().map(|part| part[m].1).collect();
                (parts[0][m].0, envelope::midmean(&mut values))
            })
            .collect()
    }
}

/// The process's peak resident set (`VmHWM`) since the last
/// [`reset_peak_rss`], in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// Restarts the kernel's peak-resident-set watermark at the current
/// resident set. Where the kernel refuses, the watermark is the
/// process's so far, and every part reports that.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}
