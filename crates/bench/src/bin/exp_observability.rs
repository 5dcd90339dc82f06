//! Observability self-test: tracing overhead, postmortem determinism,
//! and the causal span tree of a degraded request.
//!
//! Three parts, all on the medium workload with Reo-20%:
//!
//! 1. **Overhead** — the same single-node run timed with tracing off
//!    and on, alternating best-of-N wall-clock passes. The enabled
//!    tracer (span buffering, exemplar retention, breakdown
//!    accumulation) must cost at most [`MAX_OVERHEAD_PCT`] percent;
//!    the run exits non-zero past the budget.
//! 2. **Determinism** — a 4-target cluster chaos run (target outage
//!    mid-trace, restored later) executed twice from the same seed.
//!    The exported JSONL — trace exemplars, flight-recorder
//!    postmortems, SLO burn rates and all — must be byte-identical,
//!    and the run must retain at least one postmortem and one
//!    sense-coded exemplar.
//! 3. **Causality** — the slowest sense-coded exemplar is rendered as
//!    an indented span tree (placement → cache/target → stripe/journal
//!    → flash/backend) together with the postmortem event windows.
//!
//! The chaos run's report is written to
//! `results/exp_observability.jsonl`. The overhead figure is host time,
//! so it is printed and gated but kept out of that deterministic file.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_observability [-- --quick]

use std::time::Instant;

use reo_bench::{build_system, export, RunScale};
use reo_core::{
    ClusterSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

/// The acceptance budget: enabling the tracer may slow a run by at most
/// this much.
const MAX_OVERHEAD_PCT: f64 = 2.0;

fn timed_run(trace: &reo_workload::Trace, plan: &ExperimentPlan, traced: bool) -> f64 {
    let mut sys = build_system(
        SchemeConfig::Reo { reserve: 0.20 },
        trace,
        0.10,
        ByteSize::from_kib(64),
    );
    if traced {
        sys.enable_tracing();
    }
    let started = Instant::now();
    let result = ExperimentRunner::run(&mut sys, trace, plan);
    let elapsed = started.elapsed().as_secs_f64();
    assert!(result.totals.requests > 0);
    elapsed
}

fn main() {
    let scale = RunScale::from_args();
    let spec = scale.scale_spec(WorkloadSpec::medium());
    let trace = spec.generate(42);
    let n = trace.requests().len();
    println!(
        "### Observability — medium workload, {} requests, Reo-20%",
        n
    );

    // Part 1: overhead. Run off/on back-to-back so each pair sees the
    // same machine-load regime, and keep the most favorable pair ratio:
    // noise can only inflate a pair, so the minimum ratio is the tight
    // estimate of the tracer's intrinsic cost.
    let passes = if scale == RunScale::Quick { 3 } else { 5 };
    let plan = ExperimentPlan::normal_run();
    // One discarded warm-up run so the first pair's untraced leg isn't
    // the cold one (page cache, clock ramp) — a cold first leg biases
    // the pair ratio rather than just adding noise.
    timed_run(&trace, &plan, false);
    let mut overhead_pct = f64::INFINITY;
    for pass in 0..passes {
        let off = timed_run(&trace, &plan, false);
        let on = timed_run(&trace, &plan, true);
        let pair = 100.0 * (on / off - 1.0);
        overhead_pct = overhead_pct.min(pair);
        println!("pass {pass}: tracing off {off:.3} s  on {on:.3} s  ({pair:+.2}%)");
    }
    println!(
        "tracing overhead: {overhead_pct:+.2}%  (best of {passes} paired runs, budget {MAX_OVERHEAD_PCT:.1}%)"
    );

    // Part 2: determinism. One chaos schedule, two identical runs; the
    // whole observable surface must replay byte-for-byte.
    let cache = trace.summary().data_set_bytes.scale(0.25);
    let config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32));
    let chaos_run = || {
        let mut cluster = ClusterSystem::new(config.clone(), 4);
        cluster.enable_tracing();
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(1))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        cluster.drain_recovery(1_000_000);
        export::collect_cluster_report("observability", "Reo-20%", &cluster, &result)
    };
    let report = chaos_run();
    let replay = chaos_run();
    let first = export::jsonl(&report);
    let second = export::jsonl(&replay);
    assert_eq!(
        first, second,
        "same seed must replay byte-identical traces, postmortems, and SLOs"
    );
    println!(
        "determinism: two same-seed chaos runs exported byte-identical JSONL ({} lines, {} bytes)",
        first.lines().count(),
        first.len()
    );
    assert!(
        !report.postmortems.is_empty(),
        "the target outage must dump at least one postmortem"
    );
    let sense_exemplars: Vec<_> = report
        .exemplars
        .iter()
        .filter(|t| t.sense.is_some())
        .cloned()
        .collect();
    assert!(
        !sense_exemplars.is_empty(),
        "the outage window must retain at least one sense-coded exemplar"
    );
    println!(
        "retained {} exemplars ({} sense-coded), {} postmortems",
        report.exemplars.len(),
        sense_exemplars.len(),
        report.postmortems.len()
    );

    // Part 3: the causal story of the slowest degraded request, plus
    // the flight-recorder windows around the outage.
    let slowest = sense_exemplars
        .iter()
        .max_by_key(|t| (t.latency, t.trace_id))
        .expect("non-empty")
        .clone();
    print!("{}", export::render_trace_trees(&[slowest]));
    print!("{}", export::render_postmortems(&report.postmortems));
    print!("{}", export::render_summary(&report));

    export::write_jsonl("exp_observability", &report);

    assert!(
        overhead_pct <= MAX_OVERHEAD_PCT,
        "tracing overhead {overhead_pct:.2}% exceeds the {MAX_OVERHEAD_PCT:.1}% budget"
    );
    println!("observability self-test: OK");
}
