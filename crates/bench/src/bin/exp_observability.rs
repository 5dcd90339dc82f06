//! Observability self-test: tracing overhead, postmortem determinism,
//! and the causal span tree of a degraded request.
//!
//! Three parts, all on the medium workload with Reo-20%:
//!
//! 1. **Overhead** — the same single-node run timed with tracing off
//!    and on, alternating wall-clock passes; the median difference of a
//!    traced pass and the untraced pass before it is what the tracer
//!    costs. The enabled tracer (span buffering, exemplar retention,
//!    breakdown accumulation) must cost at most
//!    [`MAX_TRACER_NS_PER_REQUEST`] of host time per request; the run
//!    exits non-zero past the budget. The budget is absolute because the
//!    tracer's cost is: it does the same work per request however little
//!    the untraced request costs, so a ratio of the two gates the
//!    untraced path, not the tracer.
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

use reo_bench::{build_system, export, trace, RunScale};
use reo_core::{
    ClusterSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

/// The acceptance budget: host nanoseconds the enabled tracer may add to
/// a request. The tracer costs 300–450 ns with the host's speed; sixty
/// runs on a noisy shared two-core host, full scale and `--quick`, read
/// 212–652 ns (EXPERIMENTS.md, "Observability self-test", which also has
/// what a tracer made three times as expensive reads).
const MAX_TRACER_NS_PER_REQUEST: f64 = 750.0;

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
    let trace = trace(scale, WorkloadSpec::medium());
    let n = trace.requests().len();
    println!(
        "### Observability — medium workload, {} requests, Reo-20%",
        n
    );

    // Part 1: overhead. Each traced pass is compared with the untraced
    // pass run just before it — the two see the same machine-load regime —
    // and the median of those differences is kept: interference slows
    // either leg of a pair with equal chance, so it spreads the differences
    // both ways and leaves their median where the tracer's cost puts it.
    // (A difference of the two fastest passes rests on two single passes;
    // on a noisy host it read anything from -384 to +1,404 ns.) A round
    // that reads over budget is not believed at once: up to two more rounds
    // join it, which a costlier tracer survives and a noisy quarter of an
    // hour does not.
    let round = if scale == RunScale::Quick { 25 } else { 15 };
    let plan = ExperimentPlan::normal_run();
    // One discarded warm-up run so the first pair's untraced leg isn't
    // the cold one (page cache, clock ramp).
    timed_run(&trace, &plan, false);
    let mut costs = Vec::with_capacity(3 * round);
    let mut best_off = f64::INFINITY;
    let tracer_ns = loop {
        for pass in costs.len()..costs.len() + round {
            let off = timed_run(&trace, &plan, false);
            let on = timed_run(&trace, &plan, true);
            costs.push(on - off);
            best_off = best_off.min(off);
            println!("pass {pass}: tracing off {off:.4} s  on {on:.4} s");
        }
        costs.sort_by(f64::total_cmp);
        let median = 1e9 * costs[costs.len() / 2] / n as f64;
        if median <= MAX_TRACER_NS_PER_REQUEST || costs.len() == 3 * round {
            break median;
        }
        println!(
            "{median:+.0} ns per request after {} pairs: measuring on",
            costs.len()
        );
    };
    let untraced_ns = 1e9 * best_off / n as f64;
    println!(
        "tracer cost: {tracer_ns:+.0} ns per request  (median of {} traced passes, each minus \
         the untraced pass before it; budget {MAX_TRACER_NS_PER_REQUEST:.0} ns); \
         {:+.2}% of an untraced request's {untraced_ns:.0} ns, not gated",
        costs.len(),
        100.0 * tracer_ns / untraced_ns
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
        cluster.run(&trace, &plan);
        cluster.drain_recovery(1_000_000);
        export::collect_cluster_report("observability", "Reo-20%", &cluster)
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
        tracer_ns <= MAX_TRACER_NS_PER_REQUEST,
        "the tracer costs {tracer_ns:.0} ns per request, past the \
         {MAX_TRACER_NS_PER_REQUEST:.0} ns budget"
    );
    println!("observability self-test: OK");
}
