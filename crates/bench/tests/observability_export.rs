//! Observability acceptance tests at the exporter boundary:
//!
//! * a disabled tracer is invisible — the exported JSONL of a run that
//!   never touched tracing and one that explicitly disabled it are
//!   byte-identical;
//! * enabling tracing observes without perturbing — the simulated
//!   measurements are unchanged, only observability records appear;
//! * same seed ⇒ byte-identical trace trees and postmortem event
//!   sequences, including across a chaos schedule (the flight
//!   recorder's black-box dump is replayable evidence).

use reo_bench::{build_system, export};
use reo_core::{
    ClusterSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Trace, WorkloadSpec};

fn workload(seed: u64) -> Trace {
    WorkloadSpec::medium()
        .with_objects(80)
        .with_requests(800)
        .generate(seed)
}

fn run_jsonl(trace: &Trace, tracing: Option<bool>) -> String {
    let mut system = build_system(
        SchemeConfig::Reo { reserve: 0.20 },
        trace,
        0.15,
        ByteSize::from_kib(32),
    );
    match tracing {
        None => {}
        Some(on) => {
            system.enable_tracing();
            system.tracer().set_enabled(on);
        }
    }
    let plan = ExperimentPlan::normal_run().with_sampling(200);
    let result = ExperimentRunner::run(&mut system, trace, &plan);
    export::jsonl(&export::collect_run_report(
        "obs_export",
        "Reo-20%",
        &system,
        &result,
    ))
}

#[test]
fn disabled_tracer_exports_byte_identical_jsonl() {
    let trace = workload(31);
    let untouched = run_jsonl(&trace, None);
    let toggled_off = run_jsonl(&trace, Some(false));
    assert_eq!(
        untouched, toggled_off,
        "a disabled tracer must leave no mark on the export"
    );
}

#[test]
fn tracing_observes_without_perturbing_the_run() {
    let trace = workload(31);
    let off = run_jsonl(&trace, None);
    let on = run_jsonl(&trace, Some(true));
    assert_ne!(off, on, "the traced export gains layer/trace records");
    // Every record the untraced run exported appears unchanged in the
    // traced one: tracing adds records, it never alters measurements.
    let on_lines: std::collections::BTreeSet<&str> = on.lines().collect();
    for line in off.lines() {
        if line.contains("\"kind\":\"meta\"") {
            // meta carries `traced_requests`, which legitimately differs.
            continue;
        }
        assert!(
            on_lines.contains(line),
            "traced run changed a measurement record:\n{line}"
        );
    }
}

#[test]
fn seeded_runs_export_byte_identical_trace_trees() {
    let trace = workload(33);
    let first = run_jsonl(&trace, Some(true));
    let second = run_jsonl(&trace, Some(true));
    assert_eq!(
        first, second,
        "same seed must replay byte-identical trace records"
    );
    assert!(first.contains("\"kind\":\"trace\""));
}

fn chaos_cluster_jsonl(trace: &Trace) -> String {
    let cache = trace.summary().data_set_bytes.scale(0.25);
    let config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32));
    let mut cluster = ClusterSystem::new(config, 4);
    cluster.enable_tracing();
    let n = trace.requests().len();
    let plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(n / 4, PlannedEvent::FailTarget(2))
    .with_event(n / 2, PlannedEvent::RestoreTarget(2))
    .with_event(3 * n / 4, PlannedEvent::FailTarget(0))
    .with_event(n - 1, PlannedEvent::RestoreTarget(0));
    cluster.run(trace, &plan);
    cluster.drain_recovery(1_000_000);
    export::jsonl(&export::collect_cluster_report(
        "obs_chaos",
        "Reo-20%",
        &cluster,
    ))
}

#[test]
fn chaos_schedule_postmortems_replay_byte_identically() {
    let trace = workload(35);
    let first = chaos_cluster_jsonl(&trace);
    let second = chaos_cluster_jsonl(&trace);
    assert_eq!(
        first, second,
        "postmortem event sequences must be deterministic across same-seed runs"
    );
    let postmortems = first
        .lines()
        .filter(|l| l.contains("\"kind\":\"postmortem\""))
        .count();
    assert!(
        postmortems >= 2,
        "two outages must dump at least two postmortems, got {postmortems}"
    );
    export::validate_jsonl(&first).expect("chaos export validates against the schema");
}
