//! Calibration diagnostics: one-line summaries per scheme on the medium
//! workload (hit ratio, bandwidth, space efficiency, classification
//! counters), followed by a traced Reo-20% deep dive through the shared
//! exporter (per-layer latency breakdown, per-class rows, device table,
//! amplification), and a causal deep dive — a 4-target cluster run with
//! a mid-trace outage, rendering the span tree of an exemplar degraded
//! request (placement → cache/target → stripe → flash/backend) and the
//! flight recorder's postmortem window. Useful when re-tuning the
//! workload generator or service models; not one of the paper's
//! figures.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin diagnose [-- --quick]

use reo_bench::{build_system, export, trace, RunScale};
use reo_core::{
    ClusterSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_osd::ObjectClass;
use reo_sim::{ByteSize, Layer};
use reo_workload::WorkloadSpec;

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::medium());
    println!(
        "medium workload: {} objects / {:.2} GiB / {} requests; cache 10%, 64 KiB chunks",
        trace.summary().objects,
        trace.summary().data_set_bytes.as_gib_f64(),
        trace.summary().requests
    );
    println!(
        "{:<18}{:>8}{:>10}{:>8}{:>9}{:>7}{:>9}{:>9}",
        "scheme", "hit %", "bw MB/s", "eff %", "cached", "hot", "reenc", "ctrl"
    );
    let mut schemes = SchemeConfig::normal_run_set();
    schemes.push(SchemeConfig::FullReplication);
    for scheme in schemes {
        let mut sys = build_system(scheme, &trace, 0.10, ByteSize::from_kib(64));
        for r in trace.requests() {
            sys.handle(r);
        }
        let totals = sys.metrics().totals();
        let stats = sys.target().stats();
        let hot = trace
            .objects()
            .iter()
            .filter(|o| sys.target().class_of(o.key) == Some(ObjectClass::HotClean))
            .count();
        println!(
            "{:<18}{:>8.1}{:>10.1}{:>8.1}{:>9}{:>7}{:>9}{:>9}",
            scheme.label(),
            totals.hit_ratio_pct(),
            totals.bandwidth_mib_s(),
            100.0 * sys.space_efficiency(),
            sys.cached_objects(),
            hot,
            stats.reencodes,
            stats.control_messages,
        );
    }

    // Traced deep dive: where the time and bytes of a Reo-20% run go.
    let scheme = SchemeConfig::Reo { reserve: 0.20 };
    let mut sys = build_system(scheme, &trace, 0.10, ByteSize::from_kib(64));
    sys.enable_tracing();
    let sample_every = (trace.requests().len() / 8).max(1);
    let plan = ExperimentPlan::normal_run().with_sampling(sample_every);
    let result = ExperimentRunner::run(&mut sys, &trace, &plan);
    let report = export::collect_run_report("diagnose", &scheme.label(), &sys, &result);
    print!("{}", export::render_summary(&report));

    // Causal deep dive: a cluster outage, then the full span tree of a
    // degraded exemplar — placement root, cache and target beneath it,
    // stripe/journal and flash/backend leaves — plus the flight
    // recorder's look-back window around the fault.
    let n = trace.requests().len();
    let cache = trace.summary().data_set_bytes.scale(0.25);
    let cluster_config =
        SystemConfig::paper_defaults(scheme, cache).with_chunk_size(ByteSize::from_kib(32));
    let mut cluster = ClusterSystem::new(cluster_config, 4);
    cluster.enable_tracing();
    let plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(n / 3, PlannedEvent::FailTarget(1))
    .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
    cluster.run(&trace, &plan);
    cluster.drain_recovery(1_000_000);
    let report = export::collect_cluster_report("diagnose_cluster", &scheme.label(), &cluster);

    println!("\n== causal deep dive: 4-target cluster, target 1 outage ==");
    // Two views of the outage window: the deepest tree that reaches the
    // flash layer (the full placement → cache → target → stripe → flash
    // causal chain) and the deepest sense-coded request (the degraded
    // serving path, typically placement → backend with `outage-serve`).
    let deepest_flash = report
        .exemplars
        .iter()
        .filter(|t| t.spans.iter().any(|s| s.layer == Layer::Flash))
        .max_by_key(|t| (t.spans.len(), t.trace_id));
    let deepest_degraded = report
        .exemplars
        .iter()
        .filter(|t| t.sense.is_some())
        .max_by_key(|t| (t.spans.len(), t.trace_id));
    let mut picks: Vec<_> = deepest_flash.into_iter().cloned().collect();
    if let Some(tree) = deepest_degraded {
        if picks.iter().all(|p| p.trace_id != tree.trace_id) {
            picks.push(tree.clone());
        }
    }
    print!("{}", export::render_trace_trees(&picks));
    print!("{}", export::render_postmortems(&report.postmortems));
}
