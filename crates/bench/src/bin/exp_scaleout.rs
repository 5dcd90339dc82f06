//! Multi-target scale-out: throughput scaling, blast-radius
//! containment, and rebuild windows under a single-target outage.
//!
//! Sweeps cluster sizes 1 → 16 (quick: 1 → 4). For each size two runs
//! share one trace and seed:
//!
//! 1. **Baseline** — no faults; reports aggregate req/s as targets are
//!    added (each target brings its own flash array, so throughput
//!    should scale with membership).
//! 2. **Single-target outage** — target 0 fails a third of the way in
//!    and is restored at two thirds. Reports the degraded-namespace
//!    fraction (placement balance makes the *mapped* fraction ≈ 1/N —
//!    the blast radius), the failed target's rebuild window (journal
//!    replay + ring-delta invalidation), and zero acked-dirty-write
//!    loss.
//!
//! The containment check compares unaffected targets between the two
//! runs at 4 targets: their hit ratios and sense-code mixes must be
//! identical — an outage on one target is invisible to the rest.
//!
//! The largest swept size exports the full JSONL report (with one
//! `placement` record per target) to `results/exp_scaleout.jsonl`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_scaleout [-- --quick|--smoke]

use reo_bench::{export, FigureReport, Panel, RunScale};
use reo_core::{
    parallel_map_ordered, sweep_threads, ClusterRunResult, ClusterSystem, ExperimentPlan,
    PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

fn cluster_config(trace: &reo_workload::Trace) -> SystemConfig {
    // Per-node sizing: every target brings the same flash complement,
    // so capacity and throughput grow with membership.
    let cache = trace.summary().data_set_bytes.scale(0.25);
    SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32))
}

struct Cell {
    targets: usize,
    baseline: ClusterRunResult,
    outage: ClusterRunResult,
    report: export::RunReport,
    lines: Vec<String>,
}

fn main() {
    let scale = RunScale::from_args();
    let targets_swept: &[usize] = if scale == RunScale::Quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let spec = scale.scale_spec(WorkloadSpec::medium());
    let trace = spec.generate(42);
    let n = trace.requests().len();
    let config = cluster_config(&trace);

    println!(
        "### Scale-out — medium workload, {} requests, Reo-20%, targets {:?}",
        n, targets_swept
    );

    // Each cluster size is an independent pair of end-to-end runs; fan
    // the sizes across cores and collect in index order so stdout and
    // panels are deterministic.
    let cells = parallel_map_ordered(targets_swept, sweep_threads(), |_, &targets| {
        let baseline_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        };
        let mut baseline_cluster = ClusterSystem::new(config.clone(), targets);
        let baseline = baseline_cluster.run(&trace, &baseline_plan);

        let outage_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(0))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
        let mut outage_cluster = ClusterSystem::new(config.clone(), targets);
        let outage = outage_cluster.run(&trace, &outage_plan);
        outage_cluster.drain_recovery(1_000_000);
        let report =
            export::collect_cluster_report("scaleout", "Reo-20%", &outage_cluster, &outage);

        let rebuild_ms = outage.totals.targets[0].rebuild_window_us as f64 / 1e3;
        let lines = vec![format!(
            "targets {targets:>2}  base {:>10.0} req/s  outage {:>10.0} req/s  \
             mapped degraded {:>5.1}%  observed {:>5.1}%  rebuild {rebuild_ms:>8.1} ms  \
             migrated {:>4}  dirty lost {}",
            baseline.aggregate_req_per_sec,
            outage.aggregate_req_per_sec,
            100.0 * outage.mapped_degraded_fraction,
            100.0 * outage.observed_degraded_fraction,
            outage.migrated_objects,
            outage.dirty_data_lost,
        )];
        Cell {
            targets,
            baseline,
            outage,
            report,
            lines,
        }
    });

    let xs: Vec<f64> = cells.iter().map(|c| c.targets as f64).collect();
    let mut throughput = Panel::new("Aggregate Throughput (req/s)", "Targets", xs.clone());
    let mut degraded = Panel::new("Degraded Namespace Fraction (%)", "Targets", xs.clone());
    let mut rebuild = Panel::new("Rebuild Window (ms)", "Targets", xs);

    for cell in &cells {
        for line in &cell.lines {
            println!("{line}");
        }
        throughput.push("baseline", cell.baseline.aggregate_req_per_sec);
        throughput.push("single-outage", cell.outage.aggregate_req_per_sec);
        degraded.push(
            "mapped (≈1/N)",
            100.0 * cell.outage.mapped_degraded_fraction,
        );
        degraded.push("observed", 100.0 * cell.outage.observed_degraded_fraction);
        rebuild.push(
            "target 0",
            cell.outage.totals.targets[0].rebuild_window_us as f64 / 1e3,
        );
        assert_eq!(
            cell.outage.dirty_data_lost, 0,
            "no acked dirty write may be lost across an outage"
        );
    }

    // Blast-radius containment at 4 targets: the outage must be
    // invisible to the unaffected targets — identical hit ratios and
    // sense-code mixes as the no-fault baseline.
    if let Some(cell) = cells.iter().find(|c| c.targets == 4) {
        let mut contained = true;
        for t in 1..cell.targets {
            let base_row = &cell.baseline.totals.targets[t];
            let out_row = &cell.outage.totals.targets[t];
            if base_row.read_hits != out_row.read_hits
                || base_row.reads != out_row.reads
                || base_row.sense_mix != out_row.sense_mix
            {
                contained = false;
                println!(
                    "containment VIOLATION on target {t}: baseline {base_row:?} vs outage {out_row:?}"
                );
            }
        }
        println!(
            "containment at 4 targets: {}  (mapped degraded fraction {:.1}%, ideal 25.0%)",
            if contained { "OK" } else { "VIOLATED" },
            100.0 * cell.outage.mapped_degraded_fraction,
        );
        assert!(
            contained,
            "single-target outage leaked past its mapped range"
        );
    }

    let flagship = cells.last().expect("at least one swept size");
    export::write_jsonl("exp_scaleout", &flagship.report);
    print!("{}", export::render_summary(&flagship.report));

    FigureReport::new("scaleout")
        .param(
            "targets",
            targets_swept
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(","),
        )
        .param("outage_target", "0")
        .param("final_health", &flagship.report.resilience.health)
        .panel(throughput)
        .panel(degraded)
        .panel(rebuild)
        .write("scaleout");
}
