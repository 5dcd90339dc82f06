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
//!   cargo run --release -p reo-bench --bin exp_scaleout [-- --quick]

use reo_bench::{
    export, parallel_map_ordered, sweep_threads, trace, FigureReport, Panel, RunScale,
};
use reo_core::{
    ClusterSystem, ExperimentPlan, MetricsSnapshot, PlannedEvent, SchemeConfig, SystemConfig,
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
    baseline: MetricsSnapshot,
    outage: MetricsSnapshot,
    /// The outage run's cluster, after `drain_recovery`.
    cluster: ClusterSystem,
    report: export::RunReport,
}

/// Aggregate requests per simulated second of a measured pass.
fn req_per_sec(totals: &MetricsSnapshot) -> f64 {
    totals.requests as f64 / totals.elapsed.as_secs_f64()
}

fn main() {
    let scale = RunScale::from_args();
    let targets_swept: &[usize] = if scale == RunScale::Quick {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8, 16]
    };
    let trace = trace(scale, WorkloadSpec::medium());
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
        let baseline = ClusterSystem::new(config.clone(), targets).run(&trace, &baseline_plan);

        let outage_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(0))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
        let mut cluster = ClusterSystem::new(config.clone(), targets);
        let outage = cluster.run(&trace, &outage_plan);
        cluster.drain_recovery(1_000_000);
        let report = export::collect_cluster_report("scaleout", "Reo-20%", &cluster);
        Cell {
            targets,
            baseline,
            outage,
            cluster,
            report,
        }
    });

    let xs: Vec<f64> = cells.iter().map(|c| c.targets as f64).collect();
    let mut throughput = Panel::new("Aggregate Throughput (req/s)", "Targets", xs.clone());
    let mut degraded = Panel::new("Degraded Namespace Fraction (%)", "Targets", xs.clone());
    let mut rebuild = Panel::new("Rebuild Window (ms)", "Targets", xs);

    for cell in &cells {
        let mapped_pct = 100.0 * cell.cluster.mapped_degraded_fraction();
        let observed_pct = 100.0 * cell.cluster.observed_degraded_fraction();
        let rebuild_ms = cell.outage.targets[0].rebuild_window_us as f64 / 1e3;
        let migrated: u64 = cell.outage.targets.iter().map(|row| row.migrated_in).sum();
        let lost = cell.cluster.dirty_data_lost();
        println!(
            "targets {:>2}  base {:>10.0} req/s  outage {:>10.0} req/s  \
             mapped degraded {mapped_pct:>5.1}%  observed {observed_pct:>5.1}%  \
             rebuild {rebuild_ms:>8.1} ms  migrated {migrated:>4}  dirty lost {lost}",
            cell.targets,
            req_per_sec(&cell.baseline),
            req_per_sec(&cell.outage),
        );
        throughput.push("baseline", req_per_sec(&cell.baseline));
        throughput.push("single-outage", req_per_sec(&cell.outage));
        degraded.push("mapped (≈1/N)", mapped_pct);
        degraded.push("observed", observed_pct);
        rebuild.push("target 0", rebuild_ms);
        assert_eq!(lost, 0, "no acked dirty write may be lost across an outage");
    }

    // Blast-radius containment at 4 targets: the outage must be
    // invisible to the unaffected targets — identical hit ratios and
    // sense-code mixes as the no-fault baseline.
    if let Some(cell) = cells.iter().find(|c| c.targets == 4) {
        let mut contained = true;
        for t in 1..cell.targets {
            let base_row = &cell.baseline.targets[t];
            let out_row = &cell.outage.targets[t];
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
            100.0 * cell.cluster.mapped_degraded_fraction(),
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
