//! Cross-target redundancy: replication vs parity groups at equal
//! flash budgets — full-speed failover, honest degradation beyond the
//! tolerance, anti-entropy repair, and throttled repair after restore.
//!
//! Sweeps the [`Redundancy`] policy over a fixed 4-target cluster:
//! none, 2-way, uniform 3-way, and the erasure-coded alternative — one
//! `k=3, m=1` parity group spanning the same targets, with its logical
//! cache shrunk to `k/(k+m)` of the replication cells' budget so cached
//! primaries *plus* their `m/k` parity shards fit the same flash. Every
//! policy runs three schedules that share one trace and seed:
//!
//! 1. **Baseline** — no faults.
//! 2. **Single outage** — target 0 fails a third of the way in
//!    (replica divergence is injected mid-outage where real copies
//!    exist), and the target is restored at two thirds (repair
//!    reconciles through the rebuild throttle).
//! 3. **Double outage** — targets 0 and 1 down concurrently. This
//!    exceeds an `m=1` tolerance for part of the namespace: those keys
//!    must degrade honestly to backend-first service, never invent
//!    data.
//!
//! Checked against the acceptance criteria: with 2-way replication a
//! single-target outage keeps hit ratio and p99 within 10% of the
//! no-fault baseline; the parity group holds the same outage within
//! 15% of *its* baseline; every policy measures ≤ `m/k + ε` redundancy
//! bytes per primary byte; zero acked dirty writes are lost;
//! anti-entropy detects and repairs 100% of the injected divergences;
//! and the whole pipeline is byte-identical per seed (both flagship
//! JSONLs are produced twice and compared).
//!
//! The 2-way single-outage run exports the full JSONL report (with its
//! `redundancy` record) to `results/exp_replication.jsonl`; the parity
//! single-outage run exports its report to
//! `results/exp_replication_parity.jsonl`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_replication [-- --quick]

use reo_bench::{
    export, parallel_map_ordered, sweep_threads, trace, FigureReport, Panel, RunScale,
};
use reo_core::{
    ClusterSystem, ExperimentPlan, MetricsSnapshot, PlannedEvent, Redundancy, SchemeConfig,
    SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Trace, WorkloadSpec};

const TARGETS: usize = 4;

/// Fraction of the data set the replication cells' cache holds.
const CACHE_FRACTION: f64 = 0.25;

/// Parts per million of eligible replica copies rolled back by the
/// mid-outage divergence injection. Half of the stamped, current
/// replica copies diverge — aggressive enough that every run scale
/// seeds a meaningful repair workload.
const DIVERGENCE_PPM: u32 = 500_000;

/// One policy of the sweep: its label, and the artifact its
/// single-outage report is exported to (replayed first, to prove the
/// export byte-identical per seed).
type PolicyRow = (&'static str, Redundancy, Option<&'static str>);

/// A cell's config. Replication cells share one flash budget; a
/// striping cell's logical cache shrinks to `k/(k+m)` of it so cached
/// primaries plus their `m/k` parity shards fit the same budget — the
/// equal-budget footing the space-efficiency claim is measured on.
fn cluster_config(trace: &Trace, policy: Redundancy) -> SystemConfig {
    let (k, m) = (policy.data as f64, policy.parity as f64);
    let scale = if policy.data > 1 { k / (k + m) } else { 1.0 };
    let cache = trace.summary().data_set_bytes.scale(CACHE_FRACTION * scale);
    SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32))
}

/// One end-to-end run: the measured pass's totals, and the cluster in
/// its fully-repaired end state, which reports everything else.
struct Run {
    totals: MetricsSnapshot,
    cluster: ClusterSystem,
}

/// Builds the cluster under `policy`, drives the plan, drains recovery
/// and repair through the throttle and finishes with a complete
/// anti-entropy pass.
fn run_schedule(policy: Redundancy, trace: &Trace, plan: &ExperimentPlan) -> Run {
    let mut cluster =
        ClusterSystem::new(cluster_config(trace, policy), TARGETS).with_redundancy(policy);
    let totals = cluster.run(trace, plan);
    cluster.drain_recovery(1_000_000);
    cluster.run_anti_entropy_pass();
    Run { totals, cluster }
}

struct Cell {
    label: &'static str,
    policy: Redundancy,
    artifact: Option<&'static str>,
    baseline: Run,
    outage: Run,
    double_outage: Run,
    report: export::RunReport,
}

/// Runs one policy's trio (baseline, single outage, double outage).
fn run_cell(trace: &Trace, &(label, policy, artifact): &PolicyRow) -> Cell {
    let n = trace.requests().len();
    let warm = || ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    };
    let baseline = run_schedule(policy, trace, &warm());

    let mut outage_plan = warm().with_event(n / 3, PlannedEvent::FailTarget(0));
    if policy.replicates() {
        outage_plan = outage_plan.with_event(
            n / 2,
            PlannedEvent::InjectReplicaDivergence {
                ppm: DIVERGENCE_PPM,
            },
        );
    }
    outage_plan = outage_plan.with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
    let scheme = format!("Reo-20% {label}");
    let export_outage = || {
        let outage = run_schedule(policy, trace, &outage_plan);
        let report = export::collect_cluster_report("replication", &scheme, &outage.cluster);
        (outage, report)
    };
    let (outage, report) = export_outage();
    if artifact.is_some() {
        // Determinism: rebuild the flagship pipeline from scratch and
        // the exported JSONL must match byte for byte.
        assert_eq!(
            export::jsonl(&export_outage().1),
            export::jsonl(&report),
            "{label}: cluster replay diverged from the first run"
        );
    }

    let double_plan = warm()
        .with_event(n / 3, PlannedEvent::FailTarget(0))
        .with_event(n / 3, PlannedEvent::FailTarget(1))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
    let double_outage = run_schedule(policy, trace, &double_plan);

    Cell {
        label,
        policy,
        artifact,
        baseline,
        outage,
        double_outage,
        report,
    }
}

/// Prints a cell's summary row and enforces the acceptance criteria.
fn check_cell(cell: &Cell) {
    let Cell { label, policy, .. } = cell;
    let base = &cell.baseline.totals;
    let out = &cell.outage.totals;
    let (outage, double) = (&cell.outage.cluster, &cell.double_outage.cluster);
    let stats = outage.redundancy_snapshot();
    println!(
        "policy {:>10}  base hit {:>5.1}% p99 {:>7.2} ms  outage hit {:>5.1}% p99 {:>7.2} ms  \
         failover serves {:>6}  diverged {:>3}/{:>3} detected  overhead {:>4.1}% (budget {:.1}%)  \
         repairs {}  dirty lost {}",
        label,
        base.hit_ratio_pct(),
        base.p99_latency.as_millis_f64(),
        out.hit_ratio_pct(),
        out.p99_latency.as_millis_f64(),
        stats.failover_serves,
        stats.divergences_detected,
        stats.divergences_injected,
        100.0 * outage.flash_overhead().overhead_fraction(),
        100.0 * policy.overhead(),
        stats.repairs_completed,
        outage.dirty_data_lost(),
    );

    for (schedule, cluster) in [
        ("baseline", &cell.baseline.cluster),
        ("single-outage", outage),
        ("double-outage", double),
    ] {
        assert_eq!(
            cluster.dirty_data_lost(),
            0,
            "{label} {schedule}: no acked dirty write may be lost"
        );
        // Equal-budget honesty: measured redundancy bytes per primary
        // byte never exceed the geometric m/k bound (plus slack for
        // rounding on small caches).
        let fraction = cluster.flash_overhead().overhead_fraction();
        assert!(
            fraction <= policy.overhead() + 0.05,
            "{label} {schedule}: measured overhead {fraction:.3} exceeds m/k = {:.3}",
            policy.overhead()
        );
    }

    if !policy.enabled() {
        // Policy-none keeps the redundancy machinery cold: the outage
        // degrades to backend-first service, honestly.
        assert_eq!(stats.failover_serves, 0);
        assert!(outage.observed_degraded_fraction() > 0.0);
    } else {
        // Failover at cache speed: the failed range is served from
        // replica holders' caches (within 10% of the no-fault baseline
        // on both hit ratio and p99) or reconstructed from surviving
        // group shards (within 15%, at m/k space cost).
        let band = if policy.data == 1 { 0.10 } else { 0.15 };
        assert!(stats.failover_serves > 0, "{label}: no failover serves");
        assert!(stats.protected_writes > 0, "{label}: no protected writes");
        let hit_drop = base.hit_ratio_pct() - out.hit_ratio_pct();
        assert!(
            hit_drop.abs() <= band * base.hit_ratio_pct(),
            "{label}: outage hit ratio {:.1}% strayed more than {band} from baseline {:.1}%",
            out.hit_ratio_pct(),
            base.hit_ratio_pct()
        );
        let base_p99 = base.p99_latency.as_millis_f64();
        let out_p99 = out.p99_latency.as_millis_f64();
        assert!(
            out_p99 <= (1.0 + band) * base_p99,
            "{label}: outage p99 {out_p99:.2} ms exceeds baseline {base_p99:.2} ms by more than {band}"
        );

        // Repair: the restore re-establishes redundancy through the
        // rebuild throttle and reports per-class TTR.
        assert!(
            stats.repairs_completed >= 1,
            "{label}: restore did not complete a repair"
        );
        assert!(
            stats.ttr_us.iter().any(|&us| us >= 0),
            "{label}: no class reported a time-to-restored-redundancy"
        );
    }

    if policy.replicates() {
        // Anti-entropy: every injected divergence is detected and
        // repaired — never silently served stale.
        assert!(
            stats.divergences_injected > 0,
            "{label}: injection was a no-op"
        );
        assert_eq!(
            stats.divergences_detected, stats.divergences_injected,
            "{label}: anti-entropy missed injected divergences"
        );
        assert_eq!(
            stats.divergences_repaired, stats.divergences_detected,
            "{label}: detected divergences were not all repaired"
        );
    }

    // Beyond-tolerance honesty: a double outage exceeds m ≤ 1, leaving
    // part of the namespace with every holder (or too many shards)
    // lost; those keys must surface as degraded service rather than
    // phantom hits or reconstructions from too few shards. Uniform
    // 3-way on 4 targets still covers every key with a survivor.
    if policy.parity <= 1 {
        assert!(
            double.observed_degraded_fraction() > 0.0,
            "{label}: double outage beyond m must degrade part of the namespace"
        );
        assert!(
            !policy.enabled() || double.redundancy_snapshot().beyond_tolerance_serves > 0,
            "{label}: double outage beyond m must surface beyond-tolerance serves"
        );
    }
}

fn main() {
    let scale = RunScale::from_args();

    // Write-intensive medium workload (Section VI-D, 30% writes):
    // redundancy is exercised by acked writes, so a read-only trace
    // would leave the fan-out, stripe-update, divergence, and repair
    // paths cold.
    let trace = trace(scale, WorkloadSpec::write_intensive(0.3));

    let policies: Vec<PolicyRow> = vec![
        ("none", Redundancy::none(), None),
        ("2-way", Redundancy::two_way(), Some("exp_replication")),
        ("3-way", Redundancy::n_way(3), None),
        (
            "parity-3+1",
            Redundancy::reo(3, 1),
            Some("exp_replication_parity"),
        ),
    ];
    let labels: Vec<&str> = policies.iter().map(|(label, ..)| *label).collect();
    println!(
        "### Replication vs parity — write-intensive medium workload (30% writes), {} requests, Reo-20%, {} targets, policies {:?}",
        trace.requests().len(),
        TARGETS,
        labels
    );

    // Each policy is an independent trio of end-to-end runs; fan the
    // policies across cores and collect in index order so stdout and
    // panels are deterministic.
    let cells = parallel_map_ordered(&policies, sweep_threads(), |_, row| run_cell(&trace, row));
    for cell in &cells {
        check_cell(cell);
        if let Some(artifact) = cell.artifact {
            println!(
                "{} replay determinism: OK (byte-identical JSONL)",
                cell.label
            );
            export::write_jsonl(artifact, &cell.report);
        }
    }

    // Every cell sits at x = 1 + m/k: its protected data occupies that
    // many flash bytes per primary byte, whether the extra bytes are
    // whole copies or parity shards.
    let x_label = "Flash copies of protected data";
    let xs: Vec<f64> = cells.iter().map(|c| 1.0 + c.policy.overhead()).collect();
    let mut hit_ratio = Panel::new("Outage Hit Ratio (%)", x_label, xs.clone());
    let mut p99 = Panel::new("Outage p99 Latency (ms)", x_label, xs.clone());
    let mut serves = Panel::new("Failover Serves", x_label, xs.clone());
    let mut overhead = Panel::new("Measured Redundancy Overhead (%)", x_label, xs);
    for cell in &cells {
        let base = &cell.baseline.totals;
        let out = &cell.outage.totals;
        hit_ratio.push("baseline", base.hit_ratio_pct());
        hit_ratio.push("single-outage", out.hit_ratio_pct());
        p99.push("baseline", base.p99_latency.as_millis_f64());
        p99.push("single-outage", out.p99_latency.as_millis_f64());
        let failover_serves = |run: &Run| run.cluster.redundancy_snapshot().failover_serves as f64;
        serves.push("single-outage", failover_serves(&cell.outage));
        serves.push("double-outage", failover_serves(&cell.double_outage));
        overhead.push(
            "measured",
            100.0 * cell.outage.cluster.flash_overhead().overhead_fraction(),
        );
    }

    // 2-way single outage within 10% of baseline while policy-none
    // collapses — and the parity group buys the same protection class
    // for m/k of the space: the paper's motivating gap plus the
    // erasure-coded answer, demonstrated end to end.
    let (none, two, parity) = (&cells[0], &cells[1], &cells[3]);
    let hit_drop = |c: &Cell| c.baseline.totals.hit_ratio_pct() - c.outage.totals.hit_ratio_pct();
    println!(
        "outage hit-ratio drop: none {:.1} pts vs 2-way {:.1} pts vs {} {:.1} pts",
        hit_drop(none),
        hit_drop(two),
        parity.label,
        hit_drop(parity),
    );
    println!(
        "measured redundancy overhead: 2-way {:.1}% vs {} {:.1}% (budget {:.1}%)",
        100.0 * two.outage.cluster.flash_overhead().overhead_fraction(),
        parity.label,
        100.0 * parity.outage.cluster.flash_overhead().overhead_fraction(),
        100.0 * parity.policy.overhead(),
    );
    print!("{}", export::render_summary(&two.report));

    FigureReport::new("replication")
        .param("targets", TARGETS)
        .param("policies", labels.join(","))
        .param(
            "parity_geometry",
            format!("{}+{}", parity.policy.data, parity.policy.parity),
        )
        .param("outage_target", "0")
        .param("divergence_ppm", DIVERGENCE_PPM)
        .param("final_health", &two.report.resilience.health)
        .panel(hit_ratio)
        .panel(p99)
        .panel(serves)
        .panel(overhead)
        .write("replication");
}
