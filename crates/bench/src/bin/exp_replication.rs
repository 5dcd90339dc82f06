//! Cross-target redundancy: replication vs parity groups at equal
//! flash budgets — full-speed failover, honest degradation beyond the
//! factor/tolerance, anti-entropy repair, and group-aware failback.
//!
//! Sweeps the per-class replication policy (none, 2-way, uniform 3-way)
//! over a fixed 4-target cluster, then runs the erasure-coded
//! alternative: one `k=3, m=1` parity group spanning the same targets,
//! with its logical cache shrunk to `k/(k+m)` of the replication
//! cells' budget so cached primaries *plus* their `m/k` parity shards
//! fit the same flash. Every policy runs three schedules that share
//! one trace and seed:
//!
//! 1. **Baseline** — no faults.
//! 2. **Single outage** — target 0 fails a third of the way in
//!    (replica divergence is injected mid-outage for replicated
//!    policies), and the target is restored at two thirds (failback /
//!    group-aware repair reconciles through the rebuild throttle).
//! 3. **Double outage** — targets 0 and 1 down concurrently. This
//!    exceeds a 2-way factor and the `m=1` parity tolerance for part
//!    of the namespace: those keys must degrade honestly to
//!    backend-first service, never invent data.
//!
//! Checked against the acceptance criteria: with 2-way replication a
//! single-target outage keeps hit ratio and p99 within 10% of the
//! no-fault baseline; the parity group holds the same outage within
//! 15% of *its* baseline while measuring ≤ `m/k + ε` redundancy bytes
//! per primary byte (vs replication's ~1× per extra copy); zero acked
//! dirty writes are lost; anti-entropy detects and repairs 100% of the
//! injected divergences; and the whole pipeline is byte-identical per
//! seed (both flagship JSONLs are produced twice and compared).
//!
//! The 2-way single-outage run exports the full JSONL report
//! (with a `replication` record) to `results/exp_replication.jsonl`;
//! the parity single-outage run exports its report (with a
//! `parity_group` record) to `results/exp_replication_parity.jsonl`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_replication \
//!     [-- --quick|--smoke] [-- --mode parity]
//!
//! `--mode parity` runs only the parity cells (the CI smoke job uses
//! it to exercise the erasure-coded path without the full sweep).

use reo_bench::{export, FigureReport, Panel, RunScale};
use reo_core::{
    parallel_map_ordered, sweep_threads, ClusterRunResult, ClusterSystem, ExperimentPlan,
    ParityGroupPolicy, PlannedEvent, ReplicationPolicy, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

const TARGETS: usize = 4;

/// Data shards of the parity cell's group (`k`).
const P_DATA: usize = 3;

/// Parity shards of the parity cell's group (`m` — outage tolerance).
const P_PARITY: usize = 1;

/// Fraction of the data set the replication cells' cache holds.
const CACHE_FRACTION: f64 = 0.25;

/// Parts per million of eligible replica copies rolled back by the
/// mid-outage divergence injection. Half of the stamped, current
/// replica copies diverge — aggressive enough that every run scale
/// seeds a meaningful repair workload.
const DIVERGENCE_PPM: u32 = 500_000;

fn cluster_config(trace: &reo_workload::Trace) -> SystemConfig {
    let cache = trace.summary().data_set_bytes.scale(CACHE_FRACTION);
    SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32))
}

/// The parity cells' config: the same flash budget as the replication
/// cells, but the logical cache shrinks to `k/(k+m)` of it so cached
/// primaries plus their `m/k` parity shards fit the budget — the
/// equal-budget footing the space-efficiency claim is measured on.
fn parity_config(trace: &reo_workload::Trace) -> SystemConfig {
    let scale = CACHE_FRACTION * P_DATA as f64 / (P_DATA + P_PARITY) as f64;
    let cache = trace.summary().data_set_bytes.scale(scale);
    SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32))
}

/// One end-to-end replicated run: build the cluster under `policy`,
/// drive the plan, drain recovery, finish with a complete anti-entropy
/// pass so the exported counters reflect the fully-repaired end state.
fn run_schedule(
    config: &SystemConfig,
    policy: ReplicationPolicy,
    trace: &reo_workload::Trace,
    plan: &ExperimentPlan,
) -> (ClusterSystem, ClusterRunResult) {
    let mut cluster = ClusterSystem::new(config.clone(), TARGETS).with_replication_policy(policy);
    let mut result = cluster.run(trace, plan);
    cluster.drain_recovery(1_000_000);
    cluster.run_anti_entropy_pass();
    result.replication = cluster.replication_snapshot();
    (cluster, result)
}

/// One end-to-end parity run: drive the plan, drain the group-aware
/// repair queue through the throttle, refresh the parity counters and
/// the end-state flash overhead split.
fn run_parity_schedule(
    config: &SystemConfig,
    policy: ParityGroupPolicy,
    trace: &reo_workload::Trace,
    plan: &ExperimentPlan,
) -> (ClusterSystem, ClusterRunResult) {
    let mut cluster = ClusterSystem::new(config.clone(), TARGETS).with_parity_policy(policy);
    let mut result = cluster.run(trace, plan);
    cluster.drain_recovery(1_000_000);
    result.parity = cluster.parity_snapshot();
    result.flash_overhead = cluster.flash_overhead();
    (cluster, result)
}

struct Cell {
    label: &'static str,
    policy: ReplicationPolicy,
    baseline: ClusterRunResult,
    outage: ClusterRunResult,
    double_outage: ClusterRunResult,
    overhead: reo_core::FlashOverheadReport,
    report: export::RunReport,
    jsonl: String,
}

struct ParityCell {
    baseline: ClusterRunResult,
    outage: ClusterRunResult,
    double_outage: ClusterRunResult,
    report: export::RunReport,
    jsonl: String,
}

/// Runs the parity trio (baseline, single outage, double outage),
/// prints its summary row, and enforces the parity acceptance
/// criteria: degraded serving at cache speed within 15% of the
/// no-fault baseline, `≤ m/k + ε` measured redundancy overhead,
/// honest beyond-tolerance degradation, completed group-aware repair,
/// and zero acked dirty-write loss.
fn run_parity_cells(trace: &reo_workload::Trace, n: usize) -> ParityCell {
    let config = parity_config(trace);
    let policy = ParityGroupPolicy::reo(P_DATA, P_PARITY);

    let baseline_plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    };
    let (_, baseline) = run_parity_schedule(&config, policy, trace, &baseline_plan);

    let outage_plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(n / 3, PlannedEvent::FailTarget(0))
    .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
    let (outage_cluster, outage) = run_parity_schedule(&config, policy, trace, &outage_plan);
    let scheme = format!("Reo-20% parity-{P_DATA}+{P_PARITY}");
    let report = export::collect_cluster_report("replication", &scheme, &outage_cluster, &outage);
    let jsonl = export::jsonl(&report);

    let double_plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(n / 3, PlannedEvent::FailTarget(0))
    .with_event(n / 3, PlannedEvent::FailTarget(1))
    .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0))
    .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
    let (_, double_outage) = run_parity_schedule(&config, policy, trace, &double_plan);

    let base = &baseline.totals;
    let out = &outage.totals;
    let pg = &outage.parity;
    let budget_pct = 100.0 * P_PARITY as f64 / P_DATA as f64;
    println!(
        "policy {:>5}  base hit {:>5.1}% p99 {:>7.2} ms  outage hit {:>5.1}% p99 {:>7.2} ms  \
         parity serves {:>6}  overhead {:>4.1}% (budget {:.1}%)  repairs {}  dirty lost {}",
        format!("{P_DATA}+{P_PARITY}"),
        base.hit_ratio_pct(),
        base.p99_latency.as_millis_f64(),
        out.hit_ratio_pct(),
        out.p99_latency.as_millis_f64(),
        pg.parity_serves,
        100.0 * outage.flash_overhead.overhead_fraction(),
        budget_pct,
        pg.repairs_completed,
        outage.dirty_data_lost,
    );

    for (schedule, result) in [
        ("baseline", &baseline),
        ("single-outage", &outage),
        ("double-outage", &double_outage),
    ] {
        assert_eq!(
            result.dirty_data_lost, 0,
            "parity {schedule}: no acked dirty write may be lost"
        );
        // Equal-budget honesty: measured redundancy bytes per primary
        // byte never exceed the geometric m/k bound (plus slack for
        // rounding on small caches).
        let fraction = result.flash_overhead.overhead_fraction();
        assert!(
            fraction <= P_PARITY as f64 / P_DATA as f64 + 0.05,
            "parity {schedule}: measured overhead {:.3} exceeds m/k = {:.3}",
            fraction,
            P_PARITY as f64 / P_DATA as f64
        );
    }

    // Degraded serving at cache speed: the downed member's covered
    // range reconstructs from surviving group shards, keeping the
    // outage within 15% of the no-fault baseline at m/k space cost.
    assert!(pg.parity_serves > 0, "parity: no degraded reconstructions");
    assert!(pg.stripe_updates > 0, "parity: no stripes were encoded");
    let hit_drop = base.hit_ratio_pct() - out.hit_ratio_pct();
    assert!(
        hit_drop.abs() <= 0.15 * base.hit_ratio_pct(),
        "parity: outage hit ratio {:.1}% strayed more than 15% from baseline {:.1}%",
        out.hit_ratio_pct(),
        base.hit_ratio_pct()
    );
    let base_p99 = base.p99_latency.as_millis_f64();
    let out_p99 = out.p99_latency.as_millis_f64();
    assert!(
        out_p99 <= 1.15 * base_p99,
        "parity: outage p99 {out_p99:.2} ms exceeds baseline {base_p99:.2} ms by more than 15%"
    );

    // Group-aware repair: the restore re-establishes redundancy
    // through the rebuild throttle and reports per-class TTR.
    assert!(
        pg.repairs_completed >= 1,
        "parity: restore did not complete a group repair"
    );
    assert!(
        pg.ttr_us.iter().any(|&us| us >= 0),
        "parity: no class reported a time-to-restored-redundancy"
    );

    // Beyond-tolerance honesty: two concurrent outages exceed m=1, so
    // part of the namespace degrades to backend-first service instead
    // of inventing reconstructions from too few shards.
    assert!(
        double_outage.parity.beyond_tolerance_serves > 0,
        "parity: double outage beyond m must surface beyond-tolerance serves"
    );
    assert!(
        double_outage.observed_degraded_fraction > 0.0,
        "parity: double outage beyond m must degrade part of the namespace"
    );

    // Determinism: rebuild the parity pipeline from scratch and the
    // exported JSONL must match byte for byte.
    let (replay_cluster, replay) = run_parity_schedule(&config, policy, trace, &outage_plan);
    let replay_report =
        export::collect_cluster_report("replication", &scheme, &replay_cluster, &replay);
    assert_eq!(
        export::jsonl(&replay_report),
        jsonl,
        "parity cluster replay diverged from the first run"
    );
    println!("parity replay determinism: OK (byte-identical JSONL)");

    ParityCell {
        baseline,
        outage,
        double_outage,
        report,
        jsonl,
    }
}

fn main() {
    let scale = RunScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let parity_only = args.iter().any(|a| a == "--mode=parity")
        || args
            .windows(2)
            .any(|w| w[0] == "--mode" && w[1] == "parity");

    // Write-intensive medium workload (Section VI-D, 30% writes):
    // replication and parity coverage are exercised by acked writes, so
    // a read-only trace would leave the fan-out, stripe-update,
    // divergence, and repair paths cold.
    let spec = scale.scale_spec(WorkloadSpec::write_intensive(0.3));
    let trace = spec.generate(42);
    let n = trace.requests().len();
    let config = cluster_config(&trace);

    if parity_only {
        println!(
            "### Parity groups — write-intensive medium workload (30% writes), {} requests, Reo-20%, {} targets, k={} m={}",
            n, TARGETS, P_DATA, P_PARITY
        );
        let parity = run_parity_cells(&trace, n);
        export::write_jsonl("exp_replication_parity", &parity.report);
        let _ = parity.jsonl;
        return;
    }

    let policies: Vec<(&'static str, ReplicationPolicy)> = vec![
        ("none", ReplicationPolicy::none()),
        ("2-way", ReplicationPolicy::two_way()),
        ("3-way", ReplicationPolicy::n_way(3)),
    ];

    println!(
        "### Replication vs parity — write-intensive medium workload (30% writes), {} requests, Reo-20%, {} targets, policies {:?} + parity {}+{}",
        n,
        TARGETS,
        policies.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        P_DATA,
        P_PARITY
    );

    // Each policy is an independent trio of end-to-end runs; fan the
    // policies across cores and collect in index order so stdout and
    // panels are deterministic.
    let cells = parallel_map_ordered(&policies, sweep_threads(), |_, (label, policy)| {
        let baseline_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        };
        let (_, baseline) = run_schedule(&config, *policy, &trace, &baseline_plan);

        let mut outage_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(0));
        if policy.enabled() {
            outage_plan = outage_plan.with_event(
                n / 2,
                PlannedEvent::InjectReplicaDivergence {
                    ppm: DIVERGENCE_PPM,
                },
            );
        }
        outage_plan = outage_plan.with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
        let (outage_cluster, outage) = run_schedule(&config, *policy, &trace, &outage_plan);
        let overhead = outage_cluster.flash_overhead();
        let scheme = format!("Reo-20% {label}");
        let report =
            export::collect_cluster_report("replication", &scheme, &outage_cluster, &outage);
        let jsonl = export::jsonl(&report);

        let double_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(0))
        .with_event(n / 3, PlannedEvent::FailTarget(1))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0))
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
        let (_, double_outage) = run_schedule(&config, *policy, &trace, &double_plan);

        Cell {
            label,
            policy: *policy,
            baseline,
            outage,
            double_outage,
            overhead,
            report,
            jsonl,
        }
    });

    // The parity cell joins the panels at x = 1 + m/k: its protected
    // data occupies that many flash bytes per primary byte, the same
    // axis the replication factors live on.
    let parity_x = 1.0 + P_PARITY as f64 / P_DATA as f64;
    let mut xs: Vec<f64> = cells.iter().map(|c| c.policy.max_factor() as f64).collect();
    xs.push(parity_x);
    let mut hit_ratio = Panel::new(
        "Outage Hit Ratio (%)",
        "Flash copies of protected data",
        xs.clone(),
    );
    let mut p99 = Panel::new(
        "Outage p99 Latency (ms)",
        "Flash copies of protected data",
        xs.clone(),
    );
    let mut serves = Panel::new(
        "Failover Serves",
        "Flash copies of protected data",
        xs.clone(),
    );
    let mut overhead_panel = Panel::new(
        "Measured Redundancy Overhead (%)",
        "Flash copies of protected data",
        xs,
    );

    for cell in &cells {
        let base = &cell.baseline.totals;
        let out = &cell.outage.totals;
        let repl = &cell.outage.replication;
        println!(
            "policy {:>5}  base hit {:>5.1}% p99 {:>7.2} ms  outage hit {:>5.1}% p99 {:>7.2} ms  \
             replica serves {:>6}  diverged {:>3}/{:>3} detected  failbacks {}  dirty lost {}",
            cell.label,
            base.hit_ratio_pct(),
            base.p99_latency.as_millis_f64(),
            out.hit_ratio_pct(),
            out.p99_latency.as_millis_f64(),
            repl.replica_serves,
            repl.divergences_detected,
            repl.divergences_injected,
            repl.failbacks_completed,
            cell.outage.dirty_data_lost,
        );

        hit_ratio.push("baseline", base.hit_ratio_pct());
        hit_ratio.push("single-outage", out.hit_ratio_pct());
        p99.push("baseline", base.p99_latency.as_millis_f64());
        p99.push("single-outage", out.p99_latency.as_millis_f64());
        serves.push("single-outage", repl.replica_serves as f64);
        serves.push(
            "double-outage",
            cell.double_outage.replication.replica_serves as f64,
        );
        overhead_panel.push("measured", 100.0 * cell.overhead.overhead_fraction());

        for (schedule, result) in [
            ("baseline", &cell.baseline),
            ("single-outage", &cell.outage),
            ("double-outage", &cell.double_outage),
        ] {
            assert_eq!(
                result.dirty_data_lost, 0,
                "policy {} {schedule}: no acked dirty write may be lost",
                cell.label
            );
        }

        if cell.policy.enabled() {
            // Full-speed failover: the failed range is served from
            // replica holders' caches, so the outage stays within 10%
            // of the no-fault baseline on both hit ratio and p99.
            assert!(repl.replica_serves > 0, "{}: no replica serves", cell.label);
            let hit_drop = base.hit_ratio_pct() - out.hit_ratio_pct();
            assert!(
                hit_drop.abs() <= 0.10 * base.hit_ratio_pct(),
                "{}: outage hit ratio {:.1}% strayed more than 10% from baseline {:.1}%",
                cell.label,
                out.hit_ratio_pct(),
                base.hit_ratio_pct()
            );
            let base_p99 = base.p99_latency.as_millis_f64();
            let out_p99 = out.p99_latency.as_millis_f64();
            assert!(
                out_p99 <= 1.10 * base_p99,
                "{}: outage p99 {out_p99:.2} ms exceeds baseline {base_p99:.2} ms by more than 10%",
                cell.label
            );

            // Anti-entropy: every injected divergence is detected and
            // repaired — never silently served stale.
            assert!(
                repl.divergences_injected > 0,
                "{}: injection was a no-op",
                cell.label
            );
            assert_eq!(
                repl.divergences_detected, repl.divergences_injected,
                "{}: anti-entropy missed injected divergences",
                cell.label
            );
            assert_eq!(
                repl.divergences_repaired, repl.divergences_detected,
                "{}: detected divergences were not all repaired",
                cell.label
            );
            assert!(
                repl.failbacks_completed > 0,
                "{}: restore did not complete a failback reconciliation",
                cell.label
            );
        } else {
            // Policy-none keeps the replication machinery cold: the
            // outage degrades to backend-first service, honestly.
            assert_eq!(repl.replica_serves, 0);
            assert!(cell.outage.observed_degraded_fraction > 0.0);
        }

        // Beyond-factor honesty: a double outage leaves part of the
        // namespace with every holder down; those keys must surface as
        // degraded service rather than phantom hits. Uniform 3-way on
        // 4 targets still covers every key with at least one survivor.
        if cell.policy.max_factor() <= 2 {
            assert!(
                cell.double_outage.observed_degraded_fraction > 0.0,
                "{}: double outage beyond the factor must degrade part of the namespace",
                cell.label
            );
        }
    }

    let parity = run_parity_cells(&trace, n);
    hit_ratio.push("baseline", parity.baseline.totals.hit_ratio_pct());
    hit_ratio.push("single-outage", parity.outage.totals.hit_ratio_pct());
    p99.push(
        "baseline",
        parity.baseline.totals.p99_latency.as_millis_f64(),
    );
    p99.push(
        "single-outage",
        parity.outage.totals.p99_latency.as_millis_f64(),
    );
    serves.push("single-outage", parity.outage.parity.parity_serves as f64);
    serves.push(
        "double-outage",
        parity.double_outage.parity.parity_serves as f64,
    );
    overhead_panel.push(
        "measured",
        100.0 * parity.outage.flash_overhead.overhead_fraction(),
    );

    // 2-way single outage within 10% of baseline while policy-none
    // collapses — and the parity group buys the same protection class
    // for m/k of the space: the paper's motivating gap plus the
    // erasure-coded answer, demonstrated end to end.
    let none = cells.iter().find(|c| c.label == "none").expect("none cell");
    let two = cells
        .iter()
        .find(|c| c.label == "2-way")
        .expect("2-way cell");
    println!(
        "outage hit-ratio drop: none {:.1} pts vs 2-way {:.1} pts vs parity-{}+{} {:.1} pts",
        none.baseline.totals.hit_ratio_pct() - none.outage.totals.hit_ratio_pct(),
        two.baseline.totals.hit_ratio_pct() - two.outage.totals.hit_ratio_pct(),
        P_DATA,
        P_PARITY,
        parity.baseline.totals.hit_ratio_pct() - parity.outage.totals.hit_ratio_pct(),
    );
    println!(
        "measured redundancy overhead: 2-way {:.1}% vs parity-{}+{} {:.1}% (budget {:.1}%)",
        100.0 * two.overhead.overhead_fraction(),
        P_DATA,
        P_PARITY,
        100.0 * parity.outage.flash_overhead.overhead_fraction(),
        100.0 * P_PARITY as f64 / P_DATA as f64,
    );

    // Determinism: rebuild the flagship pipeline from scratch and the
    // exported JSONL must match byte for byte.
    {
        let replay_plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(n / 3, PlannedEvent::FailTarget(0))
        .with_event(
            n / 2,
            PlannedEvent::InjectReplicaDivergence {
                ppm: DIVERGENCE_PPM,
            },
        )
        .with_event(2 * n / 3, PlannedEvent::RestoreTarget(0));
        let (cluster, result) =
            run_schedule(&config, ReplicationPolicy::two_way(), &trace, &replay_plan);
        let report =
            export::collect_cluster_report("replication", "Reo-20% 2-way", &cluster, &result);
        assert_eq!(
            export::jsonl(&report),
            two.jsonl,
            "replicated cluster replay diverged from the first run"
        );
        println!("replay determinism: OK (byte-identical JSONL)");
    }

    export::write_jsonl("exp_replication", &two.report);
    export::write_jsonl("exp_replication_parity", &parity.report);
    print!("{}", export::render_summary(&two.report));

    FigureReport::new("replication")
        .param("targets", TARGETS)
        .param("policies", "none,2-way,3-way,parity-3+1")
        .param("parity_geometry", format!("{P_DATA}+{P_PARITY}"))
        .param("outage_target", "0")
        .param("divergence_ppm", DIVERGENCE_PPM)
        .param("final_health", &two.report.resilience.health)
        .panel(hit_ratio)
        .panel(p99)
        .panel(serves)
        .panel(overhead_panel)
        .write("replication");
}
