//! Crash-recovery experiment: sudden power loss mid-trace, deterministic
//! restart, and the cost of getting warm again.
//!
//! Each scheme runs the medium-locality workload with two planned crashes
//! (at 1/3 and 2/3 of the trace). A crash vaporizes DRAM state, tears the
//! journal's staging buffer at a fault-model-chosen byte offset, and is
//! immediately followed by checkpoint+journal replay, consistency
//! verification, and cache rebuild from the recovered inventory. The table
//! below reports the recovery counters the JSONL export carries
//! (`journal_appends`, `checkpoint_count`, `replayed_records`,
//! `torn_tail_detected`, `recovery_duration_us`), and the Reo-20% run is
//! written to `results/exp_crash_recovery.jsonl` for `validate_jsonl`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_crash_recovery [-- --quick]

use reo_bench::{build_system, export, trace, FigureReport, Panel, RunScale};
use reo_core::{ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::medium());
    let n = trace.requests().len();

    println!(
        "### Crash recovery — medium workload, {n} requests, power loss at requests {} and {}",
        n / 3,
        2 * n / 3
    );
    println!(
        "{:<18} {:>10} {:>12} {:>10} {:>9} {:>14} {:>12}",
        "scheme", "hit%", "jrnl-appends", "ckpts", "replayed", "torn-tails", "recovery-us"
    );

    let xs: Vec<f64> = vec![1.0, 2.0];
    let mut rec_us = Panel::new("Recovery Time (us)", "Crash #", xs.clone());
    let mut replayed = Panel::new("Replayed Records", "Crash #", xs);

    let plan = ExperimentPlan {
        warmup_passes: 1,
        events: vec![
            (n / 3, PlannedEvent::Crash),
            (2 * n / 3, PlannedEvent::Crash),
        ],
        ..Default::default()
    };

    for scheme in SchemeConfig::normal_run_set() {
        let mut system = build_system(scheme, &trace, 0.10, ByteSize::from_mib(1));
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        let label = scheme.label();
        let t = &result.totals;
        println!(
            "{label:<18} {:>10.2} {:>12} {:>10} {:>9} {:>14} {:>12}",
            t.hit_ratio_pct(),
            t.journal_appends,
            t.checkpoint_count,
            t.replayed_records,
            t.torn_tail_detected,
            t.recovery_duration_us,
        );
        // Two crashes per run: attribute half the replay work to each for
        // the per-crash panels (the runner folds both into run totals).
        for _ in 0..2 {
            rec_us.push(&label, t.recovery_duration_us as f64 / 2.0);
            replayed.push(&label, t.replayed_records as f64 / 2.0);
        }

        if matches!(scheme, SchemeConfig::Reo { reserve } if (reserve - 0.20).abs() < 1e-9) {
            let report = export::collect_run_report("crash_recovery", &label, &system, &result);
            export::write_jsonl("exp_crash_recovery", &report);
        }
    }

    FigureReport::new("crash_recovery")
        .param("crashes", 2)
        .panel(rec_us)
        .panel(replayed)
        .write("crash_recovery");
}
