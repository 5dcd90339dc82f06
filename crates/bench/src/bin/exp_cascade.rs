//! Cascading-failure resilience: rebuild QoS throttling and composed
//! fault schedules.
//!
//! Two parts:
//!
//! 1. **Rebuild-throttle sweep** — fail one device, insert a spare, and
//!    drain the rebuild under different `rebuild_bandwidth_pct` caps
//!    while request traffic keeps flowing. Reported per cap: the
//!    per-class time-to-restored-redundancy (Reo's differentiated
//!    recovery order should restore metadata/dirty well before the clean
//!    classes), throttle stalls, and metered rebuild bytes.
//! 2. **Cascade composition** — the ISSUE's second-failure-during-rebuild
//!    schedule composed with a slow-then-down-then-restored backend, run
//!    end to end through the health state machine. The run must end
//!    healthy after quiesce with zero dirty data lost, and exports the
//!    full JSONL report (including the `resilience` record).
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_cascade [-- --quick]

use reo_bench::{
    export, parallel_map_ordered, sweep_threads, trace, FigureReport, Panel, RunScale,
};
use reo_core::{
    CacheSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig, SystemConfig,
};
use reo_flashsim::DeviceId;
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

/// Rebuild bandwidth caps swept in part 1, in percent of one device's
/// read throughput (100 = uncapped-rate bucket, still metered).
const THROTTLE_PCTS: [u32; 3] = [10, 40, 100];

/// Class labels in recovery-priority order (`ttr_us` index order).
const CLASS_ORDER: [&str; 4] = ["metadata", "dirty", "hot_clean", "cold_clean"];

fn cascade_system(trace: &reo_workload::Trace, rebuild_pct: u32) -> CacheSystem {
    let cache = trace.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(64));
    config.rebuild_bandwidth_pct = rebuild_pct;
    // Keep a standing dirty population so the Dirty class has real work
    // in the rebuild queue (the default watermark flushes almost all of
    // it between requests).
    config.dirty_flush_watermark = 0.5;
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());
    system
}

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::write_intensive(0.3));
    let n = trace.requests().len();

    println!(
        "### Cascading failures — medium workload, {} requests, write ratio 0.3, Reo-20%",
        n
    );

    // -- Part 1: rebuild-throttle sweep -----------------------------------
    let xs: Vec<f64> = THROTTLE_PCTS.iter().map(|&p| f64::from(p)).collect();
    let mut ttr = Panel::new(
        "Time To Restored Redundancy (ms)",
        "Rebuild Bandwidth Cap (%)",
        xs.clone(),
    );
    let mut stalls = Panel::new("Throttle Stalls", "Rebuild Bandwidth Cap (%)", xs.clone());
    let mut metered = Panel::new("Rebuild Bytes (MiB)", "Rebuild Bandwidth Cap (%)", xs);

    // Each throttle cap is an independent end-to-end run; fan the caps
    // across cores. Progress lines are captured per cell and printed
    // after index-ordered collection so stdout matches the serial loop.
    let cap_runs = parallel_map_ordered(&THROTTLE_PCTS, sweep_threads(), |_, &pct| {
        let mut system = cascade_system(&trace, pct);
        for r in trace.requests() {
            system.handle(r);
        }
        system.fail_device(DeviceId(0));
        system.insert_spare(DeviceId(0));
        let backlog = system.recovery_pending();
        // Keep request traffic flowing until the rebuild drains, so the
        // throttle always has a foreground to yield to.
        let mut extra = 0usize;
        for r in trace.requests().iter().cycle() {
            if system.recovery_pending() == 0 || extra > 10 * n {
                break;
            }
            system.handle(r);
            extra += 1;
        }
        let snap = system.resilience();
        let line = format!(
            "cap {pct:>3}%  backlog {backlog:>5}  extra requests {extra:>6}  stalls {:>5}  \
             ttr(us) meta {} dirty {} hot {} cold {}",
            snap.throttle_stalls, snap.ttr_us[0], snap.ttr_us[1], snap.ttr_us[2], snap.ttr_us[3],
        );
        (snap, line)
    });
    for (snap, line) in &cap_runs {
        for (idx, label) in CLASS_ORDER.iter().enumerate() {
            ttr.push(label, snap.ttr_us[idx] as f64 / 1e3);
        }
        stalls.push("Reo-20%", snap.throttle_stalls as f64);
        metered.push(
            "Reo-20%",
            snap.rebuild_throttle_bytes as f64 / (1024.0 * 1024.0),
        );
        println!("{line}");
    }

    // -- Part 2: composed cascade -----------------------------------------
    // Fail, spare, second failure mid-rebuild, second spare, then a
    // backend brown-out (slow, down, restored) — all while serving.
    let plan = ExperimentPlan::second_failure_during_rebuild(n / 6, n / 3, n / 2)
        .with_event(n / 2 + n / 12, PlannedEvent::InsertSpare(DeviceId(1)))
        .with_event(2 * n / 3, PlannedEvent::SlowBackend { factor_pct: 300 })
        .with_event(3 * n / 4, PlannedEvent::FailBackend)
        .with_event(5 * n / 6, PlannedEvent::RestoreBackend)
        .with_event(5 * n / 6, PlannedEvent::SlowBackend { factor_pct: 100 });
    let mut system = cascade_system(&trace, 40);
    let result = ExperimentRunner::run(&mut system, &trace, &plan);
    let drained = system.drain_recovery(1_000_000);
    let snap = system.resilience();
    println!(
        "\ncascade: health {}  transitions {}  shed {}  write-through {}  bypassed fills {}  \
         drained {}  dirty lost {}",
        snap.health,
        snap.health_transitions,
        snap.shed_requests,
        snap.write_throughs,
        snap.bypassed_fills,
        drained,
        result.dirty_data_lost,
    );

    let report = export::collect_run_report("cascade", "Reo-20%", &system, &result);
    export::write_jsonl("cascade_run", &report);
    print!("{}", export::render_summary(&report));

    FigureReport::new("cascade")
        .param(
            "throttle_pcts",
            THROTTLE_PCTS.map(|p| p.to_string()).join(","),
        )
        .param("write_ratio", "0.3")
        .param("final_health", &snap.health)
        .panel(ttr)
        .panel(stalls)
        .panel(metered)
        .write("cascade");
}
