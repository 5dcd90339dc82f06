//! Ablation (DESIGN.md §4.3) — class-prioritized recovery vs block-order
//! (FIFO) recovery.
//!
//! Section IV-D: "Prioritized recovery minimizes this vulnerable window
//! by reconstructing the most important data first to create additional
//! data redundancy on the new device as quickly as possible." The
//! measurable consequence is the **exposure window** of each class after
//! a spare is inserted: how long until every object of that class has its
//! full redundancy back. Reo rebuilds metadata, then dirty data, then hot
//! clean data; FIFO interleaves them in arrival (key) order, so the most
//! important classes stay exposed for most of the rebuild.
//!
//! Protocol: write-intensive medium workload (30% writes) under Reo-20%,
//! warm; one device fails and a spare arrives; the rebuild runs slowly
//! (one object per 20 requests). We report, per class, the number of
//! requests until the last object of that class is fully re-protected.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_ablation_recovery [-- --quick]

use reo_bench::{trace, FigureReport, RunScale};
use reo_core::{CacheSystem, DeviceId, SchemeConfig, SystemConfig};
use reo_osd::ObjectClass;
use reo_sim::ByteSize;
use reo_stripe::ObjectStatus;
use reo_workload::WorkloadSpec;
use std::collections::BTreeMap;

/// Requests until each class has no degraded objects left, per engine.
fn run(
    prioritized: bool,
    trace: &reo_workload::Trace,
    max_requests: usize,
    probe_every: usize,
) -> BTreeMap<String, usize> {
    let cache = trace.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_mib(1));
    config.prioritized_recovery = prioritized;
    config.recovery_batch = 1;
    config.recovery_period = 20; // slow rebuild: one object per 20 requests
                                 // Let a moderate dirty set accumulate so the dirty class has a
                                 // meaningful queue position while hot objects still exist.
    config.dirty_flush_watermark = 0.10;
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());

    for r in trace.requests() {
        system.handle(r);
    }
    system.fail_device(DeviceId(0));
    system.insert_spare(DeviceId(0));
    // Isolate the recovery engine: freeze classification (its re-encodes
    // heal objects), disable the flusher (same), and drive read-only
    // traffic during the measurement (writes rewrite objects in place,
    // healing them too). Only the engine repairs anything now.
    system.set_classification_period(0);
    system.set_dirty_flush_watermark(1.0);

    let classes = [
        ObjectClass::Metadata,
        ObjectClass::Dirty,
        ObjectClass::HotClean,
    ];
    let mut exposure: BTreeMap<String, usize> = BTreeMap::new();

    let exposed = |system: &CacheSystem, class: ObjectClass| -> bool {
        system.target().keys().into_iter().any(|k| {
            system.target().class_of(k) == Some(class)
                && matches!(system.target().object_status(k), Ok(ObjectStatus::Degraded))
        })
    };

    let mut it = trace.requests().iter().cycle();
    for i in 0..max_requests {
        if i % probe_every == 0 {
            for &class in &classes {
                if !exposure.contains_key(&class.to_string()) && !exposed(&system, class) {
                    exposure.insert(class.to_string(), i);
                }
            }
            if exposure.len() == classes.len() {
                break;
            }
        }
        let r = it.next().expect("cycle");
        let read_only = reo_workload::Request {
            op: reo_workload::Operation::Read,
            ..*r
        };
        system.handle(&read_only);
    }
    for class in classes {
        exposure.entry(class.to_string()).or_insert(max_requests);
    }
    exposure
}

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::write_intensive(0.30));
    let (max_requests, probe_every) = match scale {
        RunScale::Full => (20_000, 50),
        RunScale::Quick => (3_000, 25),
    };

    println!("### Ablation — prioritized vs FIFO recovery: per-class exposure window after spare insertion");
    println!("(write-intensive medium workload, Reo-20%, rebuild = 1 object / 20 requests)\n");

    // engine -> class -> requests until the class was fully re-protected.
    let mut exposure_table: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    println!(
        "{:<22}{:>12}{:>12}{:>12}",
        "engine", "metadata", "dirty", "hot-clean"
    );
    for (label, prioritized) in [("prioritized (Reo)", true), ("FIFO (block-order)", false)] {
        let exposure = run(prioritized, &trace, max_requests, probe_every);
        println!(
            "{label:<22}{:>12}{:>12}{:>12}",
            exposure["metadata"], exposure["dirty"], exposure["hot-clean"]
        );
        exposure_table.insert(
            label.to_string(),
            exposure.into_iter().map(|(k, v)| (k, v as f64)).collect(),
        );
    }

    println!("\nLower is better: requests during which the class still had objects");
    println!("missing redundancy (the paper's 'vulnerable window').");
    FigureReport::new("ablation_recovery")
        .param("max_requests", max_requests)
        .param("probe_every", probe_every)
        .table("exposure_requests", exposure_table)
        .write("ablation_recovery");
}
