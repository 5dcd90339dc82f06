//! Ablation (DESIGN.md §4.2, §4.4) — the hot-object classifier:
//!
//! * **size-aware vs frequency-only hotness** — the paper argues
//!   `H = Freq / Size` beats plain frequency because small hot objects
//!   contribute more hits per byte of parity budget;
//! * **adaptive threshold vs no classification** — with classification
//!   disabled every clean object stays cold (class 3, unprotected), so a
//!   single failure destroys the entire cache contents.
//!
//! Each variant runs the medium workload under Reo-20%, warm, then one
//! device fails. We report the steady-state hit ratio and the hit ratio
//! over the first 2,000 requests after the failure — the transient the
//! protected set is supposed to carry.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_ablation_hotness [-- --quick]

use reo_bench::{trace, FigureReport, RunScale};
use reo_core::{CacheSystem, DeviceId, SchemeConfig, SystemConfig};
use reo_osd::ObjectClass;
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;
use std::collections::BTreeMap;

struct Row {
    pre_failure_hit_pct: f64,
    post_failure_hit_pct: f64,
    drop_pp: f64,
    protected_objects: usize,
    space_efficiency_pct: f64,
}

impl Row {
    /// The row as exporter table columns.
    fn columns(&self) -> BTreeMap<String, f64> {
        BTreeMap::from([
            ("pre_failure_hit_pct".to_string(), self.pre_failure_hit_pct),
            (
                "post_failure_hit_pct".to_string(),
                self.post_failure_hit_pct,
            ),
            ("drop_pp".to_string(), self.drop_pp),
            (
                "protected_objects".to_string(),
                self.protected_objects as f64,
            ),
            (
                "space_efficiency_pct".to_string(),
                self.space_efficiency_pct,
            ),
        ])
    }
}

fn run(
    trace: &reo_workload::Trace,
    size_aware: bool,
    classification_period: usize,
    window: usize,
) -> Row {
    let cache = trace.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(64));
    config.size_aware_hotness = size_aware;
    config.classification_period = classification_period;
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());

    // Warm fully, then measure a steady window of the same length as the
    // post-failure window for a fair comparison.
    for r in trace.requests() {
        system.handle(r);
    }
    let eff = 100.0 * system.space_efficiency();
    let protected_objects = trace
        .objects()
        .iter()
        .filter(|o| {
            matches!(
                system.target().class_of(o.key),
                Some(ObjectClass::HotClean)
                    | Some(ObjectClass::Dirty)
                    | Some(ObjectClass::Metadata)
            )
        })
        .count();
    let now = system.clock().now();
    system.metrics_mut().reset_all(now);
    for r in trace.requests().iter().take(window) {
        system.handle(r);
    }
    let now = system.clock().now();
    let pre = system.metrics_mut().roll_window(now);

    system.fail_device(DeviceId(0));
    for r in trace.requests().iter().skip(window).take(window) {
        system.handle(r);
    }
    let post = system.metrics().window();

    Row {
        pre_failure_hit_pct: pre.hit_ratio_pct(),
        post_failure_hit_pct: post.hit_ratio_pct(),
        drop_pp: pre.hit_ratio_pct() - post.hit_ratio_pct(),
        protected_objects,
        space_efficiency_pct: eff,
    }
}

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::medium());
    let window = match scale {
        RunScale::Full => 2_000,
        RunScale::Quick => 300,
    };

    println!("### Ablation — hot-object classification variants (Reo-20%, medium workload, 1 failure, {window}-request windows)");

    let variants: Vec<(&str, bool, usize)> = vec![
        ("H = Freq/Size, adaptive (paper)", true, 500),
        ("H = Freq (size-unaware)", false, 500),
        ("no classification (all cold)", true, 0),
    ];

    let mut table: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();
    println!(
        "{:<36}{:>13}{:>14}{:>9}{:>11}{:>8}",
        "variant", "pre-fail hit%", "post-fail hit%", "drop pp", "protected", "eff %"
    );
    for (label, size_aware, period) in variants {
        let row = run(&trace, size_aware, period, window);
        println!(
            "{label:<36}{:>13.1}{:>14.1}{:>9.1}{:>11}{:>8.1}",
            row.pre_failure_hit_pct,
            row.post_failure_hit_pct,
            row.drop_pp,
            row.protected_objects,
            row.space_efficiency_pct,
        );
        table.insert(label.to_string(), row.columns());
    }

    FigureReport::new("ablation_hotness")
        .param("window", window)
        .table("variants", table)
        .write("ablation_hotness");
}
