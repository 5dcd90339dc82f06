//! Warm-up study — the paper's §I motivation: "Re-warming up the entire
//! cache from scratch again would take an excessively long period of
//! time, rendering the underperformance of caching services for hours".
//!
//! Three scenarios on the medium workload (cache 10%), measured as hit
//! ratio per 1,000-request window:
//!
//! 1. **cold start** — an empty cache warming from nothing (what a total
//!    loss forces);
//! 2. **Reo-20%, one failure** — the protected objects survive, only the
//!    cold tail refills;
//! 3. **1-parity, two failures** — the uniform array is wiped and starts
//!    cold again (RAID-group loss), identical to scenario 1 in shape.
//!
//! Reo's differentiated redundancy is the gap between curves 1 and 2; the
//! binary prints which way that gap points in the run it just made.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_warmup [-- --quick]

use reo_bench::{build_system, trace, FigureReport, Panel, RunScale};
use reo_core::{CacheSystem, DeviceId, SchemeConfig};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

fn measure_windows(
    system: &mut CacheSystem,
    trace: &reo_workload::Trace,
    windows: usize,
    window_len: usize,
) -> (Vec<f64>, f64) {
    let now = system.clock().now();
    system.metrics_mut().reset_all(now);
    let backend_before = system.backend().stats().bytes_read;
    let mut first_window_refill = 0.0;
    let mut out = Vec::new();
    let mut it = trace.requests().iter().cycle();
    for w in 0..windows {
        for _ in 0..window_len {
            let r = it.next().expect("cycle");
            system.handle(r);
        }
        if w == 0 {
            first_window_refill =
                ByteSize::from_bytes(system.backend().stats().bytes_read - backend_before)
                    .as_gib_f64();
        }
        let now = system.clock().now();
        out.push(system.metrics_mut().roll_window(now).hit_ratio_pct());
    }
    (out, first_window_refill)
}

fn main() {
    let scale = RunScale::from_args();
    let trace = trace(scale, WorkloadSpec::medium());
    let (windows, window_len) = match scale {
        RunScale::Full => (10, 500),
        RunScale::Quick => (8, 100),
    };

    println!("### Warm-up study (Section I motivation): hit ratio per {window_len}-request window");

    let xs: Vec<f64> = (1..=windows).map(|i| (i * window_len) as f64).collect();
    let mut panel = Panel::new("Hit Ratio (%)", "Requests", xs);

    // 1. Cold start: an empty cache, as after a total loss.
    let mut cold = build_system(
        SchemeConfig::Reo { reserve: 0.20 },
        &trace,
        0.10,
        ByteSize::from_kib(64),
    );
    let (cold_ys, cold_refill) = measure_windows(&mut cold, &trace, windows, window_len);
    for &y in &cold_ys {
        panel.push("cold start (total loss)", y);
    }

    // 2. Reo after one failure + spare: protected objects survive and are
    // rebuilt; only the unprotected cold tail refills from the backend.
    let mut reo = build_system(
        SchemeConfig::Reo { reserve: 0.20 },
        &trace,
        0.10,
        ByteSize::from_kib(64),
    );
    for r in trace.requests() {
        reo.handle(r);
    }
    reo.fail_device(DeviceId(0));
    reo.insert_spare(DeviceId(0));
    let (reo_ys, reo_refill) = measure_windows(&mut reo, &trace, windows, window_len);
    for &y in &reo_ys {
        panel.push("Reo-20% after failure + spare", y);
    }

    // 3. Uniform 1-parity after two failures: the array wipes; caching is
    // suspended entirely until spares arrive.
    let mut uni = build_system(
        SchemeConfig::Parity(1),
        &trace,
        0.10,
        ByteSize::from_kib(64),
    );
    for r in trace.requests() {
        uni.handle(r);
    }
    uni.fail_device(DeviceId(0));
    uni.fail_device(DeviceId(1));
    assert!(uni.is_offline());
    let (ys, _) = measure_windows(&mut uni, &trace, windows, window_len);
    for y in ys {
        panel.push("1-parity after 2 failures (wiped)", y);
    }

    println!(
        "\nBackend bytes fetched in the first {window_len}-request window (the re-warm burst):"
    );
    println!("  cold start:                 {cold_refill:.2} GiB");
    println!("  Reo-20% after failure:      {reo_refill:.2} GiB");
    // The conclusion is read off the two curves just measured.
    let (cold_first, reo_first) = (cold_ys[0], reo_ys[0]);
    let (starts_above, smaller_burst) = (reo_first > cold_first, reo_refill < cold_refill);
    println!(
        "\nFirst window: Reo-20% after the failure hits {reo_first:.1} %, the cold start {cold_first:.1} %."
    );
    println!(
        "Reo begins {} the cold curve and its re-warm burst is {}.",
        if starts_above { "above" } else { "at or below" },
        if smaller_burst {
            "smaller"
        } else {
            "no smaller"
        },
    );
    if starts_above && smaller_burst {
        println!("The protected objects that survived give it a head start. The effect scales");
        println!("with cache size — at the paper's terabyte scale the cold burst stretches to");
        println!("hours.");
    } else {
        let above = reo_ys.iter().zip(&cold_ys).filter(|(r, c)| r > c).count();
        let below = reo_ys.iter().zip(&cold_ys).filter(|(r, c)| r < c).count();
        println!("The protected objects that survived give it no head start in this run; over");
        println!(
            "the {windows} windows it is above the cold curve in {above} and below it in {below}."
        );
    }
    FigureReport::new("warmup_study")
        .param("window_len", window_len)
        .param("cold_refill_gib", format!("{cold_refill:.3}"))
        .param("reo_refill_gib", format!("{reo_refill:.3}"))
        .panel(panel)
        .write("warmup_study");
}
