//! Failure drill: watch Reo degrade gracefully while a uniform-parity
//! cache collapses, then bring in a spare and observe prioritized
//! recovery.
//!
//! Run with:
//!   cargo run --release --example failure_drill

use reo_repro::core::{CacheSystem, DeviceId, SchemeConfig, SystemConfig};
use reo_repro::workload::WorkloadSpec;

fn measure_window(
    system: &mut CacheSystem,
    trace: &reo_repro::workload::Trace,
    n: usize,
    skip: usize,
) -> f64 {
    let now = system.clock().now();
    system.metrics_mut().roll_window(now);
    for request in trace.requests().iter().cycle().skip(skip).take(n) {
        system.handle(request);
    }
    system.metrics().window().hit_ratio_pct()
}

/// Runs the drill and returns the hit ratio with two devices failed and
/// whether the cache went offline then.
fn drill(label: &str, scheme: SchemeConfig, trace: &reo_repro::workload::Trace) -> (f64, bool) {
    let cache_capacity = trace.summary().data_set_bytes.scale(0.15);
    let config = SystemConfig::paper_defaults(scheme, cache_capacity);
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());

    // Warm the cache.
    for request in trace.requests() {
        system.handle(request);
    }

    println!("\n=== {label} ===");
    let healthy = measure_window(&mut system, trace, 1_500, 0);
    println!("hit ratio, all devices healthy:   {healthy:.1}%");

    system.fail_device(DeviceId(0));
    let one_down = measure_window(&mut system, trace, 1_500, 1_500);
    println!(
        "hit ratio, 1 device failed:       {one_down:.1}%  (offline: {})",
        system.is_offline()
    );

    system.fail_device(DeviceId(1));
    let two_down = measure_window(&mut system, trace, 1_500, 3_000);
    let offline = system.is_offline();
    println!("hit ratio, 2 devices failed:      {two_down:.1}%  (offline: {offline})");

    // Spares arrive; Reo rebuilds the important objects first.
    system.insert_spare(DeviceId(0));
    system.insert_spare(DeviceId(1));
    println!(
        "spares inserted; rebuilds queued: {}",
        system.recovery_pending()
    );
    let recovered = measure_window(&mut system, trace, 1_500, 4_500);
    println!("hit ratio, after recovery window: {recovered:.1}%");
    println!(
        "dirty data permanently lost:      {}",
        system.dirty_data_lost()
    );
    assert_eq!(system.dirty_data_lost(), 0);
    (two_down, offline)
}

fn main() {
    let trace = WorkloadSpec::medium()
        .with_objects(400)
        .with_requests(5_000)
        .generate(11);

    println!(
        "workload: {} objects, {:.2} GiB; cache = 15% of data set",
        trace.summary().objects,
        trace.summary().data_set_bytes.as_gib_f64()
    );

    let parity = drill(
        "uniform 1-parity (baseline)",
        SchemeConfig::Parity(1),
        &trace,
    );
    let reo = drill(
        "Reo-20% (differentiated)",
        SchemeConfig::Reo { reserve: 0.20 },
        &trace,
    );
    assert_eq!(parity, (0.0, true), "1-parity is offline at two failures");
    assert!(reo.0 > 0.0 && !reo.1, "Reo serves through two failures");

    println!("\nNote how 1-parity drops to zero at the second failure (the whole");
    println!("array is corrupted), while Reo keeps serving its protected objects");
    println!("and recovers the hot ones first once spares arrive.");
}
