//! Quickstart: build a Reo cache system, run a synthetic workload through
//! it, and read the metrics the paper reports.
//!
//! Run with:
//!   cargo run --release --example quickstart

use reo_repro::core::{CacheSystem, SchemeConfig, SystemConfig};
use reo_repro::workload::WorkloadSpec;

fn main() {
    // A scaled-down medium-locality workload (the paper's full data set is
    // 4,000 objects / ~17 GiB; this example uses 1/10 of that).
    let trace = WorkloadSpec::medium()
        .with_objects(400)
        .with_requests(5_000)
        .generate(7);
    let summary = trace.summary();
    println!(
        "workload: {} objects, {:.2} GiB data set, {} requests",
        summary.objects,
        summary.data_set_bytes.as_gib_f64(),
        summary.requests
    );

    // Reo with 20% of the flash space reserved for differentiated
    // redundancy; cache sized at 10% of the data set.
    let cache_capacity = summary.data_set_bytes.scale(0.10);
    let config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache_capacity);
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());

    for request in trace.requests() {
        system.handle(request);
    }

    let totals = system.metrics().totals();
    println!("\n--- results ---");
    println!("hit ratio:        {:.1}%", totals.hit_ratio_pct());
    println!(
        "bandwidth:        {:.0} MiB/s (simulated)",
        totals.bandwidth_mib_s()
    );
    println!("mean latency:     {:.1} ms", totals.mean_latency_ms());
    println!(
        "p99 latency:      {:.1} ms",
        totals.p99_latency.as_millis_f64()
    );
    println!(
        "space efficiency: {:.1}% (user bytes / occupied flash)",
        100.0 * system.space_efficiency()
    );
    println!("objects cached:   {}", system.cached_objects());
    assert_eq!(totals.requests, summary.requests as u64);
    assert!(totals.hit_ratio_pct() > 0.0 && system.cached_objects() > 0);
}
