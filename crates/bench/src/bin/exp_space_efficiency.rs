//! Section VI-B's space-efficiency check: "Reo-10% achieves 90.5%, 91.0%,
//! and 90% average space efficiency for weak, medium, and strong workload,
//! respectively. Reo-20% and Reo-40% also show space efficiency close to
//! the specified parity percentage."
//!
//! Space efficiency is sampled every 500 requests during the run and
//! averaged, per scheme and locality. The uniform baselines are included
//! as the analytical anchors (100% / 80% / 60% / 20%).
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin exp_space_efficiency [-- --quick]

use reo_bench::{build_system, parallel_map_ordered, sweep_threads, trace, FigureReport, RunScale};
use reo_core::{SchemeConfig, SystemConfig};
use reo_osd_target::ProtectionPolicy;
use reo_sim::ByteSize;
use reo_workload::{Locality, WorkloadSpec};
use std::collections::BTreeMap;

fn main() {
    let scale = RunScale::from_args();
    let schemes: Vec<SchemeConfig> = SchemeConfig::normal_run_set()
        .into_iter()
        .chain([SchemeConfig::FullReplication])
        .collect();
    let localities = [Locality::Weak, Locality::Medium, Locality::Strong];

    let mut table: BTreeMap<String, BTreeMap<String, f64>> = BTreeMap::new();

    let traces = localities.map(|locality| trace(scale, WorkloadSpec::paper(locality)));

    // Every (locality, scheme) pair is an independent full-trace run;
    // fan them across cores and fold the averages back in serial order.
    let cells: Vec<(usize, SchemeConfig)> = (0..traces.len())
        .flat_map(|li| schemes.iter().map(move |&scheme| (li, scheme)))
        .collect();
    let averages = parallel_map_ordered(&cells, sweep_threads(), |_, &(li, scheme)| {
        let trace = &traces[li];
        // The paper uses a 4 GB memory / 64 KB chunk config; cache is
        // sized at 10% of the data set for this check.
        let mut system = build_system(scheme, trace, 0.10, ByteSize::from_kib(64));
        let mut samples = Vec::new();
        for (i, request) in trace.requests().iter().enumerate() {
            system.handle(request);
            if i % 500 == 499 {
                samples.push(system.space_efficiency());
            }
        }
        if samples.is_empty() {
            samples.push(system.space_efficiency());
        }
        100.0 * samples.iter().sum::<f64>() / samples.len() as f64
    });
    for (&(li, scheme), &avg) in cells.iter().zip(&averages) {
        table
            .entry(scheme.label())
            .or_default()
            .insert(localities[li].to_string(), avg);
    }

    println!("\n== Average space efficiency (%) — Section VI-B ==");
    print!("{:<18}", "scheme");
    for l in &localities {
        print!("{:>10}", l.to_string());
    }
    println!("{:>10}", "ideal");
    // Every cell ran on `build_system`'s array, the paper's.
    let devices = SystemConfig::paper_defaults(schemes[0], ByteSize::from_kib(64)).devices;
    for &scheme in &schemes {
        let ideal = 100.0
            * match scheme.policy() {
                ProtectionPolicy::Uniform(s) => s.space_efficiency(devices),
                ProtectionPolicy::Differentiated => 1.0 - scheme.redundancy_reserve(),
            };
        print!("{:<18}", scheme.label());
        for l in &localities {
            print!("{:>10.1}", table[&scheme.label()][&l.to_string()]);
        }
        println!("{ideal:>10.1}");
    }

    FigureReport::new("space_efficiency")
        .param("cache_fraction", 0.10)
        .table("avg_space_efficiency_pct", table)
        .write("space_efficiency");
}
