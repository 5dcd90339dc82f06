//! The metric tables — every name the binary may print, with its unit,
//! direction and (for end-to-end metrics) regression bound — and the
//! `BENCHMARK.json` text generated from them. The tables are the single
//! source: a test holds the committed `BENCHMARK.json` against
//! [`benchmark_json`], and every run holds what it emits against the
//! tables.

use crate::workloads::WORKLOADS;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// How much worse `second` is than `first`, as a share of `first`
    /// (negative when it is better).
    pub fn worsening(self, first: f64, second: f64) -> f64 {
        let change = (second - first) / first.abs();
        match self {
            // Adding zero turns a negative zero into zero.
            Better::Higher => -change + 0.0,
            Better::Lower => change,
        }
    }
}

use Better::{Higher, Lower};

/// What one run measures for, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The driver's command; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benchmark"];

/// An end-to-end metric: `(name, unit, better, bound)`. The bound is the
/// share of the parent's median by which the metric may get worse.
///
/// Host time is what the simulator costs, `sim_` what the modelled cache
/// delivers. Runs differ in `--seed`, so a bound has to cover the
/// trace-to-trace spread of a metric as well as the host's noise: the
/// `sim_*` values repeat exactly for one seed but move with the trace.
pub const END_TO_END: [(&str, &str, Better, f64); 13] = [
    ("setup_s", "s", Lower, 0.25),
    ("host_req_per_s", "1/s", Higher, 0.25),
    ("host_us_per_req_p50", "us", Lower, 0.25),
    ("host_us_per_req_p95", "us", Lower, 0.25),
    ("allocs_per_req", "count", Lower, 0.25),
    ("alloc_bytes_per_req", "bytes", Lower, 0.25),
    ("peak_rss_mib", "MiB", Lower, 0.25),
    ("sim_hit_ratio_pct", "%", Higher, 0.15),
    ("sim_bandwidth_mib_s", "MiB/s", Higher, 0.15),
    ("sim_mean_latency_ms", "ms", Lower, 0.25),
    ("sim_p99_latency_ms", "ms", Lower, 0.25),
    ("sim_flash_bytes_per_user_byte", "bytes/byte", Lower, 0.20),
    ("sim_space_efficiency_pct", "%", Higher, 0.25),
];

/// A per-layer metric: `(name, unit, better)`. Layer = crate.
pub const PER_LAYER: [(&str, &str, Better); 85] = [
    // core: every handle/event call timed and bucketed by outcome.
    ("core.handle.read_hit.us_p50", "us", Lower),
    ("core.handle.read_hit.share_pct", "%", Lower),
    ("core.handle.read_miss.us_p50", "us", Lower),
    ("core.handle.read_miss.share_pct", "%", Lower),
    ("core.handle.write.us_p50", "us", Lower),
    ("core.handle.write.share_pct", "%", Lower),
    ("core.handle.degraded.us_p50", "us", Lower),
    ("core.handle.degraded.share_pct", "%", Lower),
    ("core.handle.us_p99", "us", Lower),
    ("core.event.ms_total", "ms", Lower),
    ("core.snapshot.us_per_call", "us", Lower),
    ("core.replica_serves_per_kreq", "1/kreq", Higher),
    ("core.parity_serves_per_kreq", "1/kreq", Higher),
    ("core.unattributed_pct", "%", Lower),
    // placement
    ("placement.target_of.ns_per_op", "ns", Lower),
    ("placement.replicas_of.ns_per_op", "ns", Lower),
    ("placement.lookups_per_req", "1/req", Lower),
    // cache
    ("cache.access.ns_per_op", "ns", Lower),
    ("cache.access.allocs_per_op", "count", Lower),
    ("cache.admit_evict.ns_per_op", "ns", Lower),
    ("cache.admit_evict.allocs_per_op", "count", Lower),
    ("cache.reclassify.us_per_pass", "us", Lower),
    ("cache.admissions_per_kreq", "1/kreq", Lower),
    ("cache.removals_per_kreq", "1/kreq", Lower),
    ("cache.class_moves_per_kreq", "1/kreq", Lower),
    // osd-target
    ("osd-target.create.us_per_op", "us", Lower),
    ("osd-target.create.allocs_per_op", "count", Lower),
    ("osd-target.read.us_per_op", "us", Lower),
    ("osd-target.read.allocs_per_op", "count", Lower),
    ("osd-target.remove.us_per_op", "us", Lower),
    ("osd-target.set_class.us_per_op", "us", Lower),
    ("osd-target.creates_per_kreq", "1/kreq", Lower),
    ("osd-target.reads_per_kreq", "1/kreq", Higher),
    ("osd-target.reencodes_per_kreq", "1/kreq", Lower),
    ("osd-target.rebuilds_per_kreq", "1/kreq", Lower),
    // journal
    ("journal.append.ns_per_op", "ns", Lower),
    ("journal.append.allocs_per_op", "count", Lower),
    ("journal.flush.us_per_op", "us", Lower),
    ("journal.checkpoint.us_per_op", "us", Lower),
    ("journal.appends_per_req", "1/req", Lower),
    ("journal.flushes_per_kreq", "1/kreq", Lower),
    ("journal.bytes_per_req", "bytes", Lower),
    // stripe
    ("stripe.store.us_per_op", "us", Lower),
    ("stripe.store.allocs_per_op", "count", Lower),
    ("stripe.read.us_per_op", "us", Lower),
    ("stripe.read.allocs_per_op", "count", Lower),
    ("stripe.degraded_read.us_per_op", "us", Lower),
    ("stripe.overwrite_chunk.us_per_op", "us", Lower),
    ("stripe.rebuild.us_per_op", "us", Lower),
    ("stripe.chunk_ios_per_req", "1/req", Lower),
    ("stripe.degraded_reads_per_kreq", "1/kreq", Lower),
    // erasure
    ("erasure.encode.gib_s", "GiB/s", Higher),
    ("erasure.reconstruct.gib_s", "GiB/s", Higher),
    ("erasure.delta.gib_s", "GiB/s", Higher),
    ("erasure.decode_plan_hit_pct", "%", Higher),
    // flashsim
    ("flashsim.read_chunk.ns_per_op", "ns", Lower),
    ("flashsim.write_chunk.ns_per_op", "ns", Lower),
    ("flashsim.chunk_io.allocs_per_op", "count", Lower),
    ("flashsim.reads_per_req", "1/req", Lower),
    ("flashsim.writes_per_req", "1/req", Lower),
    ("flashsim.queue_delay_ms_mean", "ms", Lower),
    ("flashsim.service_ms_mean", "ms", Lower),
    ("flashsim.erases_per_kreq", "1/kreq", Lower),
    // backend
    ("backend.read.ns_per_op", "ns", Lower),
    ("backend.write.ns_per_op", "ns", Lower),
    ("backend.io.allocs_per_op", "count", Lower),
    ("backend.reads_per_kreq", "1/kreq", Lower),
    ("backend.writes_per_kreq", "1/kreq", Lower),
    ("backend.mib_per_user_mib", "MiB/MiB", Lower),
    // sim: the sim-time tracer switched on, and the metrics primitives.
    ("sim.tracer.overhead_pct", "%", Lower),
    ("sim.trace.cache.excl_ms_per_req", "ms", Lower),
    ("sim.trace.target.excl_ms_per_req", "ms", Lower),
    ("sim.trace.stripe.excl_ms_per_req", "ms", Lower),
    ("sim.trace.flash.excl_ms_per_req", "ms", Lower),
    ("sim.trace.backend.excl_ms_per_req", "ms", Lower),
    ("sim.trace.journal.excl_ms_per_req", "ms", Lower),
    ("sim.trace.placement.excl_ms_per_req", "ms", Lower),
    ("sim.histogram.record.ns_per_op", "ns", Lower),
    ("sim.qos.throttle_stalls_per_kreq", "1/kreq", Lower),
    // workload and bench: what was run, and on how dirty a host.
    ("workload.generate.us_per_kreq", "us", Lower),
    ("workload.write_pct", "%", Lower),
    ("workload.mean_object_kib", "KiB", Lower),
    ("bench.reps", "count", Higher),
    ("bench.available_cores", "count", Higher),
    ("bench.interference_pct", "%", Lower),
];

/// The unit of a metric of either table.
///
/// # Panics
///
/// Panics on a name in neither table: the binary may print no other.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name:?} is not in the tables of spec.rs"))
}

/// Checks that `emitted` names exactly the metrics of a table, once each.
pub fn check_names<'a>(
    table: impl Iterator<Item = &'a str>,
    emitted: &[(&'static str, f64)],
) -> Result<(), String> {
    let expected: Vec<&str> = table.collect();
    let got: Vec<&str> = emitted.iter().map(|&(n, _)| n).collect();
    for name in &got {
        if !expected.contains(name) {
            return Err(format!(
                "emitted {name:?}, which BENCHMARK.json does not name"
            ));
        }
        if got.iter().filter(|n| n == &name).count() != 1 {
            return Err(format!("emitted {name:?} twice"));
        }
    }
    match expected.iter().find(|n| !got.contains(n)) {
        Some(missing) => Err(format!(
            "{missing:?} is in BENCHMARK.json but was not emitted"
        )),
        None => Ok(()),
    }
}

pub fn end_to_end_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|&(n, ..)| n)
}

pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|&(n, ..)| n)
}

fn quoted_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("\"{s}\"")).collect();
    quoted.join(", ")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out += &format!("  \"command\": [{}],\n", quoted_list(&COMMAND));
    out += &format!("  \"paths\": [{}],\n", quoted_list(&PATHS));
    out += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let rows = |rows: Vec<String>| rows.join(",\n");
    out += "  \"workloads\": [\n";
    out += &rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    out += "\n  ],\n  \"end_to_end\": [\n";
    out += &rows(
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    better.as_str()
                )
            })
            .collect(),
    );
    out += "\n  ],\n  \"per_layer\": [\n";
    out += &rows(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better.as_str()
                )
            })
            .collect(),
    );
    out += "\n  ]\n}\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_generated_from_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json"
        );
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = end_to_end_names().chain(per_layer_names()).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for (i, name) in names.iter().enumerate() {
            assert!(ok_name(name), "{name}");
            assert!(!names[..i].contains(name), "{name} is used twice");
            if i < END_TO_END.len() + PER_LAYER.len() {
                assert!(ok_unit(unit_of(name)), "{name}: unit {}", unit_of(name));
            }
        }
        assert!(END_TO_END
            .iter()
            .all(|&(.., bound)| bound > 0.0 && bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").unwrap();
        assert_eq!((setup.1, setup.2), ("s", Lower));
        assert!(
            END_TO_END.iter().all(|m| m.3 <= setup.3),
            "setup_s has the largest bound"
        );
        assert!(benchmark_json().len() <= 64 * 1024);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn check_names_reports_extra_missing_and_repeated() {
        let table = || ["a", "b"].into_iter();
        assert!(check_names(table(), &[("a", 1.0), ("b", 2.0)]).is_ok());
        assert!(check_names(table(), &[("a", 1.0)])
            .unwrap_err()
            .contains("\"b\""));
        assert!(check_names(table(), &[("a", 1.0), ("b", 2.0), ("c", 3.0)])
            .unwrap_err()
            .contains("\"c\""));
        assert!(check_names(table(), &[("a", 1.0), ("a", 1.0), ("b", 2.0)])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worsening(10.0, 11.0) < 0.0);
    }
}
