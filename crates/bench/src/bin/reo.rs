//! `reo` — command-line front end to the cache simulator.
//!
//! Subcommands:
//!
//! ```text
//! reo simulate [--scheme S] [--locality L] [--cache F] [--requests N]
//!              [--objects N] [--write-ratio W] [--chunk-kib K]
//!              [--seed S] [--warmup] [--fail-at IDX:DEV ...] [--json PATH]
//!     Run one cache simulation and print (or archive) its metrics.
//!
//! reo trace   [--locality L] [--requests N] [--objects N]
//!             [--write-ratio W] [--seed S] --out PATH
//!     Generate a workload trace and save it as JSON for replay.
//!
//! reo replay  --trace PATH [--scheme S] [--cache F] [--json PATH]
//!     Replay a saved trace through a system.
//! ```
//!
//! Schemes: `0-parity`, `1-parity`, `2-parity`, `full-replication`,
//! `reo-10`, `reo-20`, `reo-40`. Localities: `weak`, `medium`, `strong`.

use std::process::ExitCode;

use reo_bench::{run_once, SEED};
use reo_core::{DeviceId, ExperimentPlan, PlannedEvent, SchemeConfig};
use reo_sim::ByteSize;
use reo_workload::{Locality, Trace, WorkloadSpec};
use serde::Serialize;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("usage: reo <simulate|trace|replay> [options]   (see --help)");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "--help" | "-h" | "help" => {
            print_help();
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("reo — Reo flash-cache simulator CLI");
    println!("  reo simulate [--scheme S] [--locality L] [--cache F] [--requests N] [--objects N]");
    println!("               [--write-ratio W] [--chunk-kib K] [--seed S] [--warmup]");
    println!("               [--fail-at IDX:DEV ...] [--json PATH]");
    println!("  reo trace    [--locality L] [--requests N] [--objects N] [--write-ratio W]");
    println!("               [--seed S] --out PATH");
    println!("  reo replay   --trace PATH [--scheme S] [--cache F] [--json PATH]");
    println!("schemes: 0-parity 1-parity 2-parity full-replication reo-10 reo-20 reo-40");
    println!("localities: weak medium strong");
}

/// A tiny flag parser: `--key value` pairs plus repeatable `--fail-at`.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument `{a}`"));
            };
            // Boolean switches take no value.
            if matches!(name, "warmup") {
                switches.push(name.to_string());
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("--{name} needs a value"));
            };
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs
            .iter()
            .filter(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v}")),
        }
    }
}

fn parse_scheme(s: &str) -> Result<SchemeConfig, String> {
    Ok(match s {
        "0-parity" => SchemeConfig::Parity(0),
        "1-parity" => SchemeConfig::Parity(1),
        "2-parity" => SchemeConfig::Parity(2),
        "full-replication" => SchemeConfig::FullReplication,
        "reo-10" => SchemeConfig::Reo { reserve: 0.10 },
        "reo-20" => SchemeConfig::Reo { reserve: 0.20 },
        "reo-40" => SchemeConfig::Reo { reserve: 0.40 },
        other => return Err(format!("unknown scheme `{other}`")),
    })
}

fn parse_locality(s: &str) -> Result<Locality, String> {
    Ok(match s {
        "weak" => Locality::Weak,
        "medium" => Locality::Medium,
        "strong" => Locality::Strong,
        other => return Err(format!("unknown locality `{other}`")),
    })
}

fn spec_from_flags(flags: &Flags) -> Result<WorkloadSpec, String> {
    let locality = parse_locality(flags.get("locality").unwrap_or("medium"))?;
    let mut spec = WorkloadSpec::paper(locality);
    spec.write_ratio = flags.parse_num("write-ratio", 0.0)?;
    if !(0.0..=1.0).contains(&spec.write_ratio) {
        return Err("--write-ratio must be in [0,1]".into());
    }
    let objects: usize = flags.parse_num("objects", spec.objects)?;
    let requests: usize = flags.parse_num("requests", spec.requests)?;
    Ok(spec.with_objects(objects).with_requests(requests))
}

#[derive(Serialize)]
struct SimulationReport {
    scheme: String,
    requests: u64,
    hit_ratio_pct: f64,
    bandwidth_mib_s: f64,
    mean_latency_ms: f64,
    p99_latency_ms: f64,
    space_efficiency_pct: f64,
    dirty_data_lost: u64,
    windows: Vec<WindowReport>,
}

#[derive(Serialize)]
struct WindowReport {
    failed_devices: usize,
    hit_ratio_pct: f64,
    bandwidth_mib_s: f64,
    mean_latency_ms: f64,
}

fn run_and_report(
    scheme: SchemeConfig,
    trace: &Trace,
    cache_fraction: f64,
    chunk_kib: u64,
    plan: &ExperimentPlan,
    json: Option<&str>,
) -> Result<(), String> {
    if !(0.001..=1.0).contains(&cache_fraction) {
        return Err("--cache must be a fraction in (0.001, 1.0]".into());
    }
    let result = run_once(
        scheme,
        trace,
        cache_fraction,
        ByteSize::from_kib(chunk_kib),
        plan,
    );

    // Window i ran with as many failed devices as event i-1 left behind.
    let failed = std::iter::once(0).chain(result.events.iter().map(|e| e.failed_devices_after));
    let windows = result
        .windows()
        .into_iter()
        .zip(failed)
        .map(|(window, failed_devices)| WindowReport {
            failed_devices,
            hit_ratio_pct: window.hit_ratio_pct(),
            bandwidth_mib_s: window.bandwidth_mib_s(),
            mean_latency_ms: window.mean_latency_ms(),
        })
        .collect();

    let report = SimulationReport {
        scheme: scheme.label(),
        requests: result.totals.requests,
        hit_ratio_pct: result.totals.hit_ratio_pct(),
        bandwidth_mib_s: result.totals.bandwidth_mib_s(),
        mean_latency_ms: result.totals.mean_latency_ms(),
        p99_latency_ms: result.totals.p99_latency.as_millis_f64(),
        space_efficiency_pct: 100.0 * result.space_efficiency,
        dirty_data_lost: result.dirty_data_lost,
        windows,
    };

    println!("scheme:           {}", report.scheme);
    println!("requests:         {}", report.requests);
    println!("hit ratio:        {:.1}%", report.hit_ratio_pct);
    println!(
        "bandwidth:        {:.1} MiB/s (simulated)",
        report.bandwidth_mib_s
    );
    println!("mean latency:     {:.1} ms", report.mean_latency_ms);
    println!("p99 latency:      {:.1} ms", report.p99_latency_ms);
    println!("space efficiency: {:.1}%", report.space_efficiency_pct);
    println!("dirty data lost:  {}", report.dirty_data_lost);
    if report.windows.len() > 1 {
        println!("\nper-window (between failure events):");
        for w in &report.windows {
            println!(
                "  failed={} hit={:.1}% bw={:.1} MiB/s lat={:.1} ms",
                w.failed_devices, w.hit_ratio_pct, w.bandwidth_mib_s, w.mean_latency_ms
            );
        }
    }

    if let Some(path) = json {
        let body = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))?;
        println!("\n[report written to {path}]");
    }
    Ok(())
}

fn plan_from_flags(flags: &Flags) -> Result<ExperimentPlan, String> {
    let mut events = Vec::new();
    for spec in flags.get_all("fail-at") {
        let (idx, dev) = spec
            .split_once(':')
            .ok_or_else(|| format!("--fail-at wants IDX:DEV, got `{spec}`"))?;
        let idx: usize = idx.parse().map_err(|_| format!("bad index in `{spec}`"))?;
        let dev: usize = dev.parse().map_err(|_| format!("bad device in `{spec}`"))?;
        events.push((idx, PlannedEvent::FailDevice(DeviceId(dev))));
    }
    events.sort_by_key(|(i, _)| *i);
    Ok(ExperimentPlan {
        warmup_passes: usize::from(flags.has("warmup")),
        events,
        ..Default::default()
    })
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let scheme = parse_scheme(flags.get("scheme").unwrap_or("reo-20"))?;
    let spec = spec_from_flags(&flags)?;
    let seed: u64 = flags.parse_num("seed", SEED)?;
    let cache: f64 = flags.parse_num("cache", 0.10)?;
    let chunk_kib: u64 = flags.parse_num("chunk-kib", 64)?;
    let trace = spec.generate(seed);
    let plan = plan_from_flags(&flags)?;
    let summary = trace.summary();
    println!(
        "workload: {} objects / {:.2} GiB / {} requests ({} writes), seed {}",
        summary.objects,
        summary.data_set_bytes.as_gib_f64(),
        summary.requests,
        summary.writes,
        seed
    );
    run_and_report(scheme, &trace, cache, chunk_kib, &plan, flags.get("json"))
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let out = flags.get("out").ok_or("--out PATH is required")?;
    let spec = spec_from_flags(&flags)?;
    let seed: u64 = flags.parse_num("seed", SEED)?;
    let trace = spec.generate(seed);
    let body = serde_json::to_string(&trace).map_err(|e| e.to_string())?;
    std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;
    let s = trace.summary();
    println!(
        "wrote {out}: {} objects / {:.2} GiB / {} requests",
        s.objects,
        s.data_set_bytes.as_gib_f64(),
        s.requests
    );
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    let path = flags.get("trace").ok_or("--trace PATH is required")?;
    let body = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace: Trace = serde_json::from_str(&body).map_err(|e| format!("parsing {path}: {e}"))?;
    let scheme = parse_scheme(flags.get("scheme").unwrap_or("reo-20"))?;
    let cache: f64 = flags.parse_num("cache", 0.10)?;
    let chunk_kib: u64 = flags.parse_num("chunk-kib", 64)?;
    let plan = plan_from_flags(&flags)?;
    run_and_report(scheme, &trace, cache, chunk_kib, &plan, flags.get("json"))
}
