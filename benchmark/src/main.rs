//! The repo benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! reo-benchmark --workload <name> [--seed 42] [--seconds 15] [--trace 0|1]
//!     one run of one workload; prints every metric by name with its
//!     unit, then the result as one JSON object on the last line
//! reo-benchmark all [--seed 42] [--seconds 15]
//!     every workload, untraced and traced, one process per run
//! reo-benchmark aa [--seed 42] [--seconds 15]
//!     the untraced suite twice; both values of every end-to-end
//!     metric, their difference and the bound
//! reo-benchmark spec
//!     the text of BENCHMARK.json
//! ```

mod aa;
mod alloc;
mod counters;
mod e2e;
mod envelope;
mod layered;
mod layers;
mod spec;
mod system;
mod workloads;

use std::process::ExitCode;

use e2e::Budget;
use workloads::{Workload, PARTS, WORKLOADS};

#[global_allocator]
pub static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc::new();

/// The options of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Options {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace`.
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: 42,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
        };
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => options.workload = Some(value.clone()),
                "--seed" => options.seed = value.parse().map_err(|_| bad("a whole number"))?,
                "--seconds" => {
                    options.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| bad("seconds between 0 and 600"))?
                }
                "--trace" => {
                    options.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    }
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(options)
    }
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let rows: Vec<String> = metrics
        .iter()
        .map(|&(name, value)| {
            assert!(value.is_finite(), "{name} is not a finite number");
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec::unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        rows.join(", ")
    )
}

fn print_metrics(metrics: &[(&'static str, f64)]) {
    for &(name, value) in metrics {
        println!("{name:<40} {value:>16.4} {}", spec::unit_of(name));
    }
}

/// Where the span file of `workload` goes.
fn trace_path(workload: &Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.jsonl", workload.name))
}

/// One run of one workload.
fn run(options: &Options) -> Result<(), Vec<String>> {
    let name = options
        .workload
        .as_deref()
        .ok_or_else(|| vec!["--workload is required".to_string()])?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        vec![format!(
            "unknown workload {name:?}; one of {}",
            known.join(", ")
        )]
    })?;
    println!(
        "# {} seed {} seconds {} trace {}: {} parts of {} warm-up + {} measured requests",
        workload.name,
        options.seed,
        options.seconds,
        u8::from(options.trace),
        if options.trace { layered::PARTS } else { PARTS },
        workload.warm,
        workload.measured
    );
    let (timed, metrics) = if options.trace {
        let layered = layered::run(workload, options.seed, options.seconds)?;
        spec::check_names(spec::per_layer_names(), &layered.metrics).map_err(|e| vec![e])?;
        print_metrics(&layered.metrics);
        println!("# estimated share of host time per request, by layer (exclusive)");
        for share in &layered.shares {
            println!(
                "#   {:<22} {:>10.1} ns {:>7.2} %",
                share.layer, share.ns_per_req, share.pct
            );
        }
        let path = trace_path(workload);
        std::fs::create_dir_all(path.parent().expect("the span file is in a directory"))
            .and_then(|()| std::fs::write(&path, layered.spans.to_jsonl()))
            .map_err(|e| vec![format!("write {}: {e}", path.display())])?;
        println!(
            "# {} spans written to {}",
            layered.spans.spans.len(),
            path.display()
        );
        (layered.untraced, layered.metrics)
    } else {
        let timed = e2e::Timed::run(
            workload,
            options.seed,
            PARTS,
            Budget::Seconds(options.seconds),
            false,
        )?;
        let parts = timed.part_metrics();
        let metrics = timed.metrics(&parts);
        spec::check_names(spec::end_to_end_names(), &metrics).map_err(|e| vec![e])?;
        print_metrics(&metrics);
        println!("# the same per part (above: the mean of the middle half of the parts):");
        for (m, &(name, _)) in metrics.iter().enumerate() {
            let values: Vec<String> = parts.iter().map(|p| format!("{:.4}", p[m].1)).collect();
            println!("#   {name:<32} {}", values.join("  "));
        }
        (timed, metrics)
    };
    let samples = workload.measured;
    println!(
        "# {} repetitions; per part {} per-request samples, {} beyond p95, {} beyond p99, highest percentile with ten beyond: p{}",
        timed.reps,
        samples,
        envelope::samples_beyond(samples, 95.0),
        envelope::samples_beyond(samples, 99.0),
        envelope::highest_supported(samples).unwrap_or(0.0),
    );
    println!(
        "# host interference {:.1} %; quiet-host limit over the envelope: set-up x{:.4}, measured passes x{:.4}",
        timed.interference_pct(),
        timed.setup_limit(),
        timed.pass_limit()
    );
    let (attempted, failed) = timed.attempted_failed();
    println!(
        "# failed_ops_pct {} ({failed} of {attempted} requests)",
        100.0 * failed as f64 / attempted as f64
    );
    println!("{}", result_json(true, attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, flags) = match args.first().map(String::as_str) {
        Some(command @ ("all" | "aa" | "spec")) => (command, &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = Options::parse(flags)
        .map_err(|e| vec![e])
        .and_then(|options| match command {
            "spec" => {
                print!("{}", spec::benchmark_json());
                Ok(())
            }
            "all" => aa::all(&options),
            "aa" => aa::aa(&options),
            _ => run(&options),
        });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(failures) => {
            for failure in failures {
                eprintln!("FAILED: {failure}");
            }
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics_of(timed: &e2e::Timed) -> Vec<(&'static str, f64)> {
        timed.metrics(&timed.part_metrics())
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let o = Options::parse(&strings(&[
            "--workload",
            "write_heavy",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            o,
            Options {
                workload: Some("write_heavy".to_string()),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert_eq!(Options::parse(&[]).unwrap().seed, 42);
        assert!(Options::parse(&strings(&["--trace", "2"])).is_err());
        assert!(Options::parse(&strings(&["--seconds", "0"])).is_err());
        assert!(Options::parse(&strings(&["--seed"])).is_err());
        assert!(Options::parse(&strings(&["--reps", "3"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", 0.25), ("host_req_per_s", 1e-7)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"host_req_per_s\": {\"value\": 0.0000001, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(
            aa::parse_result(&line).unwrap().metrics["host_req_per_s"].value,
            1e-7
        );
    }

    /// Both kinds of run, on traces a fifth the size, must emit
    /// exactly the names of `BENCHMARK.json` (held to the tables by
    /// `spec::tests`), for every workload; and a different seed must
    /// change the values but not the names.
    #[test]
    fn every_workload_emits_exactly_the_named_metrics() {
        for workload in &WORKLOADS {
            let small = workload.shrunk(5);
            let timed = e2e::Timed::run(&small, 42, PARTS, Budget::Reps(2), false)
                .unwrap_or_else(|f| panic!("{}: {f:?}", small.name));
            spec::check_names(spec::end_to_end_names(), &metrics_of(&timed)).unwrap();
            let layered =
                layered::run(&small, 42, 0.0).unwrap_or_else(|f| panic!("{}: {f:?}", small.name));
            spec::check_names(spec::per_layer_names(), &layered.metrics).unwrap();
            assert!(
                layered.metrics.iter().all(|(_, v)| v.is_finite()),
                "{}: {:?}",
                small.name,
                layered.metrics
            );
            let total: f64 = layered.shares.iter().map(|s| s.pct).sum();
            assert!((total - 100.0).abs() < 1e-6, "shares sum to {total}");

            let other = e2e::Timed::run(&small, 7, PARTS, Budget::Reps(2), false).unwrap();
            let names = |m: &[(&'static str, f64)]| m.iter().map(|&(n, _)| n).collect::<Vec<_>>();
            assert_eq!(names(&metrics_of(&timed)), names(&metrics_of(&other)));
            assert_ne!(timed.outputs, other.outputs, "{}", small.name);
        }
    }
}
