//! `all` and `aa`: the suite, one process per run so that
//! `peak_rss_mib` is the workload's own, and the A/A comparison of two
//! suites of the same build against the bounds.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde::Deserialize;

use crate::spec::END_TO_END;
use crate::workloads::WORKLOADS;
use crate::Options;

/// One metric of a result line.
#[derive(Debug, PartialEq, Deserialize)]
pub struct Measured {
    pub value: f64,
}

/// A run's result line, parsed back.
#[derive(Debug, PartialEq, Deserialize)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
}

/// Parses a result line.
pub fn parse_result(line: &str) -> Result<RunResult, String> {
    serde_json::from_str(line).map_err(|e| format!("not a result line ({e}): {line}"))
}

/// Runs one workload in a process of its own, passing its report
/// through, and returns its result.
fn run_child(workload: &str, options: &Options, trace: bool) -> Result<RunResult, Vec<String>> {
    let fail = |what: String| vec![format!("{workload}: {what}")];
    let exe = std::env::current_exe().map_err(|e| fail(e.to_string()))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| fail(e.to_string()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (report, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{report}");
    if !output.status.success() {
        return Err(fail(format!("exited with {}", output.status)));
    }
    let result = parse_result(last).map_err(fail)?;
    if !result.correct || result.failed > 0 {
        return Err(fail(format!(
            "correct {}, {} of {} failed",
            result.correct, result.failed, result.attempted
        )));
    }
    Ok(result)
}

/// `all`: every workload, untraced then traced.
pub fn all(options: &Options) -> Result<(), Vec<String>> {
    for workload in &WORKLOADS {
        for trace in [false, true] {
            run_child(workload.name, options, trace)?;
        }
    }
    Ok(())
}

/// `aa`: the untraced suite twice, then every end-to-end metric's two
/// values, how much worse the second is, and the bound. A difference
/// beyond the bound in either direction is `unresolved`: the benchmark
/// cannot tell such a change from its own noise.
pub fn aa(options: &Options) -> Result<(), Vec<String>> {
    let mut suites = Vec::new();
    for _ in 0..2 {
        let mut suite = Vec::new();
        for workload in &WORKLOADS {
            suite.push(run_child(workload.name, options, false)?);
        }
        suites.push(suite);
    }
    let mut unresolved = Vec::new();
    println!(
        "## A/A on seed {}, {} s per run",
        options.seed, options.seconds
    );
    for (i, workload) in WORKLOADS.iter().enumerate() {
        println!("\n### {}\n", workload.name);
        println!("| metric | first | second | worse by | bound | |");
        println!("|---|---:|---:|---:|---:|---|");
        for &(name, unit, better, bound) in &END_TO_END {
            let value = |suite: &[RunResult]| {
                suite[i]
                    .metrics
                    .get(name)
                    .map(|m| m.value)
                    .ok_or_else(|| vec![format!("{}: no {name} in the result", workload.name)])
            };
            let (first, second) = (value(&suites[0])?, value(&suites[1])?);
            let worse = better.worsening(first, second);
            let verdict = if worse.abs() > bound {
                unresolved.push(format!(
                    "{}: {name} differs by {:.2} % between two runs of the same build (bound {:.0} %)",
                    workload.name,
                    100.0 * worse,
                    100.0 * bound
                ));
                "unresolved"
            } else {
                ""
            };
            println!(
                "| `{name}` ({unit}) | {first:.4} | {second:.4} | {:+.2} % | {:.0} % | {verdict} |",
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    if unresolved.is_empty() {
        Ok(())
    } else {
        Err(unresolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_it_is_given_and_refuses_the_rest() {
        let line = "{\"correct\": true, \"attempted\": 3000, \"failed\": 2, \"metrics\": {\
                    \"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}, \
                    \"c\": {\"value\": -0.25, \"unit\": \"%\"}}}";
        assert_eq!(
            parse_result(line).unwrap(),
            RunResult {
                correct: true,
                attempted: 3000,
                failed: 2,
                metrics: BTreeMap::from([
                    ("a.b".to_string(), Measured { value: 1.5 }),
                    ("c".to_string(), Measured { value: -0.25 }),
                ]),
            }
        );
        assert!(
            !parse_result(&line.replace("true", "false"))
                .unwrap()
                .correct
        );
        assert!(parse_result("# a comment").is_err());
        assert!(parse_result("").is_err());
    }
}
