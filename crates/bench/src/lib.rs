//! Shared harness code for the experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the Reo
//! paper's evaluation (Section VI); this library holds the plumbing they
//! share: building systems, sweeping parameters, and printing the series
//! in the same shape the paper reports (one row per scheme, one column
//! per x-axis point).
//!
//! Binaries accept `--quick` to shrink the workloads for smoke runs; the
//! full (default) runs use the paper's parameters.

pub mod export;

use std::collections::BTreeMap;
use std::io::Write as _;

use reo_core::{
    CacheSystem, ExperimentPlan, ExperimentResult, ExperimentRunner, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Trace, WorkloadSpec};
use serde::Serialize;

/// Scale factors for quick smoke runs vs full paper-scale runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Paper-scale workloads (4,000 objects, tens of thousands of
    /// requests).
    Full,
    /// ~20x smaller for smoke tests and CI.
    Quick,
}

impl RunScale {
    /// Parses `--quick` from the process arguments.
    pub fn from_args() -> RunScale {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Full
        }
    }

    /// Applies the scale to a workload spec.
    pub fn scale_spec(self, spec: WorkloadSpec) -> WorkloadSpec {
        match self {
            RunScale::Full => spec,
            RunScale::Quick => {
                let objects = (spec.objects / 20).max(50);
                let requests = (spec.requests / 20).max(500);
                spec.with_objects(objects).with_requests(requests)
            }
        }
    }
}

/// Builds the paper-testbed system for a scheme, cache fraction, and
/// chunk size, populated for `trace`.
pub fn build_system(
    scheme: SchemeConfig,
    trace: &Trace,
    cache_fraction: f64,
    chunk_size: ByteSize,
) -> CacheSystem {
    let cache = trace.summary().data_set_bytes.scale(cache_fraction);
    let config = SystemConfig::paper_defaults(scheme, cache).with_chunk_size(chunk_size);
    let mut system = CacheSystem::new(config);
    system.populate(trace.objects());
    system
}

/// Runs one configuration and returns the result.
pub fn run_once(
    scheme: SchemeConfig,
    trace: &Trace,
    cache_fraction: f64,
    chunk_size: ByteSize,
    plan: &ExperimentPlan,
) -> ExperimentResult {
    let mut system = build_system(scheme, trace, cache_fraction, chunk_size);
    ExperimentRunner::run(&mut system, trace, plan)
}

/// One figure panel: a named series per scheme over an x axis.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Panel {
    /// Panel title, e.g. "Hit Ratio (%)".
    pub title: String,
    /// X-axis label, e.g. "Cache Size (%)".
    pub x_label: String,
    /// The x-axis points.
    pub xs: Vec<f64>,
    /// scheme label -> y values (same length as `xs`).
    pub series: BTreeMap<String, Vec<f64>>,
}

impl Panel {
    /// Creates an empty panel.
    pub fn new(title: &str, x_label: &str, xs: Vec<f64>) -> Panel {
        Panel {
            title: title.to_string(),
            x_label: x_label.to_string(),
            xs,
            series: BTreeMap::new(),
        }
    }

    /// Appends a y value to a scheme's series.
    pub fn push(&mut self, scheme: &str, y: f64) {
        self.series.entry(scheme.to_string()).or_default().push(y);
    }

    /// Prints the panel as an aligned text table (one row per scheme),
    /// the same rows the paper's figure encodes.
    pub fn print(&self) {
        println!("\n== {} (x = {}) ==", self.title, self.x_label);
        print!("{:<18}", "scheme");
        for x in &self.xs {
            print!("{:>10}", trim_float(*x));
        }
        println!();
        for (name, ys) in &self.series {
            print!("{name:<18}");
            for y in ys {
                print!("{:>10.1}", y);
            }
            println!();
        }
    }
}

/// The one results-JSON shape every experiment binary writes: the
/// experiment name, its free-form parameters, the figure panels, and any
/// named tables (table -> row -> column -> value).
///
/// Replaces the per-binary `struct Report` wrappers: build the report
/// with the chained helpers, then [`FigureReport::write`] prints each
/// panel and writes `results/{name}.json` in one step.
#[derive(Clone, Debug, Default, Serialize)]
pub struct FigureReport {
    /// Which experiment produced the report, e.g. `"normal_run"`.
    pub experiment: String,
    /// Free-form run parameters, e.g. `locality -> "medium"`.
    pub params: BTreeMap<String, String>,
    /// Figure panels, in print order.
    pub panels: Vec<Panel>,
    /// Named tables: table name -> row label -> column label -> value.
    pub tables: BTreeMap<String, BTreeMap<String, BTreeMap<String, f64>>>,
}

impl FigureReport {
    /// Creates an empty report for `experiment`.
    pub fn new(experiment: &str) -> FigureReport {
        FigureReport {
            experiment: experiment.to_string(),
            ..FigureReport::default()
        }
    }

    /// Records a run parameter.
    pub fn param(mut self, key: &str, value: impl std::fmt::Display) -> FigureReport {
        self.params.insert(key.to_string(), value.to_string());
        self
    }

    /// Appends a panel.
    pub fn panel(mut self, panel: Panel) -> FigureReport {
        self.panels.push(panel);
        self
    }

    /// Appends a named table.
    pub fn table(
        mut self,
        name: &str,
        rows: BTreeMap<String, BTreeMap<String, f64>>,
    ) -> FigureReport {
        self.tables.insert(name.to_string(), rows);
        self
    }

    /// Prints every panel and writes the report to `results/{name}.json`.
    pub fn write(&self, name: &str) {
        for panel in &self.panels {
            panel.print();
        }
        write_json(name, self);
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.1}")
    }
}

/// Writes a JSON report next to the binary's working directory under
/// `results/`.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            let body = serde_json::to_string_pretty(value).expect("results serialize");
            if f.write_all(body.as_bytes()).is_ok() {
                println!("\n[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// The cache-size sweep of the normal-run figures: 4%..12% of the data
/// set.
pub fn cache_size_sweep() -> Vec<f64> {
    vec![0.04, 0.06, 0.08, 0.10, 0.12]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_shrinks() {
        let spec = RunScale::Quick.scale_spec(WorkloadSpec::medium());
        assert!(spec.objects < 4000);
        assert!(spec.requests < 51_057);
        let full = RunScale::Full.scale_spec(WorkloadSpec::medium());
        assert_eq!(full.requests, 51_057);
    }

    #[test]
    fn panel_accumulates_series() {
        let mut p = Panel::new("Hit Ratio (%)", "Cache Size (%)", vec![4.0, 6.0]);
        p.push("Reo-20%", 50.0);
        p.push("Reo-20%", 60.0);
        p.push("1-parity", 45.0);
        assert_eq!(p.series["Reo-20%"], vec![50.0, 60.0]);
        assert_eq!(p.series.len(), 2);
        p.print();
    }

    #[test]
    fn sweep_matches_paper_axis() {
        assert_eq!(cache_size_sweep(), vec![0.04, 0.06, 0.08, 0.10, 0.12]);
    }

    #[test]
    fn build_and_run_smoke() {
        let spec = WorkloadSpec::medium().with_objects(40).with_requests(200);
        let trace = spec.generate(1);
        let result = run_once(
            SchemeConfig::Parity(1),
            &trace,
            0.2,
            ByteSize::from_kib(16),
            &ExperimentPlan::normal_run(),
        );
        assert_eq!(result.totals.requests, 200);
    }
}
