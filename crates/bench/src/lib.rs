//! Shared harness code for the experiment binaries.
//!
//! The swept figures of the Reo paper's evaluation (Section VI, Figs. 5–9)
//! and the partial-failure run are rows of [`grid`], run by the `figures`
//! binary; every other binary in `src/bin/` regenerates one table or
//! study. This library holds what they share: the command line, the seed,
//! building systems, the sweep pool, and printing the series in the shape
//! the paper reports (one row per scheme, one column per x-axis point).
//!
//! Binaries accept `--quick` to shrink the workloads for smoke runs; the
//! full (default) runs use the paper's parameters.

pub mod export;
pub mod grid;

use std::collections::BTreeMap;

use reo_core::{
    CacheSystem, ExperimentPlan, ExperimentResult, ExperimentRunner, SchemeConfig, SystemConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Trace, WorkloadSpec};
use serde::Serialize;

/// The seed every committed artifact's workload is generated from.
pub const SEED: u64 = 42;

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
    /// Parses a command line (program name excluded): `--quick`, and the
    /// [`grid`] figures to run by name (`all` names every row). Returns
    /// the scale and the named figures in argument order; any other
    /// argument is an error.
    pub fn parse(args: &[String]) -> Result<(RunScale, Vec<&'static str>), String> {
        let figures: Vec<&'static str> = grid::rows().iter().map(|row| row.figure).collect();
        let mut scale = RunScale::Full;
        let mut named = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--quick" => scale = RunScale::Quick,
                "all" => named.extend(&figures),
                name => match figures.iter().find(|&&figure| figure == name) {
                    Some(figure) => named.push(*figure),
                    None => return Err(format!("unknown argument `{name}`")),
                },
            }
        }
        Ok((scale, named))
    }

    /// The scale of a binary whose only option is `--quick`: any other
    /// argument prints the usage line and exits non-zero.
    pub fn from_args() -> RunScale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match RunScale::parse(&args) {
            Ok((scale, named)) if named.is_empty() => scale,
            Ok(_) => exit_with_usage("[--quick]", "figure names are arguments of `figures`"),
            Err(error) => exit_with_usage("[--quick]", &error),
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

/// Prints `error` and the binary's usage line to stderr and exits with
/// status 2.
pub fn exit_with_usage(usage: &str, error: &str) -> ! {
    let program = std::env::args().next().unwrap_or_default();
    eprintln!("error: {error}\nusage: {program} {usage}");
    std::process::exit(2)
}

/// The trace of `spec` at `scale`, generated from [`SEED`].
pub fn trace(scale: RunScale, spec: WorkloadSpec) -> Trace {
    scale.scale_spec(spec).generate(SEED)
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
        let body = serde_json::to_string_pretty(self).expect("results serialize");
        write_result(&format!("{name}.json"), &body, "results");
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.1}")
    }
}

/// Writes `body` to `results/{file}` and prints where it went (`what`).
pub fn write_result(file: &str, body: &str, what: &str) {
    let path = std::path::Path::new("results").join(file);
    match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("\n[{what} written to {}]", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Number of worker threads experiment sweeps use: the machine's
/// available parallelism.
pub fn sweep_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Fans `f` over `items` on a scoped worker pool and returns results in
/// item order — `out[i] == f(i, &items[i])` exactly as the serial loop
/// would produce them, regardless of which worker ran which item or in
/// what order they finished.
///
/// Workers claim items from a shared atomic cursor, so uneven cell costs
/// load-balance naturally. With `threads <= 1` (or one item) no threads
/// are spawned at all; callers get the plain serial loop. Determinism
/// argument: each cell owns an independent `&T` and writes only its own
/// slot, index-ordered collection restores serial order, and cells must
/// not share mutable state (enforced by `F: Sync` + the `&T` argument) —
/// so the output is a pure function of `items`, identical to the serial
/// path byte for byte.
///
/// # Panics
///
/// Propagates a panic from any worker (the scope joins all threads
/// first).
pub fn parallel_map_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let workers = threads.min(items.len());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(i, item);
                slots.lock().expect("no poisoned workers")[i] = Some(r);
            });
        }
    });
    slots
        .into_inner()
        .expect("no poisoned workers")
        .into_iter()
        .map(|r| r.expect("every index claimed exactly once"))
        .collect()
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
        // Figs. 5–7 sweep the cache from 4% to 12% of the data set; the
        // percent on the axis must turn into exactly the paper's fraction.
        for row in grid::rows()
            .iter()
            .filter(|row| row.experiment == "normal_run")
        {
            let fractions: Vec<f64> = row.xs.iter().map(|&x| (row.cache_fraction)(x)).collect();
            assert_eq!(fractions, [0.04, 0.06, 0.08, 0.10, 0.12], "{}", row.name);
        }
    }

    #[test]
    fn unknown_arguments_are_errors() {
        let args = |list: &[&str]| list.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert!(RunScale::parse(&args(&["--quik"])).is_err());
        assert!(RunScale::parse(&args(&["fig10"])).is_err());
        assert!(RunScale::parse(&args(&["--quick", "fig6", "--trace"])).is_err());
        assert_eq!(RunScale::parse(&args(&[])), Ok((RunScale::Full, vec![])));
        assert_eq!(
            RunScale::parse(&args(&["fig8", "--quick", "all"])),
            Ok((
                RunScale::Quick,
                vec![
                    "fig8",
                    "fig5",
                    "fig6",
                    "fig7",
                    "fig8",
                    "fig9",
                    "partial_failure"
                ]
            ))
        );
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

    #[test]
    fn parallel_map_ordered_matches_serial_for_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x * 3 + i as u64)
            .collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map_ordered(&items, threads, |i, x| x * 3 + i as u64);
            assert_eq!(got, serial, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_ordered_handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_ordered(&empty, 4, |_, x| *x).is_empty());
        assert_eq!(
            parallel_map_ordered(&[9u32], 4, |i, x| (i, *x)),
            vec![(0, 9)]
        );
    }

    #[test]
    fn parallel_map_ordered_keeps_order_under_uneven_cell_costs() {
        // Make early indices the slowest so completion order inverts
        // submission order; collection must still be index-ordered.
        let items: Vec<u64> = (0..16).collect();
        let got = parallel_map_ordered(&items, 4, |i, x| {
            std::thread::sleep(std::time::Duration::from_millis(16 - i as u64));
            *x
        });
        assert_eq!(got, items);
    }

    #[test]
    fn sweep_threads_is_at_least_one() {
        assert!(sweep_threads() >= 1);
    }
}
