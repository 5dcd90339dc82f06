//! The figure grid: Figs. 5–9 of the paper's evaluation (Section VI) and
//! the partial-failure run, one [`Row`] each — a labelled scheme set swept
//! over one axis and drawn as panels. [`run`] generates each distinct
//! trace once, fans every cell out through one [`parallel_map_ordered`]
//! and folds the results back in table order, so a new row or x is an
//! edit of [`rows`] alone.

use reo_core::{
    DeviceId, ExperimentPlan, ExperimentResult, ExperimentRunner, MetricsSnapshot, PlannedEvent,
    SchemeConfig,
};
use reo_sim::ByteSize;
use reo_workload::{Locality, Trace, WorkloadSpec};

use crate::export::{self, RunReport};
use crate::{build_system, parallel_map_ordered, FigureReport, Panel, SEED};

/// A panel: its title and how to read a point's value off the point's
/// snapshot and the run it belongs to.
pub type Measure = (&'static str, fn(&MetricsSnapshot, &ExperimentResult) -> f64);

const HIT: Measure = ("Hit Ratio (%)", |w, _| w.hit_ratio_pct());
const BANDWIDTH: Measure = ("Bandwidth (MB/sec)", |w, _| w.bandwidth_mib_s());
const LATENCY: Measure = ("Latency (ms)", |w, _| w.mean_latency_ms());
const SPACE_EFFICIENCY: Measure = ("Space Efficiency (%)", |_, run| {
    100.0 * run.space_efficiency
});
const DIRTY_LOST: Measure = ("Dirty Objects Lost", |_, run| run.dirty_data_lost as f64);
const MEDIUM_ERRORS: Measure = ("Medium Errors", |w, _| w.medium_errors as f64);
const REPAIRS: Measure = ("Repairs", |w, _| w.repairs as f64);
const FALLBACKS: Measure = ("Backend Fallbacks", |w, _| w.unrecoverable_fallbacks as f64);

/// Where the points of a row's series come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// Every x is a run of its own per scheme; its point is the run's
    /// totals.
    Totals,
    /// One run per scheme, at the first x, covers the axis; the i-th x
    /// reads the i-th event window that carried traffic.
    Window,
}

/// One committed figure.
pub struct Row {
    /// The name `figures` selects the row by, e.g. `"fig5"`.
    pub figure: &'static str,
    /// The results file stem, e.g. `"fig5_normal_run_weak"`.
    pub name: &'static str,
    /// The report's [`FigureReport::experiment`].
    pub experiment: &'static str,
    /// The workload at x, before scaling.
    pub spec: fn(f64) -> WorkloadSpec,
    /// The x-axis label.
    pub axis: &'static str,
    /// The x-axis points.
    pub xs: Vec<f64>,
    /// The legend labels and their schemes.
    pub schemes: Vec<(String, SchemeConfig)>,
    /// The cache size at x, as a fraction of the data set.
    pub cache_fraction: fn(f64) -> f64,
    /// The chunk size.
    pub chunk: ByteSize,
    /// The plan at x for a trace of this many requests.
    pub plan: fn(f64, usize) -> ExperimentPlan,
    /// Where the series' points come from.
    pub point: Point,
    /// The panels, in print order.
    pub panels: &'static [Measure],
    /// The report's parameters, from the first x's (scaled) spec and
    /// request count.
    pub params: fn(&WorkloadSpec, usize) -> Vec<(&'static str, String)>,
    /// A traced, sampled deep-dive run beside the figure: the
    /// `results/{stem}.jsonl` it writes, its scheme and its x.
    pub traced: Option<(&'static str, SchemeConfig, f64)>,
}

/// Figs. 5–7: the paper's six schemes against a cache of 4–12 % of the
/// data set, no warm-up, 64 KiB chunks.
fn normal_run(figure: &'static str, name: &'static str, spec: fn(f64) -> WorkloadSpec) -> Row {
    Row {
        figure,
        name,
        experiment: "normal_run",
        spec,
        axis: "Cache Size (%)",
        xs: vec![4.0, 6.0, 8.0, 10.0, 12.0],
        schemes: SchemeConfig::normal_run_set()
            .into_iter()
            .map(|s| (s.label(), s))
            .collect(),
        cache_fraction: |x| x / 100.0,
        chunk: ByteSize::from_kib(64),
        plan: |_, _| ExperimentPlan::normal_run(),
        point: Point::Totals,
        panels: &[HIT, BANDWIDTH, LATENCY],
        params: |spec, _| vec![("locality", spec.locality.to_string())],
        traced: None,
    }
}

/// Fig. 8's devices failed one by one, one window each.
const FAILURES: usize = 4;

/// The partial-failure run's per-chunk corruption rates, one landing at
/// the start of each window (0 = the clean baseline window).
const CORRUPTION_PPM: [u32; 5] = [0, 5_000, 20_000, 50_000, 100_000];

/// The partial-failure run's per-read transient-timeout probability.
const TRANSIENT_PPM: u32 = 2_000;

/// Transient timeouts, the scrubber and one device slowed to half speed
/// armed at the start, then a corruption round at each window boundary.
fn partial_failure_plan(requests: usize) -> ExperimentPlan {
    let step = requests / CORRUPTION_PPM.len();
    let mut plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(0, PlannedEvent::StartScrub)
    .with_event(0, PlannedEvent::TransientFaults { ppm: TRANSIENT_PPM })
    .with_event(
        0,
        PlannedEvent::SlowDevice {
            device: DeviceId(1),
            factor_pct: 200,
        },
    );
    for (i, &ppm) in CORRUPTION_PPM.iter().enumerate().skip(1) {
        plan = plan.with_event(i * step, PlannedEvent::CorruptChunks { ppm });
    }
    plan
}

/// The grid, in the order `figures all` writes it.
pub fn rows() -> Vec<Row> {
    let medium: fn(f64) -> WorkloadSpec = |_| WorkloadSpec::paper(Locality::Medium);
    // Section VI-C: a fully warmed cache of 10 % of the data set, 1 MB
    // chunks, one more failed device every fifth of the trace.
    let fig8 = || Row {
        figure: "fig8",
        name: "fig8_failure_resistance",
        experiment: "failure_resistance",
        axis: "Number of Failed Devices",
        xs: (0..=FAILURES).map(|i| i as f64).collect(),
        cache_fraction: |_| 0.10,
        chunk: ByteSize::from_mib(1),
        plan: |_, requests| ExperimentPlan::staggered_failures(requests / 5, FAILURES),
        point: Point::Window,
        params: |_, requests| {
            let step = (requests / 5).to_string();
            vec![("failure_step", step), ("failures", FAILURES.to_string())]
        },
        ..normal_run("", "", medium)
    };
    vec![
        normal_run("fig5", "fig5_normal_run_weak", |_| {
            WorkloadSpec::paper(Locality::Weak)
        }),
        Row {
            traced: Some((
                "trace_normal_run_medium",
                SchemeConfig::Reo { reserve: 0.20 },
                10.0,
            )),
            ..normal_run("fig6", "fig6_normal_run_medium", medium)
        },
        normal_run("fig7", "fig7_normal_run_strong", |_| {
            WorkloadSpec::paper(Locality::Strong)
        }),
        fig8(),
        // Section VI-D: full replication must treat every object as
        // possibly dirty; Reo replicates only the dirty ones.
        Row {
            figure: "fig9",
            name: "fig9_dirty_protection",
            experiment: "dirty_protection",
            spec: |x| WorkloadSpec::write_intensive(x / 100.0),
            axis: "Write Ratio (%)",
            xs: vec![10.0, 20.0, 30.0, 40.0, 50.0],
            schemes: vec![
                ("Full replication".into(), SchemeConfig::FullReplication),
                ("Reo".into(), SchemeConfig::Reo { reserve: 0.10 }),
            ],
            cache_fraction: |_| 0.10,
            plan: |_, _| ExperimentPlan {
                warmup_passes: 1,
                ..Default::default()
            },
            panels: &[HIT, BANDWIDTH, LATENCY, SPACE_EFFICIENCY, DIRTY_LOST],
            params: |_, _| vec![("cache_fraction", 0.10.to_string())],
            ..normal_run("", "", medium)
        },
        // Every device stays up while latent corruption escalates.
        Row {
            figure: "partial_failure",
            name: "partial_failure",
            experiment: "partial_failure",
            axis: "Corruption Rate (ppm)",
            xs: CORRUPTION_PPM.iter().map(|&ppm| f64::from(ppm)).collect(),
            plan: |_, requests| partial_failure_plan(requests),
            panels: &[HIT, LATENCY, MEDIUM_ERRORS, REPAIRS, FALLBACKS],
            params: |_, _| vec![("transient_ppm", TRANSIENT_PPM.to_string())],
            ..fig8()
        },
    ]
}

/// What [`run`] produced for one row.
pub struct Figure {
    /// The results file stem.
    pub name: &'static str,
    /// The header, and for a [`Point::Window`] row each scheme's run totals.
    pub notes: String,
    /// The figure.
    pub report: FigureReport,
    /// The deep dive's file stem and report, if the row has one.
    pub traced: Option<(&'static str, RunReport)>,
}

impl Figure {
    /// The row's figure before any run: its header, parameters and empty
    /// panels, from the row's first trace.
    fn blank(row: &Row, (spec, trace): &(WorkloadSpec, Trace)) -> Figure {
        let summary = trace.summary();
        let mut report = FigureReport::new(row.experiment);
        for (key, value) in (row.params)(spec, summary.requests) {
            report = report.param(key, value);
        }
        for &(title, _) in row.panels {
            report = report.panel(Panel::new(title, row.axis, row.xs.clone()));
        }
        Figure {
            name: row.name,
            notes: format!(
                "\n### {}: {} objects, {} requests ({} writes)\n",
                row.name, summary.objects, summary.requests, summary.writes
            ),
            report,
            traced: None,
        }
    }

    /// Prints the figure and writes `results/{name}.json` (and the deep
    /// dive's `.jsonl`).
    pub fn write(&self) {
        print!("{}", self.notes);
        self.report.write(self.name);
        if let Some((name, report)) = &self.traced {
            print!("{}", export::render_summary(report));
            export::write_jsonl(name, report);
        }
    }
}

/// Runs `rows` on their specs passed through `scale`, on `threads`
/// workers, and returns their figures in row order. The output does not
/// depend on `threads`.
pub fn run(
    rows: &[Row],
    scale: impl Fn(WorkloadSpec) -> WorkloadSpec,
    threads: usize,
) -> Vec<Figure> {
    let mut traces: Vec<(WorkloadSpec, Trace)> = Vec::new();
    // One simulation each: row, trace, x, scheme and its legend label
    // (`None` for the row's traced deep dive).
    let mut cells: Vec<(usize, usize, f64, SchemeConfig, Option<&str>)> = Vec::new();
    let mut figures = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        let first = cells.len();
        let xs = match row.point {
            Point::Totals => &row.xs[..],
            Point::Window => &row.xs[..1],
        };
        let labelled = xs.iter().flat_map(|&x| {
            let schemes = row.schemes.iter();
            schemes.map(move |(label, scheme)| (x, *scheme, Some(label.as_str())))
        });
        let traced = row.traced.map(|(_, scheme, x)| (x, scheme, None));
        for (x, scheme, label) in labelled.chain(traced) {
            let spec = scale((row.spec)(x));
            let seen = traces.iter().position(|(seen, _)| *seen == spec);
            let trace = seen.unwrap_or_else(|| {
                traces.push((spec, spec.generate(SEED)));
                traces.len() - 1
            });
            cells.push((r, trace, x, scheme, label));
        }
        figures.push(Figure::blank(row, &traces[cells[first].1]));
    }

    let runs = parallel_map_ordered(&cells, threads, |_, &(r, t, x, scheme, label)| {
        let (row, trace) = (&rows[r], &traces[t].1);
        let requests = trace.requests().len();
        let mut plan = (row.plan)(x, requests);
        let mut system = build_system(scheme, trace, (row.cache_fraction)(x), row.chunk);
        if label.is_none() {
            system.enable_tracing();
            plan = plan.with_sampling((requests / 10).max(1));
        }
        let result = ExperimentRunner::run(&mut system, trace, &plan);
        let report = label
            .is_none()
            .then(|| export::collect_run_report(row.experiment, &scheme.label(), &system, &result));
        (result, system.transient_retries(), report)
    });

    for (&(r, _, _, _, label), (result, retries, report)) in cells.iter().zip(runs) {
        let (row, figure) = (&rows[r], &mut figures[r]);
        let Some(label) = label else {
            figure.traced = row.traced.map(|(name, ..)| name).zip(report);
            continue;
        };
        let points = match row.point {
            Point::Totals => vec![&result.totals],
            Point::Window => result
                .windows()
                .into_iter()
                .filter(|w| w.requests > 0)
                .collect(),
        };
        for point in points {
            for (panel, &(_, value)) in figure.report.panels.iter_mut().zip(row.panels) {
                panel.push(label, value(point, &result));
            }
        }
        if row.point == Point::Window {
            let totals = &result.totals;
            figure.notes += &format!(
                "{label:<18} dirty-data-lost={} space-eff={:.1}% repairs={} medium-errors={} \
                 fallbacks={} scrub-passes={} retries={retries}\n",
                result.dirty_data_lost,
                100.0 * result.space_efficiency,
                totals.repairs,
                totals.medium_errors,
                totals.unrecoverable_fallbacks,
                totals.scrub_passes,
            );
        }
    }
    figures
}
