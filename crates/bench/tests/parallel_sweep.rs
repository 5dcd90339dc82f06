//! The parallel sweep pool must be invisible in every exported artifact:
//! fanning sweep cells across worker threads has to produce byte-identical
//! JSONL documents and figures to the serial loop on a fixed seed.

use reo_bench::{build_system, export, grid, parallel_map_ordered};
use reo_core::{ExperimentPlan, ExperimentRunner, SchemeConfig};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;

fn sweep_cells() -> Vec<(f64, SchemeConfig)> {
    [0.06, 0.10]
        .iter()
        .flat_map(|&fraction| {
            SchemeConfig::normal_run_set()
                .into_iter()
                .map(move |scheme| (fraction, scheme))
        })
        .collect()
}

#[test]
fn parallel_sweep_jsonl_is_byte_identical_to_serial() {
    let trace = WorkloadSpec::medium()
        .with_objects(50)
        .with_requests(600)
        .generate(42);
    let cells = sweep_cells();
    let run_cell = |_: usize, &(fraction, scheme): &(f64, SchemeConfig)| {
        let mut system = build_system(scheme, &trace, fraction, ByteSize::from_kib(64));
        let result = ExperimentRunner::run(&mut system, &trace, &ExperimentPlan::normal_run());
        export::jsonl(&export::collect_run_report(
            "determinism",
            &scheme.label(),
            &system,
            &result,
        ))
    };

    let serial = parallel_map_ordered(&cells, 1, run_cell);
    for doc in &serial {
        export::validate_jsonl(doc).expect("serial documents are real reports");
    }
    for threads in [2, 4, 16] {
        let parallel = parallel_map_ordered(&cells, threads, run_cell);
        assert_eq!(serial, parallel, "threads={threads}");
    }
}

#[test]
fn every_grid_row_fills_its_panels_the_same_at_any_thread_count() {
    let rows = grid::rows();
    let tiny = |spec: WorkloadSpec| spec.with_objects(50).with_requests(500);
    let documents = |figures: &[grid::Figure]| -> Vec<String> {
        figures
            .iter()
            .map(|figure| {
                let traced = figure
                    .traced
                    .as_ref()
                    .map(|(_, report)| export::jsonl(report));
                serde_json::to_string(&figure.report).expect("figure serializes")
                    + &traced.unwrap_or_default()
            })
            .collect()
    };

    let figures = grid::run(&rows, tiny, 1);
    assert_eq!(figures.len(), rows.len());
    for (row, figure) in rows.iter().zip(&figures) {
        assert_eq!(figure.name, row.name);
        assert_eq!(figure.report.panels.len(), row.panels.len(), "{}", row.name);
        for panel in &figure.report.panels {
            let labels: Vec<&str> = panel.series.keys().map(String::as_str).collect();
            let mut expected: Vec<&str> = row.schemes.iter().map(|(l, _)| l.as_str()).collect();
            expected.sort_unstable();
            assert_eq!(labels, expected, "{} / {}", row.name, panel.title);
            for (label, ys) in &panel.series {
                assert_eq!(
                    ys.len(),
                    row.xs.len(),
                    "{} / {} / {label}",
                    row.name,
                    panel.title
                );
            }
        }
        assert_eq!(
            figure.traced.is_some(),
            row.traced.is_some(),
            "{}",
            row.name
        );
    }
    assert_eq!(
        documents(&figures),
        documents(&grid::run(&rows, tiny, 4)),
        "figures must not depend on threading"
    );
}
