//! Figs. 5–9 of the Reo paper's evaluation (Section VI) and the
//! partial-failure run: each is one row of [`reo_bench::grid`], and this
//! binary runs the rows it is given (`all`: every row, in table order),
//! printing each figure's panels and writing `results/<row>.json`. Fig. 6
//! also writes its traced Reo-20% deep dive,
//! `results/trace_normal_run_medium.jsonl`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin figures -- [--quick] <fig5|fig6|fig7|fig8|fig9|partial_failure|all>...

use reo_bench::{exit_with_usage, grid, sweep_threads, RunScale};

const USAGE: &str = "[--quick] <fig5|fig6|fig7|fig8|fig9|partial_failure|all>...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (scale, named) = match RunScale::parse(&args) {
        Ok((_, named)) if named.is_empty() => exit_with_usage(USAGE, "no figure named"),
        Ok(parsed) => parsed,
        Err(error) => exit_with_usage(USAGE, &error),
    };
    let rows: Vec<grid::Row> = grid::rows()
        .into_iter()
        .filter(|row| named.contains(&row.figure))
        .collect();
    for figure in grid::run(&rows, |spec| scale.scale_spec(spec), sweep_threads()) {
        figure.write();
    }
}
