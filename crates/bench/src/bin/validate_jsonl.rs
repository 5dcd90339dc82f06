//! Validates exporter JSON-lines documents against the current schema
//! (see `reo_bench::export`). CI's `results-reproduce` job runs this on
//! every committed `results/*.jsonl` and `BENCH_perf.json`.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin validate_jsonl -- <file.jsonl> [...]
//!
//! Exits non-zero (with the first offending line named) if any document
//! fails validation.

use reo_bench::export;

fn main() {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: validate_jsonl <file.jsonl> [...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failed = true;
                continue;
            }
        };
        match export::validate_jsonl(&text) {
            Ok(summary) => {
                let kinds: Vec<String> = summary
                    .kinds
                    .iter()
                    .map(|(kind, n)| format!("{kind}={n}"))
                    .collect();
                println!(
                    "{file}: ok — {} records (schema v{}; {})",
                    summary.records,
                    summary.schema_version,
                    kinds.join(" ")
                );
            }
            Err(e) => {
                eprintln!("{file}: INVALID — {e}");
                failed = true;
            }
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
