//! Performance baseline: erasure-kernel throughput, journal append and
//! checksum throughput, sweep wall-clock, tracing overhead, and end-to-end
//! request rate, exported as `perf` records of the current exporter schema.
//!
//! Five groups of measurements:
//!
//! 1. **Erasure kernels** — encode / reconstruct / delta-update GiB/s at
//!    the paper-default stripe geometry (4 data + 1 parity, 64 KiB
//!    chunks), plus a reference per-byte `gf256::mul` encode using the
//!    codec's own coefficients. The `encode_speedup_x` point is the
//!    fused-kernel-over-per-byte ratio the ISSUE's acceptance criterion
//!    tracks (≥ 5x).
//! 2. **Metadata journal** — `Journal::append` MiB/s of encoded record
//!    bytes for layout records of 1.4 KB (a `read_medium` object's ~70
//!    chunks) and 4 KB, at the paper-default `fsync_interval` of 32, and
//!    `crc32` GiB/s over a 64 KiB buffer.
//! 3. **Sweep wall-clock** — a miniature `run_once` sweep timed twice
//!    through `parallel_map_ordered`: once forced serial, once at
//!    `sweep_threads()`. On a multi-core box the speedup point shows the
//!    pool's scaling; on one core the two passes run the same serial
//!    loop, so the parallel and speedup rows carry a unit that says they
//!    are not a scaling measurement.
//! 4. **Tracing overhead** — paired off/on runs; the most favorable
//!    pair ratio estimates the enabled tracer's intrinsic cost (reported,
//!    not gated; the `exp_observability` binary gates the tracer's cost
//!    in nanoseconds per request instead, because a ratio moves with the
//!    untraced path).
//! 5. **End-to-end request rate** — one timed Reo-20% run through
//!    `ExperimentRunner::run`, reported as requests per second.
//!
//! The full run report (with the `perf` records appended) is validated
//! against the exporter schema and written to `BENCH_perf.json` in the
//! working directory — the perf-trajectory file CI's smoke job checks.
//!
//! Usage:
//!   cargo run --release -p reo-bench --bin perfbench [-- --quick]

use reo_bench::export::{self, PerfPoint};
use reo_bench::{build_system, parallel_map_ordered, run_once, sweep_threads, RunScale, SEED};
use reo_core::{ExperimentPlan, ExperimentRunner, SchemeConfig};
use reo_erasure::{delta, gf256, ReedSolomon};
use reo_journal::{crc32, Journal, JournalRecord};
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
use reo_sim::ByteSize;
use reo_workload::WorkloadSpec;
use std::time::Instant;

/// Paper-default stripe geometry: five SSDs, one parity chunk.
const DATA_SHARDS: usize = 4;
const PARITY_SHARDS: usize = 1;
/// Paper-default chunk size.
const CHUNK: usize = 64 * 1024;

/// Runs `op` until `min_secs` of wall-clock has elapsed (at least once)
/// and returns achieved GiB/s for `bytes_per_iter` payload bytes.
///
/// Takes the best of two timed windows: the first window doubles as the
/// warm-up (buffers faulted in, clocks ramped), so a frequency step
/// mid-run doesn't skew one benchmark against another.
fn throughput_gib_s(bytes_per_iter: usize, min_secs: f64, mut op: impl FnMut()) -> f64 {
    let mut window = || {
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            op();
            iters += 1;
            if start.elapsed().as_secs_f64() >= min_secs {
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        (bytes_per_iter as f64 * iters as f64) / (1024.0 * 1024.0 * 1024.0) / secs
    };
    let first = window();
    window().max(first)
}

/// Deterministic shard fill (no RNG needed for throughput numbers).
fn shard(seed: usize) -> Vec<u8> {
    (0..CHUNK)
        .map(|i| (i.wrapping_mul(31).wrapping_add(seed * 97) & 0xff) as u8)
        .collect()
}

/// The reference encode the kernels replaced: one `gf256::mul` table
/// lookup per byte, using the codec's real coefficients (recovered via
/// `kernel.mul(1) == c`).
fn encode_per_byte_reference(rs: &ReedSolomon, data: &[Vec<u8>], parity: &mut [Vec<u8>]) {
    for (p, out) in parity.iter_mut().enumerate() {
        out.iter_mut().for_each(|b| *b = 0);
        for (d, src) in data.iter().enumerate() {
            let c = rs.parity_kernel(p, d).mul(1);
            for (o, &s) in out.iter_mut().zip(src.iter()) {
                *o ^= gf256::mul(c, s);
            }
        }
    }
}

fn kernel_benches(min_secs: f64, points: &mut Vec<PerfPoint>) {
    let rs = ReedSolomon::new(DATA_SHARDS, PARITY_SHARDS).expect("valid geometry");
    let data: Vec<Vec<u8>> = (0..DATA_SHARDS).map(shard).collect();
    let stripe_bytes = DATA_SHARDS * CHUNK;

    let mut parity: Vec<Vec<u8>> = vec![Vec::new(); PARITY_SHARDS];
    let encode = throughput_gib_s(stripe_bytes, min_secs, || {
        rs.encode_into(&data, &mut parity).expect("encode");
    });

    let mut ref_parity: Vec<Vec<u8>> = vec![vec![0u8; CHUNK]; PARITY_SHARDS];
    let baseline = throughput_gib_s(stripe_bytes, min_secs, || {
        encode_per_byte_reference(&rs, &data, &mut ref_parity);
    });
    assert_eq!(parity, ref_parity, "kernel and reference encodes agree");

    // Reconstruct one lost data shard from the survivors. The first
    // iteration builds the erasure pattern's decode plan; every later
    // one reuses it from the codec's plan cache, so the reported figure
    // is the warm (steady-state) decode path — the cache-hit-rate
    // record below documents how warm the measurement ran.
    let encoded = rs.encode(&data).expect("encode");
    let mut template: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
    template.extend(encoded.into_iter().map(Some));
    let mut shards = template.clone();
    let reconstruct = throughput_gib_s(CHUNK, min_secs, || {
        shards.clone_from(&template);
        shards[0] = None;
        rs.reconstruct(&mut shards).expect("reconstruct");
    });
    let (plan_hits, plan_misses) = rs.decode_cache_stats();
    let plan_hit_rate = plan_hits as f64 / (plan_hits + plan_misses).max(1) as f64;

    // Delta-update every parity shard for one rewritten data shard.
    let old = &data[1];
    let new = shard(99);
    let mut dparity: Vec<Vec<u8>> = (0..PARITY_SHARDS).map(|p| shard(p + 7)).collect();
    let delta = throughput_gib_s(CHUNK, min_secs, || {
        delta::apply_delta_update(&rs, 1, old, &new, &mut dparity).expect("delta");
    });

    points.push(PerfPoint {
        bench: "erasure_encode".to_string(),
        value: encode,
        unit: "GiB/s".to_string(),
    });
    points.push(PerfPoint {
        bench: "erasure_encode_per_byte_baseline".to_string(),
        value: baseline,
        unit: "GiB/s".to_string(),
    });
    points.push(PerfPoint {
        bench: "encode_speedup_x".to_string(),
        value: encode / baseline,
        unit: "x".to_string(),
    });
    points.push(PerfPoint {
        bench: "erasure_reconstruct".to_string(),
        value: reconstruct,
        unit: "GiB/s".to_string(),
    });
    points.push(PerfPoint {
        bench: "decode_plan_cache_hit_rate".to_string(),
        value: plan_hit_rate,
        unit: "ratio".to_string(),
    });
    points.push(PerfPoint {
        bench: "erasure_delta_update".to_string(),
        value: delta,
        unit: "GiB/s".to_string(),
    });
}

fn journal_benches(min_secs: f64, points: &mut Vec<PerfPoint>) {
    /// `SystemConfig::paper_defaults`' appends per automatic flush.
    const FSYNC_INTERVAL: u32 = 32;
    /// Appends between checkpoints, which empty the log and so bound it.
    const CHECKPOINT_EVERY: u64 = 4096;
    for (bench, meta_len) in [
        ("journal_append_1400b_mib_s", 1400),
        ("journal_append_4096b_mib_s", 4096),
    ] {
        let record = JournalRecord::Create {
            key: ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x2_0000)),
            class: ObjectClass::ColdClean,
            meta: shard(meta_len)[..meta_len].to_vec(),
        };
        let mut journal = Journal::format(FSYNC_INTERVAL);
        journal.append(&record);
        let record_bytes = journal.stats().appended_bytes as usize;
        let gib_s = throughput_gib_s(record_bytes, min_secs, || {
            if journal.append(&record).is_multiple_of(CHECKPOINT_EVERY) {
                journal.checkpoint(&[]);
            }
        });
        points.push(PerfPoint {
            bench: bench.to_string(),
            value: gib_s * 1024.0,
            unit: "MiB/s".to_string(),
        });
    }

    let buffer = shard(5);
    let mut sum = 0u32;
    let crc = throughput_gib_s(CHUNK, min_secs, || {
        sum ^= crc32(std::hint::black_box(&buffer));
    });
    std::hint::black_box(sum);
    points.push(PerfPoint {
        bench: "crc32_gib_s".to_string(),
        value: crc,
        unit: "GiB/s".to_string(),
    });
}

fn sweep_benches(scale: RunScale, points: &mut Vec<PerfPoint>) {
    let spec = match scale {
        RunScale::Quick => WorkloadSpec::medium().with_objects(50).with_requests(500),
        RunScale::Full => WorkloadSpec::medium()
            .with_objects(400)
            .with_requests(4_000),
    };
    let trace = spec.generate(SEED);
    let cells: Vec<(f64, SchemeConfig)> = [0.06, 0.10]
        .iter()
        .flat_map(|&fraction| {
            SchemeConfig::normal_run_set()
                .into_iter()
                .map(move |scheme| (fraction, scheme))
        })
        .collect();
    let run_cell = |_: usize, &(fraction, scheme): &(f64, SchemeConfig)| {
        run_once(
            scheme,
            &trace,
            fraction,
            ByteSize::from_kib(64),
            &ExperimentPlan::normal_run(),
        )
        .totals
        .requests
    };

    let threads = sweep_threads();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let start = Instant::now();
    let serial = parallel_map_ordered(&cells, 1, run_cell);
    let serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let parallel = parallel_map_ordered(&cells, threads, run_cell);
    let parallel_s = start.elapsed().as_secs_f64();
    assert_eq!(serial, parallel, "pool result order matches serial");

    // With one core (or one pool thread) the pool degenerates to the
    // serial loop: the second pass times the same code as the first, so
    // its rows are labelled as no scaling measurement and nothing is
    // asserted.
    let speedup = serial_s / parallel_s;
    let scaling = cores > 1 && threads > 1;
    if scaling {
        assert!(
            speedup >= 0.8,
            "parallel sweep slower than serial on {cores} cores: {speedup:.2}x"
        );
    }
    let unit = |base: &str| {
        if scaling {
            base.to_string()
        } else {
            format!("{base} ({cores} core(s), {threads} thread(s): not a scaling measurement)")
        }
    };

    points.push(PerfPoint {
        bench: "sweep_serial".to_string(),
        value: serial_s,
        unit: "s".to_string(),
    });
    points.push(PerfPoint {
        bench: "sweep_parallel".to_string(),
        value: parallel_s,
        unit: unit("s"),
    });
    points.push(PerfPoint {
        bench: "sweep_speedup_x".to_string(),
        value: speedup,
        unit: unit("x"),
    });
    points.push(PerfPoint {
        bench: "sweep_threads".to_string(),
        value: threads as f64,
        unit: "threads".to_string(),
    });
    points.push(PerfPoint {
        bench: "available_cores".to_string(),
        value: cores as f64,
        unit: "cores".to_string(),
    });
    points.push(PerfPoint {
        bench: "sweep_cells".to_string(),
        value: cells.len() as f64,
        unit: "cells".to_string(),
    });
}

fn tracing_benches(scale: RunScale, points: &mut Vec<PerfPoint>) {
    let spec = match scale {
        RunScale::Quick => WorkloadSpec::medium().with_objects(50).with_requests(2_000),
        RunScale::Full => WorkloadSpec::medium(),
    };
    let trace = spec.generate(SEED);
    let timed = |traced: bool| {
        let mut system = build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.10,
            ByteSize::from_kib(64),
        );
        if traced {
            system.enable_tracing();
        }
        let start = Instant::now();
        ExperimentRunner::run(&mut system, &trace, &ExperimentPlan::normal_run());
        start.elapsed().as_secs_f64()
    };
    // One discarded warm-up run (page cache, clock ramp), then paired
    // runs, untraced first. Pairs share a load regime; noise only
    // inflates a pair, so the minimum ratio is the tight estimate of
    // the tracer's cost relative to this run. (`exp_observability` gates
    // the cost itself, in nanoseconds per request.)
    timed(false);
    let overhead_pct = (0..3)
        .map(|_| {
            let off = timed(false);
            let on = timed(true);
            100.0 * (on / off - 1.0)
        })
        .fold(f64::INFINITY, f64::min);
    points.push(PerfPoint {
        bench: "tracing_overhead_pct".to_string(),
        value: overhead_pct,
        unit: "pct".to_string(),
    });
}

fn main() {
    let scale = RunScale::from_args();
    let min_secs = match scale {
        RunScale::Quick => 0.1,
        RunScale::Full => 0.5,
    };
    let mut points = Vec::new();

    println!(
        "### perfbench — erasure kernels, journal, sweep pool, tracing overhead, end-to-end rate"
    );
    kernel_benches(min_secs, &mut points);
    journal_benches(min_secs, &mut points);
    sweep_benches(scale, &mut points);
    tracing_benches(scale, &mut points);

    // End-to-end rate plus the run report BENCH_perf.json is built from.
    let spec = match scale {
        RunScale::Quick => WorkloadSpec::medium().with_objects(50).with_requests(500),
        RunScale::Full => WorkloadSpec::medium(),
    };
    let trace = spec.generate(SEED);
    let scheme = SchemeConfig::Reo { reserve: 0.20 };
    let mut system = build_system(scheme, &trace, 0.10, ByteSize::from_kib(64));
    let start = Instant::now();
    let result = ExperimentRunner::run(&mut system, &trace, &ExperimentPlan::normal_run());
    let secs = start.elapsed().as_secs_f64();
    points.push(PerfPoint {
        bench: "end_to_end_requests".to_string(),
        value: result.totals.requests as f64 / secs,
        unit: "req/s".to_string(),
    });

    for p in &points {
        println!("{:<36} {:>12.3} {}", p.bench, p.value, p.unit);
    }

    let mut report = export::collect_run_report("perfbench", &scheme.label(), &system, &result);
    report.perf = points;
    let text = export::jsonl(&report);
    export::validate_jsonl(&text).expect("perfbench output must match the exporter schema");
    let path = "BENCH_perf.json";
    std::fs::write(path, &text).expect("write BENCH_perf.json");
    println!("\n[perf baseline written to {path}]");
}
