//! Workspace-spanning integration tests: the full request path from
//! workload generation through the cache manager, OSD target, stripe
//! manager, flash array, and backend.

use reo_repro::core::{
    CacheSystem, DeviceId, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig,
    SystemConfig,
};
use reo_repro::sim::ByteSize;
use reo_repro::workload::{Locality, Operation, Request, Trace, WorkloadSpec};

fn trace(requests: usize, write_ratio: f64, seed: u64) -> Trace {
    WorkloadSpec {
        objects: 150,
        mean_object_size: ByteSize::from_kib(256),
        size_sigma: 0.6,
        locality: Locality::Medium,
        requests,
        write_ratio,
        temporal_reuse: Locality::Medium.temporal_reuse(),
        reuse_window: 100,
    }
    .generate(seed)
}

fn system(scheme: SchemeConfig, t: &Trace, frac: f64) -> CacheSystem {
    let cache = t.summary().data_set_bytes.scale(frac);
    let config =
        SystemConfig::paper_defaults(scheme, cache).with_chunk_size(ByteSize::from_kib(32));
    let mut sys = CacheSystem::new(config);
    sys.populate(t.objects());
    sys
}

#[test]
fn all_six_schemes_run_the_same_trace() {
    let t = trace(1_000, 0.0, 1);
    for scheme in SchemeConfig::normal_run_set() {
        let mut sys = system(scheme, &t, 0.15);
        let result = ExperimentRunner::run(&mut sys, &t, &ExperimentPlan::normal_run());
        assert_eq!(result.totals.requests, 1_000, "{}", scheme.label());
        assert!(result.totals.hit_ratio_pct() > 0.0, "{}", scheme.label());
        assert!(result.totals.bandwidth_mib_s() > 0.0, "{}", scheme.label());
    }
}

#[test]
fn runs_are_deterministic_across_repetitions() {
    let t = trace(800, 0.2, 7);
    // The second plan is the eventful one: a warm-up pass, a device
    // failure answered by a spare, and periodic sampling.
    let plans = [
        ExperimentPlan::staggered_failures(200, 2),
        ExperimentPlan::staggered_failures(200, 1)
            .with_event(400, PlannedEvent::InsertSpare(DeviceId(0)))
            .with_sampling(150),
    ];
    let mut devices = Vec::new();
    for plan in &plans {
        // The whole result — totals, events, final window, series —
        // through its `Debug` form, which prints floats round-trip exact,
        // and what the run left in the metadata journal.
        let run = || {
            let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.12);
            let result = format!("{:?}", ExperimentRunner::run(&mut sys, &t, plan));
            let journal = sys.target().journal_stats().expect("journal attached");
            assert!(journal.appends > 0 && journal.flushes > 0);
            (
                result,
                journal,
                sys.target().journal_durable_bytes(),
                sys.device_stats(),
            )
        };
        let first = run();
        assert_eq!(
            first,
            run(),
            "same seed and plan must give identical results"
        );
        devices.push(first.3);
    }
    // What every device did, counter by counter, pinned from the code
    // that charged each chunk through its own device call: the per-device
    // run arithmetic must land on the same nanosecond. Re-pinned when fit
    // became one per-device rule checked before anything is written: the
    // writes of stores a device refused (a fifth of them) are gone.
    let counters = |plan: usize| -> Vec<[u64; 6]> {
        devices[plan]
            .iter()
            .map(|d| {
                let s = d.stats;
                [
                    s.reads,
                    s.writes,
                    s.bytes_read,
                    s.bytes_written,
                    s.queued_nanos,
                    s.busy_nanos,
                ]
            })
            .collect()
    };
    assert_eq!(
        counters(0),
        [
            [703, 2517, 20971055, 76116593, 1633596602, 809917309],
            [845, 3062, 25472457, 93265373, 2022065168, 985649085],
            [1202, 4499, 36643612, 136982633, 3036765860, 1443112698],
            [1208, 4504, 36389982, 136595377, 3035565092, 1443501752],
            [1171, 4497, 35824488, 136638722, 3032043732, 1437682612],
        ]
    );
    assert_eq!(
        counters(1),
        [
            [227, 1171, 6965855, 35610740, 780262828, 363082357],
            [1091, 4232, 32871084, 128987604, 2805561593, 1351241360],
            [1095, 4244, 33682145, 129352355, 2808140631, 1356468972],
            [1102, 4248, 32930243, 128591319, 2801523978, 1355055761],
            [1074, 4244, 32595503, 128945473, 2798916897, 1351760469],
        ]
    );
}

#[test]
fn parallel_sweep_matches_serial_cell_for_cell() {
    use reo_bench::parallel_map_ordered;

    // The sweep pool must be invisible in the results: every cell's
    // metrics identical to the serial loop, in the serial loop's order.
    let t = trace(600, 0.1, 11);
    let cells = [0.08, 0.12, 0.16];
    let run_cell = |_: usize, &frac: &f64| {
        let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, frac);
        let result = ExperimentRunner::run(&mut sys, &t, &ExperimentPlan::normal_run());
        (
            result.totals.read_hits,
            result.totals.requested_bytes,
            result.totals.elapsed,
            result.space_efficiency.to_bits(),
        )
    };
    let serial = parallel_map_ordered(&cells, 1, run_cell);
    for threads in [2, 8] {
        assert_eq!(
            parallel_map_ordered(&cells, threads, run_cell),
            serial,
            "threads={threads}"
        );
    }
}

#[test]
fn space_efficiency_anchors_match_the_paper() {
    // Section VI-B: 0-parity 100%, 1-parity 80%, 2-parity 60%,
    // full replication 20% on a five-device array.
    let t = trace(600, 0.0, 3);
    let cases = [
        (SchemeConfig::Parity(0), 1.00, 0.002),
        (SchemeConfig::Parity(1), 0.78, 0.04),
        (SchemeConfig::Parity(2), 0.585, 0.05),
        (SchemeConfig::FullReplication, 0.20, 0.01),
    ];
    for (scheme, expected, tol) in cases {
        let mut sys = system(scheme, &t, 0.15);
        for r in t.requests() {
            sys.handle(r);
        }
        let eff = sys.space_efficiency();
        assert!(
            (eff - expected).abs() <= tol,
            "{}: eff {eff} vs expected {expected}",
            scheme.label()
        );
    }
}

#[test]
fn uniform_caches_die_at_parity_plus_one_failures() {
    let t = trace(1_200, 0.0, 4);
    for (scheme, deadly) in [
        (SchemeConfig::Parity(0), 1usize),
        (SchemeConfig::Parity(1), 2),
        (SchemeConfig::Parity(2), 3),
    ] {
        let mut sys = system(scheme, &t, 0.15);
        for r in t.requests() {
            sys.handle(r);
        }
        for d in 0..deadly - 1 {
            sys.fail_device(DeviceId(d));
            assert!(
                !sys.is_offline(),
                "{} at {} failures",
                scheme.label(),
                d + 1
            );
        }
        sys.fail_device(DeviceId(deadly - 1));
        assert!(
            sys.is_offline(),
            "{} must be offline at {deadly} failures",
            scheme.label()
        );
    }
}

#[test]
fn reo_survives_to_the_last_device() {
    let t = trace(1_200, 0.1, 5);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.15);
    for r in t.requests() {
        sys.handle(r);
    }
    for d in 0..4 {
        sys.fail_device(DeviceId(d));
        assert!(!sys.is_offline());
    }
    // Still serving with one device: run more requests, dirty data intact.
    let now = sys.clock().now();
    sys.metrics_mut().reset_all(now);
    for r in t.requests().iter().take(300) {
        sys.handle(r);
    }
    assert_eq!(
        sys.dirty_data_lost(),
        0,
        "replicated dirty data must survive"
    );
    assert_eq!(sys.metrics().totals().requests, 300);
}

#[test]
fn write_back_preserves_every_update() {
    let t = trace(1_500, 0.4, 6);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.10 }, &t, 0.08);
    for r in t.requests() {
        sys.handle(r);
    }
    // Every write either sits dirty in cache (replicated) or has been
    // flushed to the backend. Summing flushes and cached-dirty objects
    // must cover all written objects.
    let backend_writes = sys.backend().stats().writes;
    assert!(
        backend_writes > 0,
        "small cache must have flushed on eviction"
    );
    assert_eq!(sys.dirty_data_lost(), 0);
    // Versions in the backend only move forward.
    for o in t.objects() {
        assert!(sys.backend().version_of(o.key).is_some());
    }
}

#[test]
fn degraded_operation_costs_show_up_in_latency() {
    let t = trace(1_000, 0.0, 8);
    let mut sys = system(SchemeConfig::Parity(2), &t, 0.30);
    for r in t.requests() {
        sys.handle(r);
    }
    // Healthy window: replay the tail of the trace (recently-touched
    // objects, so they are cached).
    let tail = &t.requests()[t.requests().len() - 200..];
    let now = sys.clock().now();
    sys.metrics_mut().reset_all(now);
    for r in tail {
        sys.handle(r);
    }
    let now = sys.clock().now();
    let healthy = sys.metrics_mut().roll_window(now);
    assert!(healthy.read_hits > 0, "tail replay must hit");

    // Fail a device and replay the very same requests: surviving cached
    // objects are now served through reconstruction.
    sys.fail_device(DeviceId(0));
    for r in tail {
        sys.handle(r);
    }
    let degraded = sys.metrics().window();
    assert!(
        degraded.degraded_reads > 0,
        "reconstruction must have happened"
    );
    assert!(
        degraded.mean_latency >= healthy.mean_latency,
        "degraded {} < healthy {}",
        degraded.mean_latency,
        healthy.mean_latency
    );
}

#[test]
fn recovery_drains_and_restores_service() {
    let t = trace(2_000, 0.0, 9);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.40 }, &t, 0.15);
    for r in t.requests() {
        sys.handle(r);
    }
    sys.fail_device(DeviceId(2));
    sys.insert_spare(DeviceId(2));
    let queued = sys.recovery_pending();
    assert!(queued > 0, "protected objects must be queued for rebuild");
    for r in t.requests() {
        sys.handle(r);
        if sys.recovery_pending() == 0 {
            break;
        }
    }
    assert_eq!(sys.recovery_pending(), 0, "recovery must drain");
}

#[test]
fn mixed_read_write_request_stream_stays_consistent() {
    let t = trace(2_500, 0.3, 10);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.10);
    let mut reads = 0u64;
    let mut writes = 0u64;
    for r in t.requests() {
        let outcome = sys.handle(r);
        match r.op {
            Operation::Read => reads += 1,
            Operation::Write => {
                writes += 1;
                assert!(!outcome.hit, "writes are absorbed, never counted as hits");
            }
        }
    }
    let totals = sys.metrics().totals();
    assert_eq!(totals.reads, reads);
    assert_eq!(totals.writes, writes);
    assert_eq!(totals.requests, reads + writes);
}

#[test]
fn request_outcome_latency_matches_metrics() {
    let t = trace(50, 0.0, 11);
    let mut sys = system(SchemeConfig::Parity(1), &t, 0.5);
    let r: &Request = &t.requests()[0];
    let miss = sys.handle(r);
    let hit = sys.handle(r);
    assert!(!miss.hit && hit.hit);
    assert!(miss.latency > hit.latency);
    assert_eq!(sys.metrics().totals().requests, 2);
    assert_eq!(sys.metrics().totals().read_hits, 1);
}
