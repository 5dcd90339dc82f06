//! Observability integration tests: the `reo-trace` per-layer span
//! recorder threaded through a full system, the per-class metric rows,
//! the interaction of fault counters with window rolling while the
//! background scrubber is running, causal trace trees across the
//! cluster, flight-recorder postmortems, and per-class SLO burn rates.

use reo_repro::core::{
    CacheSystem, ClusterSystem, ExperimentPlan, ExperimentRunner, PlannedEvent, SchemeConfig,
    SystemConfig, CLASS_LABELS,
};
use reo_repro::sim::{ByteSize, Layer, TraceTree};
use reo_repro::workload::{Locality, Trace, WorkloadSpec};

fn trace(requests: usize, write_ratio: f64, seed: u64) -> Trace {
    WorkloadSpec {
        objects: 120,
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
fn tracing_is_off_by_default_and_records_when_enabled() {
    let t = trace(400, 0.2, 21);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.15);
    for r in t.requests().iter().take(200) {
        sys.handle(r);
    }
    let b = sys.tracer().breakdown();
    assert_eq!(b.requests, 0, "disabled tracer must not count requests");
    assert!(b.layers.is_empty(), "disabled tracer must not record spans");

    sys.enable_tracing();
    for r in t.requests().iter().skip(200) {
        sys.handle(r);
    }
    let b = sys.tracer().breakdown();
    assert_eq!(b.requests, 200, "one traced request per handle()");
    for layer in [Layer::Cache, Layer::Target, Layer::Stripe, Layer::Flash] {
        assert!(
            b.layer(layer).is_some(),
            "layer {layer} must have recorded spans"
        );
    }
    // Cache spans bracket whole requests; they must dominate the nested
    // target path (the backend is not nested — its background-flush
    // spans cover disk occupancy beyond request completion). Exclusive
    // time can never exceed a layer's own inclusive time.
    let cache_total = b.layer(Layer::Cache).unwrap().total;
    assert!(cache_total >= b.layer(Layer::Target).unwrap().total);
    for layer in Layer::ALL {
        if let Some(row) = b.layer(layer) {
            assert!(b.exclusive(layer) <= row.total, "{layer}");
        }
    }
}

#[test]
fn per_class_rows_and_byte_split_accumulate() {
    let t = trace(1_200, 0.3, 22);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.12);
    for r in t.requests() {
        sys.handle(r);
    }
    let totals = sys.metrics().totals();
    assert!(!totals.classes.is_empty(), "class rows must accumulate");
    let class_requests: u64 = totals.classes.iter().map(|c| c.requests).sum();
    assert_eq!(
        class_requests, totals.requests,
        "every request lands in exactly one class row"
    );
    assert!(
        totals.classes.iter().any(|c| c.label == "dirty"),
        "a 30%-write run must attribute requests to the dirty class"
    );
    // The byte split: parity and replication make the flash move more
    // bytes than clients asked for on the write path.
    assert!(totals.requested_bytes > ByteSize::ZERO);
    assert!(totals.device_write_bytes > ByteSize::ZERO);
    assert!(
        totals.write_amplification() > 1.0,
        "redundancy amplifies writes"
    );
}

#[test]
fn fault_counters_roll_and_reset_with_scrubber_enabled() {
    let t = trace(1_500, 0.1, 23);
    let mut sys = system(SchemeConfig::Parity(2), &t, 0.25);
    for r in t.requests() {
        sys.handle(r);
    }
    sys.apply_event(PlannedEvent::StartScrub);
    sys.apply_event(PlannedEvent::CorruptChunks { ppm: 50_000 });
    assert!(
        !sys.target().array().all_chunks_intact(),
        "seeded corruption must land"
    );
    for r in t.requests() {
        sys.handle(r);
    }
    let totals = sys.metrics().totals();
    assert!(totals.scrub_passes > 0, "scrubber must complete passes");
    assert!(totals.medium_errors > 0, "corruption must surface");
    assert!(totals.repairs > 0, "2-parity damage must be repairable");

    // Rolling the event window hands back the accumulated fault counters
    // and starts a fresh window; the totals keep counting.
    let now = sys.clock().now();
    let rolled = sys.metrics_mut().roll_window(now);
    assert_eq!(rolled.medium_errors, totals.medium_errors);
    assert_eq!(rolled.repairs, totals.repairs);
    assert_eq!(rolled.scrub_passes, totals.scrub_passes);
    let fresh = sys.metrics().window();
    assert_eq!(fresh.medium_errors, 0);
    assert_eq!(fresh.repairs, 0);
    assert_eq!(fresh.requests, 0);
    assert_eq!(sys.metrics().totals().repairs, totals.repairs);

    // reset_all zeroes totals and window; the scrubber keeps running and
    // the counters accumulate again from zero (the delta cursor must not
    // double-count or underflow across the reset).
    let now = sys.clock().now();
    sys.metrics_mut().reset_all(now);
    assert_eq!(sys.metrics().totals().scrub_passes, 0);
    assert_eq!(sys.metrics().totals().medium_errors, 0);
    sys.apply_event(PlannedEvent::CorruptChunks { ppm: 50_000 });
    for r in t.requests() {
        sys.handle(r);
    }
    let after = sys.metrics().totals();
    assert!(after.scrub_passes > 0, "scrubber still runs after reset");
    assert!(
        after.scrub_passes < totals.scrub_passes + after.requests,
        "post-reset counters restart from zero, not from the old total"
    );
}

#[test]
fn scrubber_repairs_show_in_window_and_tracer_scrub_spans() {
    let t = trace(800, 0.0, 24);
    // The same traced run with the scrubber on and off; returns the
    // open window's repairs and the target layer's span count.
    let run = |scrubbing: bool| {
        let mut sys = system(SchemeConfig::Reo { reserve: 0.40 }, &t, 0.20);
        for r in t.requests() {
            sys.handle(r);
        }
        sys.enable_tracing();
        if scrubbing {
            sys.apply_event(PlannedEvent::StartScrub);
        }
        sys.apply_event(PlannedEvent::CorruptChunks { ppm: 80_000 });
        let now = sys.clock().now();
        sys.metrics_mut().reset_all(now);
        for r in t.requests() {
            sys.handle(r);
        }
        let target = sys
            .tracer()
            .breakdown()
            .layer(Layer::Target)
            .map(|l| l.spans);
        (sys.metrics().window().repairs, target.unwrap_or(0))
    };
    let (repairs, scrubbed) = run(true);
    assert!(repairs > 0, "scrubber repairs land in the open window");
    // Scrub steps run inside the target layer; with tracing on each is
    // one more target-layer span than the run without the scrubber has.
    let (_, unscrubbed) = run(false);
    assert!(
        scrubbed > unscrubbed,
        "scrub steps must be traced: {scrubbed} target spans vs {unscrubbed}"
    );
}

fn outage_cluster(seed: u64) -> (ClusterSystem, Vec<TraceTree>) {
    let t = trace(1_200, 0.2, seed);
    let cache = t.summary().data_set_bytes.scale(0.25);
    let config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache)
        .with_chunk_size(ByteSize::from_kib(32));
    let mut cluster = ClusterSystem::new(config, 4);
    cluster.enable_tracing();
    let n = t.requests().len();
    let plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(n / 3, PlannedEvent::FailTarget(1))
    .with_event(2 * n / 3, PlannedEvent::RestoreTarget(1));
    cluster.run(&t, &plan);
    let exemplars = cluster.tracer().exemplars();
    (cluster, exemplars)
}

/// Walks up the parent chain of `span` and returns the layers visited,
/// innermost first (excluding `span` itself).
fn ancestor_layers(tree: &TraceTree, span_id: u32) -> Vec<Layer> {
    let mut layers = Vec::new();
    let mut at = span_id;
    loop {
        let node = tree.spans.iter().find(|s| s.id == at).expect("known span");
        if node.parent == 0 {
            break;
        }
        at = node.parent;
        layers.push(
            tree.spans
                .iter()
                .find(|s| s.id == at)
                .expect("parent")
                .layer,
        );
    }
    layers
}

#[test]
fn degraded_exemplar_traces_causality_from_cluster_to_flash() {
    let (_, exemplars) = outage_cluster(41);
    let sense_coded: Vec<&TraceTree> = exemplars.iter().filter(|t| t.sense.is_some()).collect();
    assert!(
        !sense_coded.is_empty(),
        "the outage window must retain sense-coded exemplars"
    );
    // Every exemplar roots at the placement layer (cluster entry).
    for tree in &exemplars {
        let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "one root per request tree");
        assert_eq!(roots[0].layer, Layer::Placement, "cluster entry roots");
    }
    // At least one exemplar shows the full causal path: a flash or
    // backend leaf whose ancestry climbs stripe → target → cache →
    // placement (backend leaves hang directly under cache).
    let full_path = exemplars.iter().any(|tree| {
        tree.spans.iter().any(|s| {
            let above = ancestor_layers(tree, s.id);
            s.layer == Layer::Flash
                && above.contains(&Layer::Stripe)
                && above.contains(&Layer::Target)
                && above.contains(&Layer::Cache)
                && above.contains(&Layer::Placement)
        })
    });
    assert!(
        full_path,
        "an exemplar must trace placement → cache → target → stripe → flash"
    );
    // Degraded service leaves its mark: some sense-coded exemplar either
    // served from the backend or carries an outage annotation.
    let degraded_visible = sense_coded.iter().any(|tree| {
        tree.spans.iter().any(|s| s.layer == Layer::Backend)
            || tree.annotations.iter().any(|a| a.label == "outage-serve")
    });
    assert!(
        degraded_visible,
        "degraded exemplars must show the alternate serving path"
    );
}

#[test]
fn same_seed_runs_retain_identical_exemplars_and_postmortems() {
    let (cluster_a, exemplars_a) = outage_cluster(43);
    let (cluster_b, exemplars_b) = outage_cluster(43);
    assert_eq!(
        exemplars_a, exemplars_b,
        "trace trees must replay identically for the same seed"
    );
    assert_eq!(
        cluster_a.flight().postmortems(),
        cluster_b.flight().postmortems(),
        "postmortem event sequences must replay identically for the same seed"
    );
    assert!(!cluster_a.flight().postmortems().is_empty());
}

#[test]
fn slo_snapshot_tracks_burn_rates_per_class() {
    let t = trace(1_500, 0.3, 25);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.12);
    for r in t.requests() {
        sys.handle(r);
    }
    let totals = sys.metrics().totals();
    assert!(!totals.slos.is_empty(), "active classes export SLO rows");
    let mut last_slot = 0;
    for slo in &totals.slos {
        let slot = CLASS_LABELS
            .iter()
            .position(|&l| l == slo.class)
            .expect("known class label");
        assert!(slot >= last_slot, "SLO rows keep CLASS_LABELS order");
        last_slot = slot;
        assert!(slo.requests > 0, "only active classes appear");
        assert!((0.0..=100.0).contains(&slo.latency_compliance_pct()));
        assert!((0.0..=100.0).contains(&slo.availability_pct()));
        assert!(slo.latency_burn_fast() >= 0.0);
        assert!(slo.availability_burn_slow() >= 0.0);
    }
    let slo_requests: u64 = totals.slos.iter().map(|s| s.requests).sum();
    assert_eq!(
        slo_requests, totals.requests,
        "every request lands in exactly one SLO class"
    );
}

/// The exporter's emitter and validator walk the same field tables; this
/// is the tier-1 guard that they still agree on a real traced run.
#[test]
fn traced_run_exports_jsonl_the_validator_accepts() {
    use reo_bench::export;
    let t = trace(600, 0.2, 27);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.15);
    sys.enable_tracing();
    let plan = ExperimentPlan::normal_run().with_sampling(200);
    let result = ExperimentRunner::run(&mut sys, &t, &plan);
    let report = export::collect_run_report("tier1", "Reo-20%", &sys, &result);
    let text = export::jsonl(&report);
    let summary = export::validate_jsonl(&text).expect("own output must validate");
    assert_eq!(summary.schema_version, export::SCHEMA_VERSION);
    assert_eq!(summary.records, text.lines().count());
    for kind in ["class", "layer", "device", "series", "slo", "trace"] {
        assert!(summary.kinds.contains_key(kind), "no `{kind}` record");
    }
}

/// What a planned run *measures*, pinned: totals, every event window and
/// every sampling point of one small run that crosses each kind of
/// interval boundary (failures, a spare, a crash with journal replay,
/// corruption under a running scrubber). The hash was recorded before
/// windows and samples became subtractions from one accumulator, and
/// re-recorded when fit became one per-device rule checked before anything
/// is written (refused stores no longer charge device time); a moved hash
/// means an interval reports something else.
#[test]
fn planned_run_windows_and_series_are_pinned() {
    use reo_repro::flashsim::DeviceId;
    use std::hash::Hasher as _;

    let t = trace(1_200, 0.3, 29);
    let mut sys = system(SchemeConfig::Reo { reserve: 0.20 }, &t, 0.15);
    let plan = ExperimentPlan::staggered_failures(300, 2)
        .with_event(0, PlannedEvent::StartScrub)
        .with_event(150, PlannedEvent::CorruptChunks { ppm: 40_000 })
        .with_event(450, PlannedEvent::InsertSpare(DeviceId(0)))
        .with_event(750, PlannedEvent::Crash)
        .with_sampling(100);
    let result = ExperimentRunner::run(&mut sys, &t, &plan);
    assert_eq!((result.windows().len(), result.series.len()), (7, 12));
    assert!(result.totals.scrub_passes > 0 && result.totals.replayed_records > 0);

    let observed = format!("{:?}", (&result.totals, result.windows(), &result.series));
    let mut hasher = reo_repro::sim::FastHasher::default();
    hasher.write(observed.as_bytes());
    let hash = hasher.finish();
    assert_eq!(hash, 0x2d1451937eeebf19, "observed {hash:#018x}");
}
