//! The shared run-report exporter: one schema for every experiment
//! binary.
//!
//! A [`RunReport`] bundles everything one experiment run measured — the
//! request totals with their per-class rows, the `reo-trace` per-layer
//! latency breakdown, the per-device table of the flash array, the cache
//! manager's policy counters, and the windowed time series — and renders
//! it two ways:
//!
//! * [`jsonl`] — machine-readable JSON lines, one record per line, each
//!   tagged with a `kind` field (`meta`, `totals`, `class`, `layer`,
//!   `device`, `cache`, `resilience`, `perf`, `placement`, `series`,
//!   `slo`, `trace`, `postmortem`). The
//!   first line is always the `meta` record carrying [`SCHEMA_VERSION`];
//!   [`validate_jsonl`] checks a document against this schema — accepting
//!   [`MIN_SCHEMA_VERSION`] through current, and flagging unknown fields
//!   with a line number — (the CI smoke jobs run it on
//!   real experiment outputs and the committed perf baseline).
//! * [`render_summary`] — the aligned human tables the binaries print.
//!
//! Latencies are exported in milliseconds, byte volumes in MiB; raw
//! counters stay counts.

use std::collections::BTreeMap;
use std::io::Write as _;

use reo_core::{
    CacheSystem, ClusterRunResult, ClusterSystem, DeviceId, DeviceReport, ExperimentResult,
    MetricsSnapshot, SloSnapshot, TargetMetricsRow, TimeSeriesPoint,
};
use reo_sim::{Layer, Postmortem, TraceBreakdown, TraceTree};
use serde::{DeError, Deserialize, Serialize, Value};

/// Version stamp of the JSON-lines schema; bumped whenever a record kind
/// gains, loses, or renames a field. v2 added the crash-consistency
/// counters (`journal_appends`, `checkpoint_count`, `replayed_records`,
/// `torn_tail_detected`, `recovery_duration_us`) to `totals`/`series`.
/// v3 added the singleton `resilience` record (health machine, degraded
/// service counters, rebuild-throttle activity, per-class
/// time-to-restored-redundancy). v4 added the optional repeated `perf`
/// record (one microbenchmark measurement per line, emitted by the
/// `perfbench` binary). v5 added the optional repeated `placement`
/// record (one per cluster target, emitted by scale-out runs) plus the
/// `internal_errors` counter and `rejected_events_by_reason` breakdown
/// on `resilience`. v6 added the observability records: repeated `slo`
/// (one per redundancy class with multi-window burn rates), repeated
/// `trace` (one retained exemplar trace tree per line, spans nested as
/// an id-keyed map), and repeated `postmortem` (one flight-recorder
/// dump per line, events keyed by sequence number). v7 added the
/// optional singleton `replication` record (cross-target replication
/// policy and counters, emitted by cluster runs with a replication
/// policy), `served_by_replica` on `totals`, and `replica_serves` on
/// `placement` rows. v8 added the optional singleton `parity_group`
/// record (erasure-coded cross-target protection: group geometry,
/// degraded-serve / repair counters, per-class time-to-restored-
/// redundancy, and the flash overhead split), `served_by_parity` on
/// `totals`, and `parity_serves` on `placement` rows. v9 added a
/// diagnostic `shard` record kind that was later removed with the code
/// that emitted it; the number is not reused, so v9 is v8's record
/// set.
pub const SCHEMA_VERSION: u64 = 9;

/// Oldest schema version [`validate_jsonl`] still accepts: v5 through
/// v9 only add record kinds and fields, so v4 documents (e.g. the
/// committed perf baseline) remain valid.
pub const MIN_SCHEMA_VERSION: u64 = 4;

/// The record kinds a JSON-lines document may contain.
pub const RECORD_KINDS: [&str; 15] = [
    "meta",
    "totals",
    "class",
    "layer",
    "device",
    "cache",
    "resilience",
    "perf",
    "placement",
    "series",
    "slo",
    "trace",
    "postmortem",
    "replication",
    "parity_group",
];

/// Everything one run exports (see the module docs).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The experiment that produced the run, e.g. `"normal_run"`.
    pub experiment: String,
    /// The protection scheme label, e.g. `"Reo-20%"`.
    pub scheme: String,
    /// Request totals over the measured pass, with per-class rows.
    pub totals: MetricsSnapshot,
    /// Per-layer latency breakdown (empty when tracing was off).
    pub breakdown: TraceBreakdown,
    /// Per-device rows of the flash array.
    pub devices: Vec<DeviceReport>,
    /// Cache-manager policy counters.
    pub cache: reo_cache::CacheStats,
    /// Health machine, degraded-mode, and rebuild-QoS counters.
    pub resilience: reo_core::ResilienceSnapshot,
    /// Periodic samples (empty unless the plan set `sample_every`).
    pub series: Vec<TimeSeriesPoint>,
    /// Space efficiency at the end of the run.
    pub space_efficiency: f64,
    /// Microbenchmark measurements (empty except for `perfbench` runs).
    pub perf: Vec<PerfPoint>,
    /// Retained exemplar trace trees — every sense-coded request plus
    /// the slowest-percentile requests (empty when tracing was off).
    pub exemplars: Vec<reo_sim::TraceTree>,
    /// Flight-recorder post-mortem dumps (empty on clean runs).
    pub postmortems: Vec<reo_sim::Postmortem>,
    /// Cross-target replication counters (`None` on single-target runs
    /// and clusters without a replication policy — the record is then
    /// omitted entirely, keeping pre-v7 documents byte-identical).
    pub replication: Option<ReplicationReport>,
    /// Cross-target parity-group counters (`None` on single-target
    /// runs and clusters without a parity policy — the record is then
    /// omitted entirely, keeping pre-v8 documents byte-identical).
    pub parity: Option<ParityGroupReport>,
}

/// The schema-v7 `replication` record: the active policy plus the
/// cluster's replication counters.
#[derive(Clone, Debug, PartialEq)]
pub struct ReplicationReport {
    /// Largest per-class copy count of the policy.
    pub max_factor: u64,
    /// Per-class copy counts `[metadata, dirty, hot_clean, cold_clean]`.
    pub factors: [u64; 4],
    /// The cluster's cumulative replication counters.
    pub counters: reo_core::ReplicationSnapshot,
}

/// The schema-v8 `parity_group` record: the active group geometry, the
/// cluster's parity counters, and the end-of-run flash overhead split.
#[derive(Clone, Debug, PartialEq)]
pub struct ParityGroupReport {
    /// Data shards per group (`k`).
    pub data_shards: u64,
    /// Parity shards per group (`m` — the outage tolerance).
    pub parity_shards: u64,
    /// The cluster's cumulative parity counters.
    pub counters: reo_core::ParityGroupSnapshot,
    /// End-of-run flash usage split (primary / replica / parity bytes).
    pub overhead: reo_core::FlashOverheadReport,
}

/// One microbenchmark measurement, exported as a `perf` record.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfPoint {
    /// Benchmark name, e.g. `"erasure_encode"`.
    pub bench: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`, e.g. `"GiB/s"` or `"req/s"`.
    pub unit: String,
}

/// Gathers a [`RunReport`] from a finished system and its experiment
/// result.
pub fn collect_run_report(
    experiment: &str,
    scheme: &str,
    system: &CacheSystem,
    result: &ExperimentResult,
) -> RunReport {
    RunReport {
        experiment: experiment.to_string(),
        scheme: scheme.to_string(),
        totals: result.totals.clone(),
        breakdown: system.tracer().breakdown(),
        devices: system.device_stats(),
        cache: system.cache_stats(),
        resilience: system.resilience(),
        series: result.series.clone(),
        space_efficiency: result.space_efficiency,
        perf: Vec::new(),
        exemplars: system.tracer().exemplars(),
        postmortems: system.flight().postmortems(),
        replication: None,
        parity: None,
    }
}

/// Gathers a [`RunReport`] from a finished cluster and its run result:
/// per-target rows ride in [`MetricsSnapshot::targets`] (exported as
/// `placement` records), node counters are summed (device rows get
/// global ids, `devices_per_node * target + local`), and the
/// `resilience` record carries the cluster-level view — health label,
/// summed degraded-service counters, merged rejection breakdown, and
/// the worst per-class time-to-restored-redundancy.
pub fn collect_cluster_report(
    experiment: &str,
    scheme: &str,
    cluster: &ClusterSystem,
    result: &ClusterRunResult,
) -> RunReport {
    let per_node = cluster.config().devices;
    let mut devices = Vec::new();
    let mut cache = reo_cache::CacheStats::default();
    let mut resilience = reo_core::ResilienceSnapshot {
        health: result.health.clone(),
        health_transitions: 0,
        shed_requests: 0,
        write_throughs: 0,
        bypassed_fills: 0,
        rejected_events: result.rejected_events,
        rejected_events_by_reason: Vec::new(),
        internal_errors: 0,
        throttle_stalls: result.migration_stalls,
        rebuild_throttle_bytes: result.migration_throttle_bytes,
        ttr_us: [-1; 4],
    };
    let mut by_reason: BTreeMap<String, u64> =
        result.rejected_events_by_reason.iter().cloned().collect();
    let mut efficiency = 0.0;
    for t in 0..cluster.targets_created() {
        let node = cluster.node(t);
        for mut d in node.device_stats() {
            d.id = DeviceId(per_node * t + d.id.0);
            devices.push(d);
        }
        let c = node.cache_stats();
        cache.admissions += c.admissions;
        cache.refreshes += c.refreshes;
        cache.removals += c.removals;
        cache.promotions += c.promotions;
        cache.demotions += c.demotions;
        cache.write_throughs += c.write_throughs;
        cache.bypassed_fills += c.bypassed_fills;
        cache.replica_refreshes += c.replica_refreshes;
        let r = node.resilience();
        resilience.health_transitions += r.health_transitions;
        resilience.shed_requests += r.shed_requests;
        resilience.write_throughs += r.write_throughs;
        resilience.bypassed_fills += r.bypassed_fills;
        resilience.rejected_events += r.rejected_events;
        resilience.internal_errors += r.internal_errors;
        resilience.throttle_stalls += r.throttle_stalls;
        resilience.rebuild_throttle_bytes += r.rebuild_throttle_bytes;
        for (reason, count) in r.rejected_events_by_reason {
            *by_reason.entry(reason).or_default() += count;
        }
        for (slot, us) in resilience.ttr_us.iter_mut().zip(r.ttr_us) {
            *slot = (*slot).max(us);
        }
        efficiency += node.space_efficiency();
    }
    resilience.rejected_events_by_reason = by_reason.into_iter().collect();
    RunReport {
        experiment: experiment.to_string(),
        scheme: scheme.to_string(),
        totals: result.totals.clone(),
        breakdown: cluster.tracer().breakdown(),
        devices,
        cache,
        resilience,
        series: Vec::new(),
        space_efficiency: efficiency / cluster.targets_created().max(1) as f64,
        perf: Vec::new(),
        exemplars: cluster.tracer().exemplars(),
        postmortems: cluster.flight().postmortems(),
        replication: {
            let policy = cluster.replication_policy();
            policy.enabled().then(|| ReplicationReport {
                max_factor: policy.max_factor() as u64,
                factors: [
                    policy.metadata as u64,
                    policy.dirty as u64,
                    policy.hot_clean as u64,
                    policy.cold_clean as u64,
                ],
                counters: result.replication,
            })
        },
        parity: {
            let policy = cluster.parity_policy();
            policy.enabled().then(|| ParityGroupReport {
                data_shards: policy.data as u64,
                parity_shards: policy.parity as u64,
                counters: result.parity,
                overhead: result.flash_overhead,
            })
        },
    }
}

// ---- value plumbing ----------------------------------------------------

/// A raw value tree; lets the exporter hand-build records (a `kind`
/// discriminator plus flat fields) without a struct per record kind.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Raw(v.clone()))
    }
}

fn rec(kind: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut entries = vec![("kind".to_string(), Value::Str(kind.to_string()))];
    entries.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
    Value::Map(entries)
}

fn u(v: u64) -> Value {
    Value::U(v as u128)
}

fn i(v: i64) -> Value {
    Value::I(v as i128)
}

fn f(v: f64) -> Value {
    Value::F(v)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

// ---- JSON-lines rendering ----------------------------------------------

fn totals_fields(snap: &MetricsSnapshot) -> Vec<(&'static str, Value)> {
    vec![
        ("requests", u(snap.requests)),
        ("reads", u(snap.reads)),
        ("read_hits", u(snap.read_hits)),
        ("hit_ratio_pct", f(snap.hit_ratio_pct())),
        ("writes", u(snap.writes)),
        ("degraded_reads", u(snap.degraded_reads)),
        ("requested_mib", f(snap.requested_bytes.as_mib_f64())),
        ("device_mib", f(snap.device_bytes.as_mib_f64())),
        ("backend_mib", f(snap.backend_bytes.as_mib_f64())),
        ("amplification", f(snap.amplification())),
        ("write_amplification", f(snap.write_amplification())),
        ("read_amplification", f(snap.read_amplification())),
        ("bandwidth_mib_s", f(snap.bandwidth_mib_s())),
        ("mean_latency_ms", f(snap.mean_latency_ms())),
        ("p99_latency_ms", f(snap.p99_latency.as_millis_f64())),
        ("medium_errors", u(snap.medium_errors)),
        ("repairs", u(snap.repairs)),
        ("scrub_passes", u(snap.scrub_passes)),
        ("unrecoverable_fallbacks", u(snap.unrecoverable_fallbacks)),
        ("journal_appends", u(snap.journal_appends)),
        ("checkpoint_count", u(snap.checkpoint_count)),
        ("replayed_records", u(snap.replayed_records)),
        ("torn_tail_detected", u(snap.torn_tail_detected)),
        ("recovery_duration_us", u(snap.recovery_duration_us)),
        ("served_by_replica", u(snap.served_by_replica)),
        ("served_by_parity", u(snap.served_by_parity)),
    ]
}

fn placement_fields(row: &TargetMetricsRow) -> Vec<(&'static str, Value)> {
    vec![
        ("target", u(row.target as u64)),
        ("health", s(&row.health)),
        ("requests", u(row.requests)),
        ("reads", u(row.reads)),
        ("read_hits", u(row.read_hits)),
        ("hit_ratio_pct", f(row.hit_ratio_pct())),
        ("degraded_reads", u(row.degraded_reads)),
        ("shed_requests", u(row.shed_requests)),
        ("outages", u(row.outages)),
        ("rebuild_window_us", i(row.rebuild_window_us)),
        ("migrated_in", u(row.migrated_in)),
        ("migrated_out", u(row.migrated_out)),
        ("replica_serves", u(row.replica_serves)),
        ("parity_serves", u(row.parity_serves)),
        (
            "sense_mix",
            Value::Map(
                row.sense_mix
                    .iter()
                    .map(|(label, count)| (label.clone(), u(*count)))
                    .collect(),
            ),
        ),
    ]
}

fn slo_fields(row: &SloSnapshot) -> Vec<(&'static str, Value)> {
    vec![
        ("class", s(row.class)),
        ("requests", u(row.requests)),
        (
            "latency_threshold_ms",
            f(row.latency_threshold.as_millis_f64()),
        ),
        ("latency_target_pct", f(row.latency_target_pct)),
        ("availability_target_pct", f(row.availability_target_pct)),
        ("latency_compliance_pct", f(row.latency_compliance_pct())),
        ("availability_pct", f(row.availability_pct())),
        ("latency_burn_fast", f(row.latency_burn_fast())),
        ("latency_burn_slow", f(row.latency_burn_slow())),
        ("availability_burn_fast", f(row.availability_burn_fast())),
        ("availability_burn_slow", f(row.availability_burn_slow())),
        ("latency_breaches", u(row.latency_breaches)),
        ("errors", u(row.errors)),
    ]
}

/// One exemplar trace tree as a `trace` record. The vendored JSON value
/// tree has no array type, so spans nest as a map keyed by the (1-based,
/// zero-padded) span id — key order is span order — and annotations by
/// their index.
fn trace_record(tree: &TraceTree) -> Value {
    let spans = Value::Map(
        tree.spans
            .iter()
            .map(|span| {
                (
                    format!("{:03}", span.id),
                    Value::Map(vec![
                        ("parent".to_string(), u(span.parent as u64)),
                        ("layer".to_string(), s(span.layer.as_str())),
                        ("op".to_string(), s(span.op)),
                        ("start_ms".to_string(), f(span.start.as_secs_f64() * 1e3)),
                        ("end_ms".to_string(), f(span.end.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect(),
    );
    let annotations = Value::Map(
        tree.annotations
            .iter()
            .enumerate()
            .map(|(i, a)| {
                (
                    format!("{i:03}"),
                    Value::Map(vec![
                        ("label".to_string(), s(a.label)),
                        ("at_ms".to_string(), f(a.at.as_secs_f64() * 1e3)),
                    ]),
                )
            })
            .collect(),
    );
    rec(
        "trace",
        vec![
            ("trace_id", u(tree.trace_id)),
            ("reason", s(tree.reason)),
            ("sense", s(tree.sense.unwrap_or("success"))),
            ("latency_ms", f(tree.latency.as_millis_f64())),
            ("span_count", u(tree.spans.len() as u64)),
            ("truncated_spans", u(tree.truncated_spans)),
            ("spans", spans),
            ("annotations", annotations),
        ],
    )
}

/// One flight-recorder dump as a `postmortem` record; events nest as a
/// map keyed by their (zero-padded) sequence number, oldest first.
fn postmortem_record(pm: &Postmortem) -> Value {
    let events = Value::Map(
        pm.events
            .iter()
            .map(|e| {
                (
                    format!("{:06}", e.seq),
                    Value::Map(vec![
                        ("at_ms".to_string(), f(e.at.as_secs_f64() * 1e3)),
                        ("target".to_string(), i(e.target)),
                        ("event".to_string(), s(e.kind)),
                        ("detail".to_string(), s(&e.detail)),
                    ]),
                )
            })
            .collect(),
    );
    rec(
        "postmortem",
        vec![
            ("at_ms", f(pm.at.as_secs_f64() * 1e3)),
            ("target", i(pm.target)),
            ("trigger", s(&pm.trigger)),
            ("dropped_events", u(pm.dropped_events)),
            ("event_count", u(pm.events.len() as u64)),
            ("events", events),
        ],
    )
}

fn records(report: &RunReport) -> Vec<Value> {
    let mut out = Vec::new();
    out.push(rec(
        "meta",
        vec![
            ("schema_version", u(SCHEMA_VERSION)),
            ("experiment", s(&report.experiment)),
            ("scheme", s(&report.scheme)),
            ("requests", u(report.totals.requests)),
            ("traced_requests", u(report.breakdown.requests)),
            ("space_efficiency_pct", f(100.0 * report.space_efficiency)),
        ],
    ));
    out.push(rec("totals", totals_fields(&report.totals)));
    for class in &report.totals.classes {
        out.push(rec(
            "class",
            vec![
                ("class", s(class.label)),
                ("requests", u(class.requests)),
                ("reads", u(class.reads)),
                ("read_hits", u(class.read_hits)),
                ("hit_ratio_pct", f(class.hit_ratio_pct())),
                ("writes", u(class.writes)),
                ("degraded_reads", u(class.degraded_reads)),
                ("requested_mib", f(class.requested_bytes.as_mib_f64())),
                ("mean_latency_ms", f(class.mean_latency.as_millis_f64())),
                ("p99_latency_ms", f(class.p99_latency.as_millis_f64())),
            ],
        ));
    }
    for layer in &report.breakdown.layers {
        out.push(rec(
            "layer",
            vec![
                ("layer", s(layer.layer.as_str())),
                ("spans", u(layer.spans)),
                ("total_ms", f(layer.total.as_millis_f64())),
                (
                    "exclusive_ms",
                    f(report.breakdown.exclusive(layer.layer).as_millis_f64()),
                ),
                ("mean_ms", f(layer.mean.as_millis_f64())),
                ("p99_ms", f(layer.p99.as_millis_f64())),
            ],
        ));
    }
    for d in &report.devices {
        out.push(rec(
            "device",
            vec![
                ("device", u(d.id.0 as u64)),
                ("healthy", Value::Bool(d.healthy)),
                ("wear_pct", f(100.0 * d.wear)),
                ("used_mib", f(d.used.as_mib_f64())),
                ("reads", u(d.stats.reads)),
                ("writes", u(d.stats.writes)),
                ("read_mib", f(d.stats.bytes_read as f64 / (1024.0 * 1024.0))),
                (
                    "written_mib",
                    f(d.stats.bytes_written as f64 / (1024.0 * 1024.0)),
                ),
                ("erases", u(d.stats.erases_estimated)),
                (
                    "mean_queue_delay_ms",
                    f(d.stats.mean_queue_delay().as_millis_f64()),
                ),
                (
                    "mean_service_time_ms",
                    f(d.stats.mean_service_time().as_millis_f64()),
                ),
                ("transient_timeouts", u(d.stats.transient_timeouts)),
            ],
        ));
    }
    out.push(rec(
        "cache",
        vec![
            ("admissions", u(report.cache.admissions)),
            ("refreshes", u(report.cache.refreshes)),
            ("removals", u(report.cache.removals)),
            ("promotions", u(report.cache.promotions)),
            ("demotions", u(report.cache.demotions)),
            ("replica_refreshes", u(report.cache.replica_refreshes)),
        ],
    ));
    let r = &report.resilience;
    out.push(rec(
        "resilience",
        vec![
            ("health", s(&r.health)),
            ("health_transitions", u(r.health_transitions)),
            ("shed_requests", u(r.shed_requests)),
            ("write_throughs", u(r.write_throughs)),
            ("bypassed_fills", u(r.bypassed_fills)),
            ("rejected_events", u(r.rejected_events)),
            ("throttle_stalls", u(r.throttle_stalls)),
            ("rebuild_throttle_bytes", u(r.rebuild_throttle_bytes)),
            ("ttr_metadata_us", i(r.ttr_us[0])),
            ("ttr_dirty_us", i(r.ttr_us[1])),
            ("ttr_hot_clean_us", i(r.ttr_us[2])),
            ("ttr_cold_clean_us", i(r.ttr_us[3])),
            ("internal_errors", u(r.internal_errors)),
            (
                "rejected_events_by_reason",
                Value::Map(
                    r.rejected_events_by_reason
                        .iter()
                        .map(|(reason, count)| (reason.clone(), u(*count)))
                        .collect(),
                ),
            ),
        ],
    ));
    for row in &report.totals.targets {
        out.push(rec("placement", placement_fields(row)));
    }
    for p in &report.perf {
        out.push(rec(
            "perf",
            vec![
                ("bench", s(&p.bench)),
                ("value", f(p.value)),
                ("unit", s(&p.unit)),
            ],
        ));
    }
    for point in &report.series {
        let mut fields = vec![
            ("at_request", u(point.at_request as u64)),
            ("time_ms", f(point.time.as_secs_f64() * 1e3)),
        ];
        fields.extend(totals_fields(&point.window));
        out.push(rec("series", fields));
    }
    for row in &report.totals.slos {
        out.push(rec("slo", slo_fields(row)));
    }
    for tree in &report.exemplars {
        out.push(trace_record(tree));
    }
    for pm in &report.postmortems {
        out.push(postmortem_record(pm));
    }
    if let Some(repl) = &report.replication {
        let c = &repl.counters;
        out.push(rec(
            "replication",
            vec![
                ("max_factor", u(repl.max_factor)),
                ("factor_metadata", u(repl.factors[0])),
                ("factor_dirty", u(repl.factors[1])),
                ("factor_hot_clean", u(repl.factors[2])),
                ("factor_cold_clean", u(repl.factors[3])),
                ("replica_serves", u(c.replica_serves)),
                ("fanout_writes", u(c.fanout_writes)),
                ("fanout_refreshes", u(c.fanout_refreshes)),
                ("divergences_injected", u(c.divergences_injected)),
                ("divergences_detected", u(c.divergences_detected)),
                ("divergences_repaired", u(c.divergences_repaired)),
                ("anti_entropy_passes", u(c.anti_entropy_passes)),
                ("failbacks_completed", u(c.failbacks_completed)),
            ],
        ));
    }
    if let Some(pg) = &report.parity {
        let c = &pg.counters;
        let o = &pg.overhead;
        out.push(rec(
            "parity_group",
            vec![
                ("data_shards", u(pg.data_shards)),
                ("parity_shards", u(pg.parity_shards)),
                ("parity_serves", u(c.parity_serves)),
                ("stripe_updates", u(c.stripe_updates)),
                ("coverage_invalidations", u(c.coverage_invalidations)),
                (
                    "reconstructed_mib",
                    f(c.reconstructed_bytes as f64 / (1024.0 * 1024.0)),
                ),
                ("repair_warms", u(c.repair_warms)),
                ("repairs_completed", u(c.repairs_completed)),
                ("beyond_tolerance_serves", u(c.beyond_tolerance_serves)),
                ("ttr_metadata_us", i(c.ttr_us[0])),
                ("ttr_dirty_us", i(c.ttr_us[1])),
                ("ttr_hot_clean_us", i(c.ttr_us[2])),
                ("ttr_cold_clean_us", i(c.ttr_us[3])),
                ("primary_mib", f(o.primary_bytes as f64 / (1024.0 * 1024.0))),
                ("replica_mib", f(o.replica_bytes as f64 / (1024.0 * 1024.0))),
                ("parity_mib", f(o.parity_bytes as f64 / (1024.0 * 1024.0))),
                ("overhead_pct", f(100.0 * o.overhead_fraction())),
            ],
        ));
    }
    out
}

/// Renders the report as JSON lines (one record per line, `meta` first,
/// trailing newline).
pub fn jsonl(report: &RunReport) -> String {
    let mut out = String::new();
    for record in records(report) {
        out.push_str(&serde_json::to_string(&Raw(record)).expect("jsonl serialize"));
        out.push('\n');
    }
    out
}

/// Writes the report's JSON lines to `results/{name}.jsonl`.
pub fn write_jsonl(name: &str, report: &RunReport) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    match std::fs::File::create(&path) {
        Ok(mut file) => {
            if file.write_all(jsonl(report).as_bytes()).is_ok() {
                println!("\n[trace report written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

// ---- validation --------------------------------------------------------

/// What [`validate_jsonl`] found in a valid document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JsonlSummary {
    /// Total records.
    pub records: usize,
    /// The document's declared schema version (from its `meta` record).
    pub schema_version: u64,
    /// Record count per kind.
    pub kinds: BTreeMap<String, usize>,
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn require_number(map: &[(String, Value)], key: &str, line: usize) -> Result<(), String> {
    match get(map, key) {
        Some(Value::U(_) | Value::I(_) | Value::F(_)) => Ok(()),
        Some(other) => Err(format!(
            "line {line}: field `{key}` is not a number ({other:?})"
        )),
        None => Err(format!("line {line}: missing field `{key}`")),
    }
}

fn require_string(map: &[(String, Value)], key: &str, line: usize) -> Result<(), String> {
    match get(map, key) {
        Some(Value::Str(_)) => Ok(()),
        Some(_) => Err(format!("line {line}: field `{key}` is not a string")),
        None => Err(format!("line {line}: missing field `{key}`")),
    }
}

/// Numeric fields every record of a kind must carry (strings checked
/// separately).
fn required_numbers(kind: &str) -> &'static [&'static str] {
    match kind {
        "meta" => &["schema_version", "requests", "space_efficiency_pct"],
        "totals" | "series" => &[
            "requests",
            "reads",
            "read_hits",
            "hit_ratio_pct",
            "requested_mib",
            "device_mib",
            "amplification",
            "write_amplification",
            "mean_latency_ms",
            "p99_latency_ms",
            "journal_appends",
            "checkpoint_count",
            "replayed_records",
            "torn_tail_detected",
            "recovery_duration_us",
        ],
        "class" => &["requests", "reads", "hit_ratio_pct", "p99_latency_ms"],
        "layer" => &["spans", "total_ms", "exclusive_ms", "mean_ms", "p99_ms"],
        "device" => &["device", "wear_pct", "reads", "writes", "erases"],
        "cache" => &[
            "admissions",
            "refreshes",
            "removals",
            "promotions",
            "demotions",
        ],
        "resilience" => &[
            "health_transitions",
            "shed_requests",
            "write_throughs",
            "bypassed_fills",
            "rejected_events",
            "throttle_stalls",
            "rebuild_throttle_bytes",
            "ttr_metadata_us",
            "ttr_dirty_us",
            "ttr_hot_clean_us",
            "ttr_cold_clean_us",
        ],
        "perf" => &["value"],
        "placement" => &[
            "target",
            "requests",
            "reads",
            "read_hits",
            "hit_ratio_pct",
            "degraded_reads",
            "shed_requests",
            "outages",
            "rebuild_window_us",
            "migrated_in",
            "migrated_out",
        ],
        "slo" => &[
            "requests",
            "latency_threshold_ms",
            "latency_target_pct",
            "availability_target_pct",
            "latency_compliance_pct",
            "availability_pct",
            "latency_burn_fast",
            "latency_burn_slow",
            "availability_burn_fast",
            "availability_burn_slow",
            "latency_breaches",
            "errors",
        ],
        "trace" => &["trace_id", "latency_ms", "span_count", "truncated_spans"],
        "postmortem" => &["at_ms", "target", "dropped_events", "event_count"],
        "replication" => &[
            "max_factor",
            "factor_metadata",
            "factor_dirty",
            "factor_hot_clean",
            "factor_cold_clean",
            "replica_serves",
            "fanout_writes",
            "fanout_refreshes",
            "divergences_injected",
            "divergences_detected",
            "divergences_repaired",
            "anti_entropy_passes",
            "failbacks_completed",
        ],
        "parity_group" => &[
            "data_shards",
            "parity_shards",
            "parity_serves",
            "stripe_updates",
            "coverage_invalidations",
            "reconstructed_mib",
            "repair_warms",
            "repairs_completed",
            "beyond_tolerance_serves",
            "ttr_metadata_us",
            "ttr_dirty_us",
            "ttr_hot_clean_us",
            "ttr_cold_clean_us",
            "primary_mib",
            "parity_mib",
            "overhead_pct",
        ],
        _ => &[],
    }
}

/// Every field a record of `kind` may carry. [`validate_jsonl`] flags
/// anything else as schema drift with a line number. The lists are
/// supersets of every schema version back to [`MIN_SCHEMA_VERSION`]
/// (older versions only ever *lack* fields).
fn allowed_fields(kind: &str) -> &'static [&'static str] {
    match kind {
        "meta" => &[
            "kind",
            "schema_version",
            "experiment",
            "scheme",
            "requests",
            "traced_requests",
            "space_efficiency_pct",
        ],
        "totals" | "series" => &[
            "kind",
            "at_request",
            "time_ms",
            "requests",
            "reads",
            "read_hits",
            "hit_ratio_pct",
            "writes",
            "degraded_reads",
            "requested_mib",
            "device_mib",
            "backend_mib",
            "amplification",
            "write_amplification",
            "read_amplification",
            "bandwidth_mib_s",
            "mean_latency_ms",
            "p99_latency_ms",
            "medium_errors",
            "repairs",
            "scrub_passes",
            "unrecoverable_fallbacks",
            "journal_appends",
            "checkpoint_count",
            "replayed_records",
            "torn_tail_detected",
            "recovery_duration_us",
            "served_by_replica",
            "served_by_parity",
        ],
        "class" => &[
            "kind",
            "class",
            "requests",
            "reads",
            "read_hits",
            "hit_ratio_pct",
            "writes",
            "degraded_reads",
            "requested_mib",
            "mean_latency_ms",
            "p99_latency_ms",
        ],
        "layer" => &[
            "kind",
            "layer",
            "spans",
            "total_ms",
            "exclusive_ms",
            "mean_ms",
            "p99_ms",
        ],
        "device" => &[
            "kind",
            "device",
            "healthy",
            "wear_pct",
            "used_mib",
            "reads",
            "writes",
            "read_mib",
            "written_mib",
            "erases",
            "mean_queue_delay_ms",
            "mean_service_time_ms",
            "transient_timeouts",
        ],
        "cache" => &[
            "kind",
            "admissions",
            "refreshes",
            "removals",
            "promotions",
            "demotions",
            "replica_refreshes",
        ],
        "resilience" => &[
            "kind",
            "health",
            "health_transitions",
            "shed_requests",
            "write_throughs",
            "bypassed_fills",
            "rejected_events",
            "throttle_stalls",
            "rebuild_throttle_bytes",
            "ttr_metadata_us",
            "ttr_dirty_us",
            "ttr_hot_clean_us",
            "ttr_cold_clean_us",
            "internal_errors",
            "rejected_events_by_reason",
        ],
        "perf" => &["kind", "bench", "value", "unit"],
        "placement" => &[
            "kind",
            "target",
            "health",
            "requests",
            "reads",
            "read_hits",
            "hit_ratio_pct",
            "degraded_reads",
            "shed_requests",
            "outages",
            "rebuild_window_us",
            "migrated_in",
            "migrated_out",
            "replica_serves",
            "parity_serves",
            "sense_mix",
        ],
        "slo" => &[
            "kind",
            "class",
            "requests",
            "latency_threshold_ms",
            "latency_target_pct",
            "availability_target_pct",
            "latency_compliance_pct",
            "availability_pct",
            "latency_burn_fast",
            "latency_burn_slow",
            "availability_burn_fast",
            "availability_burn_slow",
            "latency_breaches",
            "errors",
        ],
        "trace" => &[
            "kind",
            "trace_id",
            "reason",
            "sense",
            "latency_ms",
            "span_count",
            "truncated_spans",
            "spans",
            "annotations",
        ],
        "postmortem" => &[
            "kind",
            "at_ms",
            "target",
            "trigger",
            "dropped_events",
            "event_count",
            "events",
        ],
        "replication" => &[
            "kind",
            "max_factor",
            "factor_metadata",
            "factor_dirty",
            "factor_hot_clean",
            "factor_cold_clean",
            "replica_serves",
            "fanout_writes",
            "fanout_refreshes",
            "divergences_injected",
            "divergences_detected",
            "divergences_repaired",
            "anti_entropy_passes",
            "failbacks_completed",
        ],
        "parity_group" => &[
            "kind",
            "data_shards",
            "parity_shards",
            "parity_serves",
            "stripe_updates",
            "coverage_invalidations",
            "reconstructed_mib",
            "repair_warms",
            "repairs_completed",
            "beyond_tolerance_serves",
            "ttr_metadata_us",
            "ttr_dirty_us",
            "ttr_hot_clean_us",
            "ttr_cold_clean_us",
            "primary_mib",
            "replica_mib",
            "parity_mib",
            "overhead_pct",
        ],
        _ => &[],
    }
}

/// Validates a JSON-lines document against the exporter schema:
/// every line parses as an object with a known `kind`, the first record
/// is `meta` with a supported schema version
/// ([`MIN_SCHEMA_VERSION`]`..=`[`SCHEMA_VERSION`]), `totals`, `cache`,
/// and `resilience` appear exactly once, each record carries its kind's
/// required fields, and no record carries a field outside its kind's
/// allowed set (unknown fields are reported with the offending
/// line number — they mean the document came from a *newer* exporter
/// than this validator).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let mut summary = JsonlSummary::default();
    for (i, raw_line) in text.lines().enumerate() {
        let line = i + 1;
        if raw_line.trim().is_empty() {
            return Err(format!("line {line}: blank line"));
        }
        let Raw(value) = serde_json::from_str(raw_line).map_err(|e| format!("line {line}: {e}"))?;
        let Value::Map(map) = &value else {
            return Err(format!("line {line}: record is not an object"));
        };
        let kind = match get(map, "kind") {
            Some(Value::Str(kind)) => kind.clone(),
            _ => return Err(format!("line {line}: missing string field `kind`")),
        };
        if !RECORD_KINDS.contains(&kind.as_str()) {
            return Err(format!("line {line}: unknown record kind `{kind}`"));
        }
        if summary.records == 0 {
            if kind != "meta" {
                return Err(format!(
                    "line {line}: first record must be `meta`, got `{kind}`"
                ));
            }
            match get(map, "schema_version") {
                Some(Value::U(v))
                    if (MIN_SCHEMA_VERSION as u128..=SCHEMA_VERSION as u128).contains(v) =>
                {
                    summary.schema_version = *v as u64;
                }
                Some(Value::U(v)) => {
                    return Err(format!(
                        "line {line}: schema_version {v} (this validator knows \
                         {MIN_SCHEMA_VERSION}..={SCHEMA_VERSION})"
                    ));
                }
                _ => return Err(format!("line {line}: missing numeric `schema_version`")),
            }
        } else if kind == "meta" {
            return Err(format!("line {line}: duplicate `meta` record"));
        }
        match kind.as_str() {
            "meta" => {
                require_string(map, "experiment", line)?;
                require_string(map, "scheme", line)?;
            }
            "class" => require_string(map, "class", line)?,
            "layer" => require_string(map, "layer", line)?,
            "resilience" => require_string(map, "health", line)?,
            "placement" => require_string(map, "health", line)?,
            "perf" => {
                require_string(map, "bench", line)?;
                require_string(map, "unit", line)?;
            }
            "slo" => require_string(map, "class", line)?,
            "trace" => {
                require_string(map, "reason", line)?;
                require_string(map, "sense", line)?;
            }
            "postmortem" => require_string(map, "trigger", line)?,
            _ => {}
        }
        for field in required_numbers(&kind) {
            require_number(map, field, line)?;
        }
        let allowed = allowed_fields(&kind);
        for (key, _) in map {
            if !allowed.contains(&key.as_str()) {
                return Err(format!(
                    "line {line}: unknown field `{key}` on `{kind}` record"
                ));
            }
        }
        summary.records += 1;
        *summary.kinds.entry(kind).or_default() += 1;
    }
    if summary.records == 0 {
        return Err("empty document".to_string());
    }
    for singleton in ["totals", "cache", "resilience"] {
        match summary.kinds.get(singleton).copied().unwrap_or(0) {
            1 => {}
            n => {
                return Err(format!(
                    "expected exactly one `{singleton}` record, found {n}"
                ))
            }
        }
    }
    Ok(summary)
}

// ---- human summary -----------------------------------------------------

/// Renders the aligned human tables (per-layer breakdown, per-class
/// rows, per-device table, cache counters) the binaries print.
pub fn render_summary(report: &RunReport) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let t = &report.totals;
    let _ = writeln!(
        out,
        "\n== run report: {} / {} ==",
        report.experiment, report.scheme
    );
    let _ = writeln!(
        out,
        "requests {}  hit {:.1}%  bw {:.1} MB/s  mean {:.2} ms  p99 {:.2} ms  eff {:.1}%",
        t.requests,
        t.hit_ratio_pct(),
        t.bandwidth_mib_s(),
        t.mean_latency_ms(),
        t.p99_latency.as_millis_f64(),
        100.0 * report.space_efficiency,
    );
    let _ = writeln!(
        out,
        "amplification: total {:.2}x  write {:.2}x  read {:.2}x  (requested {:.1} MiB, device {:.1} MiB, backend {:.1} MiB)",
        t.amplification(),
        t.write_amplification(),
        t.read_amplification(),
        t.requested_bytes.as_mib_f64(),
        t.device_bytes.as_mib_f64(),
        t.backend_bytes.as_mib_f64(),
    );

    if !report.breakdown.layers.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<10}{:>10}{:>12}{:>14}{:>10}{:>10}",
            "layer", "spans", "total ms", "exclusive ms", "mean ms", "p99 ms"
        );
        for layer in Layer::ALL {
            let Some(row) = report.breakdown.layer(layer) else {
                continue;
            };
            let _ = writeln!(
                out,
                "{:<10}{:>10}{:>12.2}{:>14.2}{:>10.3}{:>10.3}",
                layer.as_str(),
                row.spans,
                row.total.as_millis_f64(),
                report.breakdown.exclusive(layer).as_millis_f64(),
                row.mean.as_millis_f64(),
                row.p99.as_millis_f64(),
            );
        }
    }

    if !t.classes.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12}{:>9}{:>8}{:>8}{:>10}{:>10}{:>10}",
            "class", "reqs", "reads", "hit %", "degraded", "mean ms", "p99 ms"
        );
        for class in &t.classes {
            let _ = writeln!(
                out,
                "{:<12}{:>9}{:>8}{:>8.1}{:>10}{:>10.2}{:>10.2}",
                class.label,
                class.requests,
                class.reads,
                class.hit_ratio_pct(),
                class.degraded_reads,
                class.mean_latency.as_millis_f64(),
                class.p99_latency.as_millis_f64(),
            );
        }
    }

    if !t.targets.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<8}{:<12}{:>9}{:>8}{:>8}{:>10}{:>7}{:>9}{:>12}{:>8}{:>8}",
            "target",
            "health",
            "reqs",
            "reads",
            "hit %",
            "degraded",
            "shed",
            "outages",
            "rebuild ms",
            "mig in",
            "mig out"
        );
        for row in &t.targets {
            let rebuild = if row.rebuild_window_us < 0 {
                "-".to_string()
            } else {
                format!("{:.1}", row.rebuild_window_us as f64 / 1e3)
            };
            let _ = writeln!(
                out,
                "{:<8}{:<12}{:>9}{:>8}{:>8.1}{:>10}{:>7}{:>9}{:>12}{:>8}{:>8}",
                row.target,
                row.health,
                row.requests,
                row.reads,
                row.hit_ratio_pct(),
                row.degraded_reads,
                row.shed_requests,
                row.outages,
                rebuild,
                row.migrated_in,
                row.migrated_out,
            );
        }
    }

    if !report.devices.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<8}{:>9}{:>8}{:>10}{:>9}{:>9}{:>11}{:>11}{:>10}",
            "device",
            "healthy",
            "wear %",
            "used MiB",
            "reads",
            "writes",
            "queue ms",
            "service ms",
            "timeouts"
        );
        for d in &report.devices {
            let _ = writeln!(
                out,
                "{:<8}{:>9}{:>8.2}{:>10.1}{:>9}{:>9}{:>11.3}{:>11.3}{:>10}",
                d.id.0,
                if d.healthy { "yes" } else { "no" },
                100.0 * d.wear,
                d.used.as_mib_f64(),
                d.stats.reads,
                d.stats.writes,
                d.stats.mean_queue_delay().as_millis_f64(),
                d.stats.mean_service_time().as_millis_f64(),
                d.stats.transient_timeouts,
            );
        }
    }

    let c = &report.cache;
    let _ = writeln!(
        out,
        "\ncache policy: admissions {}  refreshes {}  removals {}  promotions {}  demotions {}",
        c.admissions, c.refreshes, c.removals, c.promotions, c.demotions,
    );

    let r = &report.resilience;
    let ttr = |us: i64| -> String {
        if us < 0 {
            "-".to_string()
        } else {
            format!("{:.1}ms", us as f64 / 1e3)
        }
    };
    let _ = writeln!(
        out,
        "resilience: health {}  transitions {}  shed {}  write-through {}  bypassed fills {}  rejected events {}",
        r.health, r.health_transitions, r.shed_requests, r.write_throughs, r.bypassed_fills, r.rejected_events,
    );
    let _ = writeln!(
        out,
        "rebuild QoS: stalls {}  throttled {:.1} MiB  ttr meta {} / dirty {} / hot {} / cold {}",
        r.throttle_stalls,
        r.rebuild_throttle_bytes as f64 / (1024.0 * 1024.0),
        ttr(r.ttr_us[0]),
        ttr(r.ttr_us[1]),
        ttr(r.ttr_us[2]),
        ttr(r.ttr_us[3]),
    );

    if !t.slos.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12}{:>9}{:>9}{:>11}{:>9}{:>12}{:>12}{:>12}{:>12}",
            "slo class",
            "reqs",
            "thresh",
            "lat ok %",
            "avail %",
            "lat burn 5s",
            "lat burn 1m",
            "av burn 5s",
            "av burn 1m"
        );
        for slo in &t.slos {
            let _ = writeln!(
                out,
                "{:<12}{:>9}{:>7.0}ms{:>11.2}{:>9.2}{:>12.2}{:>12.2}{:>12.2}{:>12.2}",
                slo.class,
                slo.requests,
                slo.latency_threshold.as_millis_f64(),
                slo.latency_compliance_pct(),
                slo.availability_pct(),
                slo.latency_burn_fast(),
                slo.latency_burn_slow(),
                slo.availability_burn_fast(),
                slo.availability_burn_slow(),
            );
        }
    }
    out
}

/// Renders exemplar trace trees as indented span hierarchies — the
/// causal path of a request from the placement root down through cache,
/// target, stripe/journal, and flash/backend leaves, with annotations
/// (`retry`, `read-repair`, `degraded-path`, `qos-stall`) inline.
pub fn render_trace_trees(trees: &[reo_sim::TraceTree]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for tree in trees {
        let _ = writeln!(
            out,
            "\ntrace {:>4}  {:<10}  sense {:<16}  latency {:.3} ms  ({} spans{})",
            tree.trace_id,
            tree.reason,
            tree.sense.unwrap_or("success"),
            tree.latency.as_millis_f64(),
            tree.spans.len(),
            if tree.truncated_spans > 0 {
                format!(", {} truncated", tree.truncated_spans)
            } else {
                String::new()
            },
        );
        // The root (Placement) is recorded last, so span ids are not in
        // parent-before-child order: walk the tree depth-first instead,
        // siblings ordered by start time.
        let mut children: Vec<Vec<&reo_sim::TraceSpanNode>> =
            vec![Vec::new(); tree.spans.len() + 1];
        for span in &tree.spans {
            children[span.parent as usize].push(span);
        }
        for list in &mut children {
            list.sort_by_key(|s| (s.start, s.id));
        }
        let mut stack: Vec<(&reo_sim::TraceSpanNode, usize)> =
            children[0].iter().rev().map(|s| (*s, 0)).collect();
        while let Some((span, d)) = stack.pop() {
            let _ = writeln!(
                out,
                "  {:>9.3} ms  {}{:<10} {:<12} ({:.3} ms)",
                span.start.as_nanos() as f64 / 1e6,
                "  ".repeat(d),
                span.layer.as_str(),
                span.op,
                span.end.saturating_since(span.start).as_millis_f64(),
            );
            for child in children[span.id as usize].iter().rev() {
                stack.push((child, d + 1));
            }
        }
        for ann in &tree.annotations {
            let _ = writeln!(
                out,
                "  {:>9.3} ms  ! {}",
                ann.at.as_nanos() as f64 / 1e6,
                ann.label
            );
        }
    }
    out
}

/// Renders flight-recorder postmortem dumps: the trigger plus the
/// look-back window of structured events leading up to it.
pub fn render_postmortems(postmortems: &[reo_sim::Postmortem]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for pm in postmortems {
        let scope = if pm.target < 0 {
            "cluster".to_string()
        } else {
            format!("target {}", pm.target)
        };
        let _ = writeln!(
            out,
            "\npostmortem @ {:.3} ms  [{}]  trigger: {}  ({} events{})",
            pm.at.as_nanos() as f64 / 1e6,
            scope,
            pm.trigger,
            pm.events.len(),
            if pm.dropped_events > 0 {
                format!(", {} dropped", pm.dropped_events)
            } else {
                String::new()
            },
        );
        for ev in &pm.events {
            let tag = if ev.target < 0 {
                "cluster".to_string()
            } else {
                format!("t{}", ev.target)
            };
            let _ = writeln!(
                out,
                "  #{:<5} {:>9.3} ms  {:<8} {:<18} {}",
                ev.seq,
                ev.at.as_nanos() as f64 / 1e6,
                tag,
                ev.kind,
                ev.detail,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use reo_core::{ExperimentPlan, ExperimentRunner, SchemeConfig};
    use reo_sim::ByteSize;
    use reo_workload::WorkloadSpec;

    fn traced_report() -> RunReport {
        let trace = WorkloadSpec::medium()
            .with_objects(60)
            .with_requests(600)
            .generate(7);
        let mut system = crate::build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.2,
            ByteSize::from_kib(32),
        );
        system.enable_tracing();
        let plan = ExperimentPlan::normal_run().with_sampling(200);
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        collect_run_report("unit_test", "Reo-20%", &system, &result)
    }

    #[test]
    fn report_covers_every_dimension() {
        let report = traced_report();
        assert_eq!(report.totals.requests, 600);
        assert!(!report.breakdown.layers.is_empty(), "tracing was enabled");
        assert_eq!(report.devices.len(), 5);
        assert!(report.cache.admissions > 0);
        assert_eq!(report.series.len(), 3);
        assert!(report.totals.classes.iter().any(|c| c.requests > 0));
    }

    #[test]
    fn jsonl_round_trips_through_the_validator() {
        let report = traced_report();
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("own output must validate");
        assert_eq!(summary.kinds["meta"], 1);
        assert_eq!(summary.kinds["totals"], 1);
        assert_eq!(summary.kinds["cache"], 1);
        assert_eq!(summary.kinds["resilience"], 1);
        assert_eq!(summary.kinds["device"], 5);
        assert_eq!(summary.kinds["series"], 3);
        assert!(
            summary.kinds["layer"] >= 4,
            "cache/target/stripe/flash at least"
        );
        assert_eq!(
            summary.records,
            text.lines().count(),
            "every line is one record"
        );
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let report = traced_report();
        let good = jsonl(&report);

        assert!(validate_jsonl("").unwrap_err().contains("empty"));
        assert!(validate_jsonl("{\"kind\":\"totals\"}\n")
            .unwrap_err()
            .contains("first record must be `meta`"));
        assert!(validate_jsonl("not json\n").unwrap_err().contains("line 1"));

        // Wrong schema version.
        let bumped = good.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            &format!("\"schema_version\":{}", SCHEMA_VERSION + 1),
            1,
        );
        assert!(validate_jsonl(&bumped)
            .unwrap_err()
            .contains("schema_version"));

        // Unknown kind (`shard` is no longer one the validator knows).
        for kind in ["mystery", "shard"] {
            let unknown = format!("{good}{{\"kind\":\"{kind}\"}}\n");
            assert!(validate_jsonl(&unknown)
                .unwrap_err()
                .contains("unknown record kind"));
        }

        // Duplicate totals.
        let dup = format!("{good}{}\n", good.lines().nth(1).expect("totals line"));
        assert!(validate_jsonl(&dup)
            .unwrap_err()
            .contains("exactly one `totals`"));
    }

    #[test]
    fn summary_renders_every_section() {
        let report = traced_report();
        let text = render_summary(&report);
        for needle in [
            "run report: unit_test / Reo-20%",
            "amplification:",
            "layer",
            "flash",
            "class",
            "device",
            "cache policy:",
            "resilience: health healthy",
            "rebuild QoS:",
        ] {
            assert!(text.contains(needle), "summary missing `{needle}`:\n{text}");
        }
    }

    #[test]
    fn resilience_record_reports_faults_when_they_happen() {
        let trace = WorkloadSpec::medium()
            .with_objects(60)
            .with_requests(600)
            .generate(9);
        let mut system = crate::build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.2,
            ByteSize::from_kib(32),
        );
        let plan = ExperimentPlan::second_failure_during_rebuild(100, 200, 300);
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        let report = collect_run_report("cascade_unit", "Reo-20%", &system, &result);
        assert!(report.resilience.health_transitions > 0);
        let text = jsonl(&report);
        validate_jsonl(&text).expect("faulted run still validates");
        assert!(text.contains("\"kind\":\"resilience\""));
    }

    #[test]
    fn perf_records_round_trip_through_the_validator() {
        let mut report = traced_report();
        report.perf = vec![
            PerfPoint {
                bench: "erasure_encode".to_string(),
                value: 3.25,
                unit: "GiB/s".to_string(),
            },
            PerfPoint {
                bench: "requests".to_string(),
                value: 120_000.0,
                unit: "req/s".to_string(),
            },
        ];
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("perf records must validate");
        assert_eq!(summary.kinds["perf"], 2);
        assert!(text.contains("\"bench\":\"erasure_encode\""));

        // A perf record without its unit is schema drift, not a new point.
        let broken = text.replace("\"unit\":\"GiB/s\"", "\"units\":\"GiB/s\"");
        assert!(validate_jsonl(&broken).unwrap_err().contains("unit"));
    }

    fn scaleout_jsonl() -> String {
        use reo_core::{ClusterSystem, PlannedEvent};
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(11);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster = ClusterSystem::new(config, 4);
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(200, PlannedEvent::FailTarget(1))
        .with_event(400, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        let report = collect_cluster_report("scaleout_unit", "Reo-20%", &cluster, &result);
        jsonl(&report)
    }

    #[test]
    fn cluster_report_exports_placement_records() {
        let text = scaleout_jsonl();
        let summary = validate_jsonl(&text).expect("cluster report must validate");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(summary.kinds["placement"], 4, "one row per target");
        assert_eq!(summary.kinds["device"], 20, "global device namespace");
        assert!(text.contains("\"rebuild_window_us\""));
        assert!(text.contains("\"sense_mix\""));
        assert!(text.contains("\"rejected_events_by_reason\""));
    }

    fn parity_jsonl() -> String {
        use reo_core::{ClusterSystem, ParityGroupPolicy, PlannedEvent};
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(13);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster =
            ClusterSystem::new(config, 4).with_parity_policy(ParityGroupPolicy::reo(3, 1));
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(150, PlannedEvent::FailTarget(1))
        .with_event(450, PlannedEvent::RestoreTarget(1));
        let result = cluster.run(&trace, &plan);
        let report = collect_cluster_report("parity_unit", "Reo-20%", &cluster, &result);
        jsonl(&report)
    }

    #[test]
    fn parity_group_record_round_trips_through_the_validator() {
        let text = parity_jsonl();
        let summary = validate_jsonl(&text).expect("parity report must validate");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(summary.kinds["parity_group"], 1, "singleton parity record");
        assert!(text.contains("\"data_shards\":3"));
        assert!(text.contains("\"parity_shards\":1"));
        assert!(text.contains("\"served_by_parity\""));
        assert!(text.contains("\"parity_serves\""));
        assert!(text.contains("\"overhead_pct\""));

        // A parity record missing its geometry is schema drift.
        let broken = text.replace("\"data_shards\":3", "\"shards\":3");
        assert!(validate_jsonl(&broken).unwrap_err().contains("data_shards"));
    }

    #[test]
    fn parity_jsonl_is_identical_across_repeated_runs() {
        assert_eq!(
            parity_jsonl(),
            parity_jsonl(),
            "same seed must replay a byte-identical parity export"
        );
    }

    #[test]
    fn cluster_jsonl_is_identical_across_repeated_runs() {
        assert_eq!(
            scaleout_jsonl(),
            scaleout_jsonl(),
            "same seed must replay a byte-identical cluster export"
        );
    }

    #[test]
    fn validator_accepts_the_previous_schema_version() {
        let report = traced_report();
        let good = jsonl(&report);
        let old = good.replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            &format!("\"schema_version\":{MIN_SCHEMA_VERSION}"),
            1,
        );
        let summary = validate_jsonl(&old).expect("v4 documents must stay valid");
        assert_eq!(summary.schema_version, MIN_SCHEMA_VERSION);
    }

    #[test]
    fn untraced_report_omits_layers_but_still_validates() {
        let trace = WorkloadSpec::medium()
            .with_objects(40)
            .with_requests(200)
            .generate(3);
        let mut system =
            crate::build_system(SchemeConfig::Parity(1), &trace, 0.2, ByteSize::from_kib(32));
        let result = ExperimentRunner::run(&mut system, &trace, &ExperimentPlan::normal_run());
        let report = collect_run_report("untraced", "1-parity", &system, &result);
        assert!(report.breakdown.layers.is_empty());
        let summary = validate_jsonl(&jsonl(&report)).expect("valid without layer records");
        assert!(!summary.kinds.contains_key("layer"));
        assert!(!summary.kinds.contains_key("series"));
    }

    #[test]
    fn slo_and_trace_records_round_trip_through_the_validator() {
        let report = traced_report();
        assert!(
            !report.exemplars.is_empty(),
            "a traced run retains slow-percentile exemplars"
        );
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("slo/trace records must validate");
        assert!(
            summary.kinds["slo"] >= 1,
            "every active class exports one slo record"
        );
        assert_eq!(summary.kinds["trace"], report.exemplars.len());
        assert!(text.contains("\"latency_burn_fast\""));
        assert!(text.contains("\"availability_burn_slow\""));
        assert!(text.contains("\"trace_id\""));
    }

    #[test]
    fn postmortem_records_round_trip_through_the_validator() {
        let trace = WorkloadSpec::medium()
            .with_objects(60)
            .with_requests(600)
            .generate(9);
        let mut system = crate::build_system(
            SchemeConfig::Reo { reserve: 0.20 },
            &trace,
            0.2,
            ByteSize::from_kib(32),
        );
        let plan = ExperimentPlan::second_failure_during_rebuild(100, 200, 300);
        let result = ExperimentRunner::run(&mut system, &trace, &plan);
        let report = collect_run_report("cascade_unit", "Reo-20%", &system, &result);
        assert!(
            !report.postmortems.is_empty(),
            "leaving Healthy dumps the flight recorder"
        );
        let text = jsonl(&report);
        let summary = validate_jsonl(&text).expect("postmortem records must validate");
        assert_eq!(summary.kinds["postmortem"], report.postmortems.len());
        assert!(text.contains("\"trigger\":\"health-left-healthy:"));

        let rendered = render_postmortems(&report.postmortems);
        assert!(rendered.contains("trigger: health-left-healthy:"));
        assert!(rendered.contains("fault-injected"));
    }

    #[test]
    fn validator_reports_unknown_fields_with_a_line_number() {
        let report = traced_report();
        let good = jsonl(&report);

        // An extra field on the cache record is schema drift from a
        // newer exporter: named, with the offending line.
        let cache_line = good
            .lines()
            .position(|l| l.contains("\"kind\":\"cache\""))
            .expect("cache record")
            + 1;
        let drifted = good.replace("\"kind\":\"cache\"", "\"kind\":\"cache\",\"evictions\":3");
        let err = validate_jsonl(&drifted).unwrap_err();
        assert!(
            err.contains("unknown field `evictions` on `cache` record"),
            "got: {err}"
        );
        assert!(err.contains(&format!("line {cache_line}")), "got: {err}");
    }

    #[test]
    fn trace_tree_renders_the_span_hierarchy() {
        let report = traced_report();
        let text = render_trace_trees(&report.exemplars);
        for needle in ["trace", "cache", "target", "flash"] {
            assert!(text.contains(needle), "render missing `{needle}`:\n{text}");
        }
        // Children are indented under the cache root.
        assert!(
            text.contains("  cache") || text.contains("\ncache"),
            "missing root:\n{text}"
        );
    }
}
