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
//!   `device`, `cache`, `resilience`, `placement`, `perf`, `series`,
//!   `slo`, `trace`, `postmortem`, `redundancy`). The
//!   first line is always the `meta` record carrying [`SCHEMA_VERSION`].
//!   Every record kind's fields are declared once, in a field table the
//!   emitter walks and [`validate_jsonl`] checks against: a record is
//!   valid when its keys are exactly its table's names with its table's
//!   types (CI runs the validator on real experiment outputs, the
//!   committed `results/*.jsonl`, and the committed perf baseline).
//! * [`render_summary`] — the aligned human tables the binaries print.
//!
//! Latencies are exported in milliseconds, byte volumes in MiB; raw
//! counters stay counts.

use std::collections::BTreeMap;

use reo_core::{
    CacheSystem, ClusterSystem, DeviceId, DeviceReport, ExperimentResult, MetricsSnapshot,
    SloSnapshot, TargetMetricsRow, TimeSeriesPoint,
};
use reo_sim::{LayerBreakdown, Postmortem, SimDuration, TraceBreakdown, TraceTree};
use serde::{DeError, Deserialize, Serialize, Value};

/// Version stamp of the JSON-lines schema. There is one version: any
/// change to a field table bumps it (numbers are never reused) and
/// regenerates the committed `results/*.jsonl` in the same change, and
/// [`validate_jsonl`] accepts exactly this number.
pub const SCHEMA_VERSION: u64 = 10;

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
    /// Cross-target redundancy counters (`None` on single-target runs
    /// and clusters without a redundancy policy — the record is then
    /// omitted entirely).
    pub redundancy: Option<RedundancyReport>,
}

/// The `redundancy` record: the active policy, the cluster's redundancy
/// counters, and the end-of-run flash overhead split.
#[derive(Clone, Debug, PartialEq)]
pub struct RedundancyReport {
    /// The geometry `k + m` and its class mask.
    pub policy: reo_core::Redundancy,
    /// The cluster's cumulative redundancy counters.
    pub counters: reo_core::RedundancySnapshot,
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
        redundancy: None,
    }
}

/// Gathers a [`RunReport`] from a cluster as it stands — after
/// [`ClusterSystem::run`] and whatever drain or repair pass the caller
/// adds: per-target rows ride in [`MetricsSnapshot::targets`] (exported
/// as `placement` records), node counters are summed (device rows get
/// global ids, `devices_per_node * target + local`), and the
/// `resilience` record is [`ClusterSystem::resilience`].
pub fn collect_cluster_report(
    experiment: &str,
    scheme: &str,
    cluster: &ClusterSystem,
) -> RunReport {
    let per_node = cluster.config().devices;
    let mut devices = Vec::new();
    let mut cache = reo_cache::CacheStats::default();
    let mut efficiency = 0.0;
    for t in 0..cluster.targets_created() {
        let node = cluster.node(t);
        for mut d in node.device_stats() {
            d.id = DeviceId(per_node * t + d.id.0);
            devices.push(d);
        }
        cache.merge(&node.cache_stats());
        efficiency += node.space_efficiency();
    }
    RunReport {
        experiment: experiment.to_string(),
        scheme: scheme.to_string(),
        totals: cluster.metrics_snapshot(),
        breakdown: cluster.tracer().breakdown(),
        devices,
        cache,
        resilience: cluster.resilience(),
        series: Vec::new(),
        space_efficiency: efficiency / cluster.targets_created().max(1) as f64,
        perf: Vec::new(),
        exemplars: cluster.tracer().exemplars(),
        postmortems: cluster.flight().postmortems(),
        redundancy: cluster.redundancy().enabled().then(|| RedundancyReport {
            policy: cluster.redundancy(),
            counters: cluster.redundancy_snapshot(),
            overhead: cluster.flash_overhead(),
        }),
    }
}

// ---- the schema: one field table per record kind -------------------------

/// The JSON type of a field, as the validator sees it. `Obj` is a
/// nested object (label → count maps, span and event trees), of which
/// the validator checks only that it is one.
#[derive(Clone, Copy, Debug)]
enum Ty {
    Num,
    Bool,
    Str,
    Obj,
}
use Ty::{Bool, Num, Obj, Str};

impl Ty {
    fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (Num, Value::U(_) | Value::I(_) | Value::F(_))
                | (Bool, Value::Bool(_))
                | (Str, Value::Str(_))
                | (Obj, Value::Map(_))
        )
    }
}

/// One field of a record read off a source `T`: `(name, type, getter)`.
type Field<T> = (&'static str, Ty, fn(&T) -> Value);

/// One record kind: its `kind` tag and its fields in emission order.
/// [`records`] emits by walking the table and [`validate_jsonl`] checks
/// against the same table ([`schema`]), so a field is written down in
/// exactly one place and everything emitted is required.
struct Table<T: 'static> {
    kind: &'static str,
    fields: &'static [Field<T>],
}

/// A record as ordered `(key, value)` entries.
type Record = Vec<(String, Value)>;

/// A record kind's validator view: its tag and `(field, type)` rows.
type Shape = (&'static str, Vec<(&'static str, Ty)>);

impl<T> Table<T> {
    fn fields_of<'a>(&'a self, src: &'a T) -> impl Iterator<Item = (String, Value)> + 'a {
        self.fields
            .iter()
            .map(move |(name, _, get)| (name.to_string(), get(src)))
    }

    fn record(&self, src: &T) -> Record {
        let mut record = vec![("kind".to_string(), s(self.kind))];
        record.extend(self.fields_of(src));
        record
    }

    fn shape(&self) -> Shape {
        let fields = self.fields.iter().map(|(name, ty, _)| (*name, *ty));
        (self.kind, fields.collect())
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// `(label, count)` rows as a nested `label → count` object.
fn counts(rows: &[(String, u64)]) -> Value {
    Value::Map(
        rows.iter()
            .map(|(label, count)| (label.clone(), u(*count)))
            .collect(),
    )
}

static META: Table<RunReport> = Table {
    kind: "meta",
    fields: &[
        ("schema_version", Num, |_| u(SCHEMA_VERSION)),
        ("experiment", Str, |r| s(&r.experiment)),
        ("scheme", Str, |r| s(&r.scheme)),
        ("requests", Num, |r| u(r.totals.requests)),
        ("traced_requests", Num, |r| u(r.breakdown.requests)),
        ("space_efficiency_pct", Num, |r| {
            f(100.0 * r.space_efficiency)
        }),
    ],
};

static TOTALS: Table<MetricsSnapshot> = Table {
    kind: "totals",
    fields: &[
        ("requests", Num, |s| u(s.requests)),
        ("reads", Num, |s| u(s.reads)),
        ("read_hits", Num, |s| u(s.read_hits)),
        ("hit_ratio_pct", Num, |s| f(s.hit_ratio_pct())),
        ("writes", Num, |s| u(s.writes)),
        ("degraded_reads", Num, |s| u(s.degraded_reads)),
        ("requested_mib", Num, |s| f(s.requested_bytes.as_mib_f64())),
        ("device_mib", Num, |s| f(s.device_bytes.as_mib_f64())),
        ("backend_mib", Num, |s| f(s.backend_bytes.as_mib_f64())),
        ("amplification", Num, |s| f(s.amplification())),
        ("write_amplification", Num, |s| f(s.write_amplification())),
        ("read_amplification", Num, |s| f(s.read_amplification())),
        ("bandwidth_mib_s", Num, |s| f(s.bandwidth_mib_s())),
        ("mean_latency_ms", Num, |s| f(s.mean_latency_ms())),
        ("p99_latency_ms", Num, |s| f(s.p99_latency.as_millis_f64())),
        ("medium_errors", Num, |s| u(s.medium_errors)),
        ("repairs", Num, |s| u(s.repairs)),
        ("scrub_passes", Num, |s| u(s.scrub_passes)),
        ("unrecoverable_fallbacks", Num, |s| {
            u(s.unrecoverable_fallbacks)
        }),
        ("journal_appends", Num, |s| u(s.journal_appends)),
        ("checkpoint_count", Num, |s| u(s.checkpoint_count)),
        ("replayed_records", Num, |s| u(s.replayed_records)),
        ("torn_tail_detected", Num, |s| u(s.torn_tail_detected)),
        ("recovery_duration_us", Num, |s| u(s.recovery_duration_us)),
        ("served_by_replica", Num, |s| u(s.served_by_replica)),
        ("served_by_parity", Num, |s| u(s.served_by_parity)),
    ],
};

static CLASS: Table<reo_core::ClassSnapshot> = Table {
    kind: "class",
    fields: &[
        ("class", Str, |c| s(c.label)),
        ("requests", Num, |c| u(c.requests)),
        ("reads", Num, |c| u(c.reads)),
        ("read_hits", Num, |c| u(c.read_hits)),
        ("hit_ratio_pct", Num, |c| f(c.hit_ratio_pct())),
        ("writes", Num, |c| u(c.writes)),
        ("degraded_reads", Num, |c| u(c.degraded_reads)),
        ("requested_mib", Num, |c| f(c.requested_bytes.as_mib_f64())),
        ("mean_latency_ms", Num, |c| {
            f(c.mean_latency.as_millis_f64())
        }),
        ("p99_latency_ms", Num, |c| f(c.p99_latency.as_millis_f64())),
    ],
};

/// A `layer` row's source: the layer's breakdown plus its exclusive
/// time, which only the whole [`TraceBreakdown`] can compute.
static LAYER: Table<(LayerBreakdown, SimDuration)> = Table {
    kind: "layer",
    fields: &[
        ("layer", Str, |(l, _)| s(l.layer.as_str())),
        ("spans", Num, |(l, _)| u(l.spans)),
        ("total_ms", Num, |(l, _)| f(l.total.as_millis_f64())),
        ("exclusive_ms", Num, |(_, exclusive)| {
            f(exclusive.as_millis_f64())
        }),
        ("mean_ms", Num, |(l, _)| f(l.mean.as_millis_f64())),
        ("p99_ms", Num, |(l, _)| f(l.p99.as_millis_f64())),
    ],
};

static DEVICE: Table<DeviceReport> = Table {
    kind: "device",
    fields: &[
        ("device", Num, |d| u(d.id.0 as u64)),
        ("healthy", Bool, |d| Value::Bool(d.healthy)),
        ("wear_pct", Num, |d| f(100.0 * d.wear)),
        ("used_mib", Num, |d| f(d.used.as_mib_f64())),
        ("reads", Num, |d| u(d.stats.reads)),
        ("writes", Num, |d| u(d.stats.writes)),
        ("read_mib", Num, |d| f(mib(d.stats.bytes_read))),
        ("written_mib", Num, |d| f(mib(d.stats.bytes_written))),
        ("erases", Num, |d| u(d.stats.erases_estimated)),
        ("mean_queue_delay_ms", Num, |d| {
            f(d.stats.mean_queue_delay().as_millis_f64())
        }),
        ("mean_service_time_ms", Num, |d| {
            f(d.stats.mean_service_time().as_millis_f64())
        }),
        ("transient_timeouts", Num, |d| u(d.stats.transient_timeouts)),
    ],
};

static CACHE: Table<reo_cache::CacheStats> = Table {
    kind: "cache",
    fields: &[
        ("admissions", Num, |c| u(c.admissions)),
        ("refreshes", Num, |c| u(c.refreshes)),
        ("removals", Num, |c| u(c.removals)),
        ("promotions", Num, |c| u(c.promotions)),
        ("demotions", Num, |c| u(c.demotions)),
        ("replica_refreshes", Num, |c| u(c.replica_refreshes)),
    ],
};

static RESILIENCE: Table<reo_core::ResilienceSnapshot> = Table {
    kind: "resilience",
    fields: &[
        ("health", Str, |r| s(&r.health)),
        ("health_transitions", Num, |r| u(r.health_transitions)),
        ("shed_requests", Num, |r| u(r.shed_requests)),
        ("write_throughs", Num, |r| u(r.write_throughs)),
        ("bypassed_fills", Num, |r| u(r.bypassed_fills)),
        ("rejected_events", Num, |r| u(r.rejected_events)),
        ("throttle_stalls", Num, |r| u(r.throttle_stalls)),
        ("rebuild_throttle_bytes", Num, |r| {
            u(r.rebuild_throttle_bytes)
        }),
        ("ttr_metadata_us", Num, |r| i(r.ttr_us[0])),
        ("ttr_dirty_us", Num, |r| i(r.ttr_us[1])),
        ("ttr_hot_clean_us", Num, |r| i(r.ttr_us[2])),
        ("ttr_cold_clean_us", Num, |r| i(r.ttr_us[3])),
        ("internal_errors", Num, |r| u(r.internal_errors)),
        ("rejected_events_by_reason", Obj, |r| {
            counts(&r.rejected_events_by_reason)
        }),
    ],
};

static PLACEMENT: Table<TargetMetricsRow> = Table {
    kind: "placement",
    fields: &[
        ("target", Num, |row| u(row.target as u64)),
        ("health", Str, |row| s(&row.health)),
        ("requests", Num, |row| u(row.requests)),
        ("reads", Num, |row| u(row.reads)),
        ("read_hits", Num, |row| u(row.read_hits)),
        ("hit_ratio_pct", Num, |row| f(row.hit_ratio_pct())),
        ("degraded_reads", Num, |row| u(row.degraded_reads)),
        ("shed_requests", Num, |row| u(row.shed_requests)),
        ("outages", Num, |row| u(row.outages)),
        ("rebuild_window_us", Num, |row| i(row.rebuild_window_us)),
        ("migrated_in", Num, |row| u(row.migrated_in)),
        ("migrated_out", Num, |row| u(row.migrated_out)),
        ("replica_serves", Num, |row| u(row.replica_serves)),
        ("parity_serves", Num, |row| u(row.parity_serves)),
        ("sense_mix", Obj, |row| counts(&row.sense_mix)),
    ],
};

static PERF: Table<PerfPoint> = Table {
    kind: "perf",
    fields: &[
        ("bench", Str, |p| s(&p.bench)),
        ("value", Num, |p| f(p.value)),
        ("unit", Str, |p| s(&p.unit)),
    ],
};

/// A `series` record is these two fields followed by the [`TOTALS`]
/// fields of the point's sampling window.
static SERIES: Table<TimeSeriesPoint> = Table {
    kind: "series",
    fields: &[
        ("at_request", Num, |p| u(p.at_request as u64)),
        ("time_ms", Num, |p| f(p.time.as_secs_f64() * 1e3)),
    ],
};

static SLO: Table<SloSnapshot> = Table {
    kind: "slo",
    fields: &[
        ("class", Str, |row| s(row.class)),
        ("requests", Num, |row| u(row.requests)),
        ("latency_threshold_ms", Num, |row| {
            f(row.latency_threshold.as_millis_f64())
        }),
        ("latency_target_pct", Num, |row| f(row.latency_target_pct)),
        ("availability_target_pct", Num, |row| {
            f(row.availability_target_pct)
        }),
        ("latency_compliance_pct", Num, |row| {
            f(row.latency_compliance_pct())
        }),
        ("availability_pct", Num, |row| f(row.availability_pct())),
        ("latency_burn_fast", Num, |row| f(row.latency_burn_fast())),
        ("latency_burn_slow", Num, |row| f(row.latency_burn_slow())),
        ("availability_burn_fast", Num, |row| {
            f(row.availability_burn_fast())
        }),
        ("availability_burn_slow", Num, |row| {
            f(row.availability_burn_slow())
        }),
        ("latency_breaches", Num, |row| u(row.latency_breaches)),
        ("errors", Num, |row| u(row.errors)),
    ],
};

static TRACE: Table<TraceTree> = Table {
    kind: "trace",
    fields: &[
        ("trace_id", Num, |tree| u(tree.trace_id)),
        ("reason", Str, |tree| s(tree.reason)),
        ("sense", Str, |tree| s(tree.sense.unwrap_or("success"))),
        ("latency_ms", Num, |tree| f(tree.latency.as_millis_f64())),
        ("span_count", Num, |tree| u(tree.spans.len() as u64)),
        ("truncated_spans", Num, |tree| u(tree.truncated_spans)),
        ("spans", Obj, trace_spans),
        ("annotations", Obj, trace_annotations),
    ],
};

static POSTMORTEM: Table<Postmortem> = Table {
    kind: "postmortem",
    fields: &[
        ("at_ms", Num, |pm| f(pm.at.as_secs_f64() * 1e3)),
        ("target", Num, |pm| i(pm.target)),
        ("trigger", Str, |pm| s(&pm.trigger)),
        ("dropped_events", Num, |pm| u(pm.dropped_events)),
        ("event_count", Num, |pm| u(pm.events.len() as u64)),
        ("events", Obj, postmortem_events),
    ],
};

static REDUNDANCY: Table<RedundancyReport> = Table {
    kind: "redundancy",
    fields: &[
        ("data_shards", Num, |r| u(r.policy.data as u64)),
        ("parity_shards", Num, |r| u(r.policy.parity as u64)),
        ("protects_metadata", Bool, |r| {
            Value::Bool(r.policy.protects[0])
        }),
        ("protects_dirty", Bool, |r| {
            Value::Bool(r.policy.protects[1])
        }),
        ("protects_hot_clean", Bool, |r| {
            Value::Bool(r.policy.protects[2])
        }),
        ("protects_cold_clean", Bool, |r| {
            Value::Bool(r.policy.protects[3])
        }),
        ("failover_serves", Num, |r| u(r.counters.failover_serves)),
        ("protected_writes", Num, |r| u(r.counters.protected_writes)),
        ("copies_refreshed", Num, |r| u(r.counters.copies_refreshed)),
        ("coverage_invalidations", Num, |r| {
            u(r.counters.coverage_invalidations)
        }),
        ("reconstructed_mib", Num, |r| {
            f(mib(r.counters.reconstructed_bytes))
        }),
        ("divergences_injected", Num, |r| {
            u(r.counters.divergences_injected)
        }),
        ("divergences_detected", Num, |r| {
            u(r.counters.divergences_detected)
        }),
        ("divergences_repaired", Num, |r| {
            u(r.counters.divergences_repaired)
        }),
        ("anti_entropy_passes", Num, |r| {
            u(r.counters.anti_entropy_passes)
        }),
        ("repair_moves", Num, |r| u(r.counters.repair_moves)),
        ("repairs_completed", Num, |r| {
            u(r.counters.repairs_completed)
        }),
        ("beyond_tolerance_serves", Num, |r| {
            u(r.counters.beyond_tolerance_serves)
        }),
        ("ttr_metadata_us", Num, |r| i(r.counters.ttr_us[0])),
        ("ttr_dirty_us", Num, |r| i(r.counters.ttr_us[1])),
        ("ttr_hot_clean_us", Num, |r| i(r.counters.ttr_us[2])),
        ("ttr_cold_clean_us", Num, |r| i(r.counters.ttr_us[3])),
        ("primary_mib", Num, |r| f(mib(r.overhead.primary_bytes))),
        ("replica_mib", Num, |r| f(mib(r.overhead.replica_bytes))),
        ("parity_mib", Num, |r| f(mib(r.overhead.parity_bytes))),
        ("overhead_pct", Num, |r| {
            f(100.0 * r.overhead.overhead_fraction())
        }),
    ],
};

/// Every record kind a document may contain, as the validator sees it.
fn schema() -> Vec<Shape> {
    let mut series = SERIES.shape();
    series.1.extend(TOTALS.shape().1);
    vec![
        META.shape(),
        TOTALS.shape(),
        CLASS.shape(),
        LAYER.shape(),
        DEVICE.shape(),
        CACHE.shape(),
        RESILIENCE.shape(),
        PLACEMENT.shape(),
        PERF.shape(),
        series,
        SLO.shape(),
        TRACE.shape(),
        POSTMORTEM.shape(),
        REDUNDANCY.shape(),
    ]
}

// ---- JSON-lines rendering ----------------------------------------------

/// A raw value tree; lets the exporter serialize hand-built records
/// without a struct per record kind.
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

/// The spans of an exemplar trace tree. The vendored JSON value tree has
/// no array type, so spans nest as a map keyed by the (1-based,
/// zero-padded) span id — key order is span order.
fn trace_spans(tree: &TraceTree) -> Value {
    Value::Map(
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
    )
}

/// The annotations of an exemplar trace tree, keyed by their index.
fn trace_annotations(tree: &TraceTree) -> Value {
    Value::Map(
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
    )
}

/// The events of a flight-recorder dump, keyed by their (zero-padded)
/// sequence number, oldest first.
fn postmortem_events(pm: &Postmortem) -> Value {
    Value::Map(
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
    )
}

fn records(report: &RunReport) -> Vec<Record> {
    let mut out = vec![META.record(report), TOTALS.record(&report.totals)];
    out.extend(report.totals.classes.iter().map(|c| CLASS.record(c)));
    for layer in &report.breakdown.layers {
        let exclusive = report.breakdown.exclusive(layer.layer);
        out.push(LAYER.record(&(layer.clone(), exclusive)));
    }
    out.extend(report.devices.iter().map(|d| DEVICE.record(d)));
    out.push(CACHE.record(&report.cache));
    out.push(RESILIENCE.record(&report.resilience));
    out.extend(report.totals.targets.iter().map(|t| PLACEMENT.record(t)));
    out.extend(report.perf.iter().map(|p| PERF.record(p)));
    for point in &report.series {
        let mut record = SERIES.record(point);
        record.extend(TOTALS.fields_of(&point.window));
        out.push(record);
    }
    out.extend(report.totals.slos.iter().map(|row| SLO.record(row)));
    out.extend(report.exemplars.iter().map(|tree| TRACE.record(tree)));
    out.extend(report.postmortems.iter().map(|pm| POSTMORTEM.record(pm)));
    out.extend(report.redundancy.iter().map(|r| REDUNDANCY.record(r)));
    out
}

/// Renders the report as JSON lines (one record per line, `meta` first,
/// trailing newline).
pub fn jsonl(report: &RunReport) -> String {
    let mut out = String::new();
    for record in records(report) {
        let line = serde_json::to_string(&Raw(Value::Map(record))).expect("jsonl serialize");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Writes the report's JSON lines to `results/{name}.jsonl`.
pub fn write_jsonl(name: &str, report: &RunReport) {
    crate::write_result(&format!("{name}.jsonl"), &jsonl(report), "trace report");
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

/// Validates a JSON-lines document against the exporter schema: every
/// line parses as an object whose `kind` names a field table and whose
/// other keys are exactly that table's fields with that table's types
/// (a missing, mistyped, or unknown field is reported with its line
/// number); the first record is `meta` carrying [`SCHEMA_VERSION`] —
/// no other version is accepted — and `totals`, `cache`, and
/// `resilience` appear exactly once.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn validate_jsonl(text: &str) -> Result<JsonlSummary, String> {
    let schema = schema();
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
        let Some((_, fields)) = schema.iter().find(|(k, _)| *k == kind) else {
            return Err(format!("line {line}: unknown record kind `{kind}`"));
        };
        if summary.records == 0 {
            if kind != "meta" {
                return Err(format!(
                    "line {line}: first record must be `meta`, got `{kind}`"
                ));
            }
            match get(map, "schema_version") {
                Some(Value::U(v)) if *v == SCHEMA_VERSION as u128 => {
                    summary.schema_version = SCHEMA_VERSION;
                }
                Some(Value::U(v)) => {
                    return Err(format!(
                        "line {line}: schema_version {v} (this validator accepts only \
                         {SCHEMA_VERSION}; regenerate the document)"
                    ));
                }
                _ => return Err(format!("line {line}: missing numeric `schema_version`")),
            }
        } else if kind == "meta" {
            return Err(format!("line {line}: duplicate `meta` record"));
        }
        for (name, ty) in fields {
            match get(map, name) {
                Some(v) if ty.admits(v) => {}
                Some(other) => {
                    return Err(format!(
                        "line {line}: field `{name}` must be {ty:?}, found {other:?}"
                    ));
                }
                None => return Err(format!("line {line}: missing field `{name}`")),
            }
        }
        if let Some((key, _)) = map
            .iter()
            .find(|(key, _)| key != "kind" && !fields.iter().any(|(name, _)| name == key))
        {
            return Err(format!(
                "line {line}: unknown field `{key}` on `{kind}` record"
            ));
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

/// Renders the report as the text the binaries print, from the records
/// [`jsonl`] emits: every field of every record kind appears under its
/// JSONL name, so the text has no column list of its own. Kinds with one
/// record per document print one `name value` pair per line, the others
/// a header of names over one line per record; `trace` and `postmortem`
/// records are hierarchies and have their own renderers
/// ([`render_trace_trees`], [`render_postmortems`]).
pub fn render_summary(report: &RunReport) -> String {
    use std::fmt::Write as _;

    let mut out = format!(
        "\n== run report: {} / {} ==\n",
        report.experiment, report.scheme
    );
    let one_record = [
        META.kind,
        TOTALS.kind,
        CACHE.kind,
        RESILIENCE.kind,
        REDUNDANCY.kind,
    ];
    for group in records(report).chunk_by(|a, b| a[0].1 == b[0].1) {
        let kind = cell(&group[0][0].1);
        if kind == TRACE.kind || kind == POSTMORTEM.kind {
            continue;
        }
        let names = group[0][1..].iter().map(|(name, _)| name.clone());
        let values = |record: &Record| -> Vec<String> {
            record[1..].iter().map(|(_, value)| cell(value)).collect()
        };
        let grid: Vec<Vec<String>> = if one_record.contains(&kind.as_str()) {
            let pairs = names.zip(values(&group[0]));
            pairs.map(|(name, value)| vec![name, value]).collect()
        } else {
            let header = std::iter::once(names.collect());
            header.chain(group.iter().map(values)).collect()
        };
        let width = |column: usize| grid.iter().map(|line| line[column].len()).max();
        let widths: Vec<usize> = (0..grid[0].len()).filter_map(width).collect();
        let _ = writeln!(out, "\n{kind}");
        for line in &grid {
            for (text, width) in line.iter().zip(&widths) {
                let _ = write!(out, "  {text:>width$}");
            }
            out.push('\n');
        }
    }
    out
}

/// A value as summary text: floats to three decimals, strings bare,
/// everything else as its JSON.
fn cell(value: &Value) -> String {
    match value {
        Value::F(v) => format!("{v:.3}"),
        Value::Str(v) => v.clone(),
        other => serde_json::to_string(&Raw(other.clone())).expect("summary cell serialize"),
    }
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
    use std::collections::BTreeSet;

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

        // Any other schema version, newer or older, named in the message.
        for version in [SCHEMA_VERSION + 1, SCHEMA_VERSION - 1] {
            let other = good.replacen(
                &format!("\"schema_version\":{SCHEMA_VERSION}"),
                &format!("\"schema_version\":{version}"),
                1,
            );
            assert!(validate_jsonl(&other)
                .unwrap_err()
                .contains(&format!("schema_version {version}")));
        }

        // Unknown kind (`shard`, `replication` and `parity_group` are no
        // longer ones the validator knows).
        for kind in ["mystery", "shard", "replication", "parity_group"] {
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
        assert!(text.contains("run report: unit_test / Reo-20%"), "{text}");
        // Every field of every emitted record is in the text under its
        // JSONL name (trace trees have their own renderer).
        for record in records(&report) {
            let kind = cell(&record[0].1);
            if kind == TRACE.kind {
                continue;
            }
            let section = text
                .split("\n\n")
                .find(|section| section.starts_with(&kind))
                .unwrap_or_else(|| panic!("summary has no `{kind}` section:\n{text}"));
            for (field, value) in &record[1..] {
                assert!(
                    section.contains(field.as_str()) && section.contains(&cell(value)),
                    "`{kind}` section misses `{field}` = {value:?}:\n{section}"
                );
            }
        }
    }

    fn cascade_report() -> RunReport {
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
        collect_run_report("cascade_unit", "Reo-20%", &system, &result)
    }

    #[test]
    fn resilience_record_reports_faults_when_they_happen() {
        let report = cascade_report();
        assert!(report.resilience.health_transitions > 0);
        let text = jsonl(&report);
        validate_jsonl(&text).expect("faulted run still validates");
        assert!(text.contains("\"kind\":\"resilience\""));
    }

    fn scaleout_jsonl() -> String {
        use reo_core::{ClusterSystem, PlannedEvent, Redundancy};
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(11);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster = ClusterSystem::new(config, 4).with_redundancy(Redundancy::two_way());
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(200, PlannedEvent::FailTarget(1))
        .with_event(400, PlannedEvent::RestoreTarget(1));
        cluster.run(&trace, &plan);
        let report = collect_cluster_report("scaleout_unit", "Reo-20%", &cluster);
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
        use reo_core::{ClusterSystem, PlannedEvent, Redundancy};
        let trace = WorkloadSpec::medium()
            .with_objects(80)
            .with_requests(600)
            .generate(13);
        let config = reo_core::SystemConfig::paper_defaults(
            SchemeConfig::Reo { reserve: 0.20 },
            trace.summary().data_set_bytes.scale(0.25),
        );
        let mut cluster = ClusterSystem::new(config, 4).with_redundancy(Redundancy::reo(3, 1));
        let plan = ExperimentPlan {
            warmup_passes: 1,
            ..Default::default()
        }
        .with_event(150, PlannedEvent::FailTarget(1))
        .with_event(450, PlannedEvent::RestoreTarget(1));
        cluster.run(&trace, &plan);
        let report = collect_cluster_report("parity_unit", "Reo-20%", &cluster);
        jsonl(&report)
    }

    #[test]
    fn redundancy_record_round_trips_through_the_validator() {
        let replicated = validate_jsonl(&scaleout_jsonl()).expect("2-way report validates");
        assert_eq!(replicated.kinds["redundancy"], 1, "singleton record");
        let text = parity_jsonl();
        let summary = validate_jsonl(&text).expect("parity report must validate");
        assert_eq!(summary.schema_version, SCHEMA_VERSION);
        assert_eq!(summary.kinds["redundancy"], 1, "singleton record");
        assert!(text.contains("\"data_shards\":3"));
        assert!(text.contains("\"parity_shards\":1"));
        assert!(text.contains("\"protects_cold_clean\":false"));
        assert!(text.contains("\"served_by_parity\""));
        assert!(text.contains("\"parity_serves\""));
        assert!(text.contains("\"overhead_pct\""));
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

    /// The three exported documents, pinned across commits: a moved hash
    /// means a record, field or value of the export changed.
    #[test]
    fn exported_reports_are_pinned() {
        use std::hash::{Hash, Hasher};
        let hash = |text: &str| {
            let mut hasher = reo_sim::FastHasher::default();
            text.hash(&mut hasher);
            hasher.finish()
        };
        let hashes = [
            hash(&scaleout_jsonl()),
            hash(&parity_jsonl()),
            hash(&jsonl(&traced_report())),
        ];
        assert_eq!(
            hashes,
            [
                0x25cc_7dfe_8151_1067,
                0x1eae_b7b9_d5b3_9d0a,
                0xa5a6_9f06_d30e_c6dd
            ],
            "{hashes:#018x?}"
        );
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
        let report = cascade_report();
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

    /// Re-serializes `lines` with line `at` replaced by `record`.
    fn with_line(lines: &[Record], at: usize, record: Record) -> String {
        let mut out = String::new();
        for (i, original) in lines.iter().enumerate() {
            let record = if i == at { &record } else { original };
            let line = serde_json::to_string(&Raw(Value::Map(record.clone()))).expect("serialize");
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    #[test]
    fn every_field_of_every_record_kind_is_required_and_typed() {
        let mut traced = traced_report();
        traced.perf = vec![PerfPoint {
            bench: "erasure_encode".to_string(),
            value: 3.25,
            unit: "GiB/s".to_string(),
        }];
        let documents = [jsonl(&traced), scaleout_jsonl(), parity_jsonl()];

        let mut seen = BTreeSet::new();
        for text in &documents {
            let summary = validate_jsonl(text).expect("own output must validate");
            seen.extend(summary.kinds.into_keys());
            let lines: Vec<Record> = text
                .lines()
                .map(|l| match serde_json::from_str(l).expect("parse") {
                    Raw(Value::Map(record)) => record,
                    Raw(other) => panic!("not an object: {other:?}"),
                })
                .collect();
            assert_eq!(&with_line(&lines, 0, lines[0].clone()), text, "round trip");

            let rejected = |at: usize, record: Record, field: &str, what: &str| {
                let err = validate_jsonl(&with_line(&lines, at, record))
                    .expect_err(&format!("line {}: {what} `{field}` must fail", at + 1));
                assert!(err.starts_with(&format!("line {}: ", at + 1)), "{err}");
                assert!(err.contains(&format!("`{field}`")), "{what}: {err}");
            };
            for (at, record) in lines.iter().enumerate() {
                for (k, (field, value)) in record.iter().enumerate() {
                    let mut without = record.clone();
                    without.remove(k);
                    rejected(at, without, field, "deleting");
                    let number = matches!(value, Value::U(_) | Value::I(_) | Value::F(_));
                    let mut mistyped = record.clone();
                    mistyped[k].1 = if number { s("7") } else { u(7) };
                    rejected(at, mistyped, field, "mistyping");
                }
                let mut extra = record.clone();
                extra.push(("bogus".to_string(), u(3)));
                rejected(at, extra, "bogus", "adding");
            }
        }
        let kinds: BTreeSet<String> = schema().iter().map(|(kind, _)| kind.to_string()).collect();
        assert_eq!(seen, kinds, "the three documents hold every record kind");
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
