//! The four evaluation metrics — space efficiency, hit ratio, bandwidth,
//! latency — extended with the observability dimensions the exporter
//! reports: per-redundancy-class counters, requested-vs-device byte
//! accounting (amplification), and a periodic time-series window.

use std::ops::{Add, Sub};

use reo_osd::ObjectClass;
use reo_sim::{ByteSize, Histogram, SimDuration, SimTime};

/// One completed request, as the system reports it to [`Metrics::record`]:
/// what the request itself decided. What the layers under it counted
/// meanwhile (device and backend bytes, faults, journal activity) arrives
/// separately, through [`Metrics::note_layers`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestSample {
    /// `true` for reads, `false` for writes.
    pub is_read: bool,
    /// `true` if a read was served from cache.
    pub hit: bool,
    /// `true` if serving required on-the-fly reconstruction.
    pub degraded: bool,
    /// The redundancy class that served the request (`None` for misses,
    /// write-throughs, and offline operation).
    pub class: Option<ObjectClass>,
    /// Bytes the client requested.
    pub requested: ByteSize,
    /// End-to-end request latency.
    pub latency: SimDuration,
    /// Completion instant.
    pub completed_at: SimTime,
    /// `true` when the request completed successfully from the client's
    /// point of view (recovered errors count as available; hard errors
    /// and `NotReady` shedding do not). Feeds the availability SLO.
    pub ok: bool,
}

impl RequestSample {
    /// An available request served by no class — enough for the paper's
    /// four headline metrics.
    pub fn basic(
        is_read: bool,
        hit: bool,
        degraded: bool,
        requested: ByteSize,
        latency: SimDuration,
        completed_at: SimTime,
    ) -> Self {
        RequestSample {
            is_read,
            hit,
            degraded,
            class: None,
            requested,
            latency,
            completed_at,
            ok: true,
        }
    }

    /// Sets the availability outcome (see [`RequestSample::ok`]).
    pub fn with_ok(mut self, ok: bool) -> Self {
        self.ok = ok;
        self
    }
}

/// Label of a per-class accumulator row: one of the paper's four
/// redundancy classes, or the pseudo-class for requests no cached object
/// served (misses, write-throughs, offline).
pub const CLASS_LABELS: [&str; 5] = ["metadata", "dirty", "hot_clean", "cold_clean", "uncached"];

pub(crate) fn class_slot(class: Option<ObjectClass>) -> usize {
    match class {
        Some(ObjectClass::Metadata) => 0,
        Some(ObjectClass::Dirty) => 1,
        Some(ObjectClass::HotClean) => 2,
        Some(ObjectClass::ColdClean) => 3,
        None => 4,
    }
}

/// Per-redundancy-class measurements over an interval.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClassSnapshot {
    /// Which row this is (see [`CLASS_LABELS`]).
    pub label: &'static str,
    /// Requests attributed to the class.
    pub requests: u64,
    /// Reads attributed to the class.
    pub reads: u64,
    /// Reads served from cache.
    pub read_hits: u64,
    /// Writes attributed to the class.
    pub writes: u64,
    /// Reads served via reconstruction.
    pub degraded_reads: u64,
    /// Requested bytes.
    pub requested_bytes: ByteSize,
    /// Mean request latency.
    pub mean_latency: SimDuration,
    /// 99th-percentile request latency.
    pub p99_latency: SimDuration,
}

impl ClassSnapshot {
    /// Read hit ratio in percent; 0 when no reads were observed.
    pub fn hit_ratio_pct(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            100.0 * self.read_hits as f64 / self.reads as f64
        }
    }
}

/// One per-target row of a cluster-level snapshot: the blast-radius
/// view. Single-target runs leave [`MetricsSnapshot::targets`] empty;
/// the cluster layer fills one row per target it routed requests to.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TargetMetricsRow {
    /// The target's index (its `TargetId`).
    pub target: usize,
    /// The target's health label at snapshot time ("healthy",
    /// "degraded(1)", …, or the cluster-level "down" / "removed").
    pub health: String,
    /// Requests routed to this target (degraded backend-first serves
    /// during its outages included).
    pub requests: u64,
    /// Read requests routed to this target.
    pub reads: u64,
    /// Reads served from the target's cache.
    pub read_hits: u64,
    /// Reads answered degraded: on-the-fly reconstruction on the target,
    /// or backend-first service while the target was down.
    pub degraded_reads: u64,
    /// Requests shed with `NotReady` (target down and backend unable to
    /// serve).
    pub shed_requests: u64,
    /// Outages (`FailTarget` events) this target suffered.
    pub outages: u64,
    /// Duration of the target's latest fail→restore window in
    /// microseconds (`-1` if it never went down or has not returned).
    pub rebuild_window_us: i64,
    /// Objects migrated *into* this target by ring-delta rebalancing.
    pub migrated_in: u64,
    /// Objects migrated *out of* this target by ring-delta rebalancing.
    pub migrated_out: u64,
    /// Requests for this target's range served at full speed from a
    /// replica holder's cache while the target was down.
    pub replica_serves: u64,
    /// Reads of this target's range answered by degraded erasure
    /// reconstruction from its parity-group peers while it was down.
    pub parity_serves: u64,
    /// Completion sense-code mix as `(label, count)` rows sorted by
    /// label — the per-target honesty ledger (e.g. an unaffected target
    /// must show the same mix as a no-fault baseline).
    pub sense_mix: Vec<(String, u64)>,
}

impl TargetMetricsRow {
    /// Read hit ratio in percent; 0 when no reads were observed.
    pub fn hit_ratio_pct(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            100.0 * self.read_hits as f64 / self.reads as f64
        }
    }
}

/// Default per-class latency SLO thresholds, aligned with the service
/// models: metadata is replicated and tiny, dirty writes absorb parity,
/// cold-clean reads may touch the backend, uncached requests always do.
pub const SLO_LATENCY_THRESHOLDS_MS: [u64; 5] = [5, 50, 25, 100, 500];

/// Fraction of requests that must complete under the class threshold.
pub const SLO_LATENCY_TARGET_PCT: f64 = 99.0;

/// Fraction of requests that must complete available (see
/// [`RequestSample::ok`]).
pub const SLO_AVAILABILITY_TARGET_PCT: f64 = 99.9;

/// Fast burn-rate window, in simulated seconds ("page now" signal).
pub const SLO_FAST_WINDOW_SECS: u64 = 5;

/// Slow burn-rate window, in simulated seconds ("ticket" signal).
pub const SLO_SLOW_WINDOW_SECS: u64 = 60;

/// Per-class service-level objective state, surfaced in
/// [`MetricsSnapshot::slos`]. Carries raw counters (lifetime and per
/// burn-rate window) so cluster-level snapshots can merge rows across
/// targets and recompute the derived rates exactly.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SloSnapshot {
    /// The class row label (see [`CLASS_LABELS`]).
    pub class: &'static str,
    /// Latency objective: requests must finish under this threshold.
    pub latency_threshold: SimDuration,
    /// Fraction of requests (percent) that must meet the threshold.
    pub latency_target_pct: f64,
    /// Fraction of requests (percent) that must complete available.
    pub availability_target_pct: f64,
    /// Requests observed since the last reset.
    pub requests: u64,
    /// Requests that missed the latency threshold.
    pub latency_breaches: u64,
    /// Requests that completed unavailable (`ok == false`).
    pub errors: u64,
    /// Requests in the trailing fast window.
    pub fast_requests: u64,
    /// Latency breaches in the trailing fast window.
    pub fast_latency_breaches: u64,
    /// Errors in the trailing fast window.
    pub fast_errors: u64,
    /// Requests in the trailing slow window.
    pub slow_requests: u64,
    /// Latency breaches in the trailing slow window.
    pub slow_latency_breaches: u64,
    /// Errors in the trailing slow window.
    pub slow_errors: u64,
}

fn burn_rate(bad: u64, total: u64, target_pct: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let budget = (100.0 - target_pct) / 100.0;
    if budget <= 0.0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

fn compliance_pct(bad: u64, total: u64) -> f64 {
    if total == 0 {
        100.0
    } else {
        100.0 * (total - bad) as f64 / total as f64
    }
}

impl SloSnapshot {
    /// Lifetime latency compliance in percent (100 when idle).
    pub fn latency_compliance_pct(&self) -> f64 {
        compliance_pct(self.latency_breaches, self.requests)
    }

    /// Lifetime availability in percent (100 when idle).
    pub fn availability_pct(&self) -> f64 {
        compliance_pct(self.errors, self.requests)
    }

    /// Latency burn rate over the fast window: the rate at which the
    /// error budget `1 - target` is being consumed (1.0 = exactly on
    /// budget, >1 = burning faster than the objective allows).
    pub fn latency_burn_fast(&self) -> f64 {
        burn_rate(
            self.fast_latency_breaches,
            self.fast_requests,
            self.latency_target_pct,
        )
    }

    /// Latency burn rate over the slow window.
    pub fn latency_burn_slow(&self) -> f64 {
        burn_rate(
            self.slow_latency_breaches,
            self.slow_requests,
            self.latency_target_pct,
        )
    }

    /// Availability burn rate over the fast window.
    pub fn availability_burn_fast(&self) -> f64 {
        burn_rate(
            self.fast_errors,
            self.fast_requests,
            self.availability_target_pct,
        )
    }

    /// Availability burn rate over the slow window.
    pub fn availability_burn_slow(&self) -> f64 {
        burn_rate(
            self.slow_errors,
            self.slow_requests,
            self.availability_target_pct,
        )
    }

    /// Folds another target's row for the same class into this one
    /// (cluster-level aggregation). Objectives must match; counters add.
    pub fn merge(&mut self, other: &SloSnapshot) {
        debug_assert_eq!(self.class, other.class);
        self.requests += other.requests;
        self.latency_breaches += other.latency_breaches;
        self.errors += other.errors;
        self.fast_requests += other.fast_requests;
        self.fast_latency_breaches += other.fast_latency_breaches;
        self.fast_errors += other.fast_errors;
        self.slow_requests += other.slow_requests;
        self.slow_latency_breaches += other.slow_latency_breaches;
        self.slow_errors += other.slow_errors;
    }
}

/// One simulated second of SLO counters (the burn-rate windows are
/// sliding sums over these buckets).
#[derive(Clone, Debug, Default)]
struct SloBucket {
    second: u64,
    requests: u64,
    latency_breaches: u64,
    errors: u64,
}

/// Per-class SLO accumulator: lifetime counters plus a bounded deque of
/// per-second buckets covering the slow window. The deque is made at the
/// window's length and never holds more, so recording allocates nothing.
#[derive(Clone, Debug)]
struct SloClassAccum {
    requests: u64,
    latency_breaches: u64,
    errors: u64,
    buckets: std::collections::VecDeque<SloBucket>,
}

impl Default for SloClassAccum {
    fn default() -> Self {
        SloClassAccum {
            requests: 0,
            latency_breaches: 0,
            errors: 0,
            buckets: std::collections::VecDeque::with_capacity(SLO_SLOW_WINDOW_SECS as usize),
        }
    }
}

impl SloClassAccum {
    fn record(&mut self, second: u64, breach: bool, error: bool) {
        self.requests += 1;
        self.latency_breaches += u64::from(breach);
        self.errors += u64::from(error);
        // Completion times are monotone per system; a merged-clock
        // straggler folds into the newest bucket to stay deterministic.
        let fold_into_back = self
            .buckets
            .back()
            .is_some_and(|back| second <= back.second);
        if fold_into_back {
            let back = self.buckets.back_mut().expect("non-empty deque");
            back.requests += 1;
            back.latency_breaches += u64::from(breach);
            back.errors += u64::from(error);
        } else {
            // Buckets older than the window go before the new one comes:
            // the seconds are distinct, so at most the window's length stay.
            let horizon = second.saturating_sub(SLO_SLOW_WINDOW_SECS - 1);
            while self
                .buckets
                .front()
                .is_some_and(|front| front.second < horizon)
            {
                self.buckets.pop_front();
            }
            self.buckets.push_back(SloBucket {
                second,
                requests: 1,
                latency_breaches: u64::from(breach),
                errors: u64::from(error),
            });
        }
    }

    fn window(&self, latest: u64, span_secs: u64) -> (u64, u64, u64) {
        let from = latest.saturating_sub(span_secs - 1);
        let mut totals = (0, 0, 0);
        for b in self.buckets.iter().filter(|b| b.second >= from) {
            totals.0 += b.requests;
            totals.1 += b.latency_breaches;
            totals.2 += b.errors;
        }
        totals
    }

    fn snapshot(&self, class: usize) -> SloSnapshot {
        let latest = self.buckets.back().map(|b| b.second).unwrap_or(0);
        let (fast_requests, fast_latency_breaches, fast_errors) =
            self.window(latest, SLO_FAST_WINDOW_SECS);
        let (slow_requests, slow_latency_breaches, slow_errors) =
            self.window(latest, SLO_SLOW_WINDOW_SECS);
        SloSnapshot {
            class: CLASS_LABELS[class],
            latency_threshold: SimDuration::from_millis(SLO_LATENCY_THRESHOLDS_MS[class]),
            latency_target_pct: SLO_LATENCY_TARGET_PCT,
            availability_target_pct: SLO_AVAILABILITY_TARGET_PCT,
            requests: self.requests,
            latency_breaches: self.latency_breaches,
            errors: self.errors,
            fast_requests,
            fast_latency_breaches,
            fast_errors,
            slow_requests,
            slow_latency_breaches,
            slow_errors,
        }
    }
}

/// The SLO monitor: per-class latency/availability objectives with
/// multi-window burn rates over simulated time.
#[derive(Clone, Debug, Default)]
struct SloMonitor {
    classes: [SloClassAccum; 5],
}

impl SloMonitor {
    fn record(&mut self, sample: &RequestSample) {
        let slot = class_slot(sample.class);
        let second = sample.completed_at.as_nanos() / 1_000_000_000;
        let breach = sample.latency > SimDuration::from_millis(SLO_LATENCY_THRESHOLDS_MS[slot]);
        self.classes[slot].record(second, breach, !sample.ok);
    }

    fn snapshot(&self) -> Vec<SloSnapshot> {
        self.classes
            .iter()
            .enumerate()
            .filter(|(_, c)| c.requests > 0)
            .map(|(slot, c)| c.snapshot(slot))
            .collect()
    }
}

/// A snapshot of the measurements over some interval.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests observed (reads + writes).
    pub requests: u64,
    /// Read requests observed.
    pub reads: u64,
    /// Read requests served from cache.
    pub read_hits: u64,
    /// Write requests observed (absorbed by the write-back cache).
    pub writes: u64,
    /// Reads served via on-the-fly reconstruction.
    pub degraded_reads: u64,
    /// Bytes clients requested (reads + writes) — the paper-comparable
    /// bandwidth numerator.
    pub requested_bytes: ByteSize,
    /// The write portion of [`MetricsSnapshot::requested_bytes`].
    pub requested_write_bytes: ByteSize,
    /// Flash-array bytes moved, parity and housekeeping included.
    pub device_bytes: ByteSize,
    /// The write portion of [`MetricsSnapshot::device_bytes`].
    pub device_write_bytes: ByteSize,
    /// Backend bytes moved (miss fills and write-back flushes).
    pub backend_bytes: ByteSize,
    /// Wall-clock (simulated) span of the interval.
    pub elapsed: SimDuration,
    /// Mean request latency.
    pub mean_latency: SimDuration,
    /// 99th-percentile request latency.
    pub p99_latency: SimDuration,
    /// Medium errors the flash surfaced (degraded reads and scrub hits on
    /// corrupt chunks).
    pub medium_errors: u64,
    /// In-place repairs (read-repair and scrubber rewrites).
    pub repairs: u64,
    /// Completed background-scrubber passes over the object index.
    pub scrub_passes: u64,
    /// Reads whose cache copy was damaged beyond the stripe's tolerance:
    /// served correctly from the backend and counted as misses.
    pub unrecoverable_fallbacks: u64,
    /// Records appended to the write-ahead metadata journal.
    pub journal_appends: u64,
    /// Journal checkpoints taken (superblock flips).
    pub checkpoint_count: u64,
    /// Journal records replayed by restart recoveries.
    pub replayed_records: u64,
    /// Restart recoveries that found (and discarded) a torn log tail.
    pub torn_tail_detected: u64,
    /// Total simulated time spent in restart recovery, in microseconds.
    pub recovery_duration_us: u64,
    /// Requests served at full speed from a replica holder's cache while
    /// the owning target was down (cluster runs with a replication
    /// policy; these count as successes in SLO availability).
    pub served_by_replica: u64,
    /// Reads answered by degraded erasure reconstruction from the down
    /// owner's parity-group peers (cluster runs with a parity-group
    /// policy; honest `RecoveredError` serves that count as available in
    /// SLO burn, like replica serves).
    pub served_by_parity: u64,
    /// Per-redundancy-class breakdown (empty when nothing was recorded).
    pub classes: Vec<ClassSnapshot>,
    /// Per-target breakdown of a cluster run (empty on single-target
    /// runs; filled by the cluster layer).
    pub targets: Vec<TargetMetricsRow>,
    /// Per-class SLO state with multi-window burn rates. Filled by
    /// [`Metrics::totals`] (window/sample snapshots leave it empty —
    /// the burn-rate windows already slide on their own).
    pub slos: Vec<SloSnapshot>,
}

impl MetricsSnapshot {
    /// Read hit ratio in percent (the paper's "Hit Ratio (%)"); 0 when no
    /// reads were observed.
    pub fn hit_ratio_pct(&self) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            100.0 * self.read_hits as f64 / self.reads as f64
        }
    }

    /// Bandwidth in MiB per simulated second (the paper's "Bandwidth
    /// (MB/sec)"), over *requested* bytes; 0 when no time elapsed.
    pub fn bandwidth_mib_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.requested_bytes.as_mib_f64() / secs
        }
    }

    /// Mean latency in milliseconds (the paper's "Latency (ms)").
    pub fn mean_latency_ms(&self) -> f64 {
        self.mean_latency.as_millis_f64()
    }

    /// Flash bytes moved per requested byte (reads + writes); 0 when
    /// nothing was requested. Values above 1 measure redundancy, garbage
    /// collection, and housekeeping overhead.
    pub fn amplification(&self) -> f64 {
        ratio(self.device_bytes, self.requested_bytes)
    }

    /// Flash bytes written per requested write byte; 0 when no writes
    /// were requested. The paper's parity/replication overhead surfaces
    /// here (e.g. 3-replicated dirty objects write ≥ 3×).
    pub fn write_amplification(&self) -> f64 {
        ratio(self.device_write_bytes, self.requested_write_bytes)
    }

    /// Flash bytes read per requested read byte; 0 when no reads were
    /// requested. Degraded reads and scrub traffic push this above the
    /// hit-serving baseline.
    pub fn read_amplification(&self) -> f64 {
        ratio(
            self.device_bytes.saturating_sub(self.device_write_bytes),
            self.requested_bytes
                .saturating_sub(self.requested_write_bytes),
        )
    }

    /// The row for `label`, if any requests were attributed to it.
    pub fn class(&self, label: &str) -> Option<&ClassSnapshot> {
        self.classes.iter().find(|c| c.label == label)
    }

    /// Folds `other` into `self`, counter by counter: `self.x = op(self.x,
    /// other.x)`. This is the one list of the snapshot's additive fields —
    /// an interval is a subtraction over it, the run-wide row and the
    /// cluster's are sums over it — so a new additive counter is named
    /// here and nowhere else. `elapsed`, mean/p99 latency and the row
    /// vectors are not additive and stay the caller's.
    pub(crate) fn combine(&mut self, other: &MetricsSnapshot, op: fn(u64, u64) -> u64) {
        let count = |mine: &mut u64, theirs: u64| *mine = op(*mine, theirs);
        count(&mut self.requests, other.requests);
        count(&mut self.reads, other.reads);
        count(&mut self.read_hits, other.read_hits);
        count(&mut self.writes, other.writes);
        count(&mut self.degraded_reads, other.degraded_reads);
        count(&mut self.medium_errors, other.medium_errors);
        count(&mut self.repairs, other.repairs);
        count(&mut self.scrub_passes, other.scrub_passes);
        count(
            &mut self.unrecoverable_fallbacks,
            other.unrecoverable_fallbacks,
        );
        count(&mut self.journal_appends, other.journal_appends);
        count(&mut self.checkpoint_count, other.checkpoint_count);
        count(&mut self.replayed_records, other.replayed_records);
        count(&mut self.torn_tail_detected, other.torn_tail_detected);
        count(&mut self.recovery_duration_us, other.recovery_duration_us);
        count(&mut self.served_by_replica, other.served_by_replica);
        count(&mut self.served_by_parity, other.served_by_parity);
        let bytes = |mine: &mut ByteSize, theirs: ByteSize| {
            *mine = ByteSize::from_bytes(op(mine.as_bytes(), theirs.as_bytes()));
        };
        bytes(&mut self.requested_bytes, other.requested_bytes);
        bytes(&mut self.requested_write_bytes, other.requested_write_bytes);
        bytes(&mut self.device_bytes, other.device_bytes);
        bytes(&mut self.device_write_bytes, other.device_write_bytes);
        bytes(&mut self.backend_bytes, other.backend_bytes);
    }
}

fn ratio(num: ByteSize, den: ByteSize) -> f64 {
    if den.is_zero() {
        0.0
    } else {
        num.as_bytes() as f64 / den.as_bytes() as f64
    }
}

/// Accumulates measurements: one running accumulator every request is
/// recorded into once, and two *marks* — copies of it taken at the last
/// [`Metrics::roll_window`] (the failure experiments report per-window
/// values between injection points) and the last [`Metrics::roll_sample`]
/// (the time-series recorder's independent interval). Every counter is a
/// sum and a [`Histogram`] is a vector of bucket counts, so an interval is
/// exactly the accumulator now minus the accumulator at its mark.
#[derive(Clone, Debug)]
pub struct Metrics {
    running: Accum,
    /// `None` until the first roll (the interval then starts where
    /// `running` does), so a run that never rolls never copies.
    window: Option<Box<Accum>>,
    sample: Option<Box<Accum>>,
    slo: SloMonitor,
}

/// One class row's running state: its counters, held in the
/// [`MetricsSnapshot`] fields they sum into, and its latency histogram.
#[derive(Clone, Debug, Default)]
struct ClassAccum {
    counters: MetricsSnapshot,
    latency: Histogram,
}

/// Cumulative measurements since `started_at`. A request is counted in
/// exactly one class slot; the run-wide request counters and latencies
/// exist only as the sum and merge over the slots, taken at snapshot
/// time. `served_by_replica`, `served_by_parity`, `targets` and `slos`
/// stay empty here (the cluster layer and [`Metrics::totals`] fill them).
#[derive(Clone, Debug)]
struct Accum {
    started_at: SimTime,
    last_seen: SimTime,
    /// The counters no class owns: what [`Metrics::note_layers`],
    /// [`Metrics::note_fallback`] and [`Metrics::note_recovery`] report.
    layers: MetricsSnapshot,
    /// One slot per [`CLASS_LABELS`] entry, allocated on first use.
    classes: [Option<Box<ClassAccum>>; 5],
}

impl Accum {
    fn new(now: SimTime) -> Self {
        Accum {
            started_at: now,
            last_seen: now,
            layers: MetricsSnapshot::default(),
            classes: [None, None, None, None, None],
        }
    }

    fn record(&mut self, sample: &RequestSample) {
        let class = self.classes[class_slot(sample.class)].get_or_insert_with(Box::default);
        let c = &mut class.counters;
        c.requests += 1;
        if sample.is_read {
            c.reads += 1;
            if sample.hit {
                c.read_hits += 1;
            }
            if sample.degraded {
                c.degraded_reads += 1;
            }
        } else {
            c.writes += 1;
            c.requested_write_bytes += sample.requested;
        }
        c.requested_bytes += sample.requested;
        class.latency.record(sample.latency);
        self.last_seen = sample.completed_at;
    }

    /// The interval from `mark` (an earlier copy of this accumulator; from
    /// `started_at` without one) to now. `classes` lists exactly the
    /// slots a request landed in during the interval, and `elapsed` runs
    /// from the interval's start to its last completion — zero when it
    /// saw no request.
    fn since(&self, mark: Option<&Accum>) -> MetricsSnapshot {
        let mut snap = self.layers.clone();
        if let Some(mark) = mark {
            snap.combine(&mark.layers, u64::sub);
        }
        let mut latency = Histogram::new();
        for (slot, class) in self.classes.iter().enumerate() {
            let Some(class) = class else { continue };
            let mut c = class.counters.clone();
            let interval;
            let class_latency = match mark.and_then(|m| m.classes[slot].as_deref()) {
                Some(earlier) => {
                    c.combine(&earlier.counters, u64::sub);
                    interval = class.latency.since(&earlier.latency);
                    &interval
                }
                None => &class.latency,
            };
            if c.requests == 0 {
                continue;
            }
            snap.combine(&c, u64::add);
            latency.merge(class_latency);
            snap.classes.push(ClassSnapshot {
                label: CLASS_LABELS[slot],
                requests: c.requests,
                reads: c.reads,
                read_hits: c.read_hits,
                writes: c.writes,
                degraded_reads: c.degraded_reads,
                requested_bytes: c.requested_bytes,
                mean_latency: class_latency.mean().unwrap_or(SimDuration::ZERO),
                p99_latency: class_latency.percentile(99.0).unwrap_or(SimDuration::ZERO),
            });
        }
        if snap.requests > 0 {
            let started_at = mark.map_or(self.started_at, |m| m.started_at);
            snap.elapsed = self.last_seen.saturating_since(started_at);
        }
        snap.mean_latency = latency.mean().unwrap_or(SimDuration::ZERO);
        snap.p99_latency = latency.percentile(99.0).unwrap_or(SimDuration::ZERO);
        snap
    }

    /// Closes the interval `mark` opened, returning its snapshot, and
    /// re-marks: the next interval starts at `now` from a copy of this
    /// accumulator.
    fn roll(&self, mark: &mut Option<Box<Accum>>, now: SimTime) -> MetricsSnapshot {
        let snap = self.since(mark.as_deref());
        *mark = Some(Box::new(Accum {
            started_at: now,
            ..self.clone()
        }));
        snap
    }
}

/// Width of a [`Metrics::note_layers`] reading.
pub const LAYER_COUNTERS: usize = 8;

impl Metrics {
    /// Creates metrics anchored at `now`.
    pub fn new(now: SimTime) -> Self {
        Metrics {
            running: Accum::new(now),
            window: None,
            sample: None,
            slo: SloMonitor::default(),
        }
    }

    /// Records one completed request into its class slot and the SLO
    /// monitor.
    pub fn record(&mut self, sample: RequestSample) {
        self.running.record(&sample);
        self.slo.record(&sample);
    }

    /// Adds what the layers under the cache manager counted since they
    /// were last read — all their traffic, housekeeping (flushes, scrubs,
    /// rebuilds) included, so the amplification totals stay exact. In
    /// order: flash bytes read, flash bytes written, backend bytes moved
    /// (miss fills and write-back flushes), medium errors, in-place
    /// repairs, completed scrub passes, journal records appended, journal
    /// checkpoints taken.
    pub fn note_layers(&mut self, delta: [u64; LAYER_COUNTERS]) {
        let [flash_read, flash_written, backend, rest @ ..] = delta;
        let [medium_errors, repairs, scrub_passes, journal_appends, checkpoints] = rest;
        let c = &mut self.running.layers;
        c.device_bytes += ByteSize::from_bytes(flash_read + flash_written);
        c.device_write_bytes += ByteSize::from_bytes(flash_written);
        c.backend_bytes += ByteSize::from_bytes(backend);
        c.medium_errors += medium_errors;
        c.repairs += repairs;
        c.scrub_passes += scrub_passes;
        c.journal_appends += journal_appends;
        c.checkpoint_count += checkpoints;
    }

    /// Counts one read whose cache copy was damaged beyond repair and was
    /// served from the backend instead.
    pub fn note_fallback(&mut self) {
        self.running.layers.unrecoverable_fallbacks += 1;
    }

    /// Records one completed restart recovery: records replayed, whether a
    /// torn log tail was detected, and the recovery's simulated duration.
    pub fn note_recovery(&mut self, replayed: u64, torn_tail: bool, duration_us: u64) {
        let c = &mut self.running.layers;
        c.replayed_records += replayed;
        c.torn_tail_detected += u64::from(torn_tail);
        c.recovery_duration_us += duration_us;
    }

    /// Snapshot since construction (or [`Metrics::reset_all`]),
    /// including the per-class SLO rows.
    pub fn totals(&self) -> MetricsSnapshot {
        let mut snap = self.running.since(None);
        snap.slos = self.slos();
        snap
    }

    /// The per-class SLO rows alone (what [`Metrics::totals`] carries in
    /// [`MetricsSnapshot::slos`]).
    pub fn slos(&self) -> Vec<SloSnapshot> {
        self.slo.snapshot()
    }

    /// Snapshot since the last [`Metrics::roll_window`].
    pub fn window(&self) -> MetricsSnapshot {
        self.running.since(self.window.as_deref())
    }

    /// Closes the current window, returning its snapshot, and starts a new
    /// one at `now`.
    pub fn roll_window(&mut self, now: SimTime) -> MetricsSnapshot {
        self.running.roll(&mut self.window, now)
    }

    /// Closes the current *sampling* window (the time-series recorder's
    /// interval — independent of [`Metrics::roll_window`], which the
    /// failure experiments own), returning its snapshot, and starts a new
    /// one at `now`.
    pub fn roll_sample(&mut self, now: SimTime) -> MetricsSnapshot {
        self.running.roll(&mut self.sample, now)
    }

    /// Clears everything (end of warm-up).
    pub fn reset_all(&mut self, now: SimTime) {
        *self = Metrics::new(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn sample(
        is_read: bool,
        hit: bool,
        degraded: bool,
        mib: u64,
        lat_ms: u64,
        at_ms: u64,
    ) -> RequestSample {
        RequestSample::basic(
            is_read,
            hit,
            degraded,
            ByteSize::from_mib(mib),
            SimDuration::from_millis(lat_ms),
            t(at_ms),
        )
    }

    const CLASSES: [Option<ObjectClass>; 5] = [
        Some(ObjectClass::Metadata),
        Some(ObjectClass::Dirty),
        Some(ObjectClass::HotClean),
        Some(ObjectClass::ColdClean),
        None,
    ];

    /// What an interval's snapshot must equal: the totals of a `Metrics`
    /// of its own, minus the SLO rows only totals carry.
    fn interval_of(reference: &Metrics) -> MetricsSnapshot {
        MetricsSnapshot {
            slos: Vec::new(),
            ..reference.totals()
        }
    }

    proptest! {
        /// Windows and samples are subtractions from one accumulator;
        /// each must report exactly what an accumulator of its own —
        /// anchored at its roll instant, fed only its interval's inputs —
        /// would, through any interleaving of inputs, rolls and resets.
        /// A roll's instant lies up to 30 ms either side of the last
        /// completion, so intervals can be empty, and their samples can
        /// all complete before they start.
        #[test]
        fn every_interval_equals_an_accumulator_of_its_own(
            steps in proptest::collection::vec(
                (0u32..12, 0usize..5, 0u32..64, 0u64..2_000_000_000, 0u64..60,
                 proptest::collection::vec(0u64..100_000, LAYER_COUNTERS)),
                1..120,
            ),
        ) {
            let mut now = 0;
            // The metrics under test, then one reference per interval:
            // totals, window, sample.
            let mut all = [(); 4].map(|()| Metrics::new(t(now)));
            for (kind, class, bits, nanos, ms, columns) in steps {
                let flag = |bit: u32| bits >> bit & 1 == 1;
                let at = t((now + ms).saturating_sub(30));
                match kind {
                    0..=3 => {
                        now += ms;
                        let sample = RequestSample {
                            is_read: flag(0),
                            hit: flag(0) && flag(1),
                            degraded: flag(0) && flag(2),
                            class: CLASSES[class],
                            requested: ByteSize::from_bytes(nanos % 4_000_000),
                            latency: SimDuration::from_nanos(nanos),
                            completed_at: t(now),
                            ok: flag(3) || flag(4),
                        };
                        all.iter_mut().for_each(|m| m.record(sample));
                    }
                    4 | 5 => {
                        let delta = columns.try_into().expect("one value per column");
                        all.iter_mut().for_each(|m| m.note_layers(delta));
                    }
                    6 => all.iter_mut().for_each(Metrics::note_fallback),
                    7 => all
                        .iter_mut()
                        .for_each(|m| m.note_recovery(columns[0], flag(0), columns[1])),
                    8 => {
                        prop_assert_eq!(all[0].roll_window(at), interval_of(&all[2]));
                        all[2] = Metrics::new(at);
                    }
                    9 | 10 => {
                        prop_assert_eq!(all[0].roll_sample(at), interval_of(&all[3]));
                        all[3] = Metrics::new(at);
                    }
                    _ => {
                        all[0].reset_all(t(now));
                        all[1..].fill(Metrics::new(t(now)));
                    }
                }
                prop_assert_eq!(all[0].totals(), all[1].totals());
                prop_assert_eq!(all[0].window(), interval_of(&all[2]));
            }
            prop_assert_eq!(all[0].roll_sample(t(now)), interval_of(&all[3]));
        }
    }

    #[test]
    fn hit_ratio_counts_reads_only() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, false, 1, 1, 1));
        m.record(sample(true, false, false, 1, 2, 2));
        m.record(sample(false, false, false, 1, 1, 3));
        let s = m.totals();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.hit_ratio_pct(), 50.0);
    }

    #[test]
    fn bandwidth_uses_simulated_elapsed_time() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, false, 100, 500, 500));
        let s = m.totals();
        assert_eq!(s.elapsed, SimDuration::from_millis(500));
        assert!((s.bandwidth_mib_s() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn window_rolls_independently_of_totals() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, false, 1, 1, 1));
        let w1 = m.roll_window(t(1));
        assert_eq!(w1.requests, 1);
        m.record(sample(true, false, false, 1, 1, 2));
        let w2 = m.window();
        assert_eq!(w2.requests, 1);
        assert_eq!(w2.hit_ratio_pct(), 0.0);
        assert_eq!(m.totals().requests, 2);
        assert_eq!(m.totals().hit_ratio_pct(), 50.0);
    }

    #[test]
    fn sample_window_rolls_independently_of_both() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, false, 1, 1, 1));
        let s1 = m.roll_sample(t(1));
        assert_eq!(s1.requests, 1);
        m.record(sample(true, false, false, 1, 1, 2));
        // The sampling roll must not have disturbed totals or window.
        assert_eq!(m.totals().requests, 2);
        assert_eq!(m.window().requests, 2);
        assert_eq!(m.roll_sample(t(2)).requests, 1);
    }

    #[test]
    fn empty_snapshot_is_all_zeroes() {
        let m = Metrics::new(SimTime::ZERO);
        let s = m.totals();
        assert_eq!(s.hit_ratio_pct(), 0.0);
        assert_eq!(s.bandwidth_mib_s(), 0.0);
        assert_eq!(s.mean_latency_ms(), 0.0);
        assert_eq!(s.amplification(), 0.0);
        assert_eq!(s.write_amplification(), 0.0);
        assert_eq!(s.read_amplification(), 0.0);
        assert!(s.classes.is_empty());
    }

    #[test]
    fn degraded_reads_tracked() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, true, 1, 3, 3));
        assert_eq!(m.totals().degraded_reads, 1);
    }

    #[test]
    fn reset_all_clears_everything() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, true, false, 1, 1, 1));
        m.reset_all(t(1));
        assert_eq!(m.totals().requests, 0);
        assert_eq!(m.window().requests, 0);
        assert_eq!(m.roll_sample(t(1)).requests, 0);
    }

    #[test]
    fn fault_counters_roll_with_the_window() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.note_layers([0, 0, 0, 3, 2, 1, 0, 0]);
        m.note_fallback();
        assert_eq!(m.totals().medium_errors, 3);
        assert_eq!(m.window().repairs, 2);
        let w = m.roll_window(t(1));
        assert_eq!(w.scrub_passes, 1);
        assert_eq!(w.unrecoverable_fallbacks, 1);
        assert_eq!(m.window().medium_errors, 0, "window reset");
        assert_eq!(m.totals().medium_errors, 3, "totals persist");
    }

    #[test]
    fn journal_and_recovery_counters_accumulate() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.note_layers([0, 0, 0, 0, 0, 0, 10, 1]);
        m.note_layers([0, 0, 0, 0, 0, 0, 5, 0]);
        m.note_recovery(7, true, 1_500);
        m.note_recovery(3, false, 500);
        let s = m.totals();
        assert_eq!(s.journal_appends, 15);
        assert_eq!(s.checkpoint_count, 1);
        assert_eq!(s.replayed_records, 10);
        assert_eq!(s.torn_tail_detected, 1);
        assert_eq!(s.recovery_duration_us, 2_000);
        let w = m.roll_window(t(1));
        assert_eq!(w.journal_appends, 15);
        assert_eq!(m.window().journal_appends, 0, "window reset");
        assert_eq!(m.totals().replayed_records, 10, "totals persist");
    }

    #[test]
    fn amplification_derives_from_byte_split() {
        let mut m = Metrics::new(SimTime::ZERO);
        // A 1 MiB write that moved 3 MiB on flash (3-replication).
        m.note_layers([0, 3 << 20, 0, 0, 0, 0, 0, 0]);
        m.record(sample(false, false, false, 1, 1, 1));
        let snap = m.totals();
        assert_eq!(snap.requested_bytes, ByteSize::from_mib(1));
        assert_eq!(snap.requested_write_bytes, ByteSize::from_mib(1));
        assert!((snap.write_amplification() - 3.0).abs() < 1e-9);
        assert!((snap.amplification() - 3.0).abs() < 1e-9);
        // Bandwidth stays requested-byte based (paper-comparable).
        assert!((snap.bandwidth_mib_s() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn slo_rows_track_breaches_errors_and_burn_rates() {
        let mut m = Metrics::new(SimTime::ZERO);
        // All requests are uncached (threshold 500 ms) in second 0.
        for i in 0..10 {
            m.record(sample(true, false, false, 1, 100, i + 1));
        }
        m.record(sample(true, false, false, 1, 600, 20)); // latency breach
        m.record(sample(true, false, false, 1, 100, 21).with_ok(false)); // unavailable
        let s = m.totals();
        assert_eq!(s.slos.len(), 1);
        let slo = &s.slos[0];
        assert_eq!(slo.class, "uncached");
        assert_eq!(slo.requests, 12);
        assert_eq!(slo.latency_breaches, 1);
        assert_eq!(slo.errors, 1);
        assert!((slo.latency_compliance_pct() - 100.0 * 11.0 / 12.0).abs() < 1e-9);
        assert!((slo.availability_pct() - 100.0 * 11.0 / 12.0).abs() < 1e-9);
        // Everything is inside both windows; burn = bad_fraction / budget.
        let bad = 1.0 / 12.0;
        assert!((slo.latency_burn_fast() - bad / 0.01).abs() < 1e-9);
        assert!((slo.latency_burn_slow() - bad / 0.01).abs() < 1e-9);
        assert!((slo.availability_burn_fast() - bad / 0.001).abs() < 1e-9);
    }

    #[test]
    fn slo_burn_windows_slide_with_simulated_time() {
        let mut m = Metrics::new(SimTime::ZERO);
        // Second 0: two breaches. Second 100: one clean request.
        m.record(sample(true, false, false, 1, 900, 10));
        m.record(sample(true, false, false, 1, 900, 20));
        m.record(sample(true, false, false, 1, 100, 100_500));
        let s = m.totals();
        let slo = &s.slos[0];
        assert_eq!(slo.latency_breaches, 2, "lifetime counters persist");
        // The old breaches fell out of both trailing windows.
        assert_eq!(slo.fast_requests, 1);
        assert_eq!(slo.fast_latency_breaches, 0);
        assert_eq!(slo.slow_latency_breaches, 0);
        assert_eq!(slo.latency_burn_fast(), 0.0);
    }

    #[test]
    fn slo_rows_merge_by_summing_counters() {
        let mut a = Metrics::new(SimTime::ZERO);
        let mut b = Metrics::new(SimTime::ZERO);
        a.record(sample(true, false, false, 1, 900, 1));
        b.record(sample(true, false, false, 1, 100, 1).with_ok(false));
        b.record(sample(true, false, false, 1, 100, 2));
        let mut merged = a.totals().slos[0].clone();
        merged.merge(&b.totals().slos[0]);
        assert_eq!(merged.requests, 3);
        assert_eq!(merged.latency_breaches, 1);
        assert_eq!(merged.errors, 1);
        assert_eq!(merged.fast_requests, 3);
    }

    #[test]
    fn slo_reset_clears_rows() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(sample(true, false, false, 1, 900, 1));
        m.reset_all(t(2));
        assert!(m.totals().slos.is_empty());
    }

    #[test]
    fn per_class_rows_accumulate_and_report() {
        let mut m = Metrics::new(SimTime::ZERO);
        m.record(RequestSample {
            class: Some(ObjectClass::HotClean),
            ..sample(true, true, false, 1, 1, 1)
        });
        m.record(RequestSample {
            class: Some(ObjectClass::Dirty),
            ..sample(true, true, true, 1, 5, 2)
        });
        m.record(sample(true, false, false, 1, 9, 3)); // miss → uncached
        let s = m.totals();
        assert_eq!(s.classes.len(), 3);
        let hot = s.class("hot_clean").expect("hot row");
        assert_eq!(hot.reads, 1);
        assert_eq!(hot.read_hits, 1);
        assert_eq!(hot.hit_ratio_pct(), 100.0);
        let dirty = s.class("dirty").expect("dirty row");
        assert_eq!(dirty.degraded_reads, 1);
        assert!(dirty.p99_latency >= SimDuration::from_millis(5));
        let uncached = s.class("uncached").expect("uncached row");
        assert_eq!(uncached.read_hits, 0);
        assert!(s.class("metadata").is_none());
    }
}
