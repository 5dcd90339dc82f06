//! `reo-trace`: a lightweight per-layer span recorder with causal
//! per-request trace trees.
//!
//! The Reo paper explains every headline number — hit ratio, bandwidth,
//! latency, recovery time — by *where* time and bytes go. This module is
//! the measurement substrate for that attribution: every layer of the
//! stack (cache manager, OSD target, stripe manager, flash array,
//! backend, journal, placement) wraps its operations in [`Tracer`] spans
//! stamped with the simulated clock, and the tracer aggregates them into
//! a per-layer latency breakdown.
//!
//! On top of the aggregates the tracer keeps **per-request trace trees**:
//! [`Tracer::begin_request`] mints a trace id at the outermost entry
//! point, every span recorded until the matching [`Tracer::end_request`]
//! is buffered, and on completion the buffer is either discarded (the
//! common case) or resolved into a parent/child [`TraceTree`] and
//! retained as an **exemplar** — every request that ends with a sense
//! code keeps its full tree, as do the slowest requests seen so far.
//! Event annotations ([`Tracer::annotate`]) such as `retry`,
//! `read-repair`, `degraded-path` and `qos-stall` ride along inside the
//! tree.
//!
//! Design constraints:
//!
//! * **No external dependencies** — plain `std` synchronization, the
//!   same pattern as [`crate::SimClock`].
//! * **Near-zero cost when disabled** — every instrumentation point is a
//!   single relaxed atomic load behind [`Tracer::begin`], which returns
//!   `None` so the subsequent [`Tracer::record`] is a no-op.
//! * **Shared handle semantics** — cloning a `Tracer` yields a handle to
//!   the *same* recorder, so one tracer threads through every layer of a
//!   cache system (or a whole cluster) and aggregates in one place.
//! * **Determinism** — retention decisions and parent resolution depend
//!   only on simulated time and arrival order, so identical seeds yield
//!   byte-identical exemplar sets.
//!
//! # Examples
//!
//! ```
//! use reo_sim::{Layer, SimClock, SimDuration, Tracer};
//!
//! let clock = SimClock::new();
//! let tracer = Tracer::new();
//! tracer.set_enabled(true);
//!
//! tracer.begin_request();
//! let t0 = tracer.begin(&clock);
//! clock.advance(SimDuration::from_micros(250));
//! tracer.record(reo_sim::Layer::Flash, "read", t0, clock.now());
//! tracer.end_request(SimDuration::from_micros(250), None);
//!
//! let breakdown = tracer.breakdown();
//! let flash = breakdown.layer(Layer::Flash).unwrap();
//! assert_eq!(flash.spans, 1);
//! assert_eq!(flash.total, SimDuration::from_micros(250));
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};

use crate::stats::Histogram;
use crate::time::{SimClock, SimDuration, SimTime};

/// The stack layer a span was recorded in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// The cache-manager / request layer (whole-request spans).
    Cache,
    /// The object storage target (object index, classes, scrub, recovery).
    Target,
    /// The stripe manager (encode/decode, placement, retry).
    Stripe,
    /// The flash array (device service time).
    Flash,
    /// The backend store (HDD + network behind the cache).
    Backend,
    /// The metadata journal (append/flush/checkpoint/replay).
    Journal,
    /// The cluster placement layer (routing, whole-cluster-request spans).
    Placement,
}

impl Layer {
    /// All layers. The first five are in request-nesting order, outermost
    /// first; `Journal` and `Placement` are appended at the end so that
    /// exporter row order for the original layers stays stable across
    /// schema versions.
    pub const ALL: [Layer; 7] = [
        Layer::Cache,
        Layer::Target,
        Layer::Stripe,
        Layer::Flash,
        Layer::Backend,
        Layer::Journal,
        Layer::Placement,
    ];

    /// Stable lower-case name (exporter field value).
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Cache => "cache",
            Layer::Target => "target",
            Layer::Stripe => "stripe",
            Layer::Flash => "flash",
            Layer::Backend => "backend",
            Layer::Journal => "journal",
            Layer::Placement => "placement",
        }
    }

    fn index(self) -> usize {
        match self {
            Layer::Cache => 0,
            Layer::Target => 1,
            Layer::Stripe => 2,
            Layer::Flash => 3,
            Layer::Backend => 4,
            Layer::Journal => 5,
            Layer::Placement => 6,
        }
    }

    /// Causal nesting depth used to resolve parent/child structure in a
    /// [`TraceTree`]: a span's parent must sit at a strictly smaller
    /// depth and contain it in time. Placement (cluster entry) is the
    /// outermost; flash devices are the innermost.
    fn tree_depth(self) -> u32 {
        match self {
            Layer::Placement => 0,
            Layer::Cache => 1,
            Layer::Target | Layer::Backend => 2,
            Layer::Stripe | Layer::Journal => 3,
            Layer::Flash => 4,
        }
    }
}

impl std::fmt::Display for Layer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One span buffered for the in-flight request, before its tree is
/// resolved into [`TraceSpanNode`]s.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    op: &'static str,
    start: SimTime,
    end: SimTime,
}

/// A timestamped event annotation attached to a request's trace tree
/// (e.g. `retry`, `read-repair`, `degraded-path`, `qos-stall`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceAnnotation {
    /// When the event fired (simulated).
    pub at: SimTime,
    /// A static event label.
    pub label: &'static str,
}

/// One span in a retained [`TraceTree`], with its parent resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpanNode {
    /// 1-based span id within the tree (buffer arrival order).
    pub id: u32,
    /// Parent span id; 0 marks a root.
    pub parent: u32,
    /// The layer that recorded the span.
    pub layer: Layer,
    /// The operation label.
    pub op: &'static str,
    /// Span start (simulated).
    pub start: SimTime,
    /// Span end (simulated).
    pub end: SimTime,
}

impl TraceSpanNode {
    /// The node's simulated duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A fully retained per-request trace: every span the request touched,
/// parent/child structure resolved, plus its event annotations.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceTree {
    /// The trace id ([`Tracer::begin_request`] ordinal).
    pub trace_id: u64,
    /// Why the tree was retained: `"sense"` (the request returned a
    /// sense code) or `"slow"` (slowest-percentile capture).
    pub reason: &'static str,
    /// The sense label the request completed with, when `reason` is
    /// `"sense"`.
    pub sense: Option<&'static str>,
    /// End-to-end request latency as reported by the caller.
    pub latency: SimDuration,
    /// Spans in arrival order with parents resolved.
    pub spans: Vec<TraceSpanNode>,
    /// Event annotations in arrival order.
    pub annotations: Vec<TraceAnnotation>,
    /// Spans dropped because the per-request buffer overflowed.
    pub truncated_spans: u64,
}

/// Aggregated statistics for one layer.
#[derive(Clone, Debug, Default)]
struct LayerAgg {
    spans: u64,
    total: SimDuration,
    latency: Option<Box<Histogram>>,
}

impl LayerAgg {
    fn record(&mut self, d: SimDuration) {
        self.spans += 1;
        self.total += d;
        self.latency
            .get_or_insert_with(|| Box::new(Histogram::new()))
            .record(d);
    }
}

/// The per-layer breakdown of one layer, as reported by
/// [`Tracer::breakdown`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayerBreakdown {
    /// The layer.
    pub layer: Layer,
    /// Spans recorded.
    pub spans: u64,
    /// Summed (inclusive) simulated time across spans. Inner layers nest
    /// inside outer ones, so sums are inclusive: subtract the nested
    /// layers (see [`TraceBreakdown::exclusive`]) for exclusive time.
    pub total: SimDuration,
    /// Mean span duration.
    pub mean: SimDuration,
    /// 99th-percentile span duration.
    pub p99: SimDuration,
}

/// A snapshot of everything the tracer aggregated.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceBreakdown {
    /// Requests delimited with [`Tracer::begin_request`].
    pub requests: u64,
    /// Per-layer rows, in [`Layer::ALL`] order; layers with no spans are
    /// omitted.
    pub layers: Vec<LayerBreakdown>,
}

impl TraceBreakdown {
    /// The row for `layer`, if it recorded any spans.
    pub fn layer(&self, layer: Layer) -> Option<&LayerBreakdown> {
        self.layers.iter().find(|l| l.layer == layer)
    }

    /// Exclusive time of `layer`: its inclusive total minus the inclusive
    /// totals of the layers nested directly inside it. Placement (cluster
    /// entry) contains cache; cache contains the target path and the
    /// backend path; target contains stripe and journal; stripe contains
    /// flash. Flash, backend and journal are leaves.
    pub fn exclusive(&self, layer: Layer) -> SimDuration {
        let total_of = |layer: Layer| self.layer(layer).map(|l| l.total).unwrap_or_default();
        let own = total_of(layer);
        let inner = match layer {
            Layer::Placement => total_of(Layer::Cache),
            Layer::Cache => {
                // Cache contains both the target path and the backend path.
                total_of(Layer::Target) + total_of(Layer::Backend)
            }
            Layer::Target => total_of(Layer::Stripe) + total_of(Layer::Journal),
            Layer::Stripe => total_of(Layer::Flash),
            Layer::Flash | Layer::Backend | Layer::Journal => SimDuration::ZERO,
        };
        own.saturating_sub(inner)
    }
}

#[derive(Debug, Default)]
struct TraceAgg {
    layers: [LayerAgg; 7],
    requests: u64,
    /// Request scope nesting depth: `begin_request` at depth 0 mints a
    /// new trace id; nested calls (a cluster wrapping a node's own
    /// `handle`) only bump the depth so inner scopes are no-ops.
    depth: u32,
    current: Vec<Span>,
    current_truncated: u64,
    current_annotations: Vec<TraceAnnotation>,
    sense_exemplars: Vec<PendingTree>,
    slow_exemplars: Vec<PendingTree>,
}

/// A retained request's raw buffers. Tree assembly is O(spans²), so it
/// is deferred to [`Tracer::exemplars`] — the request hot path only
/// moves the buffers here (top-K replacement included), keeping the
/// enabled tracer's per-request cost flat.
#[derive(Debug)]
struct PendingTree {
    trace_id: u64,
    reason: &'static str,
    sense: Option<&'static str>,
    latency: SimDuration,
    spans: Vec<Span>,
    annotations: Vec<TraceAnnotation>,
    truncated_spans: u64,
}

impl PendingTree {
    fn build(&self) -> TraceTree {
        build_tree(
            self.trace_id,
            self.reason,
            self.sense,
            self.latency,
            &self.spans,
            self.annotations.clone(),
            self.truncated_spans,
        )
    }
}

#[derive(Debug)]
struct TracerShared {
    enabled: AtomicBool,
    agg: Mutex<TraceAgg>,
}

/// Span cap per in-flight request tree; overflow increments
/// [`TraceTree::truncated_spans`] instead of growing without bound.
const MAX_TREE_SPANS: usize = 256;

/// Annotation cap per in-flight request tree.
const MAX_TREE_ANNOTATIONS: usize = 64;

/// How many sense-coded request trees are retained (first come).
const SENSE_EXEMPLARS_CAP: usize = 24;

/// How many slowest-request trees are retained (top-K by latency).
const SLOW_EXEMPLARS_CAP: usize = 8;

/// A cloneable handle to a shared span recorder (see the module docs).
#[derive(Clone, Debug)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a disabled tracer. Instrumentation points cost one atomic
    /// load until [`Tracer::set_enabled`] turns recording on.
    pub fn new() -> Self {
        Tracer {
            shared: Arc::new(TracerShared {
                enabled: AtomicBool::new(false),
                agg: Mutex::new(TraceAgg::default()),
            }),
        }
    }

    /// `true` when spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off. All clones of this handle see the
    /// change immediately.
    pub fn set_enabled(&self, enabled: bool) {
        self.shared.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Starts a span: reads the clock if recording is on. The returned
    /// token is `None` when disabled, making the matching
    /// [`Tracer::record`] free.
    #[inline]
    pub fn begin(&self, clock: &SimClock) -> Option<SimTime> {
        if self.is_enabled() {
            Some(clock.now())
        } else {
            None
        }
    }

    /// Finishes a span started with [`Tracer::begin`]. No-op when
    /// `started` is `None`.
    #[inline]
    pub fn record(&self, layer: Layer, op: &'static str, started: Option<SimTime>, end: SimTime) {
        let Some(start) = started else { return };
        self.push(layer, op, start, end);
    }

    /// Records a span with explicit bounds, bypassing the begin/record
    /// pairing (used when the start instant is known for other reasons,
    /// e.g. batched device completions). No-op when disabled.
    #[inline]
    pub fn record_span(&self, layer: Layer, op: &'static str, start: SimTime, end: SimTime) {
        if !self.is_enabled() {
            return;
        }
        self.push(layer, op, start, end);
    }

    /// Records a request-enclosing span: like [`Tracer::record`], but the
    /// end is extended to cover every span already buffered for the
    /// in-flight request. Background completions (e.g. an async
    /// write-back) finish at a *future* simulated instant beyond the
    /// caller's clock; extending the enclosing span keeps the tree
    /// builder's containment rule rooting them under this span. No-op
    /// when `started` is `None`.
    pub fn record_enclosing(
        &self,
        layer: Layer,
        op: &'static str,
        started: Option<SimTime>,
        end: SimTime,
    ) {
        let Some(start) = started else { return };
        let covered = {
            let agg = self.shared.agg.lock().expect("tracer lock");
            agg.current.iter().map(|s| s.end).fold(end, SimTime::max)
        };
        self.push(layer, op, start, covered);
    }

    fn push(&self, layer: Layer, op: &'static str, start: SimTime, end: SimTime) {
        let mut agg = self.shared.agg.lock().expect("tracer lock");
        agg.layers[layer.index()].record(end.saturating_since(start));
        if agg.depth == 0 {
            return;
        }
        if agg.current.len() < MAX_TREE_SPANS {
            agg.current.push(Span {
                layer,
                op,
                start,
                end,
            });
        } else {
            agg.current_truncated += 1;
        }
    }

    /// Enters a request scope. At the outermost level this mints a new
    /// trace id (spans recorded until the matching
    /// [`Tracer::end_request`] carry it and are buffered for exemplar
    /// capture); nested calls — a cluster wrapping a node's own request
    /// path — are no-ops that return the in-flight id. Returns the
    /// 1-based trace id, or 0 when recording is off.
    pub fn begin_request(&self) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        let mut agg = self.shared.agg.lock().expect("tracer lock");
        agg.depth += 1;
        if agg.depth == 1 {
            agg.requests += 1;
            agg.current.clear();
            agg.current_truncated = 0;
            agg.current_annotations.clear();
        }
        agg.requests
    }

    /// Leaves a request scope opened with [`Tracer::begin_request`]. The
    /// outermost call finalizes the buffered spans: sense-coded requests
    /// (`sense` is `Some`) always retain their full [`TraceTree`]
    /// (bounded first-come), otherwise the tree is kept only while it
    /// ranks among the slowest requests seen. No-op when disabled or
    /// when nested.
    pub fn end_request(&self, latency: SimDuration, sense: Option<&'static str>) {
        if !self.is_enabled() {
            return;
        }
        let mut agg = self.shared.agg.lock().expect("tracer lock");
        if agg.depth == 0 {
            return;
        }
        agg.depth -= 1;
        if agg.depth > 0 {
            return;
        }
        let spans = std::mem::take(&mut agg.current);
        let annotations = std::mem::take(&mut agg.current_annotations);
        let truncated = std::mem::take(&mut agg.current_truncated);
        if spans.is_empty() && annotations.is_empty() {
            return;
        }
        let trace_id = agg.requests;
        let pending = |reason, sense| PendingTree {
            trace_id,
            reason,
            sense,
            latency,
            spans,
            annotations,
            truncated_spans: truncated,
        };
        if let Some(label) = sense {
            if agg.sense_exemplars.len() < SENSE_EXEMPLARS_CAP {
                agg.sense_exemplars.push(pending("sense", Some(label)));
            }
        } else if agg.slow_exemplars.len() < SLOW_EXEMPLARS_CAP {
            agg.slow_exemplars.push(pending("slow", None));
        } else {
            // Deterministic top-K: replace the (first) minimum only on a
            // strictly slower request, so ties keep the earlier trace.
            let min_at = agg
                .slow_exemplars
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.latency)
                .map(|(i, _)| i)
                .expect("non-empty slow exemplars");
            if latency > agg.slow_exemplars[min_at].latency {
                agg.slow_exemplars[min_at] = pending("slow", None);
            }
        }
    }

    /// Attaches a timestamped event annotation (e.g. `"retry"`,
    /// `"degraded-path"`) to the in-flight request tree. No-op when
    /// disabled or outside a request scope.
    pub fn annotate(&self, label: &'static str, at: SimTime) {
        if !self.is_enabled() {
            return;
        }
        let mut agg = self.shared.agg.lock().expect("tracer lock");
        if agg.depth > 0 && agg.current_annotations.len() < MAX_TREE_ANNOTATIONS {
            agg.current_annotations.push(TraceAnnotation { at, label });
        }
    }

    /// The retained exemplar trees (sense-coded and slowest requests),
    /// sorted by trace id. Trees are assembled here, at snapshot time —
    /// the request path only buffers raw spans.
    pub fn exemplars(&self) -> Vec<TraceTree> {
        let agg = self.shared.agg.lock().expect("tracer lock");
        let mut out: Vec<TraceTree> = agg
            .sense_exemplars
            .iter()
            .chain(agg.slow_exemplars.iter())
            .map(PendingTree::build)
            .collect();
        out.sort_by_key(|t| t.trace_id);
        out
    }

    /// Snapshot of the aggregated per-layer breakdown.
    pub fn breakdown(&self) -> TraceBreakdown {
        let agg = self.shared.agg.lock().expect("tracer lock");
        TraceBreakdown {
            requests: agg.requests,
            layers: Layer::ALL
                .iter()
                .filter_map(|&layer| {
                    let a = &agg.layers[layer.index()];
                    if a.spans == 0 {
                        return None;
                    }
                    let latency = a.latency.as_deref();
                    Some(LayerBreakdown {
                        layer,
                        spans: a.spans,
                        total: a.total,
                        mean: latency
                            .and_then(Histogram::mean)
                            .unwrap_or(SimDuration::ZERO),
                        p99: latency
                            .and_then(|h| h.percentile(99.0))
                            .unwrap_or(SimDuration::ZERO),
                    })
                })
                .collect(),
        }
    }

    /// Clears all aggregates, buffered spans, annotations and exemplars
    /// (e.g. at the end of warm-up), and keeps the enabled flag unchanged.
    pub fn reset(&self) {
        *self.shared.agg.lock().expect("tracer lock") = TraceAgg::default();
    }
}

/// Resolves parent/child structure over a request's buffered spans. A
/// span's parent is the span that (a) sits at a strictly smaller
/// [`Layer::tree_depth`], (b) contains it in simulated time, and (c) is
/// the closest such container — maximum depth, then latest start, then
/// highest id. Spans with no container are roots (`parent == 0`). The
/// rule is a pure function of the buffer, so identical runs resolve
/// identical trees.
fn build_tree(
    trace_id: u64,
    reason: &'static str,
    sense: Option<&'static str>,
    latency: SimDuration,
    spans: &[Span],
    annotations: Vec<TraceAnnotation>,
    truncated_spans: u64,
) -> TraceTree {
    let mut nodes: Vec<TraceSpanNode> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| TraceSpanNode {
            id: (i + 1) as u32,
            parent: 0,
            layer: s.layer,
            op: s.op,
            start: s.start,
            end: s.end,
        })
        .collect();
    for i in 0..nodes.len() {
        let depth = nodes[i].layer.tree_depth();
        let (start, end) = (nodes[i].start, nodes[i].end);
        let mut best: Option<(u32, SimTime, u32)> = None;
        for candidate in &nodes {
            let cd = candidate.layer.tree_depth();
            if cd >= depth || candidate.start > start || candidate.end < end {
                continue;
            }
            let key = (cd, candidate.start, candidate.id);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        nodes[i].parent = best.map_or(0, |(_, _, id)| id);
    }
    TraceTree {
        trace_id,
        reason,
        sense,
        latency,
        spans: nodes,
        annotations,
        truncated_spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let clock = SimClock::new();
        let tracer = Tracer::new();
        assert!(!tracer.is_enabled());
        let token = tracer.begin(&clock);
        assert!(token.is_none());
        tracer.record(Layer::Flash, "read", token, clock.now());
        tracer.record_span(Layer::Stripe, "read", t(0), t(10));
        tracer.annotate("retry", t(5));
        assert_eq!(tracer.begin_request(), 0);
        tracer.end_request(SimDuration::from_micros(10), Some("failure"));
        let b = tracer.breakdown();
        assert_eq!(b.requests, 0);
        assert!(b.layers.is_empty());
        assert!(tracer.exemplars().is_empty());
    }

    #[test]
    fn clones_share_the_recorder() {
        let tracer = Tracer::new();
        let other = tracer.clone();
        tracer.set_enabled(true);
        assert!(other.is_enabled());
        other.record_span(Layer::Backend, "read", t(0), t(100));
        let b = tracer.breakdown();
        assert_eq!(b.layer(Layer::Backend).unwrap().spans, 1);
    }

    #[test]
    fn breakdown_aggregates_per_layer() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.begin_request();
        tracer.record_span(Layer::Stripe, "read", t(0), t(40));
        tracer.record_span(Layer::Flash, "read", t(0), t(30));
        tracer.end_request(SimDuration::from_micros(40), None);
        tracer.begin_request();
        tracer.record_span(Layer::Stripe, "read", t(40), t(100));
        tracer.end_request(SimDuration::from_micros(60), None);
        let b = tracer.breakdown();
        assert_eq!(b.requests, 2);
        let stripe = b.layer(Layer::Stripe).unwrap();
        assert_eq!(stripe.spans, 2);
        assert_eq!(stripe.total, SimDuration::from_micros(100));
        let flash = b.layer(Layer::Flash).unwrap();
        assert_eq!(flash.total, SimDuration::from_micros(30));
        // Exclusive stripe time subtracts nested flash time.
        assert_eq!(b.exclusive(Layer::Stripe), SimDuration::from_micros(70));
        assert_eq!(b.exclusive(Layer::Flash), SimDuration::from_micros(30));
    }

    #[test]
    fn exclusive_cache_subtracts_target_and_backend() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.record_span(Layer::Cache, "request", t(0), t(100));
        tracer.record_span(Layer::Target, "read", t(0), t(30));
        tracer.record_span(Layer::Backend, "read", t(30), t(90));
        let b = tracer.breakdown();
        assert_eq!(b.exclusive(Layer::Cache), SimDuration::from_micros(10));
    }

    #[test]
    fn exclusive_nesting_covers_new_layers() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.record_span(Layer::Placement, "request", t(0), t(120));
        tracer.record_span(Layer::Cache, "request", t(0), t(100));
        tracer.record_span(Layer::Target, "write", t(0), t(80));
        tracer.record_span(Layer::Journal, "append", t(10), t(20));
        tracer.record_span(Layer::Stripe, "store", t(20), t(70));
        let b = tracer.breakdown();
        assert_eq!(b.exclusive(Layer::Placement), SimDuration::from_micros(20));
        assert_eq!(b.exclusive(Layer::Target), SimDuration::from_micros(20));
        assert_eq!(b.exclusive(Layer::Journal), SimDuration::from_micros(10));
    }

    #[test]
    fn reset_clears_but_keeps_enabled() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.begin_request();
        tracer.record_span(Layer::Flash, "read", t(0), t(5));
        tracer.annotate("retry", t(3));
        tracer.end_request(SimDuration::from_micros(5), Some("failure"));
        tracer.reset();
        assert!(tracer.is_enabled());
        let b = tracer.breakdown();
        assert_eq!(b.requests, 0);
        assert!(b.layers.is_empty());
        assert!(tracer.exemplars().is_empty());
    }

    #[test]
    fn layer_names_are_stable() {
        let names: Vec<&str> = Layer::ALL.iter().map(|l| l.as_str()).collect();
        assert_eq!(
            names,
            [
                "cache",
                "target",
                "stripe",
                "flash",
                "backend",
                "journal",
                "placement"
            ]
        );
    }

    #[test]
    fn sense_coded_requests_retain_their_tree() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        let id = tracer.begin_request();
        tracer.record_span(Layer::Cache, "read", t(0), t(100));
        tracer.record_span(Layer::Target, "read", t(0), t(80));
        tracer.record_span(Layer::Stripe, "read", t(10), t(70));
        tracer.record_span(Layer::Flash, "read", t(20), t(60));
        tracer.annotate("retry", t(30));
        tracer.end_request(SimDuration::from_micros(100), Some("medium-error"));
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), 1);
        let tree = &exemplars[0];
        assert_eq!(tree.trace_id, id);
        assert_eq!(tree.reason, "sense");
        assert_eq!(tree.sense, Some("medium-error"));
        assert_eq!(tree.spans.len(), 4);
        // Cache is root, target under cache, stripe under target, flash
        // under stripe: full causal chain.
        assert_eq!(tree.spans[0].parent, 0);
        assert_eq!(tree.spans[1].parent, tree.spans[0].id);
        assert_eq!(tree.spans[2].parent, tree.spans[1].id);
        assert_eq!(tree.spans[3].parent, tree.spans[2].id);
        assert_eq!(tree.annotations.len(), 1);
        assert_eq!(tree.annotations[0].label, "retry");
    }

    #[test]
    fn placement_span_roots_the_cluster_tree() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.begin_request();
        // Cluster wraps the node's own request scope.
        tracer.begin_request();
        tracer.record_span(Layer::Cache, "read", t(0), t(90));
        tracer.record_span(Layer::Backend, "read", t(10), t(80));
        tracer.end_request(SimDuration::from_micros(90), None);
        tracer.record_span(Layer::Placement, "request", t(0), t(100));
        tracer.end_request(SimDuration::from_micros(100), Some("recovered-error"));
        let b = tracer.breakdown();
        // Nested begin_request does not mint a second trace.
        assert_eq!(b.requests, 1);
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), 1);
        let tree = &exemplars[0];
        let placement = tree
            .spans
            .iter()
            .find(|s| s.layer == Layer::Placement)
            .unwrap();
        let cache = tree.spans.iter().find(|s| s.layer == Layer::Cache).unwrap();
        let backend = tree
            .spans
            .iter()
            .find(|s| s.layer == Layer::Backend)
            .unwrap();
        assert_eq!(placement.parent, 0);
        assert_eq!(cache.parent, placement.id);
        assert_eq!(backend.parent, cache.id);
    }

    #[test]
    fn slow_exemplars_keep_the_top_k_deterministically() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        for i in 0..(SLOW_EXEMPLARS_CAP as u64 + 6) {
            tracer.begin_request();
            tracer.record_span(Layer::Cache, "read", t(i * 1000), t(i * 1000 + 10 + i));
            tracer.end_request(SimDuration::from_micros(10 + i), None);
        }
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), SLOW_EXEMPLARS_CAP);
        // The slowest K survive; all retained latencies beat the evicted.
        let min = exemplars.iter().map(|e| e.latency).min().unwrap();
        assert_eq!(min, SimDuration::from_micros(10 + 6));
        assert!(exemplars.iter().all(|e| e.reason == "slow"));
        // Ties do not evict: replaying the minimum latency keeps the set.
        let before: Vec<u64> = exemplars.iter().map(|e| e.trace_id).collect();
        tracer.begin_request();
        tracer.record_span(Layer::Cache, "read", t(900_000), t(900_016));
        tracer.end_request(min, None);
        let after: Vec<u64> = tracer.exemplars().iter().map(|e| e.trace_id).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn tree_span_buffer_is_bounded() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.begin_request();
        for i in 0..(MAX_TREE_SPANS as u64 + 5) {
            tracer.record_span(Layer::Flash, "read", t(i), t(i + 1));
        }
        tracer.end_request(SimDuration::from_micros(1), Some("failure"));
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), 1);
        assert_eq!(exemplars[0].spans.len(), MAX_TREE_SPANS);
        assert_eq!(exemplars[0].truncated_spans, 5);
        // The aggregate breakdown still counted every span.
        assert_eq!(
            tracer.breakdown().layer(Layer::Flash).unwrap().spans,
            MAX_TREE_SPANS as u64 + 5
        );
    }

    #[test]
    fn annotations_outside_a_request_reach_no_tree() {
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        tracer.annotate("qos-stall", t(1));
        tracer.begin_request();
        tracer.annotate("retry", t(3));
        tracer.end_request(SimDuration::from_micros(5), Some("failure"));
        tracer.annotate("qos-stall", t(9));
        let exemplars = tracer.exemplars();
        assert_eq!(exemplars.len(), 1);
        let labels: Vec<_> = exemplars[0].annotations.iter().map(|a| a.label).collect();
        assert_eq!(labels, ["retry"]);
    }
}
