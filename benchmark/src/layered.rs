//! The traced run: the per-layer metrics, the layer share table, and
//! the span file.
//!
//! Four sources. (S1) every `handle` and event call of the untraced
//! repetitions, timed and bucketed by outcome. (S2) the program's own
//! counters over repetition 0's measured passes. (S3) the layer replays
//! of `layers.rs`. (S4) repetitions with the program's sim-time tracer
//! switched on: exclusive simulated time per layer, and — against the
//! untraced repetitions — what the tracer costs in host time.

use std::fmt::Write as _;
use std::time::Instant;

use reo_core::MetricsSnapshot;
use reo_sim::Layer;

use crate::counters::Counter;
use crate::e2e::{Bucket, Budget, Timed};
use crate::envelope;
use crate::layers::{self, Op, Timers};
use crate::system::config_for;
use crate::workloads::{Topology, Workload};

/// Parts per repetition of a traced run: the first few of an untraced
/// run's. Per-layer metrics carry no bound to keep across seeds, and a
/// third of the parts leaves the envelopes three times the repetitions.
pub const PARTS: usize = 6;

/// Share of `--seconds` the untraced repetitions get. The traced ones
/// are as many and take about as long; the replays take what is left.
const UNTRACED_SHARE: f64 = 0.375;

/// Host time one pass of the object-path replay may take, in seconds.
const REPLAY_PASS_SECONDS: f64 = 0.12;

/// A host-time span: `name`, start and end in nanoseconds since the
/// process's epoch, the span that caused it (0 for a root), and the
/// request it served, if any.
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    pub request_id: Option<usize>,
}

/// Spans kept in memory until the run ends. A span's id is its position
/// plus one.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
        request_id: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len()
    }

    /// Runs `work` inside a span named `name` under `parent`.
    fn within<R>(
        &mut self,
        name: &str,
        parent: usize,
        work: impl FnOnce(&mut Spans, usize) -> R,
    ) -> R {
        let start = self.now_ns();
        let id = self.push(name, start, start, parent, None);
        let result = work(self, id);
        self.spans[id - 1].end_ns = self.now_ns();
        result
    }

    /// One JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let request = s.request_id.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request_id\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                request
            )
            .expect("write to a String");
        }
        out
    }
}

/// One row of the layer share table.
pub struct Share {
    pub layer: &'static str,
    /// Estimated exclusive host time per request, in nanoseconds.
    pub ns_per_req: f64,
    pub pct: f64,
}

/// What a traced run produced.
pub struct Layered {
    pub metrics: Vec<(&'static str, f64)>,
    pub shares: Vec<Share>,
    pub spans: Spans,
    pub untraced: Timed,
}

fn per(n: u64, requests: f64, scale: f64) -> f64 {
    scale * n as f64 / requests
}

/// Runs the traced run of `workload` within about `seconds`.
///
/// # Errors
///
/// Returns failed checks, as [`Timed::run`] does; a traced repetition
/// whose simulated outputs differ from the untraced ones is one.
pub fn run(workload: &Workload, seed: u64, seconds: f64) -> Result<Layered, Vec<String>> {
    let mut spans = Spans::new();

    // S1, S2: untraced repetitions.
    let untraced = spans.within("untraced_repetitions", 0, |spans, phase| {
        let started = spans.now_ns();
        let timed = Timed::run(
            workload,
            seed,
            PARTS,
            Budget::Seconds(UNTRACED_SHARE * seconds),
            false,
        )?;
        record_first_repetition(spans, phase, started, &timed);
        Ok::<_, Vec<String>>(timed)
    })?;
    // S4: as many repetitions with the sim-time tracer on.
    let traced = spans.within("traced_repetitions", 0, |_, _| {
        Timed::run(workload, seed, PARTS, Budget::Reps(untraced.reps), true)
    })?;
    if traced.outputs != untraced.outputs {
        return Err(vec![format!(
            "{}: switching the tracer on changed the simulated outputs",
            workload.name
        )]);
    }

    // S3: layer replays, at part 0's geometry and with its requests.
    let trace = workload.generate(seed, 0);
    let config = config_for(&trace);
    let requests_per_rep = untraced.measured() as f64;
    let ns_per_req = untraced.pass_ns() as f64 / requests_per_rep;
    let replayed = ((REPLAY_PASS_SECONDS * 1e9 / ns_per_req) as usize)
        .max(500)
        .min(trace.requests().len());
    let requests = &trace.requests()[..replayed];
    let mut t = Timers::new();
    let (erasure, replayed_record_bytes) = spans.within("layer_replay", 0, |spans, replay| {
        spans.within("replay.sim", replay, |_, _| layers::sim(&mut t, requests));
        let implied = spans.within("replay.object_path", replay, |_, _| {
            layers::object_path(&mut t, &config, &trace, requests)
        });
        let metas = spans.within("replay.stripe", replay, |_, _| {
            layers::stripe(&mut t, &config, &implied)
        });
        spans.within("replay.flashsim", replay, |_, _| {
            layers::flash(&mut t, &config, 40_000)
        });
        let record_bytes = spans.within("replay.journal", replay, |_, _| {
            layers::journal(&mut t, &config, &trace, &metas, &implied.checkpoint_image)
        });
        spans.within("replay.backend", replay, |_, _| {
            layers::backend(
                &mut t,
                &config,
                &trace,
                &requests[..requests.len().min(20_000)],
            )
        });
        spans.within("replay.placement", replay, |_, _| {
            layers::placement(&mut t, &config, &requests[..requests.len().min(20_000)])
        });
        let erasure = spans.within("replay.erasure", replay, |_, _| {
            layers::erasure(&mut t, &config)
        });
        (erasure, record_bytes)
    });

    // Assemble.
    let n = requests_per_rep;
    let c = |counter: Counter| untraced.first.counters.get(counter);
    let us = |op: Op| t.ns_per_op(op) / 1e3;
    let mut m: Vec<(&'static str, f64)> = Vec::with_capacity(85);

    // core
    let steps = untraced.request_ns();
    let request_total: u64 = steps.iter().sum();
    for bucket in Bucket::ALL {
        let mut of_bucket: Vec<u64> = steps
            .iter()
            .zip(&untraced.first.buckets)
            .filter(|&(_, &b)| b == bucket)
            .map(|(&ns, _)| ns)
            .collect();
        of_bucket.sort_unstable();
        let (p50_name, share_name) = bucket.metric_names();
        let p50 = if of_bucket.is_empty() {
            0.0
        } else {
            envelope::percentile(&of_bucket, 50.0) as f64 / 1e3
        };
        m.push((p50_name, p50));
        m.push((
            share_name,
            100.0 * of_bucket.iter().sum::<u64>() as f64 / request_total as f64,
        ));
    }
    m.push((
        "core.handle.us_p99",
        envelope::percentile(&envelope::sorted(steps), 99.0) as f64 / 1e3,
    ));
    m.push(("core.event.ms_total", untraced.events_ns() as f64 / 1e6));
    m.push((
        "core.snapshot.us_per_call",
        untraced.snapshot_ns() as f64 / 1e3,
    ));
    let total = |of: fn(&MetricsSnapshot) -> u64| -> u64 {
        untraced.outputs.iter().map(|o| of(&o.snapshot)).sum()
    };
    let replica_serves = total(|s| s.served_by_replica);
    let parity_serves = total(|s| s.served_by_parity);
    m.push(("core.replica_serves_per_kreq", per(replica_serves, n, 1e3)));
    m.push(("core.parity_serves_per_kreq", per(parity_serves, n, 1e3)));

    // Shares: ops per request (S2) x time per op (S3), exclusive of the
    // layers nested inside (target holds stripe and journal, stripe
    // holds flash), over time per request (S1).
    let writes = total(|s| s.writes);
    let lookups_per_req = match workload.topology {
        Topology::Single => 0.0,
        // One owner lookup per request; a replica-set walk per write
        // fan-out and per request routed around a down owner.
        Topology::ClusterRepl2 => 1.0 + (writes + replica_serves) as f64 / n,
        Topology::ClusterParity31 => 1.0,
    };
    let replica_walks = (lookups_per_req - 1.0).max(0.0);
    let placement_ns = lookups_per_req.min(1.0) * t.ns_per_op(Op::PlacementTargetOf)
        + replica_walks * t.ns_per_op(Op::PlacementReplicasOf);
    let admissions = c(Counter::CacheAdmissions);
    // An admission is an insert plus the victim picks and removals that
    // made room for it.
    let admission_ops = [Op::CacheInsert, Op::CachePickVictim, Op::CacheRemove];
    let replayed_admissions = t.calls(Op::CacheInsert).max(1) as f64;
    let admit_evict_ns = t.total_ns(&admission_ops) / replayed_admissions;
    let reclassify_passes = n / config.classification_period as f64;
    let cache_ns = (c(Counter::TargetReads) as f64 * t.ns_per_op(Op::CacheAccess)
        + admissions as f64 * admit_evict_ns
        + reclassify_passes * t.ns_per_op(Op::CacheReclassify))
        / n;
    let flash_ns = (c(Counter::FlashReads) as f64 * t.ns_per_op(Op::FlashReadChunk)
        + c(Counter::FlashWrites) as f64 * t.ns_per_op(Op::FlashWriteChunk))
        / n;
    let degraded = c(Counter::TargetDegradedReads) as f64;
    let stripe_ns = ((c(Counter::TargetCreates) + c(Counter::TargetReencodes)) as f64
        * t.ns_per_op(Op::StripeStore)
        + (c(Counter::TargetReads) as f64 - degraded + c(Counter::TargetReencodes) as f64)
            * t.ns_per_op(Op::StripeRead)
        + degraded * t.ns_per_op(Op::StripeDegradedRead)
        + (c(Counter::TargetRemoves) + c(Counter::TargetReencodes)) as f64
            * t.ns_per_op(Op::StripeRemove)
        + c(Counter::TargetRebuilds) as f64 * t.ns_per_op(Op::StripeRebuild))
        / n;
    // An append costs by the byte (encode, checksum, copy): scale the
    // replayed records' cost to the size of the workload's own.
    let append_ns_per_byte = t.ns_per_op(Op::JournalAppend) / replayed_record_bytes.max(1.0);
    let journal_ns = (c(Counter::JournalBytes) as f64 * append_ns_per_byte
        + c(Counter::JournalFlushes) as f64 * t.ns_per_op(Op::JournalFlush)
        + c(Counter::JournalCheckpoints) as f64 * t.ns_per_op(Op::JournalCheckpoint))
        / n;
    let target_ns = (c(Counter::TargetCreates) as f64 * t.ns_per_op(Op::TargetCreate)
        + c(Counter::TargetReads) as f64 * t.ns_per_op(Op::TargetRead)
        + c(Counter::TargetRemoves) as f64 * t.ns_per_op(Op::TargetRemove)
        + c(Counter::TargetReencodes) as f64 * t.ns_per_op(Op::TargetSetClass)
        + c(Counter::TargetRebuilds) as f64 * t.ns_per_op(Op::StripeRebuild))
        / n;
    let backend_ns = (c(Counter::BackendReads) as f64 * t.ns_per_op(Op::BackendRead)
        + c(Counter::BackendWrites) as f64 * t.ns_per_op(Op::BackendWrite))
        / n;
    let erasure_ns = parity_serves as f64 * t.ns_per_op(Op::ErasureServe) / n;
    // Every request is recorded into a latency histogram once.
    let sim_ns = t.ns_per_op(Op::HistogramRecord);
    let exclusive = [
        ("placement", placement_ns),
        ("cache", cache_ns),
        ("osd-target", (target_ns - stripe_ns - journal_ns).max(0.0)),
        ("journal", journal_ns),
        ("stripe", (stripe_ns - flash_ns).max(0.0)),
        ("erasure", erasure_ns),
        ("flashsim", flash_ns),
        ("backend", backend_ns),
        ("sim", sim_ns),
    ];
    let mut shares: Vec<Share> = exclusive
        .iter()
        .map(|&(layer, ns)| Share {
            layer,
            ns_per_req: ns,
            pct: 100.0 * ns / ns_per_req,
        })
        .collect();
    let unattributed_pct = 100.0 - shares.iter().map(|s| s.pct).sum::<f64>();
    shares.push(Share {
        layer: "core (unattributed)",
        ns_per_req: ns_per_req * unattributed_pct / 100.0,
        pct: unattributed_pct,
    });
    m.push(("core.unattributed_pct", unattributed_pct));

    // placement
    m.push((
        "placement.target_of.ns_per_op",
        t.ns_per_op(Op::PlacementTargetOf),
    ));
    m.push((
        "placement.replicas_of.ns_per_op",
        t.ns_per_op(Op::PlacementReplicasOf),
    ));
    m.push(("placement.lookups_per_req", lookups_per_req));

    // cache
    m.push(("cache.access.ns_per_op", t.ns_per_op(Op::CacheAccess)));
    m.push((
        "cache.access.allocs_per_op",
        t.allocs_per_op(Op::CacheAccess),
    ));
    m.push(("cache.admit_evict.ns_per_op", admit_evict_ns));
    m.push((
        "cache.admit_evict.allocs_per_op",
        t.allocs(&admission_ops) / replayed_admissions,
    ));
    m.push(("cache.reclassify.us_per_pass", us(Op::CacheReclassify)));
    m.push(("cache.admissions_per_kreq", per(admissions, n, 1e3)));
    m.push((
        "cache.removals_per_kreq",
        per(c(Counter::CacheRemovals), n, 1e3),
    ));
    m.push((
        "cache.class_moves_per_kreq",
        per(c(Counter::CacheClassMoves), n, 1e3),
    ));

    // osd-target
    m.push(("osd-target.create.us_per_op", us(Op::TargetCreate)));
    m.push((
        "osd-target.create.allocs_per_op",
        t.allocs_per_op(Op::TargetCreate),
    ));
    m.push(("osd-target.read.us_per_op", us(Op::TargetRead)));
    m.push((
        "osd-target.read.allocs_per_op",
        t.allocs_per_op(Op::TargetRead),
    ));
    m.push(("osd-target.remove.us_per_op", us(Op::TargetRemove)));
    m.push(("osd-target.set_class.us_per_op", us(Op::TargetSetClass)));
    m.push((
        "osd-target.creates_per_kreq",
        per(c(Counter::TargetCreates), n, 1e3),
    ));
    m.push((
        "osd-target.reads_per_kreq",
        per(c(Counter::TargetReads), n, 1e3),
    ));
    m.push((
        "osd-target.reencodes_per_kreq",
        per(c(Counter::TargetReencodes), n, 1e3),
    ));
    m.push((
        "osd-target.rebuilds_per_kreq",
        per(c(Counter::TargetRebuilds), n, 1e3),
    ));

    // journal
    m.push(("journal.append.ns_per_op", t.ns_per_op(Op::JournalAppend)));
    m.push((
        "journal.append.allocs_per_op",
        t.allocs_per_op(Op::JournalAppend),
    ));
    m.push(("journal.flush.us_per_op", us(Op::JournalFlush)));
    m.push(("journal.checkpoint.us_per_op", us(Op::JournalCheckpoint)));
    m.push((
        "journal.appends_per_req",
        per(c(Counter::JournalAppends), n, 1.0),
    ));
    m.push((
        "journal.flushes_per_kreq",
        per(c(Counter::JournalFlushes), n, 1e3),
    ));
    m.push((
        "journal.bytes_per_req",
        per(c(Counter::JournalBytes), n, 1.0),
    ));

    // stripe
    let chunk_ios = c(Counter::FlashReads) + c(Counter::FlashWrites);
    m.push(("stripe.store.us_per_op", us(Op::StripeStore)));
    m.push((
        "stripe.store.allocs_per_op",
        t.allocs_per_op(Op::StripeStore),
    ));
    m.push(("stripe.read.us_per_op", us(Op::StripeRead)));
    m.push(("stripe.read.allocs_per_op", t.allocs_per_op(Op::StripeRead)));
    m.push(("stripe.degraded_read.us_per_op", us(Op::StripeDegradedRead)));
    m.push((
        "stripe.overwrite_chunk.us_per_op",
        us(Op::StripeOverwriteChunk),
    ));
    m.push(("stripe.rebuild.us_per_op", us(Op::StripeRebuild)));
    m.push(("stripe.chunk_ios_per_req", per(chunk_ios, n, 1.0)));
    m.push((
        "stripe.degraded_reads_per_kreq",
        per(c(Counter::TargetDegradedReads), n, 1e3),
    ));

    // erasure
    m.push(("erasure.encode.gib_s", erasure.encode_gib_s));
    m.push(("erasure.reconstruct.gib_s", erasure.reconstruct_gib_s));
    m.push(("erasure.delta.gib_s", erasure.delta_gib_s));
    m.push(("erasure.decode_plan_hit_pct", erasure.decode_plan_hit_pct));

    // flashsim
    let flash_ops = [Op::FlashReadChunk, Op::FlashWriteChunk];
    let flash_calls = (t.calls(Op::FlashReadChunk) + t.calls(Op::FlashWriteChunk)).max(1) as f64;
    m.push((
        "flashsim.read_chunk.ns_per_op",
        t.ns_per_op(Op::FlashReadChunk),
    ));
    m.push((
        "flashsim.write_chunk.ns_per_op",
        t.ns_per_op(Op::FlashWriteChunk),
    ));
    m.push((
        "flashsim.chunk_io.allocs_per_op",
        t.allocs(&flash_ops) / flash_calls,
    ));
    m.push((
        "flashsim.reads_per_req",
        per(c(Counter::FlashReads), n, 1.0),
    ));
    m.push((
        "flashsim.writes_per_req",
        per(c(Counter::FlashWrites), n, 1.0),
    ));
    m.push((
        "flashsim.queue_delay_ms_mean",
        c(Counter::FlashQueuedNanos) as f64 / 1e6 / chunk_ios.max(1) as f64,
    ));
    m.push((
        "flashsim.service_ms_mean",
        c(Counter::FlashBusyNanos) as f64 / 1e6 / chunk_ios.max(1) as f64,
    ));
    m.push((
        "flashsim.erases_per_kreq",
        per(c(Counter::FlashErases), n, 1e3),
    ));

    // backend
    let backend_ops = [Op::BackendRead, Op::BackendWrite];
    let backend_calls = (t.calls(Op::BackendRead) + t.calls(Op::BackendWrite)).max(1) as f64;
    let user_bytes = total(|s| s.requested_bytes.as_bytes());
    m.push(("backend.read.ns_per_op", t.ns_per_op(Op::BackendRead)));
    m.push(("backend.write.ns_per_op", t.ns_per_op(Op::BackendWrite)));
    m.push((
        "backend.io.allocs_per_op",
        t.allocs(&backend_ops) / backend_calls,
    ));
    m.push((
        "backend.reads_per_kreq",
        per(c(Counter::BackendReads), n, 1e3),
    ));
    m.push((
        "backend.writes_per_kreq",
        per(c(Counter::BackendWrites), n, 1e3),
    ));
    m.push((
        "backend.mib_per_user_mib",
        c(Counter::BackendBytes) as f64 / user_bytes.max(1) as f64,
    ));

    // sim
    m.push((
        "sim.tracer.overhead_pct",
        100.0
            * ((traced.pass_limit() * traced.pass_ns() as f64)
                / (untraced.pass_limit() * untraced.pass_ns() as f64)
                - 1.0),
    ));
    for (name, layer) in [
        ("sim.trace.cache.excl_ms_per_req", Layer::Cache),
        ("sim.trace.target.excl_ms_per_req", Layer::Target),
        ("sim.trace.stripe.excl_ms_per_req", Layer::Stripe),
        ("sim.trace.flash.excl_ms_per_req", Layer::Flash),
        ("sim.trace.backend.excl_ms_per_req", Layer::Backend),
        ("sim.trace.journal.excl_ms_per_req", Layer::Journal),
        ("sim.trace.placement.excl_ms_per_req", Layer::Placement),
    ] {
        let exclusive_ms: f64 = traced
            .first
            .breakdowns
            .iter()
            .map(|b| b.exclusive(layer).as_millis_f64())
            .sum();
        m.push((name, exclusive_ms / n));
    }
    m.push((
        "sim.histogram.record.ns_per_op",
        t.ns_per_op(Op::HistogramRecord),
    ));
    m.push((
        "sim.qos.throttle_stalls_per_kreq",
        per(c(Counter::ThrottleStalls), n, 1e3),
    ));

    // workload, bench
    let traces = &untraced.first.traces;
    let trace_requests: usize = traces.iter().map(|s| s.requests).sum();
    let trace_writes: usize = traces.iter().map(|s| s.writes).sum();
    m.push((
        "workload.generate.us_per_kreq",
        untraced.generate_ns() as f64 / trace_requests as f64,
    ));
    m.push((
        "workload.write_pct",
        100.0 * trace_writes as f64 / trace_requests as f64,
    ));
    m.push((
        "workload.mean_object_kib",
        traces.iter().map(|s| s.mean_object_bytes).sum::<f64>() / traces.len() as f64 / 1024.0,
    ));
    m.push(("bench.reps", untraced.reps as f64));
    m.push((
        "bench.available_cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    ));
    m.push(("bench.interference_pct", untraced.interference_pct()));

    Ok(Layered {
        metrics: m,
        shares,
        spans,
        untraced,
    })
}

/// Spans of repetition 0 of the untraced run: one per measured request
/// and one per event, laid end to end from the phase's start (set-up
/// time between parts is not shown).
fn record_first_repetition(spans: &mut Spans, phase: usize, started: u64, timed: &Timed) {
    let pass = spans.push(
        "measured_passes.repetition_0",
        started,
        started,
        phase,
        None,
    );
    let mut events = timed.first.event_ns.iter().peekable();
    let mut at = started;
    for (i, (&ns, bucket)) in timed
        .first
        .request_ns
        .iter()
        .zip(&timed.first.buckets)
        .enumerate()
    {
        while let Some(&&(position, event_ns)) = events.peek() {
            if position > i {
                break;
            }
            events.next();
            spans.push("core.event", at, at + event_ns, pass, None);
            at += event_ns;
        }
        spans.push(
            format!("core.handle.{}", bucket.label()),
            at,
            at + ns,
            pass,
            Some(i),
        );
        at += ns;
    }
    spans.spans[pass - 1].end_ns = at;
}
