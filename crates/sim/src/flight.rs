//! Black-box flight recorder: a bounded ring of structured control-plane
//! events with deterministic post-mortem dumps.
//!
//! Where the [`crate::Tracer`] answers "where did this request's time
//! go", the flight recorder answers "what was the system doing when
//! things went wrong". Every rare, state-changing event — health
//! transitions, fault injections, rejected events, journal replays,
//! rebalance batches, replica-divergence detections
//! (`replica-divergence`, `divergence-injected`), and repair
//! milestones (`target-restored`, `repair-queued`, `repair-complete`)
//! — is recorded into a bounded ring, so a postmortem shows the full
//! outage → failover → repair arc. When a trigger fires (a
//! target leaves `Healthy`, an internal error is detected), the
//! recorder snapshots the ring into a [`Postmortem`]: the last N events
//! leading up to the trigger, in order, stamped with simulated time.
//!
//! The recorder is *always on*: control-plane events are rare (a handful
//! per run, not per request), so recording them costs nothing on the
//! request path. All state is ordered and simulated-time-stamped, so two
//! runs with the same seed produce byte-identical postmortems.
//!
//! A [`FlightRecorder`] handle is cheap to clone; clones share the ring.
//! [`FlightRecorder::with_target`] derives a handle that stamps every
//! event with a target id, so a cluster can hand each node a tagged view
//! of one shared recorder.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

/// One structured control-plane event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// When the event fired (simulated).
    pub at: SimTime,
    /// The target the recording handle was tagged with; -1 for
    /// cluster-scoped or single-system events.
    pub target: i64,
    /// A static event kind, e.g. `"health-transition"`, `"fault-injected"`.
    pub kind: &'static str,
    /// Free-form detail built from deterministic values only.
    pub detail: String,
}

/// A snapshot of the event ring taken when a trigger fired.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Postmortem {
    /// When the trigger fired (simulated).
    pub at: SimTime,
    /// The target the triggering handle was tagged with; -1 for
    /// cluster-scoped triggers.
    pub target: i64,
    /// Why the dump happened, e.g. `"health-degraded"`, `"internal-error"`.
    pub trigger: String,
    /// Events that had already fallen off the ring by dump time.
    pub dropped_events: u64,
    /// The retained events leading up to the trigger, oldest first.
    pub events: Vec<FlightEvent>,
}

#[derive(Debug)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    ring_cap: usize,
    seq: u64,
    dropped: u64,
    postmortems: Vec<Postmortem>,
    postmortem_cap: usize,
    postmortems_dropped: u64,
}

impl FlightInner {
    fn record(&mut self, at: SimTime, target: i64, kind: &'static str, detail: String) {
        self.seq += 1;
        if self.ring.len() == self.ring_cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(FlightEvent {
            seq: self.seq,
            at,
            target,
            kind,
            detail,
        });
    }
}

/// Events retained in the ring (the lookback window of a postmortem).
const DEFAULT_RING_EVENTS: usize = 256;

/// Postmortems retained per run; later triggers only count.
const DEFAULT_POSTMORTEMS: usize = 16;

/// A cloneable handle to a shared flight recorder (see the module docs).
#[derive(Clone, Debug)]
pub struct FlightRecorder {
    shared: Arc<Mutex<FlightInner>>,
    target: i64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates an empty recorder tagged as cluster-scoped (`target = -1`).
    pub fn new() -> Self {
        FlightRecorder {
            shared: Arc::new(Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(DEFAULT_RING_EVENTS),
                ring_cap: DEFAULT_RING_EVENTS,
                seq: 0,
                dropped: 0,
                postmortems: Vec::new(),
                postmortem_cap: DEFAULT_POSTMORTEMS,
                postmortems_dropped: 0,
            })),
            target: -1,
        }
    }

    /// A handle to the same ring that stamps events with `target`.
    pub fn with_target(&self, target: i64) -> Self {
        FlightRecorder {
            shared: Arc::clone(&self.shared),
            target,
        }
    }

    /// The target id this handle stamps onto events.
    pub fn target(&self) -> i64 {
        self.target
    }

    /// Records one event.
    pub fn record(&self, at: SimTime, kind: &'static str, detail: impl Into<String>) {
        let mut inner = self.shared.lock().expect("flight lock");
        let target = self.target;
        inner.record(at, target, kind, detail.into());
    }

    /// Snapshots the ring into a [`Postmortem`]. The dump itself is also
    /// recorded as a `"postmortem"` event so later dumps see earlier
    /// triggers in their lookback window.
    pub fn dump(&self, at: SimTime, trigger: impl Into<String>) {
        let trigger = trigger.into();
        let mut inner = self.shared.lock().expect("flight lock");
        let snapshot = Postmortem {
            at,
            target: self.target,
            trigger: trigger.clone(),
            dropped_events: inner.dropped,
            events: inner.ring.iter().cloned().collect(),
        };
        if inner.postmortems.len() < inner.postmortem_cap {
            inner.postmortems.push(snapshot);
        } else {
            inner.postmortems_dropped += 1;
        }
        let target = self.target;
        inner.record(at, target, "postmortem", trigger);
    }

    /// The events currently in the ring, oldest first.
    pub fn events(&self) -> Vec<FlightEvent> {
        let inner = self.shared.lock().expect("flight lock");
        inner.ring.iter().cloned().collect()
    }

    /// Total events recorded since the last reset (including those that
    /// have fallen off the ring).
    pub fn recorded(&self) -> u64 {
        self.shared.lock().expect("flight lock").seq
    }

    /// The retained postmortem dumps, in trigger order.
    pub fn postmortems(&self) -> Vec<Postmortem> {
        self.shared.lock().expect("flight lock").postmortems.clone()
    }

    /// Dumps that were discarded because the postmortem store was full.
    pub fn postmortems_dropped(&self) -> u64 {
        self.shared.lock().expect("flight lock").postmortems_dropped
    }

    /// Clears the ring, counters and retained postmortems (e.g. at the
    /// end of warm-up).
    pub fn reset(&self) {
        let mut inner = self.shared.lock().expect("flight lock");
        inner.ring.clear();
        inner.seq = 0;
        inner.dropped = 0;
        inner.postmortems.clear();
        inner.postmortems_dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_nanos(us * 1_000)
    }

    #[test]
    fn records_and_dumps_in_order() {
        let fr = FlightRecorder::new();
        fr.record(t(1), "fault-injected", "device 2 slow");
        fr.record(t(2), "health-transition", "healthy -> degraded");
        fr.dump(t(2), "health-degraded");
        let pm = fr.postmortems();
        assert_eq!(pm.len(), 1);
        assert_eq!(pm[0].trigger, "health-degraded");
        assert_eq!(pm[0].events.len(), 2);
        assert_eq!(pm[0].events[0].seq, 1);
        assert_eq!(pm[0].events[1].kind, "health-transition");
        // The dump itself lands in the ring for later triggers.
        assert_eq!(fr.events().last().unwrap().kind, "postmortem");
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let fr = FlightRecorder::new();
        for i in 0..(DEFAULT_RING_EVENTS as u64 + 7) {
            fr.record(t(i), "tick", format!("event {i}"));
        }
        let events = fr.events();
        assert_eq!(events.len(), DEFAULT_RING_EVENTS);
        assert_eq!(events[0].seq, 8);
        fr.dump(t(999), "overflow-check");
        assert_eq!(fr.postmortems()[0].dropped_events, 7);
    }

    #[test]
    fn tagged_handles_share_the_ring() {
        let fr = FlightRecorder::new();
        let node = fr.with_target(3);
        node.record(t(5), "journal-replay", "replayed 12 records");
        let events = fr.events();
        assert_eq!(events[0].target, 3);
        node.dump(t(6), "internal-error");
        assert_eq!(fr.postmortems()[0].target, 3);
    }

    #[test]
    fn postmortem_store_is_bounded() {
        let fr = FlightRecorder::new();
        for i in 0..(DEFAULT_POSTMORTEMS as u64 + 3) {
            fr.dump(t(i), format!("trigger {i}"));
        }
        assert_eq!(fr.postmortems().len(), DEFAULT_POSTMORTEMS);
        assert_eq!(fr.postmortems_dropped(), 3);
    }

    #[test]
    fn reset_clears_everything() {
        let fr = FlightRecorder::new();
        fr.record(t(1), "tick", "x");
        fr.dump(t(2), "trigger");
        fr.reset();
        assert!(fr.events().is_empty());
        assert!(fr.postmortems().is_empty());
        assert_eq!(fr.recorded(), 0);
    }
}
