//! Seeded chaos matrix: randomized composed fault schedules — device
//! shootdowns, spare insertions, latent corruption, transient timeouts,
//! slow devices, power-loss crashes, and backend outages/slowdowns —
//! woven through live workloads, with the standing resilience invariants
//! checked after every quiesce:
//!
//! * no acknowledged dirty write is lost (every acked key still serves,
//!   through the cache or the backend — never a wrong answer, never a
//!   panic);
//! * the stripe layer's checksum-verified consistency scan finds nothing;
//! * the health machine returns to `Healthy` once faults clear and the
//!   rebuild queue drains;
//! * the recovery engine's ledger reconciles exactly
//!   (`enqueued == completed + pending + cancelled`).
//!
//! Schedules are drawn from a deterministic per-(seed, schedule) stream,
//! so a failing combination replays identically. Three pinned seeds run
//! eight composed schedules each, every fault a `PlannedEvent` applied
//! through `CacheSystem::apply_event`, and
//! `single_node_chaos_fingerprints_are_pinned` pins what each observed.
//!
//! Dedicated scenarios cover the ISSUE's cascade cases: a second device
//! failure during rebuild inside the scheme's tolerance (recovery must
//! complete), beyond it (service degrades to backend-only `MediumError`
//! serving, never a panic), and a backend outage landing while the cache
//! is already read-only (requests shed with `NotReady` until restore).

//!
//! Node-level schedules extend the matrix to the cluster: a target
//! outage landing mid-device-rebuild, a rebalance interrupted by a
//! target failure, and a replace-then-rejoin membership dance — each
//! driven twice per seed to assert byte-identical replay, with the
//! no-acked-dirty-write-loss and quiesce-to-healthy invariants checked
//! at cluster scope.
//!
//! Replica-level schedules drive the same matrix under a 2-way
//! replication policy: an outage landing during the replica flush
//! window (with seeded divergence injection), a double outage
//! exceeding the factor (must degrade honestly), and a cluster-wide
//! crash mid-failback — each replayed for byte-identical fingerprints,
//! with the divergence ledger required to balance (100% of injected
//! divergences detected and repaired) after quiesce.
//!
//! Parity-level schedules drive a `k=4, m=2` parity group over six
//! targets: a single outage served by degraded reconstruction, a
//! double outage inside the `m=2` tolerance (still served by parity,
//! zero beyond-tolerance serves), a second outage landing while the
//! first target's group-aware repair is still draining, and a
//! cluster-wide crash mid-repair — each replayed for byte-identical
//! fingerprints (outcome sequence, per-target rows, and redundancy
//! counters), with zero acked dirty-write loss after quiesce.
//!
//! The three cluster families share one driver and one run; they differ
//! in their `Redundancy` policy, their schedule table, and the
//! assertions only their mechanism can state. Because a replay only
//! compares a run with itself, `cluster_chaos_fingerprints_are_pinned`
//! additionally pins a hash of every cluster schedule's observable
//! behaviour across commits.

use std::collections::BTreeMap;
use std::hash::Hasher;

use reo_repro::core::DeviceId;
use reo_repro::core::{
    CacheSystem, ClusterSystem, HealthState, PlannedEvent, Redundancy, SchemeConfig, SystemConfig,
    TargetState,
};
use reo_repro::osd::{ObjectKey, SenseCode};
use reo_repro::sim::rng::DetRng;
use reo_repro::sim::{ByteSize, FastHasher};
use reo_repro::workload::{Locality, Operation, Request, Trace, WorkloadSpec};

const SCHEDULES: u64 = 8;
const FAULT_POINTS: usize = 8;
const REQUESTS: usize = 1_600;
const DEVICES: usize = 5;

fn trace(seed: u64) -> Trace {
    WorkloadSpec {
        objects: 120,
        mean_object_size: ByteSize::from_kib(128),
        size_sigma: 0.7,
        locality: Locality::Medium,
        requests: REQUESTS,
        write_ratio: 0.3,
        temporal_reuse: Locality::Medium.temporal_reuse(),
        reuse_window: 120,
    }
    .generate(seed)
}

fn system(t: &Trace) -> CacheSystem {
    let cache = t.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
    config.chunk_size = ByteSize::from_kib(16);
    config.checkpoint_period = 300;
    let mut sys = CacheSystem::new(config);
    sys.populate(t.objects());
    sys
}

fn failed_set(sys: &CacheSystem) -> Vec<DeviceId> {
    (0..DEVICES)
        .map(DeviceId)
        .filter(|&d| !sys.target().array().device(d).is_healthy())
        .collect()
}

/// Draws one fault event, or none when the drawn device failure would
/// exceed the cap. The first point of every schedule is pinned to a device
/// failure so each run exercises the health machine.
fn draw_fault(sys: &CacheSystem, rng: &mut DetRng, point: usize) -> Option<PlannedEvent> {
    let roll = if point == 0 { 0 } else { rng.below(8) };
    let draw = |rng: &mut DetRng, base: u64, span: u64| (base + rng.below(span)) as u32;
    Some(match roll {
        0 => {
            // Fail a healthy device, staying within Dirty-class tolerance
            // (replication survives concurrent failures, but the menu caps
            // at two so clean classes keep a recovery path too).
            let failed = failed_set(sys);
            if failed.len() >= 2 {
                return None;
            }
            let healthy: Vec<DeviceId> = (0..DEVICES)
                .map(DeviceId)
                .filter(|d| !failed.contains(d))
                .collect();
            PlannedEvent::FailDevice(healthy[rng.below(healthy.len() as u64) as usize])
        }
        1 => {
            let failed = failed_set(sys);
            if failed.is_empty() {
                return None;
            }
            PlannedEvent::InsertSpare(failed[rng.below(failed.len() as u64) as usize])
        }
        2 => PlannedEvent::CorruptChunks {
            ppm: draw(rng, 1_000, 19_000),
        },
        3 => PlannedEvent::TransientFaults {
            ppm: draw(rng, 500, 4_500),
        },
        4 => PlannedEvent::SlowDevice {
            device: DeviceId(rng.below(DEVICES as u64) as usize),
            factor_pct: draw(rng, 150, 250),
        },
        5 => PlannedEvent::Crash,
        // Toggle a backend outage window.
        6 if sys.backend().is_down() => PlannedEvent::RestoreBackend,
        6 => PlannedEvent::FailBackend,
        _ => PlannedEvent::SlowBackend {
            factor_pct: 10 * draw(rng, 10, 30),
        },
    })
}

/// Clears every standing fault, spares every failed device, and drains
/// the rebuild queue — the quiesce step the invariants are checked after.
fn quiesce(sys: &mut CacheSystem) {
    let clear = [
        PlannedEvent::RestoreBackend,
        PlannedEvent::SlowBackend { factor_pct: 100 },
        PlannedEvent::TransientFaults { ppm: 0 },
    ];
    let full_speed = (0..DEVICES).map(|d| PlannedEvent::SlowDevice {
        device: DeviceId(d),
        factor_pct: 100,
    });
    let spares = failed_set(sys).into_iter().map(PlannedEvent::InsertSpare);
    for event in clear.into_iter().chain(full_speed).chain(spares) {
        sys.apply_event(event);
    }
    assert!(sys.drain_recovery(1_000_000), "rebuild queue must drain");
}

fn assert_ledger_reconciles(sys: &CacheSystem, label: &str) {
    let engine = sys.target().recovery_engine();
    assert_eq!(engine.pending(), 0, "{label}: rebuilds left pending");
    assert_eq!(
        engine.enqueued_total(),
        engine.completed_total() + engine.pending() as u64 + engine.cancelled_total(),
        "{label}: recovery ledger out of balance"
    );
}

/// Drives one single-node schedule, checks the invariants, and returns a
/// hash of what it observed: every request's `(sense, hit, degraded)`,
/// then the final `resilience()` and every device's counters.
fn chaos_run(seed: u64, schedule: u64) -> u64 {
    let label = format!("seed {seed} schedule {schedule}");
    let t = trace(seed);
    let mut sys = system(&t);
    // Keep acknowledged dirty writes resident so the no-acked-write-lost
    // invariant is tested against live dirty state, not flushed copies.
    sys.set_dirty_flush_watermark(1.0);
    let mut rng = DetRng::from_seed(seed).derive(&format!("chaos-{schedule}"));

    let stride = REQUESTS / FAULT_POINTS;
    let points: Vec<usize> = (0..FAULT_POINTS)
        .map(|k| k * stride + 20 + rng.below((stride - 40) as u64) as usize)
        .collect();

    let mut fingerprint = Vec::with_capacity(t.requests().len());
    let mut acked: BTreeMap<ObjectKey, ByteSize> = BTreeMap::new();
    let mut next = 0usize;
    for (i, r) in t.requests().iter().enumerate() {
        if next < points.len() && i == points[next] {
            if let Some(event) = draw_fault(&sys, &mut rng, next) {
                sys.apply_event(event);
            }
            next += 1;
        }
        let outcome = sys.handle(r);
        assert_ne!(
            outcome.sense,
            SenseCode::Failure,
            "{label}: request {i} returned an opaque failure"
        );
        fingerprint.push((outcome.sense, outcome.hit, outcome.degraded));
        if r.op == Operation::Write
            && matches!(
                outcome.sense,
                SenseCode::Success | SenseCode::RecoveredError
            )
        {
            acked.insert(r.key, r.size);
        }
    }
    assert_eq!(next, FAULT_POINTS, "{label}: every fault point must fire");

    quiesce(&mut sys);

    let snap = sys.resilience();
    assert_eq!(
        sys.health(),
        HealthState::Healthy,
        "{label}: quiesced system must heal (snapshot: {snap:?})"
    );
    assert!(
        snap.health_transitions > 0,
        "{label}: the pinned first failure must move the health machine"
    );
    assert_eq!(
        sys.dirty_data_lost(),
        0,
        "{label}: acknowledged dirty data lost"
    );
    let violations = sys.target().verify_consistency();
    assert!(violations.is_empty(), "{label}: {violations:?}");
    assert_ledger_reconciles(&sys, &label);

    // Every acknowledged write still serves correct (checksum-verified)
    // bytes — from the cache, degraded reconstruction, or the backend.
    for (&key, &size) in &acked {
        let read = Request {
            key,
            op: Operation::Read,
            size,
        };
        let outcome = sys.handle(&read);
        assert!(
            matches!(
                outcome.sense,
                SenseCode::Success | SenseCode::RecoveredError | SenseCode::MediumError
            ),
            "{label}: acked write {key:?} unreadable after quiesce ({:?})",
            outcome.sense
        );
    }

    let array = sys.target().array();
    let devices: Vec<_> = (0..DEVICES)
        .map(|d| array.device(DeviceId(d)).stats())
        .collect();
    let observed = format!("{:?}", (&fingerprint, sys.resilience(), devices));
    let mut hasher = FastHasher::default();
    hasher.write(observed.as_bytes());
    hasher.finish()
}

fn chaos_matrix(seed: u64) -> Vec<u64> {
    (0..SCHEDULES).map(|s| chaos_run(seed, s)).collect()
}

#[test]
fn chaos_matrix_seed_11() {
    chaos_matrix(11);
}

#[test]
fn chaos_matrix_seed_42() {
    chaos_matrix(42);
}

#[test]
fn chaos_matrix_seed_1234() {
    chaos_matrix(1234);
}

/// What [`chaos_run`] observed, per `(seed, schedule)`, recorded at the
/// last commit whose `apply_fault` and `quiesce` called the fault methods
/// one by one instead of drawing [`PlannedEvent`]s; a change that moves a
/// hash changed what a single node computes and must say why.
///
/// All twenty-four were re-recorded when fit became one per-device rule
/// checked before anything is written: a store some device has no room
/// for is refused without charging the writes the aggregate free-byte
/// check used to let through or consuming a stripe, and a promotion
/// evicts until every device has room, so device times, stripe rotation
/// and which objects stay cached all move.
const PINNED_SINGLE_NODE: [(u64, [u64; SCHEDULES as usize]); 3] = [
    (
        11,
        [
            0xa60127a3a0823e5c,
            0xca487ad04fa35408,
            0xc915f112b729697f,
            0x1df08e596573f3f7,
            0x4a824fa917ed1681,
            0x6adc48f5e4a89596,
            0xa351a3f4ae7ee222,
            0x93791062eb52fe95,
        ],
    ),
    (
        42,
        [
            0xdad3adb14dd918d1,
            0x4d97dd281c2cf800,
            0xd76ea930fcfa320a,
            0x4eadd9c2599bf191,
            0x3b668887a00be428,
            0xeca2217a009f5e75,
            0x6e24753d96b8691b,
            0xec6405fd428d089c,
        ],
    ),
    (
        1234,
        [
            0xcf8534bb957a135e,
            0xbf41406112a97642,
            0xb2b8f37b44143dd4,
            0xbb14bb74c1f97463,
            0x278f50f70bb65881,
            0xa1387ec43c828254,
            0x4a9bdcf44f45ee27,
            0xadfef02ece281862,
        ],
    ),
];

#[test]
fn single_node_chaos_fingerprints_are_pinned() {
    let observed: Vec<(u64, Vec<u64>)> = PINNED_SINGLE_NODE
        .iter()
        .map(|&(seed, _)| (seed, chaos_matrix(seed)))
        .collect();
    let pinned: Vec<(u64, Vec<u64>)> = PINNED_SINGLE_NODE
        .iter()
        .map(|(seed, hashes)| (*seed, hashes.to_vec()))
        .collect();
    assert_eq!(
        observed, pinned,
        "single-node behaviour moved; observed {observed:#018x?}"
    );
}

// ---- node-level (cluster) chaos -----------------------------------------

/// The three node-level schedules, as `(request index, event)` lists.
/// Device ids are global (`devices_per_node * target + local`).
fn node_schedule(which: usize, n: usize) -> Schedule {
    match which {
        // Target outage mid-rebuild: target 1 loses a device, its spare
        // rebuild starts, then the whole node crashes while the rebuild
        // drains. Restore must journal-replay and finish the rebuild.
        0 => (
            4,
            vec![
                (n / 8, PlannedEvent::FailDevice(DeviceId(DEVICES))),
                (n / 8 + 40, PlannedEvent::InsertSpare(DeviceId(DEVICES))),
                (n / 4, PlannedEvent::FailTarget(1)),
                (5 * n / 8, PlannedEvent::RestoreTarget(1)),
            ],
        ),
        // Rebalance interrupted by a target failure: a newcomer joins
        // (migrations start flowing), then a target fails while the
        // rebalance is still draining.
        1 => (
            3,
            vec![
                (n / 4, PlannedEvent::AddTarget),
                (n / 4 + 30, PlannedEvent::FailTarget(0)),
                (3 * n / 4, PlannedEvent::RestoreTarget(0)),
            ],
        ),
        // Replace-then-rejoin: a target dies, a replacement joins and
        // takes over part of the ring, then the original rejoins —
        // ring-delta migration must hand off keys it no longer owns.
        _ => (
            3,
            vec![
                (n / 5, PlannedEvent::FailTarget(2)),
                (2 * n / 5, PlannedEvent::AddTarget),
                (3 * n / 5, PlannedEvent::RestoreTarget(2)),
            ],
        ),
    }
}

// ---- replica-level (cross-target replication) chaos ----------------------

/// The three replica-level schedules, driven under a 2-way replication
/// policy on four targets.
fn replica_schedule(which: usize, n: usize) -> Schedule {
    match which {
        // Outage landing during the replica flush window: divergence is
        // injected while acked writes are still fanning out, then the
        // primary dies and its range is served from replica holders'
        // caches until restore.
        0 => (
            4,
            vec![
                (
                    n / 8,
                    PlannedEvent::InjectReplicaDivergence { ppm: 500_000 },
                ),
                (n / 4, PlannedEvent::FailTarget(0)),
                (
                    n / 2,
                    PlannedEvent::InjectReplicaDivergence { ppm: 500_000 },
                ),
                (5 * n / 8, PlannedEvent::RestoreTarget(0)),
            ],
        ),
        // Double outage beyond the 2-way factor: part of the namespace
        // loses every holder and must degrade honestly to backend-first
        // service — never a phantom hit, never a panic.
        1 => (
            4,
            vec![
                (n / 4, PlannedEvent::FailTarget(0)),
                (n / 4 + 20, PlannedEvent::FailTarget(1)),
                (5 * n / 8, PlannedEvent::RestoreTarget(0)),
                (5 * n / 8 + 20, PlannedEvent::RestoreTarget(1)),
            ],
        ),
        // Crash mid-failback: the restored target is still reconciling
        // its stale range through the rebuild throttle when every node
        // power-cuts and journal-replays.
        _ => (
            4,
            vec![
                (n / 5, PlannedEvent::FailTarget(2)),
                (2 * n / 5, PlannedEvent::RestoreTarget(2)),
                (2 * n / 5 + 5, PlannedEvent::Crash),
            ],
        ),
    }
}

// ---- parity-level (cross-target parity group) chaos ----------------------

/// The four parity-level schedules, driven under a `k=4, m=2` parity
/// group spanning six targets (one group, tolerance 2).
fn parity_schedule(which: usize, n: usize) -> Schedule {
    match which {
        // Single outage: the downed member's covered range is served by
        // degraded reconstruction from the surviving five shards until
        // the restore's group-aware repair completes.
        0 => (
            6,
            vec![
                (n / 4, PlannedEvent::FailTarget(1)),
                (5 * n / 8, PlannedEvent::RestoreTarget(1)),
            ],
        ),
        // Double outage inside the m=2 tolerance: both downed ranges
        // keep reconstructing from the remaining four shards — never a
        // beyond-tolerance fallback.
        1 => (
            6,
            vec![
                (n / 4, PlannedEvent::FailTarget(0)),
                (n / 4 + 20, PlannedEvent::FailTarget(1)),
                (5 * n / 8, PlannedEvent::RestoreTarget(0)),
                (5 * n / 8 + 20, PlannedEvent::RestoreTarget(1)),
            ],
        ),
        // Outage during repair: a second member dies while the first
        // restore's shard re-syncs are still draining through the
        // throttle — the group must keep serving and both repairs must
        // complete after quiesce.
        2 => (
            6,
            vec![
                (n / 5, PlannedEvent::FailTarget(2)),
                (2 * n / 5, PlannedEvent::RestoreTarget(2)),
                (n / 2, PlannedEvent::FailTarget(3)),
                (3 * n / 4, PlannedEvent::RestoreTarget(3)),
            ],
        ),
        // Crash mid-repair: every node power-cuts and journal-replays
        // while the restored member's redundancy is still being
        // re-established.
        _ => (
            6,
            vec![
                (n / 5, PlannedEvent::FailTarget(2)),
                (2 * n / 5, PlannedEvent::RestoreTarget(2)),
                (2 * n / 5 + 5, PlannedEvent::Crash),
            ],
        ),
    }
}

// ---- the one cluster driver -------------------------------------------------

/// `(targets, events at request indices)`.
type Schedule = (usize, Vec<(usize, PlannedEvent)>);

/// A chaos family of cluster schedules.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    Node,
    Replica,
    Parity,
}

impl Family {
    fn policy(self) -> Redundancy {
        match self {
            Family::Node => Redundancy::none(),
            Family::Replica => Redundancy::two_way(),
            Family::Parity => Redundancy::reo(4, 2),
        }
    }

    fn schedules(self) -> usize {
        match self {
            Family::Node | Family::Replica => 3,
            Family::Parity => 4,
        }
    }

    fn schedule(self, which: usize, n: usize) -> Schedule {
        match self {
            Family::Node => node_schedule(which, n),
            Family::Replica => replica_schedule(which, n),
            Family::Parity => parity_schedule(which, n),
        }
    }
}

/// One deterministic cluster drive: every request routed with the
/// schedule's events applied at their indices, the full outcome
/// sequence recorded as the replay fingerprint, acked writes tracked.
struct ClusterDrive {
    cluster: ClusterSystem,
    fingerprint: Vec<(SenseCode, bool, bool)>,
    acked: BTreeMap<ObjectKey, ByteSize>,
}

fn drive_cluster(
    t: &Trace,
    (targets, events): Schedule,
    policy: Redundancy,
    label: &str,
) -> ClusterDrive {
    let cache = t.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
    config.chunk_size = ByteSize::from_kib(16);
    config.checkpoint_period = 300;
    // Keep acknowledged dirty writes resident so the no-loss invariant
    // is tested against live dirty state, not flushed copies.
    config.dirty_flush_watermark = 1.0;
    let mut cluster = ClusterSystem::new(config, targets).with_redundancy(policy);
    cluster.populate(t.objects());

    let mut fingerprint = Vec::with_capacity(t.requests().len());
    let mut acked: BTreeMap<ObjectKey, ByteSize> = BTreeMap::new();
    let mut next = 0usize;
    for (i, r) in t.requests().iter().enumerate() {
        while next < events.len() && events[next].0 == i {
            cluster.apply_event(events[next].1);
            next += 1;
        }
        let outcome = cluster.handle(r);
        assert_ne!(
            outcome.sense,
            SenseCode::Failure,
            "{label}: request {i} returned an opaque failure"
        );
        fingerprint.push((outcome.sense, outcome.hit, outcome.degraded));
        if r.op == Operation::Write
            && matches!(
                outcome.sense,
                SenseCode::Success | SenseCode::RecoveredError
            )
        {
            acked.insert(r.key, r.size);
        }
    }
    assert_eq!(next, events.len(), "{label}: every event must fire");
    ClusterDrive {
        cluster,
        fingerprint,
        acked,
    }
}

fn cluster_chaos_run(family: Family, seed: u64, which: usize) {
    let name = format!("{family:?}").to_lowercase();
    let label = format!("seed {seed} {name}-schedule {which}");
    let t = trace(seed);
    let n = t.requests().len();

    // Determinism: the same seed and schedule replay an identical
    // outcome sequence, identical per-target rows, and identical
    // redundancy counters.
    let mut drive = drive_cluster(&t, family.schedule(which, n), family.policy(), &label);
    let replay = drive_cluster(&t, family.schedule(which, n), family.policy(), &label);
    assert_eq!(
        drive.fingerprint, replay.fingerprint,
        "{label}: replay diverged"
    );
    assert_eq!(
        drive.cluster.target_rows(),
        replay.cluster.target_rows(),
        "{label}: per-target rows diverged"
    );
    assert_eq!(
        drive.cluster.redundancy_snapshot(),
        replay.cluster.redundancy_snapshot(),
        "{label}: redundancy counters diverged"
    );

    let cluster = &mut drive.cluster;
    let mid_run = cluster.redundancy_snapshot();
    match family {
        Family::Node => {}
        Family::Replica => {
            assert!(
                mid_run.protected_writes > 0,
                "{label}: the 2-way policy must fan acked writes out"
            );
            if which == 0 {
                assert!(
                    mid_run.divergences_injected > 0,
                    "{label}: the seeded injection must diverge something"
                );
                assert!(
                    mid_run.failover_serves > 0,
                    "{label}: the failed range must be served from replica holders"
                );
            }
            if which == 1 {
                assert!(
                    cluster.observed_degraded_fraction() > 0.0,
                    "{label}: a double outage beyond the factor must degrade honestly"
                );
            }
        }
        Family::Parity => {
            assert!(
                mid_run.protected_writes > 0,
                "{label}: acked writes must keep encoding stripes"
            );
            assert!(
                mid_run.failover_serves > 0,
                "{label}: the downed range must be served by degraded reconstruction"
            );
            if which <= 1 {
                // Single and double outage both sit inside the m=2 tolerance:
                // no covered read may fall back beyond it.
                assert_eq!(
                    mid_run.beyond_tolerance_serves, 0,
                    "{label}: outages within tolerance must never exceed it"
                );
            }
        }
    }

    // Quiesce: restore anything still down, drain rebuilds and the
    // rebalance/repair queue, and require the cluster to heal.
    for target in 0..cluster.targets_created() {
        if cluster.target_state(target) == TargetState::Down {
            cluster.apply_event(PlannedEvent::RestoreTarget(target));
        }
    }
    assert!(
        cluster.drain_recovery(1_000_000),
        "{label}: rebuild/rebalance/repair queues must drain"
    );
    match family {
        Family::Node => {}
        Family::Replica => {
            // A complete anti-entropy pass must balance the divergence
            // ledger — every injected divergence detected and
            // repaired, nothing ever served silently stale.
            cluster.run_anti_entropy_pass();
            let snap = cluster.redundancy_snapshot();
            assert_eq!(
                snap.divergences_detected, snap.divergences_injected,
                "{label}: anti-entropy missed injected divergences ({snap:?})"
            );
            assert_eq!(
                snap.divergences_repaired, snap.divergences_detected,
                "{label}: detected divergences left unrepaired ({snap:?})"
            );
        }
        Family::Parity => {
            let snap = cluster.redundancy_snapshot();
            assert!(
                snap.repairs_completed >= 1,
                "{label}: every restore must complete its group repair ({snap:?})"
            );
        }
    }

    let health = cluster.health();
    assert_eq!(health.down, 0, "{label}: {health:?}");
    assert_eq!(health.label, "healthy", "{label}: {health:?}");
    assert_eq!(
        cluster.dirty_data_lost(),
        0,
        "{label}: acknowledged dirty data lost"
    );

    // Every acknowledged write still serves through the ring — from the
    // owner's cache, a degraded path, or the backend; never a failure.
    for (&key, &size) in &drive.acked {
        let read = Request {
            key,
            op: Operation::Read,
            size,
        };
        let outcome = cluster.handle(&read);
        assert!(
            matches!(
                outcome.sense,
                SenseCode::Success | SenseCode::RecoveredError | SenseCode::MediumError
            ),
            "{label}: acked write {key:?} unreadable after quiesce ({:?})",
            outcome.sense
        );
    }
}

fn cluster_chaos_matrix(family: Family, seed: u64) {
    for which in 0..family.schedules() {
        cluster_chaos_run(family, seed, which);
    }
}

#[test]
fn node_chaos_matrix_seed_11() {
    cluster_chaos_matrix(Family::Node, 11);
}

#[test]
fn node_chaos_matrix_seed_42() {
    cluster_chaos_matrix(Family::Node, 42);
}

#[test]
fn node_chaos_matrix_seed_1234() {
    cluster_chaos_matrix(Family::Node, 1234);
}

#[test]
fn replica_chaos_matrix_seed_11() {
    cluster_chaos_matrix(Family::Replica, 11);
}

#[test]
fn replica_chaos_matrix_seed_42() {
    cluster_chaos_matrix(Family::Replica, 42);
}

#[test]
fn replica_chaos_matrix_seed_1234() {
    cluster_chaos_matrix(Family::Replica, 1234);
}

#[test]
fn parity_chaos_matrix_seed_11() {
    cluster_chaos_matrix(Family::Parity, 11);
}

#[test]
fn parity_chaos_matrix_seed_42() {
    cluster_chaos_matrix(Family::Parity, 42);
}

#[test]
fn parity_chaos_matrix_seed_1234() {
    cluster_chaos_matrix(Family::Parity, 1234);
}

/// Hashes, per `(seed, family, schedule)`, of what one drive returned
/// and measured *before* quiesce: the `(sense, hit, degraded)` sequence,
/// `target_rows()` and `metrics_snapshot()`. The matrix above compares a
/// run only with its own replay; this table pins behaviour across
/// commits. Recorded at the last commit before the redundancy models
/// were merged (PR 17); a change that moves a hash changed what the
/// cluster computes and must say why.
///
/// Entries 3, 6, 9 and 10 of each seed were re-recorded when a layout
/// record shrank to ~90 bytes (PR 19): a crash lets at most 128 bytes of
/// the journal's staging buffer reach the media, which now often holds a
/// whole staged `Create`, so those crashes keep one more clean object.
/// With the tear forced to 0 bytes the two commits agree on all thirty
/// (EXPERIMENTS.md, "What the crash tear retains").
///
/// All thirty were re-recorded with the single-node pins above, when fit
/// became one per-device rule checked before anything is written.
const PINNED_FINGERPRINTS: [(u64, [u64; 10]); 3] = [
    (
        11,
        [
            0xb6db9bf6ae15df9e,
            0x261b6b69cf52a1fb,
            0xe80bf394cc29a3c6,
            0x12fcaefe38974645,
            0x23091d5910c34425,
            0x3e0d3f73f4be45bf,
            0x90d45a66da222844,
            0x4733dbb5deb558ff,
            0xdd48793f55dea282,
            0x816d4ec210a66111,
        ],
    ),
    (
        42,
        [
            0xc45369590f0bf15c,
            0x72d5d768f7d9f2c4,
            0xb76dcb0e4f2b6c2b,
            0x1c09dad6a4350210,
            0x0bd592015ef8502d,
            0x526c33202f52f336,
            0x5315340d8e3a47b6,
            0xa2b9d7e0fa544a14,
            0x4993463d52bdfc17,
            0x5da251fc6043546d,
        ],
    ),
    (
        1234,
        [
            0x95fe654ecf79af98,
            0xac74f1579556bf5f,
            0xdebeba189dc8dc17,
            0x854c881b43d4a29c,
            0x3f182d44c5dab18a,
            0x339d117c9237f845,
            0xa0e6299599340861,
            0x1e5fb8f8997db4de,
            0xd87a626b17ea455f,
            0x645670a5733ffd59,
        ],
    ),
];

#[test]
fn cluster_chaos_fingerprints_are_pinned() {
    for (seed, pinned) in PINNED_FINGERPRINTS {
        let t = trace(seed);
        let n = t.requests().len();
        let mut hashes = Vec::new();
        for family in [Family::Node, Family::Replica, Family::Parity] {
            for which in 0..family.schedules() {
                let drive = drive_cluster(&t, family.schedule(which, n), family.policy(), "pin");
                let observed = format!(
                    "{:?}",
                    (
                        &drive.fingerprint,
                        drive.cluster.target_rows(),
                        drive.cluster.metrics_snapshot()
                    )
                );
                let mut hasher = FastHasher::default();
                hasher.write(observed.as_bytes());
                hashes.push(hasher.finish());
            }
        }
        assert_eq!(
            hashes, pinned,
            "seed {seed}: cluster behaviour moved; observed {hashes:#018x?}"
        );
    }
}

/// A second device failure landing mid-rebuild, inside Reo's Dirty-class
/// tolerance: recovery must still complete and the system must heal.
#[test]
fn second_failure_during_rebuild_within_tolerance_completes() {
    let t = trace(7);
    let mut sys = system(&t);
    sys.set_dirty_flush_watermark(1.0);
    for r in t.requests().iter().take(800) {
        sys.handle(r);
    }
    sys.fail_device(DeviceId(0));
    sys.insert_spare(DeviceId(0));
    assert!(sys.recovery_pending() > 0, "rebuild must be in flight");
    assert_eq!(sys.health(), HealthState::Recovering);

    // The cascade: a second device dies while the first rebuild drains.
    sys.fail_device(DeviceId(1));
    assert_eq!(sys.health(), HealthState::Degraded(1));
    for r in t.requests().iter().skip(800) {
        let outcome = sys.handle(r);
        assert_ne!(outcome.sense, SenseCode::Failure);
    }
    sys.insert_spare(DeviceId(1));
    assert!(sys.drain_recovery(1_000_000));
    assert_eq!(sys.health(), HealthState::Healthy);
    assert_eq!(sys.dirty_data_lost(), 0);
    assert_ledger_reconciles(&sys, "within tolerance");
}

/// The same cascade beyond a uniform scheme's tolerance: 1-parity cannot
/// survive two concurrent failures, so the cache goes read-only and every
/// request is served by the backend (`MediumError` for reads) — never a
/// panic, never a wrong answer.
#[test]
fn second_failure_beyond_tolerance_degrades_to_backend_serving() {
    let t = trace(8);
    let cache = t.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Parity(1), cache);
    config.chunk_size = ByteSize::from_kib(16);
    let mut sys = CacheSystem::new(config);
    sys.populate(t.objects());
    for r in t.requests().iter().take(800) {
        sys.handle(r);
    }
    sys.fail_device(DeviceId(0));
    sys.insert_spare(DeviceId(0));
    assert!(sys.recovery_pending() > 0, "rebuild must be in flight");
    // Two devices die while the rebuild is still draining: with the spare
    // not yet rebuilt, 1-parity is past its tolerance and the cache folds.
    sys.fail_device(DeviceId(1));
    sys.fail_device(DeviceId(0));
    assert!(sys.is_offline(), "1-parity dies beyond its tolerance");
    assert_eq!(sys.health(), HealthState::ReadOnly);

    let mut backend_served = 0u64;
    for r in t.requests().iter().skip(800) {
        let outcome = sys.handle(r);
        match (r.op, outcome.sense) {
            (Operation::Read, SenseCode::MediumError) => backend_served += 1,
            (Operation::Read, SenseCode::NotReady) => {}
            (Operation::Write, SenseCode::Success | SenseCode::NotReady) => {}
            (op, sense) => panic!("unexpected outcome {op:?}/{sense:?} while read-only"),
        }
    }
    assert!(backend_served > 0, "the backend must carry the reads");
    assert!(sys.resilience().write_throughs > 0, "writes fall through");
}

/// A backend outage while the cache is already read-only: the system is
/// `Unavailable`, requests are shed with `NotReady` (never a panic), and
/// service returns once the backend does.
#[test]
fn backend_outage_while_read_only_becomes_unavailable() {
    let t = trace(9);
    let cache = t.summary().data_set_bytes.scale(0.10);
    let mut config = SystemConfig::paper_defaults(SchemeConfig::Parity(1), cache);
    config.chunk_size = ByteSize::from_kib(16);
    let mut sys = CacheSystem::new(config);
    sys.populate(t.objects());
    for r in t.requests().iter().take(400) {
        sys.handle(r);
    }
    sys.fail_device(DeviceId(0));
    sys.fail_device(DeviceId(1));
    assert_eq!(sys.health(), HealthState::ReadOnly);

    sys.apply_event(PlannedEvent::FailBackend);
    let probe = sys.handle(&t.requests()[400]);
    assert_eq!(sys.health(), HealthState::Unavailable);
    assert_eq!(probe.sense, SenseCode::NotReady, "shed, not served wrong");
    for r in t.requests().iter().skip(401).take(200) {
        let outcome = sys.handle(r);
        assert_eq!(outcome.sense, SenseCode::NotReady);
    }
    assert!(sys.resilience().shed_requests > 0);

    sys.apply_event(PlannedEvent::RestoreBackend);
    sys.handle(&t.requests()[601]);
    assert_eq!(sys.health(), HealthState::ReadOnly, "backend is back");
    sys.insert_spare(DeviceId(0));
    sys.insert_spare(DeviceId(1));
    assert!(sys.drain_recovery(1_000_000));
    for r in t.requests().iter().skip(602) {
        sys.handle(r);
    }
    assert_eq!(sys.health(), HealthState::Healthy, "full service restored");
}
