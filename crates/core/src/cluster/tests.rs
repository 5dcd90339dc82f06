use super::redundancy::{fill_shard, shard_seed, ANTI_ENTROPY_BUDGET};
use super::*;
use crate::config::SchemeConfig;
use crate::metrics::CLASS_LABELS;
use reo_osd::ObjectClass;
use reo_placement::TargetId;
use reo_workload::{Locality, WorkloadSpec};

fn trace(seed: u64, requests: usize) -> Trace {
    WorkloadSpec {
        objects: 120,
        mean_object_size: ByteSize::from_kib(128),
        size_sigma: 0.5,
        locality: Locality::Medium,
        requests,
        write_ratio: 0.3,
        temporal_reuse: Locality::Medium.temporal_reuse(),
        reuse_window: 100,
    }
    .generate(seed)
}

fn cluster(targets: usize, trace: &Trace) -> ClusterSystem {
    let cache = trace.summary().data_set_bytes.scale(0.25);
    let mut cfg = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
    cfg.chunk_size = ByteSize::from_kib(16);
    let mut c = ClusterSystem::new(cfg, targets);
    c.populate(trace.objects());
    c
}

#[test]
fn routing_covers_every_target() {
    let t = trace(1, 800);
    let mut c = cluster(4, &t);
    for r in t.requests() {
        c.handle(r);
    }
    let rows = c.target_rows();
    assert_eq!(rows.len(), 4);
    assert!(
        rows.iter().all(|r| r.requests > 0),
        "ring balance must spread requests: {rows:?}"
    );
    assert_eq!(
        rows.iter().map(|r| r.requests).sum::<u64>(),
        800,
        "every request routed exactly once"
    );
}

#[test]
fn same_seed_clusters_replay_identically() {
    let t = trace(2, 600);
    let mut a = cluster(3, &t);
    let mut b = cluster(3, &t);
    for r in t.requests() {
        let oa = a.handle(r);
        let ob = b.handle(r);
        assert_eq!(oa, ob);
    }
    assert_eq!(a.now(), b.now());
    assert_eq!(a.target_rows(), b.target_rows());
}

#[test]
fn outage_degrades_only_the_mapped_range() {
    let t = trace(3, 900);
    let mut c = cluster(4, &t);
    for r in t.requests().iter().take(300) {
        c.handle(r);
    }
    c.fail_target(1);
    assert_eq!(c.target_state(1), TargetState::Down);
    for r in t.requests().iter().skip(300).take(300) {
        let owner = c.ring().target_of(r.key).unwrap();
        let out = c.handle(r);
        if owner.0 == 1 {
            assert!(
                out.sense == SenseCode::RecoveredError || out.sense == SenseCode::Success,
                "outage range must be served degraded or acked, got {:?}",
                out.sense
            );
        }
    }
    // Unaffected targets saw no outage-path serves at all.
    let rows = c.target_rows();
    for row in rows.iter().filter(|r| r.target != 1) {
        assert_eq!(row.shed_requests, 0, "blast radius leaked to {row:?}");
        assert_eq!(row.outages, 0);
    }
    let mapped = c.mapped_degraded_fraction();
    assert!(
        (0.05..=0.60).contains(&mapped),
        "one of four targets maps ≈1/4 of the namespace, got {mapped}"
    );
    // Restore: journal replay + ring-delta invalidation, never a loss.
    c.restore_target(1);
    assert_eq!(c.target_state(1), TargetState::Up);
    assert!(c.target_rows()[1].rebuild_window_us >= 0);
    for r in t.requests().iter().skip(600) {
        let out = c.handle(r);
        assert_ne!(out.sense, SenseCode::Failure);
    }
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn writes_during_outage_survive_restore() {
    let t = trace(4, 400);
    let mut c = cluster(2, &t);
    for r in t.requests() {
        c.handle(r);
    }
    // Find a key owned by target 0 and overwrite it during an outage.
    let key = *c
        .objects
        .keys()
        .find(|&&k| c.ring.target_of(k) == Some(TargetId(0)))
        .expect("target 0 owns part of the namespace");
    let write = Request {
        op: Operation::Write,
        key,
        size: ByteSize::from_kib(64),
    };
    c.fail_target(0);
    let out = c.handle(&write);
    assert_eq!(out.sense, SenseCode::Success, "outage write acked durably");
    c.restore_target(0);
    // The restored node must serve the *new* contents (its stale
    // cached copy was invalidated): a read succeeds and the backend
    // map agrees on the new size everywhere.
    let read = Request {
        op: Operation::Read,
        key,
        size: ByteSize::from_kib(64),
    };
    let out = c.handle(&read);
    assert!(
        out.sense == SenseCode::Success || out.sense == SenseCode::RecoveredError,
        "restored target must serve the overwritten object, got {:?}",
        out.sense
    );
    assert_eq!(c.origin().size_of(key), Some(ByteSize::from_kib(64)));
    assert_eq!(
        c.node(0).backend().size_of(key),
        Some(ByteSize::from_kib(64))
    );
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn join_and_leave_rebalance_minimally_and_reversibly() {
    let t = trace(5, 600);
    let mut c = cluster(3, &t);
    for r in t.requests() {
        c.handle(r);
    }
    let before: Vec<Option<TargetId>> = c.objects.keys().map(|&k| c.ring.target_of(k)).collect();
    let newcomer = c.add_target();
    assert_eq!(newcomer, TargetId(3));
    let moved = c.pending_migrations();
    assert!(moved > 0, "a join must remap part of the namespace");
    assert!(
        moved <= c.objects.len() / 2,
        "a join must not reshuffle the world: moved {moved} of {}",
        c.objects.len()
    );
    assert!(c.drain_rebalance(100_000), "rebalance must drain");
    assert!(c.target_rows()[3].migrated_in > 0);
    // Leave: the ring returns to the exact prior map.
    c.remove_target(3);
    assert_eq!(c.target_state(3), TargetState::Removed);
    let after: Vec<Option<TargetId>> = c.objects.keys().map(|&k| c.ring.target_of(k)).collect();
    assert_eq!(before, after, "remove must restore the prior mapping");
    assert!(c.drain_rebalance(100_000));
    assert_eq!(c.dirty_data_lost(), 0);
    // The retired node keeps nothing user-visible in cache.
    assert!(c.node(3).cached_keys().is_empty());
}

#[test]
fn migrations_drain_through_the_rebuild_throttle() {
    let t = trace(12, 1200);
    let cache = t.summary().data_set_bytes.scale(0.25);
    let mut cfg = SystemConfig::paper_defaults(SchemeConfig::Reo { reserve: 0.20 }, cache);
    cfg.chunk_size = ByteSize::from_kib(16);
    cfg.rebuild_bandwidth_pct = 1;
    let mut c = ClusterSystem::new(cfg, 3).with_redundancy(Redundancy::none());
    c.populate(t.objects());
    let (before, after) = t.requests().split_at(600);
    for r in before {
        c.handle(r);
    }
    c.apply_event(PlannedEvent::AddTarget);
    assert!(c.pending_migrations() > 0, "a join must queue migrations");
    for r in after {
        c.handle(r);
    }
    // No node lost a device, so every stall and byte is a migration's.
    let resilience = c.resilience();
    assert!(resilience.throttle_stalls > 0, "a 1% cap must stall");
    assert!(resilience.rebuild_throttle_bytes > 0);
    assert!(c.target_rows()[3].migrated_in > 0);
    assert!(
        c.drain_recovery(100_000),
        "the quiesce drain empties the queue"
    );
    assert_eq!(c.pending_migrations(), 0);
}

#[test]
fn cluster_event_rejections_are_counted_by_reason() {
    let t = trace(6, 100);
    let mut c = cluster(2, &t);
    c.fail_target(7); // unknown
    c.fail_target(0);
    c.fail_target(0); // already down
    c.remove_target(0); // down targets cannot be removed
    c.restore_target(1); // not down
    c.restore_target(0);
    c.remove_target(0);
    c.remove_target(1); // last member
    let resilience = c.resilience();
    let by_reason: BTreeMap<String, u64> =
        resilience.rejected_events_by_reason.into_iter().collect();
    assert_eq!(by_reason["fail-target-unknown"], 1);
    assert_eq!(by_reason["fail-target-already-down"], 1);
    assert_eq!(by_reason["remove-target-down"], 1);
    assert_eq!(by_reason["restore-target-not-down"], 1);
    assert_eq!(by_reason["remove-last-target"], 1);
    assert_eq!(resilience.rejected_events, 5);
}

#[test]
fn device_events_reach_the_node_that_owns_the_global_id() {
    // Five devices a node: global device 7 is device 2 of target 1.
    let t = trace(10, 100);
    let mut c = cluster(3, &t);
    assert_eq!(c.config().devices, 5);
    c.apply_event(PlannedEvent::FailDevice(DeviceId(7)));
    let failed: Vec<usize> = (0..3)
        .map(|n| c.node(n).target().failed_devices())
        .collect();
    assert_eq!(failed, [0, 1, 0]);
    assert!(!c.node(1).target().array().device(DeviceId(2)).is_healthy());
    let injected: Vec<(i64, String)> = c
        .flight()
        .events()
        .into_iter()
        .filter(|e| e.kind == "fault-injected")
        .map(|e| (e.target, e.detail))
        .collect();
    assert_eq!(injected, [(1, "fail-device 2".to_string())]);

    // Past the last target, and on a target that is down.
    c.apply_event(PlannedEvent::FailDevice(DeviceId(15)));
    c.apply_event(PlannedEvent::FailTarget(1));
    c.apply_event(PlannedEvent::InsertSpare(DeviceId(7)));
    let resilience = c.resilience();
    let by_reason: BTreeMap<String, u64> =
        resilience.rejected_events_by_reason.into_iter().collect();
    assert_eq!(by_reason["device-event-unknown-target"], 1);
    assert_eq!(by_reason["device-event-target-not-up"], 1);
    assert_eq!(resilience.rejected_events, 2);
}

#[test]
fn cluster_traces_root_at_the_placement_layer() {
    let t = trace(8, 400);
    let mut c = cluster(2, &t);
    c.enable_tracing();
    // One recorder: switching the cluster's tracer on switches every
    // node's, and the nodes' spans land in the cluster's breakdown.
    assert!((0..2).all(|n| c.node(n).tracer().is_enabled()));
    for r in t.requests() {
        c.handle(r);
    }
    let breakdown = c.tracer().breakdown();
    assert!(breakdown.layer(Layer::Cache).is_some());
    let placement = breakdown
        .layers
        .iter()
        .find(|l| l.layer == Layer::Placement)
        .expect("placement spans recorded");
    assert_eq!(placement.spans, 400, "one root span per request");
    // Exemplars exist (slow top-K at minimum) and every tree roots
    // at the cluster's Placement span.
    let exemplars = c.tracer().exemplars();
    assert!(!exemplars.is_empty());
    for tree in &exemplars {
        let roots: Vec<_> = tree.spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "exactly one root: {tree:?}");
        assert_eq!(roots[0].layer, Layer::Placement);
    }
}

#[test]
fn target_outage_dumps_a_postmortem_with_lookback() {
    let t = trace(9, 300);
    let mut c = cluster(3, &t);
    for r in t.requests().iter().take(100) {
        c.handle(r);
    }
    c.fail_target(7); // rejected: lands in the lookback window
    c.fail_target(1);
    let pms = c.flight().postmortems();
    assert_eq!(pms.len(), 1);
    assert_eq!(pms[0].trigger, "target-down:1");
    assert!(
        pms[0]
            .events
            .iter()
            .any(|e| e.kind == "rejected-event" && e.detail == "fail-target-unknown"),
        "the rejected event precedes the trigger in the window"
    );
    c.restore_target(1);
    assert!(c
        .flight()
        .events()
        .iter()
        .any(|e| e.kind == "target-restored"),);
}

#[test]
fn cluster_snapshot_merges_slo_rows_across_nodes() {
    let t = trace(10, 600);
    let mut c = cluster(3, &t);
    for r in t.requests() {
        c.handle(r);
    }
    let snap = c.metrics_snapshot();
    assert!(!snap.slos.is_empty(), "SLO rows must be merged in");
    let per_node: u64 = (0..3)
        .map(|i| {
            c.node(i)
                .metrics()
                .totals()
                .slos
                .iter()
                .map(|r| r.requests)
                .sum::<u64>()
        })
        .sum();
    let merged: u64 = snap.slos.iter().map(|r| r.requests).sum();
    assert_eq!(merged, per_node, "counters add exactly");
    // Rows keep CLASS_LABELS order.
    let positions: Vec<usize> = snap
        .slos
        .iter()
        .map(|r| CLASS_LABELS.iter().position(|&l| l == r.class).unwrap())
        .collect();
    assert!(positions.windows(2).all(|w| w[0] < w[1]));
}

#[test]
fn run_reports_aggregate_and_per_target_rows() {
    let t = trace(7, 600);
    let mut c = cluster(4, &t);
    let plan = ExperimentPlan {
        warmup_passes: 1,
        ..Default::default()
    }
    .with_event(200, PlannedEvent::FailTarget(2))
    .with_event(400, PlannedEvent::RestoreTarget(2));
    let totals = c.run(&t, &plan);
    assert_eq!(totals, c.metrics_snapshot());
    assert_eq!(totals.requests, 600);
    assert_eq!(totals.targets.len(), 4);
    assert!(totals.elapsed > SimDuration::ZERO);
    assert!(c.mapped_degraded_fraction() > 0.0);
    assert_eq!(c.dirty_data_lost(), 0);
    assert_eq!(totals.targets[2].outages, 1);
    assert!(totals.targets[2].rebuild_window_us >= 0);
    let resilience = c.resilience();
    assert_eq!(resilience.health, c.health().label);
    assert_eq!(resilience.rejected_events, 0);
}

/// Takes `target` down and adds what the outage maps to it to `scanned`:
/// the namespace walked with the ring of the moment, as `fail_target`
/// itself once did.
fn fail_and_scan(c: &mut ClusterSystem, scanned: &mut BTreeSet<ObjectKey>, target: usize) {
    c.fail_target(target);
    let owned = |key: &&ObjectKey| c.ring.target_of(**key) == Some(TargetId(target));
    scanned.extend(c.objects.keys().filter(owned));
}

/// `mapped_degraded_fraction` counts every key some outage since the last
/// `reset_stats` mapped to its down target, with the ring at that failure,
/// against a scan of the namespace at each failure: outages of two
/// targets, a second outage of one of them, a join while one is down that
/// moves keys the outages counted to a target that stays up, an outage
/// under the ring the join changed, and a reset in between. The two differ
/// in one edge: the count is taken over the namespace as it stands when
/// asked, so a key first written after its owner went down counts, where
/// the scan at the failure never saw it.
#[test]
fn mapped_fraction_counts_every_outage_since_the_reset() {
    let t = trace(19, 1000);
    let mut c = cluster(4, &t);
    let mut requests = t.requests().chunks(100);
    let mut serve = |c: &mut ClusterSystem| {
        for r in requests.next().unwrap() {
            c.handle(r);
        }
    };
    let fraction = |c: &ClusterSystem, keys: usize| keys as f64 / c.objects.len() as f64;
    let mut scanned = BTreeSet::new();
    serve(&mut c);
    fail_and_scan(&mut c, &mut scanned, 0);
    serve(&mut c);
    assert!(!scanned.is_empty());
    assert_eq!(c.mapped_degraded_fraction(), fraction(&c, scanned.len()));

    // A reset forgets the outage even though its target is still down.
    c.reset_stats();
    scanned.clear();
    assert_eq!(c.mapped_degraded_fraction(), 0.0);
    c.restore_target(0);
    serve(&mut c);

    fail_and_scan(&mut c, &mut scanned, 1);
    serve(&mut c);
    fail_and_scan(&mut c, &mut scanned, 2);
    let ring_at_2 = c.ring.clone();
    assert_eq!(c.outages.len(), 2);
    assert_eq!(c.mapped_degraded_fraction(), fraction(&c, scanned.len()));
    assert_eq!(c.resilience().health, c.health().label);
    c.restore_target(1);
    serve(&mut c);
    // Target 1 again under the same ring: the log already holds it.
    fail_and_scan(&mut c, &mut scanned, 1);
    assert_eq!(c.outages.len(), 2);
    c.restore_target(1);
    serve(&mut c);

    // A join while 2 is down takes keys the outages of 1 and 2 still
    // count; then 3 fails under the ring the join changed.
    c.add_target();
    assert!(scanned
        .iter()
        .any(|&key| c.ring.target_of(key) == Some(TargetId(4))));
    serve(&mut c);
    fail_and_scan(&mut c, &mut scanned, 3);
    assert_eq!(c.outages.len(), 3);
    serve(&mut c);
    assert_eq!(c.mapped_degraded_fraction(), fraction(&c, scanned.len()));
    assert_eq!(c.resilience().health, c.health().label);
    assert_eq!(c.health().label, "degraded(2/5)");

    // A key written for the first time while its owner at 2's failure is
    // still down was never scanned, and counts.
    let fresh = (1u64 << 40..)
        .map(|oid| ObjectKey::user(reo_osd::PartitionId::FIRST, reo_osd::ObjectId::new(oid)))
        .find(|&key| ring_at_2.target_of(key) == Some(TargetId(2)) && !c.objects.contains_key(&key))
        .unwrap();
    let write = Request {
        op: Operation::Write,
        key: fresh,
        size: ByteSize::from_kib(64),
    };
    assert_eq!(c.handle(&write).sense, SenseCode::Success);
    assert!(!scanned.contains(&fresh));
    assert_eq!(
        c.mapped_degraded_fraction(),
        fraction(&c, scanned.len() + 1)
    );
}

#[test]
fn default_policy_keeps_redundancy_machinery_cold() {
    let t = trace(11, 600);
    let mut c = cluster(4, &t);
    for r in t.requests() {
        c.handle(r);
    }
    assert!(!c.redundancy().enabled());
    assert_eq!(c.redundancy_snapshot(), RedundancySnapshot::default());
    assert!(c.ledger.is_empty(), "no coverage without a policy");
    assert!(c.groups.is_empty(), "no groups without a striping policy");
    let totals = c.metrics_snapshot();
    assert_eq!(totals.served_by_replica, 0);
    assert_eq!(totals.served_by_parity, 0);
    let overhead = c.flash_overhead();
    assert_eq!(overhead.parity_bytes, 0);
    assert_eq!(overhead.replica_bytes, 0);
    assert!(overhead.primary_bytes > 0, "the cache is warm");
}

#[test]
fn constructors_reproduce_the_replication_and_parity_tables() {
    use ObjectClass::{ColdClean, Dirty, HotClean, Metadata};
    let classes = [Some(Metadata), Some(Dirty), Some(HotClean), Some(ColdClean)];
    let copies = |p: Redundancy| classes.map(|c| p.copies(c));
    let protects = |p: Redundancy| classes.map(|c| p.protects(c));

    assert_eq!(Redundancy::default(), Redundancy::none());
    assert!(!Redundancy::none().enabled());
    assert_eq!(copies(Redundancy::none()), [1, 1, 1, 1]);

    let two = Redundancy::two_way();
    assert_eq!((two.data, two.parity), (1, 1));
    assert_eq!(copies(two), [2, 2, 2, 1]);
    assert_eq!(two.copies(None), 2, "unclassified writes count as dirty");
    assert!(two.replicates() && !two.stripes());

    assert!(
        !Redundancy::n_way(1).enabled(),
        "one copy is no replication"
    );
    assert_eq!(copies(Redundancy::n_way(3)), [3, 3, 3, 3]);
    assert_eq!(Redundancy::n_way(3).overhead(), 2.0);

    let reo = Redundancy::reo(3, 1);
    assert_eq!(protects(reo), [true, true, true, false]);
    assert!(reo.protects(None), "unclassified writes count as dirty");
    assert_eq!(copies(reo), [1, 1, 1, 1], "parity shards are not copies");
    assert_eq!(reo.overhead(), 1.0 / 3.0);
    assert!(reo.stripes() && !reo.replicates());
    assert!(!Redundancy::reo(3, 0).enabled(), "m = 0 protects nothing");
}

/// Lost and tolerated shards of a covered key, by the model's own
/// definition of its holders: ring successors or the owner's group.
fn losses(c: &ClusterSystem, key: ObjectKey) -> Option<(usize, usize)> {
    let entry = c.ledger.get(&key)?;
    if c.policy.data == 1 {
        let holders = c.ring.replicas_of(key, entry.copies);
        Some((c.lost_shards(&holders, Some(entry)), entry.copies - 1))
    } else {
        let gid = c.groups.group_of(c.ring.target_of(key)?)?;
        let lost = c.lost_shards(c.groups.members(gid), Some(entry));
        Some((lost, c.groups.tolerance_of(gid)))
    }
}

#[test]
fn every_geometry_serves_within_tolerance_and_degrades_honestly_beyond() {
    for policy in [
        Redundancy::two_way(),
        Redundancy::n_way(3),
        Redundancy::reo(3, 1),
        Redundancy::reo(4, 2),
    ] {
        let (k, m) = (policy.data, policy.parity);
        let targets = (k + m).max(4);
        let t = trace(53, 600 * (m + 2));
        let mut c = cluster(targets, &t).with_redundancy(policy);
        let mut requests = t.requests().chunks(600);
        for r in requests.next().unwrap() {
            c.handle(r);
        }
        let overhead = c.flash_overhead().overhead_fraction();
        assert!(
            overhead <= m as f64 / k as f64 + 0.05,
            "{policy:?}: measured overhead {overhead:.3} exceeds m/k"
        );

        let mut restores = 0;
        for failed in 1..=m + 1 {
            for target in 0..failed {
                c.fail_target(target);
            }
            for r in requests.next().unwrap() {
                let owner = c.ring().target_of(r.key).unwrap().0;
                let covered = losses(&c, r.key);
                let before = c.redundancy_snapshot();
                let out = c.handle(r);
                assert_ne!(out.sense, SenseCode::Failure, "{policy:?}");
                let (Some((lost, tolerance)), true, Operation::Read) =
                    (covered, owner < failed, r.op)
                else {
                    continue;
                };
                let after = c.redundancy_snapshot();
                if lost <= tolerance {
                    assert_ne!(out.sense, SenseCode::NotReady, "{policy:?}: shed");
                    assert_eq!(
                        after.failover_serves,
                        before.failover_serves + 1,
                        "{policy:?}: {lost} ≤ {tolerance} lost must serve at cache speed"
                    );
                } else {
                    assert!(!out.hit, "{policy:?}: beyond-m losses must not fake hits");
                    assert_eq!(
                        after.beyond_tolerance_serves,
                        before.beyond_tolerance_serves + 1,
                        "{policy:?}: {lost} > {tolerance} lost must be counted"
                    );
                }
            }
            for target in 0..failed {
                c.restore_target(target);
                restores += 1;
            }
            assert!(c.drain_recovery(1_000_000));
            for node in &c.nodes {
                assert_eq!(node.repair_pending_by_class, [0; 4], "{policy:?}");
            }
            assert_eq!(c.redundancy_snapshot().repairs_completed, restores);
        }
        let stats = c.redundancy_snapshot();
        assert!(stats.failover_serves > 0, "{policy:?}: {stats:?}");
        assert!(stats.beyond_tolerance_serves > 0, "{policy:?}: {stats:?}");
        let totals = c.metrics_snapshot();
        assert_eq!(
            totals.served_by_replica + totals.served_by_parity,
            stats.failover_serves,
            "{policy:?}: the snapshot's per-mechanism columns carry the one counter"
        );
        assert_eq!(c.dirty_data_lost(), 0);
    }
}

#[test]
fn replica_serve_keeps_a_failed_range_on_cache_speed() {
    let t = trace(13, 1200);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests().iter().take(600) {
        c.handle(r);
    }
    let snap = c.redundancy_snapshot();
    assert!(snap.protected_writes > 0, "writes must fan out");
    assert!(snap.copies_refreshed > 0);
    c.fail_target(0);
    for r in t.requests().iter().skip(600) {
        let owner = c.ring().target_of(r.key).unwrap();
        let out = c.handle(r);
        if owner.0 == 0 {
            // The replica holder serves the range at full fidelity:
            // never shed, never backend-first recovered errors on
            // writes — plain acks and (mostly) cache hits.
            assert_ne!(out.sense, SenseCode::NotReady, "range was shed");
        }
    }
    let snap = c.redundancy_snapshot();
    assert!(
        snap.failover_serves > 0,
        "outage range must be replica-served"
    );
    let totals = c.metrics_snapshot();
    assert_eq!(totals.served_by_replica, snap.failover_serves);
    assert_eq!(totals.targets[0].replica_serves, snap.failover_serves);
    // Replica serves are not degraded service: the observed
    // degraded namespace stays well below the mapped-down range.
    assert!(c.observed_degraded_fraction() < c.mapped_degraded_fraction());
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn double_outage_beyond_factor_degrades_honestly() {
    let t = trace(17, 1200);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests().iter().take(600) {
        c.handle(r);
    }
    c.fail_target(0);
    c.fail_target(1);
    let mut backend_first = 0u64;
    for r in t.requests().iter().skip(600) {
        let out = c.handle(r);
        assert_ne!(out.sense, SenseCode::Failure, "never a hard failure");
        if out.sense == SenseCode::RecoveredError {
            backend_first += 1;
        }
    }
    // Keys whose whole 2-way replica set is down fall back to
    // honest backend-first service.
    assert!(
        backend_first > 0,
        "an outage exceeding the replication factor must reach the backend path"
    );
    c.restore_target(0);
    c.restore_target(1);
    assert!(c.drain_recovery(1_000_000));
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn injected_divergences_are_fully_detected_and_repaired() {
    let t = trace(19, 900);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests() {
        c.handle(r);
    }
    let injected = c.inject_replica_divergence(1_000_000); // every current copy
    assert!(injected > 0, "a saturated injection must diverge something");
    c.run_anti_entropy_pass();
    let snap = c.redundancy_snapshot();
    assert_eq!(snap.divergences_injected, injected);
    assert_eq!(
        snap.divergences_detected, injected,
        "anti-entropy must detect 100% of injected divergences: {snap:?}, ledger {:?}",
        c.injected_divergences
    );
    assert!(snap.divergences_repaired >= injected);
    assert!(c.injected_divergences.is_empty(), "ledger fully audited");
    // A second pass finds nothing new.
    c.run_anti_entropy_pass();
    assert_eq!(c.redundancy_snapshot().divergences_detected, injected);
    assert!(
        c.flight
            .events()
            .iter()
            .any(|e| e.kind == "replica-divergence"),
        "divergence detections are control-plane flight events"
    );
}

#[test]
fn failback_reconciles_through_the_throttle_and_completes() {
    let t = trace(23, 1500);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests().iter().take(500) {
        c.handle(r);
    }
    c.fail_target(2);
    for r in t.requests().iter().skip(500).take(500) {
        c.handle(r);
    }
    c.restore_target(2);
    for r in t.requests().iter().skip(1000) {
        c.handle(r);
    }
    assert!(c.drain_recovery(1_000_000));
    assert_eq!(c.nodes[2].repair_pending_by_class, [0; 4]);
    let snap = c.redundancy_snapshot();
    assert!(
        snap.repairs_completed >= 1,
        "restore must complete a failback reconciliation"
    );
    assert!(
        c.flight
            .events()
            .iter()
            .any(|e| e.kind == "repair-complete"),
        "failback completion is a control-plane flight event"
    );
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn parity_serve_keeps_a_failed_range_on_cache_speed() {
    let t = trace(37, 1200);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::reo(3, 1));
    for r in t.requests().iter().take(600) {
        c.handle(r);
    }
    let snap = c.redundancy_snapshot();
    assert!(snap.protected_writes > 0, "protected writes must stripe");
    // m/k overhead, not replication's (n-1)x: the parity bytes for
    // the covered set stay at or below a third of primary (+ slack
    // for integer rounding).
    let overhead = c.flash_overhead();
    assert_eq!(overhead.replica_bytes, 0);
    assert!(
        (overhead.parity_bytes as f64) <= overhead.primary_bytes as f64 * (1.0 / 3.0 + 0.05),
        "parity overhead exceeded m/k: {overhead:?}"
    );
    c.fail_target(0);
    let mut parity_hits = 0u64;
    for r in t.requests().iter().skip(600) {
        let owner = c.ring().target_of(r.key).unwrap();
        let covered = c.ledger.contains_key(&r.key);
        let out = c.handle(r);
        if owner.0 == 0 && r.op == Operation::Read && covered {
            // Covered reads of the down range are reconstructed at
            // cache speed: honest recovered-error hits, never shed.
            assert_eq!(out.sense, SenseCode::RecoveredError);
            assert!(out.hit, "a parity serve counts as a cache hit");
            parity_hits += 1;
        }
    }
    let snap = c.redundancy_snapshot();
    assert!(snap.failover_serves > 0, "outage range must parity-serve");
    assert!(snap.failover_serves >= parity_hits);
    assert!(snap.reconstructed_bytes > 0);
    assert_eq!(snap.beyond_tolerance_serves, 0, "one outage is within m=1");
    let totals = c.metrics_snapshot();
    assert_eq!(totals.served_by_parity, snap.failover_serves);
    assert_eq!(totals.targets[0].parity_serves, snap.failover_serves);
    assert_eq!(c.dirty_data_lost(), 0);
    // Degraded serves re-used the same erasure pattern: the codec's
    // decode-plan cache stayed per-pattern, not per-serve.
    let patterns = c.codec.as_ref().unwrap().cached_decode_patterns();
    assert!(
        (1..=4).contains(&patterns),
        "repeat serves under one outage share cached plans, got {patterns}"
    );
}

#[test]
fn double_outage_beyond_tolerance_degrades_honestly() {
    let t = trace(41, 1200);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::reo(3, 1));
    for r in t.requests().iter().take(600) {
        c.handle(r);
    }
    // One group of four members at k=3 tolerates exactly one loss.
    c.fail_target(0);
    c.fail_target(1);
    for r in t.requests().iter().skip(600) {
        let out = c.handle(r);
        assert_ne!(out.sense, SenseCode::Failure, "never a hard failure");
        let owner = c.ring().target_of(r.key).unwrap();
        if (owner.0 == 0 || owner.0 == 1) && r.op == Operation::Read {
            assert!(!out.hit, "beyond-m losses must not fake cache hits");
        }
    }
    let snap = c.redundancy_snapshot();
    assert_eq!(
        snap.failover_serves, 0,
        "no reconstruction beyond tolerance"
    );
    assert!(
        snap.beyond_tolerance_serves > 0,
        "covered reads beyond m degrade honestly to backend-first: {snap:?}"
    );
    assert!(c
        .flight()
        .events()
        .iter()
        .any(|e| e.kind == "parity-tolerance-exceeded"));
    c.restore_target(0);
    c.restore_target(1);
    assert!(c.drain_recovery(1_000_000));
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn parity_repair_restores_redundancy_through_the_throttle() {
    let t = trace(43, 1500);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::reo(3, 1));
    for r in t.requests().iter().take(500) {
        c.handle(r);
    }
    c.fail_target(2);
    for r in t.requests().iter().skip(500).take(500) {
        c.handle(r);
    }
    // Stripes re-encoded behind target 2's back marked it stale.
    assert!(
        c.ledger.values().any(|entry| entry.stale.contains(&2)),
        "outage-window writes must leave stale shards to repair"
    );
    c.restore_target(2);
    assert!(
        c.flight()
            .events()
            .iter()
            .any(|e| e.kind == "repair-queued"),
        "a lossy outage queues repair work"
    );
    for r in t.requests().iter().skip(1000) {
        c.handle(r);
    }
    assert!(c.drain_recovery(1_000_000));
    assert_eq!(c.nodes[2].repair_pending_by_class, [0; 4]);
    let snap = c.redundancy_snapshot();
    assert!(snap.repair_moves > 0, "repairs drain through the queue");
    assert!(snap.repairs_completed >= 1);
    assert!(
        snap.ttr_us.iter().any(|&ttr| ttr >= 0),
        "at least one class records time-to-restored-redundancy: {snap:?}"
    );
    assert!(
        !c.ledger.values().any(|entry| entry.stale.contains(&2)),
        "repair must clear every stale shard"
    );
    assert!(c
        .flight()
        .events()
        .iter()
        .any(|e| e.kind == "repair-complete"));
    assert_eq!(c.dirty_data_lost(), 0);
}

#[test]
fn redundant_clusters_replay_identically() {
    let t = trace(29, 900);
    for policy in [Redundancy::two_way(), Redundancy::reo(3, 1)] {
        let run = |_| {
            let mut c = cluster(4, &t).with_redundancy(policy);
            for r in t.requests().iter().take(300) {
                c.handle(r);
            }
            c.fail_target(0);
            for r in t.requests().iter().skip(300).take(200) {
                c.handle(r);
            }
            // Rejected (and counted) where no real copies exist.
            c.apply_event(PlannedEvent::InjectReplicaDivergence { ppm: 500_000 });
            for r in t.requests().iter().skip(500).take(200) {
                c.handle(r);
            }
            c.restore_target(0);
            for r in t.requests().iter().skip(700) {
                c.handle(r);
            }
            c.drain_recovery(1_000_000);
            c.run_anti_entropy_pass();
            (
                c.redundancy_snapshot(),
                c.target_rows(),
                c.metrics_snapshot(),
            )
        };
        let a = run(0);
        let b = run(1);
        assert_eq!(a.0, b.0, "{policy:?}: counters must replay exactly");
        assert_eq!(a.1, b.1, "{policy:?}: per-target rows must replay exactly");
        assert_eq!(a.2, b.2, "{policy:?}: aggregates must replay exactly");
    }
}

/// The `replica-divergence` lines the flight recorder holds, in order.
fn divergence_lines(c: &ClusterSystem) -> Vec<String> {
    c.flight
        .events()
        .iter()
        .filter(|e| e.kind == "replica-divergence")
        .map(|e| e.detail.clone())
        .collect()
}

/// The first covered key in the anti-entropy walk's first batch with an
/// up, currently stamped non-primary holder that is not in `taken`.
fn current_copy(c: &ClusterSystem, taken: &[ObjectKey]) -> (ObjectKey, usize, u64) {
    c.ledger
        .iter()
        .take(ANTI_ENTROPY_BUDGET)
        .filter(|(k, _)| !taken.contains(k))
        .find_map(|(&k, cov)| {
            let h = c.ring.replicas_of(k, cov.copies).get(1)?.0;
            (c.nodes[h].system.cached_version(k) == Some(cov.version)).then_some((
                k,
                h,
                cov.version,
            ))
        })
        .expect("a stamped replica copy in the first batch")
}

#[test]
fn one_anti_entropy_step_settles_every_kind_of_copy() {
    // 16 | 1008: the writes below cannot trigger a piggybacked step.
    let t = trace(61, 1008);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests() {
        c.handle(r);
    }
    assert!(c.ledger.len() > ANTI_ENTROPY_BUDGET);

    // (b) A join displaces a holder; the next write fans out to the new
    // set, so the displaced node's stamp trails on a copy it has no
    // reason to keep.
    let before = c.ring.clone();
    c.add_target();
    let (kb, displaced, vb) = c
        .ledger
        .iter()
        .take(ANTI_ENTROPY_BUDGET)
        .find_map(|(&k, cov)| {
            let old = before.replicas_of(k, cov.copies)[1];
            let stamped = c.nodes[old.0].system.cached_version(k) == Some(cov.version);
            (stamped && !c.ring.replicas_of(k, cov.copies).contains(&old)).then_some((
                k,
                old.0,
                cov.version,
            ))
        })
        .expect("the join displaced a stamped holder in the first batch");
    let size = c.objects[&kb];
    c.handle(&Request {
        op: Operation::Write,
        key: kb,
        size,
    });
    assert_eq!(c.ledger[&kb].version, vb + 1);
    assert_eq!(c.nodes[displaced].system.cached_version(kb), Some(vb));

    // (a) A current holder's stamp rolled back, (c) another rolled back
    // and then evicted — both as the injector leaves them.
    let (ka, ha, va) = current_copy(&c, &[kb]);
    let (kc, hc, vc) = current_copy(&c, &[kb, ka]);
    for (k, h, v) in [(ka, ha, va), (kc, hc, vc)] {
        c.nodes[h].system.stamp_cached_version(k, v - 1);
        c.injected_divergences.insert((k, h));
    }
    assert!(c.nodes[hc].system.invalidate_cached(kc));

    let batch_end = *c.ledger.keys().nth(ANTI_ENTROPY_BUDGET - 1).unwrap();
    let before = c.redundancy_snapshot();
    let lines_before = divergence_lines(&c).len();
    c.anti_entropy_cursor = None;
    assert!(!c.anti_entropy_step(), "more keys than one batch");

    // Written down from the parent commit's step over this ledger: keys
    // ascending, (a) refreshed, (c) audited, (b) invalidated, and no
    // other copy in the batch — the (d) keys — touched or counted.
    let after = c.redundancy_snapshot();
    assert_eq!(after.divergences_detected, before.divergences_detected + 3);
    assert_eq!(after.divergences_repaired, before.divergences_repaired + 3);
    assert_eq!(after.copies_refreshed, before.copies_refreshed);
    assert_eq!(after.anti_entropy_passes, before.anti_entropy_passes);
    assert_eq!(
        divergence_lines(&c)[lines_before..],
        [
            "target 2 stamp v3 != authoritative v4",
            "target 1 stale copy already evicted",
            "target 3 stamp v2 != authoritative v3",
        ]
    );
    assert_eq!(
        [(ha, va), (hc, vc), (displaced, vb)],
        [(2, 4), (1, 20), (3, 2)]
    );
    assert_eq!(c.anti_entropy_cursor, Some(batch_end));
    assert!(c.injected_divergences.is_empty());
    assert_eq!(c.nodes[ha].system.cached_version(ka), Some(va));
    assert_eq!(c.nodes[displaced].system.cached_version(kb), None);
    assert_eq!(c.nodes[hc].system.cached_version(kc), None);
}

#[test]
fn a_pass_visits_every_covered_key_once_despite_a_write_between_steps() {
    let t = trace(67, 1008);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::two_way());
    for r in t.requests() {
        c.handle(r);
    }
    let keys: Vec<ObjectKey> = c.ledger.keys().copied().collect();
    assert!(keys.len() > 2 * ANTI_ENTROPY_BUDGET);
    // Every current copy rolled back: a visit is a detection.
    let injected = c.inject_replica_divergence(1_000_000);
    let passes = c.redundancy_snapshot().anti_entropy_passes;
    c.anti_entropy_cursor = None;

    assert!(!c.anti_entropy_step());
    assert_eq!(c.anti_entropy_cursor, Some(keys[ANTI_ENTROPY_BUDGET - 1]));
    // A write to a key the walk already covered: the ledger keeps its
    // key set, so the walk resumes where it stopped.
    let rewritten = keys[3];
    let size = c.objects[&rewritten];
    c.handle(&Request {
        op: Operation::Write,
        key: rewritten,
        size,
    });
    assert_eq!(c.anti_entropy_cursor, Some(keys[ANTI_ENTROPY_BUDGET - 1]));

    let mut steps = 1;
    while !c.anti_entropy_step() {
        steps += 1;
        assert_eq!(
            c.anti_entropy_cursor,
            Some(keys[steps * ANTI_ENTROPY_BUDGET - 1]),
            "step {steps} must end one batch further"
        );
    }
    assert_eq!(
        steps,
        keys.len() / ANTI_ENTROPY_BUDGET,
        "no key visited twice"
    );
    assert_eq!(c.anti_entropy_cursor, None);
    let snap = c.redundancy_snapshot();
    assert_eq!(snap.anti_entropy_passes, passes + 1);
    assert_eq!(snap.divergences_detected, injected, "no key skipped");
    assert!(c.injected_divergences.is_empty());
}

#[test]
fn shards_are_a_pure_function_of_seed_key_version_and_member() {
    let shard = |seed, key_pos, version, member, len| {
        let mut out = vec![0xAA; 7];
        fill_shard(&mut out, len, shard_seed(seed, key_pos, version, member));
        out
    };
    let base = shard(42, 0x1234, 3, 1, 333);
    assert_eq!(base.len(), 333);
    assert_eq!(base, shard(42, 0x1234, 3, 1, 333));
    assert_ne!(base, shard(42, 0x1234, 3, 2, 333), "another member");
    assert_ne!(base, shard(42, 0x1234, 4, 1, 333), "another version");
    assert_ne!(base, shard(42, 0x1235, 3, 1, 333), "another key");
    assert_ne!(base, shard(43, 0x1234, 3, 1, 333), "another seed");
    // A shorter shard is a prefix: the last word is cut, not re-drawn.
    assert_eq!(shard(42, 0x1234, 3, 1, 64), base[..64]);
    assert_eq!(shard(42, 0x1234, 3, 1, 61), base[..61]);
}

#[test]
fn odd_and_clamped_shards_reconstruct_with_each_member_down() {
    let t = trace(71, 600);
    let mut c = cluster(4, &t).with_redundancy(Redundancy::reo(3, 1));
    for r in t.requests() {
        c.handle(r);
    }
    let (&key, _) = c.ledger.iter().next().expect("a covered key");
    let owner = c.ring.target_of(key).unwrap().0;
    let members = c
        .groups
        .members(c.groups.group_of(TargetId(owner)).unwrap());
    assert_eq!(members.len(), 4);
    let members = members.to_vec();
    let key_pos = c.ring.key_position(key);
    // 1,000 / 3 = 333 (not a multiple of eight), 100 / 3 clamps to 64,
    // and 4 KiB shards before each so a longer serve precedes a shorter.
    for down in 0..4 {
        c.fail_target(members[down].0);
        let version = c.ledger[&key].version;
        for (bytes, shard_len) in [(64 << 10, 4096), (1_000, 333), (100, 64), (1_000, 333)] {
            // Asserts the decode against the originals itself.
            c.reconstruct_stripe(owner, key, ByteSize::from_bytes(bytes));
            let bufs = &c.stripe_buffers;
            assert_eq!(
                (bufs.data.len(), bufs.parity.len(), bufs.shards.len()),
                (3, 1, 4)
            );
            for (slot, original) in bufs.data.iter().enumerate() {
                let mut expected = Vec::new();
                let from = shard_seed(c.seed, key_pos, version, members[slot].0 as u64);
                fill_shard(&mut expected, shard_len, from);
                assert_eq!(
                    original, &expected,
                    "slot {slot}: bytes of an earlier serve"
                );
                assert_eq!(
                    bufs.shards[slot].as_ref(),
                    Some(&expected),
                    "slot {slot}, {down} down"
                );
            }
            assert_eq!(
                bufs.shards[3].as_ref(),
                Some(&bufs.parity[0]),
                "{down} down"
            );
            assert_eq!(bufs.parity[0].len(), shard_len);
        }
        c.restore_target(members[down].0);
        assert!(c.drain_recovery(1_000_000));
    }
}
