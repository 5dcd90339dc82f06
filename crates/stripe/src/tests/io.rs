//! Degraded reads and overwrites: bytes, strategies and pinned timing.

use reo_flashsim::{ChunkHandle, DeviceId, FaultPlan, StoredChunk};
use reo_sim::{ByteSize, SimDuration, SimTime, Tracer};

use super::{mgr, payload, test_array};
use crate::{
    ObjectStatus, ParityUpdate, RedundancyScheme, StripeError, StripeLayout, StripeManager,
};

#[test]
fn degraded_read_reconstructs_real_bytes() {
    let mut m = mgr(5);
    let data = payload(20_000);
    let layout = m
        .store_object(
            1,
            ByteSize::from_bytes(20_000),
            RedundancyScheme::parity(2),
            Some(&data),
        )
        .unwrap();
    // Fail two devices: 2-parity must still serve every byte.
    m.fail_device(DeviceId(0));
    m.fail_device(DeviceId(3));
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
    let out = m.read_object(&layout).unwrap();
    assert!(out.degraded);
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}

#[test]
fn degraded_read_costs_more_time_than_intact() {
    // Compare two identical managers; one suffers a failure.
    let data = payload(64 * 1024);
    let mk = || {
        let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(16));
        let l = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(2),
                Some(&data),
            )
            .unwrap();
        (m, l)
    };
    let (mut intact, l1) = mk();
    let t0 = intact.array().clock().now();
    intact.read_object(&l1).unwrap();
    let intact_cost = intact.array().clock().now().saturating_since(t0);

    let (mut broken, l2) = mk();
    broken.fail_device(DeviceId(1));
    let t0 = broken.array().clock().now();
    let out = broken.read_object(&l2).unwrap();
    assert!(out.degraded);
    let degraded_cost = broken.array().clock().now().saturating_since(t0);
    assert!(
        degraded_cost >= intact_cost,
        "degraded {degraded_cost} < intact {intact_cost}"
    );
}

/// A 4+2 stripe set driven through overwrite, one- and two-device
/// degraded reads, and rebuild, under armed transient faults. Returns
/// the completion instants in call order.
fn degraded_scenario(m: &mut StripeManager, real: bool) -> Vec<u64> {
    // Two full stripes and a short one (2 of 4 data chunks), then a
    // one-stripe object.
    let (a_len, b_len) = (4096 * 10, 4096 * 3 + 100);
    let (a_data, b_data) = (payload(a_len), payload(b_len));
    let mut a_now = a_data.clone();
    let store = |m: &mut StripeManager, owner, data: &Vec<u8>| {
        m.store_object(
            owner,
            ByteSize::from_bytes(data.len() as u64),
            RedundancyScheme::parity(2),
            real.then_some(&data[..]),
        )
        .unwrap()
    };
    let a = store(m, 1, &a_data);
    let b = store(m, 2, &b_data);
    let mut plan = FaultPlan::new(7);
    m.arm_transient_faults(&mut plan, 0.2);

    let mut times = Vec::new();
    // Delta update on a full stripe, direct re-encode on the short one.
    let patch: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
    for (ci, method) in [(1, ParityUpdate::Delta), (9, ParityUpdate::Direct)] {
        let (used, done) = m
            .overwrite_chunk(&a, ci, real.then_some(&patch[..]))
            .unwrap();
        assert_eq!(used, method);
        a_now[ci as usize * 4096..][..4096].copy_from_slice(&patch);
        times.push(done.as_nanos());
    }
    let read = |m: &mut StripeManager, layout, degraded, expect: &Vec<u8>| {
        let out = m.read_object(layout).unwrap();
        assert_eq!(out.degraded, degraded);
        assert_eq!(out.bytes.is_some(), real);
        if let Some(bytes) = out.bytes {
            assert_eq!(&bytes, expect, "reconstructed bytes differ");
        }
        out.completed_at.as_nanos()
    };
    m.fail_device(DeviceId(0));
    times.push(read(m, &a, true, &a_now));
    m.fail_device(DeviceId(3));
    times.push(read(m, &a, true, &a_now));
    times.push(read(m, &b, true, &b_data));
    m.replace_device(DeviceId(0));
    m.replace_device(DeviceId(3));
    times.push(m.rebuild_object(&a).unwrap().as_nanos());
    times.push(m.rebuild_object(&b).unwrap().as_nanos());
    times.push(read(m, &a, false, &a_now));
    times.push(read(m, &b, false, &b_data));
    times
}

#[test]
fn size_only_degraded_paths_keep_their_timing_and_build_no_buffers() {
    let mut m = mgr(6);
    let times = degraded_scenario(&mut m, false);
    let stats: Vec<_> = (0..6)
        .map(|d| {
            let s = m.array().device(DeviceId(d)).stats();
            (
                s.reads,
                s.writes,
                s.queued_nanos,
                s.busy_nanos,
                s.transient_timeouts,
            )
        })
        .collect();
    // Pinned from the code before size-only chunks stopped building
    // buffers: the simulated clock and the device counters cannot move.
    assert_eq!(
        times,
        [
            1_645_774, 1_853_403, 3_568_661, 5_391_548, 5_999_177, 6_714_435, 8_314_621, 8_637_508,
            8_745_137
        ]
    );
    assert_eq!(
        stats,
        [
            (2, 3, 207_629, 838_145, 0),
            (9, 4, 1_030_516, 1_799_177, 2),
            (9, 5, 838_145, 1_977_034, 2),
            (2, 4, 730_516, 1_045_774, 0),
            (15, 4, 4_699_177, 2_444_951, 3),
            (15, 5, 3_199_177, 2_652_580, 2),
        ]
    );
    assert_eq!(m.transient_retries(), 11);
    // No byte of a size-only stripe exists, so none was buffered.
    let pooled: usize = m
        .scratch
        .shards
        .iter()
        .chain(&m.scratch.parity)
        .map(Vec::capacity)
        .sum();
    assert_eq!(
        pooled + m.scratch.shards.capacity() + m.scratch.parity.capacity(),
        0
    );
}

#[test]
fn real_payload_twin_still_reconstructs_every_byte() {
    let mut m = mgr(6);
    degraded_scenario(&mut m, true);
    assert!(m.scratch.shards.iter().any(|b| b.capacity() > 0));
}

#[test]
fn overwrite_chunks_is_the_per_chunk_loop() {
    // One stripe per chunk (replication) and multi-chunk stripes, from
    // a mid-object start: same clock, same device counters.
    for scheme in [RedundancyScheme::Replication, RedundancyScheme::parity(1)] {
        let (mut looped, mut ranged) = (mgr(5), mgr(5));
        let size = ByteSize::from_bytes(4096 * 11 + 5);
        let a = looped.store_object(1, size, scheme, None).unwrap();
        let b = ranged.store_object(1, size, scheme, None).unwrap();
        let mut done = SimTime::ZERO;
        for ci in 3..=11 {
            (_, done) = looped.overwrite_chunk(&a, ci, None).unwrap();
        }
        assert_eq!(ranged.overwrite_chunks(&b, 3..=11).unwrap(), done);
        for d in 0..5 {
            assert_eq!(
                looped.array().device(DeviceId(d)).stats(),
                ranged.array().device(DeviceId(d)).stats()
            );
        }
    }

    // A 200-chunk replicated object, its last chunk short, on an array
    // with one device slowed and another busy past the clock when the
    // overwrite starts — which the range charges as its first chunk, one
    // run per device and its last chunk. Traced and untraced.
    for traced in [false, true] {
        let twin = || {
            let mut m = mgr(5);
            let tracer = Tracer::new();
            tracer.set_enabled(traced);
            m.set_tracer(tracer.clone());
            let size = ByteSize::from_bytes(4096 * 199 + 1000);
            let layout = m
                .store_object(1, size, RedundancyScheme::Replication, None)
                .unwrap();
            m.slow_device(&mut FaultPlan::new(1), DeviceId(3), 2.5);
            let now = m.array.clock().now();
            let stray = StoredChunk::synthetic(ByteSize::from_kib(512));
            let busy_until =
                m.array
                    .device_mut(DeviceId(1))
                    .write_chunk(ChunkHandle::new(9_000), stray, now);
            assert!(busy_until.unwrap() > now);
            (m, layout, tracer)
        };
        let ((mut looped, a, looped_spans), (mut ranged, b, ranged_spans)) = (twin(), twin());
        let ranges = [0..=199, 17..=100, 198..=199, 5..=5];
        for range in ranges.clone() {
            // Each range is one traced request, so its spans are kept,
            // one by one, in that request's exemplar tree.
            let mut done = SimTime::ZERO;
            looped_spans.begin_request();
            for ci in range.clone() {
                (_, done) = looped.overwrite_chunk(&a, ci, None).unwrap();
            }
            looped_spans.end_request(SimDuration::ZERO, Some("range"));
            let writes = ranged.array().stats().writes;
            ranged_spans.begin_request();
            assert_eq!(ranged.overwrite_chunks(&b, range.clone()).unwrap(), done);
            ranged_spans.end_request(SimDuration::ZERO, Some("range"));
            let chunks = range.end() - range.start() + 1;
            assert_eq!(ranged.array().stats().writes - writes, chunks * 5);
            assert_eq!(ranged.array().clock().now(), looped.array().clock().now());
            for d in (0..5).map(DeviceId) {
                let (l, r) = (looped.array().device(d), ranged.array().device(d));
                assert_eq!(l.stats(), r.stats(), "{d} over {range:?}");
                assert_eq!(l.busy_until(), r.busy_until(), "{d} over {range:?}");
                assert_eq!(l.chunk_runs(), r.chunk_runs(), "{d} over {range:?}");
            }
            assert_eq!(looped_spans.exemplars(), ranged_spans.exemplars());
            assert_eq!(looped_spans.breakdown(), ranged_spans.breakdown());
        }
        let kept = if traced { ranges.len() } else { 0 };
        assert_eq!(ranged_spans.exemplars().len(), kept);
        // The slowed device sets the pace: 200 us + 4 KiB at 512 MiB/s is
        // 207,629 ns a chunk, 519,073 ns there, and the last range was one
        // chunk from an idle array.
        let paced = ranged.array().device(DeviceId(3)).busy_until();
        assert_eq!(paced, ranged.array().clock().now());
        let idle = ranged.array().device(DeviceId(0)).busy_until();
        assert_eq!(paced.saturating_since(idle).as_nanos(), 519_073 - 207_629);
    }
}

fn seeded(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed))
        .collect()
}

/// Overwrite each chunk in turn and verify the object reads back with
/// the patch applied and parity still consistent (degraded read after
/// a failure must succeed).
#[test]
fn overwrite_keeps_parity_consistent_for_all_chunks() {
    let chunk = ByteSize::from_kib(4);
    for k in 1..=2u8 {
        let mut m = StripeManager::new(test_array(5, 64), chunk);
        let mut data = seeded(20_000, k);
        let layout = m
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(k),
                Some(&data),
            )
            .unwrap();
        let chunks = (data.len() as u64).div_ceil(chunk.as_bytes());
        for ci in 0..chunks {
            let start = (ci * chunk.as_bytes()) as usize;
            let end = (start + chunk.as_bytes() as usize).min(data.len());
            let new_chunk = seeded(end - start, k.wrapping_add(ci as u8 + 1));
            data[start..end].copy_from_slice(&new_chunk);
            m.overwrite_chunk(&layout, ci, Some(&new_chunk)).unwrap();

            // Parity must still reconstruct the patched data.
            let direct = m.read_object(&layout).unwrap();
            assert_eq!(direct.bytes.as_deref(), Some(&data[..]), "k={k} chunk={ci}");
        }
        // Now check degraded consistency: fail a device and re-read.
        m.fail_device(DeviceId(2));
        let degraded = m.read_object(&layout).unwrap();
        assert_eq!(degraded.bytes.as_deref(), Some(&data[..]), "k={k} degraded");
    }
}

/// Section II-B's rule, which `overwrite_with_parity` alone applies: a
/// full stripe of `m` data and `k` parity chunks is patched by delta
/// (`1 + k` reads) unless re-encoding (`m - 1` reads) reads fewer; a tie
/// goes to delta, which also touches fewer devices.
#[test]
fn strategy_follows_read_cost_rule() {
    use ParityUpdate::{Delta, Direct};
    let chunk = ByteSize::from_kib(4);
    for (devices, k, expected) in [
        // m = 4: delta 2 reads, direct 3.
        (5, 1, Delta),
        // m = 8: delta 2 or 3, direct 7.
        (9, 1, Delta),
        (10, 2, Delta),
        // m = 1: delta 3, direct 0.
        (3, 2, Direct),
        // m = 2: delta 3, direct 1.
        (4, 2, Direct),
        // m = 3: delta 3, direct 2.
        (5, 2, Direct),
        // m = 4: delta 3, direct 3 — the tie.
        (6, 2, Delta),
    ] {
        let m = devices - k as usize;
        let mut mgr = StripeManager::new(test_array(devices, 64), chunk);
        let data = seeded(m * 4096, k);
        let layout = mgr
            .store_object(
                1,
                ByteSize::from_bytes(data.len() as u64),
                RedundancyScheme::parity(k),
                Some(&data),
            )
            .unwrap();
        let (method, _) = mgr
            .overwrite_chunk(&layout, 0, Some(&seeded(4096, 9)))
            .unwrap();
        assert_eq!(method, expected, "{devices} devices, {k} parity");
    }
}

/// Round-robin parity exists for an even spread of write wear (Section
/// IV-C.3). A full-stripe store writes one chunk to every device wherever
/// its parity sits, so stores alone cannot show the spread; single-chunk
/// overwrites write their stripe's parity every time, so parity that
/// stopped rotating would pile their wear on its devices.
#[test]
fn parity_placement_spreads_small_write_wear() {
    let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(64));
    let written = |m: &StripeManager| -> Vec<u64> {
        (0..5)
            .map(|d| m.array().device(DeviceId(d)).stats().bytes_written)
            .collect()
    };
    let layouts: Vec<_> = (0..64)
        .map(|owner| {
            m.store_object(
                owner,
                ByteSize::from_mib(2),
                RedundancyScheme::parity(1),
                None,
            )
            .unwrap()
        })
        .collect();
    let stored = written(&m);
    assert!(stored.iter().all(|&b| b == stored[0]), "{stored:?}");

    // Eight single-chunk overwrites per object, spread over its 32
    // chunks.
    for (i, layout) in (0u64..).zip(&layouts) {
        for c in 0..8 {
            m.overwrite_chunk(layout, (3 * c + i) % 32, None).unwrap();
        }
    }
    let after = written(&m);
    let (max, min) = (after.iter().max().unwrap(), after.iter().min().unwrap());
    let imbalance = *max as f64 / *min as f64;
    assert!(imbalance <= 1.05, "{after:?}");
}

#[test]
fn replication_overwrite_rewrites_all_replicas() {
    let chunk = ByteSize::from_kib(4);
    let mut m = StripeManager::new(test_array(4, 64), chunk);
    let data = seeded(4_000, 3);
    let layout = m
        .store_object(
            1,
            ByteSize::from_bytes(data.len() as u64),
            RedundancyScheme::Replication,
            Some(&data),
        )
        .unwrap();
    let new_data = seeded(4_000, 8);
    let (method, _) = m.overwrite_chunk(&layout, 0, Some(&new_data)).unwrap();
    assert_eq!(method, ParityUpdate::Rewrite);
    // Every replica carries the new bytes: any 3 failures still serve.
    for d in 0..3 {
        m.fail_device(DeviceId(d));
    }
    let out = m.read_object(&layout).unwrap();
    assert_eq!(out.bytes.as_deref(), Some(&new_data[..]));
}

#[test]
fn zero_parity_overwrite_touches_one_chunk() {
    let chunk = ByteSize::from_kib(4);
    let mut m = StripeManager::new(test_array(5, 64), chunk);
    let data = seeded(12_000, 4);
    let layout = m
        .store_object(
            1,
            ByteSize::from_bytes(data.len() as u64),
            RedundancyScheme::parity(0),
            Some(&data),
        )
        .unwrap();
    let reads_before = m.array().stats().reads;
    let (method, _) = m
        .overwrite_chunk(&layout, 1, Some(&seeded(4096, 6)))
        .unwrap();
    assert_eq!(method, ParityUpdate::Rewrite);
    assert_eq!(m.array().stats().reads, reads_before, "no reads needed");
}

#[test]
fn overwrite_validates_inputs() {
    let chunk = ByteSize::from_kib(4);
    let mut m = StripeManager::new(test_array(5, 64), chunk);
    let data = seeded(8_192, 5);
    let layout = m
        .store_object(
            1,
            ByteSize::from_bytes(data.len() as u64),
            RedundancyScheme::parity(1),
            Some(&data),
        )
        .unwrap();
    // Wrong payload size.
    assert!(matches!(
        m.overwrite_chunk(&layout, 0, Some(&[1, 2, 3])),
        Err(StripeError::PayloadSizeMismatch { .. })
    ));
    // Degraded stripe refuses overwrite.
    m.fail_device(DeviceId(0));
    let degraded_any = (0..2).any(|ci| {
        matches!(
            m.overwrite_chunk(&layout, ci, Some(&seeded(4096, 1))),
            Err(StripeError::ObjectLost { .. })
        )
    });
    assert!(degraded_any, "some chunk must be on the failed device");
}

#[test]
#[should_panic(expected = "out of range")]
fn overwrite_bad_index_panics() {
    let chunk = ByteSize::from_kib(4);
    let mut m = StripeManager::new(test_array(5, 64), chunk);
    let layout = m
        .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(0), None)
        .unwrap();
    let _ = m.overwrite_chunk(&layout, 99, None);
}

#[test]
fn synthetic_overwrite_charges_time() {
    let chunk = ByteSize::from_kib(4);
    let mut m = StripeManager::new(test_array(5, 64), chunk);
    let layout = m
        .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(2), None)
        .unwrap();
    let before = m.array().clock().now();
    let (_, done) = m.overwrite_chunk(&layout, 0, None).unwrap();
    assert!(done > before);
}

/// A healthy size-only read is counted, not walked, and charges what
/// reading its data chunks one by one does. On one to eight devices, under
/// `Parity(0..=3)` (where the width takes it) and replication, and a
/// first stripe at every residue of the width, reading an object leaves
/// every device's counters and horizon, and the completion instant, where
/// `read_chunk` on each data chunk in object order leaves a twin array.
/// One device is busy before the read, so the runs queue. The objects are
/// one chunk, one stripe with a short last chunk, two stripes,
/// an exact multiple of the width in stripes, and whole periods with
/// leftover stripes and a short last chunk.
#[test]
fn a_counted_read_is_the_data_chunks_read_one_by_one() {
    let chunk = ByteSize::from_kib(4);
    let kib = chunk.as_bytes();
    for width in 1..=8usize {
        let parity = (0..=3u8).filter(|&k| (k as usize) < width);
        let schemes = parity
            .map(RedundancyScheme::parity)
            .chain([RedundancyScheme::Replication]);
        for scheme in schemes {
            let m = scheme.data_chunks_per_stripe(width) as u64;
            let w = width as u64;
            let sizes = [
                kib,
                m * kib - 100,
                2 * m * kib - 1,
                w * m * kib,
                (2 * w + 3) * m * kib - 777,
            ];
            for residue in 0..w {
                for size in sizes {
                    let case = format!("{scheme} on {width}, stripe {residue}, {size} bytes");
                    let twin = || {
                        let mut m = StripeManager::new(test_array(width, 64), chunk);
                        m.next_stripe = 3 * w + residue;
                        let layout = m
                            .store_object(1, ByteSize::from_bytes(size), scheme, None)
                            .unwrap();
                        // The device of the first data chunk is busy
                        // reading it when the object's read arrives.
                        let first = layout.stripes().next().unwrap().as_u64();
                        let l = StripeLayout::new(first, scheme, width);
                        let now = m.array.clock().now();
                        let device = m.array.device_mut(l.data_device(0));
                        device.read_chunk(ChunkHandle::new(first), now).unwrap();
                        (m, layout)
                    };
                    let (mut counted, layout) = twin();
                    let (mut walked, _) = twin();
                    let done = counted.read_object(&layout).unwrap().completed_at;

                    let now = walked.array.clock().now();
                    let mut latest = now;
                    let mut left = size;
                    for s in layout.stripes() {
                        let l = StripeLayout::new(s.as_u64(), scheme, width);
                        for j in 0..l.data_slots() {
                            if left == 0 {
                                break;
                            }
                            let device = walked.array.device_mut(l.data_device(j));
                            let (read, at) = device
                                .read_chunk(ChunkHandle::new(s.as_u64()), now)
                                .unwrap();
                            assert_eq!(read.len().as_bytes(), left.min(kib), "{case}");
                            left -= left.min(kib);
                            latest = latest.max(at);
                        }
                    }
                    assert_eq!(left, 0, "{case}");
                    assert_eq!(done, walked.array.complete_batch([latest]), "{case}");
                    for d in (0..width).map(DeviceId) {
                        let (c, w) = (counted.array.device(d), walked.array.device(d));
                        assert_eq!(c.stats(), w.stats(), "{d} counters, {case}");
                        assert_eq!(c.busy_until(), w.busy_until(), "{d} horizon, {case}");
                    }
                }
            }
        }
    }
}

/// A degraded size-only read is counted per device share, not walked, and
/// charges what the walk does. On one to eight devices, under
/// `Parity(0..=3)` (where the width takes it) and replication, and a
/// first stripe at every residue of the width, an object of each of the
/// five sizes above is read with none of its devices lost, then with one
/// and more, up to one past what a stripe tolerates: failed,
/// replaced by a spare that holds none of the object, or each in turn. A
/// one-chunk object's corrupted chunk keeps one more device from vouching
/// for all it holds, and one device is busy before the read. The twin
/// arms transient faults on every device at a rate that never fires, so
/// it walks every stripe through the per-chunk path; both leave every
/// device's counters and horizon, the clock, the completion instant, the
/// degraded flag and any error the same.
#[test]
fn a_degraded_counted_read_is_the_walk() {
    use reo_flashsim::ShareStatus;
    use reo_sim::rng::DetRng;

    #[derive(Clone, Copy, Debug)]
    enum Loss {
        Failed,
        Spare,
        EachInTurn,
    }
    let chunk = ByteSize::from_kib(4);
    let kib = chunk.as_bytes();
    let mut counted_cases = 0;
    for width in 1..=8usize {
        let parity = (0..=3u8).filter(|&k| (k as usize) < width);
        let schemes = parity
            .map(RedundancyScheme::parity)
            .chain([RedundancyScheme::Replication]);
        for scheme in schemes {
            let (m, w) = (scheme.data_chunks_per_stripe(width) as u64, width as u64);
            let tolerated = scheme.failures_tolerated(width);
            let sizes = [
                kib,
                m * kib - 100,
                2 * m * kib - 1,
                w * m * kib,
                (2 * w + 3) * m * kib - 777,
            ];
            for residue in 0..w {
                for (nth, size) in sizes.into_iter().enumerate() {
                    for lost in 0..=(tolerated + 1).min(width) {
                        let losses: &[Loss] = if lost == 0 {
                            &[Loss::Failed]
                        } else {
                            &[Loss::Failed, Loss::Spare, Loss::EachInTurn]
                        };
                        for &loss in losses {
                            let case = format!(
                                "{scheme} on {width}, stripe {residue}, \
                                 {size} bytes, {lost} lost ({loss:?})"
                            );
                            // Consecutive devices from one that moves
                            // with the residue and the size.
                            let victims = (0..lost).map(|i| {
                                let d = (residue as usize + nth + i) % width;
                                let spare = match loss {
                                    Loss::Failed => false,
                                    Loss::Spare => true,
                                    Loss::EachInTurn => i % 2 == 1,
                                };
                                (DeviceId(d), spare)
                            });
                            let twin = |walks: bool| {
                                let mut m = StripeManager::new(test_array(width, 64), chunk);
                                m.next_stripe = 3 * w + residue;
                                let size = ByteSize::from_bytes(size);
                                let layout = m.store_object(1, size, scheme, None).unwrap();
                                let first = layout.stripes().next().unwrap().as_u64();
                                let l = StripeLayout::new(first, scheme, width);
                                let now = m.array.clock().now();
                                let device = m.array.device_mut(l.data_device(0));
                                device.read_chunk(ChunkHandle::new(first), now).unwrap();
                                let other = m
                                    .store_object(2, chunk, RedundancyScheme::Replication, None)
                                    .unwrap();
                                m.corrupt_data_chunk(&other, 0).unwrap();
                                for (d, spare) in victims.clone() {
                                    m.fail_device(d);
                                    if spare {
                                        m.replace_device(d);
                                    }
                                }
                                if walks {
                                    for d in 0..width {
                                        let device = m.array.device_mut(DeviceId(d));
                                        let rng = DetRng::from_seed(d as u64);
                                        device.arm_transient_faults(f64::MIN_POSITIVE, rng);
                                    }
                                }
                                (m, layout)
                            };
                            let (mut counted, layout) = twin(false);
                            let (mut walked, _) = twin(true);

                            // Every share answers as a whole.
                            let stripes = layout.stripes().count() as u64;
                            let first = ChunkHandle::new(layout.stripes().next().unwrap().0);
                            if stripes > 1 {
                                for d in (0..width).map(DeviceId) {
                                    let share =
                                        counted.array.device(d).share_status(first, stripes - 1);
                                    let expected = if victims.clone().any(|v| v.0 == d) {
                                        ShareStatus::Unreadable
                                    } else {
                                        ShareStatus::Intact
                                    };
                                    assert_eq!(share, expected, "{d}, {case}");
                                }
                                counted_cases += u64::from(lost <= tolerated);
                            }

                            let outcome = |m: &mut StripeManager| {
                                let read = m.read_object(&layout);
                                format!("{:?}", read.map(|r| (r.degraded, r.completed_at)))
                            };
                            let (c, wk) = (outcome(&mut counted), outcome(&mut walked));
                            assert_eq!(c, wk, "{case}");
                            assert_eq!(
                                counted.array.clock().now(),
                                walked.array.clock().now(),
                                "{case}"
                            );
                            for d in (0..width).map(DeviceId) {
                                let (c, wk) = (counted.array.device(d), walked.array.device(d));
                                assert_eq!(c.stats(), wk.stats(), "{d} counters, {case}");
                                assert_eq!(c.busy_until(), wk.busy_until(), "{d} horizon, {case}");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(counted_cases > 0);
}
