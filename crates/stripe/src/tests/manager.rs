//! Stores, reads, removals and accounting on live objects.

use reo_flashsim::{ChunkHandle, DeviceId, FlashError, StoredChunk};
use reo_sim::{ByteSize, SimTime, Tracer};

use super::{mgr, payload, test_array};
use crate::extent::Extent;
use crate::{
    ObjectLayout, ObjectStatus, RedundancyScheme, SpaceUsage, StripeError, StripeId, StripeManager,
};

#[test]
fn store_and_read_real_payload() {
    let mut m = mgr(5);
    let data = payload(10_000); // 3 chunks of 4KiB: 4096+4096+1808
    let layout = m
        .store_object(
            7,
            ByteSize::from_bytes(10_000),
            RedundancyScheme::parity(2),
            Some(&data),
        )
        .unwrap();
    assert_eq!(layout.owner(), 7);
    let out = m.read_object(&layout).unwrap();
    assert!(!out.degraded);
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}

#[test]
fn three_failures_exceed_two_parity() {
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
    m.fail_device(DeviceId(0));
    m.fail_device(DeviceId(1));
    m.fail_device(DeviceId(2));
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
    assert!(matches!(
        m.read_object(&layout),
        Err(StripeError::ObjectLost { .. })
    ));
}

#[test]
fn replication_survives_all_but_one() {
    let mut m = mgr(5);
    let data = payload(6_000);
    let layout = m
        .store_object(
            2,
            ByteSize::from_bytes(6_000),
            RedundancyScheme::Replication,
            Some(&data),
        )
        .unwrap();
    for d in 0..4 {
        m.fail_device(DeviceId(d));
    }
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
    let out = m.read_object(&layout).unwrap();
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
    m.fail_device(DeviceId(4));
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
}

#[test]
fn zero_parity_loss_is_fatal() {
    let mut m = mgr(5);
    let layout = m
        .store_object(3, ByteSize::from_kib(40), RedundancyScheme::parity(0), None)
        .unwrap();
    // 40 KiB / 4 KiB = 10 chunks across 5 devices: every device holds some.
    m.fail_device(DeviceId(2));
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Lost);
}

#[test]
fn synthetic_objects_track_space_and_timing() {
    let mut m = mgr(5);
    let layout = m
        .store_object(6, ByteSize::from_kib(12), RedundancyScheme::parity(1), None)
        .unwrap();
    // 3 data chunks + 1 parity chunk (one stripe of m=4).
    let usage = m.usage();
    assert_eq!(usage.user_bytes, ByteSize::from_kib(12));
    assert_eq!(usage.redundancy_bytes, ByteSize::from_kib(4));
    let out = m.read_object(&layout).unwrap();
    assert!(out.bytes.is_none());
    assert!(out.completed_at.as_nanos() > 0);
}

#[test]
fn space_efficiency_matches_scheme_for_large_objects() {
    let mut m = mgr(5);
    // 2-parity on 5 devices: 60% ideal. A 12-chunk object fills 4
    // stripes of m=3 exactly.
    m.store_object(1, ByteSize::from_kib(48), RedundancyScheme::parity(2), None)
        .unwrap();
    let eff = m.usage().space_efficiency();
    assert!((eff - 0.6).abs() < 1e-9, "eff = {eff}");
}

#[test]
fn remove_object_releases_everything() {
    let mut m = mgr(5);
    let layout = m
        .store_object(9, ByteSize::from_kib(40), RedundancyScheme::parity(2), None)
        .unwrap();
    assert!(m.stripe_count() > 0);
    m.remove_object(&layout);
    assert_eq!(m.stripe_count(), 0);
    assert_eq!(m.usage().total(), ByteSize::ZERO);
    assert!(matches!(
        m.read_object(&layout),
        Err(StripeError::UnknownStripe(_))
    ));
    // Idempotent.
    m.remove_object(&layout);
}

#[test]
fn store_after_failures_uses_survivors() {
    let mut m = mgr(5);
    m.fail_device(DeviceId(0));
    m.fail_device(DeviceId(1));
    // 2-parity clamps to the 3 healthy devices (k=2 still fits).
    let layout = m
        .store_object(1, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
        .unwrap();
    let out = m.read_object(&layout).unwrap();
    assert!(!out.degraded);
    // With only 2 healthy devices, parity clamps to 1.
    m.fail_device(DeviceId(2));
    let layout2 = m
        .store_object(2, ByteSize::from_kib(8), RedundancyScheme::parity(2), None)
        .unwrap();
    assert_eq!(layout2.scheme(), RedundancyScheme::parity(1));
    // With zero healthy devices, storing fails.
    m.fail_device(DeviceId(3));
    m.fail_device(DeviceId(4));
    assert!(matches!(
        m.store_object(3, ByteSize::from_kib(4), RedundancyScheme::parity(0), None),
        Err(StripeError::NoHealthyDevices)
    ));
}

#[test]
fn full_array_rolls_back_cleanly() {
    let mut m = StripeManager::new(test_array(2, 1), ByteSize::from_kib(64));
    // Fill device space (2 MiB total, replication doubles usage).
    let r1 = m.store_object(
        1,
        ByteSize::from_kib(900),
        RedundancyScheme::Replication,
        None,
    );
    assert!(r1.is_ok());
    let before = m.usage();
    let count_before = m.stripe_count();
    let r2 = m.store_object(
        2,
        ByteSize::from_kib(900),
        RedundancyScheme::Replication,
        None,
    );
    assert!(matches!(
        r2,
        Err(StripeError::Flash(FlashError::DeviceFull { .. }))
    ));
    assert_eq!(m.usage(), before, "failed store must not leak accounting");
    assert_eq!(
        m.stripe_count(),
        count_before,
        "failed store must not leak stripes"
    );
}

/// A five-device array of 1 MiB devices under a 4 KiB-chunk manager,
/// device `d` left with `free[d]` bytes by a chunk the manager knows
/// nothing of.
fn nearly_full(free: [u64; 5]) -> StripeManager {
    let mut m = StripeManager::new(test_array(5, 1), ByteSize::from_kib(4));
    for (d, free) in free.into_iter().enumerate() {
        let filler = StoredChunk::synthetic(ByteSize::from_mib(1) - ByteSize::from_bytes(free));
        m.array
            .device_mut(DeviceId(d))
            .write_chunk(ChunkHandle::new(1 << 40), filler, SimTime::ZERO)
            .unwrap();
    }
    m
}

/// What storing `size` size-only bytes under `scheme` from stripe `first`
/// does to the devices chunk by chunk: every chunk written in extent order
/// at the clock until one is rejected, and then each removed again.
fn store_chunk_by_chunk(
    m: &mut StripeManager,
    first: u64,
    size: ByteSize,
    scheme: RedundancyScheme,
) -> Result<(), (FlashError, u64)> {
    let extent = Extent {
        size,
        healthy: 0b11111,
        scheme,
        real: false,
    };
    let placed = extent.placed(StripeId(first), m.chunk_size, m.placement);
    let now = m.array.clock().now();
    let chunks = || placed.stripes().flat_map(|s| s.chunks());
    for (written, c) in chunks().enumerate() {
        let stored = StoredChunk::synthetic(c.len);
        if let Err(e) = m
            .array
            .device_mut(c.device)
            .write_chunk(c.handle, stored, now)
        {
            for c in chunks().take(written) {
                m.array.device_mut(c.device).remove_chunk(c.handle);
            }
            return Err((e, written as u64 / 5));
        }
    }
    Ok(())
}

#[test]
fn a_store_that_does_not_fit_charges_and_frees_what_chunk_by_chunk_did() {
    let kib = |n: u64| n * 1024;
    let parity = RedundancyScheme::parity(1);
    let lacking = |requested, available| FlashError::DeviceFull {
        device: DeviceId(2),
        requested: ByteSize::from_bytes(requested),
        available: ByteSize::from_bytes(available),
    };
    // Device 2 is the one short of room. Ten stripes of four data chunks,
    // rejected in the first and in the fourth; four stripes and a fifth of
    // two data chunks, rejected there on a whole chunk and on the object's
    // 100-byte tail.
    let cases = [
        (
            kib(160),
            [kib(64), kib(64), 4000, kib(64), kib(64)],
            0,
            lacking(4096, 4000),
        ),
        (
            kib(160),
            [kib(64), kib(64), kib(12) + 9, kib(64), kib(64)],
            3,
            lacking(4096, 9),
        ),
        (
            kib(72),
            [kib(64), kib(64), kib(18), kib(64), kib(64)],
            4,
            lacking(4096, kib(2)),
        ),
        (
            kib(68) + 100,
            [kib(64), kib(64), kib(16) + 99, kib(64), kib(64)],
            4,
            lacking(100, 99),
        ),
    ];
    for (size, free, stripe, error) in cases {
        let size = ByteSize::from_bytes(size);
        let mut m = nearly_full(free);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        m.set_tracer(tracer.clone());
        // An object before it, so that the attempt starts mid-rotation,
        // and a twin to make the attempt chunk by chunk.
        let kept = m
            .store_object(1, ByteSize::from_kib(3), RedundancyScheme::parity(0), None)
            .unwrap();
        let (first, now) = (m.next_stripe, m.array.clock().now());
        let mut twin = m.clone();
        let stored = tracer.breakdown();
        let before: Vec<_> = (0..5)
            .map(|d| m.array.device(DeviceId(d)).clone())
            .collect();

        let rejected = m.store_object(2, size, parity, None).unwrap_err();
        assert_eq!(rejected, StripeError::Flash(error.clone()), "{size}");
        assert_eq!(
            store_chunk_by_chunk(&mut twin, first, size, parity),
            Err((error, stripe))
        );
        assert_eq!(m.next_stripe, first + stripe + 1, "{size}");
        assert_eq!(m.array.clock().now(), now, "a rejected store takes no time");
        assert_eq!(tracer.breakdown(), stored, "and leaves no span");
        for (d, before) in before.iter().enumerate() {
            let (device, twin) = (m.array.device(DeviceId(d)), twin.array.device(DeviceId(d)));
            assert_eq!(device.used(), before.used(), "ssd{d} of {size}");
            assert_eq!(device.chunk_runs(), before.chunk_runs(), "ssd{d} of {size}");
            assert_eq!(device.stats(), twin.stats(), "ssd{d} of {size}");
            assert_eq!(device.busy_until(), twin.busy_until(), "ssd{d} of {size}");
            let written = device.stats().writes - before.stats().writes;
            assert!(
                written >= stripe && written <= stripe + 1,
                "ssd{d} of {size}"
            );
        }
        assert_eq!(m.usage().total(), ByteSize::from_kib(3));
        assert_eq!(m.object_status(&kept).unwrap(), ObjectStatus::Intact);
    }

    // After a crash the handles start over, under chunks the crash
    // orphaned: writing over those frees their room, so the same object
    // fits again where the free bytes say nothing does.
    let size = ByteSize::from_kib(160);
    let mut m = nearly_full([kib(64), kib(64), kib(40), kib(64), kib(64)]);
    m.store_object(1, size, parity, None).unwrap();
    assert_eq!(m.array.device(DeviceId(2)).available(), ByteSize::ZERO);
    m.simulate_crash();
    let mut twin = m.clone();
    assert_eq!(store_chunk_by_chunk(&mut twin, 0, size, parity), Ok(()));
    m.store_object(1, size, parity, None).unwrap();
    for d in (0..5).map(DeviceId) {
        assert_eq!(m.array.device(d).stats(), twin.array.device(d).stats());
        assert_eq!(
            m.array.device(d).chunk_handles(),
            twin.array.device(d).chunk_handles()
        );
    }
    // Once the sweep has run nothing is orphaned, and a store that does
    // not fit is arithmetic again.
    let refs = m.chunk_refs();
    m.remove_unreferenced_chunks(&refs);
    assert_eq!(m.rewound_from, 0);
}

#[test]
fn a_store_that_cannot_fit_leaves_the_pinned_state() {
    // An unevenly filled array with a slowed device. Three stores that do
    // not fit: one rejected on a whole chunk after five whole stripes
    // fitted, one rejected in its first stripe, and one rejected on a short
    // chunk, between stores that fit. Values recorded from the code that
    // wrote each chunk up to the rejected one and rolled them back.
    let kib = |n: u64| n * 1024;
    let mut m = nearly_full([kib(64), kib(40) + 512, kib(23), kib(64), kib(30) + 7]);
    m.array.device_mut(DeviceId(3)).set_slowdown(1.5);
    let (parity, replication) = (RedundancyScheme::parity(1), RedundancyScheme::Replication);
    let stores = [
        (kib(1), RedundancyScheme::parity(0)),
        (kib(120) + 300, parity),
        (kib(20), replication),
        (kib(40), parity),
        (3584, replication),
        (kib(2), parity),
    ];
    // Each store's first stripe, or the device that refused a chunk with
    // the chunk's length and the room the device had.
    let outcomes: Vec<_> = (1..)
        .zip(stores)
        .map(|(owner, (size, scheme))| {
            match m.store_object(owner, ByteSize::from_bytes(size), scheme, None) {
                Ok(layout) => Ok(layout.stripes().next().unwrap().as_u64()),
                Err(StripeError::Flash(FlashError::DeviceFull {
                    device,
                    requested,
                    available,
                })) => Err((device.0, requested.as_bytes(), available.as_bytes())),
                Err(e) => panic!("{e}"),
            }
        })
        .collect();
    let devices: Vec<_> = (0..5)
        .map(|d| {
            let device = m.array.device(DeviceId(d));
            let s = device.stats();
            (
                (s.writes, s.bytes_written, s.erases_estimated),
                (s.queued_nanos, s.busy_nanos),
                device.busy_until().as_nanos(),
                device.used().as_bytes(),
                device
                    .chunk_runs()
                    .iter()
                    .map(|(h, n)| (h.as_u64(), *n))
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let refused = |requested| Err((2, requested, 3072));
    let expected = [
        Ok(0),
        refused(4096),
        Ok(7),
        refused(4096),
        refused(3584),
        Ok(14),
    ];
    assert_eq!(outcomes, expected);
    let filler = (1 << 40, 1);
    assert_eq!(
        devices,
        [
            (
                (15, 1_034_752, 7),
                (11_996_292, 4_927_369),
                5_965_519,
                1_006_592,
                vec![(0, 1), (7, 5), (14, 1), filler]
            ),
            (
                (13, 1_055_744, 8),
                (9_550_934, 4_566_471),
                5_761_705,
                1_027_584,
                vec![(7, 5), filler]
            ),
            (
                (11, 1_065_984, 8),
                (9_343_305, 4_185_545),
                4_309_251,
                1_045_504,
                vec![(7, 5), filler]
            ),
            (
                (13, 1_031_680, 7),
                (14_326_424, 5_766_951),
                5_968_858,
                1_003_520,
                vec![(7, 5), filler]
            ),
            (
                (14, 1_068_537, 8),
                (9_965_238, 4_790_299),
                5_965_519,
                1_040_377,
                vec![(7, 5), (14, 1), filler]
            ),
        ]
    );
}

#[test]
fn input_validation() {
    let mut m = mgr(3);
    assert!(matches!(
        m.store_object(1, ByteSize::ZERO, RedundancyScheme::parity(0), None),
        Err(StripeError::EmptyObject)
    ));
    assert!(matches!(
        m.store_object(
            1,
            ByteSize::from_kib(4),
            RedundancyScheme::parity(0),
            Some(&[1, 2])
        ),
        Err(StripeError::PayloadSizeMismatch { .. })
    ));
}

#[test]
fn physical_bytes_needed_estimates() {
    let m = mgr(5);
    // 0-parity: exactly the size.
    assert_eq!(
        m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::parity(0)),
        ByteSize::from_kib(10)
    );
    // Replication on 5 devices: 5x.
    assert_eq!(
        m.physical_bytes_needed(ByteSize::from_kib(10), RedundancyScheme::Replication),
        ByteSize::from_kib(50)
    );
    // 2-parity, 12 KiB = 3 chunks = 1 stripe => + 2 parity chunks.
    assert_eq!(
        m.physical_bytes_needed(ByteSize::from_kib(12), RedundancyScheme::parity(2)),
        ByteSize::from_kib(12 + 8)
    );
}

#[test]
fn usage_space_efficiency_empty_is_one() {
    assert_eq!(SpaceUsage::default().space_efficiency(), 1.0);
}

#[test]
fn an_object_is_one_entry_per_device_through_failure_spare_and_rebuild() {
    // 1,000 stripes, the last one short: each device holds the full
    // stripes as one run, and at most one odd chunk beside it.
    let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(4));
    let size = ByteSize::from_bytes(4096 * 3 * 999 + 5000);
    let layout = m
        .store_object(1, size, RedundancyScheme::parity(2), None)
        .unwrap();
    assert_eq!(layout.stripes().count(), 1000);
    let entries = |m: &StripeManager| -> Vec<usize> {
        let devices = (0..5).map(|d| m.array().device(DeviceId(d)));
        devices.map(|d| d.chunk_runs().len()).collect()
    };
    let stored = entries(&m);
    assert!(stored.iter().all(|&n| (1..=2).contains(&n)), "{stored:?}");
    let chunks = m.referenced_chunks().len();
    assert_eq!(chunks, 999 * 5 + 4);

    // A failure flips the runs, a spare empties them, and a rebuild
    // writes each back as the run it was: nothing is ever exploded
    // into per-chunk entries.
    m.fail_device(DeviceId(2));
    assert_eq!(entries(&m), stored);
    m.replace_device(DeviceId(2));
    assert_eq!(entries(&m)[2], 0, "absent chunks are not present");
    m.rebuild_object(&layout).unwrap();
    assert_eq!(entries(&m), stored);
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
    assert!(m.array().all_chunks_intact());

    // One corrupted chunk splits its run around itself — three
    // entries where one was — and the rebuild leaves them so.
    m.corrupt_data_chunk(&layout, 3 * 500).unwrap();
    let split: usize = entries(&m).iter().sum();
    assert_eq!(split, stored.iter().sum::<usize>() + 2);
    m.rebuild_object(&layout).unwrap();
    assert_eq!(entries(&m).iter().sum::<usize>(), split);
    assert!(m.array().all_chunks_intact());

    m.remove_object(&layout);
    assert_eq!(entries(&m), [0; 5]);
    assert_eq!(m.free_capacity(), ByteSize::from_mib(64 * 5));
}

#[test]
#[should_panic(expected = "at most 64 devices")]
fn an_array_the_healthy_set_cannot_name_is_refused_at_construction() {
    StripeManager::new(test_array(65, 1), ByteSize::from_kib(4));
}

#[test]
fn errors_have_sources_and_display() {
    let e = StripeError::Flash(FlashError::DeviceFailed(DeviceId(3)));
    assert!(std::error::Error::source(&e).is_some());
    assert!(e.to_string().contains("ssd3"));
    let e2 = StripeError::ObjectLost {
        stripe: StripeId(9),
        lost: 3,
        tolerated: 2,
    };
    assert!(e2.to_string().contains("stripe#9"));
}

#[test]
fn pristine_store_read_remove_keeps_its_timing() {
    // The legs that never leave the run shortcuts: 2-parity with a
    // short tail, replication, and a one-chunk object, on a fresh
    // array. Numbers pinned from the per-chunk code these replaced.
    let mut m = mgr(6);
    let mut times = Vec::new();
    let objects = [
        (4096 * 10 + 77, RedundancyScheme::parity(2)),
        (4096 * 3, RedundancyScheme::Replication),
        (100, RedundancyScheme::parity(1)),
    ];
    let layouts: Vec<ObjectLayout> = (0..)
        .zip(objects)
        .map(|(owner, (size, scheme))| {
            let layout = m
                .store_object(owner, ByteSize::from_bytes(size), scheme, None)
                .unwrap();
            times.push(m.array().clock().now().as_nanos());
            layout
        })
        .collect();
    for layout in &layouts {
        times.push(m.read_object(layout).unwrap().completed_at.as_nanos());
    }
    for layout in &layouts {
        m.remove_object(layout);
    }
    let stats: Vec<_> = (0..6)
        .map(|d| {
            let device = m.array().device(DeviceId(d));
            let s = device.stats();
            (
                (s.reads, s.writes, s.bytes_read, s.bytes_written),
                (s.queued_nanos, s.busy_nanos),
                device.busy_until().as_nanos(),
                device.used(),
            )
        })
        .collect();
    assert_eq!(
        times,
        [622_887, 1_245_774, 1_445_960, 1_768_847, 1_876_476, 1_976_662]
    );
    let free = ByteSize::ZERO;
    assert_eq!(
        stats,
        [
            ((2, 7, 4173, 20657), (1_353_403, 1_646_246), 1_653_732, free),
            ((1, 6, 100, 20580), (830_516, 1_338_517), 1_976_662, free),
            ((1, 6, 4096, 24576), (1_245_774, 1_353_403), 1_553_589, free),
            (
                (3, 6, 12288, 24576),
                (1_353_403, 1_568_661),
                1_876_476,
                free
            ),
            (
                (4, 6, 16384, 24576),
                (1_568_661, 1_676_290),
                1_876_476,
                free
            ),
            (
                (4, 6, 16384, 24576),
                (1_568_661, 1_676_290),
                1_876_476,
                free
            ),
        ]
    );
    assert_eq!(m.usage().total(), ByteSize::ZERO);
    assert_eq!(m.stripe_count(), 0);
}
