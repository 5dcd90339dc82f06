//! Stores, reads, removals and accounting on live objects.

use reo_flashsim::{ChunkHandle, DeviceId, FlashError, StoredChunk};
use reo_sim::{ByteSize, SimTime, Tracer};

use super::{mgr, payload, test_array};
use crate::{
    ObjectLayout, ObjectStatus, RedundancyScheme, Room, SpaceUsage, StripeError, StripeId,
    StripeManager,
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

#[test]
fn a_store_that_cannot_fit_leaves_the_pinned_state() {
    let kib = |n: u64| n * 1024;
    let (parity, replication) = (RedundancyScheme::parity(1), RedundancyScheme::Replication);
    // Device 2 is the one short of room: what the store would put there —
    // a whole chunk of every stripe before the last, and its chunk of the
    // last — is more than it has free. Ten stripes of four data chunks and
    // parity; five stripes, the last of two data chunks, refused on a whole
    // chunk there and on the object's 100-byte tail; a replica on every
    // device; and a size-only and a real store of what a device could not
    // hold even empty. Each row's refusal names device 2, the bytes the
    // extent puts there and the bytes it has free.
    let cases = [
        (
            kib(160),
            parity,
            [kib(64), kib(64), 4000, kib(64), kib(64)],
            false,
            (kib(40), 4000),
            Room::Short,
        ),
        (
            kib(160),
            parity,
            [kib(64), kib(64), kib(40) - 1, kib(64), kib(64)],
            false,
            (kib(40), kib(40) - 1),
            Room::Short,
        ),
        (
            kib(72),
            parity,
            [kib(64), kib(64), kib(18), kib(64), kib(64)],
            true,
            (kib(20), kib(18)),
            Room::Short,
        ),
        (
            kib(68) + 100,
            parity,
            [kib(64), kib(64), kib(16) + 99, kib(64), kib(64)],
            false,
            (kib(16) + 100, kib(16) + 99),
            Room::Short,
        ),
        (
            kib(20),
            replication,
            [kib(64), kib(64), kib(20) - 1, kib(64), kib(64)],
            false,
            (kib(20), kib(20) - 1),
            Room::Short,
        ),
        (
            kib(1025),
            replication,
            [kib(64); 5],
            false,
            (kib(1025), kib(64)),
            Room::Never,
        ),
        (
            kib(1025),
            replication,
            [kib(64); 5],
            true,
            (kib(1025), kib(64)),
            Room::Never,
        ),
    ];
    for (size, scheme, free, real, (requested, available), room) in cases {
        let size = ByteSize::from_bytes(size);
        let mut m = nearly_full(free);
        m.array.device_mut(DeviceId(3)).set_slowdown(1.5);
        let tracer = Tracer::new();
        tracer.set_enabled(true);
        m.set_tracer(tracer.clone());
        // An object before it, so that the attempt starts mid-rotation.
        let kept = m
            .store_object(1, ByteSize::from_kib(3), RedundancyScheme::parity(0), None)
            .unwrap();
        let (first, now, usage, stored) = (
            m.next_stripe,
            m.array.clock().now(),
            m.usage(),
            tracer.breakdown(),
        );
        let before: Vec<_> = (0..5)
            .map(|d| m.array.device(DeviceId(d)).clone())
            .collect();

        assert_eq!(m.room_for(size, scheme, None), room, "{size}");
        let bytes = real.then(|| payload(size.as_bytes() as usize));
        let refused = m.store_object(2, size, scheme, bytes.as_deref());
        let expected = FlashError::DeviceFull {
            device: DeviceId(2),
            requested: ByteSize::from_bytes(requested),
            available: ByteSize::from_bytes(available),
        };
        assert_eq!(refused.unwrap_err(), StripeError::Flash(expected), "{size}");
        assert_eq!(m.next_stripe, first, "{size} consumes no stripe");
        assert_eq!(m.array.clock().now(), now, "{size} takes no time");
        assert_eq!(tracer.breakdown(), stored, "{size} leaves no span");
        assert_eq!(m.usage(), usage, "{size}");
        for (d, before) in before.iter().enumerate() {
            let device = m.array.device(DeviceId(d));
            assert_eq!(device.stats(), before.stats(), "ssd{d} of {size}");
            assert_eq!(device.busy_until(), before.busy_until(), "ssd{d} of {size}");
            assert_eq!(device.used(), before.used(), "ssd{d} of {size}");
            assert_eq!(device.chunk_runs(), before.chunk_runs(), "ssd{d} of {size}");
        }
        assert_eq!(m.object_status(&kept).unwrap(), ObjectStatus::Intact);

        // A byte more on the short device, and the same store fits from
        // the same stripe on.
        if room == Room::Short {
            let mut roomier = nearly_full(free.map(|f| f + requested - available));
            roomier
                .store_object(1, ByteSize::from_kib(3), RedundancyScheme::parity(0), None)
                .unwrap();
            assert_eq!(roomier.room_for(size, scheme, None), Room::Fits, "{size}");
            let layout = roomier
                .store_object(2, size, scheme, bytes.as_deref())
                .unwrap();
            assert_eq!(layout.stripes().next().map(StripeId::as_u64), Some(first));
        }
    }

    // After a crash the handles start over, under chunks the crash
    // orphaned. Those hold their bytes until the sweep, so the same object
    // is refused on device 2, the one device it filled, before anything is
    // written, and fits once the sweep has collected them.
    let size = ByteSize::from_kib(160);
    let mut m = nearly_full([kib(80), kib(80), kib(40), kib(80), kib(80)]);
    let layout = m.store_object(1, size, parity, None).unwrap();
    assert_eq!(m.array.device(DeviceId(2)).available(), ByteSize::ZERO);
    assert_eq!(m.room_for(size, parity, None), Room::Short);
    // What the object holds counts as freed: every stripe of it is whole,
    // so each device's share is the same wherever the rotation starts.
    assert_eq!(m.room_for(size, parity, Some(&layout)), Room::Fits);
    m.simulate_crash();
    let (now, before) = (m.array.clock().now(), m.array.clone());
    assert_eq!(m.room_for(size, parity, None), Room::Short);
    let refused = FlashError::DeviceFull {
        device: DeviceId(2),
        requested: ByteSize::from_kib(40),
        available: ByteSize::ZERO,
    };
    assert_eq!(
        m.store_object(1, size, parity, None).unwrap_err(),
        StripeError::Flash(refused)
    );
    assert_eq!(m.next_stripe, 0, "a refused store consumes no stripe");
    assert_eq!(m.array.clock().now(), now, "and takes no time");
    assert_eq!(m.usage(), SpaceUsage::default());
    for d in (0..5).map(DeviceId) {
        let (device, before) = (m.array.device(d), before.device(d));
        assert_eq!(device.stats(), before.stats(), "{d:?}");
        assert_eq!(device.used(), before.used(), "{d:?}");
        assert_eq!(device.chunk_runs(), before.chunk_runs(), "{d:?}");
    }
    // The sweep collects the object's fifty chunks and the five fillers,
    // which no extent names either.
    let refs = m.chunk_refs();
    assert_eq!(m.remove_unreferenced_chunks(&refs), 55);
    assert_eq!(m.room_for(size, parity, None), Room::Fits);
    let again = m.store_object(1, size, parity, None).unwrap();
    assert_eq!(again.stripes().next().map(StripeId::as_u64), Some(0));
}

#[test]
fn a_store_that_fits_after_a_crash_writes_over_the_orphans() {
    // Every device has room for the object twice. After the crash the same
    // object is stored again from stripe 0, over the first one's chunks:
    // each write gives the orphan's bytes back first, so every device ends
    // up holding exactly what it held before the store.
    let parity = RedundancyScheme::parity(1);
    let size = ByteSize::from_kib(160);
    for real in [false, true] {
        let mut m = nearly_full([80 * 1024; 5]);
        let bytes = real.then(|| payload(size.as_bytes() as usize));
        m.store_object(1, size, parity, None).unwrap();
        m.simulate_crash();
        let before: Vec<_> = (0..5).map(|d| m.array.device(DeviceId(d)).used()).collect();
        assert_eq!(m.room_for(size, parity, None), Room::Fits);
        let again = m.store_object(2, size, parity, bytes.as_deref()).unwrap();
        assert_eq!(again.stripes().next().map(StripeId::as_u64), Some(0));
        let after: Vec<_> = (0..5).map(|d| m.array.device(DeviceId(d)).used()).collect();
        assert_eq!(after, before, "real {real}");
        let read = m.read_object(&again).unwrap();
        assert_eq!(read.bytes, bytes, "real {real}");
        // Nothing is orphaned any more but the fillers.
        let refs = m.chunk_refs();
        assert_eq!(m.remove_unreferenced_chunks(&refs), 5, "real {real}");
    }
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
    let used = (0..5).map(|d| m.array().device(DeviceId(d)).used());
    assert!(used.into_iter().all(|u| u.is_zero()));
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

/// A re-encode is decided by the room rule before anything is read or
/// freed, counting as freed what removing the object frees — only the
/// chunks the devices hold: one that went with a replaced device frees
/// nothing. Refused, the re-encode leaves everything as it was; given the
/// room, it lands.
#[test]
fn a_reencode_counts_as_freed_only_the_chunks_the_devices_hold() {
    let mut m = StripeManager::new(test_array(5, 1), ByteSize::from_kib(4));
    let size = ByteSize::from_kib(40);
    let (one, two) = (RedundancyScheme::parity(1), RedundancyScheme::parity(2));
    let old = m.store_object(1, size, one, None).unwrap();
    // The object's 8 or 12 KiB on device 0 go with it; its spare has 8 KiB
    // free, less than the 12 or 16 KiB two parity chunks a stripe put
    // there, and no less once the object's share there were counted freed.
    m.fail_device(DeviceId(0));
    m.replace_device(DeviceId(0));
    let filler = StoredChunk::synthetic(ByteSize::from_mib(1) - ByteSize::from_kib(8));
    let spare = m.array.device_mut(DeviceId(0));
    spare
        .write_chunk(ChunkHandle::new(1 << 40), filler, SimTime::ZERO)
        .unwrap();
    assert_eq!(m.object_status(&old).unwrap(), ObjectStatus::Degraded);
    assert_eq!(m.room_for(size, two, Some(&old)), Room::Short);

    let (first, now, usage) = (m.next_stripe, m.array.clock().now(), m.usage());
    let before: Vec<_> = (0..5)
        .map(|d| m.array.device(DeviceId(d)).clone())
        .collect();
    let refused = m.reencode_object(&old, two, 2).unwrap_err();
    assert!(
        matches!(
            refused,
            StripeError::Flash(FlashError::DeviceFull { device: DeviceId(0), available, .. })
                if available == ByteSize::from_kib(8)
        ),
        "{refused:?}"
    );
    assert_eq!(
        (m.next_stripe, m.array.clock().now(), m.usage()),
        (first, now, usage)
    );
    for (d, before) in before.iter().enumerate() {
        let device = m.array.device(DeviceId(d));
        assert_eq!(device.stats(), before.stats(), "ssd{d}");
        assert_eq!(device.used(), before.used(), "ssd{d}");
        assert_eq!(device.chunk_runs(), before.chunk_runs(), "ssd{d}");
    }
    assert_eq!(m.object_status(&old).unwrap(), ObjectStatus::Degraded);

    m.array
        .device_mut(DeviceId(0))
        .remove_chunk(ChunkHandle::new(1 << 40));
    let new = m.reencode_object(&old, two, 2).unwrap();
    assert_eq!(new.stripes().next().map(StripeId::as_u64), Some(first));
    assert_eq!(m.object_status(&new).unwrap(), ObjectStatus::Intact);
    assert!(matches!(
        m.object_status(&old),
        Err(StripeError::UnknownStripe(_))
    ));
}
