//! Layout blobs across a crash, and the range sweeps of recovery.

use reo_flashsim::{ChunkHandle, DeviceId};
use reo_sim::ByteSize;

use super::{mgr, payload, test_array};
use crate::{ObjectStatus, RedundancyScheme, SpaceUsage, StripeError, StripeManager};

#[test]
fn exported_meta_survives_a_simulated_crash() {
    let mut m = mgr(5);
    let data = payload(40_000);
    let layout = m
        .store_object(
            7,
            ByteSize::from_bytes(data.len() as u64),
            RedundancyScheme::parity(2),
            Some(&data),
        )
        .unwrap();
    let usage_before = m.usage();
    let blob = m.export_object_meta(&layout).unwrap();

    m.simulate_crash();
    assert_eq!(m.stripe_count(), 0);
    assert_eq!(m.usage().total(), ByteSize::ZERO);

    let restored = m.install_object_meta(&blob).unwrap();
    assert_eq!(restored.owner(), 7);
    assert_eq!(restored.size().as_bytes(), data.len() as u64);
    assert!(restored.stripes().eq(layout.stripes()));
    assert_eq!(m.usage(), usage_before);
    assert!(m.chunk_refs().double_allocated_chunks().is_empty());
    // Chunk contents survived on the array: the object reads back.
    let out = m.read_object(&restored).unwrap();
    assert_eq!(out.bytes.unwrap(), data);
    // A fresh store must not collide with reinstalled handles/stripes.
    let second = m
        .store_object(8, ByteSize::from_kib(32), RedundancyScheme::parity(1), None)
        .unwrap();
    assert!(m.chunk_refs().double_allocated_chunks().is_empty());
    assert!(second
        .stripes()
        .all(|s| layout.stripes().all(|old| old != s)));
}

#[test]
fn orphan_chunks_are_collected_after_crash() {
    let mut m = mgr(5);
    let keep = m
        .store_object(1, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
        .unwrap();
    m.store_object(2, ByteSize::from_kib(16), RedundancyScheme::parity(1), None)
        .unwrap();
    let blob = m.export_object_meta(&keep).unwrap();
    m.simulate_crash();
    m.install_object_meta(&blob).unwrap();
    // Only `keep`'s metadata was journaled: the other object's chunks
    // are unreferenced and must be garbage collected.
    let refs = m.chunk_refs();
    let removed = m.remove_unreferenced_chunks(&refs);
    assert!(removed > 0);
    let total_chunks: usize = (0..m.array().device_count())
        .map(|i| m.array().device(DeviceId(i)).chunk_count())
        .sum();
    assert_eq!(total_chunks, m.referenced_chunks().len());
    assert!(m.read_object(&keep).is_ok());
}

/// Every `(device, handle)` pair the extents name, sorted, duplicates
/// kept: what the recovery sweeps walked before they walked ranges.
fn expanded_refs(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
    let mut refs = Vec::new();
    for (first, extent) in &m.extents {
        let placed = extent.placed(*first, m.chunk_size);
        let chunks = placed.stripes().flat_map(|stripe| stripe.chunks());
        refs.extend(chunks.map(|c| (c.device, c.handle)));
    }
    refs.sort_unstable();
    refs
}

/// The double-allocation sweep over expanded pairs.
fn expanded_doubles(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
    let refs = expanded_refs(m);
    let mut dup = Vec::new();
    for w in refs.windows(2) {
        if w[0] == w[1] && dup.last() != Some(&w[0]) {
            dup.push(w[0]);
        }
    }
    dup
}

/// The orphan sweep over expanded pairs: what it would remove.
fn expanded_orphans(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
    let refs = expanded_refs(m);
    let mut orphans = present_chunks(m);
    orphans.retain(|pair| refs.binary_search(pair).is_err());
    orphans
}

fn present_chunks(m: &StripeManager) -> Vec<(DeviceId, ChunkHandle)> {
    let devices = (0..m.array().device_count()).map(DeviceId);
    devices
        .flat_map(|d| {
            let present = m.array().device(d).chunk_handles();
            present.into_iter().map(move |h| (d, h))
        })
        .collect()
}

#[test]
fn range_sweeps_agree_with_the_expanded_pair_sweeps() {
    // Objects of every shape, some stored on a degraded array; then a
    // crash after which some blobs are missing (their chunks are
    // orphans), some chunks are missing, and some blobs come back
    // renumbered onto stripes other objects hold — overlapping one
    // neighbour, two, or lying inside a larger one.
    let mut m = StripeManager::new(test_array(5, 64), ByteSize::from_kib(4));
    let shapes = [
        (4096 * 40, RedundancyScheme::parity(2)),
        (100, RedundancyScheme::parity(1)),
        (4096 * 9 + 1, RedundancyScheme::Replication),
        (4096 * 4 * 6, RedundancyScheme::parity(1)),
        (4096 * 17, RedundancyScheme::parity(0)),
        (4096 * 3, RedundancyScheme::parity(2)),
    ];
    let mut blobs = Vec::new();
    for (owner, (size, scheme)) in (0..).zip(shapes.into_iter().cycle().take(18)) {
        if owner == 9 {
            m.fail_device(DeviceId(3));
        }
        let layout = m
            .store_object(owner, ByteSize::from_bytes(size), scheme, None)
            .unwrap();
        blobs.push(m.export_object_meta(&layout).unwrap());
    }
    let renumbered = |blob: &[u8], first: u64| {
        let mut blob = blob.to_vec();
        blob[20..28].copy_from_slice(&first.to_le_bytes());
        blob[28..36].copy_from_slice(&first.to_le_bytes());
        blob
    };
    let first_of = |blob: &[u8]| u64::from_le_bytes(blob[20..28].try_into().unwrap());
    let mut checked_doubles = 0;
    for case in 0..40u64 {
        let mut crashed = m.clone();
        crashed.simulate_crash();
        for (i, blob) in (0..).zip(&blobs) {
            // Which blobs survive, and where they claim to start.
            match (i * 7 + case) % 5 {
                0 => {}
                1 if case % 2 == 1 => {
                    let first = first_of(blob).saturating_sub(case % 13);
                    crashed
                        .install_object_meta(&renumbered(blob, first))
                        .unwrap();
                }
                _ => {
                    crashed.install_object_meta(blob).unwrap();
                }
            }
        }
        if case % 4 == 3 {
            // Three deep: the fourteen-stripe object twice more, a
            // stripe apart, over whatever starts at `case`.
            for first in [case + 1, case + 2] {
                crashed
                    .install_object_meta(&renumbered(&blobs[0], first))
                    .unwrap();
            }
        }
        // A chunk the metadata names is gone; the sweeps still agree.
        if let Some(&(device, handle)) = expanded_refs(&crashed).get(case as usize * 3) {
            crashed.array.device_mut(device).remove_chunk(handle);
        }
        let ranges = crashed.chunk_refs();
        let doubles = expanded_doubles(&crashed);
        assert_eq!(ranges.double_allocated_chunks(), doubles, "case {case}");
        checked_doubles += doubles.len();
        let mut refs = expanded_refs(&crashed);
        refs.dedup();
        assert_eq!(crashed.referenced_chunks(), refs, "case {case}");

        let orphans = expanded_orphans(&crashed);
        let mut kept = present_chunks(&crashed);
        kept.retain(|pair| orphans.binary_search(pair).is_err());
        assert_eq!(
            crashed.remove_unreferenced_chunks(&ranges),
            orphans.len(),
            "case {case}"
        );
        assert_eq!(present_chunks(&crashed), kept, "case {case}");
        // The sweep frees chunks, not metadata: the list still holds.
        assert_eq!(crashed.remove_unreferenced_chunks(&ranges), 0);
    }
    assert!(checked_doubles > 100, "{checked_doubles}");
}

#[test]
fn layout_blob_roundtrips_for_every_placement() {
    // Scheme x size x devices failed at store time:
    // a blob reinstalled after a crash yields the extent that was
    // stored — same blob, same chunks, same bytes accounted, and a
    // read that costs what it costs a manager that never crashed.
    let chunk = 4096;
    let schemes = [
        RedundancyScheme::parity(0),
        RedundancyScheme::parity(1),
        RedundancyScheme::parity(2),
        RedundancyScheme::Replication,
    ];
    let mut cases = 0;
    for failed in 0u32..31 {
        let healthy = 5 - failed.count_ones() as usize;
        for scheme in schemes {
            let m = scheme.clamped_to(healthy).data_chunks_per_stripe(healthy) as u64;
            // One chunk; exactly full stripes; a short last stripe
            // ending in a short chunk; many stripes.
            for size in [
                100,
                chunk * m * 2,
                chunk * (m * 2 + 1) + 77,
                chunk * m * 40 + 1,
            ] {
                let stored = || {
                    let array = test_array(5, 64);
                    let mut mgr = StripeManager::new(array, ByteSize::from_bytes(chunk));
                    // Move the allocators off zero first.
                    mgr.store_object(1, ByteSize::from_kib(20), scheme, None)
                        .unwrap();
                    for d in (0..5).filter(|d| failed >> d & 1 == 1) {
                        mgr.fail_device(DeviceId(d));
                    }
                    let layout = mgr
                        .store_object(2, ByteSize::from_bytes(size), scheme, None)
                        .unwrap();
                    (mgr, layout)
                };
                let (mut crashed, layout) = stored();
                let (mut steady, same_layout) = stored();
                let blob = crashed.export_object_meta(&layout).unwrap();
                crashed.simulate_crash();
                let restored = crashed.install_object_meta(&blob).unwrap();
                assert_eq!(crashed.export_object_meta(&restored).unwrap(), blob);
                let context = format!("{failed:#b} {scheme} {size}");
                // Only the second object was journaled; the first
                // one's handles come before its own.
                let refs = crashed.chunk_refs();
                crashed.remove_unreferenced_chunks(&refs);
                let mut chunks = steady.referenced_chunks();
                let first_handle = ChunkHandle::new(same_layout.first_stripe.as_u64());
                chunks.retain(|&(_, handle)| handle >= first_handle);
                assert_eq!(crashed.referenced_chunks(), chunks, "{context}");
                assert_eq!(
                    crashed.placed(&restored).unwrap().usage(),
                    steady.placed(&same_layout).unwrap().usage(),
                    "{context}"
                );
                let read = crashed.read_object(&restored).unwrap();
                let same_read = steady.read_object(&same_layout).unwrap();
                assert_eq!(read.completed_at, same_read.completed_at, "{context}");
                assert_eq!(read.degraded, same_read.degraded, "{context}");
                crashed.remove_object(&restored);
                assert_eq!(crashed.usage(), SpaceUsage::default(), "{context}");
                // What the reinstalled extent names is what the
                // devices hold: removing it empties them.
                let left: usize = (0..5)
                    .map(|d| crashed.array().device(DeviceId(d)).chunk_count())
                    .sum();
                assert_eq!(left, 0, "{context}");
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 31 * 4 * 4);
}

#[test]
fn corrupt_layout_blobs_are_refused_or_install_consistently() {
    // Every truncation, and every value of every byte, of blobs from
    // three placements: refused as corrupt, or installed as something
    // the consistency checks accept — never a panic, never a device
    // the array lacks, never more chunks than the array has room for.
    let capacity_chunks = 5 * 1024 / 4;
    let mut base = StripeManager::new(test_array(5, 1), ByteSize::from_kib(4));
    base.store_object(1, ByteSize::from_kib(3), RedundancyScheme::parity(1), None)
        .unwrap();
    base.fail_device(DeviceId(3));
    let layouts = [
        (ByteSize::from_kib(50), RedundancyScheme::parity(2)),
        (ByteSize::from_bytes(5000), RedundancyScheme::Replication),
        (ByteSize::from_bytes(1), RedundancyScheme::parity(0)),
    ]
    .map(|(size, scheme)| base.store_object(2, size, scheme, None).unwrap());
    let blobs = layouts
        .each_ref()
        .map(|l| base.export_object_meta(l).unwrap());
    base.simulate_crash();

    let mut accepted = 0;
    for blob in &blobs {
        for cut in 0..blob.len() {
            let torn = base.clone().install_object_meta(&blob[..cut]);
            assert!(matches!(torn, Err(StripeError::CorruptMetadata)), "{cut}");
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(base.clone().install_object_meta(&long).is_err());
        for at in 0..blob.len() {
            for value in 0..=u8::MAX {
                let mut mutated = blob.clone();
                mutated[at] = value;
                let mut m = base.clone();
                let layout = match m.install_object_meta(&mutated) {
                    Ok(layout) => layout,
                    Err(e) => {
                        assert_eq!(e, StripeError::CorruptMetadata, "byte {at} = {value}");
                        assert_eq!(m.stripe_count(), 0);
                        assert_eq!(m.usage(), SpaceUsage::default());
                        continue;
                    }
                };
                accepted += 1;
                // What `OsdTarget::verify_consistency` asks of the
                // stripe layer.
                assert!(m.chunk_refs().double_allocated_chunks().is_empty());
                assert_eq!(m.stripe_count(), layout.stripes().count());
                let chunks = m.referenced_chunks();
                assert!(chunks.iter().all(|(d, _)| d.0 < 5), "byte {at} = {value}");
                assert!(chunks.len() <= capacity_chunks + 5, "byte {at} = {value}");
                // And it can be audited and dropped like any other
                // extent. (Not read: an accepted mutation of the size
                // names chunk lengths the devices do not hold, which
                // is what the read shortcut's debug re-probe is for.)
                m.object_status(&layout).unwrap();
                m.remove_object(&layout);
                assert_eq!(m.usage(), SpaceUsage::default());
                assert_eq!(m.stripe_count(), 0);
            }
        }
    }
    // Most mutations of an id or the owner are legal blobs.
    assert!(accepted > 3 * 255 * 8, "{accepted}");
}

#[test]
fn reinstalled_metadata_naming_a_missing_chunk_reads_as_degraded() {
    // A journal can outlive a chunk it names (re-encode freed it, the
    // crash beat the new record): the device never failed or lost
    // anything, yet the stripe must not pass for intact.
    let mut m = mgr(5);
    let data = payload(12_000);
    let layout = m
        .store_object(
            1,
            ByteSize::from_bytes(12_000),
            RedundancyScheme::parity(1),
            Some(&data),
        )
        .unwrap();
    let blob = m.export_object_meta(&layout).unwrap();
    let gone = m.placed(&layout).unwrap().locate(1, 0).0.data_chunk(0);
    m.simulate_crash();
    m.array.device_mut(gone.device).remove_chunk(gone.handle);
    let restored = m.install_object_meta(&blob).unwrap();
    assert_eq!(m.object_status(&restored).unwrap(), ObjectStatus::Degraded);
    let out = m.read_object(&restored).unwrap();
    assert!(out.degraded);
    assert_eq!(out.bytes.unwrap(), data);
    m.rebuild_object(&restored).unwrap();
    assert_eq!(m.object_status(&restored).unwrap(), ObjectStatus::Intact);
    assert!(m.array.device(gone.device).all_chunks_intact());
}
