//! The extent's arithmetic: the layout blob's bytes, closed-form usage,
//! and which devices a stripe touches.

use reo_flashsim::DeviceId;
use reo_sim::ByteSize;

use super::{mgr, payload, test_array};
use crate::{RedundancyScheme, StripeError, StripeManager};

#[test]
fn layout_blob_bytes_are_pinned() {
    // Stripe 0 and handle 0 go to another object, device 1 is down at
    // store time, and 4-parity is clamped to the four survivors' 3.
    let mut m = mgr(5);
    m.store_object(
        1,
        ByteSize::from_bytes(9),
        RedundancyScheme::parity(0),
        None,
    )
    .unwrap();
    m.fail_device(DeviceId(1));
    let data = payload(10_000);
    let layout = m
        .store_object(
            7,
            ByteSize::from_bytes(10_000),
            RedundancyScheme::parity(4),
            Some(&data),
        )
        .unwrap();
    #[rustfmt::skip]
    let golden = [
        7, 0, 0, 0, 0, 0, 0, 0,             // owner
        0x10, 0x27, 0, 0, 0, 0, 0, 0,       // size
        0, 3,                               // the layout's scheme
        0, 3,                               // the extent's scheme
        1, 0, 0, 0, 0, 0, 0, 0,             // first stripe
        1, 0, 0, 0, 0, 0, 0, 0,             // first handle: the same
        0b11101, 0, 0, 0, 0, 0, 0, 0,       // healthy devices
        1,                                  // real payload
    ];
    assert_eq!(m.export_object_meta(&layout).unwrap(), golden);
    // A chunk's handle is its stripe's id: a blob that says otherwise
    // was not written by this code.
    let mut renumbered = golden;
    renumbered[28] = 2;
    assert_eq!(
        m.clone().install_object_meta(&renumbered).unwrap_err(),
        StripeError::CorruptMetadata
    );
    m.clone().install_object_meta(&golden).unwrap();
    let replicated = m
        .store_object(
            8,
            ByteSize::from_kib(64),
            RedundancyScheme::Replication,
            None,
        )
        .unwrap();
    let blob = m.export_object_meta(&replicated).unwrap();
    assert_eq!(blob.len(), golden.len(), "size does not show in the length");
    assert_eq!(blob[16..20], [1, 0, 1, 0]);
    assert_eq!(blob[44], 0);
}

#[test]
fn closed_form_usage_and_shares_are_what_the_devices_hold() {
    // Scheme x size x devices failed before the store: the bytes the
    // arithmetic accounts to the extent, and to each of its devices, are
    // the bytes the devices report used.
    let chunk = 4096;
    let schemes = [
        RedundancyScheme::parity(0),
        RedundancyScheme::parity(1),
        RedundancyScheme::parity(2),
        RedundancyScheme::Replication,
    ];
    for failed in 0u32..31 {
        let healthy = 5 - failed.count_ones() as usize;
        for scheme in schemes {
            let m = scheme.clamped_to(healthy).data_chunks_per_stripe(healthy) as u64;
            // One short chunk; exactly full stripes; a short last stripe
            // ending in a short chunk; forty stripes.
            for size in [100, chunk * m * 2, chunk * (m * 2 + 1) + 77, chunk * m * 40] {
                let context = format!("{failed:#b} {scheme} {size}");
                let mut mgr = StripeManager::new(test_array(5, 64), ByteSize::from_bytes(chunk));
                for d in (0..5).filter(|d| failed >> d & 1 == 1) {
                    mgr.fail_device(DeviceId(d));
                }
                let size = ByteSize::from_bytes(size);
                let layout = mgr.store_object(1, size, scheme, None).unwrap();
                let used = |d: DeviceId| mgr.array().device(d).used();
                let placed = mgr.placed(&layout).unwrap();
                let usage = placed.usage();
                assert_eq!(usage.user_bytes, size, "{context}");
                assert_eq!(
                    usage.total(),
                    (0..5).map(DeviceId).map(used).sum(),
                    "{context}"
                );
                assert_eq!(mgr.usage(), usage, "{context}");

                let mut devices = 0;
                for (d, tail) in placed.tails() {
                    let share = ByteSize::from_bytes(chunk) * placed.full_stripes()
                        + tail.unwrap_or(ByteSize::ZERO);
                    assert_eq!(used(d), share, "{context} {d}");
                    devices |= 1 << d.0;
                }
                assert_eq!(devices, !failed & 0b11111, "{context}");
            }
        }
    }
}
