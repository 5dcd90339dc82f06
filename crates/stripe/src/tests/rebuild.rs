//! Rebuilding lost chunks onto replaced devices.

use reo_flashsim::DeviceId;
use reo_sim::ByteSize;

use super::{mgr, payload};
use crate::{ObjectStatus, RedundancyScheme};

#[test]
fn rebuild_after_spare_insertion_real() {
    let mut m = mgr(5);
    let data = payload(30_000);
    let layout = m
        .store_object(
            4,
            ByteSize::from_bytes(30_000),
            RedundancyScheme::parity(1),
            Some(&data),
        )
        .unwrap();
    m.fail_device(DeviceId(1));
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Degraded);
    m.replace_device(DeviceId(1));
    m.rebuild_object(&layout).unwrap();
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
    // Post-rebuild reads are non-degraded and byte-identical.
    let out = m.read_object(&layout).unwrap();
    assert!(!out.degraded);
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}

#[test]
fn rebuild_replicated_object() {
    let mut m = mgr(3);
    let data = payload(5_000);
    let layout = m
        .store_object(
            5,
            ByteSize::from_bytes(5_000),
            RedundancyScheme::Replication,
            Some(&data),
        )
        .unwrap();
    m.fail_device(DeviceId(0));
    m.replace_device(DeviceId(0));
    m.rebuild_object(&layout).unwrap();
    assert_eq!(m.object_status(&layout).unwrap(), ObjectStatus::Intact);
    let out = m.read_object(&layout).unwrap();
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}
