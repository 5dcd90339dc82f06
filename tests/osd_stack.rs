//! Integration tests of the OSD stack below the cache system: control
//! messages over the wire, payload integrity through failures and
//! recovery, and policy interactions across crates.

use reo_repro::flashsim::{DeviceConfig, DeviceId, FlashArray};
use reo_repro::osd::control::{ControlMessage, QueryOp};
use reo_repro::osd::{ObjectClass, ObjectId, ObjectKey, PartitionId, SenseCode};
use reo_repro::osd_target::{OsdTarget, ProtectionPolicy};
use reo_repro::sim::{ByteSize, ServiceModel, SimClock, SimDuration};
use reo_repro::stripe::{RedundancyScheme, StripeManager};

fn key(i: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
}

fn target(devices: usize, capacity_mib: u64, policy: ProtectionPolicy) -> OsdTarget {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_mib(capacity_mib),
        read: ServiceModel::new(SimDuration::from_micros(90), 520 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
        erase_block: ByteSize::from_kib(256),
        pe_cycle_limit: 3000,
    };
    let array = FlashArray::new(devices, cfg, SimClock::new());
    OsdTarget::new(StripeManager::new(array, ByteSize::from_kib(16)), policy)
}

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

#[test]
fn payload_survives_every_single_device_failure() {
    // A hot (2-parity) object must reconstruct byte-exactly no matter
    // which single device dies.
    for victim in 0..5 {
        let mut t = target(5, 64, ProtectionPolicy::differentiated());
        let data = payload(200_000, victim as u8);
        t.create_object(
            key(1),
            ByteSize::from_bytes(data.len() as u64),
            ObjectClass::HotClean,
            Some(&data),
        )
        .unwrap();
        t.fail_device(DeviceId(victim));
        let out = t.read_object(key(1)).unwrap();
        assert_eq!(out.bytes.as_deref(), Some(&data[..]), "victim {victim}");
        assert!(out.degraded);
    }
}

#[test]
fn payload_survives_every_double_device_failure() {
    for a in 0..5 {
        for b in (a + 1)..5 {
            let mut t = target(5, 64, ProtectionPolicy::differentiated());
            let data = payload(120_000, (a * 5 + b) as u8);
            t.create_object(
                key(1),
                ByteSize::from_bytes(data.len() as u64),
                ObjectClass::HotClean,
                Some(&data),
            )
            .unwrap();
            t.fail_device(DeviceId(a));
            t.fail_device(DeviceId(b));
            let out = t.read_object(key(1)).unwrap();
            assert_eq!(out.bytes.as_deref(), Some(&data[..]), "victims {a},{b}");
        }
    }
}

#[test]
fn replicated_payload_survives_quadruple_failure_and_rebuilds() {
    let mut t = target(5, 64, ProtectionPolicy::differentiated());
    let data = payload(80_000, 9);
    t.create_object(
        key(1),
        ByteSize::from_bytes(data.len() as u64),
        ObjectClass::Dirty,
        Some(&data),
    )
    .unwrap();
    for d in 0..4 {
        t.fail_device(DeviceId(d));
    }
    assert_eq!(
        t.read_object(key(1)).unwrap().bytes.as_deref(),
        Some(&data[..])
    );
    // Spares restore full replication, one device at a time.
    for d in 0..4 {
        t.insert_spare(DeviceId(d));
        while t.recover_next().is_some() {}
    }
    let out = t.read_object(key(1)).unwrap();
    assert!(!out.degraded);
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}

#[test]
fn control_wire_format_drives_reencoding_end_to_end() {
    let mut t = target(5, 64, ProtectionPolicy::differentiated());
    let data = payload(150_000, 3);
    t.create_object(
        key(7),
        ByteSize::from_bytes(data.len() as u64),
        ObjectClass::ColdClean,
        Some(&data),
    )
    .unwrap();

    // Promote via raw wire bytes, exactly as the initiator would write
    // them to OID 0x10004.
    let wire = ControlMessage::SetClass {
        key: key(7),
        class: ObjectClass::HotClean,
    }
    .encode();
    assert_eq!(t.handle_control_write(&wire).unwrap(), SenseCode::Success);

    // Query through the wire too.
    let q = ControlMessage::Query {
        key: key(7),
        op: QueryOp::Read,
        offset: 0,
        size: data.len() as u64,
    }
    .encode();
    assert_eq!(t.handle_control_write(&q).unwrap(), SenseCode::Success);

    // The promotion is real: two failures are now survivable.
    t.fail_device(DeviceId(0));
    t.fail_device(DeviceId(1));
    assert_eq!(
        t.read_object(key(7)).unwrap().bytes.as_deref(),
        Some(&data[..])
    );
}

#[test]
fn recovery_sense_codes_follow_the_protocol() {
    let mut t = target(5, 64, ProtectionPolicy::differentiated());
    t.create_object(key(1), ByteSize::from_kib(100), ObjectClass::HotClean, None)
        .unwrap();
    assert_eq!(t.recovery_sense(), SenseCode::Success);
    t.fail_device(DeviceId(0));
    t.insert_spare(DeviceId(0));
    assert_eq!(t.recovery_sense(), SenseCode::RecoveryStarts);
    while t.recover_next().is_some() {}
    assert_eq!(t.recovery_sense(), SenseCode::RecoveryEnds);
    assert_eq!(t.recovery_sense(), SenseCode::Success);
}

#[test]
fn clamped_redundancy_still_protects_on_shrunken_arrays() {
    // Three of five devices down: hot objects can only get 1 parity, but
    // they must still survive the loss of one of the two survivors...
    let mut t = target(5, 64, ProtectionPolicy::differentiated());
    t.fail_device(DeviceId(0));
    t.fail_device(DeviceId(1));
    t.fail_device(DeviceId(2));
    let data = payload(60_000, 1);
    t.create_object(
        key(1),
        ByteSize::from_bytes(data.len() as u64),
        ObjectClass::HotClean,
        Some(&data),
    )
    .unwrap();
    t.fail_device(DeviceId(3));
    let out = t.read_object(key(1)).unwrap();
    assert_eq!(out.bytes.as_deref(), Some(&data[..]));
}

#[test]
fn usage_amplification_visible_through_target() {
    let mut repl = target(
        5,
        64,
        ProtectionPolicy::uniform(RedundancyScheme::Replication),
    );
    let mut plain = target(
        5,
        64,
        ProtectionPolicy::uniform(RedundancyScheme::parity(0)),
    );
    for i in 0..10 {
        repl.create_object(key(i), ByteSize::from_kib(64), ObjectClass::ColdClean, None)
            .unwrap();
        plain
            .create_object(key(i), ByteSize::from_kib(64), ObjectClass::ColdClean, None)
            .unwrap();
    }
    assert_eq!(
        repl.usage().total().as_bytes(),
        5 * plain.usage().total().as_bytes()
    );
    assert_eq!(plain.usage().space_efficiency(), 1.0);
    assert!((repl.usage().space_efficiency() - 0.2).abs() < 1e-12);
}
