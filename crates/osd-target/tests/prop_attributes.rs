//! What the target keeps of an object beside its layout is its class, its
//! size, how often it was read since it was stored, and the replication
//! stamp the cluster put on it. This test keeps those four per key in a
//! model — created, read, relabelled, re-encoded, stamped and removed the
//! way the target's index is — and holds `replica_version` and `inventory`
//! to it after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use reo_flashsim::{DeviceConfig, FlashArray};
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
use reo_osd_target::{OsdTarget, ProtectionPolicy, TargetError};
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};
use reo_stripe::StripeManager;

const POLICY: ProtectionPolicy = ProtectionPolicy::differentiated();

fn target() -> OsdTarget {
    let cfg = DeviceConfig {
        capacity: ByteSize::from_mib(64),
        read: ServiceModel::new(SimDuration::from_micros(100), 512 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
        erase_block: ByteSize::from_kib(128),
        pe_cycle_limit: 3000,
    };
    let array = FlashArray::new(5, cfg, SimClock::new());
    OsdTarget::new(StripeManager::new(array, ByteSize::from_kib(4)), POLICY)
}

fn key(slot: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + slot))
}

/// What the index should hold of one object.
#[derive(Clone, Copy, Debug)]
struct Model {
    class: ObjectClass,
    size: ByteSize,
    freq: u64,
    stamp: Option<u64>,
}

impl Model {
    /// A freshly stored object: never read, unstamped.
    fn new(class: ObjectClass, size: ByteSize) -> Self {
        Model {
            class,
            size,
            freq: 0,
            stamp: None,
        }
    }
}

#[derive(Clone, Debug)]
enum Step {
    Create { slot: u64, kib: u64, class: usize },
    Read { slot: u64 },
    SetClass { slot: u64, class: usize },
    Stamp { slot: u64, version: u64 },
    Remove { slot: u64 },
}

const SLOTS: u64 = 4;

fn arb_step() -> impl Strategy<Value = Step> {
    let slot = || 0..SLOTS;
    let class = || 0..ObjectClass::ALL.len();
    let create = || {
        (slot(), 1u64..40, class()).prop_map(|(slot, kib, class)| Step::Create { slot, kib, class })
    };
    let read = || slot().prop_map(|slot| Step::Read { slot });
    // Label-only and re-encoding changes both: metadata and dirty share a
    // scheme, every other pair does not.
    let set_class = || (slot(), class()).prop_map(|(slot, class)| Step::SetClass { slot, class });
    let stamp = || (slot(), 0u64..1000).prop_map(|(slot, version)| Step::Stamp { slot, version });
    prop_oneof![
        create(),
        create(),
        read(),
        read(),
        read(),
        set_class(),
        set_class(),
        stamp(),
        stamp(),
        slot().prop_map(|slot| Step::Remove { slot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_record_is_class_size_frequency_and_stamp(
        steps in proptest::collection::vec(arb_step(), 1..120),
    ) {
        let mut t = target();
        let mut model: BTreeMap<ObjectKey, Model> = BTreeMap::new();
        let unknown = |result: Result<(), TargetError>| {
            matches!(result, Err(TargetError::UnknownObject(_)))
        };
        for step in steps {
            match step {
                Step::Create { slot, kib, class } => {
                    let (size, class) = (ByteSize::from_kib(kib), ObjectClass::ALL[class]);
                    match t.create_object(key(slot), size, class, None) {
                        Ok(_) => {
                            prop_assert!(!model.contains_key(&key(slot)));
                            model.insert(key(slot), Model::new(class, size));
                        }
                        Err(TargetError::AlreadyExists(_)) => {
                            prop_assert!(model.contains_key(&key(slot)))
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                Step::Read { slot } => match (t.read_object(key(slot)), model.get_mut(&key(slot))) {
                    (Ok(_), Some(m)) => m.freq += 1,
                    (Err(TargetError::UnknownObject(_)), None) => {}
                    (result, _) => {
                        return Err(TestCaseError::fail(format!("read: {:?}", result.map(|_| ()))))
                    }
                },
                Step::SetClass { slot, class } => {
                    let class = ObjectClass::ALL[class];
                    let result = t.set_class(key(slot), class);
                    match model.get_mut(&key(slot)) {
                        None => prop_assert!(unknown(result.map(|_| ()))),
                        Some(m) if POLICY.requires_reencode(m.class, class) => {
                            // A re-encode stores the object anew, and the
                            // record with it.
                            result.expect("room to re-encode");
                            *m = Model::new(class, m.size);
                        }
                        Some(m) => {
                            result.expect("a label change");
                            m.class = class;
                        }
                    }
                }
                Step::Stamp { slot, version } => {
                    let result = t.stamp_replica_version(key(slot), version);
                    match model.get_mut(&key(slot)) {
                        None => prop_assert!(unknown(result)),
                        Some(m) => {
                            result.expect("an indexed object");
                            m.stamp = Some(version);
                        }
                    }
                }
                Step::Remove { slot } => {
                    let result = t.remove_object(key(slot));
                    match model.remove(&key(slot)) {
                        None => prop_assert!(unknown(result)),
                        Some(_) => result.expect("an indexed object"),
                    }
                }
            }

            for slot in 0..SLOTS {
                let stamp = model.get(&key(slot)).and_then(|m| m.stamp);
                prop_assert_eq!(t.replica_version(key(slot)), stamp);
            }
            let inventory: Vec<_> = model
                .iter()
                .map(|(key, m)| (*key, m.class, m.size, m.freq))
                .collect();
            prop_assert_eq!(t.inventory(), inventory);
        }
    }
}
