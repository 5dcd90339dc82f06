//! The target keeps an object's attributes as plain fields and assembles
//! the attribute set on request. This test keeps a real [`AttributeSet`]
//! per object beside it — created, touched, relabelled and replaced the
//! way the target's index once did — and holds `attributes`,
//! `replica_version` and `inventory` to it after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use reo_flashsim::{DeviceConfig, FlashArray};
use reo_osd::attr::{AttributeId, AttributePage, AttributeSet, AttributeValue};
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
use reo_osd_target::{OsdTarget, ProtectionPolicy, TargetError};
use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration, SimTime};
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

/// What the index held of one object when its attributes were a set.
struct Model {
    size: ByteSize,
    class: ObjectClass,
    attrs: AttributeSet,
}

impl Model {
    fn new(size: ByteSize, class: ObjectClass, created_at: SimTime) -> Self {
        let mut attrs = AttributeSet::new();
        attrs.set(AttributeId::LOGICAL_LENGTH, size.as_bytes());
        attrs.set(AttributeId::CREATED_AT, created_at.as_nanos());
        attrs.set(AttributeId::ACCESSED_AT, created_at.as_nanos());
        attrs.set(AttributeId::ACCESS_FREQ, 0u64);
        attrs.set_class(class);
        Model { size, class, attrs }
    }

    fn number(&self, id: AttributeId) -> Option<u64> {
        self.attrs.get(id).and_then(AttributeValue::as_u64)
    }

    fn freq(&self) -> u64 {
        self.number(AttributeId::ACCESS_FREQ).unwrap_or(0)
    }

    fn touch(&mut self, at: SimTime) {
        self.attrs.set(AttributeId::ACCESS_FREQ, self.freq() + 1);
        self.attrs.set(AttributeId::ACCESSED_AT, at.as_nanos());
    }
}

/// Ids with a field behind them, the two read off the layout and the
/// class, and two with nothing behind them.
const IDS: [AttributeId; 8] = [
    AttributeId::CREATED_AT,
    AttributeId::ACCESSED_AT,
    AttributeId::ACCESS_FREQ,
    AttributeId::REPLICA_VERSION,
    AttributeId::LOGICAL_LENGTH,
    AttributeId::CLASS_ID,
    AttributeId::DIRTY,
    AttributeId {
        page: AttributePage::UserInfo,
        number: 0x99,
    },
];

fn value(code: u8, n: u64) -> AttributeValue {
    match code {
        0 => AttributeValue::Text(format!("v{n}")),
        1 => AttributeValue::Bytes(vec![n as u8; 3]),
        _ => AttributeValue::U64(n),
    }
}

#[derive(Clone, Debug)]
enum Step {
    Create {
        slot: u64,
        kib: u64,
        class: usize,
    },
    Read {
        slot: u64,
    },
    SetClass {
        slot: u64,
        class: usize,
    },
    SetAttribute {
        slot: u64,
        id: usize,
        code: u8,
        n: u64,
    },
    Stamp {
        slot: u64,
        version: u64,
    },
    Remove {
        slot: u64,
    },
}

const SLOTS: u64 = 4;

fn arb_step() -> impl Strategy<Value = Step> {
    let slot = || 0..SLOTS;
    let class = || 0..ObjectClass::ALL.len();
    let read = || slot().prop_map(|slot| Step::Read { slot });
    // Label-only and re-encoding changes both: metadata and dirty share a
    // scheme, every other pair does not.
    let set_class = || (slot(), class()).prop_map(|(slot, class)| Step::SetClass { slot, class });
    let set_attribute = || {
        (slot(), 0..IDS.len(), 0u8..5, 0u64..1000)
            .prop_map(|(slot, id, code, n)| Step::SetAttribute { slot, id, code, n })
    };
    prop_oneof![
        (slot(), 1u64..40, class()).prop_map(|(slot, kib, class)| Step::Create {
            slot,
            kib,
            class
        }),
        (slot(), 1u64..40, class()).prop_map(|(slot, kib, class)| Step::Create {
            slot,
            kib,
            class
        }),
        read(),
        read(),
        read(),
        set_class(),
        set_class(),
        set_attribute(),
        set_attribute(),
        set_attribute(),
        (slot(), 0u64..1000).prop_map(|(slot, version)| Step::Stamp { slot, version }),
        slot().prop_map(|slot| Step::Remove { slot }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_fields_are_the_attribute_set(
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
                        Ok(done) => {
                            prop_assert!(!model.contains_key(&key(slot)));
                            model.insert(key(slot), Model::new(size, class, done));
                        }
                        Err(TargetError::AlreadyExists(_)) => {
                            prop_assert!(model.contains_key(&key(slot)))
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("create: {e}"))),
                    }
                }
                Step::Read { slot } => match (t.read_object(key(slot)), model.get_mut(&key(slot))) {
                    (Ok(outcome), Some(m)) => m.touch(outcome.completed_at),
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
                            // A re-encode stores the object anew: a fresh
                            // record, created when the store completed.
                            let done = result.expect("room to re-encode");
                            *m = Model::new(m.size, class, done);
                        }
                        Some(m) => {
                            result.expect("a label change");
                            m.class = class;
                            m.attrs.set_class(class);
                        }
                    }
                }
                Step::SetAttribute { slot, id, code, n } => {
                    let result = t.set_attribute(key(slot), IDS[id], value(code, n));
                    match model.get_mut(&key(slot)) {
                        None => prop_assert!(unknown(result)),
                        Some(m) => {
                            result.expect("an indexed object");
                            m.attrs.set(IDS[id], value(code, n));
                        }
                    }
                }
                Step::Stamp { slot, version } => {
                    let result = t.stamp_replica_version(key(slot), version);
                    match model.get_mut(&key(slot)) {
                        None => prop_assert!(unknown(result)),
                        Some(m) => {
                            result.expect("an indexed object");
                            m.attrs.set(AttributeId::REPLICA_VERSION, version);
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
                let m = model.get(&key(slot));
                prop_assert_eq!(t.attributes(key(slot)), m.map(|m| m.attrs.clone()));
                let stamp = m.and_then(|m| m.number(AttributeId::REPLICA_VERSION));
                prop_assert_eq!(t.replica_version(key(slot)), stamp);
            }
            let inventory: Vec<_> = model
                .iter()
                .map(|(key, m)| (*key, m.class, m.size, m.freq()))
                .collect();
            prop_assert_eq!(t.inventory(), inventory);
        }
    }
}
