//! The rebuild queue pops what a stable sort of everything pending puts
//! first: by class priority (every class counts as 0 when unprioritized),
//! then by enqueue order. This test keeps that list beside the engine
//! through random interleavings of `enqueue`, `pop` and `clear` in both
//! modes, and after every step holds the per-class pending counts, the
//! three ledger totals and `verify_ledger` to it.

use proptest::prelude::*;
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
use reo_osd_target::RecoveryEngine;

#[derive(Clone, Debug)]
enum Step {
    Enqueue { class: usize },
    Pop,
    Clear,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let enqueue = || (0..ObjectClass::ALL.len()).prop_map(|class| Step::Enqueue { class });
    prop_oneof![
        enqueue(),
        enqueue(),
        enqueue(),
        Just(Step::Pop),
        Just(Step::Pop),
        Just(Step::Clear),
    ]
}

fn key(i: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000 + i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_queue_pops_in_class_then_enqueue_order(
        prioritized: bool,
        steps in proptest::collection::vec(arb_step(), 1..200),
    ) {
        let mut engine = if prioritized {
            RecoveryEngine::new()
        } else {
            RecoveryEngine::new_unprioritized()
        };
        // Pending items as (order class, enqueue index, key, class).
        let mut pending: Vec<(u8, u64, ObjectKey, ObjectClass)> = Vec::new();
        let (mut enqueued, mut completed, mut cancelled) = (0u64, 0u64, 0u64);
        for step in steps {
            match step {
                Step::Enqueue { class } => {
                    let class = ObjectClass::ALL[class];
                    let order = if prioritized { class.recovery_priority() } else { 0 };
                    engine.enqueue(key(enqueued), class);
                    pending.push((order, enqueued, key(enqueued), class));
                    enqueued += 1;
                }
                Step::Pop => {
                    pending.sort_by_key(|&(order, index, ..)| (order, index));
                    let expected = (!pending.is_empty()).then(|| pending.remove(0));
                    let popped = engine.pop().map(|item| (item.key, item.class));
                    prop_assert_eq!(popped, expected.map(|(_, _, key, class)| (key, class)));
                    completed += u64::from(popped.is_some());
                }
                Step::Clear => {
                    cancelled += pending.len() as u64;
                    pending.clear();
                    engine.clear();
                }
            }

            prop_assert_eq!(engine.pending(), pending.len());
            prop_assert_eq!(engine.is_idle(), pending.is_empty());
            for class in ObjectClass::ALL {
                let of_class = pending.iter().filter(|p| p.3 == class).count();
                prop_assert_eq!(engine.pending_of(class), of_class);
            }
            prop_assert_eq!(engine.enqueued_total(), enqueued);
            prop_assert_eq!(engine.completed_total(), completed);
            prop_assert_eq!(engine.cancelled_total(), cancelled);
            prop_assert!(engine.verify_ledger().is_ok());
        }
    }
}
