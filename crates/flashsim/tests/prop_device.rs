//! Property tests for the flash device model: random operation sequences
//! keep accounting, state, and the time horizon consistent.

use proptest::prelude::*;
use reo_flashsim::{
    ChunkHandle, DeviceConfig, DeviceId, FlashDevice, FlashError, StoredChunk, WriteAmplification,
};
use reo_sim::{ByteSize, ServiceModel, SimDuration, SimTime};

fn config() -> DeviceConfig {
    DeviceConfig {
        capacity: ByteSize::from_kib(1024),
        read: ServiceModel::new(SimDuration::from_micros(90), 512 * 1024 * 1024),
        write: ServiceModel::new(SimDuration::from_micros(200), 512 * 1024 * 1024),
        erase_block: ByteSize::from_kib(64),
        pe_cycle_limit: 1000,
    }
}

#[derive(Clone, Debug)]
enum Op {
    Write { handle: u64, kib: u64 },
    Read { handle: u64 },
    Remove { handle: u64 },
    Corrupt { handle: u64 },
    NoteReferenced { handle: u64 },
    Fail,
    Spare,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..12, 1u64..128).prop_map(|(handle, kib)| Op::Write { handle, kib }),
        (0u64..12).prop_map(|handle| Op::Read { handle }),
        (0u64..12).prop_map(|handle| Op::Remove { handle }),
        (0u64..12).prop_map(|handle| Op::Corrupt { handle }),
        (0u64..12).prop_map(|handle| Op::NoteReferenced { handle }),
        Just(Op::Fail),
        Just(Op::Spare),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn device_invariants_hold_under_chaos(
        ops in proptest::collection::vec(arb_op(), 1..100),
        with_wa: bool,
    ) {
        let mut d = FlashDevice::new(DeviceId(0), config());
        if with_wa {
            d.set_write_amplification(Some(WriteAmplification::new(0.07)));
        }
        // Shadow model: what should be intact, and its size.
        let mut shadow: std::collections::HashMap<u64, (u64, bool)> =
            std::collections::HashMap::new();
        // Every handle placed and not since removed — what an owner's
        // metadata would still reference, spare or no spare.
        let mut placed = std::collections::BTreeSet::new();
        let mut now = SimTime::ZERO;

        for op in ops {
            match op {
                Op::Write { handle, kib } => {
                    let chunk = StoredChunk::synthetic(ByteSize::from_kib(kib));
                    match d.write_chunk(ChunkHandle::new(handle), chunk, now) {
                        Ok(done) => {
                            prop_assert!(done > now, "writes take time");
                            now = done;
                            shadow.insert(handle, (kib, true));
                            placed.insert(handle);
                        }
                        Err(FlashError::DeviceFull { .. }) => {}
                        Err(FlashError::DeviceFailed(_)) => {
                            prop_assert!(!d.is_healthy());
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                    }
                }
                Op::Read { handle } => {
                    match d.read_chunk(ChunkHandle::new(handle), now) {
                        Ok((chunk, done)) => {
                            prop_assert!(d.is_healthy());
                            let (kib, intact) = shadow[&handle];
                            prop_assert!(intact, "read of corrupted chunk succeeded");
                            prop_assert_eq!(chunk.len(), ByteSize::from_kib(kib));
                            now = done;
                        }
                        Err(FlashError::DeviceFailed(_)) => prop_assert!(!d.is_healthy()),
                        Err(FlashError::UnknownChunk(_)) => {
                            prop_assert!(!shadow.contains_key(&handle));
                        }
                        Err(FlashError::Corrupted(_)) => {
                            prop_assert!(!shadow[&handle].1);
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("read: {e}"))),
                    }
                }
                Op::Remove { handle } => {
                    d.remove_chunk(ChunkHandle::new(handle));
                    shadow.remove(&handle);
                    placed.remove(&handle);
                }
                Op::Corrupt { handle } => {
                    d.corrupt_chunk(ChunkHandle::new(handle));
                    if let Some(e) = shadow.get_mut(&handle) {
                        e.1 = false;
                    }
                }
                Op::NoteReferenced { handle } => {
                    // Changes nothing a reader or the accounting can see.
                    d.note_referenced(ChunkHandle::new(handle));
                    placed.insert(handle);
                }
                Op::Fail => {
                    d.fail();
                    for e in shadow.values_mut() {
                        e.1 = false;
                    }
                }
                Op::Spare => {
                    d.replace_with_spare();
                    shadow.clear();
                }
            }

            // Accounting invariants after every step.
            let expected_used: u64 = shadow.values().map(|(kib, _)| kib * 1024).sum();
            prop_assert_eq!(d.used().as_bytes(), expected_used, "space drifted");
            prop_assert!(d.used() <= d.config().capacity);
            prop_assert_eq!(d.chunk_count(), shadow.len());
            let mut handles: Vec<u64> = shadow.keys().copied().collect();
            handles.sort_unstable();
            let tracked: Vec<u64> = d.chunk_handles().iter().map(|h| h.as_u64()).collect();
            prop_assert_eq!(tracked, handles);
            // The summary answers what probing every placed handle would.
            prop_assert_eq!(
                d.all_chunks_intact(),
                d.is_healthy() && placed.iter().all(|&h| d.chunk_is_intact(ChunkHandle::new(h))),
                "damage summary drifted"
            );
            prop_assert!(d.wear_fraction() >= 0.0);
            prop_assert!(d.busy_until() >= SimTime::ZERO);
        }
    }
}
