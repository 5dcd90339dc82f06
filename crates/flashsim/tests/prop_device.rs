//! Property tests for the flash device model: random operation sequences
//! keep accounting, state, and the time horizon consistent, and the run
//! table answers everything the per-chunk table does.

use bytes::Bytes;
use proptest::prelude::*;
use reo_flashsim::{ChunkHandle, DeviceConfig, DeviceId, FlashDevice, FlashError, StoredChunk};
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
    ) {
        let mut d = FlashDevice::new(DeviceId(0), config());
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

    /// One operation sequence drives two devices: `runs` through
    /// `write_run` / `rewrite_run` / `remove_run` / `note_referenced_run`,
    /// `singles` chunk by chunk (which never forms a run). Per-chunk
    /// writes, corruptions and removals land inside, at the front and at
    /// the back of runs; failures and spares flip them whole; later runs
    /// rebuild parts of them; the device is small enough to reject writes
    /// (a run it cannot take whole goes chunk by chunk on both twins).
    /// After every operation nothing a caller can ask tells the two apart.
    #[test]
    fn the_run_table_is_the_per_chunk_table(
        ops in proptest::collection::vec(arb_twin_op(), 1..80),
    ) {
        let mut runs = FlashDevice::new(DeviceId(0), config());
        let mut singles = runs.clone();
        let mut now = SimTime::ZERO;
        for op in ops {
            // Issue times trail the horizon some of the time.
            now += SimDuration::from_micros(150);
            match op {
                TwinOp::WriteRun { first, count, len, tail } => {
                    let len = twin_len(len);
                    let tail = tail.map(|(gap, len)| (ChunkHandle::new(first + count + gap), twin_len(len)));
                    let whole = (first..first + count).map(|handle| (ChunkHandle::new(handle), len));
                    let total = len * count + tail.map_or(ByteSize::ZERO, |(_, len)| len);
                    // Only a run the device takes whole goes as one, as its
                    // callers issue them; any other goes chunk by chunk on
                    // both twins.
                    let taken = runs.is_healthy() && total <= runs.available();
                    let mut one_by_one = Ok(now);
                    for (handle, len) in whole.chain(tail) {
                        let chunk = StoredChunk::synthetic(len);
                        one_by_one = singles.write_chunk(handle, chunk.clone(), now);
                        if !taken {
                            prop_assert_eq!(runs.write_chunk(handle, chunk, now), one_by_one.clone());
                        }
                        if one_by_one.is_err() {
                            break;
                        }
                    }
                    if taken {
                        let done = runs.write_run(ChunkHandle::new(first), count, len, tail, now);
                        prop_assert_eq!(Ok(done), one_by_one);
                    }
                }
                TwinOp::RewriteRun { first, count, idle_for, slack } => {
                    // Only what the caller of a rewrite run vouches for:
                    // whole size-only chunks on a device whose chunks are
                    // all intact.
                    let len = twin_len(0);
                    let held = |d: &FlashDevice| {
                        let handles = (first..first + count).map(ChunkHandle::new);
                        handles.take_while(|&h| d.holds_size_only(h, len)).count() as u64
                    };
                    let count = held(&runs);
                    if runs.all_chunks_intact() {
                        prop_assert!(singles.all_chunks_intact());
                        prop_assert_eq!(held(&singles), count);
                        let start = runs.busy_until().max(now) + SimDuration::from_nanos(idle_for);
                        let stride = runs.write_time(len) + SimDuration::from_nanos(slack);
                        let mut one_by_one = start;
                        for i in 0..count {
                            let chunk = StoredChunk::synthetic(len);
                            one_by_one = singles
                                .write_chunk(ChunkHandle::new(first + i), chunk, start + stride * i)
                                .expect("a rewrite in place");
                        }
                        let first = ChunkHandle::new(first);
                        prop_assert_eq!(runs.rewrite_run(first, count, len, start, stride), one_by_one);
                    }
                }
                TwinOp::RemoveRun { first, count } => {
                    runs.remove_run(ChunkHandle::new(first), count);
                    for handle in first..first + count {
                        singles.remove_chunk(ChunkHandle::new(handle));
                    }
                }
                TwinOp::NoteRun { first, count } => {
                    runs.note_referenced_run(ChunkHandle::new(first), count);
                    for handle in first..first + count {
                        singles.note_referenced(ChunkHandle::new(handle));
                    }
                }
                TwinOp::Write { handle, len, real } => {
                    let len = twin_len(len);
                    let chunk = if real {
                        StoredChunk::real(Bytes::from(vec![7; len.as_bytes() as usize]))
                    } else {
                        StoredChunk::synthetic(len)
                    };
                    let handle = ChunkHandle::new(handle);
                    prop_assert_eq!(
                        runs.write_chunk(handle, chunk.clone(), now),
                        singles.write_chunk(handle, chunk, now)
                    );
                }
                TwinOp::Read { handle } => {
                    let handle = ChunkHandle::new(handle);
                    prop_assert_eq!(runs.read_chunk(handle, now), singles.read_chunk(handle, now));
                }
                TwinOp::Remove { handle } => {
                    runs.remove_chunk(ChunkHandle::new(handle));
                    singles.remove_chunk(ChunkHandle::new(handle));
                }
                TwinOp::Corrupt { handle } => {
                    runs.corrupt_chunk(ChunkHandle::new(handle));
                    singles.corrupt_chunk(ChunkHandle::new(handle));
                }
                TwinOp::Fail => {
                    runs.fail();
                    singles.fail();
                }
                TwinOp::Spare => {
                    runs.replace_with_spare();
                    singles.replace_with_spare();
                }
            }

            prop_assert_eq!(runs.stats(), singles.stats());
            prop_assert_eq!(runs.busy_until(), singles.busy_until());
            prop_assert_eq!(runs.used(), singles.used());
            prop_assert_eq!(runs.chunk_handles(), singles.chunk_handles());
            prop_assert_eq!(runs.intact_handles(), singles.intact_handles());
            prop_assert_eq!(runs.all_chunks_intact(), singles.all_chunks_intact());
            prop_assert_eq!(runs.chunk_count(), singles.chunk_count());
            for handle in (0..TWIN_HANDLES + 16).map(ChunkHandle::new) {
                prop_assert_eq!(runs.chunk_is_intact(handle), singles.chunk_is_intact(handle));
                prop_assert_eq!(
                    runs.clone().read_chunk(handle, now),
                    singles.clone().read_chunk(handle, now),
                    "{}", handle
                );
            }
            // The ranges are the handles, however they are cut.
            for d in [&runs, &singles] {
                let ranges = d.chunk_runs();
                prop_assert!(ranges.windows(2).all(|w| w[0].0.as_u64() + w[0].1 <= w[1].0.as_u64()));
                let expanded: Vec<ChunkHandle> = ranges
                    .iter()
                    .flat_map(|&(first, count)| first.as_u64()..first.as_u64() + count)
                    .map(ChunkHandle::new)
                    .collect();
                prop_assert_eq!(expanded, d.chunk_handles());
            }
        }
    }
}

/// Handles the twin test's operations name.
const TWIN_HANDLES: u64 = 48;

/// Mostly one chunk length, so consecutive writes form runs; sometimes an
/// odd one, which does not join them.
fn twin_len(code: u8) -> ByteSize {
    ByteSize::from_kib(if code < 3 { 16 } else { 5 })
}

#[derive(Clone, Debug)]
enum TwinOp {
    /// `count` chunks of one length from `first` on, then at most one more:
    /// `(gap, len)`, `gap` handles past the run's end.
    WriteRun {
        first: u64,
        count: u64,
        len: u8,
        tail: Option<(u64, u8)>,
    },
    RewriteRun {
        first: u64,
        count: u64,
        idle_for: u64,
        slack: u64,
    },
    RemoveRun {
        first: u64,
        count: u64,
    },
    NoteRun {
        first: u64,
        count: u64,
    },
    Write {
        handle: u64,
        len: u8,
        real: bool,
    },
    Read {
        handle: u64,
    },
    Remove {
        handle: u64,
    },
    Corrupt {
        handle: u64,
    },
    Fail,
    Spare,
}

fn arb_twin_op() -> impl Strategy<Value = TwinOp> {
    let handle = || 0..TWIN_HANDLES;
    // Empty, tail only, whole chunks only, and a tail that continues the
    // run (no gap, the run's length) or does not.
    let write_run = || {
        (handle(), 0u64..16, 0u8..4, 0u8..3, 0u64..3, 0u8..4).prop_map(
            |(first, count, len, tailed, gap, tail_len)| TwinOp::WriteRun {
                first,
                count: count.saturating_sub(2),
                len,
                tail: (tailed > 0).then_some((gap / 2, tail_len)),
            },
        )
    };
    // Trimmed to the whole size-only chunks it finds; from the instant the
    // device falls idle or later, at its own pace or slower.
    let rewrite_run = || {
        (handle(), 0u64..12, 0u64..2, 0u64..1000).prop_map(|(first, count, idle, slack)| {
            TwinOp::RewriteRun {
                first,
                count,
                idle_for: idle * 12_345,
                slack,
            }
        })
    };
    prop_oneof![
        write_run(),
        write_run(),
        write_run(),
        rewrite_run(),
        rewrite_run(),
        (handle(), 0u64..16).prop_map(|(first, count)| TwinOp::RemoveRun { first, count }),
        (handle(), 0u64..16).prop_map(|(first, count)| TwinOp::NoteRun { first, count }),
        (handle(), 0u8..4, any::<bool>()).prop_map(|(handle, len, real)| TwinOp::Write {
            handle,
            len,
            real
        }),
        handle().prop_map(|handle| TwinOp::Read { handle }),
        handle().prop_map(|handle| TwinOp::Remove { handle }),
        handle().prop_map(|handle| TwinOp::Remove { handle }),
        handle().prop_map(|handle| TwinOp::Corrupt { handle }),
        handle().prop_map(|handle| TwinOp::Corrupt { handle }),
        Just(TwinOp::Fail),
        Just(TwinOp::Spare),
        Just(TwinOp::Spare),
    ]
}
