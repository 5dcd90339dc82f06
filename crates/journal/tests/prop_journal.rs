//! Property tests: journal replay must be prefix-closed (any torn byte
//! prefix of a valid journal replays to a record prefix) and idempotent
//! (replaying a torn prefix and then re-replaying the full journal
//! converges to the same final state as replaying the full journal alone),
//! and recovery must be idempotent (recovering a recovered journal changes
//! nothing).

use std::collections::BTreeMap;

use proptest::prelude::*;
use reo_journal::{Decoded, Journal, JournalRecord};
use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};

fn key(i: u64) -> ObjectKey {
    ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x2_0000 + i))
}

/// A generatable stand-in for one journal record.
#[derive(Clone, Debug)]
enum Op {
    Create {
        slot: u64,
        class: u8,
        meta: Vec<u8>,
    },
    SetClass {
        slot: u64,
        class: u8,
        meta: Vec<u8>,
    },
    DirtyWrite {
        slot: u64,
        offset: u64,
        meta: Vec<u8>,
    },
    Remove {
        slot: u64,
    },
    Cursor {
        slot: Option<u64>,
    },
}

fn arb_meta() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..24)
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 0u8..4, arb_meta()).prop_map(|(slot, class, meta)| Op::Create {
            slot,
            class,
            meta
        }),
        (0u64..8, 0u8..4, arb_meta()).prop_map(|(slot, class, meta)| Op::SetClass {
            slot,
            class,
            meta
        }),
        (0u64..8, 0u64..1 << 20, arb_meta()).prop_map(|(slot, offset, meta)| Op::DirtyWrite {
            slot,
            offset,
            meta
        }),
        (0u64..8).prop_map(|slot| Op::Remove { slot }),
        (0u64..9).prop_map(|slot| Op::Cursor {
            slot: (slot < 8).then_some(slot),
        }),
    ]
}

fn record_of(op: &Op) -> JournalRecord {
    match op {
        Op::Create { slot, class, meta } => JournalRecord::Create {
            key: key(*slot),
            class: ObjectClass::from_id(*class).unwrap(),
            meta: meta.clone(),
        },
        Op::SetClass { slot, class, meta } => JournalRecord::SetClass {
            key: key(*slot),
            class: ObjectClass::from_id(*class).unwrap(),
            meta: meta.clone(),
        },
        Op::DirtyWrite { slot, offset, meta } => JournalRecord::DirtyWrite {
            key: key(*slot),
            offset: *offset,
            length: 512,
            meta: meta.clone(),
        },
        Op::Remove { slot } => JournalRecord::Remove { key: key(*slot) },
        Op::Cursor { slot } => JournalRecord::ScrubCursor {
            cursor: slot.map(key),
        },
    }
}

/// The reference state machine replay folds records into: latest
/// (class, meta) per live key, plus the scrub cursor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Model {
    objects: BTreeMap<(u64, u64), (u8, Vec<u8>)>,
    cursor: Option<(u64, u64)>,
}

impl Model {
    fn apply(&mut self, rec: &JournalRecord) {
        let raw = |k: ObjectKey| (k.pid().as_u64(), k.oid().as_u64());
        match rec {
            JournalRecord::Create { key, class, meta }
            | JournalRecord::SetClass { key, class, meta } => {
                self.objects.insert(raw(*key), (class.id(), meta.clone()));
            }
            JournalRecord::DirtyWrite { key, meta, .. } => {
                if let Some(entry) = self.objects.get_mut(&raw(*key)) {
                    entry.1 = meta.clone();
                }
            }
            JournalRecord::Remove { key } => {
                self.objects.remove(&raw(*key));
            }
            JournalRecord::ScrubCursor { cursor } => {
                self.cursor = cursor.map(raw);
            }
        }
    }

    fn fold(records: &[JournalRecord]) -> Model {
        let mut model = Model::default();
        for rec in records {
            model.apply(rec);
        }
        model
    }
}

/// What recovering a clone of `journal` reads: the bytes of torn tail cut
/// off, the records, and where numbering resumes.
fn recover_clone(journal: &Journal) -> (usize, Vec<JournalRecord>, u64) {
    let mut restarted = journal.clone();
    let out = restarted.recover().unwrap();
    let torn = out.torn_bytes;
    let records = out.records.map(Decoded::into_record).collect();
    (torn, records, restarted.next_seq())
}

/// `journal` with its log torn down to its first `keep` bytes.
fn torn_copy(journal: &Journal, keep: usize) -> Journal {
    let mut torn = journal.clone();
    let tear = journal.media().log_len().saturating_sub(keep);
    torn.media_mut().tear_log_tail(tear);
    torn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tearing the journal at ANY byte offset yields a replayed record
    /// list that is an exact prefix of the full journal's records, and
    /// re-replaying the full journal over the torn-prefix state converges
    /// to the same final state as replaying the full journal alone.
    #[test]
    fn replay_is_prefix_closed_and_idempotent(
        ops in proptest::collection::vec(arb_op(), 1..40),
        fsync in 1u32..6,
        cut in 0usize..4096,
    ) {
        let mut journal = Journal::format(fsync);
        let records: Vec<JournalRecord> = ops.iter().map(record_of).collect();
        for rec in &records {
            journal.append(rec);
        }
        journal.flush();

        let (torn, full, _) = recover_clone(&journal);
        prop_assert_eq!(torn, 0);
        prop_assert_eq!(&full, &records);

        let keep = cut % (journal.media().log_len() + 1);
        let mut torn_journal = torn_copy(&journal, keep);
        let recovered = torn_journal.recover().unwrap();
        let torn_bytes = recovered.torn_bytes;
        let torn_records: Vec<JournalRecord> =
            recovered.records.map(Decoded::into_record).collect();

        // Prefix-closed: the torn replay is an exact record prefix.
        prop_assert!(torn_records.len() <= records.len());
        prop_assert_eq!(&torn_records[..], &records[..torn_records.len()]);
        // Recovery cut exactly the tail past the last intact record.
        prop_assert_eq!(torn_journal.media().log_len() + torn_bytes, keep);

        // The recovered journal replays clean.
        let (torn, clean, _) = recover_clone(&torn_journal);
        prop_assert_eq!(torn, 0);
        prop_assert_eq!(clean.len(), torn_records.len());

        // Idempotent convergence: prefix state + full replay == full replay.
        let full_state = Model::fold(&records);
        let mut converged = Model::fold(&torn_records);
        for rec in &records {
            converged.apply(rec);
        }
        prop_assert_eq!(converged, full_state);
    }

    /// Recovery is idempotent: recovering a recovered journal, torn at
    /// any byte or not, cuts nothing more, hands out the same records and
    /// resumes numbering at the same sequence number.
    #[test]
    fn recovery_is_idempotent(
        ops in proptest::collection::vec(arb_op(), 1..20),
        cut in 0usize..2048,
    ) {
        let mut journal = Journal::format(2);
        for op in &ops {
            journal.append(&record_of(op));
        }
        journal.flush();
        let keep = cut % (journal.media().log_len() + 1);
        let mut once = torn_copy(&journal, keep);
        let first: Vec<JournalRecord> =
            once.recover().unwrap().records.map(Decoded::into_record).collect();
        let next_seq = once.next_seq();
        let (torn, again, resumed) = recover_clone(&once);
        prop_assert_eq!(torn, 0);
        prop_assert_eq!(again, first);
        prop_assert_eq!(resumed, next_seq);
    }
}
