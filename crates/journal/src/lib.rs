#![warn(missing_docs)]
//! Crash-consistent metadata journaling for the Reo OSD target.
//!
//! The paper keeps Reo's mapping metadata in replicated reserved objects
//! "similar to how Linux Ext4 handles the superblocks" (§IV) so that the
//! cache survives ungraceful shutdowns. This crate reproduces that
//! durability contract for the simulation: a checksummed, sequence-numbered
//! write-ahead record log plus periodic checkpoints of the OSD target's
//! durable state, with dual-superblock pointer flips so that a crash in the
//! middle of a checkpoint can never leave the journal without a valid root.
//!
//! The model separates *durable media* ([`JournalMedia`] — what survives a
//! power loss) from *volatile state* (the staging buffer of appended but
//! not yet flushed records, which a crash destroys). A crash may
//! additionally *tear* the tail of the flushed log, emulating a partial
//! sector write; replay detects the torn record through its CRC and stops
//! at the last intact prefix.
//!
//! # Record flow
//!
//! ```
//! use reo_journal::{Journal, JournalRecord};
//! use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
//!
//! let mut journal = Journal::format(4);
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x2_0000));
//! journal.append(&JournalRecord::Create { key, class: ObjectClass::Dirty, meta: vec![1, 2] });
//! journal.flush(); // the durability point: staged records reach the media
//!
//! // A restart reads the media back (here over a copy of them).
//! let mut restarted = journal.clone();
//! let recovered = restarted.recover()?;
//! assert_eq!(recovered.torn_bytes, 0);
//! assert_eq!(recovered.records.count(), 1);
//! # Ok::<(), reo_journal::JournalError>(())
//! ```

use std::fmt;

use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};

/// Magic number leading every log record header (`"RJNL"`).
const RECORD_MAGIC: u32 = 0x524A_4E4C;

/// Size of an encoded record header: magic, sequence, payload length, CRC.
const HEADER_LEN: usize = 4 + 8 + 4 + 4;

/// Size of an encoded superblock including its trailing CRC.
const SUPERBLOCK_LEN: usize = 8 + 1 + 8 + 4 + 8 + 4;

/// Largest payload `replay` will accept, guarding against parsing garbage
/// lengths out of a torn header.
const MAX_PAYLOAD: usize = 1 << 24;

/// Slice-by-8 lookup tables for the IEEE polynomial: `CRC_TABLES[0]` is
/// the classic byte-at-a-time table, and `CRC_TABLES[t][i]` is the CRC
/// state after byte `i` followed by `t` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Initial (and final XOR) value of the CRC-32 register.
const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into the raw CRC register `c`, eight bytes per step.
/// Streaming: `crc32_update(crc32_update(c, a), b)` equals
/// `crc32_update(c, a ‖ b)`.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// IEEE CRC-32 over `bytes` (the checksum used by record headers,
/// superblocks, and checkpoint images).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(CRC_INIT, bytes) ^ CRC_INIT
}

/// The checksum a record header carries: CRC-32 over `seq ‖ len ‖
/// payload`, where `framed` is one whole encoded record (header and
/// payload) — the magic and the CRC field itself are skipped.
fn record_crc(framed: &[u8]) -> u32 {
    let c = crc32_update(CRC_INIT, &framed[4..16]);
    crc32_update(c, &framed[HEADER_LEN..]) ^ CRC_INIT
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_key(out: &mut Vec<u8>, key: ObjectKey) {
    put_u64(out, key.pid().as_u64());
    put_u64(out, key.oid().as_u64());
}

fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)
        .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
}

fn get_u64(bytes: &[u8], at: usize) -> Option<u64> {
    bytes
        .get(at..at + 8)
        .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
}

/// Errors surfaced by journal replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// Neither superblock passed its checksum, or the checkpoint both of
    /// them point at is damaged — the journal root is unrecoverable.
    NoValidSuperblock,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::NoValidSuperblock => {
                write!(f, "no superblock with a valid checksum and checkpoint")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// One durable mutation of the OSD target's metadata.
///
/// Records carry everything replay needs to reconstruct the object map:
/// the object key, its semantic class, and an opaque `meta` blob encoding
/// the stripe-layer layout (owner, stripes, chunk placement) produced by
/// the stripe manager's metadata exporter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// An object was created and its stripes written.
    Create {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// The semantic class the object was stored under.
        class: ObjectClass,
        /// Stripe-layer layout metadata (opaque to the journal).
        meta: Vec<u8>,
    },
    /// An object changed class (and was possibly re-encoded onto new
    /// stripes), or had its stripes rewritten by a rebuild.
    SetClass {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// The class after the change.
        class: ObjectClass,
        /// The layout metadata after the change.
        meta: Vec<u8>,
    },
    /// A range of a dirty object was overwritten in place. The record is
    /// the acknowledgement point for dirty writes: it must be flushed
    /// before the write is acked.
    DirtyWrite {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// Byte offset of the overwrite.
        offset: u64,
        /// Length of the overwrite in bytes.
        length: u64,
        /// The layout metadata after the overwrite.
        meta: Vec<u8>,
    },
    /// An object was logically removed. Logged *before* its chunks are
    /// freed so a crash in between leaves orphan chunks (garbage
    /// collected on recovery) rather than metadata pointing at nothing.
    Remove {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
    },
    /// The background scrubber advanced its cursor; `None` marks a
    /// completed pass.
    ScrubCursor {
        /// Last key scrubbed, or `None` when a pass completed.
        cursor: Option<ObjectKey>,
    },
}

impl JournalRecord {
    /// The key the record mutates, if any.
    pub fn key(&self) -> Option<ObjectKey> {
        match self {
            JournalRecord::Create { key, .. }
            | JournalRecord::SetClass { key, .. }
            | JournalRecord::DirtyWrite { key, .. }
            | JournalRecord::Remove { key } => Some(*key),
            JournalRecord::ScrubCursor { .. } => None,
        }
    }

    /// Appends the record's payload encoding to `out`.
    fn encode_payload_into(&self, out: &mut Vec<u8>) {
        let (head, meta) = match *self {
            JournalRecord::Create {
                key,
                class,
                ref meta,
            } => (LayoutRecord::Create { key, class }, meta),
            JournalRecord::SetClass {
                key,
                class,
                ref meta,
            } => (LayoutRecord::SetClass { key, class }, meta),
            JournalRecord::DirtyWrite {
                key,
                offset,
                length,
                ref meta,
            } => (
                LayoutRecord::DirtyWrite {
                    key,
                    offset,
                    length,
                },
                meta,
            ),
            JournalRecord::Remove { key } => {
                out.push(4);
                put_key(out, key);
                return;
            }
            JournalRecord::ScrubCursor { cursor } => {
                out.push(5);
                match cursor {
                    Some(key) => {
                        out.push(1);
                        put_key(out, key);
                    }
                    None => out.push(0),
                }
                return;
            }
        };
        head.encode_payload_into(out, |out| out.extend_from_slice(meta));
    }
}

/// A record decoded over the bytes it lies in ([`Journal::recover`]).
/// Scanning the log this way copies nothing; [`Decoded::into_record`]
/// takes the owned record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A layout-carrying record's head, with its `meta` blob borrowed.
    Layout(LayoutRecord, &'a [u8]),
    /// A [`JournalRecord::Remove`] of the key.
    Remove(ObjectKey),
    /// A [`JournalRecord::ScrubCursor`] at the key.
    ScrubCursor(Option<ObjectKey>),
}

impl<'a> Decoded<'a> {
    /// Decodes one payload: `None` unless its tag is known and its length
    /// is exactly what the tag and the blob's length field say.
    fn parse(bytes: &'a [u8]) -> Option<Self> {
        fn get_key(bytes: &[u8], at: usize) -> Option<ObjectKey> {
            let pid = get_u64(bytes, at)?;
            let oid = get_u64(bytes, at + 8)?;
            Some(ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid)))
        }
        // The blob whose length field is at `at`, ending the payload.
        let meta_at = |at: usize| {
            let len = get_u32(bytes, at)? as usize;
            bytes.get(at + 4..).filter(|meta| meta.len() == len)
        };
        let tag = *bytes.first()?;
        match tag {
            1 | 2 => {
                let key = get_key(bytes, 1)?;
                let class = ObjectClass::from_id(*bytes.get(17)?)?;
                let head = if tag == 1 {
                    LayoutRecord::Create { key, class }
                } else {
                    LayoutRecord::SetClass { key, class }
                };
                Some(Decoded::Layout(head, meta_at(18)?))
            }
            3 => {
                let head = LayoutRecord::DirtyWrite {
                    key: get_key(bytes, 1)?,
                    offset: get_u64(bytes, 17)?,
                    length: get_u64(bytes, 25)?,
                };
                Some(Decoded::Layout(head, meta_at(33)?))
            }
            4 => {
                if bytes.len() != 17 {
                    return None;
                }
                Some(Decoded::Remove(get_key(bytes, 1)?))
            }
            5 => {
                let present = *bytes.get(1)?;
                let cursor = match present {
                    0 if bytes.len() == 2 => None,
                    1 if bytes.len() == 18 => Some(get_key(bytes, 2)?),
                    _ => return None,
                };
                Some(Decoded::ScrubCursor(cursor))
            }
            _ => None,
        }
    }

    /// The owned record.
    pub fn into_record(self) -> JournalRecord {
        let (head, meta) = match self {
            Decoded::Layout(head, meta) => (head, meta.to_vec()),
            Decoded::Remove(key) => return JournalRecord::Remove { key },
            Decoded::ScrubCursor(cursor) => return JournalRecord::ScrubCursor { cursor },
        };
        match head {
            LayoutRecord::Create { key, class } => JournalRecord::Create { key, class, meta },
            LayoutRecord::SetClass { key, class } => JournalRecord::SetClass { key, class, meta },
            LayoutRecord::DirtyWrite {
                key,
                offset,
                length,
            } => JournalRecord::DirtyWrite {
                key,
                offset,
                length,
                meta,
            },
        }
    }
}

/// The fixed fields of a layout-carrying record ([`JournalRecord::Create`],
/// [`JournalRecord::SetClass`], [`JournalRecord::DirtyWrite`]) without the
/// `meta` blob: [`Journal::append_layout`] has the caller write the blob
/// straight into the journal's staging buffer instead of handing over a
/// `Vec` to copy from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutRecord {
    /// Head of a [`JournalRecord::Create`].
    Create {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// The semantic class the object was stored under.
        class: ObjectClass,
    },
    /// Head of a [`JournalRecord::SetClass`].
    SetClass {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// The class after the change.
        class: ObjectClass,
    },
    /// Head of a [`JournalRecord::DirtyWrite`].
    DirtyWrite {
        /// The object's `(PID, OID)` address.
        key: ObjectKey,
        /// Byte offset of the overwrite.
        offset: u64,
        /// Length of the overwrite in bytes.
        length: u64,
    },
}

impl LayoutRecord {
    /// The key of the object whose layout the record carries.
    pub fn key(&self) -> ObjectKey {
        match *self {
            LayoutRecord::Create { key, .. }
            | LayoutRecord::SetClass { key, .. }
            | LayoutRecord::DirtyWrite { key, .. } => key,
        }
    }

    /// Appends the payload encoding to `out`: the fixed fields, then the
    /// blob `write_meta` appends, with its length back-patched in front.
    fn encode_payload_into(self, out: &mut Vec<u8>, write_meta: impl FnOnce(&mut Vec<u8>)) {
        out.push(match self {
            LayoutRecord::Create { .. } => 1,
            LayoutRecord::SetClass { .. } => 2,
            LayoutRecord::DirtyWrite { .. } => 3,
        });
        put_key(out, self.key());
        match self {
            LayoutRecord::Create { class, .. } | LayoutRecord::SetClass { class, .. } => {
                out.push(class.id());
            }
            LayoutRecord::DirtyWrite { offset, length, .. } => {
                put_u64(out, offset);
                put_u64(out, length);
            }
        }
        let len_at = out.len();
        put_u32(out, 0);
        write_meta(out);
        let meta_len = (out.len() - len_at - 4) as u32;
        out[len_at..len_at + 4].copy_from_slice(&meta_len.to_le_bytes());
    }
}

/// Decoded form of one of the two superblock slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Superblock {
    generation: u64,
    checkpoint_slot: u8,
    checkpoint_len: u64,
    checkpoint_crc: u32,
    base_seq: u64,
}

impl Superblock {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SUPERBLOCK_LEN);
        put_u64(&mut out, self.generation);
        out.push(self.checkpoint_slot);
        put_u64(&mut out, self.checkpoint_len);
        put_u32(&mut out, self.checkpoint_crc);
        put_u64(&mut out, self.base_seq);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Superblock> {
        if bytes.len() != SUPERBLOCK_LEN {
            return None;
        }
        let body = &bytes[..SUPERBLOCK_LEN - 4];
        let crc = get_u32(bytes, SUPERBLOCK_LEN - 4)?;
        if crc32(body) != crc {
            return None;
        }
        Some(Superblock {
            generation: get_u64(bytes, 0)?,
            checkpoint_slot: bytes[8],
            checkpoint_len: get_u64(bytes, 9)?,
            checkpoint_crc: get_u32(bytes, 17)?,
            base_seq: get_u64(bytes, 21)?,
        })
    }
}

/// The journal's durable media: what survives a power loss.
///
/// Two superblock slots point (via generation numbers and checksums) at one
/// of two checkpoint areas; the append-only log holds every record flushed
/// since the checkpoint the live superblock names.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalMedia {
    superblocks: [Vec<u8>; 2],
    checkpoints: [Vec<u8>; 2],
    log: Vec<u8>,
}

impl JournalMedia {
    /// Bytes currently occupied by the record log.
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Total durable footprint in bytes (superblocks + checkpoints + log).
    pub fn durable_bytes(&self) -> usize {
        self.superblocks.iter().map(Vec::len).sum::<usize>()
            + self.checkpoints.iter().map(Vec::len).sum::<usize>()
            + self.log.len()
    }

    /// Fault-injection helper: flips bits in superblock slot `slot`,
    /// invalidating its checksum. Replay must fall back to the other slot.
    pub fn corrupt_superblock(&mut self, slot: usize) {
        for b in self.superblocks[slot % 2].iter_mut() {
            *b ^= 0xA5;
        }
    }

    /// Fault-injection helper: flips bits in checkpoint area `slot`.
    pub fn corrupt_checkpoint(&mut self, slot: usize) {
        for b in self.checkpoints[slot % 2].iter_mut() {
            *b ^= 0xA5;
        }
    }

    /// Fault-injection helper: tears `bytes` off the log tail (a partial
    /// sector write at power loss). Returns the number actually removed.
    pub fn tear_log_tail(&mut self, bytes: usize) -> usize {
        let torn = bytes.min(self.log.len());
        self.log.truncate(self.log.len() - torn);
        torn
    }

    fn best_superblock(&self) -> Result<(usize, Superblock), JournalError> {
        let mut best: Option<(usize, Superblock)> = None;
        for (idx, raw) in self.superblocks.iter().enumerate() {
            let Some(sb) = Superblock::decode(raw) else {
                continue;
            };
            let cp = &self.checkpoints[sb.checkpoint_slot as usize % 2];
            if cp.len() as u64 != sb.checkpoint_len || crc32(cp) != sb.checkpoint_crc {
                continue;
            }
            if best.is_none_or(|(_, b)| sb.generation > b.generation) {
                best = Some((idx, sb));
            }
        }
        best.ok_or(JournalError::NoValidSuperblock)
    }

    /// The records of the log's intact prefix, numbered from `base_seq`.
    fn records(&self, base_seq: u64) -> LogRecords<'_> {
        LogRecords {
            log: &self.log,
            at: 0,
            next_seq: base_seq,
        }
    }
}

/// The records of a log's intact prefix, in order, each decoded over the
/// log's own bytes ([`Decoded`]): the scan stops at the first record whose
/// framing, checksum, sequence number or payload does not hold.
#[derive(Clone, Debug)]
pub struct LogRecords<'a> {
    log: &'a [u8],
    /// Where the next record starts, or the intact prefix ends.
    at: usize,
    next_seq: u64,
}

impl<'a> Iterator for LogRecords<'a> {
    type Item = Decoded<'a>;

    fn next(&mut self) -> Option<Decoded<'a>> {
        let (log, at) = (self.log, self.at);
        if get_u32(log, at)? != RECORD_MAGIC {
            return None;
        }
        let (seq, len) = (get_u64(log, at + 4)?, get_u32(log, at + 12)? as usize);
        if len > MAX_PAYLOAD {
            return None;
        }
        let crc = get_u32(log, at + 16)?;
        let payload = log.get(at + HEADER_LEN..at + HEADER_LEN + len)?;
        if record_crc(&log[at..at + HEADER_LEN + len]) != crc || seq != self.next_seq {
            return None;
        }
        let record = Decoded::parse(payload)?;
        self.next_seq += 1;
        self.at += HEADER_LEN + len;
        Some(record)
    }
}

/// What [`Journal::recover`] read off the media, borrowed from them.
#[derive(Clone, Debug)]
pub struct Recovered<'a> {
    /// The checkpoint image the live superblock points at (empty for a
    /// freshly formatted journal).
    pub checkpoint: &'a [u8],
    /// Generation number of the superblock used.
    pub generation: u64,
    /// Bytes of torn tail cut off the log (0 when its end was intact).
    pub torn_bytes: usize,
    /// The log's records after the checkpoint, in append order.
    pub records: LogRecords<'a>,
}

/// What a simulated power loss did to the journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrashOutcome {
    /// Appended-but-unflushed records that did not survive: the crash
    /// destroyed them with the staging buffer (records whose bytes fully
    /// reached the media inside the torn in-flight write DO survive).
    pub staged_records_lost: u64,
    /// Staged bytes that never reached the media.
    pub staged_bytes_lost: usize,
    /// Bytes of the in-flight write left dangling past the last complete
    /// record on the media (the torn tail replay will discard).
    pub torn_bytes: usize,
    /// `true` when the in-flight write ended mid-record, leaving a partial
    /// record that replay must detect via its checksum.
    pub partial_tail: bool,
}

/// Running counters for journal activity, exported into the system metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended (staged) since the journal was created.
    pub appends: u64,
    /// Flushes (explicit or fsync-interval triggered) that moved staged
    /// records to durable media.
    pub flushes: u64,
    /// Checkpoints taken (each flips the superblock pointer).
    pub checkpoints: u64,
    /// Total encoded record bytes appended.
    pub appended_bytes: u64,
}

/// A write-ahead journal over in-simulation durable media.
///
/// Appends go to a volatile staging buffer and reach the media on
/// [`Journal::flush`] — automatically after every `fsync_interval` appends,
/// or explicitly at durability points (dirty-write acknowledgement).
#[derive(Clone, Debug)]
pub struct Journal {
    media: JournalMedia,
    staging: Vec<u8>,
    staged_records: u64,
    next_seq: u64,
    appends_since_flush: u32,
    fsync_interval: u32,
    active_superblock: usize,
    stats: JournalStats,
}

impl Journal {
    /// Formats fresh media: an empty checkpoint in slot 0 and a valid
    /// generation-0 superblock in slot 0.
    pub fn format(fsync_interval: u32) -> Journal {
        let mut media = JournalMedia::default();
        let sb = Superblock {
            generation: 0,
            checkpoint_slot: 0,
            checkpoint_len: 0,
            checkpoint_crc: crc32(&[]),
            base_seq: 0,
        };
        media.superblocks[0] = sb.encode();
        Journal {
            media,
            staging: Vec::new(),
            staged_records: 0,
            next_seq: 0,
            appends_since_flush: 0,
            fsync_interval,
            active_superblock: 0,
            stats: JournalStats::default(),
        }
    }

    /// Resumes the journal over the media a crash left, as a journal built
    /// fresh over them would stand: the torn tail cut off, nothing staged,
    /// numbering resumed after the last intact record, counters at zero.
    /// Returns what replay needs, borrowed from the media: the checkpoint
    /// image and the log's records, decoded over its own bytes.
    ///
    /// # Errors
    ///
    /// [`JournalError::NoValidSuperblock`] — both superblocks are damaged;
    /// the journal is left as it was.
    pub fn recover(&mut self) -> Result<Recovered<'_>, JournalError> {
        let (active, sb) = self.media.best_superblock()?;
        let mut scan = self.media.records(sb.base_seq);
        let intact = scan.by_ref().count() as u64;
        let torn_bytes = self.media.log.len() - scan.at;
        self.media.log.truncate(scan.at);
        self.staging.clear();
        self.staged_records = 0;
        self.next_seq = sb.base_seq + intact;
        self.appends_since_flush = 0;
        self.active_superblock = active;
        self.stats = JournalStats::default();
        Ok(Recovered {
            checkpoint: &self.media.checkpoints[sb.checkpoint_slot as usize % 2],
            generation: sb.generation,
            torn_bytes,
            records: self.media.records(sb.base_seq),
        })
    }

    /// Appends a record to the staging buffer, returning its sequence
    /// number. Auto-flushes once `fsync_interval` records are staged.
    pub fn append(&mut self, record: &JournalRecord) -> u64 {
        self.append_encoded(|out| record.encode_payload_into(out))
    }

    /// Appends a layout-carrying record whose `meta` blob `write_meta`
    /// appends to the buffer it is given (it must only append). The bytes
    /// staged are exactly those of [`Journal::append`] on the equivalent
    /// [`JournalRecord`].
    pub fn append_layout(
        &mut self,
        head: LayoutRecord,
        write_meta: impl FnOnce(&mut Vec<u8>),
    ) -> u64 {
        self.append_encoded(|out| head.encode_payload_into(out, write_meta))
    }

    /// Single-pass append: reserves the header in `staging`, lets
    /// `encode` write the payload straight behind it, then back-patches
    /// magic, sequence, length and the CRC over `seq ‖ len ‖ payload`.
    fn append_encoded(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let at = self.staging.len();
        self.staging.resize(at + HEADER_LEN, 0);
        encode(&mut self.staging);
        let framed = &mut self.staging[at..];
        let payload_len = framed.len() - HEADER_LEN;
        framed[..4].copy_from_slice(&RECORD_MAGIC.to_le_bytes());
        framed[4..12].copy_from_slice(&seq.to_le_bytes());
        framed[12..16].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let crc = record_crc(framed);
        framed[16..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
        self.staged_records += 1;
        self.appends_since_flush += 1;
        self.stats.appends += 1;
        self.stats.appended_bytes += (HEADER_LEN + payload_len) as u64;
        if self.appends_since_flush >= self.fsync_interval.max(1) {
            self.flush();
        }
        seq
    }

    /// Moves every staged record to the durable media (fsync semantics).
    /// The records are crash-safe afterwards.
    pub fn flush(&mut self) {
        if self.staging.is_empty() {
            self.appends_since_flush = 0;
            return;
        }
        self.media.log.extend_from_slice(&self.staging);
        self.staging.clear();
        self.staged_records = 0;
        self.appends_since_flush = 0;
        self.stats.flushes += 1;
    }

    /// Writes a checkpoint image and flips the superblock pointer to it.
    ///
    /// The image goes to the checkpoint area *not* referenced by the live
    /// superblock, and the new superblock overwrites the *stale* slot, so
    /// a crash at any point leaves at least one valid (superblock,
    /// checkpoint) pair. The log restarts empty at the new base sequence.
    pub fn checkpoint(&mut self, image: &[u8]) {
        self.flush();
        let current = self
            .media
            .best_superblock()
            .map(|(_, sb)| sb)
            .unwrap_or(Superblock {
                generation: 0,
                checkpoint_slot: 1,
                checkpoint_len: 0,
                checkpoint_crc: 0,
                base_seq: 0,
            });
        let slot = (current.checkpoint_slot as usize + 1) % 2;
        self.media.checkpoints[slot] = image.to_vec();
        let sb = Superblock {
            generation: current.generation + 1,
            checkpoint_slot: slot as u8,
            checkpoint_len: image.len() as u64,
            checkpoint_crc: crc32(image),
            base_seq: self.next_seq,
        };
        let target = (self.active_superblock + 1) % 2;
        self.media.superblocks[target] = sb.encode();
        self.active_superblock = target;
        self.media.log.clear();
        self.stats.checkpoints += 1;
    }

    /// Simulates a power loss that catches a flush mid-write: up to `tear`
    /// bytes of the *staging buffer* reach the media — possibly ending in
    /// the middle of a record, which replay detects by checksum and
    /// discards — and the rest of the staging buffer vanishes. Bytes that
    /// a completed [`Journal::flush`] already acknowledged are never
    /// affected: fsync means durable. The journal's media afterwards is
    /// exactly what a restart sees.
    pub fn crash(&mut self, tear: usize) -> CrashOutcome {
        let persisted = tear.min(self.staging.len());
        // Complete records inside the persisted prefix survive the crash
        // (their sectors landed), the remainder is the torn tail.
        let survived = LogRecords {
            log: &self.staging[..persisted],
            at: 0,
            next_seq: self.next_seq - self.staged_records,
        };
        let staged_records_lost = self.staged_records - survived.count() as u64;
        self.media.log.extend_from_slice(&self.staging[..persisted]);
        let staged_bytes_lost = self.staging.len() - persisted;
        self.staging.clear();
        self.staged_records = 0;
        self.appends_since_flush = 0;
        let base_seq = self
            .media
            .best_superblock()
            .map(|(_, sb)| sb.base_seq)
            .unwrap_or(0);
        // Where the intact prefix ends is all the crash needs: the walk
        // decodes each record over the log's bytes and keeps none.
        let mut scan = self.media.records(base_seq);
        scan.by_ref().for_each(drop);
        let consumed = scan.at;
        CrashOutcome {
            staged_records_lost,
            staged_bytes_lost,
            torn_bytes: self.media.log.len() - consumed,
            partial_tail: consumed < self.media.log.len(),
        }
    }

    /// The durable media (for inspection or extraction at crash time).
    pub fn media(&self) -> &JournalMedia {
        &self.media
    }

    /// Mutable access to the durable media for fault injection.
    pub fn media_mut(&mut self) -> &mut JournalMedia {
        &mut self.media
    }

    /// Records appended but not yet flushed to durable media.
    pub fn staged_records(&self) -> u64 {
        self.staged_records
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Running activity counters.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn key(i: u64) -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x2_0000 + i))
    }

    /// The records a restart over `j`'s media reads back: those of a
    /// recovered clone.
    fn recovered_records(j: &Journal) -> Vec<JournalRecord> {
        let mut restarted = j.clone();
        let recovered = restarted.recover().unwrap();
        recovered.records.map(Decoded::into_record).collect()
    }

    fn create(i: u64) -> JournalRecord {
        JournalRecord::Create {
            key: key(i),
            class: ObjectClass::ColdClean,
            meta: vec![i as u8; 5],
        }
    }

    #[test]
    fn records_roundtrip_through_encoding() {
        let samples = vec![
            create(1),
            JournalRecord::SetClass {
                key: key(2),
                class: ObjectClass::HotClean,
                meta: vec![9, 8, 7],
            },
            JournalRecord::DirtyWrite {
                key: key(3),
                offset: 4096,
                length: 512,
                meta: vec![],
            },
            JournalRecord::Remove { key: key(4) },
            JournalRecord::ScrubCursor {
                cursor: Some(key(5)),
            },
            JournalRecord::ScrubCursor { cursor: None },
        ];
        for rec in samples {
            let mut payload = Vec::new();
            rec.encode_payload_into(&mut payload);
            let decoded = Decoded::parse(&payload).map(Decoded::into_record);
            assert_eq!(decoded, Some(rec));
        }
    }

    #[test]
    fn replay_returns_flushed_records_in_order() {
        let mut j = Journal::format(100);
        for i in 0..5 {
            j.append(&create(i));
        }
        // Nothing flushed yet: replay sees an empty journal.
        assert!(recovered_records(&j).is_empty());
        j.flush();
        let mut restarted = j.clone();
        let out = restarted.recover().unwrap();
        assert_eq!(out.torn_bytes, 0);
        let records: Vec<_> = out.records.map(Decoded::into_record).collect();
        assert_eq!(records, (0..5).map(create).collect::<Vec<_>>());
        assert_eq!(restarted.next_seq(), 5);
    }

    #[test]
    fn fsync_interval_auto_flushes() {
        let mut j = Journal::format(3);
        j.append(&create(0));
        j.append(&create(1));
        assert_eq!(j.staged_records(), 2);
        j.append(&create(2));
        assert_eq!(j.staged_records(), 0);
        assert_eq!(recovered_records(&j).len(), 3);
        assert_eq!(j.stats().flushes, 1);
    }

    #[test]
    fn crash_destroys_staging_but_not_flushed_records() {
        let mut j = Journal::format(100);
        j.append(&create(0));
        j.flush();
        j.append(&create(1));
        let crash = j.crash(0);
        assert_eq!(crash.staged_records_lost, 1);
        assert!(!crash.partial_tail);
        let out = j.recover().unwrap();
        assert_eq!(out.records.count(), 1);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_recovery() {
        let mut j = Journal::format(100);
        for i in 0..3 {
            j.append(&create(i));
        }
        j.flush();
        // A fourth record is staged when the power dies mid-flush: 7 of
        // its bytes reach the media as a torn tail.
        j.append(&create(3));
        let crash = j.crash(7);
        assert_eq!(crash.torn_bytes, 7);
        assert_eq!(crash.staged_records_lost, 1);
        assert!(crash.partial_tail);

        let mut recovered = j.clone();
        let replayed = recovered.recover().unwrap();
        assert_eq!(replayed.torn_bytes, 7);
        assert_eq!(replayed.records.count(), 3);
        // The torn tail is gone and sequencing resumes cleanly.
        assert_eq!(recovered.next_seq(), 3);
        let clean = recovered.recover().unwrap();
        assert_eq!(clean.records.count(), 3);
        assert_eq!(clean.torn_bytes, 0);
    }

    #[test]
    fn crash_never_unwrites_acknowledged_records() {
        // fsync semantics: once flush() returns, no crash — whatever the
        // tear — may take those records back.
        let mut j = Journal::format(100);
        for i in 0..4 {
            j.append(&create(i));
        }
        j.flush();
        let crash = j.crash(10_000);
        assert_eq!(crash.staged_records_lost, 0);
        assert_eq!(crash.torn_bytes, 0);
        assert!(!crash.partial_tail);
        assert_eq!(recovered_records(&j).len(), 4);
    }

    /// What a crash reports, pinned at each place a tear can fall: on a
    /// record boundary, inside the next record's header, inside its
    /// payload, and with nothing staged. The log holds flushed records of
    /// every kind; three more are staged, the first a 41-byte `Create`.
    #[test]
    fn crash_outcomes_are_pinned() {
        let journal = |staged: bool| {
            let mut j = Journal::format(100);
            j.append(&create(0));
            j.append(&JournalRecord::DirtyWrite {
                key: key(1),
                offset: 8,
                length: 16,
                meta: vec![7; 45],
            });
            j.append(&JournalRecord::Remove { key: key(2) });
            j.append(&JournalRecord::ScrubCursor { cursor: None });
            j.flush();
            if staged {
                j.append(&create(3));
                j.append(&JournalRecord::SetClass {
                    key: key(4),
                    class: ObjectClass::HotClean,
                    meta: vec![3; 45],
                });
                j.append(&JournalRecord::Remove { key: key(5) });
            }
            j
        };
        let boundary = HEADER_LEN + 18 + 4 + 5;
        let outcome = |lost, bytes_lost, torn_bytes| CrashOutcome {
            staged_records_lost: lost,
            staged_bytes_lost: bytes_lost,
            torn_bytes,
            partial_tail: torn_bytes > 0,
        };
        // (anything staged, tear) → outcome, records replayed, log length.
        let cases = [
            ((true, boundary), outcome(2, 124, 0), 5, 255),
            ((true, boundary + 7), outcome(2, 117, 7), 5, 262),
            (
                (true, boundary + HEADER_LEN + 3),
                outcome(2, 101, 23),
                5,
                278,
            ),
            ((false, 50), outcome(0, 0, 0), 4, 208),
        ];
        for ((staged, tear), crashed, records, log_len) in cases {
            let mut j = journal(staged);
            assert_eq!(j.crash(tear), crashed, "tear {tear}");
            assert_eq!(j.media().log_len(), log_len, "tear {tear}");
            let replay = j.recover().unwrap();
            assert_eq!(replay.records.count(), records, "tear {tear}");
            assert_eq!(replay.torn_bytes, crashed.torn_bytes, "tear {tear}");
        }
    }

    #[test]
    fn record_boundary_tear_is_not_a_torn_tail() {
        let mut j = Journal::format(100);
        let rec = create(0);
        let mut payload = Vec::new();
        rec.encode_payload_into(&mut payload);
        let encoded_len = HEADER_LEN + payload.len();
        j.append(&rec);
        j.append(&create(1));
        // The in-flight write persists exactly the first staged record:
        // it survives whole, the second vanishes, nothing is torn.
        let crash = j.crash(encoded_len);
        assert_eq!(crash.torn_bytes, 0);
        assert_eq!(crash.staged_records_lost, 1);
        assert!(!crash.partial_tail);
        let out = j.recover().unwrap();
        assert_eq!(out.records.count(), 1);
        assert_eq!(out.torn_bytes, 0);
    }

    #[test]
    fn checkpoint_flips_superblocks_and_restarts_log() {
        let mut j = Journal::format(100);
        j.append(&create(0));
        j.checkpoint(b"state-v1");
        assert_eq!(j.media().log_len(), 0);
        j.append(&create(1));
        j.flush();
        let mut restarted = j.clone();
        let out = restarted.recover().unwrap();
        assert_eq!(out.checkpoint, b"state-v1");
        assert_eq!(out.generation, 1);
        let records: Vec<_> = out.records.map(Decoded::into_record).collect();
        assert_eq!(records, vec![create(1)]);
        // Numbering resumes after the one record past the checkpoint.
        assert_eq!(restarted.next_seq(), 2);

        j.checkpoint(b"state-v2");
        let out = j.recover().unwrap();
        assert_eq!(out.checkpoint, b"state-v2");
        assert_eq!(out.generation, 2);
        assert_eq!(out.records.count(), 0);
        assert_eq!(j.next_seq(), 2);
    }

    #[test]
    fn corrupted_live_superblock_falls_back_to_the_other() {
        let mut j = Journal::format(100);
        j.checkpoint(b"gen1");
        j.checkpoint(b"gen2");
        // Corrupt the live superblock; recovery must fall back to gen1's.
        let live = j.active_superblock;
        j.media_mut().corrupt_superblock(live);
        let out = j.recover().unwrap();
        assert_eq!(out.checkpoint, b"gen1");
        assert_eq!(out.generation, 1);
    }

    #[test]
    fn corrupted_checkpoint_invalidates_its_superblock() {
        let mut j = Journal::format(100);
        j.checkpoint(b"gen1");
        j.checkpoint(b"gen2");
        let (_, sb) = j.media().best_superblock().unwrap();
        j.media_mut()
            .corrupt_checkpoint(sb.checkpoint_slot as usize);
        let out = j.recover().unwrap();
        assert_eq!(out.checkpoint, b"gen1");
    }

    #[test]
    fn both_superblocks_dead_is_an_error() {
        let mut j = Journal::format(100);
        j.checkpoint(b"gen1");
        j.media_mut().corrupt_superblock(0);
        j.media_mut().corrupt_superblock(1);
        let untouched = j.media().clone();
        assert!(matches!(j.recover(), Err(JournalError::NoValidSuperblock)));
        assert_eq!(j.media(), &untouched, "a failed recovery leaves the media");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The byte-at-a-time table CRC the slice-by-8 loop replaced.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        #[test]
        fn crc32_equals_bytewise_reference(
            bytes in proptest::collection::vec(any::<u8>(), 0..=4096),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        }
    }

    #[test]
    fn crc32_update_streams_across_every_split() {
        let bytes: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
        let whole = crc32_update(CRC_INIT, &bytes);
        for split in 0..=bytes.len() {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc32_update(crc32_update(CRC_INIT, a), b), whole, "{split}");
        }
        assert_eq!(whole ^ CRC_INIT, crc32_reference(&bytes));
    }

    /// The three-copy record encoder `Journal::append` used before it
    /// became single-pass: payload `Vec`, `checked` copy, bytewise CRC.
    fn legacy_encode(seq: u64, record: &JournalRecord) -> Vec<u8> {
        fn put_meta(out: &mut Vec<u8>, meta: &[u8]) {
            put_u32(out, meta.len() as u32);
            out.extend_from_slice(meta);
        }
        let mut payload = Vec::new();
        match record {
            JournalRecord::Create { key, class, meta }
            | JournalRecord::SetClass { key, class, meta } => {
                payload.push(if matches!(record, JournalRecord::Create { .. }) {
                    1
                } else {
                    2
                });
                put_key(&mut payload, *key);
                payload.push(class.id());
                put_meta(&mut payload, meta);
            }
            JournalRecord::DirtyWrite {
                key,
                offset,
                length,
                meta,
            } => {
                payload.push(3);
                put_key(&mut payload, *key);
                put_u64(&mut payload, *offset);
                put_u64(&mut payload, *length);
                put_meta(&mut payload, meta);
            }
            JournalRecord::Remove { key } => {
                payload.push(4);
                put_key(&mut payload, *key);
            }
            JournalRecord::ScrubCursor { cursor } => {
                payload.push(5);
                match cursor {
                    Some(key) => {
                        payload.push(1);
                        put_key(&mut payload, *key);
                    }
                    None => payload.push(0),
                }
            }
        }
        let mut checked = Vec::with_capacity(12 + payload.len());
        put_u64(&mut checked, seq);
        put_u32(&mut checked, payload.len() as u32);
        checked.extend_from_slice(&payload);
        let crc = crc32_reference(&checked);
        let mut out = Vec::new();
        put_u32(&mut out, RECORD_MAGIC);
        out.extend_from_slice(&checked[..12]);
        put_u32(&mut out, crc);
        out.extend_from_slice(&payload);
        out
    }

    /// All five record kinds, with a layout-sized and an empty `meta`.
    fn golden_records() -> Vec<JournalRecord> {
        let big: Vec<u8> = (0..1400u32).map(|i| (i * 131 + 17) as u8).collect();
        vec![
            JournalRecord::Create {
                key: key(1),
                class: ObjectClass::Dirty,
                meta: big.clone(),
            },
            JournalRecord::SetClass {
                key: key(1),
                class: ObjectClass::HotClean,
                meta: vec![],
            },
            JournalRecord::DirtyWrite {
                key: key(2),
                offset: 65_536,
                length: 4096,
                meta: big,
            },
            JournalRecord::Remove { key: key(1) },
            JournalRecord::ScrubCursor {
                cursor: Some(key(2)),
            },
            JournalRecord::ScrubCursor { cursor: None },
            create(7),
        ]
    }

    #[test]
    fn media_bytes_match_the_three_copy_encoder() {
        let records = golden_records();
        let expected: Vec<u8> = records
            .iter()
            .enumerate()
            .flat_map(|(seq, r)| legacy_encode(seq as u64, r))
            .collect();

        let mut owned = Journal::format(3);
        let mut streamed = Journal::format(3);
        for r in &records {
            owned.append(r);
            // The streaming form of the layout-carrying kinds stages the
            // same bytes as the owned-`meta` form.
            fn write(meta: &[u8]) -> impl FnOnce(&mut Vec<u8>) + '_ {
                move |out| out.extend_from_slice(meta)
            }
            match r {
                JournalRecord::Create { key, class, meta } => streamed.append_layout(
                    LayoutRecord::Create {
                        key: *key,
                        class: *class,
                    },
                    write(meta),
                ),
                JournalRecord::SetClass { key, class, meta } => streamed.append_layout(
                    LayoutRecord::SetClass {
                        key: *key,
                        class: *class,
                    },
                    write(meta),
                ),
                JournalRecord::DirtyWrite {
                    key,
                    offset,
                    length,
                    meta,
                } => streamed.append_layout(
                    LayoutRecord::DirtyWrite {
                        key: *key,
                        offset: *offset,
                        length: *length,
                    },
                    write(meta),
                ),
                other => streamed.append(other),
            };
        }
        owned.flush();
        streamed.flush();
        assert_eq!(owned.media().log, expected);
        assert_eq!(streamed.media().log, expected);
        assert_eq!(owned.stats().appended_bytes, expected.len() as u64);
        assert_eq!(owned.stats(), streamed.stats());
        // fsync_interval 3 over 7 appends: two automatic flushes + ours.
        assert_eq!(owned.stats().flushes, 3);
        assert_eq!(recovered_records(&owned), records);

        // A tear at every byte of the last record replays the prefix.
        let last = legacy_encode(6, &records[6]).len();
        for torn in 1..=last {
            let mut recovered = owned.clone();
            assert_eq!(recovered.media_mut().tear_log_tail(torn), torn);
            let out = recovered.recover().unwrap();
            assert_eq!(out.torn_bytes, last - torn);
            let replayed: Vec<_> = out.records.map(Decoded::into_record).collect();
            assert_eq!(replayed, records[..6], "torn {torn}");
            assert_eq!(recovered.next_seq(), 6);
        }
    }
}
