//! The OSD command set the cache manager issues to the object storage.
//!
//! This models the subset of the T10 OSD-2 command set that the Reo
//! prototype exercises, plus the write-to-control-object path that carries
//! [`crate::control::ControlMessage`]s. Commands are plain data; the
//! `reo-osd-target` crate executes them.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ObjectClass, ObjectKey, SenseCode};

/// A command addressed to the object storage device.
///
/// # Examples
///
/// ```
/// use reo_osd::command::OsdCommand;
/// use reo_osd::{ObjectKey, ObjectId, PartitionId};
///
/// let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
/// let cmd = OsdCommand::Read { key, offset: 0, length: 4096 };
/// assert!(cmd.is_read());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsdCommand {
    /// CREATE — create an object of `size` bytes with an initial class.
    Create {
        /// The object to create.
        key: ObjectKey,
        /// Logical size in bytes.
        size: u64,
        /// Initial semantic class.
        class: ObjectClass,
    },
    /// READ — read `length` bytes at `offset`.
    Read {
        /// The object to read.
        key: ObjectKey,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        length: u64,
    },
    /// WRITE — overwrite `length` bytes at `offset`.
    Write {
        /// The object to write.
        key: ObjectKey,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        length: u64,
    },
    /// REMOVE — delete the object and free its stripes.
    Remove {
        /// The object to remove.
        key: ObjectKey,
    },
    /// FLUSH — force the object durable (used for control-object writes,
    /// which the paper performs with `fsync` to bypass the buffer cache).
    Flush {
        /// The object to flush.
        key: ObjectKey,
    },
    /// SET CLASS — reclassify an object (the decoded `#SETID#` message).
    SetClass {
        /// The object to reclassify.
        key: ObjectKey,
        /// The new class.
        class: ObjectClass,
    },
    /// QUERY — ask for the status of an object (the decoded `#QUERY#`
    /// message). Returns a [`SenseCode`].
    Query {
        /// The object to query.
        key: ObjectKey,
    },
    /// LIST — enumerate the objects of a partition (collection support).
    List {
        /// Partition to enumerate (as the partition object's key).
        partition: ObjectKey,
    },
}

impl OsdCommand {
    /// The object the command addresses.
    pub fn key(&self) -> ObjectKey {
        match *self {
            OsdCommand::Create { key, .. }
            | OsdCommand::Read { key, .. }
            | OsdCommand::Write { key, .. }
            | OsdCommand::Remove { key }
            | OsdCommand::Flush { key }
            | OsdCommand::SetClass { key, .. }
            | OsdCommand::Query { key }
            | OsdCommand::List { partition: key } => key,
        }
    }

    /// `true` for commands that only read device state.
    pub fn is_read(&self) -> bool {
        matches!(
            self,
            OsdCommand::Read { .. } | OsdCommand::Query { .. } | OsdCommand::List { .. }
        )
    }
}

impl fmt::Display for OsdCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsdCommand::Create { key, size, class } => {
                write!(f, "CREATE {key} size={size} class={class}")
            }
            OsdCommand::Read {
                key,
                offset,
                length,
            } => {
                write!(f, "READ {key} off={offset} len={length}")
            }
            OsdCommand::Write {
                key,
                offset,
                length,
            } => {
                write!(f, "WRITE {key} off={offset} len={length}")
            }
            OsdCommand::Remove { key } => write!(f, "REMOVE {key}"),
            OsdCommand::Flush { key } => write!(f, "FLUSH {key}"),
            OsdCommand::SetClass { key, class } => write!(f, "SETID {key} class={class}"),
            OsdCommand::Query { key } => write!(f, "QUERY {key}"),
            OsdCommand::List { partition } => write!(f, "LIST {partition}"),
        }
    }
}

/// The outcome of executing an [`OsdCommand`]: a sense code plus an
/// optional payload length (for reads).
///
/// # Examples
///
/// ```
/// use reo_osd::command::CommandStatus;
/// use reo_osd::SenseCode;
///
/// let ok = CommandStatus::success(4096);
/// assert_eq!(ok.sense(), SenseCode::Success);
/// assert_eq!(ok.bytes_transferred(), 4096);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommandStatus {
    sense: SenseCode,
    bytes_transferred: u64,
}

impl CommandStatus {
    /// A successful completion that moved `bytes` of payload.
    pub const fn success(bytes: u64) -> Self {
        CommandStatus {
            sense: SenseCode::Success,
            bytes_transferred: bytes,
        }
    }

    /// A completion with the given sense code and no payload.
    pub const fn of(sense: SenseCode) -> Self {
        CommandStatus {
            sense,
            bytes_transferred: 0,
        }
    }

    /// A completion that moved `bytes` of payload, but only after error
    /// recovery (a degraded read or retried transient fault): the data is
    /// good, and [`SenseCode::RecoveredError`] tells the initiator so.
    pub const fn recovered(bytes: u64) -> Self {
        CommandStatus {
            sense: SenseCode::RecoveredError,
            bytes_transferred: bytes,
        }
    }

    /// The sense code.
    pub const fn sense(self) -> SenseCode {
        self.sense
    }

    /// Payload bytes moved by the command.
    pub const fn bytes_transferred(self) -> u64 {
        self.bytes_transferred
    }

    /// `true` if the sense code is [`SenseCode::Success`].
    pub const fn is_success(self) -> bool {
        matches!(self.sense, SenseCode::Success)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectId, PartitionId};

    fn key() -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000))
    }

    #[test]
    fn read_write_classification() {
        assert!(OsdCommand::Read {
            key: key(),
            offset: 0,
            length: 1
        }
        .is_read());
        assert!(OsdCommand::Query { key: key() }.is_read());
        assert!(!OsdCommand::Write {
            key: key(),
            offset: 0,
            length: 1
        }
        .is_read());
        assert!(!OsdCommand::Remove { key: key() }.is_read());
        assert!(!OsdCommand::SetClass {
            key: key(),
            class: ObjectClass::Dirty
        }
        .is_read());
    }

    #[test]
    fn every_command_reports_its_key() {
        let k = key();
        let cmds = [
            OsdCommand::Create {
                key: k,
                size: 1,
                class: ObjectClass::ColdClean,
            },
            OsdCommand::Read {
                key: k,
                offset: 0,
                length: 1,
            },
            OsdCommand::Write {
                key: k,
                offset: 0,
                length: 1,
            },
            OsdCommand::Remove { key: k },
            OsdCommand::Flush { key: k },
            OsdCommand::SetClass {
                key: k,
                class: ObjectClass::HotClean,
            },
            OsdCommand::Query { key: k },
            OsdCommand::List { partition: k },
        ];
        for cmd in cmds {
            assert_eq!(cmd.key(), k, "{cmd}");
        }
    }

    #[test]
    fn status_accessors() {
        let s = CommandStatus::success(10);
        assert!(s.is_success());
        assert_eq!(s.bytes_transferred(), 10);
        let f = CommandStatus::of(SenseCode::Corrupted);
        assert!(!f.is_success());
        assert_eq!(f.sense(), SenseCode::Corrupted);
    }

    #[test]
    fn display_is_informative() {
        let cmd = OsdCommand::Read {
            key: key(),
            offset: 64,
            length: 128,
        };
        let s = cmd.to_string();
        assert!(s.contains("READ") && s.contains("off=64") && s.contains("len=128"));
    }
}
