//! Object namespace: partition IDs, object IDs, and well-known objects.
//!
//! The OSD-2 standard gives every object an exclusive `(PID, OID)` pair.
//! PIDs and OIDs below `0x10000` are reserved; the root object is
//! `(0x0, 0x0)`. The Linux `exofs` implementation additionally reserves
//! OIDs `0x10000`–`0x10002` of the first partition for the Super Block,
//! Device Table, and Root Directory metadata objects, and Reo reserves OID
//! `0x10004` as its control mailbox (Table I, Sections II-A and IV-C.2).

use std::fmt;

use serde::{Deserialize, Serialize};

/// The first non-reserved identifier value for both PIDs and OIDs.
pub const FIRST_VALID_ID: u64 = 0x10000;

/// A partition identifier within an OSD logical unit.
///
/// # Examples
///
/// ```
/// use reo_osd::PartitionId;
///
/// assert!(PartitionId::FIRST.is_valid_partition());
/// assert!(!PartitionId::ROOT.is_valid_partition());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PartitionId(u64);

impl PartitionId {
    /// The PID of the root object, `0x0`.
    pub const ROOT: PartitionId = PartitionId(0);

    /// The first regular partition, `0x10000`. `exofs` stores its reserved
    /// metadata objects here.
    pub const FIRST: PartitionId = PartitionId(FIRST_VALID_ID);

    /// Creates a partition ID from a raw value.
    pub const fn new(raw: u64) -> Self {
        PartitionId(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` when the PID denotes a regular partition (`>= 0x10000`).
    pub const fn is_valid_partition(self) -> bool {
        self.0 >= FIRST_VALID_ID
    }
}

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid:{:#x}", self.0)
    }
}

/// An object identifier within a partition.
///
/// # Examples
///
/// ```
/// use reo_osd::ObjectId;
///
/// assert_eq!(ObjectId::SUPER_BLOCK.as_u64(), 0x10000);
/// assert_eq!(ObjectId::CONTROL.as_u64(), 0x10004);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectId(u64);

impl ObjectId {
    /// The OID of the root / partition object, `0x0`.
    pub const ZERO: ObjectId = ObjectId(0);

    /// Reserved OID of the Super Block object (`exofs`).
    pub const SUPER_BLOCK: ObjectId = ObjectId(0x10000);

    /// Reserved OID of the Device Table object (`exofs`).
    pub const DEVICE_TABLE: ObjectId = ObjectId(0x10001);

    /// Reserved OID of the Root Directory object (`exofs`).
    pub const ROOT_DIRECTORY: ObjectId = ObjectId(0x10002);

    /// Reserved OID of the Reo control mailbox object (Section IV-C.2 and V
    /// of the paper: "a special object (reserved OID 0x10004) as a
    /// communication point").
    pub const CONTROL: ObjectId = ObjectId(0x10004);

    /// Creates an object ID from a raw value.
    pub const fn new(raw: u64) -> Self {
        ObjectId(raw)
    }

    /// The raw 64-bit value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// `true` when the OID is in the regular (non-reserved) range and is
    /// not one of the `exofs`/Reo reserved metadata objects.
    pub const fn is_regular_user_oid(self) -> bool {
        self.0 > ObjectId::CONTROL.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oid:{:#x}", self.0)
    }
}

/// A fully qualified object address: `(PID, OID)`.
///
/// # Examples
///
/// ```
/// use reo_osd::{ObjectId, ObjectKey, ObjectKind, PartitionId};
///
/// let root = ObjectKey::new(PartitionId::ROOT, ObjectId::ZERO);
/// assert_eq!(root.kind(), ObjectKind::Root);
///
/// let sb = ObjectKey::new(PartitionId::FIRST, ObjectId::SUPER_BLOCK);
/// assert_eq!(sb.kind(), ObjectKind::SuperBlock);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ObjectKey {
    pid: PartitionId,
    oid: ObjectId,
}

impl ObjectKey {
    /// Creates a key from its parts.
    pub const fn new(pid: PartitionId, oid: ObjectId) -> Self {
        ObjectKey { pid, oid }
    }

    /// Convenience constructor for a regular user object.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not a valid partition or `oid` is reserved.
    pub fn user(pid: PartitionId, oid: ObjectId) -> Self {
        assert!(
            pid.is_valid_partition(),
            "user objects need a real partition"
        );
        assert!(oid.is_regular_user_oid(), "oid {oid} is reserved");
        ObjectKey { pid, oid }
    }

    /// The key of the control mailbox object in the first partition.
    pub const fn control() -> Self {
        ObjectKey::new(PartitionId::FIRST, ObjectId::CONTROL)
    }

    /// The partition component.
    pub const fn pid(self) -> PartitionId {
        self.pid
    }

    /// The object component.
    pub const fn oid(self) -> ObjectId {
        self.oid
    }

    /// Classifies the key per Table I of the paper.
    pub fn kind(self) -> ObjectKind {
        if self.pid == PartitionId::ROOT && self.oid == ObjectId::ZERO {
            return ObjectKind::Root;
        }
        if self.pid.is_valid_partition() && self.oid == ObjectId::ZERO {
            return ObjectKind::Partition;
        }
        if self.pid == PartitionId::FIRST {
            match self.oid {
                ObjectId::SUPER_BLOCK => return ObjectKind::SuperBlock,
                ObjectId::DEVICE_TABLE => return ObjectKind::DeviceTable,
                ObjectId::ROOT_DIRECTORY => return ObjectKind::RootDirectory,
                ObjectId::CONTROL => return ObjectKind::Control,
                _ => {}
            }
        }
        ObjectKind::User
    }

    /// `true` when the object is one of the OSD/system metadata objects
    /// that Reo places in class 0 (Group #0 in Section IV-C.1).
    pub fn is_system_metadata(self) -> bool {
        !matches!(self.kind(), ObjectKind::User | ObjectKind::Control)
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.pid, self.oid)
    }
}

/// The object taxonomy of Table I.
///
/// OSD-2 defines Root, Partition and User objects (and Collections, which
/// no mechanism of Reo's uses); `exofs` reserves three metadata user
/// objects, and Reo adds a control mailbox.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectKind {
    /// The per-device root object `(0x0, 0x0)` recording global OSD info.
    Root,
    /// A partition object `(pid, 0x0)`.
    Partition,
    /// A regular user data object.
    User,
    /// The `exofs` Super Block metadata object.
    SuperBlock,
    /// The `exofs` Device Table metadata object.
    DeviceTable,
    /// The `exofs` Root Directory metadata object.
    RootDirectory,
    /// The Reo control mailbox (OID `0x10004`).
    Control,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObjectKind::Root => "root",
            ObjectKind::Partition => "partition",
            ObjectKind::User => "user",
            ObjectKind::SuperBlock => "super-block",
            ObjectKind::DeviceTable => "device-table",
            ObjectKind::RootDirectory => "root-directory",
            ObjectKind::Control => "control",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_kinds() {
        // Root object: PID 0x0, OID 0x0.
        assert_eq!(
            ObjectKey::new(PartitionId::ROOT, ObjectId::ZERO).kind(),
            ObjectKind::Root
        );
        // Partition object: PID 0x10000+, OID 0x0.
        assert_eq!(
            ObjectKey::new(PartitionId::new(0x20000), ObjectId::ZERO).kind(),
            ObjectKind::Partition
        );
        // Reserved exofs metadata in partition 0x10000.
        assert_eq!(
            ObjectKey::new(PartitionId::FIRST, ObjectId::SUPER_BLOCK).kind(),
            ObjectKind::SuperBlock
        );
        assert_eq!(
            ObjectKey::new(PartitionId::FIRST, ObjectId::DEVICE_TABLE).kind(),
            ObjectKind::DeviceTable
        );
        assert_eq!(
            ObjectKey::new(PartitionId::FIRST, ObjectId::ROOT_DIRECTORY).kind(),
            ObjectKind::RootDirectory
        );
        assert_eq!(ObjectKey::control().kind(), ObjectKind::Control);
        // A regular user object.
        assert_eq!(
            ObjectKey::new(PartitionId::FIRST, ObjectId::new(0x10005)).kind(),
            ObjectKind::User
        );
        // Reserved OIDs only special in the first partition.
        assert_eq!(
            ObjectKey::new(PartitionId::new(0x20000), ObjectId::SUPER_BLOCK).kind(),
            ObjectKind::User
        );
    }

    #[test]
    fn system_metadata_flag() {
        assert!(ObjectKey::new(PartitionId::ROOT, ObjectId::ZERO).is_system_metadata());
        assert!(ObjectKey::new(PartitionId::FIRST, ObjectId::SUPER_BLOCK).is_system_metadata());
        assert!(!ObjectKey::control().is_system_metadata());
        assert!(!ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x99999)).is_system_metadata());
    }

    #[test]
    fn reserved_ranges() {
        assert!(!ObjectId::SUPER_BLOCK.is_regular_user_oid());
        assert!(!ObjectId::CONTROL.is_regular_user_oid());
        assert!(ObjectId::new(0x10005).is_regular_user_oid());
        assert!(!ObjectId::new(0x42).is_regular_user_oid());
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn user_key_rejects_reserved_oid() {
        let _ = ObjectKey::user(PartitionId::FIRST, ObjectId::SUPER_BLOCK);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn user_key_rejects_root_pid() {
        let _ = ObjectKey::user(PartitionId::ROOT, ObjectId::new(0x99999));
    }

    #[test]
    fn display_formats() {
        let key = ObjectKey::new(PartitionId::FIRST, ObjectId::new(0x10005));
        assert_eq!(key.to_string(), "(pid:0x10000, oid:0x10005)");
        assert_eq!(ObjectKind::SuperBlock.to_string(), "super-block");
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = ObjectKey::new(PartitionId::FIRST, ObjectId::new(5));
        let b = ObjectKey::new(PartitionId::FIRST, ObjectId::new(6));
        let c = ObjectKey::new(PartitionId::new(0x20000), ObjectId::new(0));
        assert!(a < b && b < c);
    }
}
