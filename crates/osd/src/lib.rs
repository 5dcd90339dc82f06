#![warn(missing_docs)]
//! A T10-style Object Storage Device (OSD) model in user space.
//!
//! The Reo prototype was built on `open-osd`, the Linux implementation of
//! the T10 OSD-2 SCSI command set. That stack is obsolete, so this crate
//! reproduces only the *interface semantics* Reo actually depends on —
//! per-object addressing and a side channel for class labels:
//!
//! * [`PartitionId`] / [`ObjectId`] / [`ObjectKey`] — the two-level object
//!   namespace, including the reserved metadata objects that `exofs`
//!   defined (Super Block `0x10000`, Device Table `0x10001`, Root Directory
//!   `0x10002`) and the Reo control object (`0x10004`). See Table I of the
//!   paper.
//! * [`ObjectKind`] — Root / Partition / User object types and the
//!   reserved objects above.
//! * [`ObjectClass`] — the four semantic classes of Table II (system
//!   metadata, dirty, hot clean, cold clean) that drive differentiated
//!   redundancy.
//! * [`SenseCode`] — the command status codes of Table III.
//! * [`control`] — the `#SETID#` / `#QUERY#` control-message wire codec
//!   written to the special object `0x10004` (Section IV-C.2).
//!
//! # Examples
//!
//! ```
//! use reo_osd::{ObjectClass, ObjectKey, PartitionId, ObjectId};
//! use reo_osd::control::ControlMessage;
//!
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x2_0000));
//! let msg = ControlMessage::SetClass { key, class: ObjectClass::HotClean };
//! let bytes = msg.encode();
//! assert_eq!(ControlMessage::decode(&bytes)?, msg);
//! # Ok::<(), reo_osd::control::ControlMessageError>(())
//! ```

mod class;
pub mod control;
mod id;
mod sense;

pub use class::{ClassifierInputs, ObjectClass};
pub use id::{ObjectId, ObjectKey, ObjectKind, PartitionId};
pub use sense::SenseCode;
