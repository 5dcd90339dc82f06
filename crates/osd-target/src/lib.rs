#![warn(missing_docs)]
//! The object-storage target of Reo (the `osd-target` side).
//!
//! The paper's target is a user-level program (~6,000 added lines of C,
//! Section V) that manages data objects on the flash array: the host file
//! system and SQLite metadata database of stock `open-osd` were replaced
//! with the flash SSD array and a hash table. This crate reproduces that
//! role on top of [`reo_stripe::StripeManager`]:
//!
//! * [`OsdTarget`] — the hash-table object index, the typed data paths
//!   the cache server calls (create, read, range write, class change,
//!   remove, query), and the control-object mailbox
//!   ([`OsdTarget::handle_control_write`]) that decodes `#SETID#` /
//!   `#QUERY#` messages.
//! * [`ProtectionPolicy`] — the data encoding policy of Section IV-C.4:
//!   under differentiated redundancy, metadata and dirty objects are
//!   replicated across all devices, hot clean objects get a fixed
//!   2-parity, cold clean objects get none; under uniform protection
//!   every object gets the same scheme (the paper's 0/1/2-parity and
//!   full-replication baselines).
//! * [`RecoveryEngine`] — differentiated recovery (Section IV-D): after a
//!   spare is inserted, damaged-but-recoverable objects are queued in one
//!   FIFO per class and popped lowest class first (metadata first, cold
//!   clean last), one at a time, so that on-demand requests can
//!   interleave at higher priority. Only valid objects are rebuilt;
//!   irrecoverable ones are reported for eviction instead of being
//!   scanned block-by-block.
//!
//! # Examples
//!
//! ```
//! use reo_flashsim::{DeviceConfig, FlashArray};
//! use reo_osd::{ObjectClass, ObjectId, ObjectKey, PartitionId};
//! use reo_osd_target::{OsdTarget, ProtectionPolicy};
//! use reo_sim::{ByteSize, SimClock};
//! use reo_stripe::StripeManager;
//!
//! let array = FlashArray::new(5, DeviceConfig::intel_540s(), SimClock::new());
//! let stripes = StripeManager::new(array, ByteSize::from_kib(64));
//! let mut target = OsdTarget::new(stripes, ProtectionPolicy::differentiated());
//!
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
//! target.create_object(key, ByteSize::from_mib(1), ObjectClass::HotClean, None)?;
//! let outcome = target.read_object(key)?;
//! assert!(!outcome.degraded);
//! # Ok::<(), reo_osd_target::TargetError>(())
//! ```

mod policy;
mod recovery;
mod target;

pub use policy::ProtectionPolicy;
pub use recovery::{LedgerImbalance, RecoveryEngine, RecoveryItem};
pub use target::{
    OsdTarget, RecoveryOutcome, ScrubReport, TargetError, TargetRecovery, TargetStats,
};
