#![warn(missing_docs)]
//! Simulated flash SSDs and arrays for the Reo reproduction.
//!
//! The paper's testbed used an array of five 120 GB Intel 540s SATA SSDs.
//! This crate substitutes a deterministic user-space model that preserves
//! what the evaluation measures:
//!
//! * [`FlashDevice`] — one SSD: a chunk store with a service-time model,
//!   per-device queueing (operations on one device serialize; operations on
//!   different devices overlap), program/erase wear accounting, and a
//!   failure state. Failing a device corrupts every chunk on it, exactly
//!   like the paper's "shootdown" command.
//! * [`FlashArray`] — an ordered set of devices behind one
//!   [`SimClock`](reo_sim::SimClock),
//!   with whole-device failure injection and spare insertion
//!   ([`FlashArray::replace_device`]) that triggers the caller's rebuild
//!   path.
//! * [`FaultPlan`] — seeded partial-failure injection: latent per-chunk
//!   corruption, transient read timeouts, and stuck-device slowdowns, all
//!   deterministic under one seed.
//! * [`ChunkHandle`] / [`StoredChunk`] — chunk addressing and contents.
//!   Chunks can carry real payloads (used by the tests and examples to
//!   verify reconstruction byte-for-byte) or be payload-free, in which case
//!   only sizes/placement are tracked and service time is still charged —
//!   that is what the large experiment sweeps use.
//!
//! # Examples
//!
//! ```
//! use reo_flashsim::{DeviceConfig, FlashArray};
//! use reo_sim::{ByteSize, ServiceModel, SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! let cfg = DeviceConfig {
//!     capacity: ByteSize::from_gib(120),
//!     read: ServiceModel::new(SimDuration::from_micros(90), 520 * 1024 * 1024),
//!     write: ServiceModel::new(SimDuration::from_micros(220), 470 * 1024 * 1024),
//!     erase_block: ByteSize::from_mib(2),
//!     pe_cycle_limit: 3000,
//! };
//! let mut array = FlashArray::new(5, cfg, clock);
//! assert_eq!(array.device_count(), 5);
//! assert_eq!(array.healthy_devices().len(), 5);
//! ```

mod array;
mod chunk;
mod device;
mod fault;

pub use array::{ArrayStats, DeviceReport, FlashArray};
pub use chunk::{ChunkHandle, ChunkPayload, StoredChunk};
pub use device::{
    DeviceConfig, DeviceId, DeviceState, DeviceStats, FlashDevice, FlashError, ShareStatus,
};
pub use fault::FaultPlan;
