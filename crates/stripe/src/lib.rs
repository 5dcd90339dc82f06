#![warn(missing_docs)]
//! Stripe and chunk layout management for the Reo flash array.
//!
//! Section IV-C.3 of the paper: the flash array's basic management unit is
//! a *stripe* with a unique stripe ID, divided into chunks that map to
//! devices individually. A chunk is either a data chunk or a parity chunk;
//! parity chunks rotate round-robin across devices; and — unlike RAID — a
//! stripe may contain a *variable* number of parity chunks (0, 1, 2, …) or
//! be fully replicated. That per-stripe flexibility is what lets Reo give
//! each object class its own redundancy level.
//!
//! This crate provides:
//!
//! * [`RedundancyScheme`] — parity count or full replication, with space
//!   overhead math.
//! * [`StripeLayout`] — pure placement arithmetic: which device holds the
//!   j-th data chunk / p-th parity chunk of stripe *s* on an *n*-device
//!   array, with round-robin parity rotation.
//! * [`StripeManager`] — the stateful layer over a
//!   [`reo_flashsim::FlashArray`]: stores objects as stripes, reads them
//!   back (degraded reads included), reports per-object health after
//!   failures, rebuilds stripes onto spares, and accounts user vs
//!   redundancy bytes for the space-efficiency metric.
//!
//! # Examples
//!
//! ```
//! use reo_flashsim::{DeviceConfig, FlashArray};
//! use reo_sim::{ByteSize, SimClock};
//! use reo_stripe::{RedundancyScheme, StripeManager};
//!
//! let array = FlashArray::new(5, DeviceConfig::intel_540s(), SimClock::new());
//! let mut mgr = StripeManager::new(array, ByteSize::from_kib(64));
//! let layout = mgr.store_object(1, ByteSize::from_kib(300), RedundancyScheme::parity(2), None)?;
//! let outcome = mgr.read_object(&layout)?;
//! assert!(!outcome.degraded);
//! # Ok::<(), reo_stripe::StripeError>(())
//! ```

mod extent;
mod io;
mod layout;
mod manager;
mod rebuild;
mod recovery;
mod scheme;

pub use extent::{ObjectLayout, StripeId};
pub use layout::{ChunkRole, StripeLayout};
pub use manager::{
    ObjectStatus, ParityUpdate, ReadOutcome, Room, SpaceUsage, StripeError, StripeManager,
};
pub use recovery::ChunkRefs;
pub use scheme::RedundancyScheme;

#[cfg(test)]
mod tests;
