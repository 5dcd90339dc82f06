#![warn(missing_docs)]
//! Reed–Solomon erasure coding for the Reo flash cache, built from scratch.
//!
//! Reo protects "hot clean" cache objects with parity chunks inside each
//! stripe (Section IV-C of the paper) and reconstructs corrupted chunks from
//! any `m` surviving fragments. This crate implements everything that
//! requires:
//!
//! * [`gf256`] — arithmetic in GF(2^8) with the AES/RS-standard reducing
//!   polynomial `x^8 + x^4 + x^3 + x^2 + 1` (0x11d).
//! * [`ReedSolomon`] — an `m` data + `k` parity systematic code over a
//!   Vandermonde matrix (inverted by Gauss–Jordan elimination, a
//!   crate-private matrix type): encode, and reconstruct any ≤ `k` missing
//!   shards.
//! * [`delta`] — delta parity-updating: patch every parity shard with the
//!   change to one data shard, without reading the others.
//!
//! # Examples
//!
//! ```
//! use reo_erasure::ReedSolomon;
//!
//! let rs = ReedSolomon::new(3, 2)?;
//! let data: Vec<Vec<u8>> = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
//! let mut shards: Vec<Option<Vec<u8>>> = data.iter().cloned().map(Some).collect();
//! shards.extend(rs.encode(&data)?.into_iter().map(Some));
//!
//! // Lose any two shards...
//! shards[0] = None;
//! shards[3] = None;
//! // ...and get them back.
//! let rs2 = ReedSolomon::new(3, 2)?;
//! rs2.reconstruct(&mut shards)?;
//! assert_eq!(shards[0].as_deref(), Some(&[1u8, 2][..]));
//! # Ok::<(), reo_erasure::CodecError>(())
//! ```

pub mod delta;
pub mod gf256;
mod matrix;
mod rs;

pub use rs::{CodecError, ReedSolomon};
