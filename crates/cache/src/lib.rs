#![warn(missing_docs)]
//! The object cache manager of Reo (the `osd-initiator` side).
//!
//! The paper's cache manager (~2,000 lines of C on the initiator, Section
//! V) owns the *policy* decisions; the object storage target executes
//! them. This crate reproduces those policies:
//!
//! * **LRU replacement at object granularity** ([`LruList`]) — "for cache
//!   replacement, we use the standard Least Recently Used (LRU)
//!   replacement algorithm... implemented at the object level".
//! * **Hotness tracking** — every object carries a `Freq` access counter;
//!   its hotness is `H = Freq / Size` (Section IV-C.1): small, frequently
//!   read objects are the most valuable per byte of cache.
//! * **Adaptive hot/cold threshold** ([`CacheManager::recompute_hot_threshold`])
//!   — take clean objects hottest first (descending `H`), as long a run of
//!   them as the configured redundancy reserve (e.g. 10% of cache space)
//!   holds the parity of, and use the last one's `H` as `H_hot`. The run
//!   is charged its exact byte sum and selected in time linear in the
//!   number of candidates.
//! * **Classification** (Table II via [`reo_osd::ClassifierInputs`]) —
//!   metadata → class 0, dirty → class 1, hot clean → class 2, cold clean
//!   → class 3. Class changes are what the initiator ships to the target
//!   as `#SETID#` control messages.
//! * **The periodic refresh** ([`CacheManager::refresh_classification`])
//!   — recompute `H_hot`, then reclassify the clean entries the threshold
//!   sweep scanned (the only ones whose class depends on it; metadata and
//!   dirty entries are relabelled as their flags change) and return the
//!   changes in key order.
//!
//! The manager deliberately does *not* talk to devices: it is pure policy
//! over an index of cached objects, so it can be tested exhaustively and
//! reused under both the Reo and the uniform-protection configurations.
//!
//! # Examples
//!
//! ```
//! use reo_cache::{CacheConfig, CacheManager};
//! use reo_osd::{ObjectId, ObjectKey, PartitionId};
//! use reo_sim::ByteSize;
//!
//! let mut cache = CacheManager::new(CacheConfig {
//!     capacity: ByteSize::from_mib(64),
//!     redundancy_reserve: 0.10,
//!     hot_parity_overhead: 2.0 / 3.0, // 2 parity per 3 data chunks on 5 devices
//!     size_aware_hotness: true,
//! });
//! let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
//! cache.insert(key, ByteSize::from_mib(4), false, false);
//! cache.record_access(key);
//! assert!(cache.contains(key));
//! ```

mod entry;
mod lru;
mod manager;

pub use entry::CacheEntry;
pub use lru::LruList;
pub use manager::{CacheConfig, CacheManager, CacheStats, ClassChange};
