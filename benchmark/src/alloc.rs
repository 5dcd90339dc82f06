//! A counting allocator: every heap allocation the process makes is
//! tallied (calls and requested bytes), so "allocations per request" is
//! a count that repeats exactly, not an estimate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts what passes through.
///
/// `alloc`, `alloc_zeroed` and `realloc` each count as one call of the
/// size asked for; frees are not counted (the metrics are about
/// allocation pressure, not live bytes — `peak_rss_mib` covers those).
pub struct CountingAlloc {
    calls: AtomicU64,
    bytes: AtomicU64,
}

/// A reading of the two counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// Counter movement since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            calls: self.calls - earlier.calls,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl CountingAlloc {
    pub const fn new() -> Self {
        CountingAlloc {
            calls: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// The counters now. They are statistics and publish no other data,
    /// so `Relaxed` is enough.
    pub fn count(&self) -> AllocCount {
        AllocCount {
            calls: self.calls.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    fn note(&self, size: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with `layout`, and `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests drive a private instance, not the process-wide one, so
    // allocations made by other test threads cannot disturb the counts.

    #[test]
    fn counts_a_known_pattern_exactly() {
        let a = CountingAlloc::new();
        let l64 = Layout::from_size_align(64, 8).unwrap();
        let l100 = Layout::from_size_align(100, 4).unwrap();
        // SAFETY: non-zero layouts; each pointer is freed (or grown and
        // then freed) with the layout it currently has.
        unsafe {
            let p = a.alloc(l64);
            let q = a.alloc_zeroed(l100);
            assert_eq!(std::slice::from_raw_parts(q, 100), &[0u8; 100][..]);
            let p = a.realloc(p, l64, 256);
            a.dealloc(p, Layout::from_size_align(256, 8).unwrap());
            a.dealloc(q, l100);
        }
        assert_eq!(
            a.count(),
            AllocCount {
                calls: 3,
                bytes: 64 + 100 + 256
            }
        );
        let base = a.count();
        // SAFETY: as above.
        unsafe {
            let p = a.alloc(l64);
            a.dealloc(p, l64);
        }
        assert_eq!(
            a.count().since(base),
            AllocCount {
                calls: 1,
                bytes: 64
            }
        );
    }

    #[test]
    fn counts_are_exact_across_threads() {
        let a = CountingAlloc::new();
        let layout = Layout::from_size_align(32, 8).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    // All four threads allocate at once.
                    start.wait();
                    for _ in 0..10_000 {
                        // SAFETY: non-zero layout, freed with the same one.
                        unsafe {
                            let p = a.alloc(layout);
                            a.dealloc(p, layout);
                        }
                    }
                });
            }
        });
        assert_eq!(
            a.count(),
            AllocCount {
                calls: 40_000,
                bytes: 40_000 * 32
            }
        );
    }
}
