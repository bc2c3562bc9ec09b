//! A counting allocator for tests that pin memory.
//!
//! [`CountingAlloc`] is the system allocator plus three counters:
//! allocations made, bytes live, and the peak of bytes live since the last
//! [`CountingAlloc::reset_peak`]. A test binary installs it as its global
//! allocator; nothing else in the workspace does, so no production binary
//! pays for the counting:
//!
//! ```
//! #[global_allocator]
//! static ALLOC: stdx::CountingAlloc = stdx::CountingAlloc::new();
//!
//! fn main() {
//!     ALLOC.reset_peak();
//!     let before = ALLOC.live_bytes();
//!     drop(vec![0u8; 4096]);
//!     assert!(ALLOC.peak_bytes() >= before + 4096);
//! }
//! ```
//!
//! The counters are relaxed atomics: each is one read-modify-write per
//! allocator call and publishes no other data. Live bytes are exact, since
//! every change to them is one atomic add or subtract; the peak is the
//! largest value those adds produced.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator, counting. See the module documentation.
#[derive(Debug, Default)]
pub struct CountingAlloc {
    allocations: AtomicU64,
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl CountingAlloc {
    /// A counter at zero, usable in a `static`.
    pub const fn new() -> Self {
        CountingAlloc {
            allocations: AtomicU64::new(0),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Calls that returned new memory: `alloc`, `alloc_zeroed` and
    /// `realloc`.
    pub fn allocations(&self) -> u64 {
        self.allocations.load(Ordering::Relaxed)
    }

    /// Bytes allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// The most bytes live at once since the last [`Self::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Restart the peak from the bytes live now.
    pub fn reset_peak(&self) {
        self.peak.store(self.live_bytes(), Ordering::Relaxed);
    }

    fn grew(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    fn allocated(&self, ptr: *mut u8, bytes: usize) -> *mut u8 {
        if !ptr.is_null() {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            self.grew(bytes);
        }
        ptr
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements `GlobalAlloc`, and returns what `System` returned; the caller's
// obligations are those of the same method on `System`. The counting around
// the calls touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for `layout`.
        self.allocated(unsafe { System.alloc(layout) }, layout.size())
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        self.allocated(unsafe { System.alloc_zeroed(layout) }, layout.size())
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`, with
        // `layout`, as `GlobalAlloc::dealloc` requires of the caller.
        unsafe { System.dealloc(ptr, layout) };
        self.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract for
        // `ptr`, `layout` and `new_size`, and `ptr` came from `System`.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            self.allocations.fetch_add(1, Ordering::Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => self.grew(more),
                None => self.shrank(layout.size() - new_size),
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_live_bytes_and_their_peak_through_every_call() {
        let counter = CountingAlloc::new();
        let small = Layout::from_size_align(64, 8).unwrap();
        // SAFETY: each pointer is freed once, with the layout that sized it.
        unsafe {
            let a = counter.alloc(small);
            let b = counter.alloc_zeroed(small);
            assert!(!a.is_null() && !b.is_null());
            assert_eq!(*b, 0);
            assert_eq!((counter.live_bytes(), counter.peak_bytes()), (128, 128));

            let a = counter.realloc(a, small, 256);
            assert_eq!((counter.live_bytes(), counter.peak_bytes()), (320, 320));
            let big = Layout::from_size_align(256, 8).unwrap();
            let a = counter.realloc(a, big, 16);
            assert_eq!((counter.live_bytes(), counter.peak_bytes()), (80, 320));

            counter.reset_peak();
            assert_eq!(counter.peak_bytes(), 80);
            counter.dealloc(b, small);
            counter.dealloc(a, Layout::from_size_align(16, 8).unwrap());
        }
        assert_eq!((counter.live_bytes(), counter.peak_bytes()), (0, 80));
        assert_eq!(counter.allocations(), 4);
    }
}
