//! A counting global allocator for tests that assert a hot path performs no
//! heap allocation.
//!
//! Consumers install it as their test binary's global allocator — the
//! declaration itself is safe code, so the consuming crate keeps its
//! `#![forbid(unsafe_code)]`:
//!
//! ```rust,ignore
//! #[global_allocator]
//! static ALLOC: allocmeter::Counting = allocmeter::Counting;
//!
//! let before = allocmeter::allocations();
//! hot_path();
//! assert_eq!(allocmeter::allocations() - before, 0);
//! ```
//!
//! [`allocated_bytes`] tallies the bytes those calls asked for, for tests
//! that bound how much a path allocates rather than how often.
//!
//! Counts are process-global and monotone; tests that share a binary must
//! compare deltas, not absolutes, and should run single-threaded (or accept
//! other threads' allocations in the delta).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The counting allocator: forwards to [`System`], tallying every
/// allocation-acquiring call (`alloc`, `alloc_zeroed`, `realloc`) and the
/// bytes it asked for.
pub struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`, which upholds the GlobalAlloc
// contract; the counter is a relaxed atomic with no effect on layout or
// pointer validity.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation-acquiring calls since process start.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Total bytes the allocation-acquiring calls asked for since process
/// start: each block's size, and for a `realloc` the new size.
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}
