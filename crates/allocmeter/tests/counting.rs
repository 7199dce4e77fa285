//! Exercises every `GlobalAlloc` entry point of [`allocmeter::Counting`]
//! with the meter installed as this binary's global allocator.
//!
//! Doubles as the workspace's Miri gate: `scripts/check.sh verify` runs
//! `cargo miri test -p allocmeter` (when the miri component is installed)
//! so the crate's `unsafe` pass-through is checked for UB — bad layouts,
//! invalid pointer hand-offs, or counter data races would all surface here.

use std::alloc::{GlobalAlloc, Layout};

#[global_allocator]
static ALLOC: allocmeter::Counting = allocmeter::Counting;

/// `alloc` / `dealloc` via ordinary heap use: each `Box::new` is exactly
/// one allocation-acquiring call; drops are not counted.
#[test]
fn boxes_count_allocs_not_frees() {
    let before = allocmeter::allocations();
    let a = Box::new(17u64);
    let b = Box::new([0u8; 128]);
    let mid = allocmeter::allocations();
    assert!(mid - before >= 2, "two boxes, {} allocs", mid - before);
    drop(a);
    drop(b);
    // A pure free must not move the meter.  Other test threads may
    // allocate between the two reads of one window, so repeat the window
    // until one is quiet: a counting `dealloc` moves the meter in every
    // window and never gets one.
    let layout = Layout::new::<u64>();
    let quiet = (0..10_000).any(|_| {
        // SAFETY: layout is valid and non-zero-sized; the pointer is freed
        // exactly once with the same layout it was acquired with.
        unsafe {
            let p = ALLOC.alloc(layout);
            assert!(!p.is_null());
            let at_alloc = allocmeter::allocations();
            ALLOC.dealloc(p, layout);
            allocmeter::allocations() == at_alloc
        }
    });
    assert!(quiet, "dealloc moved the allocation meter in every window");
}

/// The byte tally grows by at least what the boxes asked for.
#[test]
fn bytes_tally_the_sizes_asked_for() {
    let before = allocmeter::allocated_bytes();
    let a = std::hint::black_box(Box::new([0u8; 4096]));
    let grown = allocmeter::allocated_bytes() - before;
    assert!(grown >= 4096, "a 4096-byte box tallied {grown} bytes");
    drop(a);
}

/// `alloc_zeroed` counts and actually zeroes.
#[test]
fn alloc_zeroed_counts_and_zeroes() {
    let layout = Layout::from_size_align(64, 8).unwrap();
    let before = allocmeter::allocations();
    // SAFETY: valid non-zero-sized layout; memory freed once below.
    unsafe {
        let p = ALLOC.alloc_zeroed(layout);
        assert!(!p.is_null());
        assert!(allocmeter::allocations() > before);
        for i in 0..layout.size() {
            assert_eq!(*p.add(i), 0, "byte {i} not zeroed");
        }
        ALLOC.dealloc(p, layout);
    }
}

/// `realloc` counts as an allocation-acquiring call and preserves the
/// prefix, both growing and shrinking.
#[test]
fn realloc_counts_and_preserves_contents() {
    let layout = Layout::from_size_align(16, 8).unwrap();
    // SAFETY: valid layouts; every pointer is written within its
    // allocation's bounds and freed exactly once with its current layout.
    unsafe {
        let p = ALLOC.alloc(layout);
        assert!(!p.is_null());
        for i in 0..16u8 {
            *p.add(i as usize) = i;
        }
        let before = allocmeter::allocations();
        let grown = ALLOC.realloc(p, layout, 64);
        assert!(!grown.is_null());
        assert!(allocmeter::allocations() > before, "realloc not counted");
        for i in 0..16u8 {
            assert_eq!(*grown.add(i as usize), i, "grow lost byte {i}");
        }
        let grown_layout = Layout::from_size_align(64, 8).unwrap();
        let shrunk = ALLOC.realloc(grown, grown_layout, 8);
        assert!(!shrunk.is_null());
        for i in 0..8u8 {
            assert_eq!(*shrunk.add(i as usize), i, "shrink lost byte {i}");
        }
        ALLOC.dealloc(shrunk, Layout::from_size_align(8, 8).unwrap());
    }
}

/// Vec growth exercises the realloc path through the installed meter and
/// the count stays monotone across threads.
#[test]
fn meter_is_monotone_under_concurrency() {
    let before = allocmeter::allocations();
    let handles: Vec<_> = (0..2)
        .map(|t| {
            std::thread::spawn(move || {
                let mut v = Vec::new();
                for i in 0..256u32 {
                    v.push(i + t);
                }
                v.iter().copied().sum::<u32>()
            })
        })
        .collect();
    let sums: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(sums.len(), 2);
    assert!(
        allocmeter::allocations() > before,
        "growing vectors never hit the meter"
    );
}
