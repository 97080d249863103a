//! A counting global allocator for the allocation-bound tests
//! (`report_alloc.rs`, `request_alloc.rs`, `publish_alloc.rs`,
//! `apply_alloc.rs`), each of which pulls this file in with `#[path]` and so
//! installs it for its own binary (and `heap_footprint.rs`, for the live
//! bytes). The counts are per thread: what the test harness's main thread
//! allocates while a test starts up is not the measured code's.

#![allow(dead_code)] // each suite reads one of the two tallies

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // Const-initialised and without a destructor: reading it allocates
    // nothing and is sound at any point of a thread's life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    // Bytes and blocks this thread allocated minus those it freed: a block
    // freed on another thread than the one that allocated it skews these.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

fn live(delta: i64) {
    LIVE_BYTES.with(|n| n.set(n.get() + delta));
}

fn blocks(delta: i64) {
    LIVE_BLOCKS.with(|n| n.set(n.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain thread-local
// integers.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        blocks(1);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        blocks(-1);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls `f` makes on the calling thread.
pub fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.get();
    let out = f();
    (out, ALLOCATIONS.get() - before)
}

/// Heap bytes and blocks `f` leaves live on the calling thread: what it
/// allocated (requested sizes, not the allocator's rounding) less what it
/// freed.
pub fn live_heap_in<T>(f: impl FnOnce() -> T) -> (T, i64, i64) {
    let before = (LIVE_BYTES.get(), LIVE_BLOCKS.get());
    let out = f();
    (
        out,
        LIVE_BYTES.get() - before.0,
        LIVE_BLOCKS.get() - before.1,
    )
}
