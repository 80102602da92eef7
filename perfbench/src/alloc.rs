//! Host-side resource accounting: a counting global allocator and the
//! process's peak resident set size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations made on each thread.
struct CountingAlloc;

thread_local! {
    /// Allocations (including reallocations) made on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Set while the tracer itself runs, so its own bookkeeping does
    /// not count against the program.
    static PAUSED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown find the slots gone.
    let _ = PAUSED.try_with(|p| {
        if !p.get() {
            let _ = ALLOCS.try_with(|a| a.set(a.get().wrapping_add(1)));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on the calling thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Runs `f` without counting its allocations.
pub fn uncounted<R>(f: impl FnOnce() -> R) -> R {
    let was = PAUSED.with(|p| p.replace(true));
    let r = f();
    PAUSED.with(|p| p.set(was));
    r
}

/// Peak resident set size of this process in MiB (children excluded),
/// from `VmHWM` in `/proc/self/status`. Not `getrusage`: Linux carries
/// the launching process's peak into `ru_maxrss` across `exec`, so under
/// `cargo run` it would report cargo's memory whenever that is larger.
///
/// # Panics
///
/// Panics if `/proc/self/status` has no readable `VmHWM` line.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kib / 1024.0
}
