//! Heap accounting: the bytes the process has asked its allocator for and
//! not yet given back, now and at their peak.
//!
//! `VmHWM` cannot serve as a bounded metric here. glibc raises its mmap
//! threshold to the size of the first large block freed, after which the
//! 27 MB snapshot buffers of every tier are carved from, and retained in,
//! whichever thread's arena got there first: identical runs peak anywhere
//! from 248 to 277 MB resident, of which 120 MB are live. (Pinning the
//! threshold makes the resident peak repeat, and slows every workload by a
//! third, because each buffer is then mapped and faulted in afresh.) What
//! the program asks for repeats to within a per cent, and is what a change
//! to the program changes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counted. Installed as the global allocator of the
/// benchmark binary, so it counts every crate in the process.
pub struct Counted;

// Statistics only: no other memory is published through them.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed) + by;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never influence what is returned.
unsafe impl GlobalAlloc for Counted {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on as they are.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    // Forwarded, not defaulted: `System` gets zeroed pages from the kernel
    // without touching them, which is how a fresh sketch grid is cheap.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as above.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as above.
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        q
    }
}

/// Forgets the peak so far: a later [`peak_mb`] covers only what follows.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Most bytes live at once since the last [`reset_peak`], in megabytes.
pub fn peak_mb() -> f64 {
    PEAK.load(Relaxed) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_peak_follows_a_large_block_and_outlives_it() {
        const BLOCK: usize = 64 << 20;
        reset_peak();
        let before = peak_mb();
        let block = vec![0u8; BLOCK];
        std::hint::black_box(&block);
        drop(block);
        // Other tests allocate at the same time, but nothing of this size.
        assert!(peak_mb() >= before + 63.0, "{} -> {}", before, peak_mb());
        reset_peak();
        assert!(peak_mb() < before + 32.0, "{} -> {}", before, peak_mb());
    }
}
