//! Per-run heap footprint of the 16,000-block slice. The simulated machine
//! (20 processors, 20 disks, a few buffers per node) is fixed, so a run's
//! peak heap must stay sized by that machine and by the read samples the
//! metrics report — not grow with always-on per-block or per-event
//! bookkeeping. Its own test binary: the counting allocator below sees
//! every allocation in the process, so no other test may run alongside.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use rapid_transit::core::experiment::RunHandle;
use rapid_transit::core::{ExperimentConfig, PrefetchConfig};
use rapid_transit::patterns::{AccessPattern, SyncStyle};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting live and peak heap bytes.
struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's own pointer and
// layout, so `System`'s guarantees carry over unchanged; the counters are
// statistics only and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Heap bytes a run adds at its high-water mark, from world build through
/// metric collection.
fn run_peak_bytes(cfg: &ExperimentConfig) -> usize {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let metrics = RunHandle::start(cfg).finish();
    let peak = PEAK.load(Relaxed);
    assert_eq!(metrics.total_reads(), 16_000);
    peak - before
}

#[test]
fn slice_runs_peak_heap_stays_bounded() {
    // (prefetch, bound in bytes): about 1.25x the measured peaks of
    // 609,668 and 745,972 bytes. State that grows by tens of bytes per
    // file block or per event does not fit under them.
    for (prefetch, bound) in [(false, 760_000), (true, 930_000)] {
        let mut cfg = ExperimentConfig::paper_default(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
        );
        cfg.workload.file_blocks = 16_000;
        cfg.workload.total_reads = 16_000;
        if prefetch {
            cfg.prefetch = PrefetchConfig::paper();
        }
        let peak = run_peak_bytes(&cfg);
        println!("gw slice pf={prefetch}: peak heap {peak} bytes");
        assert!(
            peak <= bound,
            "gw slice pf={prefetch}: peak heap {peak} bytes exceeds {bound}"
        );
    }
}
