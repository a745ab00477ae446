//! Counting-allocator metering: allocations and peak bytes per phase.
//!
//! The zero-allocation claim of the steady-state query path (DESIGN.md
//! §13) is *measured*, not asserted: binaries and the gate test install
//! [`CountingAlloc`] as their `#[global_allocator]` and bracket each
//! phase with [`measure`], which reports how many heap allocations the
//! phase performed and how far the live-byte high-water mark rose above
//! the phase's entry level. `tests/zero_alloc_gate.rs` asserts the
//! steady-state `cut_batch_into` gauge is exactly 0.
//!
//! The wrapper delegates every operation to [`System`] and adds three
//! relaxed atomic counters, so it is cheap enough to leave installed
//! for whole benchmark runs. Counters are process-global: gauges are
//! meaningful when the measured phase runs single-threaded (the gated
//! batch kernels are) or when concurrent allocation noise is
//! acceptable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Total successful heap allocations (including the alloc half of every
/// realloc) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live (allocated minus freed).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `LIVE_BYTES`, resettable via [`reset_peak`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: u64) {
    // Relaxed everywhere: the counters are statistics, not
    // synchronization — no other memory accesses are ordered by them,
    // and per-counter monotonicity is all the gauges need.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    // CAS-max: lift the peak if this allocation raised the water line.
    // Relaxed is enough — the loop only needs atomicity of the single
    // counter, and a stale read just retries.
    let mut peak = PEAK_BYTES.load(Ordering::Relaxed);
    while live > peak {
        match PEAK_BYTES.compare_exchange_weak(peak, live, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => peak = now,
        }
    }
}

fn on_free(size: u64) {
    // Relaxed: statistics only, see `on_alloc`.
    LIVE_BYTES.fetch_sub(size, Ordering::Relaxed);
}

/// A `System`-delegating allocator that counts allocations and tracks
/// the live/peak byte water line. Install per binary:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: pmc_bench::alloc_meter::CountingAlloc = pmc_bench::alloc_meter::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added counter updates touch no allocator
// state and never observe or fabricate pointers. `GlobalAlloc` is an
// unsafe trait by design — this impl is the one sanctioned place in the
// workspace that implements it.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System` under the caller's contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    // SAFETY: forwards to `System` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size() as u64);
        }
        p
    }

    // SAFETY: forwards to `System` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded under the caller's contract.
        unsafe { System.dealloc(ptr, layout) };
        on_free(layout.size() as u64);
    }

    // SAFETY: forwards to `System` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded under the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // A successful realloc retires the old block and produces a
            // new one; count it as one allocation so "0 allocs" truly
            // means the steady state never touched the allocator.
            on_free(layout.size() as u64);
            on_alloc(new_size as u64);
        }
        p
    }
}

/// Point-in-time reading of the process-global counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub live_bytes: u64,
    pub peak_bytes: u64,
}

/// Read the counters. All three are zero forever unless
/// [`CountingAlloc`] is installed as the `#[global_allocator]`.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        // Relaxed: statistics reads, see `on_alloc`.
        allocs: ALLOCS.load(Ordering::Relaxed),
        live_bytes: LIVE_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// Drop the high-water mark back to the current live level, so the next
/// [`measure`] reports peak growth relative to its own entry point.
pub fn reset_peak() {
    // Relaxed: statistics only; racing allocations re-raise the mark
    // through the CAS-max in `on_alloc`.
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// What one measured phase did to the heap: how many allocations it
/// performed and how many bytes its high-water mark rose above the
/// live bytes at phase entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocGauge {
    pub allocs: u64,
    pub peak_growth_bytes: u64,
}

/// Run `f` and gauge its heap behavior. Meaningful when `f` is the only
/// allocating activity in the process for its duration.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, AllocGauge) {
    let before = snapshot();
    reset_peak();
    let r = f();
    let after = snapshot();
    (
        r,
        AllocGauge {
            allocs: after.allocs - before.allocs,
            peak_growth_bytes: after.peak_bytes.saturating_sub(before.live_bytes),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // NOTE: these tests do not install the allocator (a test binary
    // can't, per-crate, without affecting every other test); they pin
    // the pure accounting logic instead. End-to-end counting is covered
    // by the root `zero_alloc_gate` integration test, which installs
    // `CountingAlloc` for its whole binary.

    /// One sequential test (the counters are process-global; parallel
    /// sibling tests poking them would race the deltas).
    #[test]
    fn accounting_logic() {
        // Gauge arithmetic over manual events.
        let s0 = snapshot();
        on_alloc(1000);
        on_alloc(24);
        on_free(24);
        let s1 = snapshot();
        assert_eq!(s1.allocs - s0.allocs, 2);
        assert_eq!(s1.live_bytes - s0.live_bytes, 1000);
        assert!(s1.peak_bytes >= s1.live_bytes.max(s0.live_bytes));
        on_free(1000);

        // Peak is monotone until reset.
        on_alloc(4096);
        let high = snapshot().peak_bytes;
        on_free(4096);
        assert_eq!(snapshot().peak_bytes, high, "free must not lower the mark");
        reset_peak();
        assert!(snapshot().peak_bytes <= high);
        assert_eq!(snapshot().peak_bytes, snapshot().live_bytes);

        // Without the global installation, `f` can't move the counters;
        // the gauge must read exactly zero (no false positives).
        let (sum, gauge) = measure(|| (0u64..100).sum::<u64>());
        assert_eq!(sum, 4950);
        assert_eq!(gauge.allocs, 0);
        assert_eq!(gauge.peak_growth_bytes, 0);
    }
}
