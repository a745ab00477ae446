//! Reusable scratch workspaces for the allocation-free query path.
//!
//! The batched query facades (`cut_batch`, `cut_batch_into`) stop
//! paying the allocator on every call by staging their transients in a
//! [`Scratch`]: plain `Vec`s that are `clear()`ed (capacity retained)
//! instead of dropped. After the first call at a given batch size every
//! buffer is warm and the batch runs with **zero heap allocations**
//! (gated by `tests/zero_alloc_gate.rs`).
//!
//! Ownership rules (DESIGN.md §13):
//!
//! * A `Scratch` is exclusively borrowed for the duration of one kernel
//!   call; kernels never stash pointers into it across calls.
//! * Buffers carry no meaning between calls — every kernel `clear()`s
//!   what it uses before writing. Reuse is an optimization, never a
//!   behavioral input, so results are bit-identical whichever `Scratch`
//!   (fresh or warm) serves a call.
//! * Callers that own no workspace borrow one through [`with_scratch`],
//!   a per-thread pool recycled pop/push-style, so the steady state
//!   touches no allocator.

use std::cell::RefCell;

/// The transient buffers of the batched query paths, named after
/// their role.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Packed `(key, slot)` pairs — batch dedup sorts.
    pub keys: Vec<(u64, u32)>,
}

thread_local! {
    /// Per-worker workspace pool. A pool (rather than a single slot)
    /// keeps [`with_scratch`] reentrancy-safe: a kernel that calls
    /// another kernel on the same thread pops a second workspace instead
    /// of aliasing the first.
    static WORKER_SCRATCH: RefCell<Vec<Scratch>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with this worker's pooled [`Scratch`]. The workspace is
/// popped before and pushed back after, so nested calls compose and the
/// steady state performs no allocation (the pool `Vec` and every buffer
/// inside the recycled workspaces keep their capacity).
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut s = WORKER_SCRATCH
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let r = f(&mut s);
    WORKER_SCRATCH.with(|pool| pool.borrow_mut().push(s));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_scratch_recycles_capacity() {
        let cap0 = with_scratch(|s| {
            s.keys.clear();
            s.keys.extend((0..1000u32).map(|i| (i as u64, i)));
            s.keys.capacity()
        });
        // The same thread gets the same (warm) workspace back.
        let cap1 = with_scratch(|s| s.keys.capacity());
        assert!(cap1 >= cap0);
        assert!(cap1 >= 1000);
    }

    #[test]
    fn with_scratch_is_reentrant() {
        let (a, b) = with_scratch(|outer| {
            outer.keys.clear();
            outer.keys.push((7, 0));
            let inner_val = with_scratch(|inner| {
                // The nested workspace is a different object.
                inner.keys.clear();
                inner.keys.push((9, 0));
                inner.keys[0].0
            });
            (outer.keys[0].0, inner_val)
        });
        assert_eq!((a, b), (7, 9));
    }
}
