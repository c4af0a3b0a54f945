//! An allocation counter behind the global allocator.
//!
//! Traced mode switches it on around a region and reads exact
//! allocation counts and bytes — usable where time is too noisy. The
//! switch and the counters are per thread, so a count is exact even
//! while other threads allocate concurrently (libtest's, or
//! `Cluster::map`'s pool workers, whose allocations are deliberately
//! not attributed to the caller). While it is off — always, in untraced
//! mode — an allocation pays one thread-local load and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without destructors: safe to touch from
    // inside the allocator (no lazy initialisation, no allocation).
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's calls while
/// [`count`] is running on it.
pub struct Counting;

#[inline]
fn note(size: usize) {
    // `try_with`: an allocation during thread teardown is not counted.
    if ENABLED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch
// the returned memory and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as-is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc`; `ptr` and `layout` come from the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) and the bytes
/// they asked for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCount {
    pub allocs: u64,
    pub bytes: u64,
}

impl AllocCount {
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            allocs: self.allocs.saturating_sub(earlier.allocs),
            bytes: self.bytes.saturating_sub(earlier.bytes),
        }
    }
}

/// This thread's running totals; the difference of two snapshots taken
/// inside one [`count`] region is exact.
pub fn snapshot() -> AllocCount {
    AllocCount {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    }
}

/// Run `f` with counting switched on for this thread and return what
/// it allocated. Regions nest: an inner region leaves counting on for
/// the outer one.
pub fn count<R>(f: impl FnOnce() -> R) -> (AllocCount, R) {
    let was_on = ENABLED.with(|e| e.replace(true));
    let before = snapshot();
    let out = f();
    let counted = snapshot().since(before);
    ENABLED.with(|e| e.set(was_on));
    (counted, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_counter_is_exact_when_on_and_silent_when_off() {
        let (counted, v) = count(|| {
            // Three allocations: the outer buffer, then two inner ones.
            let inner: [Vec<u64>; 2] = [Vec::with_capacity(8), Vec::with_capacity(16)];
            let mut outer = Vec::with_capacity(2);
            outer.extend(inner);
            outer
        });
        assert_eq!(counted.allocs, 3);
        assert_eq!(counted.bytes, 8 * 8 + 16 * 8 + 2 * 24);
        drop(v);

        // Off: allocations happen, the totals do not move.
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(1024);
        assert_eq!(snapshot().since(before), AllocCount::default());
        drop(v);

        // A growing vector reallocates: each growth is one more call.
        let (counted, ()) = count(|| {
            let mut v: Vec<u64> = Vec::with_capacity(1);
            v.extend([1, 2]);
            std::hint::black_box(&v);
        });
        assert_eq!(counted.allocs, 2);
    }
}
