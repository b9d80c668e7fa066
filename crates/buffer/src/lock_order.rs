//! Debug-build runtime enforcement of the declared lock order.
//!
//! `analysis/locks.toml` declares every lock class of the data plane with an
//! acquisition rank; the analyzer's `lock_order` rule, which `cargo test -q`
//! runs, proves the ranks form a topological order of every held→acquired
//! edge its static lock graph infers. This module closes the dynamic gap:
//! each thread tracks the highest rank it currently holds, and acquiring a
//! rank at or below it aborts a debug build at the exact acquisition site —
//! covering orderings the static graph cannot resolve (trait objects behind
//! iterator pipelines, locks reached through function pointers or closures).
//! A `get_batch_with` visitor that re-enters its buffer is such a case, and
//! `tests/visitor_reentry.rs` pins that the tracker catches it.
//!
//! The constants mirror `analysis/locks.toml`; keep the two in sync:
//!
//! * [`RANK_DRAW`] (10) — the sharded facade's consumer-serialising draw
//!   lock (outermost);
//! * [`RANK_WAIT`] (20) — the facade's wait gate: taken under the draw lock
//!   by the timed-wait poll, and *while held* the consumer re-checks shard
//!   populations, which takes sub-buffer internals;
//! * [`RANK_SUB_BUFFER`] (30) — the blocking shell's mutex (innermost).
//!
//! Release builds compile every hook to a no-op; call sites need no
//! `#[cfg]`. The tracker is thread-local: it checks nesting, not
//! cross-thread contention.

use parking_lot::MutexGuard;
use std::ops::{Deref, DerefMut};

/// Rank of the sharded facade's draw lock (outermost).
pub const RANK_DRAW: u32 = 10;
/// Rank of the sharded facade's wait gate.
pub const RANK_WAIT: u32 = 20;
/// Rank of the blocking shell's mutex (innermost).
pub const RANK_SUB_BUFFER: u32 = 30;

#[cfg(debug_assertions)]
mod imp {
    use std::cell::Cell;

    thread_local! {
        static HELD_MAX: Cell<u32> = const { Cell::new(0) };
    }

    /// RAII token for one acquisition; restores the previous held rank on
    /// drop, so it must be bound adjacent to (and live as long as) the
    /// guard it shadows.
    #[must_use]
    pub struct Held {
        prev: u32,
    }

    pub fn acquire(rank: u32) -> Held {
        let prev = HELD_MAX.get();
        assert!(
            prev < rank,
            "lock-order violation: acquiring rank {rank} while rank {prev} is held \
             (declared order: draw(10) -> wait(20) -> sub-buffer(30); see analysis/locks.toml)"
        );
        HELD_MAX.set(rank);
        Held { prev }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD_MAX.set(self.prev);
        }
    }
}

#[cfg(not(debug_assertions))]
mod imp {
    /// Release-build stand-in: zero-sized, does nothing.
    #[must_use]
    pub struct Held;

    #[inline(always)]
    pub fn acquire(_rank: u32) -> Held {
        Held
    }
}

pub use imp::Held;

/// Records an acquisition of `rank` on this thread. Call **before** blocking
/// on the lock itself, and keep the returned token alive exactly as long as
/// the guard. Debug builds panic when `rank` is not strictly above every
/// rank already held; release builds compile this away.
pub fn acquire(rank: u32) -> Held {
    imp::acquire(rank)
}

/// A [`MutexGuard`] paired with its rank token, so the rank is released in
/// lock-step with the lock. Derefs to the protected data; condvar waits go
/// through the public [`Ranked::guard`] field.
pub struct Ranked<'a, T> {
    /// The underlying guard (exposed for `Condvar::wait(&mut r.guard)`).
    pub guard: MutexGuard<'a, T>,
    _held: Held,
}

impl<'a, T> Ranked<'a, T> {
    /// Pairs an already-acquired guard with its rank token.
    pub fn new(guard: MutexGuard<'a, T>, held: Held) -> Self {
        Ranked { guard, _held: held }
    }
}

impl<T> Deref for Ranked<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for Ranked<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_acquisition_is_clean() {
        let a = acquire(RANK_DRAW);
        let b = acquire(RANK_WAIT);
        let c = acquire(RANK_SUB_BUFFER);
        drop(c);
        drop(b);
        drop(a);
        // Ranks fully released: the outermost rank is acquirable again.
        let _again = acquire(RANK_DRAW);
    }

    #[test]
    fn release_restores_the_previous_rank() {
        let a = acquire(RANK_DRAW);
        let b = acquire(RANK_SUB_BUFFER);
        drop(b);
        // Sub-buffer released: the wait gate (20 > 10) is acquirable.
        let _c = acquire(RANK_WAIT);
        drop(a);
    }

    #[test]
    #[cfg_attr(
        not(debug_assertions),
        ignore = "release builds compile the tracker away"
    )]
    #[should_panic(expected = "lock-order violation")]
    fn out_of_order_acquisition_panics_in_debug() {
        let _gate = acquire(RANK_WAIT);
        let _outer = acquire(RANK_DRAW);
    }
}
