//! Epoch-based hot swap: immutable serving snapshots behind an
//! atomically swappable cell.
//!
//! The serving path never takes a lock for longer than one pointer
//! clone. A [`MultiSnapshot`](cpr_plane::MultiSnapshot) bundles
//! everything a lookup needs — the topology, its edge set and every
//! class's compiled plane with its frozen repair overlay, all shared
//! with the master rather than copied — into one immutable value. It
//! consults no scheme: swaps only publish repaired planes. An
//! [`EpochCell`] holds the current snapshot behind `RwLock<Arc<_>>`:
//! readers clone the `Arc` out (an uncontended read lock held for
//! nanoseconds), the control plane swaps in a new `Arc` after repairing
//! off-path.
//! In-flight queries keep the old epoch alive through their own `Arc`
//! and finish against a consistent topology; new queries see the new
//! epoch — nothing is dropped, and every answer carries the epoch it
//! was computed against so clients can prove they were never served a
//! stale-topology answer.

use std::sync::{Arc, PoisonError, RwLock};

/// An atomically swappable `Arc` slot — the RCU pivot of the hot swap.
///
/// `load` is the read side: clone the current `Arc` out under a read
/// lock. `store` is the (rare) write side: swap the pointer under the
/// write lock. Readers blocked behind a `store` wait only for the
/// pointer assignment, never for a repair — repairs happen before the
/// `store`, off the serving path.
pub struct EpochCell<T> {
    inner: RwLock<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell initially holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        EpochCell {
            inner: RwLock::new(value),
        }
    }

    /// The current snapshot. The returned `Arc` keeps its epoch alive
    /// for as long as the caller holds it, swaps notwithstanding.
    pub fn load(&self) -> Arc<T> {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Publishes a new snapshot. Readers that already `load`ed keep the
    /// old one; every subsequent `load` sees `value`.
    pub fn store(&self, value: Arc<T>) {
        *self.inner.write().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_swaps_for_new_loads_but_old_arcs_survive() {
        let cell = EpochCell::new(Arc::new(1u64));
        let old = cell.load();
        cell.store(Arc::new(2u64));
        assert_eq!(*old, 1);
        assert_eq!(*cell.load(), 2);
    }
}
