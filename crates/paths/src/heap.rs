//! A binary min-heap with an explicit comparator.
//!
//! `std::collections::BinaryHeap` needs `Ord` on its items, but algebra
//! weights are ordered by a *value* (the algebra), not by their type, so the
//! generalized Dijkstra needs a heap that takes a comparator function.

use std::cmp::Ordering;

/// A binary min-heap ordered by a caller-supplied comparator.
///
/// The comparator's [`Ordering::Less`] means "higher priority" (popped
/// first), matching the algebra convention that `Less` means preferred.
///
/// # Examples
///
/// ```
/// use cpr_paths::CmpHeap;
///
/// let mut heap = CmpHeap::new(|a: &i32, b: &i32| b.cmp(a)); // max-heap
/// heap.push(3);
/// heap.push(7);
/// heap.push(5);
/// assert_eq!(heap.pop(), Some(7));
/// assert_eq!(heap.pop(), Some(5));
/// assert_eq!(heap.pop(), Some(3));
/// assert_eq!(heap.pop(), None);
/// ```
pub struct CmpHeap<T, F> {
    items: Vec<T>,
    cmp: F,
}

impl<T, F: Fn(&T, &T) -> Ordering> CmpHeap<T, F> {
    /// Creates an empty heap with the given comparator.
    pub fn new(cmp: F) -> Self {
        Self::with_buffer(Vec::new(), cmp)
    }

    /// An empty heap queuing into `buffer`'s allocation (its contents are
    /// discarded), so a caller solving many trees reuses one buffer.
    pub(crate) fn with_buffer(mut buffer: Vec<T>, cmp: F) -> Self {
        buffer.clear();
        CmpHeap { items: buffer, cmp }
    }

    /// The heap's allocation back, for the next
    /// [`with_buffer`](Self::with_buffer).
    pub(crate) fn into_buffer(self) -> Vec<T> {
        self.items
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Pushes an item and restores the heap invariant.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
        self.sift_up(self.items.len() - 1);
    }

    /// Pops the minimum item (per the comparator), or `None` when empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        let last = self.items.len() - 1;
        self.items.swap(0, last);
        let top = self.items.pop();
        if !self.items.is_empty() {
            self.sift_down(0);
        }
        top
    }

    /// Borrows the minimum item without removing it.
    pub fn peek(&self) -> Option<&T> {
        self.items.first()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if (self.cmp)(&self.items[i], &self.items[parent]) == Ordering::Less {
                self.items.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.items.len();
        loop {
            let mut smallest = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < n
                    && (self.cmp)(&self.items[child], &self.items[smallest]) == Ordering::Less
                {
                    smallest = child;
                }
            }
            if smallest == i {
                return;
            }
            self.items.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorts_ascending_with_natural_order() {
        let mut heap = CmpHeap::new(|a: &u32, b: &u32| a.cmp(b));
        for x in [5u32, 1, 9, 3, 7, 3] {
            heap.push(x);
        }
        let mut out = Vec::new();
        while let Some(x) = heap.pop() {
            out.push(x);
        }
        assert_eq!(out, vec![1, 3, 3, 5, 7, 9]);
    }

    #[test]
    fn peek_and_len() {
        let mut heap = CmpHeap::new(|a: &u32, b: &u32| a.cmp(b));
        assert!(heap.is_empty());
        assert_eq!(heap.peek(), None);
        heap.push(4);
        heap.push(2);
        assert_eq!(heap.peek(), Some(&2));
        assert_eq!(heap.len(), 2);
    }

    #[test]
    fn randomized_against_sort() {
        // Deterministic pseudo-random input without pulling in rand.
        let mut state = 0x1234_5678u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u32 % 1000
        };
        let input: Vec<u32> = (0..500).map(|_| next()).collect();
        let mut heap = CmpHeap::new(|a: &u32, b: &u32| a.cmp(b));
        for &x in &input {
            heap.push(x);
        }
        let mut expected = input.clone();
        expected.sort_unstable();
        let mut got = Vec::new();
        while let Some(x) = heap.pop() {
            got.push(x);
        }
        assert_eq!(got, expected);
    }
}
