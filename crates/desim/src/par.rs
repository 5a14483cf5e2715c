//! Work-stealing execution of embarrassingly parallel work lists.
//!
//! Every parameter sweep in the workspace — `(N, %WL)` grids in `pim-core`, the
//! parcel grids in `pim-parcels`, flattened scenario units in `pim-harness` — reduces
//! to "evaluate `f(i, &items[i])` for every `i`, order-independently". This module is
//! the one shared implementation: a *self-scheduling* (work-stealing) map in which
//! workers repeatedly claim the next unclaimed index from a shared atomic counter.
//!
//! Compared with the static block partition it replaced, the shared index keeps every
//! worker busy until the global list drains: when item costs are skewed (large-`N`
//! simulation points take orders of magnitude longer than small ones), no worker sits
//! idle behind a finished block while another still owns a long tail.
//!
//! Determinism: results are written back by *input index*, and callers derive any
//! randomness from the index (never from the executing thread or claim order), so
//! the output is byte-identical for every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{LockResult, Mutex};

/// The guard (or value) of a lock or condition-variable wait. A poisoned lock
/// means a thread already panicked while holding it; that panic is propagated
/// here rather than recovered from. This is the workspace's one lock rule.
pub fn unpoisoned<G>(result: LockResult<G>) -> G {
    // audit:allow(unwrap-in-library): a poisoned lock means a worker already panicked; propagate that panic
    result.expect("no worker panicked")
}

/// Number of worker threads to use when the caller does not care: one per available
/// core (falling back to 4 when the parallelism cannot be queried).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Resolve a user-facing `jobs`/`threads` knob against a work-list length: `0` means
/// [`available_threads`], and the result is clamped to `[1, len.max(1)]` so short
/// lists do not spawn idle workers.
pub(crate) fn resolve_threads(requested: usize, len: usize) -> usize {
    let threads = if requested == 0 {
        available_threads()
    } else {
        requested
    };
    threads.clamp(1, len.max(1))
}

/// Evaluate `f(i, &items[i])` for every item across up to `threads` worker threads
/// (`0` = one per core) using a shared atomic work index, returning the results in
/// input order.
///
/// `f` must derive any randomness from the index or the item — never from thread
/// identity — to keep the output independent of the thread count. A panic in `f`
/// propagates to the caller once the scope joins.
pub fn work_steal_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads, items.len());
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<U>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                // Buffer locally and flush in chunks so the slot lock is touched far
                // less often than once per item.
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                    if local.len() >= 32 {
                        flush(&slots, &mut local);
                    }
                }
                flush(&slots, &mut local);
            });
        }
    });
    unpoisoned(slots.into_inner())
        .into_iter()
        // audit:allow(unwrap-in-library): the claim counter hands each index to exactly one worker
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Move a worker's buffered `(index, result)` pairs into the shared slot vector.
fn flush<U>(slots: &Mutex<Vec<Option<U>>>, local: &mut Vec<(usize, U)>) {
    if local.is_empty() {
        return;
    }
    let mut guard = unpoisoned(slots.lock());
    for (i, value) in local.drain(..) {
        debug_assert!(guard[i].is_none(), "index {i} claimed twice");
        guard[i] = Some(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_regardless_of_threads() {
        let items: Vec<u64> = (0..250).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8] {
            let got = work_steal_map(&items, threads, |_, &x| x * x);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_lists_work() {
        let none: Vec<u32> = vec![];
        assert!(work_steal_map(&none, 4, |_, &x| x).is_empty());
        assert_eq!(work_steal_map(&[7u32], 4, |i, &x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn index_is_passed_through() {
        let items = vec!["a", "b", "c"];
        let got = work_steal_map(&items, 2, |i, &s| format!("{i}{s}"));
        assert_eq!(got, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn skewed_item_costs_still_complete() {
        // One long item up front must not serialize the rest behind it.
        let items: Vec<u64> = (0..64).collect();
        let got = work_steal_map(&items, 4, |_, &x| {
            if x == 0 {
                (0..50_000u64).sum::<u64>() + x
            } else {
                x
            }
        });
        assert_eq!(got[0], (0..50_000u64).sum::<u64>());
        assert_eq!(got[1..], items[1..]);
    }

    #[test]
    #[should_panic(expected = "no worker panicked")]
    fn a_poisoned_lock_propagates_the_panic() {
        let lock = Mutex::new(0u32);
        let worker = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = lock.lock();
                    panic!("worker died holding the lock");
                })
                .join()
        });
        assert!(worker.is_err());
        let _guard = unpoisoned(lock.lock());
    }

    #[test]
    fn resolve_threads_contract() {
        assert_eq!(resolve_threads(0, 100), available_threads().clamp(1, 100));
        assert_eq!(resolve_threads(3, 100), 3);
        assert_eq!(resolve_threads(8, 2), 2);
        assert_eq!(resolve_threads(8, 0), 1);
        assert!(available_threads() >= 1);
    }
}
