//! Event records and pending-event-set implementations.
//!
//! The engine keeps a *pending event set*: a priority queue ordered by
//! `(time, seq)`, where `seq` counts schedule calls. Two implementations are
//! provided:
//!
//! * [`FifoBandQueue`] — a monotone FIFO band plus a binary-heap overflow band;
//!   the engine's queue.
//! * [`BinaryHeapQueue`] — a classic binary-heap future event list; the
//!   reference the band queue is tested against.
//!
//! Ties on time are broken by insertion order, so models get deterministic FIFO
//! semantics for simultaneous events — the same guarantee SES/Workbench provides.
//!
//! Both queues carry payloads inline. Every model's event is at most 16 bytes
//! (the parcel models keep node and context indices as `u32`), so a heap entry
//! is at most 32 bytes and sifts by value. An earlier slot arena parked
//! payloads above 24 bytes outside the heap; the parcel test system's 32-byte
//! event was the only payload that used it, and the arena went when that event
//! shrank to 16 bytes.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// A scheduled occurrence of a model event `E`.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Unique, monotonically increasing sequence number (insertion order); breaks
    /// ties between simultaneous events.
    pub seq: u64,
    /// The model-defined payload.
    pub payload: E,
}

impl<E> ScheduledEvent<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Abstraction over pending-event-set implementations.
pub trait EventQueue<E> {
    /// Insert a scheduled event.
    fn push(&mut self, ev: ScheduledEvent<E>);
    /// Remove and return the event with the smallest `(time, seq)` key.
    fn pop(&mut self) -> Option<ScheduledEvent<E>>;
    /// Number of pending events.
    fn len(&self) -> usize;
    /// True when no pending events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Heap entry shared by BinaryHeapQueue and FifoBandQueue's overflow band
// ---------------------------------------------------------------------------

struct HeapEntry<E>(ScheduledEvent<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<E> Eq for HeapEntry<E> {}
impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) yields the smallest key first.
        other.0.key().cmp(&self.0.key())
    }
}

// ---------------------------------------------------------------------------
// Binary heap implementation
// ---------------------------------------------------------------------------

/// Binary-heap future event list.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> Default for BinaryHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BinaryHeapQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        self.heap.push(HeapEntry(ev));
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop().map(|e| e.0)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// FIFO-band implementation
// ---------------------------------------------------------------------------

/// A two-band pending event set: a monotone FIFO band plus a binary-heap overflow
/// band.
///
/// Discrete-event models overwhelmingly schedule events in *almost* non-decreasing
/// key order: the scheduling time `now` only moves forward, and the dominant event
/// class often has a constant (or near-constant) delay — a network round trip, a
/// fixed service time. Such pushes arrive in sorted order and need no priority queue
/// at all. This structure exploits that: a push whose key is `>=` the FIFO band's
/// tail is appended in O(1); everything else (short-delay events scheduled "under"
/// the tail) goes to a small binary heap. `pop` compares the two heads.
///
/// In the parcel models' engine runs (mesh/torus networks and message-driven
/// servicing; flat-network points use a per-node kernel instead), in-flight round
/// trips — thousands of pending events — ride the FIFO band, leaving the heap with
/// only the handful of short-delay service events, so the `O(log n)` sift cost
/// applies to a tiny `n`.
/// In the worst case (no monotone structure) every push lands in the heap and the
/// queue degrades gracefully to [`BinaryHeapQueue`] behaviour.
///
/// Dispatch order is the total order `(time, seq)`, the same as
/// [`BinaryHeapQueue`]'s.
pub struct FifoBandQueue<E> {
    /// The monotone band: `push_back`/`pop_front` never sift or move entries.
    fifo: VecDeque<ScheduledEvent<E>>,
    /// The overflow band.
    heap: BinaryHeap<HeapEntry<E>>,
}

impl<E> Default for FifoBandQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> FifoBandQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        FifoBandQueue {
            fifo: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for FifoBandQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        let appendable = self.fifo.back().is_none_or(|back| back.key() <= ev.key());
        if appendable {
            self.fifo.push_back(ev);
        } else {
            self.heap.push(HeapEntry(ev));
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let fifo_head_wins = match (self.fifo.front(), self.heap.peek()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(f), Some(h)) => f.key() <= h.0.key(),
        };
        if fifo_head_wins {
            self.fifo.pop_front()
        } else {
            self.heap.pop().map(|e| e.0)
        }
    }

    fn len(&self) -> usize {
        self.fifo.len() + self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> ScheduledEvent<u32> {
        ScheduledEvent {
            time: SimTime::from_ticks(time),
            seq,
            payload: seq as u32,
        }
    }

    fn drain<Q: EventQueue<u32>>(q: &mut Q) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.time.ticks());
        }
        out
    }

    #[test]
    fn heap_orders_by_time() {
        let mut q = BinaryHeapQueue::new();
        for (i, t) in [50u64, 10, 30, 20, 40].iter().enumerate() {
            q.push(ev(*t, i as u64));
        }
        assert_eq!(drain(&mut q), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn heap_fifo_tie_break() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(10, 0));
        q.push(ev(10, 1));
        q.push(ev(10, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn fifo_band_orders_by_time() {
        let mut q = FifoBandQueue::new();
        for (i, t) in [50u64, 10, 30, 20, 40].iter().enumerate() {
            q.push(ev(*t, i as u64));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn fifo_band_fifo_tie_break_across_bands() {
        let mut q = FifoBandQueue::new();
        q.push(ev(20, 0)); // fifo
        q.push(ev(10, 1)); // under the tail -> heap
        q.push(ev(20, 2)); // fifo (same time, later seq)
        q.push(ev(10, 3)); // heap, ties with seq 1 on time
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ticks(), e.seq))
            .collect();
        assert_eq!(order, vec![(10, 1), (10, 3), (20, 0), (20, 2)]);
    }

    #[test]
    fn monotone_constant_delay_pushes_ride_the_fifo_band() {
        // The parcel-model shape: at each dispatch, schedule one short event (under
        // the tail -> heap) and one constant-latency event (appends to the fifo).
        let mut q = FifoBandQueue::new();
        let mut seq = 0u64;
        for now in (0..1000u64).step_by(10) {
            q.push(ev(now + 2_000, seq)); // round trip
            q.push(ev(now + 3, seq + 1)); // service completion
            seq += 2;
        }
        assert!(
            q.fifo.len() >= 100,
            "constant-delay events should append (fifo {})",
            q.fifo.len()
        );
        let out = drain(&mut q);
        assert_eq!(out.len(), 200);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn fifo_band_agrees_with_heap_on_random_workload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut heap = BinaryHeapQueue::new();
        let mut band = FifoBandQueue::new();
        for seq in 0..2000u64 {
            let t = rng.gen_range(0..100_000u64);
            heap.push(ev(t, seq));
            band.push(ev(t, seq));
        }
        let a = drain(&mut heap);
        let b = drain(&mut band);
        assert_eq!(a, b);
    }
}
