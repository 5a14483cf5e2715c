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
// Payload arena shared by the heap-backed queues
// ---------------------------------------------------------------------------

/// Whether payloads of type `E` should be parked in the arena (true) or carried
/// inline through the ordering structure (false).
///
/// `size_of` is a compile-time constant, so each monomorphized queue keeps only
/// one of the two code paths after optimization. Small payloads (the engine's
/// `u64` handles, `pim-core`'s 16-byte phase events) sift faster inline than
/// through an extra arena indirection; large ones (parcel events) sift as
/// 24-byte [`SlotEntry`] keys with the payload parked.
#[inline(always)]
fn arena_backed<E>() -> bool {
    std::mem::size_of::<E>() > 24
}

/// Slab of event payloads with a free-list of reusable slots.
///
/// For arena-backed payload types (see [`arena_backed`]) the heap-backed queues
/// keep only a compact fixed-size key record ([`SlotEntry`]) inside their
/// ordering structure and park the payload here. Slots freed by `pop` are
/// reused by the next `push`, so steady-state event churn moves entries a
/// fraction the size of a full [`ScheduledEvent`] through the heap and never
/// grows the backing storage beyond the high-water mark of in-flight events.
struct EventArena<E> {
    slots: Vec<Option<E>>,
    free: Vec<u32>,
}

impl<E> EventArena<E> {
    fn new() -> Self {
        EventArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    #[inline]
    fn insert(&mut self, payload: E) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(payload));
                slot
            }
        }
    }

    #[inline]
    fn take(&mut self, slot: u32) -> E {
        let taken = self.slots[slot as usize].take();
        // audit:allow(unwrap-in-library): a slot handle is held by exactly one queue entry, and every entry was filled by `insert`
        let payload = taken.expect("arena slot occupied");
        self.free.push(slot);
        payload
    }
}

/// Compact ordering record for arena-backed queues: the `(time, seq)` key and
/// the arena slot holding the payload.
#[derive(Clone, Copy)]
struct SlotEntry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl SlotEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

// ---------------------------------------------------------------------------
// Hybrid heap band shared by BinaryHeapQueue and FifoBandQueue's overflow band
// ---------------------------------------------------------------------------

struct HeapSlot(SlotEntry);

impl PartialEq for HeapSlot {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for HeapSlot {}
impl PartialOrd for HeapSlot {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapSlot {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so that BinaryHeap (a max-heap) yields the smallest key first.
        other.0.key().cmp(&self.0.key())
    }
}

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

/// A min-ordered heap of scheduled events that stores payloads inline or in an
/// [`EventArena`] depending on `size_of::<E>()` (see [`arena_backed`]). Exactly
/// one of `inline`/`slots` is ever populated for a given `E`; the compile-time
/// constant branch lets the optimizer drop the other path entirely.
struct HybridHeap<E> {
    inline: BinaryHeap<HeapEntry<E>>,
    slots: BinaryHeap<HeapSlot>,
    arena: EventArena<E>,
}

impl<E> HybridHeap<E> {
    fn new() -> Self {
        HybridHeap {
            inline: BinaryHeap::new(),
            slots: BinaryHeap::new(),
            arena: EventArena::new(),
        }
    }

    #[inline]
    fn push(&mut self, ev: ScheduledEvent<E>) {
        if arena_backed::<E>() {
            let slot = self.arena.insert(ev.payload);
            self.slots.push(HeapSlot(SlotEntry {
                time: ev.time,
                seq: ev.seq,
                slot,
            }));
        } else {
            self.inline.push(HeapEntry(ev));
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if arena_backed::<E>() {
            let e = self.slots.pop()?.0;
            Some(ScheduledEvent {
                time: e.time,
                seq: e.seq,
                payload: self.arena.take(e.slot),
            })
        } else {
            self.inline.pop().map(|e| e.0)
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, u64)> {
        if arena_backed::<E>() {
            self.slots.peek().map(|e| e.0.key())
        } else {
            self.inline.peek().map(|e| e.0.key())
        }
    }

    #[inline]
    fn len(&self) -> usize {
        if arena_backed::<E>() {
            self.slots.len()
        } else {
            self.inline.len()
        }
    }
}

// ---------------------------------------------------------------------------
// Binary heap implementation
// ---------------------------------------------------------------------------

/// Binary-heap future event list.
///
/// Large payloads sift as compact 24-byte keys with the payload parked in a
/// slot arena (slots recycled across push/pop); small payloads stay inline,
/// where the indirection would cost more than it saves.
pub struct BinaryHeapQueue<E> {
    heap: HybridHeap<E>,
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
            heap: HybridHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        self.heap.push(ev);
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.heap.pop()
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
    /// The monotone band keeps whole events by value: `push_back`/`pop_front`
    /// never sift or move existing entries, so there is nothing for an arena
    /// indirection to save there.
    fifo: VecDeque<ScheduledEvent<E>>,
    /// The overflow band: a [`HybridHeap`] that parks large payloads in its
    /// arena (slot reuse across push/pop) and keeps small ones inline.
    heap: HybridHeap<E>,
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
            heap: HybridHeap::new(),
        }
    }
}

impl<E> EventQueue<E> for FifoBandQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        let appendable = self.fifo.back().is_none_or(|back| back.key() <= ev.key());
        if appendable {
            self.fifo.push_back(ev);
        } else {
            self.heap.push(ev);
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let fifo_head_wins = match (self.fifo.front(), self.heap.peek_key()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(f), Some(h)) => f.key() <= h,
        };
        if fifo_head_wins {
            self.fifo.pop_front()
        } else {
            self.heap.pop()
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

    fn fat_ev(time: u64, seq: u64) -> ScheduledEvent<[u64; 4]> {
        // 32 bytes: above the inline threshold, so heap-backed queues park the
        // payload in the arena and sift compact `SlotEntry` keys instead.
        ScheduledEvent {
            time: SimTime::from_ticks(time),
            seq,
            payload: [seq, seq + 1, seq + 2, seq + 3],
        }
    }

    #[test]
    fn arena_slots_are_reused_across_push_pop() {
        // Steady-state churn must recycle payload slots: the arena's backing
        // storage stays at the in-flight high-water mark (1 here), not the
        // total event count.
        let mut q = BinaryHeapQueue::new();
        for round in 0..1000u64 {
            q.push(fat_ev(round, round));
            assert_eq!(q.pop().map(|e| e.payload[0]), Some(round));
        }
        assert_eq!(q.heap.arena.slots.len(), 1);

        let mut band = FifoBandQueue::new();
        band.push(fat_ev(1000, 0));
        for round in 0..1000u64 {
            // Every push lands under the tail -> heap band -> arena.
            band.push(fat_ev(round, round + 1));
            assert_eq!(band.pop().map(|e| e.time.ticks()), Some(round));
        }
        assert_eq!(band.heap.arena.slots.len(), 1);
    }

    #[test]
    fn small_payloads_bypass_the_arena() {
        // u32 payloads are at or under the inline threshold: the hybrid heap
        // must keep them by value and never touch the arena.
        assert!(!arena_backed::<u32>());
        assert!(arena_backed::<[u64; 4]>());

        let mut q = BinaryHeapQueue::new();
        for round in 0..100u64 {
            q.push(ev(round, round));
        }
        assert!(q.heap.arena.slots.is_empty());
        assert_eq!(drain(&mut q).len(), 100);

        let mut band = FifoBandQueue::new();
        band.push(ev(1000, 0));
        for round in 0..100u64 {
            band.push(ev(round, round + 1)); // under the tail -> heap band
        }
        assert!(band.heap.arena.slots.is_empty());
        assert_eq!(drain(&mut band).len(), 101);
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
