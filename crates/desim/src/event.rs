//! Event records and pending-event-set implementations.
//!
//! The engine keeps a *pending event set*: a priority queue ordered by
//! `(time, priority, sequence)`. Two interchangeable implementations are provided:
//!
//! * [`BinaryHeapQueue`] — a classic binary-heap future event list; the default.
//! * [`CalendarQueue`] — a bucketed calendar queue in the style of Brown (1988),
//!   which gives near-O(1) enqueue/dequeue when event times are roughly uniform
//!   over a known horizon. The benchmark crate compares the two (ablation E-X in
//!   DESIGN.md).
//!
//! Ties on time are broken first by an explicit scheduling priority (lower value is
//! served first) and then by insertion order, so models get deterministic FIFO
//! semantics for simultaneous events — the same guarantee SES/Workbench provides.

use crate::fxhash::FxHashSet;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Identifier handed back by `schedule`, usable to cancel a pending event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(pub u64);

/// A scheduled occurrence of a model event `E`.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub time: SimTime,
    /// Secondary ordering key for simultaneous events; lower fires first.
    pub priority: i32,
    /// Unique, monotonically increasing sequence number (insertion order).
    pub seq: u64,
    /// Identifier for cancellation.
    pub id: EventId,
    /// The model-defined payload.
    pub payload: E,
}

impl<E> ScheduledEvent<E> {
    fn key(&self) -> (SimTime, i32, u64) {
        (self.time, self.priority, self.seq)
    }
}

/// Abstraction over pending-event-set implementations.
pub trait EventQueue<E> {
    /// Insert a scheduled event.
    fn push(&mut self, ev: ScheduledEvent<E>);
    /// Remove and return the event with the smallest `(time, priority, seq)` key,
    /// skipping cancelled events.
    fn pop(&mut self) -> Option<ScheduledEvent<E>>;
    /// Peek at the time of the next (non-cancelled) event without removing it.
    fn peek_time(&mut self) -> Option<SimTime>;
    /// Mark an event as cancelled. Returns `true` if the id was pending.
    fn cancel(&mut self, id: EventId) -> bool;
    /// Number of pending (non-cancelled) events.
    fn len(&self) -> usize;
    /// True when no pending events remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Ids of all live (non-cancelled) events, in no particular order. The engine
    /// calls this once, on a model's *first* cancel, to build its cancellation
    /// guard lazily — it is never on the hot path.
    fn live_ids(&self) -> Vec<EventId>;
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
/// through an extra arena indirection; large ones (qnet transactions, parcel
/// events) sift as 32-byte [`SlotEntry`] keys with the payload parked.
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

/// Compact ordering record for arena-backed queues: the `(time, priority, seq)`
/// key, the id (for cancellation) and the arena slot holding the payload.
#[derive(Clone, Copy)]
struct SlotEntry {
    time: SimTime,
    priority: i32,
    seq: u64,
    id: EventId,
    slot: u32,
}

impl SlotEntry {
    #[inline]
    fn key(&self) -> (SimTime, i32, u64) {
        (self.time, self.priority, self.seq)
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
                priority: ev.priority,
                seq: ev.seq,
                id: ev.id,
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
                priority: e.priority,
                seq: e.seq,
                id: e.id,
                payload: self.arena.take(e.slot),
            })
        } else {
            self.inline.pop().map(|e| e.0)
        }
    }

    #[inline]
    fn peek_key(&self) -> Option<(SimTime, i32, u64)> {
        if arena_backed::<E>() {
            self.slots.peek().map(|e| e.0.key())
        } else {
            self.inline.peek().map(|e| e.0.key())
        }
    }

    #[inline]
    fn peek_id(&self) -> Option<EventId> {
        if arena_backed::<E>() {
            self.slots.peek().map(|e| e.0.id)
        } else {
            self.inline.peek().map(|e| e.0.id)
        }
    }

    fn ids(&self) -> Vec<EventId> {
        if arena_backed::<E>() {
            self.slots.iter().map(|e| e.0.id).collect()
        } else {
            self.inline.iter().map(|e| e.0.id).collect()
        }
    }
}

// ---------------------------------------------------------------------------
// Binary heap implementation
// ---------------------------------------------------------------------------

/// Binary-heap future event list with lazy cancellation.
///
/// Large payloads sift as compact 32-byte [`SlotEntry`] keys with the payload
/// parked in an [`EventArena`] (slots recycled across push/pop); small payloads
/// stay inline, where the indirection would cost more than it saves.
pub struct BinaryHeapQueue<E> {
    heap: HybridHeap<E>,
    cancelled: FxHashSet<EventId>,
    live: usize,
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
            cancelled: FxHashSet::default(),
            live: 0,
        }
    }

    fn drop_cancelled_head(&mut self) {
        // Fast path: no outstanding cancellations (the overwhelmingly common case on
        // the engine's hot loop) means no per-pop membership test at all.
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(id) = self.heap.peek_id() {
            if self.cancelled.contains(&id) {
                // audit:allow(unwrap-in-library): guarded by the peek above
                let popped = self.heap.pop().expect("peeked entry must pop");
                self.cancelled.remove(&popped.id);
            } else {
                return;
            }
        }
    }
}

impl<E> EventQueue<E> for BinaryHeapQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        self.live += 1;
        self.heap.push(ev);
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.drop_cancelled_head();
        let ev = self.heap.pop()?;
        self.live -= 1;
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_cancelled_head();
        self.heap.peek_key().map(|(time, _, _)| time)
    }

    fn cancel(&mut self, id: EventId) -> bool {
        // We cannot cheaply test membership in the heap, so record the id and rely on
        // lazy removal; guard `live` by only counting ids not already cancelled.
        if self.cancelled.insert(id) {
            if self.live == 0 {
                // Nothing pending: the id cannot be live, undo.
                self.cancelled.remove(&id);
                return false;
            }
            self.live -= 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn live_ids(&self) -> Vec<EventId> {
        let mut ids = self.heap.ids();
        ids.retain(|id| !self.cancelled.contains(id));
        ids
    }
}

// ---------------------------------------------------------------------------
// Calendar queue implementation
// ---------------------------------------------------------------------------

/// A bucketed calendar queue (Brown, CACM 1988) with lazy cancellation.
///
/// Events are hashed into `num_buckets` buckets of `bucket_width` ticks by their
/// timestamp; dequeue scans forward from the bucket containing the current
/// minimum "year". The structure resizes (doubling/halving bucket count) when the
/// population crosses thresholds, keeping amortized O(1) behaviour for workloads
/// whose inter-event gaps are not pathologically skewed.
pub struct CalendarQueue<E> {
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    bucket_width: u64,
    /// Index of the bucket the next dequeue should start scanning from.
    cursor: usize,
    /// Start time of the "year" the cursor is in.
    year_start: u64,
    len: usize,
    cancelled: FxHashSet<EventId>,
    last_dequeued: SimTime,
}

impl<E> CalendarQueue<E> {
    /// Create a calendar queue with the given bucket width (in ticks) and bucket count.
    ///
    /// `bucket_width` should be on the order of the typical inter-event gap.
    pub fn new(bucket_width: u64, num_buckets: usize) -> Self {
        let num_buckets = num_buckets.max(2);
        CalendarQueue {
            buckets: (0..num_buckets).map(|_| Vec::new()).collect(),
            bucket_width: bucket_width.max(1),
            cursor: 0,
            year_start: 0,
            len: 0,
            cancelled: FxHashSet::default(),
            last_dequeued: SimTime::ZERO,
        }
    }

    fn bucket_index(&self, t: SimTime) -> usize {
        ((t.ticks() / self.bucket_width) as usize) % self.buckets.len()
    }

    fn year_len(&self) -> u64 {
        self.bucket_width * self.buckets.len() as u64
    }

    fn maybe_resize(&mut self) {
        let n = self.buckets.len();
        let target = if self.len > 2 * n {
            n * 2
        } else if self.len < n / 2 && n > 2 {
            n / 2
        } else {
            return;
        };
        let mut all: Vec<ScheduledEvent<E>> = Vec::with_capacity(self.len);
        for b in self.buckets.iter_mut() {
            all.append(b);
        }
        self.buckets = (0..target).map(|_| Vec::new()).collect();
        for ev in all {
            let idx = self.bucket_index(ev.time);
            self.buckets[idx].push(ev);
        }
        // Reposition the cursor at the bucket holding the previous dequeue point.
        self.cursor = self.bucket_index(self.last_dequeued);
        self.year_start = self.last_dequeued.ticks() - self.last_dequeued.ticks() % self.year_len();
    }

    /// Find, remove and return the globally minimal event (direct search).
    /// Used as a fallback when the calendar scan wraps a full year without a hit.
    fn pop_direct(&mut self) -> Option<ScheduledEvent<E>> {
        let mut best: Option<(usize, usize)> = None;
        let mut best_key = (SimTime::MAX, i32::MAX, u64::MAX);
        for (bi, bucket) in self.buckets.iter().enumerate() {
            for (ei, ev) in bucket.iter().enumerate() {
                if self.cancelled.contains(&ev.id) {
                    continue;
                }
                let key = ev.key();
                if key < best_key {
                    best_key = key;
                    best = Some((bi, ei));
                }
            }
        }
        let (bi, ei) = best?;
        let ev = self.buckets[bi].swap_remove(ei);
        Some(ev)
    }

    fn purge_cancelled(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        let cancelled = std::mem::take(&mut self.cancelled);
        for bucket in self.buckets.iter_mut() {
            bucket.retain(|ev| !cancelled.contains(&ev.id));
        }
    }
}

impl<E> EventQueue<E> for CalendarQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        // Rewind the scan state when an event lands before the last dequeue point.
        // This happens when the engine pops a beyond-horizon event and pushes it
        // back (the pop fast-forwarded cursor/year to that event's window) and the
        // model later schedules earlier events; without the rewind those earlier
        // events would be scanned *after* the far window and dispatch out of order.
        if ev.time < self.last_dequeued {
            self.last_dequeued = ev.time;
            self.cursor = self.bucket_index(ev.time);
            self.year_start = ev.time.ticks() - ev.time.ticks() % self.year_len();
        }
        let idx = self.bucket_index(ev.time);
        self.buckets[idx].push(ev);
        self.len += 1;
        self.maybe_resize();
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        if self.len == 0 {
            return None;
        }
        // Scan at most one full year of buckets starting at the cursor. A bucket visited
        // at wrap `w` and index `bi` covers the slot
        // [year_start + w*year_len + bi*width, year_start + w*year_len + (bi+1)*width);
        // the first event found inside its own slot is the year's minimum. If a full
        // year is scanned without a hit (sparse far-future events), fall back to a
        // direct minimum search.
        let n = self.buckets.len();
        let check_cancelled = !self.cancelled.is_empty();
        for step in 0..n {
            let bi = (self.cursor + step) % n;
            let wrap = ((self.cursor + step) / n) as u64;
            let year = self.year_start + wrap * self.year_len();
            let slot_lo = year + bi as u64 * self.bucket_width;
            let slot_hi = slot_lo + self.bucket_width;
            let mut best: Option<usize> = None;
            let mut best_key = (SimTime::MAX, i32::MAX, u64::MAX);
            for (ei, ev) in self.buckets[bi].iter().enumerate() {
                if check_cancelled && self.cancelled.contains(&ev.id) {
                    continue;
                }
                let t = ev.time.ticks();
                if t >= slot_lo && t < slot_hi && ev.key() < best_key {
                    best_key = ev.key();
                    best = Some(ei);
                }
            }
            if let Some(ei) = best {
                let ev = self.buckets[bi].swap_remove(ei);
                if check_cancelled {
                    self.cancelled.remove(&ev.id);
                }
                self.len -= 1;
                self.cursor = bi;
                self.year_start = ev.time.ticks() - ev.time.ticks() % self.year_len();
                self.last_dequeued = ev.time;
                return Some(ev);
            }
        }
        // Fallback: direct minimum search across all buckets.
        self.purge_cancelled();
        let ev = self.pop_direct()?;
        self.len -= 1;
        self.cursor = self.bucket_index(ev.time);
        self.year_start = ev.time.ticks() - ev.time.ticks() % self.year_len();
        self.last_dequeued = ev.time;
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        // Calendar queues do not support cheap peek; do a direct scan. The engine only
        // calls this for horizon checks, which is infrequent relative to push/pop.
        let mut best: Option<SimTime> = None;
        for bucket in &self.buckets {
            for ev in bucket {
                if self.cancelled.contains(&ev.id) {
                    continue;
                }
                if best.is_none_or(|b| ev.time < b) {
                    best = Some(ev.time);
                }
            }
        }
        best
    }

    fn cancel(&mut self, id: EventId) -> bool {
        if self.len == 0 {
            return false;
        }
        if self.cancelled.insert(id) {
            self.len -= 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn live_ids(&self) -> Vec<EventId> {
        self.buckets
            .iter()
            .flatten()
            .map(|ev| ev.id)
            .filter(|id| !self.cancelled.contains(id))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// FIFO-band implementation
// ---------------------------------------------------------------------------

/// A two-band pending event set: a monotone FIFO band plus a binary-heap overflow
/// band, with lazy cancellation.
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
/// Like the other implementations, dispatch order is the total order
/// `(time, priority, seq)`, so results are bit-identical whichever queue a model
/// runs on.
pub struct FifoBandQueue<E> {
    /// The monotone band keeps whole events by value: `push_back`/`pop_front`
    /// never sift or move existing entries, so there is nothing for an arena
    /// indirection to save there.
    fifo: std::collections::VecDeque<ScheduledEvent<E>>,
    /// The overflow band: a [`HybridHeap`] that parks large payloads in its
    /// arena (slot reuse across push/pop) and keeps small ones inline.
    heap: HybridHeap<E>,
    cancelled: FxHashSet<EventId>,
    live: usize,
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
            fifo: std::collections::VecDeque::new(),
            heap: HybridHeap::new(),
            cancelled: FxHashSet::default(),
            live: 0,
        }
    }

    /// Number of events currently riding the FIFO band (diagnostic; cancelled events
    /// still waiting for lazy removal are included).
    pub fn fifo_band_len(&self) -> usize {
        self.fifo.len()
    }

    fn drop_cancelled_heads(&mut self) {
        if self.cancelled.is_empty() {
            return;
        }
        while let Some(front) = self.fifo.front() {
            if self.cancelled.contains(&front.id) {
                // audit:allow(unwrap-in-library): guarded by the peek in the enclosing while let
                let popped = self.fifo.pop_front().expect("peeked entry must pop");
                self.cancelled.remove(&popped.id);
            } else {
                break;
            }
        }
        while let Some(id) = self.heap.peek_id() {
            if self.cancelled.contains(&id) {
                // audit:allow(unwrap-in-library): guarded by the peek above
                let popped = self.heap.pop().expect("peeked entry must pop");
                self.cancelled.remove(&popped.id);
            } else {
                break;
            }
        }
    }

    /// After `drop_cancelled_heads`, true when the FIFO head is the global minimum.
    fn fifo_head_wins(&self) -> Option<bool> {
        match (self.fifo.front(), self.heap.peek_key()) {
            (None, None) => None,
            (Some(_), None) => Some(true),
            (None, Some(_)) => Some(false),
            (Some(f), Some(h)) => Some(f.key() <= h),
        }
    }
}

impl<E> EventQueue<E> for FifoBandQueue<E> {
    fn push(&mut self, ev: ScheduledEvent<E>) {
        self.live += 1;
        let appendable = self.fifo.back().is_none_or(|back| back.key() <= ev.key());
        if appendable {
            self.fifo.push_back(ev);
        } else {
            self.heap.push(ev);
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.drop_cancelled_heads();
        let ev = if self.fifo_head_wins()? {
            // audit:allow(unwrap-in-library): fifo_head_wins verified this head exists
            self.fifo.pop_front().expect("head checked")
        } else {
            // audit:allow(unwrap-in-library): fifo_head_wins verified this head exists
            self.heap.pop().expect("head checked")
        };
        self.live -= 1;
        Some(ev)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        self.drop_cancelled_heads();
        let wins = self.fifo_head_wins()?;
        if wins {
            self.fifo.front().map(|e| e.time)
        } else {
            self.heap.peek_key().map(|(time, _, _)| time)
        }
    }

    fn cancel(&mut self, id: EventId) -> bool {
        if self.cancelled.insert(id) {
            if self.live == 0 {
                self.cancelled.remove(&id);
                return false;
            }
            self.live -= 1;
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        self.live
    }

    fn live_ids(&self) -> Vec<EventId> {
        self.fifo
            .iter()
            .map(|ev| ev.id)
            .chain(self.heap.ids())
            .filter(|id| !self.cancelled.contains(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> ScheduledEvent<u32> {
        ScheduledEvent {
            time: SimTime::from_ticks(time),
            priority: 0,
            seq,
            id: EventId(seq),
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
    fn heap_priority_before_seq() {
        let mut q = BinaryHeapQueue::new();
        let mut high = ev(10, 0);
        high.priority = 5;
        let mut low = ev(10, 1);
        low.priority = -1;
        q.push(high);
        q.push(low);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn heap_cancellation() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(10, 0));
        q.push(ev(20, 1));
        q.push(ev(30, 2));
        assert!(q.cancel(EventId(1)));
        assert!(!q.cancel(EventId(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![10, 30]);
    }

    #[test]
    fn heap_cancel_unknown_id_on_empty() {
        let mut q: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        assert!(!q.cancel(EventId(77)));
        assert!(q.is_empty());
    }

    #[test]
    fn heap_peek_skips_cancelled() {
        let mut q = BinaryHeapQueue::new();
        q.push(ev(10, 0));
        q.push(ev(20, 1));
        q.cancel(EventId(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(20)));
    }

    #[test]
    fn calendar_orders_by_time() {
        let mut q = CalendarQueue::new(8, 4);
        for (i, t) in [50u64, 10, 30, 20, 40, 15, 200, 3].iter().enumerate() {
            q.push(ev(*t, i as u64));
        }
        assert_eq!(drain(&mut q), vec![3, 10, 15, 20, 30, 40, 50, 200]);
    }

    #[test]
    fn calendar_handles_clustered_and_sparse_times() {
        let mut q = CalendarQueue::new(2, 4);
        let times: Vec<u64> = (0..64)
            .map(|i| if i % 7 == 0 { i * 1000 } else { i })
            .collect();
        for (i, t) in times.iter().enumerate() {
            q.push(ev(*t, i as u64));
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(drain(&mut q), sorted);
    }

    #[test]
    fn calendar_cancellation() {
        let mut q = CalendarQueue::new(4, 4);
        q.push(ev(10, 0));
        q.push(ev(20, 1));
        q.push(ev(30, 2));
        assert!(q.cancel(EventId(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![10, 30]);
    }

    #[test]
    fn calendar_fifo_tie_break() {
        let mut q = CalendarQueue::new(4, 4);
        q.push(ev(10, 0));
        q.push(ev(10, 1));
        q.push(ev(10, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn calendar_resizes_under_load() {
        let mut q = CalendarQueue::new(1, 2);
        let n = 500u64;
        for i in 0..n {
            q.push(ev((i * 37) % 1000, i));
        }
        assert_eq!(q.len(), n as usize);
        let out = drain(&mut q);
        assert_eq!(out.len(), n as usize);
        assert!(
            out.windows(2).all(|w| w[0] <= w[1]),
            "must drain in time order"
        );
    }

    #[test]
    fn both_queues_agree_on_random_workload() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut heap = BinaryHeapQueue::new();
        let mut cal = CalendarQueue::new(16, 8);
        for seq in 0..2000u64 {
            let t = rng.gen_range(0..100_000u64);
            heap.push(ev(t, seq));
            cal.push(ev(t, seq));
        }
        let a = drain(&mut heap);
        let b = drain(&mut cal);
        assert_eq!(a, b);
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
        q.push(ev(20, 2)); // fifo (same key components except seq)
        q.push(ev(10, 3)); // heap, ties with seq 1 on time
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time.ticks(), e.seq))
            .collect();
        assert_eq!(order, vec![(10, 1), (10, 3), (20, 0), (20, 2)]);
    }

    #[test]
    fn fifo_band_priority_before_seq() {
        let mut q = FifoBandQueue::new();
        let mut high = ev(10, 0);
        high.priority = 5;
        let mut low = ev(10, 1);
        low.priority = -1;
        q.push(high);
        q.push(low);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
    }

    #[test]
    fn fifo_band_cancellation_in_both_bands() {
        let mut q = FifoBandQueue::new();
        q.push(ev(100, 0)); // fifo
        q.push(ev(10, 1)); // heap
        q.push(ev(200, 2)); // fifo
        q.push(ev(20, 3)); // heap
        assert!(q.cancel(EventId(0)));
        assert!(q.cancel(EventId(3)));
        assert!(!q.cancel(EventId(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(drain(&mut q), vec![10, 200]);
        assert!(!q.cancel(EventId(77)), "cancel on empty queue");
    }

    #[test]
    fn fifo_band_peek_skips_cancelled() {
        let mut q = FifoBandQueue::new();
        q.push(ev(10, 0));
        q.push(ev(20, 1));
        q.cancel(EventId(0));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(20)));
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
            q.fifo_band_len() >= 100,
            "constant-delay events should append (fifo {})",
            q.fifo_band_len()
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
            priority: 0,
            seq,
            id: EventId(seq),
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
    fn live_ids_reports_non_cancelled_ids() {
        let mut q = FifoBandQueue::new();
        q.push(ev(100, 0)); // fifo band
        q.push(ev(10, 1)); // under the tail -> heap band
        q.push(ev(200, 2)); // fifo band
        q.cancel(EventId(2));
        let mut ids = q.live_ids();
        ids.sort();
        assert_eq!(ids, vec![EventId(0), EventId(1)]);

        let mut h = BinaryHeapQueue::new();
        h.push(ev(10, 0));
        h.push(ev(20, 1));
        h.cancel(EventId(0));
        assert_eq!(h.live_ids(), vec![EventId(1)]);

        let mut c = CalendarQueue::new(4, 4);
        c.push(ev(10, 0));
        c.push(ev(20, 1));
        c.cancel(EventId(1));
        assert_eq!(c.live_ids(), vec![EventId(0)]);
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
