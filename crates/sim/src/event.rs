//! The pending-event set.
//!
//! Events pop in `(time, sequence)` order: events at equal simulated times
//! fire in the order they were scheduled, which makes runs fully
//! deterministic — a property the reproduction harness depends on.
//!
//! Two structures hold the pending entries. A binary heap takes any event;
//! beside it, [`LANES`] FIFO lanes take the event kinds a model knows are
//! scheduled in nondecreasing time order (completions of a FIFO resource
//! with a fixed cost, say). A payload names its lane through [`Laned`]. An
//! event joins its lane when its time is at least the lane tail's time —
//! an O(1) append — and otherwise falls back to the heap, so the lane is a
//! speed hint, never a correctness obligation. Every entry takes its
//! sequence number from one counter, and `pop` returns the least
//! `(time, sequence)` among the heap top and the lane fronts, so the
//! dispatch order is exactly that of a heap holding every entry.
//!
//! Payloads live out-of-line in a slab so each entry is a fixed 16 bytes
//! (time, sequence, slot) regardless of the payload type, and
//! cancellation is a generation-counter check on the slot instead of the
//! historical sorted-tombstone scan: [`EventId`] records the slot and its
//! generation at schedule time; cancelling flips the slot's live flag, and
//! the slot is recycled (generation bumped) only when its entry drains
//! past it, so a stale id can never cancel a later event that reused the
//! slot.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Number of FIFO lanes an [`EventQueue`] keeps beside its heap.
pub const LANES: usize = 3;

/// Routes an event payload to one of the queue's FIFO lanes or to its heap.
///
/// A model implements this for its event type and names a lane (an index
/// below [`LANES`]) for each kind it schedules in nondecreasing time order.
/// Kinds it leaves out go to the heap, which is also the default. A wrong
/// hint costs speed, never order: an event earlier than its lane's tail
/// falls back to the heap and is counted in
/// [`EventQueue::lane_fallbacks`].
pub trait Laned {
    /// The lane this event joins, or `None` for the heap.
    #[inline]
    fn lane(&self) -> Option<usize> {
        None
    }
}

/// Payload types with no kinds: every event goes to the heap.
macro_rules! heap_only {
    ($($t:ty),*) => { $(impl Laned for $t {})* };
}
heap_only!((), u8, u32, u64, usize, i32, &str);

/// Identifies a scheduled event so it can be cancelled. Stale ids (events
/// that already fired or were already cancelled) are recognized and
/// rejected, even after their slot has been reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A fixed-size heap or lane entry; the payload lives in the slot slab.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u32,
    slot: u32,
}

impl Entry {
    /// Dispatch order: earliest time first, then schedule order.
    #[inline]
    fn key(&self) -> (SimTime, u32) {
        (self.time, self.seq)
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap but we want the earliest event.
        other.key().cmp(&self.key())
    }
}

/// One slab slot: the payload of a scheduled event plus the generation
/// counter that invalidates old [`EventId`]s when the slot is reused.
struct Slot<E> {
    gen: u32,
    live: bool,
    payload: Option<E>,
}

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry>,
    /// Each lane is sorted by `(time, seq)`: an entry joins only at or
    /// after its tail's time, and sequence numbers only grow.
    lanes: [VecDeque<Entry>; LANES],
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u32,
    live: usize,
    fallbacks: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Default::default(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
            fallbacks: 0,
        }
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending. Cancelling twice, or after the event fired, is a
    /// no-op returning `false` — the generation counter recognizes stale
    /// ids even once the slot has been reused by a later event.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.gen == id.gen && slot.live => {
                slot.live = false;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest pending entry, live or cancelled:
    /// the least `(time, seq)` among the heap top and the lane fronts.
    #[inline]
    fn pop_entry(&mut self) -> Option<Entry> {
        let mut best = self.heap.peek().map(Entry::key);
        let mut from = LANES; // LANES names the heap
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(front) = lane.front() {
                if best.is_none_or(|b| front.key() < b) {
                    best = Some(front.key());
                    from = i;
                }
            }
        }
        if from == LANES {
            self.heap.pop()
        } else {
            self.lanes[from].pop_front()
        }
    }

    /// Remove and return the earliest live event, as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.pop_entry() {
            let slot = &mut self.slots[entry.slot as usize];
            let live = slot.live;
            let payload = slot.payload.take().expect("queue entry with empty slot");
            // The slot is recycled only here — after its entry drained —
            // so every pending entry points at its own occupancy.
            slot.live = false;
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(entry.slot);
            if live {
                self.live -= 1;
                return Some((entry.time, payload));
            }
        }
        None
    }

    /// The timestamp of the earliest *live* event without removing it,
    /// looking through the heap and every lane. Cancelled entries still
    /// draining are skipped, so this agrees exactly with what
    /// [`EventQueue::pop`] would return. Linear in the pending-entry count
    /// — fine for its diagnostic callers, wrong for the hot loop (which
    /// pops instead of peeking).
    pub fn peek_time(&self) -> Option<SimTime> {
        // A slot recycles only when its entry drains, so each entry's slot
        // `live` flag describes that entry, not a later occupant.
        self.heap
            .iter()
            .chain(self.lanes.iter().flatten())
            .filter(|e| self.slots[e.slot as usize].live)
            .max() // reversed `Ord`: the maximum is the earliest (time, seq)
            .map(|e| e.time)
    }

    /// Number of live (scheduled, not cancelled, not fired) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Events that named a lane but went to the heap because their time
    /// was earlier than the lane's tail. Zero when every laned kind really
    /// arrived in time order.
    pub fn lane_fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

impl<E: Laned> EventQueue<E> {
    /// Schedule `payload` to fire at `time`. Events already in the past are
    /// permitted (they fire "now"); the engine asserts monotonicity at pop.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let lane = payload.lane();
        let seq = self.next_seq;
        self.next_seq = self
            .next_seq
            .checked_add(1)
            .expect("event sequence space exhausted");
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none(), "free slot holds a payload");
                s.live = true;
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("event slot space exhausted");
                self.slots.push(Slot {
                    gen: 0,
                    live: true,
                    payload: Some(payload),
                });
                slot
            }
        };
        let entry = Entry { time, seq, slot };
        match lane.map(|l| &mut self.lanes[l]) {
            Some(lane) if lane.back().is_none_or(|tail| tail.time <= time) => lane.push_back(entry),
            Some(_) => {
                self.fallbacks += 1;
                self.heap.push(entry);
            }
            None => self.heap.push(entry),
        }
        self.live += 1;
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(5), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_after_fire_is_rejected() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(a), "fired events cannot be cancelled");
    }

    #[test]
    fn stale_id_does_not_cancel_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.pop();
        // "b" reuses a's slot (single free slot); the stale id must not
        // touch it.
        let b = q.schedule(t(2), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(!q.cancel(b));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn len_drops_at_cancel() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1, "cancelled events leave the live count");
    }

    #[test]
    fn peek_time_sees_head() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(t(9), ());
        q.schedule(t(3), ());
        assert_eq!(q.peek_time(), Some(t(3)));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(5), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
        q.schedule(t(7), 7);
        q.schedule(t(6), 6);
        assert_eq!(q.pop(), Some((t(6), 6)));
        assert_eq!(q.pop(), Some((t(7), 7)));
        assert_eq!(q.pop(), Some((t(10), 10)));
    }

    /// A payload that names its own lane: `(lane, id)`.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct K(Option<usize>, u32);

    impl Laned for K {
        fn lane(&self) -> Option<usize> {
            self.0
        }
    }

    #[test]
    fn out_of_order_lane_event_falls_back_to_the_heap() {
        let mut q = EventQueue::new();
        q.schedule(t(10), K(Some(0), 1));
        q.schedule(t(10), K(Some(0), 2)); // equal to the tail: stays laned
        assert_eq!(q.lane_fallbacks(), 0);
        q.schedule(t(5), K(Some(0), 3)); // before the tail: heap
        assert_eq!(q.lane_fallbacks(), 1);
        q.schedule(t(12), K(Some(0), 4));
        assert_eq!(q.lane_fallbacks(), 1, "the tail is still t(10)");
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k.1).collect();
        assert_eq!(order, vec![3, 1, 2, 4]);
    }

    #[test]
    fn equal_times_across_lanes_and_heap_fire_in_schedule_order() {
        let mut q = EventQueue::new();
        let lanes = [Some(1), None, Some(0), Some(1), None, Some(0), Some(2)];
        for (i, &lane) in lanes.iter().enumerate() {
            q.schedule(t(7), K(lane, i as u32));
        }
        assert_eq!(q.lane_fallbacks(), 0);
        for i in 0..lanes.len() as u32 {
            assert_eq!(q.pop().map(|(at, k)| (at, k.1)), Some((t(7), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelling_lane_entries_skips_them() {
        let mut q = EventQueue::new();
        let front = q.schedule(t(1), K(Some(0), 1));
        q.schedule(t(2), K(Some(0), 2));
        let middle = q.schedule(t(3), K(Some(0), 3));
        let tail = q.schedule(t(4), K(Some(0), 4));
        q.schedule(t(2), K(None, 5));
        assert!(q.cancel(front));
        assert!(q.cancel(middle));
        assert!(q.cancel(tail));
        assert!(!q.cancel(tail));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(2)));
        // The cancelled tail still bounds its lane: t(3) < t(4) falls back.
        q.schedule(t(3), K(Some(0), 6));
        assert_eq!(q.lane_fallbacks(), 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k.1).collect();
        assert_eq!(order, vec![2, 5, 6]);
        assert!(q.is_empty());
        assert!(!q.cancel(front), "a drained lane entry's id is stale");
    }

    #[test]
    fn peek_time_sees_lane_fronts() {
        let mut q = EventQueue::new();
        q.schedule(t(9), K(None, 0));
        assert_eq!(q.peek_time(), Some(t(9)));
        let early = q.schedule(t(4), K(Some(2), 1));
        assert_eq!(q.peek_time(), Some(t(4)));
        q.schedule(t(6), K(Some(1), 2));
        q.cancel(early);
        assert_eq!(q.peek_time(), Some(t(6)));
        assert_eq!(q.pop(), Some((t(6), K(Some(1), 2))));
        assert_eq!(q.peek_time(), Some(t(9)));
    }

    #[test]
    fn heap_entries_are_sixteen_bytes() {
        assert_eq!(std::mem::size_of::<Entry>(), 16);
    }

    #[test]
    fn slots_recycle() {
        let mut q = EventQueue::new();
        for round in 0..100u32 {
            q.schedule(t(round as u64), round);
            assert_eq!(q.pop(), Some((t(round as u64), round)));
        }
        assert!(q.slots.len() <= 2, "steady-state churn must reuse slots");
    }
}
