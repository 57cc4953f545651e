//! The pending-event set.
//!
//! A binary heap keyed on `(time, sequence)`: events at equal simulated
//! times fire in the order they were scheduled, which makes runs fully
//! deterministic — a property the reproduction harness depends on.
//!
//! Payloads live out-of-line in a slab so each heap entry is a fixed
//! 16 bytes (time, sequence, slot) regardless of the payload type, and
//! cancellation is a generation-counter check on the slot instead of the
//! historical sorted-tombstone scan: [`EventId`] records the slot and its
//! generation at schedule time; cancelling flips the slot's live flag, and
//! the slot is recycled (generation bumped) only when the heap entry drains
//! past it, so a stale id can never cancel a later event that reused the
//! slot.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifies a scheduled event so it can be cancelled. Stale ids (events
/// that already fired or were already cancelled) are recognized and
/// rejected, even after their slot has been reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// A fixed-size heap entry; the payload lives in the slot slab.
#[derive(Clone, Copy)]
struct Entry {
    time: SimTime,
    seq: u32,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
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
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
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
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u32,
    live: usize,
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
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Events already in the past are
    /// permitted (they fire "now"); the engine asserts monotonicity at pop.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
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
        self.heap.push(Entry { time, seq, slot });
        self.live += 1;
        EventId {
            slot,
            gen: self.slots[slot as usize].gen,
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

    /// Remove and return the earliest live event, as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            let slot = &mut self.slots[entry.slot as usize];
            let live = slot.live;
            let payload = slot.payload.take().expect("heap entry with empty slot");
            // The slot is recycled only here — after its heap entry drained
            // — so every pending heap entry points at its own occupancy.
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

    /// The timestamp of the earliest *live* event without removing it.
    /// Cancelled entries still draining through the heap are skipped, so
    /// this agrees exactly with what [`EventQueue::pop`] would return.
    /// Linear in the pending-entry count — fine for its diagnostic
    /// callers, wrong for the hot loop (which pops instead of peeking).
    pub fn peek_time(&self) -> Option<SimTime> {
        // A slot recycles only when its heap entry drains, so each entry's
        // slot `live` flag describes that entry, not a later occupant.
        self.heap
            .iter()
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
