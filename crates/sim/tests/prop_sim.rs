//! Property tests for the simulation engine substrate: event ordering,
//! lock grant order, and PRNG sanity.

use std::collections::VecDeque;

use proptest::prelude::*;

use rt_sim::{EventQueue, Laned, Rng, SimDuration, SimLock, SimTime, LANES};

/// One step of the event-queue model comparison.
#[derive(Clone, Debug)]
enum QueueOp {
    /// Schedule an event at this time into this lane (or the heap); the
    /// payload is its issue index. Random times reach a lane out of order
    /// and exercise the heap fallback.
    Schedule(u64, Option<usize>),
    /// Schedule an event this long after the latest time scheduled so
    /// far, into this lane (or the heap): an in-order lane append.
    ScheduleLater(u64, Option<usize>),
    /// Cancel the id issued at (this value modulo the issued count) —
    /// which may be live, already cancelled, or long since popped.
    Cancel(usize),
    /// Pop the earliest live event, if any.
    Pop,
}

/// A test payload: its issue index and the lane it names.
#[derive(Clone, Copy, Debug)]
struct Routed(usize, Option<usize>);

impl Laned for Routed {
    fn lane(&self) -> Option<usize> {
        self.1
    }
}

/// The seed queue, restated: every scheduled event is kept in issue order
/// and flagged rather than removed, and pop scans for the earliest
/// still-live entry. Quadratic, but an unambiguous specification.
#[derive(Default)]
struct TombstoneModel {
    /// (time, payload, dead) per issued event; issue order is tie order.
    events: Vec<(u64, usize, bool)>,
    live: usize,
}

impl TombstoneModel {
    fn schedule(&mut self, time: u64, payload: usize) {
        self.events.push((time, payload, false));
        self.live += 1;
    }

    fn cancel(&mut self, k: usize) -> bool {
        if self.events[k].2 {
            return false;
        }
        self.events[k].2 = true;
        self.live -= 1;
        true
    }

    fn earliest(&self) -> Option<usize> {
        self.events
            .iter()
            .enumerate()
            .filter(|(_, &(_, _, dead))| !dead)
            .min_by_key(|&(i, &(t, _, _))| (t, i))
            .map(|(i, _)| i)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let i = self.earliest()?;
        self.events[i].2 = true;
        self.live -= 1;
        Some((self.events[i].0, self.events[i].1))
    }

    fn peek_time(&self) -> Option<u64> {
        self.earliest().map(|i| self.events[i].0)
    }

    fn len(&self) -> usize {
        self.live
    }
}

/// A lane index, or `None` for the heap, drawn evenly.
fn lane() -> impl Strategy<Value = Option<usize>> {
    (0..=LANES).prop_map(|l| (l < LANES).then_some(l))
}

proptest! {
    /// The event queue is a stable priority queue: popping returns events
    /// in time order, and schedule order within equal times.
    #[test]
    fn event_queue_is_stable_and_ordered(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut expected: Vec<(u64, usize)> =
            times.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        expected.sort(); // stable by (time, insertion index)
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn cancellation_removes_exactly_the_cancelled(
        times in prop::collection::vec(0u64..100, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule(SimTime::from_nanos(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if cancel_mask[i % cancel_mask.len()] {
                q.cancel(*id);
            } else {
                kept.push(i);
            }
        }
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// Lock grants never overlap and respect FIFO order.
    #[test]
    fn lock_grants_are_disjoint_and_fifo(
        reqs in prop::collection::vec((0u64..10_000, 1u64..50), 1..100)
    ) {
        let mut lock = SimLock::new();
        let mut reqs = reqs;
        reqs.sort_by_key(|&(at, _)| at);
        let mut prev_end = SimTime::ZERO;
        for &(at, hold) in &reqs {
            let grant = lock.acquire(SimTime::from_nanos(at), SimDuration::from_nanos(hold));
            prop_assert!(grant >= SimTime::from_nanos(at));
            prop_assert!(grant >= prev_end, "critical sections must not overlap");
            prev_end = grant + SimDuration::from_nanos(hold);
        }
        prop_assert_eq!(lock.acquisitions(), reqs.len() as u64);
    }

    /// Rng::below stays in range for arbitrary bounds.
    #[test]
    fn rng_below_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = Rng::seeded(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Splitting the same parent with the same key is reproducible, and
    /// different keys diverge.
    #[test]
    fn rng_split_reproducible(seed in any::<u64>(), key in any::<u64>()) {
        let parent = Rng::seeded(seed);
        let mut a = parent.split(key);
        let mut b = parent.split(key);
        for _ in 0..8 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = parent.split(key.wrapping_add(1));
        let divergent = (0..8).any(|_| a.next_u64() != c.next_u64());
        prop_assert!(divergent);
    }

    /// The slab-and-generation queue with its FIFO lanes is observably
    /// identical to the seed implementation (a sorted list with tombstones
    /// scanned on pop) under arbitrary interleavings of schedule, cancel,
    /// and pop — whichever lane each event names, in order or not —
    /// including cancelling ids that already popped (must report `false`
    /// and leave the queue untouched) and cancelling stale ids whose slot
    /// has since been recycled for a newer event. The fallback counter
    /// counts exactly the laned events earlier than their lane's tail.
    #[test]
    fn event_queue_matches_tombstone_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..50, lane()).prop_map(|(t, l)| QueueOp::Schedule(t, l)),
                (0u64..4, lane()).prop_map(|(g, l)| QueueOp::ScheduleLater(g, l)),
                (0usize..256).prop_map(QueueOp::Cancel),
                Just(QueueOp::Pop),
            ],
            1..300,
        )
    ) {
        let mut q = EventQueue::new();
        let mut model = TombstoneModel::default();
        let mut ids = Vec::new();
        let mut latest = 0u64;
        // Per lane, the (time, issue index) of each entry it still holds,
        // live or cancelled; and the fallbacks due.
        let mut lanes: [VecDeque<(u64, usize)>; LANES] = Default::default();
        let mut fallbacks = 0u64;
        for op in &ops {
            let op = match *op {
                QueueOp::ScheduleLater(gap, l) => QueueOp::Schedule(latest + gap, l),
                ref op => op.clone(),
            };
            match op {
                QueueOp::Schedule(t, l) => {
                    latest = latest.max(t);
                    let payload = ids.len();
                    if let Some(l) = l {
                        if lanes[l].back().is_none_or(|&(tail, _)| tail <= t) {
                            lanes[l].push_back((t, payload));
                        } else {
                            fallbacks += 1;
                        }
                    }
                    ids.push(q.schedule(SimTime::from_nanos(t), Routed(payload, l)));
                    model.schedule(t, payload);
                }
                QueueOp::Cancel(pick) => {
                    if ids.is_empty() {
                        continue;
                    }
                    let k = pick % ids.len();
                    prop_assert_eq!(
                        q.cancel(ids[k]),
                        model.cancel(k),
                        "cancel of event {} disagreed", k
                    );
                }
                QueueOp::Pop => {
                    let got = q.pop().map(|(t, p)| (t.as_nanos(), p.0));
                    prop_assert_eq!(got, model.pop());
                    // A pop drains every entry up to the one it returns
                    // (all of them when it returns nothing).
                    let drained = got.unwrap_or((u64::MAX, usize::MAX));
                    for lane in &mut lanes {
                        while lane.front().is_some_and(|&front| front <= drained) {
                            lane.pop_front();
                        }
                    }
                }
                QueueOp::ScheduleLater(..) => unreachable!("rewritten above"),
            }
            prop_assert_eq!(q.lane_fallbacks(), fallbacks);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.len() == 0);
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), model.peek_time());
        }
        // Drain both to the end: the full pop orders must agree.
        loop {
            let got = q.pop().map(|(t, p)| (t.as_nanos(), p.0));
            let want = model.pop();
            prop_assert_eq!(got, want);
            if want.is_none() {
                break;
            }
        }
    }

    /// Exponential sampling is non-negative and zero-mean gives zero.
    #[test]
    fn rng_exponential_bounds(seed in any::<u64>(), mean_ms in 0u64..100) {
        let mut rng = Rng::seeded(seed);
        let mean = SimDuration::from_millis(mean_ms);
        let x = rng.exponential(mean);
        if mean_ms == 0 {
            prop_assert_eq!(x, SimDuration::ZERO);
        }
        // An exponential draw beyond 50x the mean has probability e^-50.
        prop_assert!(x <= mean * 50 + SimDuration::from_millis(1));
    }
}
