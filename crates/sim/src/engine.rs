//! The event loop.
//!
//! A model implements [`Model`], pumping all domain logic from its
//! [`Model::handle`] method; the engine owns the clock and the pending-event
//! set and guarantees (a) the clock never runs backwards and (b) events at
//! the same instant fire in schedule order.

use crate::event::{EventId, EventQueue, Laned};
use crate::time::{SimDuration, SimTime};

/// The clock plus the pending-event set, handed to the model on every event.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
    fired: u64,
}

impl<E> Scheduler<E> {
    /// A scheduler at time zero with no pending events.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            fired: 0,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cancel a pending event. No-op if it already fired.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Number of events processed so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Events whose lane could not take them in time order and went to
    /// the heap instead (see [`EventQueue::lane_fallbacks`]).
    pub fn lane_fallbacks(&self) -> u64 {
        self.queue.lane_fallbacks()
    }
}

impl<E: Laned> Scheduler<E> {
    /// Schedule an event at an absolute time, which must not be in the past.
    pub fn schedule_at(&mut self, time: SimTime, event: E) -> EventId {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time:?} < now {:?}",
            self.now
        );
        self.queue.schedule(time.max(self.now), event)
    }

    /// Schedule an event `delay` from now.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.schedule(self.now + delay, event)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// A simulation model driven by the engine.
pub trait Model {
    /// The event payload type. Scheduling it needs [`Laned`], which picks
    /// the queue lane for each kind (or the heap, by default).
    type Event;

    /// Handle one event at `sched.now()`. The model may schedule further
    /// events; it must not assume anything fires between consecutive calls.
    fn handle(&mut self, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Outcome of [`run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulated time when the loop stopped.
    pub end_time: SimTime,
    /// Total events dispatched.
    pub events: u64,
    /// True if the loop stopped because the event budget was exhausted
    /// rather than because the queue drained.
    pub budget_exhausted: bool,
}

/// Host-side statistics from [`run_with_stats`]: the outcome plus the
/// wall-clock cost of producing it.
#[derive(Clone, Copy, Debug)]
pub struct EngineStats {
    /// The simulation outcome, identical to what [`run`] would return.
    pub outcome: RunOutcome,
    /// Host wall-clock time spent inside the event loop.
    pub wall: std::time::Duration,
    /// Largest number of simultaneously pending events observed.
    pub peak_pending: usize,
}

impl EngineStats {
    /// Events dispatched per host-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.outcome.events as f64 / secs
        }
    }
}

/// Like [`run`], but measures host wall-clock time and tracks the peak
/// pending-event count. The dispatch order — and therefore every simulated
/// number — is identical to [`run`]; the instrumentation only reads the
/// host clock and the queue length.
pub fn run_with_stats<M: Model>(
    model: &mut M,
    sched: &mut Scheduler<M::Event>,
    max_events: u64,
) -> EngineStats {
    let start = std::time::Instant::now();
    let mut peak_pending = sched.pending();
    let outcome = loop {
        let Some((time, event)) = sched.queue.pop() else {
            break RunOutcome {
                end_time: sched.now,
                events: sched.fired,
                budget_exhausted: false,
            };
        };
        assert!(
            time >= sched.now,
            "event queue returned an event from the past"
        );
        sched.now = time;
        sched.fired += 1;
        model.handle(event, sched);
        peak_pending = peak_pending.max(sched.pending());
        if sched.fired >= max_events {
            break RunOutcome {
                end_time: sched.now,
                events: sched.fired,
                budget_exhausted: true,
            };
        }
    };
    EngineStats {
        outcome,
        wall: start.elapsed(),
        peak_pending,
    }
}

/// Why [`run_observed`] stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObservedEnd {
    /// The queue drained or the event budget ran out; carries the same
    /// outcome [`run`] would report.
    Finished(RunOutcome),
    /// The observer rejected the model's state after an event, halting the
    /// run. Carries the observer's message and the halt time.
    Violation {
        /// The observer's description of the violated invariant.
        message: String,
        /// Simulated time at the halt.
        at: SimTime,
        /// Events dispatched up to and including the offending one.
        events: u64,
    },
}

/// Like [`run`], but calls `observe(model, events_fired)` after every
/// dispatched event; the run halts at the first `Err`. The dispatch order
/// — and every simulated number — is identical to [`run`]; the observer
/// only reads state. Built for invariant-checked soak runs.
pub fn run_observed<M: Model>(
    model: &mut M,
    sched: &mut Scheduler<M::Event>,
    max_events: u64,
    mut observe: impl FnMut(&M, u64) -> Result<(), String>,
) -> ObservedEnd {
    while let Some((time, event)) = sched.queue.pop() {
        assert!(
            time >= sched.now,
            "event queue returned an event from the past"
        );
        sched.now = time;
        sched.fired += 1;
        model.handle(event, sched);
        if let Err(message) = observe(model, sched.fired) {
            return ObservedEnd::Violation {
                message,
                at: sched.now,
                events: sched.fired,
            };
        }
        if sched.fired >= max_events {
            return ObservedEnd::Finished(RunOutcome {
                end_time: sched.now,
                events: sched.fired,
                budget_exhausted: true,
            });
        }
    }
    ObservedEnd::Finished(RunOutcome {
        end_time: sched.now,
        events: sched.fired,
        budget_exhausted: false,
    })
}

/// Drive `model` until no events remain, or until `max_events` have fired
/// (a runaway-model backstop; pass `u64::MAX` for "no limit").
pub fn run<M: Model>(
    model: &mut M,
    sched: &mut Scheduler<M::Event>,
    max_events: u64,
) -> RunOutcome {
    while let Some((time, event)) = sched.queue.pop() {
        assert!(
            time >= sched.now,
            "event queue returned an event from the past"
        );
        sched.now = time;
        sched.fired += 1;
        model.handle(event, sched);
        if sched.fired >= max_events {
            return RunOutcome {
                end_time: sched.now,
                events: sched.fired,
                budget_exhausted: true,
            };
        }
    }
    RunOutcome {
        end_time: sched.now,
        events: sched.fired,
        budget_exhausted: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that rings a countdown: each event re-schedules itself with
    /// a smaller counter until it reaches zero.
    struct Countdown {
        log: Vec<(SimTime, u32)>,
    }

    impl Model for Countdown {
        type Event = u32;
        fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
            self.log.push((sched.now(), event));
            if event > 0 {
                sched.schedule_in(SimDuration::from_millis(10), event - 1);
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let mut model = Countdown { log: Vec::new() };
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, 3u32);
        let out = run(&mut model, &mut sched, u64::MAX);
        assert_eq!(out.events, 4);
        assert!(!out.budget_exhausted);
        assert_eq!(out.end_time, SimTime::ZERO + SimDuration::from_millis(30));
        assert_eq!(
            model.log.iter().map(|&(_, e)| e).collect::<Vec<_>>(),
            vec![3, 2, 1, 0]
        );
    }

    #[test]
    fn budget_stops_runaway() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, ());
        let out = run(&mut Forever, &mut sched, 1000);
        assert!(out.budget_exhausted);
        assert_eq!(out.events, 1000);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        struct Collect {
            seen: Vec<u32>,
        }
        impl Model for Collect {
            type Event = u32;
            fn handle(&mut self, e: u32, _: &mut Scheduler<u32>) {
                self.seen.push(e);
            }
        }
        let mut model = Collect { seen: Vec::new() };
        let mut sched = Scheduler::new();
        for i in 0..20 {
            sched.schedule_at(SimTime::from_nanos(500), i);
        }
        run(&mut model, &mut sched, u64::MAX);
        assert_eq!(model.seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        struct Collect {
            seen: Vec<u32>,
        }
        impl Model for Collect {
            type Event = u32;
            fn handle(&mut self, e: u32, _: &mut Scheduler<u32>) {
                self.seen.push(e);
            }
        }
        let mut model = Collect { seen: Vec::new() };
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::from_nanos(1), 1);
        let id = sched.schedule_at(SimTime::from_nanos(2), 2);
        sched.schedule_at(SimTime::from_nanos(3), 3);
        sched.cancel(id);
        run(&mut model, &mut sched, u64::MAX);
        assert_eq!(model.seen, vec![1, 3]);
    }

    #[test]
    fn run_with_stats_matches_run() {
        let mut a = Countdown { log: Vec::new() };
        let mut sa = Scheduler::new();
        sa.schedule_at(SimTime::ZERO, 5u32);
        let plain = run(&mut a, &mut sa, u64::MAX);

        let mut b = Countdown { log: Vec::new() };
        let mut sb = Scheduler::new();
        sb.schedule_at(SimTime::ZERO, 5u32);
        let stats = run_with_stats(&mut b, &mut sb, u64::MAX);

        assert_eq!(stats.outcome, plain);
        assert_eq!(a.log, b.log);
        assert!(stats.peak_pending >= 1);
        assert!(stats.events_per_sec() >= 0.0);
    }

    #[test]
    fn run_with_stats_respects_budget() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, _: (), sched: &mut Scheduler<()>) {
                sched.schedule_in(SimDuration::from_nanos(1), ());
            }
        }
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, ());
        let stats = run_with_stats(&mut Forever, &mut sched, 100);
        assert!(stats.outcome.budget_exhausted);
        assert_eq!(stats.outcome.events, 100);
    }

    #[test]
    fn run_observed_matches_run_and_halts_on_violation() {
        // Clean pass: identical trajectory to `run`.
        let mut a = Countdown { log: Vec::new() };
        let mut sa = Scheduler::new();
        sa.schedule_at(SimTime::ZERO, 5u32);
        let plain = run(&mut a, &mut sa, u64::MAX);

        let mut b = Countdown { log: Vec::new() };
        let mut sb = Scheduler::new();
        sb.schedule_at(SimTime::ZERO, 5u32);
        let end = run_observed(&mut b, &mut sb, u64::MAX, |_, _| Ok(()));
        assert_eq!(end, ObservedEnd::Finished(plain));
        assert_eq!(a.log, b.log);

        // Violation: halts at the first failing observation.
        let mut c = Countdown { log: Vec::new() };
        let mut sc = Scheduler::new();
        sc.schedule_at(SimTime::ZERO, 5u32);
        let end = run_observed(&mut c, &mut sc, u64::MAX, |m, _| {
            if m.log.len() >= 3 {
                Err("three events is plenty".into())
            } else {
                Ok(())
            }
        });
        match end {
            ObservedEnd::Violation {
                message, events, ..
            } => {
                assert_eq!(message, "three events is plenty");
                assert_eq!(events, 3);
            }
            other => panic!("expected a violation, got {other:?}"),
        }
        assert_eq!(c.log.len(), 3);
    }

    #[test]
    fn clock_is_monotone() {
        // Two interleaved self-rescheduling chains with co-prime periods:
        // events arrive out of schedule order, the clock must not regress.
        struct Recorder {
            last: SimTime,
        }
        impl Model for Recorder {
            type Event = u8;
            fn handle(&mut self, chain: u8, sched: &mut Scheduler<u8>) {
                assert!(sched.now() >= self.last);
                self.last = sched.now();
                if sched.now() < SimTime::from_nanos(1_000) {
                    let step = if chain == 0 { 7 } else { 3 };
                    sched.schedule_in(SimDuration::from_nanos(step), chain);
                }
            }
        }
        let mut model = Recorder {
            last: SimTime::ZERO,
        };
        let mut sched = Scheduler::new();
        sched.schedule_at(SimTime::ZERO, 0);
        sched.schedule_at(SimTime::from_nanos(1), 1);
        run(&mut model, &mut sched, u64::MAX);
        // Chains of period 7 and 3 over 1000 ns: ~143 + ~333 events.
        assert!(sched.events_fired() > 400);
    }
}
