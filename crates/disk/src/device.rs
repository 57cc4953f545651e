//! A single simulated disk device with an explicit request queue.
//!
//! The device is event-driven: a submission either starts service
//! immediately (the caller schedules a completion event) or queues; each
//! completion may start the next request per the queue discipline. The
//! paper's testbed serves requests FCFS — prefetches *do* delay demand
//! fetches, a deliberate property ([`Discipline::Fifo`]). The
//! demand-priority discipline is an extension for studying how much of the
//! prefetch-induced contention (Fig. 7) a smarter disk queue could absorb.

use std::collections::VecDeque;

use rt_sim::{SimDuration, SimTime, Tally, TimeWeighted};

use crate::fault::{DeviceFaults, DiskFault};
use crate::request::{DiskRequest, FetchKind};

/// The paper's disk model: every single-block access costs a fixed 30 ms.
pub const ACCESS_TIME: SimDuration = SimDuration::from_millis(30);

/// Order in which queued requests are dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Discipline {
    /// First-come first-served (the paper's testbed).
    #[default]
    Fifo,
    /// Demand fetches dispatch before prefetches; FCFS within each class
    /// (extension).
    DemandPriority,
}

/// Typed rejection from a bounded device queue: the disk was busy and its
/// queue already held `depth` requests, the configured limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// Requests waiting in queue (excluding the one in service) at the
    /// moment of rejection.
    pub depth: usize,
}

/// A request actively being serviced. The completion status is decided
/// when service starts (the fault schedule is a function of the start
/// time) and reported when the completion event fires.
#[derive(Clone, Copy, Debug)]
struct InService {
    req: DiskRequest,
    completion: SimTime,
    status: Result<(), DiskFault>,
    service: SimDuration,
    corrupt: bool,
}

/// A finished I/O as reported by [`Disk::complete`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Finished {
    /// The request that finished.
    pub req: DiskRequest,
    /// `Ok` on success; `Err` carries the injected fault.
    pub status: Result<(), DiskFault>,
    /// The service time this request occupied the device for (excludes
    /// queueing).
    pub service: SimDuration,
    /// True when the completion is `Ok` but the payload is silently
    /// corrupt (a [`crate::fault::FaultKind::Corrupt`] window fired).
    /// Only checksum verification above the disk layer can see this.
    pub corrupt: bool,
}

/// One disk: a queue and the response-time accounting the paper
/// uses as its disk-contention metric ("the time from the entry of the
/// request on the queue of the appropriate disk to the completion of the
/// I/O").
#[derive(Clone, Debug)]
pub struct Disk {
    discipline: Discipline,
    faults: Option<DeviceFaults>,
    queue_limit: Option<usize>,
    max_depth: usize,
    queue: VecDeque<DiskRequest>,
    in_service: Option<InService>,
    busy: SimDuration,
    completed: u64,
    errors: u64,
    response: Tally,
    queue_len: TimeWeighted,
}

impl Disk {
    /// A new idle disk with the given queue discipline.
    pub fn new(discipline: Discipline) -> Self {
        Disk {
            discipline,
            faults: None,
            queue_limit: None,
            max_depth: 0,
            queue: VecDeque::new(),
            in_service: None,
            busy: SimDuration::ZERO,
            completed: 0,
            errors: 0,
            response: Tally::new(),
            queue_len: TimeWeighted::new(SimTime::ZERO, 0.0),
        }
    }

    /// Submit `req` at `req.submitted`. If the disk is idle the request
    /// starts at once and its completion time is returned — the caller
    /// must schedule a completion event and call [`Disk::complete`] then.
    /// Otherwise the request queues and `Ok(None)` is returned — unless a
    /// queue limit is configured and already reached, in which case the
    /// request is rejected with [`QueueFull`] and the device is untouched.
    pub fn submit(&mut self, req: DiskRequest) -> Result<Option<SimTime>, QueueFull> {
        if self.in_service.is_none() {
            debug_assert!(self.queue.is_empty(), "idle disk with queued work");
            Ok(Some(self.start(req, req.submitted)))
        } else {
            if let Some(limit) = self.queue_limit {
                if self.queue.len() >= limit {
                    return Err(QueueFull {
                        depth: self.queue.len(),
                    });
                }
            }
            self.queue_len.add(req.submitted, 1.0);
            self.queue.push_back(req);
            self.max_depth = self.max_depth.max(self.queue.len());
            Ok(None)
        }
    }

    /// Remove the first queued request matching `pred` (in queue order),
    /// keeping the time-weighted queue-length accounting consistent.
    /// The in-service request is never cancelled. Returns the removed
    /// request, if any.
    pub fn cancel_queued(
        &mut self,
        now: SimTime,
        pred: impl Fn(&DiskRequest) -> bool,
    ) -> Option<DiskRequest> {
        let pos = self.queue.iter().position(pred)?;
        let req = self
            .queue
            .remove(pos)
            .expect("cancel position within queue bounds");
        self.queue_len.add(now, -1.0);
        Some(req)
    }

    /// The in-flight request finished at `now`. Returns the finished
    /// request (with its completion status) and, if the queue was
    /// non-empty, the next request together with its completion time (the
    /// caller schedules the next completion event).
    pub fn complete(&mut self, now: SimTime) -> (Finished, Option<(DiskRequest, SimTime)>) {
        let done = self.in_service.take().expect("complete on an idle disk");
        debug_assert_eq!(done.completion, now, "completion fired at the wrong time");
        self.completed += 1;
        if done.status.is_err() {
            self.errors += 1;
        }
        self.response
            .record(now.saturating_since(done.req.submitted));
        let next = self.dequeue().map(|req| {
            self.queue_len.add(now, -1.0);
            let completion = self.start(req, now);
            (req, completion)
        });
        (
            Finished {
                req: done.req,
                status: done.status,
                service: done.service,
                corrupt: done.corrupt,
            },
            next,
        )
    }

    /// Pick the next queued request per the discipline.
    fn dequeue(&mut self) -> Option<DiskRequest> {
        match self.discipline {
            Discipline::Fifo => self.queue.pop_front(),
            Discipline::DemandPriority => {
                let pos = self
                    .queue
                    .iter()
                    .position(|r| r.kind == FetchKind::Demand)
                    .unwrap_or(0);
                if self.queue.is_empty() {
                    None
                } else {
                    self.queue.remove(pos)
                }
            }
        }
    }

    /// Begin servicing `req` at `start`; returns its completion time.
    ///
    /// The fault schedule (if any) adjusts the fixed [`ACCESS_TIME`] and
    /// decides the outcome.
    fn start(&mut self, req: DiskRequest, start: SimTime) -> SimTime {
        let applied = match &mut self.faults {
            Some(f) => f.apply(start, ACCESS_TIME),
            None => crate::fault::Applied::clean(ACCESS_TIME),
        };
        self.busy += applied.service;
        let completion = start + applied.service;
        self.in_service = Some(InService {
            req,
            completion,
            status: applied.status,
            service: applied.service,
            corrupt: applied.corrupt,
        });
        completion
    }

    /// Attach a fault schedule. Replaces any previous schedule; a disk
    /// without one behaves exactly as before the fault layer existed.
    pub fn set_faults(&mut self, faults: DeviceFaults) {
        self.faults = Some(faults);
    }

    /// Bound the request queue to `limit` waiting requests (excluding the
    /// one in service); `None` restores the unbounded default. Submissions
    /// beyond the bound are rejected with [`QueueFull`].
    pub fn set_queue_limit(&mut self, limit: Option<usize>) {
        self.queue_limit = limit;
    }

    /// The configured queue bound, if any.
    pub fn queue_limit(&self) -> Option<usize> {
        self.queue_limit
    }

    /// Deepest the queue has ever been (waiting requests only).
    pub fn max_queue_depth(&self) -> usize {
        self.max_depth
    }

    /// Queued requests of the given kind (excluding the one in service).
    pub fn queued_of_kind(&self, kind: FetchKind) -> usize {
        self.queue.iter().filter(|r| r.kind == kind).count()
    }

    /// True when a request is in service.
    pub fn busy_now(&self) -> bool {
        self.in_service.is_some()
    }

    /// Requests completed so far.
    pub fn ops(&self) -> u64 {
        self.completed
    }

    /// Requests that completed with an injected fault.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Requests waiting in queue (excluding the one in service).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Distribution of response times over all completed requests.
    pub fn response(&self) -> &Tally {
        &self.response
    }

    /// Fraction of `[0, now]` the device was busy.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.as_nanos();
        if span == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / span as f64
        }
    }

    /// Time-averaged queue length over `[0, now]`.
    pub fn avg_queue_len(&self, now: SimTime) -> f64 {
        self.queue_len.average(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{BlockId, ProcId};
    use rt_sim::Rng;

    fn req(at_ms: u64, kind: FetchKind, block: u32) -> DiskRequest {
        DiskRequest {
            block: BlockId(block),
            kind,
            initiator: ProcId(0),
            submitted: SimTime::ZERO + SimDuration::from_millis(at_ms),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn disk(d: Discipline) -> Disk {
        Disk::new(d)
    }

    #[test]
    fn idle_disk_starts_immediately() {
        let mut d = disk(Discipline::Fifo);
        let completion = d.submit(req(0, FetchKind::Demand, 0)).unwrap().unwrap();
        assert_eq!(completion, t(30));
        assert!(d.busy_now());
        let (done, next) = d.complete(t(30));
        assert_eq!(done.req.block, BlockId(0));
        assert_eq!(done.status, Ok(()));
        assert_eq!(done.service, SimDuration::from_millis(30));
        assert!(next.is_none());
        assert!(!d.busy_now());
        assert_eq!(d.ops(), 1);
        assert_eq!(d.errors(), 0);
    }

    #[test]
    fn busy_disk_queues_fifo() {
        let mut d = disk(Discipline::Fifo);
        assert_eq!(d.submit(req(0, FetchKind::Demand, 0)), Ok(Some(t(30))));
        assert_eq!(d.submit(req(5, FetchKind::Demand, 1)), Ok(None));
        assert_eq!(d.submit(req(6, FetchKind::Demand, 2)), Ok(None));
        assert_eq!(d.queued(), 2);
        let (done, next) = d.complete(t(30));
        assert_eq!(done.req.block, BlockId(0));
        let (nreq, ncomp) = next.unwrap();
        assert_eq!(nreq.block, BlockId(1));
        assert_eq!(ncomp, t(60));
        let (done, next) = d.complete(t(60));
        assert_eq!(done.req.block, BlockId(1));
        assert_eq!(next.unwrap().0.block, BlockId(2));
        // Response of block 1: submitted at 5, done at 60 -> 55ms.
        assert!((d.response().mean_millis() - (30.0 + 55.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn demand_priority_jumps_prefetches() {
        let mut d = disk(Discipline::DemandPriority);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        d.submit(req(1, FetchKind::Prefetch, 1)).unwrap();
        d.submit(req(2, FetchKind::Prefetch, 2)).unwrap();
        d.submit(req(3, FetchKind::Demand, 3)).unwrap();
        let (_, next) = d.complete(t(30));
        // The demand fetch (block 3) overtakes both queued prefetches.
        assert_eq!(next.unwrap().0.block, BlockId(3));
        let (_, next) = d.complete(t(60));
        assert_eq!(next.unwrap().0.block, BlockId(1));
    }

    #[test]
    fn fifo_never_reorders() {
        let mut d = disk(Discipline::Fifo);
        d.submit(req(0, FetchKind::Prefetch, 0)).unwrap();
        d.submit(req(1, FetchKind::Prefetch, 1)).unwrap();
        d.submit(req(2, FetchKind::Demand, 2)).unwrap();
        let (_, next) = d.complete(t(30));
        assert_eq!(next.unwrap().0.block, BlockId(1));
    }

    #[test]
    fn utilization_accumulates() {
        let mut d = disk(Discipline::Fifo);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        d.complete(t(30));
        d.submit(req(70, FetchKind::Demand, 1)).unwrap();
        d.complete(t(100));
        // Busy 60ms out of 100ms.
        assert!((d.utilization(t(100)) - 0.6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "complete on an idle disk")]
    fn complete_when_idle_panics() {
        let mut d = disk(Discipline::Fifo);
        d.complete(t(0));
    }

    /// Regression: a request arriving exactly at a prior completion time
    /// must not be double-delayed by stale busy accounting — both the
    /// complete-then-submit and the submit-then-complete ordering at the
    /// same instant must start service at that instant.
    #[test]
    fn arrival_at_completion_instant_not_double_delayed() {
        // Ordering A: completion processed first, then the new arrival
        // finds an idle device and starts immediately.
        let mut d = disk(Discipline::Fifo);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        let (_, next) = d.complete(t(30));
        assert!(next.is_none());
        let completion = d.submit(req(30, FetchKind::Demand, 1)).unwrap().unwrap();
        assert_eq!(completion, t(60), "idle restart at t must finish at t+30");

        // Ordering B: the arrival is submitted while the prior request is
        // still in service (its completion is also at t=30); it queues,
        // and the completion must start it at 30 — not at 60.
        let mut d = disk(Discipline::Fifo);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        assert!(d.submit(req(30, FetchKind::Demand, 1)).unwrap().is_none());
        let (_, next) = d.complete(t(30));
        let (nreq, ncomp) = next.unwrap();
        assert_eq!(nreq.block, BlockId(1));
        assert_eq!(ncomp, t(60), "queued same-instant arrival double-delayed");
    }

    #[test]
    fn bounded_queue_rejects_past_limit() {
        let mut d = disk(Discipline::Fifo);
        d.set_queue_limit(Some(2));
        assert_eq!(d.queue_limit(), Some(2));
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        assert_eq!(d.submit(req(1, FetchKind::Demand, 1)), Ok(None));
        assert_eq!(d.submit(req(2, FetchKind::Prefetch, 2)), Ok(None));
        // Third waiter exceeds the bound: rejected, device untouched.
        assert_eq!(
            d.submit(req(3, FetchKind::Demand, 3)),
            Err(QueueFull { depth: 2 })
        );
        assert_eq!(d.queued(), 2);
        assert_eq!(d.max_queue_depth(), 2);
        // Draining frees a slot again.
        let (_, next) = d.complete(t(30));
        assert!(next.is_some());
        assert_eq!(d.submit(req(31, FetchKind::Demand, 4)), Ok(None));
    }

    #[test]
    fn cancel_queued_removes_first_match_only() {
        let mut d = disk(Discipline::Fifo);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        d.submit(req(1, FetchKind::Prefetch, 1)).unwrap();
        d.submit(req(2, FetchKind::Prefetch, 2)).unwrap();
        assert_eq!(d.queued_of_kind(FetchKind::Prefetch), 2);
        let cancelled = d
            .cancel_queued(t(5), |r| r.kind == FetchKind::Prefetch)
            .unwrap();
        assert_eq!(cancelled.block, BlockId(1));
        assert_eq!(d.queued(), 1);
        assert_eq!(d.queued_of_kind(FetchKind::Prefetch), 1);
        // The in-service demand request is never a cancellation target.
        assert!(d
            .cancel_queued(t(5), |r| r.kind == FetchKind::Demand)
            .is_none());
        assert!(d.busy_now());
        // Queue accounting stays consistent: the remaining prefetch drains.
        let (_, next) = d.complete(t(30));
        assert_eq!(next.unwrap().0.block, BlockId(2));
    }

    #[test]
    fn max_depth_tracks_high_water_mark() {
        let mut d = disk(Discipline::Fifo);
        assert_eq!(d.max_queue_depth(), 0);
        d.submit(req(0, FetchKind::Demand, 0)).unwrap();
        assert_eq!(d.max_queue_depth(), 0, "in-service request is not depth");
        d.submit(req(1, FetchKind::Demand, 1)).unwrap();
        d.submit(req(2, FetchKind::Demand, 2)).unwrap();
        assert_eq!(d.max_queue_depth(), 2);
        d.complete(t(30));
        d.complete(t(60));
        // Draining never lowers the high-water mark.
        assert_eq!(d.max_queue_depth(), 2);
    }

    #[test]
    fn straggler_window_slows_service_and_flags_nothing() {
        use crate::fault::{DeviceFaults, FaultPlan};
        use crate::request::DiskId;
        let mut d = disk(Discipline::Fifo);
        let plan = FaultPlan::none().straggler(DiskId(0), 4.0, t(0), Some(t(100)));
        d.set_faults(DeviceFaults::new(
            plan.for_disk(DiskId(0)).to_vec(),
            Rng::seeded(3),
        ));
        assert_eq!(d.submit(req(0, FetchKind::Demand, 0)), Ok(Some(t(120))));
        let (done, _) = d.complete(t(120));
        assert_eq!(done.status, Ok(()));
        assert_eq!(done.service, SimDuration::from_millis(120));
        // Outside the window, service is back to the 30 ms baseline.
        assert_eq!(d.submit(req(120, FetchKind::Demand, 1)), Ok(Some(t(150))));
        assert_eq!(d.errors(), 0);
    }

    #[test]
    fn corrupt_window_completes_ok_with_flag_and_counts_no_error() {
        use crate::fault::{DeviceFaults, FaultPlan};
        use crate::request::DiskId;
        let mut d = disk(Discipline::Fifo);
        // Probability ~1: the draw always corrupts inside the window.
        let plan = FaultPlan::none().corrupt(DiskId(0), 0.999_999, t(0), Some(t(50)));
        d.set_faults(DeviceFaults::new(
            plan.for_disk(DiskId(0)).to_vec(),
            Rng::seeded(3),
        ));
        assert_eq!(d.submit(req(0, FetchKind::Demand, 0)), Ok(Some(t(30))));
        let (done, _) = d.complete(t(30));
        assert_eq!(done.status, Ok(()));
        assert!(done.corrupt, "in-window request carries the corrupt flag");
        assert_eq!(done.service, SimDuration::from_millis(30));
        assert_eq!(d.errors(), 0, "silent corruption is not a device error");
        // Outside the window, completions are clean again.
        assert_eq!(d.submit(req(50, FetchKind::Demand, 1)), Ok(Some(t(80))));
        let (done, _) = d.complete(t(80));
        assert!(!done.corrupt);
    }

    #[test]
    fn outage_fails_fast_and_counts_errors() {
        use crate::fault::{DeviceFaults, DiskFault, FaultPlan, OUTAGE_ERROR_LATENCY};
        use crate::request::DiskId;
        let mut d = disk(Discipline::Fifo);
        let plan = FaultPlan::none().outage(DiskId(0), t(0), Some(t(50)));
        d.set_faults(DeviceFaults::new(
            plan.for_disk(DiskId(0)).to_vec(),
            Rng::seeded(3),
        ));
        let completion = d.submit(req(0, FetchKind::Demand, 0)).unwrap().unwrap();
        assert_eq!(completion, SimTime::ZERO + OUTAGE_ERROR_LATENCY);
        let (done, _) = d.complete(completion);
        assert_eq!(done.status, Err(DiskFault::DeviceDown));
        assert_eq!(d.errors(), 1);
        // After the repair time the device serves normally again.
        assert_eq!(d.submit(req(50, FetchKind::Demand, 1)), Ok(Some(t(80))));
        let (done, _) = d.complete(t(80));
        assert_eq!(done.status, Ok(()));
        assert_eq!(d.errors(), 1);
    }
}
