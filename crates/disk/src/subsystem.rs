//! The parallel independent disk subsystem: all devices plus the file
//! layout, behind one event-driven submit/complete interface.

use rt_sim::{Rng, SimDuration, SimTime, Tally};

use crate::device::{Discipline, Disk, QueueFull};
use crate::fault::{DeviceFaults, DiskFault, FaultPlan};
use crate::request::{BlockId, DiskId, DiskRequest, FetchKind, ProcId};
use crate::striping::{FileLayout, Layout};

/// A newly started disk request the caller must schedule completion for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Started {
    /// The device servicing it.
    pub disk: DiskId,
    /// The block being fetched.
    pub block: BlockId,
    /// What the request is for (demand, prefetch, scrub, repair).
    pub kind: FetchKind,
    /// When the I/O completes; call
    /// [`DiskSubsystem::complete`] at this instant.
    pub completion: SimTime,
}

/// A finished I/O as reported by [`DiskSubsystem::complete`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completed {
    /// The block whose fetch finished.
    pub block: BlockId,
    /// Demand fetch or prefetch.
    pub kind: FetchKind,
    /// The process that requested it.
    pub initiator: ProcId,
    /// `Ok` on success; `Err` carries the injected fault.
    pub status: Result<(), DiskFault>,
    /// Device service time of this request (excludes queueing).
    pub service: SimDuration,
    /// When the request was originally submitted to the subsystem (for
    /// response-time and queue-delay attribution at the caller).
    pub submitted: SimTime,
    /// True when the completion is `Ok` but the payload is silently
    /// corrupt.
    pub corrupt: bool,
}

/// All disks of the machine plus the (single) file's layout across them.
///
/// The testbed studies one parallel computation reading one interleaved
/// file, so a single layout suffices; the subsystem still exposes
/// per-device statistics to observe load imbalance.
pub struct DiskSubsystem {
    disks: Vec<Disk>,
    layout: FileLayout,
}

impl DiskSubsystem {
    /// Build `disk_count` devices sharing a queue `discipline`, with
    /// `layout` mapping file blocks onto them.
    pub fn new(disk_count: u16, discipline: Discipline, layout: FileLayout) -> Self {
        assert!(disk_count > 0, "need at least one disk");
        assert!(
            layout.disk_count() <= disk_count,
            "layout spans more disks than exist"
        );
        let disks = (0..disk_count).map(|_| Disk::new(discipline)).collect();
        DiskSubsystem { disks, layout }
    }

    /// The paper's subsystem: 20 disks, 30 ms fixed latency, FCFS queues,
    /// round-robin interleave.
    pub fn paper() -> Self {
        DiskSubsystem::new(20, Discipline::Fifo, FileLayout::paper())
    }

    /// Submit a read of `block` at time `now`. Returns `Ok(Some)` when the
    /// request starts service immediately (schedule its completion);
    /// `Ok(None)` when it queued behind other work on its disk; `Err` when
    /// the disk's bounded queue rejected it.
    pub fn read(
        &mut self,
        now: SimTime,
        block: BlockId,
        kind: FetchKind,
        initiator: ProcId,
    ) -> Result<Option<Started>, QueueFull> {
        let placement = self.layout.place(block);
        self.read_placed(now, block, placement, kind, initiator)
    }

    /// Submit a read with an explicit placement, bypassing the subsystem's
    /// own layout — used by the file-system layer, which places each block
    /// through its file's layout.
    pub fn read_placed(
        &mut self,
        now: SimTime,
        block: BlockId,
        placement: crate::striping::Placement,
        kind: FetchKind,
        initiator: ProcId,
    ) -> Result<Option<Started>, QueueFull> {
        let req = DiskRequest {
            block,
            kind,
            initiator,
            submitted: now,
        };
        Ok(self.disks[placement.disk.index()]
            .submit(req)?
            .map(|completion| Started {
                disk: placement.disk,
                block,
                kind,
                completion,
            }))
    }

    /// Remove the first queued request on `disk` matching `pred`, if any.
    /// The in-service request is never cancelled.
    pub fn cancel_queued(
        &mut self,
        disk: DiskId,
        now: SimTime,
        pred: impl Fn(&DiskRequest) -> bool,
    ) -> Option<DiskRequest> {
        self.disks[disk.index()].cancel_queued(now, pred)
    }

    /// Bound every device's queue to `limit` waiting requests (`None`
    /// restores the unbounded default).
    pub fn set_queue_limit(&mut self, limit: Option<usize>) {
        for d in &mut self.disks {
            d.set_queue_limit(limit);
        }
    }

    /// Deepest any device's queue has ever been.
    pub fn max_queue_depth(&self) -> usize {
        self.disks
            .iter()
            .map(Disk::max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// The in-flight request on `disk` finished at `now`. Returns the
    /// finished request (with its completion status) and, if more work was
    /// queued, the next started request (schedule its completion).
    pub fn complete(&mut self, disk: DiskId, now: SimTime) -> (Completed, Option<Started>) {
        let (done, next) = self.disks[disk.index()].complete(now);
        (
            Completed {
                block: done.req.block,
                kind: done.req.kind,
                initiator: done.req.initiator,
                status: done.status,
                service: done.service,
                submitted: done.req.submitted,
                corrupt: done.corrupt,
            },
            next.map(|(req, completion)| Started {
                disk,
                block: req.block,
                kind: req.kind,
                completion,
            }),
        )
    }

    /// Install a fault schedule: each device named in `plan` gets its
    /// windows plus a private random stream split from `rng`. Devices the
    /// plan never mentions keep running with no fault layer at all, so an
    /// empty plan changes nothing.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, rng: &Rng) {
        for (i, disk) in self.disks.iter_mut().enumerate() {
            let windows = plan.for_disk(DiskId(i as u16));
            if !windows.is_empty() {
                disk.set_faults(DeviceFaults::new(
                    windows.to_vec(),
                    rng.split(0xfa17_0000 + i as u64),
                ));
            }
        }
    }

    /// Number of devices.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Per-device view (for load-imbalance reporting).
    pub fn disks(&self) -> &[Disk] {
        &self.disks
    }

    /// Total requests completed across all devices.
    pub fn total_ops(&self) -> u64 {
        self.disks.iter().map(|d| d.ops()).sum()
    }

    /// Total requests that completed with an injected fault.
    pub fn total_errors(&self) -> u64 {
        self.disks.iter().map(|d| d.errors()).sum()
    }

    /// Merged response-time distribution across devices — the paper's
    /// "average effective disk access time".
    pub fn response(&self) -> Tally {
        let mut t = Tally::new();
        for d in &self.disks {
            t.merge(d.response());
        }
        t
    }

    /// Mean utilization across devices over `[0, now]`.
    pub fn mean_utilization(&self, now: SimTime) -> f64 {
        if self.disks.is_empty() {
            return 0.0;
        }
        self.disks.iter().map(|d| d.utilization(now)).sum::<f64>() / self.disks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn subsystem(disks: u16) -> DiskSubsystem {
        DiskSubsystem::new(disks, Discipline::Fifo, FileLayout::interleaved(disks))
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn parallel_blocks_start_in_parallel() {
        let mut s = subsystem(4);
        // Blocks 0..4 hit distinct disks; all start immediately.
        for b in 0..4 {
            let started = s
                .read(SimTime::ZERO, BlockId(b), FetchKind::Demand, ProcId(0))
                .unwrap()
                .expect("idle disk starts at once");
            assert_eq!(started.completion, t(30));
            assert_eq!(started.disk, DiskId(b as u16));
        }
    }

    #[test]
    fn same_disk_blocks_serialize() {
        let mut s = subsystem(4);
        let a = s
            .read(SimTime::ZERO, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        assert!(a.is_some());
        // Block 4 maps to the same disk: it queues.
        let b = s
            .read(SimTime::ZERO, BlockId(4), FetchKind::Demand, ProcId(1))
            .unwrap();
        assert!(b.is_none());
        let (done, next) = s.complete(DiskId(0), t(30));
        assert_eq!(done.block, BlockId(0));
        assert_eq!(done.kind, FetchKind::Demand);
        assert_eq!(done.initiator, ProcId(0));
        assert_eq!(done.status, Ok(()));
        let next = next.unwrap();
        assert_eq!(next.block, BlockId(4));
        assert_eq!(next.completion, t(60));
        let (done, next) = s.complete(DiskId(0), t(60));
        assert_eq!(done.block, BlockId(4));
        assert!(next.is_none());
        assert_eq!(s.total_ops(), 2);
        assert_eq!(s.total_errors(), 0);
    }

    #[test]
    fn fault_plan_applies_only_to_named_devices() {
        use crate::fault::{DiskFault, FaultPlan};
        let mut s = subsystem(4);
        let plan = FaultPlan::none().outage(DiskId(1), SimTime::ZERO, None);
        s.set_fault_plan(&plan, &Rng::seeded(11));
        let ok = s
            .read(SimTime::ZERO, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap()
            .unwrap();
        assert_eq!(ok.completion, t(30));
        let bad = s
            .read(SimTime::ZERO, BlockId(1), FetchKind::Demand, ProcId(0))
            .unwrap()
            .unwrap();
        assert!(bad.completion < t(30), "outage fails fast");
        let (done, _) = s.complete(DiskId(1), bad.completion);
        assert_eq!(done.status, Err(DiskFault::DeviceDown));
        let (done, _) = s.complete(DiskId(0), t(30));
        assert_eq!(done.status, Ok(()));
        assert_eq!(s.total_errors(), 1);
    }

    #[test]
    fn response_merges_devices() {
        let mut s = subsystem(2);
        s.read(SimTime::ZERO, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        s.read(SimTime::ZERO, BlockId(1), FetchKind::Demand, ProcId(1))
            .unwrap();
        s.read(SimTime::ZERO, BlockId(2), FetchKind::Prefetch, ProcId(0))
            .unwrap();
        s.complete(DiskId(0), t(30));
        s.complete(DiskId(1), t(30));
        s.complete(DiskId(0), t(60));
        let r = s.response();
        assert_eq!(r.count(), 3);
        // Two immediate (30) + one queued (60).
        assert!((r.mean_millis() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn queue_limit_and_cancel_apply_per_device() {
        let mut s = subsystem(2);
        s.set_queue_limit(Some(1));
        // Disk 0: one in service, one queued, then full.
        s.read(SimTime::ZERO, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        s.read(SimTime::ZERO, BlockId(2), FetchKind::Prefetch, ProcId(0))
            .unwrap();
        assert_eq!(
            s.read(SimTime::ZERO, BlockId(4), FetchKind::Demand, ProcId(1)),
            Err(QueueFull { depth: 1 })
        );
        // Disk 1 is unaffected by disk 0's backlog.
        assert!(s
            .read(SimTime::ZERO, BlockId(1), FetchKind::Demand, ProcId(1))
            .unwrap()
            .is_some());
        // Cancelling the queued prefetch frees the slot.
        let cancelled = s
            .cancel_queued(DiskId(0), SimTime::ZERO, |r| r.kind == FetchKind::Prefetch)
            .unwrap();
        assert_eq!(cancelled.block, BlockId(2));
        assert!(s
            .read(SimTime::ZERO, BlockId(4), FetchKind::Demand, ProcId(1))
            .unwrap()
            .is_none());
        assert_eq!(s.max_queue_depth(), 1);
    }

    #[test]
    fn paper_subsystem_shape() {
        let s = DiskSubsystem::paper();
        assert_eq!(s.disk_count(), 20);
    }

    #[test]
    #[should_panic(expected = "more disks than exist")]
    fn layout_wider_than_subsystem_rejected() {
        let _ = DiskSubsystem::new(2, Discipline::Fifo, FileLayout::interleaved(4));
    }

    #[test]
    fn utilization_aggregates() {
        let mut s = subsystem(2);
        s.read(SimTime::ZERO, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        s.complete(DiskId(0), t(30));
        let now = t(60);
        // Disk 0 busy 30/60, disk 1 idle -> mean 0.25.
        assert!((s.mean_utilization(now) - 0.25).abs() < 1e-9);
    }
}
