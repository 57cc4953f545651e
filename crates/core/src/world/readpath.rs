//! The file-system read path: lookup classification, miss work, copies
//! (with pinning), disk completions, and wake-ups.

use super::*;

impl World {
    /// Issue the read of the process's current access: acquire the cache
    /// lock; the lookup completes when the critical section ends.
    pub(super) fn issue_read(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let proc = &mut self.procs[p];
        proc.state = PState::Lookup;
        proc.read_start = now;
        // Fresh attribution: the first interval (lock queue + lookup) opens
        // here and is split by `attr_close_lock` when the lookup completes.
        proc.attr = ReadAttribution::default();
        proc.attr_mark = now;
        proc.attr_cur = Component::LockWait;
        let done = self
            .lock
            .acquire_until_done(now, self.cfg.costs.lookup_overhead);
        debug_assert!(proc.lock_cs.is_none());
        proc.lock_cs = Some((done, self.cfg.costs.lookup_overhead));
        proc.pending_ev = Some(sched.schedule_at(done, Ev::LookupDone(proc.id)));
    }

    /// The lookup critical section finished: classify hit/miss and either
    /// copy, wait, or start a demand fetch.
    pub(super) fn lookup_done(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.procs[p].pending_ev = None;
        self.procs[p].lock_cs = None;
        let access = self.procs[p].cur_access.expect("lookup without access");
        let block = access.block;
        match self.pool.lookup_for_read(block, now) {
            Lookup::ReadyHit(buf) => {
                self.procs[p].cur_outcome = Some(ReadOutcome::ReadyHit);
                self.attr_close_lock(p, now, self.cfg.costs.lookup_overhead, Component::Overhead);
                self.rec.hit_wait.record(SimDuration::ZERO);
                self.begin_copy(p, buf, sched);
            }
            Lookup::UnreadyHit { ready_at, .. } => {
                self.procs[p].cur_outcome = Some(ReadOutcome::UnreadyHit);
                // The whole remaining wait is hit-wait by definition: the
                // block was already in flight when this read arrived.
                self.attr_close_lock(p, now, self.cfg.costs.lookup_overhead, Component::HitWait);
                self.waiters.push(block, ProcId(p as u16));
                let proc = &mut self.procs[p];
                proc.state = PState::WaitBlock;
                proc.wait_since = now;
                proc.wait_is_hit = true;
                proc.expected_wake = (ready_at != SimTime::MAX).then_some(ready_at);
                // A demand read now depends on this in-flight fetch, so it
                // gets the same timeout protection as a direct miss —
                // otherwise a prefetch stuck on a sick device would turn a
                // timeout-guarded read into an unbounded wait.
                self.arm_timeout(block, ProcId(p as u16), sched);
                self.idle_begin(p, sched);
            }
            Lookup::Miss => {
                self.procs[p].cur_outcome = Some(ReadOutcome::Miss);
                self.attr_close_lock(p, now, self.cfg.costs.lookup_overhead, Component::LockWait);
                self.start_miss(p, block, sched);
            }
        }
    }

    /// Begin the copy of a ready block: pin it so it cannot be evicted
    /// mid-copy, refresh its recency, and schedule the read's completion.
    pub(super) fn begin_copy(
        &mut self,
        p: usize,
        buf: rt_cache::BufferId,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        self.pool.record_use(buf, ProcId(p as u16), now);
        self.rec
            .tl_prefetched
            .record(now, self.pool.prefetched_unused() as f64);
        self.pool.pin(buf);
        debug_assert!(self.procs[p].copying_buf.is_none());
        self.procs[p].copying_buf = Some(buf);
        let copy = self.copy_cost(p, buf);
        self.procs[p].state = PState::Copying;
        self.procs[p].pending_ev =
            Some(sched.schedule_in(copy, Ev::ReadFinished(ProcId(p as u16))));
    }

    /// Reserve a demand buffer for `block` and start the miss work. If all
    /// candidate buffers are pinned by in-flight copies, retry shortly.
    pub(super) fn start_miss(&mut self, p: usize, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if self
            .integrity
            .as_ref()
            .is_some_and(|ig| ig.poisoned.contains(&block))
        {
            // Every copy of this block is known corrupt: fail fast with
            // the typed error instead of re-fetching and re-discovering.
            self.fail_read(p, sched);
            return;
        }
        // Reserve the buffer immediately (so concurrent readers of the same
        // block become unready hits), then perform the miss work — RU-set
        // manipulation and disk enqueue — in its own critical section. The
        // node's file-system component is busy during that window, so no
        // prefetch action starts until the fetch is on the disk queue.
        match self
            .pool
            .alloc_demand(ProcId(p as u16), block, SimTime::MAX)
        {
            Some(_) => {
                // Close the interval since classification (zero on the
                // direct path, alloc backoff on retries); the next one —
                // lock queue + miss work — splits at `miss_issue`.
                self.attr_close(p, now, Component::LockWait);
                self.waiters.push(block, ProcId(p as u16));
                let done = self
                    .lock
                    .acquire_until_done(now, self.cfg.costs.miss_overhead);
                let proc = &mut self.procs[p];
                proc.state = PState::WaitBlock;
                proc.wait_since = now;
                proc.wait_is_hit = false;
                proc.expected_wake = None;
                debug_assert!(proc.lock_cs.is_none());
                proc.lock_cs = Some((done, self.cfg.costs.miss_overhead));
                proc.pending_ev = Some(sched.schedule_at(done, Ev::MissIssue(ProcId(p as u16))));
            }
            None => {
                // Every candidate buffer is pinned by an in-flight copy;
                // copies are short, so spin on the allocation.
                self.attr_close(p, now, Component::RetryBackoff);
                self.rec.alloc_retries += 1;
                self.procs[p].pending_ev = Some(
                    sched.schedule_in(self.cfg.costs.copy_remote, Ev::RetryMiss(ProcId(p as u16))),
                );
            }
        }
    }

    /// Retry a miss whose buffer allocation found only pinned victims. The
    /// block may have appeared in the cache meanwhile (another process
    /// fetched it); the read's original classification stands.
    pub(super) fn retry_miss(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.procs[p].pending_ev = None;
        let block = self.procs[p]
            .cur_access
            .expect("retry without access")
            .block;
        match self.pool.buffer_for(block) {
            Some(buf) => match self.pool.buffer(buf).state {
                rt_cache::BufState::Ready { .. } => {
                    self.attr_close(p, now, Component::Overhead);
                    self.begin_copy(p, buf, sched)
                }
                _ => {
                    // In flight on someone else's behalf: wait like an
                    // unready hit (but keep the original miss accounting).
                    self.attr_close(p, now, Component::HitWait);
                    self.waiters.push(block, ProcId(p as u16));
                    let proc = &mut self.procs[p];
                    proc.state = PState::WaitBlock;
                    proc.wait_since = now;
                    proc.wait_is_hit = false;
                    proc.expected_wake = None;
                    self.arm_timeout(block, ProcId(p as u16), sched);
                    self.idle_begin(p, sched);
                }
            },
            None => self.start_miss(p, block, sched),
        }
    }

    /// The miss work finished: the demand fetch goes on the disk queue and
    /// the node's daemon may use the remaining wait.
    pub(super) fn miss_issue(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.procs[p].pending_ev = None;
        self.procs[p].lock_cs = None;
        let block = self.procs[p]
            .cur_access
            .expect("miss work without access")
            .block;
        let who = ProcId(p as u16);
        // The lock queue + miss work interval ends; until the fetch starts
        // service the read waits in the device queue.
        self.attr_close_lock(p, now, self.cfg.costs.miss_overhead, Component::QueueWait);
        // Steer around quarantined devices when the integrity layer is
        // active; replica 0 otherwise (byte-identical to the old path).
        let replica = self.pick_demand_replica(block, now);
        let (started, parked) = self.submit_demand(now, block, replica, who);
        self.procs[p].expected_wake = self.note_started(block, started, sched);
        if !parked {
            self.arm_timeout(block, who, sched);
        }
        self.idle_begin(p, sched);
    }

    /// Submit a demand fetch of `block` via `replica`, absorbing a
    /// bounded queue's rejection: first shed a queued prefetch nobody
    /// waits on from the full device; failing that, park the demand until
    /// the device drains ([`World::drain_parked`] replays it). Returns the
    /// started request (None when queued or parked) and whether the fetch
    /// parked.
    pub(super) fn submit_demand(
        &mut self,
        now: SimTime,
        block: BlockId,
        replica: u16,
        who: ProcId,
    ) -> (Option<FsStarted>, bool) {
        for attempt in 0..2 {
            match self
                .fs
                .read_replica(now, self.file, block, replica, FetchKind::Demand, who)
            {
                Ok(started) => {
                    self.outstanding_io += 1;
                    self.rec
                        .tl_outstanding_io
                        .record(now, self.outstanding_io as f64);
                    // Timer-guarded fetches remember which copy is in
                    // flight, so a hedge can pick a different one and a
                    // completion can be attributed to its replica.
                    if self.cfg.faults.retry.timeout.is_some()
                        || self.cfg.faults.hedge.delay.is_some()
                    {
                        if let Some(fs) = &mut self.faults {
                            fs.pending.entry(block).or_default().replica = replica;
                        }
                    }
                    if started.is_none() {
                        self.note_demand_queued(block, replica);
                    }
                    // Submitting to an avoided device is legal only as a
                    // last resort (every copy avoided — patient waiting);
                    // mark it so the trace validator can tell the audited
                    // fallback from a steering failure.
                    self.note_bypass(block, replica, now);
                    return (started, false);
                }
                Err(FsError::QueueFull { disk, .. }) => {
                    if attempt == 0 && self.shed_queued_prefetch(disk, now) {
                        // A slot was freed; resubmit (the retry must now
                        // be accepted — the shed emptied one queue slot).
                        continue;
                    }
                    let adm = self
                        .admission
                        .as_mut()
                        .expect("bounded queue without admission state");
                    let q = &mut adm.parked[disk.index()];
                    // A block parks at most once: a fault-layer timeout
                    // may re-drive the same fetch while it is parked, and
                    // a duplicate park would later double-submit it.
                    if !q.iter().any(|e| e.block == block) {
                        q.push_back(ParkedDemand {
                            block,
                            who,
                            replica,
                        });
                    }
                    self.rec.demand_parked += 1;
                    self.obs_instant(
                        Track::Device(disk.0),
                        ObsKind::Park,
                        now,
                        block.index() as u64,
                        0,
                    );
                    return (None, true);
                }
                Err(e) => panic!("demand read of an in-range block rejected: {e:?}"),
            }
        }
        unreachable!("second submission after a shed cannot be rejected");
    }

    /// A demand fetch was just submitted to `replica`: if that copy's
    /// device is currently avoided (open breaker or quarantine), the
    /// submission was a deliberate last resort — every copy was avoided
    /// (patient waiting), or the target was fixed before the device went
    /// bad (a parked replay). Mark it so the trace validator can tell
    /// the audited fallback from a steering failure.
    fn note_bypass(&mut self, block: BlockId, replica: u16, now: SimTime) {
        if self.obs.is_none() {
            return;
        }
        let bypassed = self
            .fs
            .placement_disk(self.file, block, replica)
            .filter(|&d| self.faults.as_ref().is_some_and(|f| f.health.avoid(d, now)));
        if let Some(d) = bypassed {
            self.obs_instant(
                Track::Device(d.0),
                ObsKind::BreakerBypass,
                now,
                block.index() as u64,
                replica as u64,
            );
        }
    }

    /// A demand fetch just queued behind other work: if the overload
    /// layer is active and the device holds queued prefetches, count the
    /// inversion (demand waiting behind speculative work).
    fn note_demand_queued(&mut self, block: BlockId, replica: u16) {
        if self.admission.is_none() {
            return;
        }
        if let Some(disk) = self.fs.placement_disk(self.file, block, replica) {
            if self.fs.disks().disks()[disk.index()].queued_of_kind(FetchKind::Prefetch) > 0 {
                self.rec.demand_behind_prefetch += 1;
            }
        }
    }

    /// Cancel one queued prefetch on `disk` that no reader waits on,
    /// releasing its buffer and refunding its credit. Returns whether a
    /// queue slot was freed.
    fn shed_queued_prefetch(&mut self, disk: DiskId, now: SimTime) -> bool {
        let waiters = &self.waiters;
        let Some((file, block, _owner)) = self
            .fs
            .cancel_queued_prefetch(disk, now, |_, b| waiters.has_waiters(b))
        else {
            return false;
        };
        debug_assert_eq!(file, self.file);
        // The cancelled request will never complete: release its
        // submission accounting and its buffer.
        self.outstanding_io -= 1;
        self.rec
            .tl_outstanding_io
            .record(now, self.outstanding_io as f64);
        // The cancelled op may be a zombie: a timeout redirect can
        // deliver the block from another replica and the buffer be
        // consumed and evicted while the original op still sits in the
        // queue. Shedding the zombie frees the slot all the same; there
        // is just no pending buffer left to release.
        if let Some(buf) = self.pool.buffer_for(block) {
            if matches!(
                self.pool.buffer(buf).state,
                rt_cache::BufState::Pending { .. }
            ) {
                self.pool.discard_pending(buf);
                self.rec
                    .tl_prefetched
                    .record(now, self.pool.prefetched_unused() as f64);
            }
        }
        self.rec.prefetches_shed += 1;
        self.refund_prefetch_credit();
        self.obs_instant(
            Track::Device(disk.0),
            ObsKind::Shed,
            now,
            block.index() as u64,
            0,
        );
        true
    }

    /// Return one prefetch credit to the pool (no-op unless admission is
    /// enabled). Called exactly once per issued prefetch: when it
    /// completes at the device, or when it is shed from a queue.
    pub(super) fn refund_prefetch_credit(&mut self) {
        if let Some(adm) = &mut self.admission {
            if adm.cfg.enabled {
                adm.credits = (adm.credits + 1).min(adm.cfg.prefetch_credits);
            }
        }
    }

    /// Replay parked demand fetches on `disk` now that a completion freed
    /// queue room. Runs only while the overload layer is active.
    fn drain_parked(&mut self, disk: DiskId, sched: &mut Scheduler<Ev>) {
        loop {
            let Some(adm) = &mut self.admission else {
                return;
            };
            let Some(&ParkedDemand {
                block,
                who,
                replica,
            }) = adm.parked[disk.index()].front()
            else {
                return;
            };
            // Under faults a timeout-driven duplicate may have delivered
            // the block while it was parked; drop the stale entry.
            let delivered = self.pool.buffer_for(block).is_none_or(|b| {
                matches!(self.pool.buffer(b).state, rt_cache::BufState::Ready { .. })
            });
            if delivered {
                self.admission
                    .as_mut()
                    .expect("parked entries only exist with an admission state")
                    .parked[disk.index()]
                .pop_front();
                continue;
            }
            let now = sched.now();
            match self
                .fs
                .read_replica(now, self.file, block, replica, FetchKind::Demand, who)
            {
                Ok(started) => {
                    self.admission
                        .as_mut()
                        .expect("parked entries only exist with an admission state")
                        .parked[disk.index()]
                    .pop_front();
                    self.outstanding_io += 1;
                    self.rec
                        .tl_outstanding_io
                        .record(now, self.outstanding_io as f64);
                    if self.cfg.faults.retry.timeout.is_some()
                        || self.cfg.faults.hedge.delay.is_some()
                    {
                        if let Some(fs) = &mut self.faults {
                            fs.pending.entry(block).or_default().replica = replica;
                        }
                    }
                    if started.is_none() {
                        self.note_demand_queued(block, replica);
                    }
                    self.note_bypass(block, replica, now);
                    self.note_started(block, started, sched);
                    self.arm_timeout(block, who, sched);
                }
                Err(FsError::QueueFull { .. }) => return,
                Err(e) => panic!("parked demand resubmission rejected: {e:?}"),
            }
        }
    }

    /// Arm the per-request timeout and hedge delay for a demand fetch of
    /// `block`, whichever of the two the fault layer has configured.
    /// No-op otherwise, so fault-free runs schedule no timer events.
    pub(super) fn arm_timeout(&mut self, block: BlockId, who: ProcId, sched: &mut Scheduler<Ev>) {
        let Some(fs) = &self.faults else { return };
        let timeout = fs.retry.timeout;
        let hedging = self.cfg.faults.hedge.delay.is_some();
        if timeout.is_none() && !hedging {
            return;
        }
        let hedge_delay = if hedging {
            let replica = fs.pending.get(&block).map_or(0, |e| e.replica);
            self.hedge_delay_for(block, replica, sched.now())
        } else {
            None
        };
        let fs = self.faults.as_mut().expect("checked above");
        let entry = fs.pending.entry(block).or_default();
        entry.initiator = who;
        if let Some(id) = entry.timeout.take() {
            sched.cancel(id);
        }
        if let Some(t) = timeout {
            entry.timeout = Some(sched.schedule_in(t, Ev::IoTimeout(block)));
        }
        if let Some(id) = entry.hedge.take() {
            sched.cancel(id);
        }
        if entry.hedged.is_none() {
            if let Some(d) = hedge_delay {
                entry.hedge = Some(sched.schedule_in(d, Ev::Hedge(block)));
            }
        }
    }

    /// The hedge delay for the in-flight fetch of `block` on `replica`:
    /// `multiplier ×` the *hedge target's* latency EWMA once the health
    /// tracker has enough samples to trust it — once a duplicate sent
    /// elsewhere would probably already have finished — and the fixed
    /// `--hedge` delay until then. Keying on the target rather than the
    /// serving device matters for persistent stragglers: the straggler's
    /// own EWMA inflates until it would postpone the hedge past the
    /// timeout, exactly when duplicating elsewhere helps most. `None`
    /// when hedging is not configured or no healthy target exists.
    fn hedge_delay_for(&self, block: BlockId, replica: u16, now: SimTime) -> Option<SimDuration> {
        let fixed = self.cfg.faults.hedge.delay?;
        let f = self.faults.as_ref()?;
        let target = self.hedge_target(block, replica, now)?;
        let adaptive = self
            .fs
            .placement_disk(self.file, block, target)
            .filter(|&d| f.health.latency_trusted(d))
            .map(|d| {
                let ns = f.health.latency_ewma_ms(d) * 1e6 * self.cfg.faults.hedge.multiplier;
                SimDuration::from_nanos(ns.max(1.0) as u64)
            });
        Some(adaptive.unwrap_or(fixed))
    }

    /// Drop `block`'s fault bookkeeping, cancelling any armed timers.
    pub(super) fn clear_pending(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        if let Some(fs) = &mut self.faults {
            if let Some(entry) = fs.pending.remove(&block) {
                if let Some(id) = entry.timeout {
                    sched.cancel(id);
                }
                if let Some(id) = entry.hedge {
                    sched.cancel(id);
                }
            }
        }
    }

    /// Record a submission's outcome: when the request started service, its
    /// pending buffer learns the completion time and a completion event is
    /// scheduled. Queued requests stay at an unknown ready time until a
    /// completion starts them.
    pub(super) fn note_started(
        &mut self,
        block: BlockId,
        started: Option<FsStarted>,
        sched: &mut Scheduler<Ev>,
    ) -> Option<SimTime> {
        started.map(|s| {
            let buf = self
                .pool
                .buffer_for(block)
                .expect("started request without a pending buffer");
            self.pool.set_ready_at(buf, s.completion);
            // Waiters queued behind this fetch are now in device service.
            self.attr_service_begins(block, sched.now());
            sched.schedule_at(s.completion, Ev::DiskDone(s.disk));
            s.completion
        })
    }

    /// NUMA-aware copy cost: local buffers copy faster than remote ones.
    pub(super) fn copy_cost(&self, p: usize, buf: rt_cache::BufferId) -> SimDuration {
        if self.pool.buffer(buf).home == ProcId(p as u16) {
            self.cfg.costs.copy_local
        } else {
            self.cfg.costs.copy_remote
        }
    }

    /// The in-flight request on a disk completed: the finished block's
    /// buffer becomes ready; if queued work started, track its completion.
    pub(super) fn disk_done(&mut self, disk: DiskId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let (done, next) = self.fs.complete(disk, now);
        debug_assert_eq!(done.file, self.file);
        self.outstanding_io -= 1;
        self.rec
            .tl_outstanding_io
            .record(now, self.outstanding_io as f64);
        let response = now.saturating_since(done.submitted);
        self.rec.disk_responses.record(response);
        if self.obs.is_some() {
            // Device-service span: the service window just ended; the
            // queue delay rides in the attribution slot for the exporter.
            let mut attr = ReadAttribution::default();
            attr.ns[Component::QueueWait as usize] =
                response.as_nanos().saturating_sub(done.service.as_nanos());
            let start = SimTime::from_nanos(now.as_nanos().saturating_sub(done.service.as_nanos()));
            self.obs_span(
                Track::Device(disk.0),
                ObsKind::DeviceService,
                start,
                done.service,
                done.block.index() as u64,
                fetch_code(done.kind),
                attr,
            );
        }
        if let Some(s) = next {
            // The newly started request's pending buffer learns its
            // completion time. Under faults a queued duplicate's block may
            // already be Ready (a replica beat it); its completion is still
            // tracked and lands as a stale completion. Scrub and repair
            // requests have no pool buffer at all.
            debug_assert_eq!(s.file, self.file);
            if matches!(s.kind, FetchKind::Demand | FetchKind::Prefetch) {
                if let Some(buf) = self.pool.buffer_for(s.block) {
                    if matches!(
                        self.pool.buffer(buf).state,
                        rt_cache::BufState::Pending { .. }
                    ) {
                        self.pool.set_ready_at(buf, s.completion);
                    } else {
                        debug_assert!(
                            self.faults.is_some(),
                            "queued request started for a non-pending buffer"
                        );
                    }
                }
                self.attr_service_begins(s.block, now);
            }
            sched.schedule_at(s.completion, Ev::DiskDone(disk));
        }
        if let Some(fs) = &mut self.faults {
            fs.health
                .observe(disk, done.status.is_ok(), done.service, now);
            // Successful completions earn back a fraction of a retry
            // token; spends are therefore bounded by
            // `capacity + refill × completions` by construction.
            if done.status.is_ok() {
                if let Some(cap) = self.cfg.faults.budget.capacity {
                    fs.budget_tokens =
                        (fs.budget_tokens + self.cfg.faults.budget.refill).min(f64::from(cap));
                }
            }
        }
        self.emit_breaker_closures();
        if self.admission.is_some() {
            // The overload layer settles its books at completion: a
            // finished prefetch returns its credit, and the freed queue
            // room replays parked demand fetches.
            if done.kind == FetchKind::Prefetch {
                self.refund_prefetch_credit();
            }
            self.drain_parked(disk, sched);
        }
        match done.kind {
            // Verify-only and rewrite traffic never touches the pool;
            // block_ready/io_failed must not see it.
            FetchKind::Scrub => return self.scrub_done(&done, disk, sched),
            FetchKind::Repair => return self.repair_done(&done),
            FetchKind::Demand | FetchKind::Prefetch => {}
        }
        match done.status {
            Ok(()) => {
                // The first successful completion of a hedged block scores
                // the race and reaps the losing duplicate.
                if self.cfg.faults.hedge.delay.is_some() {
                    self.resolve_hedge(done.block, disk, now);
                }
                if done.kind == FetchKind::Prefetch {
                    self.obs_instant(
                        Track::Device(disk.0),
                        ObsKind::PrefetchFill,
                        now,
                        done.block.index() as u64,
                        0,
                    );
                }
                if self.integrity.as_ref().is_some_and(|ig| ig.verify) {
                    // Hold the fill while its checksum is verified; the
                    // block is delivered (or repaired, or poisoned) when
                    // the check resolves. Miss-origin waiters accrue the
                    // hold (stale fills have no waiters — harmless).
                    self.attr_fetch_stage(done.block, now, Component::VerifyHold);
                    self.verify_fill(&done, disk, sched);
                } else {
                    if done.corrupt {
                        // Corruption reached a run without a verifier —
                        // the tripwire `check_soak_invariants` and the
                        // bench validator exist to catch. Unreachable
                        // while corrupt windows force verification on.
                        self.rec.corrupt_delivered += 1;
                    }
                    self.block_ready(done.block, sched);
                }
            }
            Err(_) => self.io_failed(done.block, done.kind, done.initiator, sched),
        }
    }

    /// A disk I/O completed: the buffer becomes ready; wake the waiters.
    pub(super) fn block_ready(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(buf) = self.pool.buffer_for(block) else {
            // Only a redirected duplicate can complete after its block was
            // delivered, consumed, and evicted; without faults this is a
            // bookkeeping bug.
            assert!(
                self.faults.is_some(),
                "I/O completed for an unindexed block"
            );
            self.rec.stale_completions += 1;
            return;
        };
        if self.faults.is_some() {
            if matches!(
                self.pool.buffer(buf).state,
                rt_cache::BufState::Ready { .. }
            ) || self.awaiting_issue(block)
            {
                // A redirected duplicate already delivered this block, or
                // outlived its episode into a fresh reservation.
                self.rec.stale_completions += 1;
                return;
            }
            self.clear_pending(block, sched);
        }
        self.pool.complete_io(buf, now);
        // Drain the waiter list through the reusable scratch (wake() needs
        // `&mut self`, so the list cannot be borrowed while iterating).
        let mut woken = std::mem::take(&mut self.wake_scratch);
        self.waiters.drain_into(block, &mut woken);
        for &w in &woken {
            // Exactly-once tripwire: a drained waiter must still be
            // blocked on this very block. Anything else means a duplicate
            // (e.g. a hedge loser) reached a reader twice —
            // `check_soak_invariants` rejects the run.
            let expected = self.procs[w.index()].state == PState::WaitBlock
                && self.procs[w.index()]
                    .cur_access
                    .is_some_and(|a| a.block == block);
            if !expected {
                self.rec.duplicate_deliveries += 1;
                continue;
            }
            let (is_hit, since) = {
                let proc = &mut self.procs[w.index()];
                proc.logical_wake = Some(now);
                (proc.wait_is_hit, proc.wait_since)
            };
            if is_hit {
                self.rec.hit_wait.record(now.saturating_since(since));
            }
            // Pin on behalf of each waiter: the data must survive until
            // its (possibly overrun-delayed) copy completes.
            let buf = self.pool.buffer_for(block).expect("ready block indexed");
            self.pool.pin(buf);
            self.wake(w.index(), sched);
        }
        woken.clear();
        self.wake_scratch = woken;
    }

    /// Whether `block`'s pending buffer was reserved by a miss that has
    /// not submitted its fetch yet: a reader is still in the miss critical
    /// section, between [`World::start_miss`] and [`World::miss_issue`]
    /// (the only waiting state that has not begun its idle period). No
    /// request of this episode exists, so a completion for the block now
    /// is a duplicate from an earlier episode — a hedge loser or timeout
    /// redirect that outlived its delivery — and must not fill the fresh
    /// buffer or wake a reader that is not idle yet.
    pub(super) fn awaiting_issue(&self, block: BlockId) -> bool {
        let mut found = false;
        self.waiters.for_each(block, |w| {
            let proc = &self.procs[w.index()];
            found |= proc.state == PState::WaitBlock && proc.idle_since.is_none();
        });
        found
    }

    /// Resume a process whose wake condition fired, unless a prefetch
    /// action is in flight on its node (then the action's completion
    /// resumes it — overrun).
    pub(super) fn wake(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        if self.procs[p].logical_wake.is_none() {
            self.procs[p].logical_wake = Some(sched.now());
        }
        if self.procs[p].action_busy {
            return;
        }
        self.resume(p, sched);
    }

    /// Actually resume a process out of an idle period, accounting the
    /// idle time and any overrun.
    pub(super) fn resume(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let (wake, idle_since) = {
            let proc = &mut self.procs[p];
            let wake = proc.logical_wake.take().expect("resume without wake");
            let idle_since = proc.idle_since.take().expect("resume without idle start");
            (wake, idle_since)
        };
        self.rec
            .idle_necessary
            .record(wake.saturating_since(idle_since));
        self.rec
            .idle_actual
            .record(now.saturating_since(idle_since));
        if now > wake {
            self.rec.overrun.record(now - wake);
        }
        match self.procs[p].state {
            PState::WaitBlock => {
                let block = self.procs[p]
                    .cur_access
                    .expect("waiting without access")
                    .block;
                if self
                    .integrity
                    .as_mut()
                    .and_then(|ig| ig.read_errors[p].take())
                    .is_some()
                {
                    // The block was poisoned while this process waited:
                    // complete the read with the typed error instead of
                    // copying data (there is no buffer to copy from).
                    self.fail_read(p, sched);
                    return;
                }
                // The wait ends here — any overrun tail lands in the last
                // waiting component; the copy itself is overhead.
                self.attr_close(p, now, Component::Overhead);
                // The buffer was pinned on this process's behalf when the
                // I/O completed, so the data cannot have vanished.
                let buf = self
                    .pool
                    .buffer_for(block)
                    .expect("pinned block evicted before its copy");
                self.pool.record_use(buf, ProcId(p as u16), now);
                self.rec
                    .tl_prefetched
                    .record(now, self.pool.prefetched_unused() as f64);
                debug_assert!(self.procs[p].copying_buf.is_none());
                self.procs[p].copying_buf = Some(buf);
                let copy = self.copy_cost(p, buf);
                self.procs[p].state = PState::Copying;
                self.procs[p].pending_ev =
                    Some(sched.schedule_in(copy, Ev::ReadFinished(ProcId(p as u16))));
            }
            PState::AtBarrier => {
                self.procs[p].state = PState::Running;
                self.proceed_next(p, sched);
            }
            other => panic!("resume in unexpected state {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Fault handling: failed completions, retries, timeouts. None of this
    // runs unless the configuration injects faults or arms timeouts.
    // ------------------------------------------------------------------

    /// A disk completion carried an error. Demand fetches (and prefetches
    /// someone is already waiting on) are retried with exponential
    /// backoff, rotating across replicas when the file has them; idle
    /// prefetches are dropped.
    pub(super) fn io_failed(
        &mut self,
        block: BlockId,
        kind: FetchKind,
        who: ProcId,
        sched: &mut Scheduler<Ev>,
    ) {
        let now = sched.now();
        self.rec.io_errors += 1;
        let Some(buf) = self.pool.buffer_for(block) else {
            // A redirected duplicate failed after the block was already
            // delivered, consumed, and evicted; nothing to do.
            self.rec.stale_completions += 1;
            return;
        };
        if matches!(
            self.pool.buffer(buf).state,
            rt_cache::BufState::Ready { .. }
        ) || self.awaiting_issue(block)
        {
            // A duplicate already delivered the block (or belongs to an
            // earlier episode); the failure is moot.
            self.rec.stale_completions += 1;
            return;
        }
        if kind == FetchKind::Prefetch && !self.waiters.has_waiters(block) {
            // Nobody wants the block yet: drop the speculative fetch
            // rather than spend retries on it. A later demand read
            // fetches it through the normal miss path.
            self.pool.discard_pending(buf);
            self.rec
                .tl_prefetched
                .record(now, self.pool.prefetched_unused() as f64);
            self.rec.aborted_prefetches += 1;
            self.clear_pending(block, sched);
            return;
        }
        if self.crash.is_some() && kind == FetchKind::Demand && !self.waiters.has_waiters(block) {
            // Under a crash plan a demand fetch can outlive every reader
            // that wanted it. A failing orphan is dropped rather than
            // retried forever on behalf of the dead; a rejoiner re-misses
            // cleanly.
            self.pool.discard_pending(buf);
            self.clear_pending(block, sched);
            return;
        }
        // The ready estimate is void until a resubmission starts service.
        self.pool.set_ready_at(buf, SimTime::MAX);
        // Waiters back off with the fetch until the retry enters service.
        self.attr_fetch_stage(block, now, Component::RetryBackoff);
        let fs = self
            .faults
            .as_mut()
            .expect("fault outcome without a fault layer");
        let entry = fs.pending.entry(block).or_default();
        entry.initiator = who;
        let attempt = entry.attempts;
        entry.attempts += 1;
        if attempt >= fs.retry.max_retries {
            // Past the retry budget: keep probing at the capped backoff
            // (demand reads are never abandoned) but record the overflow.
            self.rec.retries_exhausted += 1;
        }
        let delay = fs.retry.backoff_for(attempt);
        sched.schedule_in(delay, Ev::RetryIo(block));
    }

    /// A backoff elapsed: resubmit the fetch, rotating to the next
    /// replica when the file has copies.
    pub(super) fn retry_io(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(buf) = self.pool.buffer_for(block) else {
            self.rec.stale_completions += 1;
            return;
        };
        if matches!(
            self.pool.buffer(buf).state,
            rt_cache::BufState::Ready { .. }
        ) {
            // A duplicate delivered the block while we backed off.
            return;
        }
        let copies = 1 + self.fs.replica_count(self.file) as u32;
        let (replica, who) = {
            let fs = self.faults.as_mut().expect("retry without a fault layer");
            let entry = fs.pending.entry(block).or_default();
            ((entry.attempts % copies) as u16, entry.initiator)
        };
        // Steer the rotation past avoided devices (quarantined or behind
        // an open breaker) — the shared replica-health notion. Identity
        // when nothing is avoided, so pure-fault runs are untouched.
        let replica = self.healthy_replica(block, replica, now);
        // The recorded initiator may have crashed since the entry was
        // written; charge the resubmission to a survivor.
        let who = self.live_initiator(who);
        self.rec.retries += 1;
        if replica != 0 {
            self.rec.redirects += 1;
        }
        // Timeout-driven redirects arrive with waiters still counted in
        // service; park them back in backoff until the duplicate starts.
        self.attr_fetch_stage(block, now, Component::RetryBackoff);
        if self.obs.is_some() {
            if let Some(d) = self.fs.placement_disk(self.file, block, replica) {
                self.obs_instant(
                    Track::Device(d.0),
                    ObsKind::Retry,
                    now,
                    block.index() as u64,
                    replica as u64,
                );
            }
        }
        // A bounded queue may also reject the resubmission; it then sheds
        // a queued prefetch or parks like any other demand fetch.
        let (started, parked) = self.submit_demand(now, block, replica, who);
        self.note_started(block, started, sched);
        if !parked {
            self.arm_timeout(block, who, sched);
        }
    }

    /// A demand fetch's timeout fired: if the block is still in flight,
    /// race a duplicate on the next replica (when one exists and the
    /// retry budget allows — otherwise just count the stall and keep
    /// waiting patiently on the single copy).
    pub(super) fn io_timeout(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let copies = 1 + self.fs.replica_count(self.file) as u32;
        let still_pending = self.pool.buffer_for(block).is_some_and(|b| {
            matches!(
                self.pool.buffer(b).state,
                rt_cache::BufState::Pending { .. }
            )
        });
        {
            let Some(fs) = &mut self.faults else { return };
            let Some(entry) = fs.pending.get_mut(&block) else {
                return;
            };
            entry.timeout = None;
            if !still_pending {
                // Delivered (or dropped) while the timer was in flight.
                fs.pending.remove(&block);
                return;
            }
        }
        // A stalled request is breaker evidence even though it never
        // completed: feed the serving device's error EWMA.
        let replica = self
            .faults
            .as_ref()
            .and_then(|f| f.pending.get(&block))
            .map_or(0, |e| e.replica);
        if let Some(d) = self.fs.placement_disk(self.file, block, replica) {
            self.faults
                .as_mut()
                .expect("checked above")
                .health
                .observe_timeout(d, now);
            self.emit_breaker_closures();
        }
        // Redirect to another copy when one exists and the retry budget
        // allows; budget exhaustion falls back to patient waiting —
        // no retry storms by construction.
        let mut redirect = copies > 1;
        if redirect && !self.take_budget_token() {
            self.rec.retries_denied += 1;
            redirect = false;
        }
        let fs = self.faults.as_mut().expect("checked above");
        let entry = fs.pending.get_mut(&block).expect("checked above");
        if redirect {
            entry.attempts += 1;
        } else {
            let timeout = fs
                .retry
                .timeout
                .expect("timeout event without a timeout policy");
            entry.timeout = Some(sched.schedule_in(timeout, Ev::IoTimeout(block)));
        }
        self.rec.timeouts += 1;
        if self.obs.is_some() {
            if let Some(d) = self.fs.placement_disk(self.file, block, 0) {
                self.obs_instant(
                    Track::Device(d.0),
                    ObsKind::Timeout,
                    sched.now(),
                    block.index() as u64,
                    redirect as u64,
                );
            }
        }
        if redirect {
            self.retry_io(block, sched);
        }
    }

    // ------------------------------------------------------------------
    // Hedged reads and the retry budget. Inert unless `--hedge` or
    // `--retry-budget` is configured.
    // ------------------------------------------------------------------

    /// Take one whole token from the retry budget. Always succeeds when
    /// no budget is configured; otherwise a hedge or timeout-redirect may
    /// only proceed when a token is available.
    fn take_budget_token(&mut self) -> bool {
        if self.cfg.faults.budget.capacity.is_none() {
            return true;
        }
        let fs = self
            .faults
            .as_mut()
            .expect("retry budget without a fault layer");
        if fs.budget_tokens >= 1.0 {
            fs.budget_tokens -= 1.0;
            self.rec.budget_spent += 1;
            true
        } else {
            false
        }
    }

    /// Return a token taken for a hedge that could not launch after all
    /// (its target queue was full).
    fn refund_budget_token(&mut self) {
        let Some(cap) = self.cfg.faults.budget.capacity else {
            return;
        };
        let fs = self
            .faults
            .as_mut()
            .expect("retry budget without a fault layer");
        fs.budget_tokens = (fs.budget_tokens + 1.0).min(f64::from(cap));
        self.rec.budget_spent -= 1;
    }

    /// The replica a hedge of `block` should duplicate to: the first copy
    /// after `cur` in rotation whose device the health tracker does not
    /// say to avoid. `None` when the file has no other healthy copy.
    fn hedge_target(&self, block: BlockId, cur: u16, now: SimTime) -> Option<u16> {
        let copies = 1 + self.fs.replica_count(self.file);
        let f = self.faults.as_ref()?;
        (1..copies).map(|i| (cur + i) % copies).find(|&r| {
            self.fs
                .placement_disk(self.file, block, r)
                .is_some_and(|d| !f.health.avoid(d, now))
        })
    }

    /// The hedge delay of `block`'s demand fetch elapsed: if the block is
    /// still in flight and the retry budget allows, launch a duplicate
    /// fetch to the next healthy replica. The first completion wins
    /// ([`World::resolve_hedge`]); the loser is cancelled from its queue
    /// or absorbed as a stale completion.
    pub(super) fn hedge_fire(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let still_pending = self.pool.buffer_for(block).is_some_and(|b| {
            matches!(
                self.pool.buffer(b).state,
                rt_cache::BufState::Pending { .. }
            )
        });
        let (cur, who) = {
            let Some(fs) = &mut self.faults else { return };
            let Some(entry) = fs.pending.get_mut(&block) else {
                return;
            };
            entry.hedge = None;
            if !still_pending || entry.hedged.is_some() {
                // Delivered while the timer was in flight (the completion
                // path clears the entry), or already hedged.
                return;
            }
            (entry.replica, entry.initiator)
        };
        let Some(target) = self.hedge_target(block, cur, now) else {
            return;
        };
        if !self.take_budget_token() {
            // Budget exhausted: fall back to patient single-copy waiting
            // (the timeout, if armed, keeps guarding the read).
            self.rec.retries_denied += 1;
            return;
        }
        // The recorded initiator may have crashed since the fetch was
        // submitted; charge the duplicate to a survivor.
        let who = self.live_initiator(who);
        match self
            .fs
            .read_replica(now, self.file, block, target, FetchKind::Demand, who)
        {
            Ok(started) => {
                self.outstanding_io += 1;
                self.rec
                    .tl_outstanding_io
                    .record(now, self.outstanding_io as f64);
                // Schedule the duplicate's completion directly: the
                // pending buffer keeps the primary's ready estimate, and
                // waiters accrue hedge-wait (not service) until delivery.
                if let Some(s) = started {
                    sched.schedule_at(s.completion, Ev::DiskDone(s.disk));
                }
                let fs = self.faults.as_mut().expect("hedge without a fault layer");
                let entry = fs.pending.entry(block).or_default();
                entry.hedged = Some(target);
                entry.initiator = who;
                self.rec.hedges_launched += 1;
                self.attr_fetch_stage(block, now, Component::HedgeWait);
                if self.obs.is_some() {
                    if let Some(d) = self.fs.placement_disk(self.file, block, target) {
                        self.obs_instant(
                            Track::Device(d.0),
                            ObsKind::HedgeLaunch,
                            now,
                            block.index() as u64,
                            target as u64,
                        );
                    }
                }
            }
            Err(FsError::QueueFull { .. }) => {
                // The target queue is full: skip the hedge (no parking —
                // the primary is still in flight) and return the token.
                self.refund_budget_token();
            }
            Err(e) => panic!("hedge read of an in-range block rejected: {e:?}"),
        }
    }

    /// The first `Ok` completion for a hedged block arrived on `disk`:
    /// score the race (a win if the hedge's replica delivered first),
    /// then cancel the losing duplicate while it is still queued. A loser
    /// already in service completes later and is absorbed by the
    /// stale-completion checks — waiters are woken exactly once either
    /// way.
    fn resolve_hedge(&mut self, block: BlockId, disk: DiskId, now: SimTime) {
        let (hedged, primary) = {
            let Some(fs) = &mut self.faults else { return };
            let Some(entry) = fs.pending.get_mut(&block) else {
                return;
            };
            let Some(h) = entry.hedged.take() else { return };
            (h, entry.replica)
        };
        let won = self.replica_for_disk(block, disk) == hedged;
        if won {
            self.rec.hedge_wins += 1;
            self.obs_instant(
                Track::Device(disk.0),
                ObsKind::HedgeWin,
                now,
                block.index() as u64,
                hedged as u64,
            );
        } else {
            self.rec.hedge_wasted += 1;
        }
        let loser = if won { primary } else { hedged };
        if let Some(ld) = self.fs.placement_disk(self.file, block, loser) {
            if ld != disk
                && self
                    .fs
                    .cancel_queued_demand(ld, now, self.file, block)
                    .is_some()
            {
                self.outstanding_io -= 1;
                self.rec
                    .tl_outstanding_io
                    .record(now, self.outstanding_io as f64);
                self.rec.hedge_cancels += 1;
                self.obs_instant(
                    Track::Device(ld.0),
                    ObsKind::HedgeCancel,
                    now,
                    block.index() as u64,
                    loser as u64,
                );
            }
        }
    }
}
