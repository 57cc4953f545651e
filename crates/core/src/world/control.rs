//! User-process control flow: deciding the next operation, synchronization
//! gates, barrier arrivals, read completion, and process exit.

use super::*;

impl World {
    // ------------------------------------------------------------------
    // User-process control flow.
    // ------------------------------------------------------------------

    /// Decide the process's next operation: synchronize if a gate is due,
    /// then take the next access and issue the read; finish when the
    /// string is exhausted.
    pub(super) fn proceed_next(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        loop {
            if self.peek_access(p).is_none() {
                self.finish_proc(p, sched);
                return;
            }
            match self.sync_due(p) {
                Some(reason) => {
                    if self.arrive_barrier(p, reason, sched) {
                        // Blocked: resume via barrier release.
                        return;
                    }
                    // Own arrival completed the episode; re-check gates
                    // (another gate may be due immediately).
                }
                None => break,
            }
        }
        let access = self.take_access(p).expect("peeked access vanished");
        self.procs[p].cur_access = Some(access);
        self.issue_read(p, sched);
    }

    /// The next access this process would take, without consuming it.
    pub(super) fn peek_access(&self, p: usize) -> Option<Access> {
        match &*self.workload {
            Workload::Local(strings) => strings[p].get(self.procs[p].cursor.position()),
            Workload::Global(s) => s.get(self.global_cursor.position()),
        }
    }

    pub(super) fn take_access(&mut self, p: usize) -> Option<Access> {
        match &*self.workload {
            Workload::Local(strings) => self.procs[p].cursor.take(&strings[p]),
            Workload::Global(s) => self.global_cursor.take(s),
        }
    }

    /// Which synchronization gate, if any, must fire before the next take.
    pub(super) fn sync_due(&self, p: usize) -> Option<SyncReason> {
        let proc = &self.procs[p];
        match self.cfg.sync {
            SyncStyle::None => None,
            SyncStyle::BlocksPerProc(n) => {
                if proc.reads_done > 0
                    && proc.reads_done.is_multiple_of(n)
                    && proc.synced_at_reads != proc.reads_done
                {
                    Some(SyncReason::PerProcCount)
                } else {
                    None
                }
            }
            SyncStyle::BlocksTotal(n) => {
                let boundary = self.total_reads_done / n as u64;
                if boundary > proc.boundaries_passed {
                    Some(SyncReason::TotalCount)
                } else {
                    None
                }
            }
            SyncStyle::EachPortion => {
                let next = self.peek_access(p)?;
                if self.workload.is_global() {
                    (next.portion > self.global_portion_open).then_some(SyncReason::PortionBoundary)
                } else {
                    match proc.cur_portion {
                        Some(cur) if next.portion != cur => Some(SyncReason::PortionBoundary),
                        None => None, // first portion needs no gate
                        _ => None,
                    }
                }
            }
        }
    }

    /// Arrive at the barrier. Returns `true` if the process blocked (it
    /// will be resumed on release), `false` if its own arrival opened the
    /// barrier and it may continue immediately.
    pub(super) fn arrive_barrier(
        &mut self,
        p: usize,
        reason: SyncReason,
        sched: &mut Scheduler<Ev>,
    ) -> bool {
        let now = sched.now();
        // Mark the gate as passed *at arrival* so release re-checks don't
        // re-trigger the same gate.
        {
            let next_portion = self.peek_access(p).map(|a| a.portion);
            let proc = &mut self.procs[p];
            match reason {
                SyncReason::PerProcCount => proc.synced_at_reads = proc.reads_done,
                SyncReason::TotalCount => proc.boundaries_passed += 1,
                SyncReason::PortionBoundary => {
                    // Local gate: record that this process has moved on to
                    // the next portion. (The global gate clears when the
                    // barrier opens and advances `global_portion_open`.)
                    if let Some(portion) = next_portion {
                        proc.cur_portion = Some(portion);
                    }
                }
            }
        }
        let opened = self.barrier.arrive(ProcId(p as u16), now);
        match opened {
            Some(open) => {
                self.after_barrier_open(p, reason, sched);
                for r in open.released {
                    self.wake(r.index(), sched);
                }
                false
            }
            None => {
                let proc = &mut self.procs[p];
                proc.state = PState::AtBarrier;
                proc.expected_wake = None;
                self.idle_begin(p, sched);
                true
            }
        }
    }

    /// Bookkeeping when a barrier episode opens (run once, by the
    /// completing arrival or departure).
    pub(super) fn after_barrier_open(
        &mut self,
        _completer: usize,
        reason: SyncReason,
        sched: &mut Scheduler<Ev>,
    ) {
        let _ = sched;
        if reason == SyncReason::PortionBoundary && self.workload.is_global() {
            if let Workload::Global(s) = &*self.workload {
                if let Some(next) = s.get(self.global_cursor.position()) {
                    self.global_portion_open = next.portion;
                }
            }
        }
    }

    /// The read returned: account it, then compute or continue.
    pub(super) fn read_finished(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        self.procs[p].pending_ev = None;
        let access = self.procs[p].cur_access.expect("finish without access");
        if let Some(buf) = self.procs[p].copying_buf.take() {
            self.pool.unpin(buf);
        }
        // Close the final attribution interval (the copy, or the wait on a
        // failed read); the components now telescope to the read time.
        self.attr_close(p, now, Component::Overhead);
        let read_time = now - self.procs[p].read_start;
        debug_assert_eq!(
            self.procs[p].attr.sum(),
            read_time.as_nanos(),
            "attribution components must sum to the read time (proc {p})"
        );
        self.rec.reads.record(read_time);
        self.rec.read_times.record(read_time);
        self.rec.proc_reads[p].record(read_time);
        if self.procs[p].attr.ns[Component::HedgeWait as usize] > 0 {
            self.rec.hedged_read_times.record(read_time);
        }
        if matches!(
            self.procs[p].cur_outcome,
            Some(ReadOutcome::ReadyHit | ReadOutcome::UnreadyHit)
        ) {
            self.rec.proc_hits[p] += 1;
        }
        if self.procs[p].cur_outcome == Some(ReadOutcome::Failed) {
            if let Some(ig) = &mut self.integrity {
                ig.failed_reads += 1;
            }
        }
        let outcome = self.procs[p]
            .cur_outcome
            .expect("read finished without classification");
        if let Some(trace) = &mut self.trace {
            trace.record(TraceEvent {
                requested: self.procs[p].read_start,
                completed: now,
                proc: ProcId(p as u16),
                block: access.block,
                outcome,
                attr: self.procs[p].attr,
            });
        }
        if self.obs.is_some() {
            let start = self.procs[p].read_start;
            let attr = self.procs[p].attr;
            self.obs_span(
                Track::Proc(p as u16),
                ObsKind::Read,
                start,
                read_time,
                access.block.index() as u64,
                outcome_code(outcome),
                attr,
            );
        }
        self.procs[p].reads_done += 1;
        self.total_reads_done += 1;
        self.procs[p].cur_portion = Some(access.portion);
        if let Some(pred) = &mut self.predictors[p] {
            pred.observe(access.block);
        }
        if self.cfg.compute_mean.is_zero() {
            self.procs[p].state = PState::Running;
            self.proceed_next(p, sched);
        } else {
            let delay = self.procs[p].rng.exponential(self.cfg.compute_mean);
            self.procs[p].state = PState::Computing;
            self.procs[p].pending_ev =
                Some(sched.schedule_in(delay, Ev::ComputeDone(ProcId(p as u16))));
        }
    }

    /// Complete the current read as *failed*: the block is poisoned, so
    /// the process receives a typed [`crate::integrity::IntegrityError`]
    /// instead of data. The access is consumed (the modeled application
    /// handles the error and moves on), so runs always terminate.
    pub(super) fn fail_read(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        if let Some(ig) = &mut self.integrity {
            ig.read_errors[p] = None;
        }
        debug_assert!(self.procs[p].copying_buf.is_none());
        self.procs[p].cur_outcome = Some(ReadOutcome::Failed);
        self.read_finished(p, sched);
    }

    pub(super) fn finish_proc(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let proc = &mut self.procs[p];
        debug_assert!(proc.finished_at.is_none());
        proc.state = PState::Done;
        proc.finished_at = Some(now);
        self.finished += 1;
        let departed = self.barrier.depart(ProcId(p as u16), now);
        if let Some(open) = departed {
            // A departing straggler can complete an episode; the portion
            // gate, if any, advances with the released processes' rechecks.
            if self.workload.is_global() {
                if let Workload::Global(s) = &*self.workload {
                    if let Some(next) = s.get(self.global_cursor.position()) {
                        self.global_portion_open = self.global_portion_open.max(next.portion);
                    }
                }
            }
            for r in open.released {
                self.wake(r.index(), sched);
            }
        }
    }
}
