//! Node-crash injection and recovery: at a crash instant the victim's
//! node vanishes — its pending events are cancelled, its lock lease,
//! pins, and waiter entries are reclaimed, its in-flight I/O is orphaned
//! (completions absorb as plain cache fills), barrier membership shrinks
//! so survivors never deadlock, and its prefetch-daemon duties fail over
//! to surviving nodes. A scheduled rejoin restarts the node with a cold
//! RU set from wherever its reference string stopped.
//!
//! Everything here follows the inert-by-default discipline: none of it
//! runs (and no crash/rejoin event is ever scheduled) unless the
//! configuration's crash plan is non-empty, so crash-free runs are
//! event-for-event identical to a build without this module.

use super::*;

impl World {
    /// The crash injection for node `p` fired: tear the node down and
    /// reclaim everything it holds so the survivors keep making progress.
    pub(super) fn crash_node(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if self.procs[p].state == PState::Done {
            // Finished its string before the injection instant: there is
            // nothing to kill, and the paired rejoin (if scheduled) will
            // find nothing dead and do nothing either.
            return;
        }
        debug_assert_ne!(self.procs[p].state, PState::Crashed, "double crash");
        let state = self.procs[p].state;
        {
            let c = self
                .crash
                .as_mut()
                .expect("crash event without a crash layer");
            c.crashes += 1;
            c.crashed_at[p] = now;
        }

        // Cancel every event addressed to the victim. Whether the pending
        // process event was a miss issue matters below: the victim died
        // after reserving the demand buffer but before queueing the
        // fetch, and readers may already be queued behind that buffer.
        let miss_pending = state == PState::WaitBlock && self.procs[p].pending_ev.is_some();
        if let Some(id) = self.procs[p].pending_ev.take() {
            sched.cancel(id);
        }
        if let Some(id) = self.procs[p].action_ev.take() {
            sched.cancel(id);
        }

        // Lock-lease reclamation: give back the unexpired tail of the
        // victim's open critical section (lookup, miss work, or daemon
        // action). A
        // lease some later acquirer already queued behind cannot be
        // pulled out of the FIFO; its hold simply lapses.
        if let Some((cs_end, hold)) = self.procs[p].lock_cs.take() {
            if self.lock.reclaim_tail(now, cs_end, hold) {
                self.crash.as_mut().expect("checked above").reclaimed_locks += 1;
            }
        }
        if self.procs[p].action_busy {
            // The in-flight daemon action dies with its node (its
            // ActionEnd was cancelled above); it is never accounted.
            self.procs[p].action_busy = false;
        }

        match state {
            PState::Lookup => {
                // Mid-lookup (or spinning on a pinned-buffer allocation):
                // nothing is held beyond the lease reclaimed above; the
                // in-progress read is lost.
                self.crash.as_mut().expect("checked above").lost_reads += 1;
            }
            PState::WaitBlock => {
                let block = self.procs[p]
                    .cur_access
                    .expect("waiting without access")
                    .block;
                if self.procs[p].logical_wake.is_some() {
                    // The wake already fired (resume deferred behind a
                    // daemon action). Unless the wake carried a poison
                    // error, a buffer was pinned on the victim's behalf
                    // at delivery: unpin it.
                    let poisoned = self
                        .integrity
                        .as_mut()
                        .and_then(|ig| ig.read_errors[p].take())
                        .is_some();
                    if !poisoned {
                        let buf = self
                            .pool
                            .buffer_for(block)
                            .expect("pinned block evicted before the crash");
                        self.pool.unpin(buf);
                        self.crash.as_mut().expect("checked above").reclaimed_pins += 1;
                    }
                } else {
                    if self.waiters.remove(block, ProcId(p as u16)) {
                        self.crash
                            .as_mut()
                            .expect("checked above")
                            .reclaimed_waiters += 1;
                    }
                    if miss_pending {
                        self.orphan_miss(p, block, sched);
                    } else {
                        self.orphan_in_flight(block, sched);
                    }
                }
                self.crash.as_mut().expect("checked above").lost_reads += 1;
            }
            PState::Copying => {
                let buf = self.procs[p]
                    .copying_buf
                    .take()
                    .expect("copying without a pinned buffer");
                self.pool.unpin(buf);
                let c = self.crash.as_mut().expect("checked above");
                c.reclaimed_pins += 1;
                c.lost_reads += 1;
            }
            // The current read had already completed; only the simulated
            // computation dies (its ComputeDone was cancelled above).
            PState::Computing => {}
            // Barrier membership is handled below for every state.
            PState::AtBarrier => {}
            PState::Running => {}
            PState::Done | PState::Crashed => unreachable!("handled above"),
        }

        // Mark dead. The finish accounting counts a crashed node so runs
        // terminate; a rejoin reverses it.
        {
            let proc = &mut self.procs[p];
            proc.state = PState::Crashed;
            proc.idle_since = None;
            proc.logical_wake = None;
            proc.expected_wake = None;
            proc.last_action_empty = false;
            debug_assert!(proc.copying_buf.is_none());
            debug_assert!(proc.lock_cs.is_none());
            debug_assert!(proc.finished_at.is_none());
            proc.finished_at = Some(now);
        }
        self.finished += 1;

        // Shrink dynamic barrier membership; the crash may complete the
        // episode for the survivors (and, under a global portion gate,
        // advance the open portion with them).
        let opened = self.barrier.crash(ProcId(p as u16), now);
        if let Some(open) = opened {
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

        // Re-charge bookkeeping that names the victim to a survivor: the
        // fault layer's retry initiators, verify/repair chains, and
        // parked demand fetches (dropped outright when no reader is left
        // to want them). The map walks rewrite each entry on its own, so
        // their order cannot matter.
        let me = ProcId(p as u16);
        let live = self.live_initiator(me);
        if let Some(f) = &mut self.faults {
            for e in f.pending.values_mut() {
                if e.initiator == me {
                    e.initiator = live;
                }
            }
        }
        if let Some(ig) = &mut self.integrity {
            for st in ig.verifying.values_mut() {
                if st.who == me {
                    st.who = live;
                }
            }
        }
        if self.admission.is_some() {
            let mut dropped: Vec<BlockId> = Vec::new();
            {
                let waiters = &self.waiters;
                let adm = self.admission.as_mut().expect("checked above");
                for q in &mut adm.parked {
                    q.retain_mut(|e| {
                        if e.who != me {
                            return true;
                        }
                        if live != me && waiters.has_waiters(e.block) {
                            e.who = live;
                            true
                        } else {
                            dropped.push(e.block);
                            false
                        }
                    });
                }
            }
            for block in dropped {
                // Nobody waits on the parked fetch and it never reached a
                // queue: discard its reservation so a later (re)reader
                // misses cleanly instead of waiting on a fetch that will
                // never be submitted.
                if let Some(buf) = self.pool.buffer_for(block) {
                    if matches!(
                        self.pool.buffer(buf).state,
                        rt_cache::BufState::Pending { .. }
                    ) {
                        self.pool.discard_pending(buf);
                    }
                }
                self.clear_pending(block, sched);
            }
        }

        self.obs_instant(Track::Proc(p as u16), ObsKind::Crash, now, u64::MAX, 0);
    }

    /// A scheduled rejoin fired: the node restarts with a cold RU set
    /// from wherever its reference string stopped. Synchronization gates
    /// fast-forward to the present — a rejoiner does not retroactively
    /// synchronize with barriers it slept through.
    pub(super) fn rejoin_node(&mut self, p: usize, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        if self.procs[p].state != PState::Crashed {
            // The crash found the node already finished; nothing to
            // restart.
            return;
        }
        let crashed_at = {
            let c = self
                .crash
                .as_mut()
                .expect("rejoin event without a crash layer");
            c.rejoins += 1;
            c.crashed_at[p]
        };
        // Cold cache: the node's unpinned Ready demand buffers are
        // dropped. Pending fills and buffers other nodes pinned survive.
        self.pool.drop_node_demand(ProcId(p as u16));
        self.barrier.rejoin(ProcId(p as u16));
        self.finished -= 1;
        let total_boundary = match self.cfg.sync {
            SyncStyle::BlocksTotal(n) => self.total_reads_done / n as u64,
            _ => 0,
        };
        {
            let proc = &mut self.procs[p];
            proc.state = PState::Running;
            proc.finished_at = None;
            proc.cur_access = None;
            proc.cur_outcome = None;
            proc.wait_is_hit = false;
            proc.synced_at_reads = proc.reads_done;
            if matches!(self.cfg.sync, SyncStyle::BlocksTotal(_)) {
                proc.boundaries_passed = total_boundary;
            }
            proc.attr = ReadAttribution::default();
            proc.attr_mark = now;
            proc.attr_cur = Component::Overhead;
        }
        if self.obs.is_some() {
            self.obs_instant(Track::Proc(p as u16), ObsKind::Rejoin, now, u64::MAX, 0);
            self.obs_span(
                Track::Proc(p as u16),
                ObsKind::DeadInterval,
                crashed_at,
                now.saturating_since(crashed_at),
                u64::MAX,
                0,
                ReadAttribution::default(),
            );
        }
        self.proceed_next(p, sched);
    }

    /// The victim died inside its miss critical section: the demand
    /// buffer is reserved (readers may already be queued behind it) but
    /// the fetch never reached a disk queue. Submit it now on behalf of a
    /// survivor; with no survivor left, discard the reservation so a
    /// rejoiner cannot block on a fetch that will never happen.
    fn orphan_miss(&mut self, p: usize, block: BlockId, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let Some(buf) = self.pool.buffer_for(block) else {
            return;
        };
        if !matches!(
            self.pool.buffer(buf).state,
            rt_cache::BufState::Pending { .. }
        ) {
            return;
        }
        // The victim is not marked `Crashed` until after the per-state
        // reclamation, so `live_initiator` would still resolve to it here;
        // pick the survivor explicitly, excluding the victim.
        let live = (0..self.procs.len())
            .find(|&i| i != p && self.procs[i].state != PState::Crashed)
            .map(|i| ProcId(i as u16));
        let Some(live) = live else {
            debug_assert!(
                !self.waiters.has_waiters(block),
                "waiters behind an orphaned miss with no survivor"
            );
            self.pool.discard_pending(buf);
            self.clear_pending(block, sched);
            return;
        };
        self.crash.as_mut().expect("crash in progress").orphaned_ios += 1;
        let replica = self.pick_demand_replica(block, now);
        let (started, parked) = self.submit_demand(now, block, replica, live);
        self.note_started(block, started, sched);
        if !parked && self.waiters.has_waiters(block) {
            self.arm_timeout(block, live, sched);
        }
    }

    /// The victim was waiting on an in-flight fetch. With its waiter
    /// entry gone, a fetch nobody else waits on is orphaned: its
    /// completion will be absorbed as a plain cache fill, and its timeout
    /// protection dies with its waiters.
    fn orphan_in_flight(&mut self, block: BlockId, sched: &mut Scheduler<Ev>) {
        if self.waiters.has_waiters(block) {
            return;
        }
        let pending = self.pool.buffer_for(block).is_some_and(|b| {
            matches!(
                self.pool.buffer(b).state,
                rt_cache::BufState::Pending { .. }
            )
        });
        if !pending {
            return;
        }
        self.crash.as_mut().expect("crash in progress").orphaned_ios += 1;
        if let Some(f) = &mut self.faults {
            if let Some(e) = f.pending.get_mut(&block) {
                if let Some(id) = e.timeout.take() {
                    sched.cancel(id);
                }
                // An orphan's hedge protection dies with its waiters too.
                if let Some(id) = e.hedge.take() {
                    sched.cancel(id);
                }
            }
        }
    }

    /// Reads that will never be performed because their node is dead:
    /// the unread tail of each crashed node's local reference string
    /// (or of the shared string once every node is dead). Zero without
    /// a crash plan; together with [`World::reads_done`] and the
    /// `lost_reads` counter this closes the read accounting —
    /// `completed + lost + abandoned == workload total` at drain time.
    pub fn abandoned_reads(&self) -> u64 {
        if self.crash.is_none() {
            return 0;
        }
        match &*self.workload {
            Workload::Local(strings) => self
                .procs
                .iter()
                .enumerate()
                .filter(|(_, q)| q.state == PState::Crashed)
                .map(|(i, q)| (strings[i].len() as u64).saturating_sub(q.cursor.position() as u64))
                .sum(),
            Workload::Global(s) => {
                if self.procs.iter().all(|q| q.state == PState::Crashed) {
                    (s.len() as u64).saturating_sub(self.global_cursor.position() as u64)
                } else {
                    0
                }
            }
        }
    }

    /// `who`, unless it crashed — then the lowest live node, so retries,
    /// repairs, and parked work stay charged to someone who exists.
    /// Returns `who` unchanged when every node is dead.
    pub(super) fn live_initiator(&self, who: ProcId) -> ProcId {
        if self.crash.is_none() || self.procs[who.index()].state != PState::Crashed {
            return who;
        }
        self.procs
            .iter()
            .position(|q| q.state != PState::Crashed)
            .map(|i| ProcId(i as u16))
            .unwrap_or(who)
    }

    /// Daemon failover: pick a block to prefetch on behalf of a crashed
    /// node that is due to rejoin, so its portion is warm when it
    /// restarts. Only local frontiers need covering — a global cursor is
    /// shared, so the survivors' own selection already serves it. `None`
    /// unless a crash plan exists and such a node is dead right now.
    pub(super) fn select_block_for_dead(&mut self) -> Option<BlockId> {
        self.crash.as_ref()?;
        for d in 0..self.procs.len() {
            if self.procs[d].state != PState::Crashed {
                continue;
            }
            let rejoins = self
                .cfg
                .faults
                .crashes
                .entries()
                .iter()
                .any(|s| s.node as usize == d && s.rejoin.is_some());
            if !rejoins {
                // A node that never comes back has no future reads; its
                // remaining portion is dead work, not a prefetch target.
                continue;
            }
            let cand = match self.cfg.prefetch.policy {
                PolicyKind::Oracle => {
                    let Workload::Local(strings) = &*self.workload else {
                        continue;
                    };
                    let view = OracleView {
                        string: &strings[d],
                        frontier: self.procs[d].cursor.position(),
                        cross_portions: self.cfg.pattern.may_prefetch_across_portions(),
                        min_lead: self.cfg.prefetch.min_lead,
                    };
                    select_oracle(&view, &self.pool)
                }
                PolicyKind::Obl { .. } | PolicyKind::PortionLearner { .. } => {
                    let preds = self.predictors[d]
                        .as_ref()
                        .expect("online policy without predictor")
                        .predict(16);
                    select_predicted(&preds, &self.pool)
                }
            };
            if cand.is_some() {
                return cand;
            }
        }
        None
    }
}
