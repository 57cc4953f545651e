//! The shared buffer pool with per-processor RU-set replacement.
//!
//! The testbed's cache (§III/§IV-D of the paper) partitions buffers into
//! per-processor **RU sets** for demand fetches (size 1 in the paper —
//! a "toss-immediately" variant) plus, when prefetching is enabled, a few
//! buffers per node reserved exclusively for prefetching, with a *global*
//! cap on prefetched-but-not-yet-used blocks. Lookup is global: any
//! processor hits on a block cached by any other, which "offers strong
//! locality for the more complex list manipulations while enforcing a
//! global policy".
//!
//! The pool is *passive*: rt-core drives it with explicit timestamps and
//! models the lock and memory contention around each call.

use rt_disk::{BlockId, FetchKind, ProcId};
use rt_sim::{Ratio, SimTime};

use crate::buffer::{BufState, Buffer, BufferClass, BufferId};

/// Demand-buffer replacement policy.
///
/// The testbed partitions demand buffers into per-processor **RU sets**
/// (§III): replacement is local to the requesting node, which keeps the
/// list manipulation in local memory while the index still enforces a
/// global lookup. The global-LRU alternative is the classical uniprocessor
/// design, provided as an ablation of that choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Replacement {
    /// Per-processor RU sets (the paper's design).
    #[default]
    RuSet,
    /// One LRU list over all demand buffers.
    GlobalLru,
}

/// Pool geometry.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Number of processor nodes.
    pub procs: u16,
    /// Demand (RU-set) buffers per node. The paper uses 1.
    pub demand_per_proc: u16,
    /// Prefetch buffers per node. The paper uses 3 when prefetching, 0
    /// otherwise.
    pub prefetch_per_proc: u16,
    /// Global cap on prefetched-but-unused blocks. The paper uses
    /// `3 × procs`.
    pub global_prefetch_cap: u32,
    /// Demand-buffer replacement policy.
    pub replacement: Replacement,
    /// Allow evicting prefetched-but-unused blocks (LRU order). The paper
    /// protects them because its oracle never errs; fallible on-line
    /// predictors need this relaxation or their wrong guesses accumulate
    /// as permanently protected buffers and wedge the prefetch partition.
    pub evict_unused_prefetch: bool,
}

impl PoolConfig {
    /// The paper's prefetching cache: 1 demand + 3 prefetch buffers per
    /// node, global unused-prefetch cap of 3 per node.
    pub fn paper_prefetch(procs: u16) -> Self {
        PoolConfig {
            procs,
            demand_per_proc: 1,
            prefetch_per_proc: 3,
            global_prefetch_cap: 3 * procs as u32,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        }
    }

    /// Total buffers in the pool.
    pub fn total_buffers(&self) -> u32 {
        self.procs as u32 * (self.demand_per_proc as u32 + self.prefetch_per_proc as u32)
    }
}

/// Outcome of a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Data present; a read can complete after a copy.
    ReadyHit(BufferId),
    /// Buffer reserved but I/O still in flight; the requester must wait
    /// until `ready_at` (the hit-wait time).
    UnreadyHit {
        /// The pending buffer.
        buf: BufferId,
        /// When its I/O completes.
        ready_at: SimTime,
    },
    /// Not cached; a demand fetch is required.
    Miss,
}

/// Why a prefetch attempt could not reserve a buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrefetchBlocked {
    /// The block is already cached or in flight — nothing to do.
    AlreadyCached,
    /// The global prefetched-but-unused cap is reached.
    GlobalCap,
    /// Every prefetch buffer on this node is pending or unused-prefetched.
    NoBuffer,
}

/// Snapshot of how full the prefetch partition is — the backpressure
/// signal the admission layer reads before reserving more buffers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolPressure {
    /// Prefetch buffers with no contents.
    pub free: u32,
    /// Prefetch buffers with an I/O in flight.
    pub pending: u32,
    /// Prefetch buffers holding data nobody has read yet.
    pub unused_ready: u32,
    /// Buffers (any class) pinned by an in-flight copy.
    pub pinned: u32,
    /// Total prefetch buffers in the pool.
    pub prefetch_total: u32,
}

impl PoolPressure {
    /// Fraction of the prefetch partition that is committed (pending or
    /// holding unused data). 0.0 when there are no prefetch buffers.
    pub fn occupancy(&self) -> f64 {
        if self.prefetch_total == 0 {
            0.0
        } else {
            (self.pending + self.unused_ready) as f64 / self.prefetch_total as f64
        }
    }
}

/// Cache-level counters for one run.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Hit/miss ratio over all reads (hits include unready hits — the
    /// paper's generous definition).
    pub hit_ratio: Ratio,
    /// Reads satisfied with data already present.
    pub ready_hits: u64,
    /// Reads that found a pending buffer and had to wait.
    pub unready_hits: u64,
    /// Reads that missed entirely.
    pub misses: u64,
    /// Demand fetches issued to disk.
    pub demand_fetches: u64,
    /// Prefetches issued to disk.
    pub prefetches: u64,
    /// Prefetch attempts rejected by the global cap.
    pub blocked_global_cap: u64,
    /// Prefetch attempts rejected for lack of a node-local buffer.
    pub blocked_no_buffer: u64,
    /// Prefetched blocks evicted before anyone used them. Zero under the
    /// paper's policies (unused prefetches are never evicted), tracked to
    /// verify exactly that.
    pub wasted_prefetches: u64,
}

/// Sentinel in the dense block index: no buffer holds this block.
const NO_BUFFER: u32 = u32::MAX;

/// The shared block cache.
pub struct BufferPool {
    config: PoolConfig,
    buffers: Vec<Buffer>,
    /// block -> buffer holding or filling it: a dense table indexed by
    /// block number ([`NO_BUFFER`] = absent), grown on first touch of a
    /// block. File sizes are tens of thousands of 4-byte slots, so the
    /// table is small, and lookups — the hottest pool operation — are one
    /// bounds-checked load instead of a hash probe.
    index: Vec<u32>,
    /// Buffer ids of each node's demand partition.
    demand_sets: Vec<Vec<BufferId>>,
    /// Buffer ids of each node's prefetch partition.
    prefetch_sets: Vec<Vec<BufferId>>,
    /// All demand buffers in node order — the GlobalLru candidate list,
    /// flattened once at construction (partitions never change size).
    all_demand: Vec<BufferId>,
    /// Count of unused-prefetch buffers (pending-prefetch or ready-unused).
    prefetched_unused: u32,
    /// Monotonic count of unused-prefetch evictions. An unused prefetch is
    /// the only kind of cached block that can sit *ahead* of a demand
    /// frontier and later disappear, so this counter is the invalidation
    /// epoch for oracle scan hints (see `rt_core`'s policy module).
    unused_evictions: u64,
    stats: CacheStats,
}

impl BufferPool {
    /// Build an empty pool with the given geometry.
    pub fn new(config: PoolConfig) -> Self {
        assert!(config.procs > 0, "pool needs at least one node");
        assert!(
            config.demand_per_proc > 0,
            "each node needs at least one demand buffer"
        );
        let mut buffers = Vec::with_capacity(config.total_buffers() as usize);
        let mut demand_sets = Vec::with_capacity(config.procs as usize);
        let mut prefetch_sets = Vec::with_capacity(config.procs as usize);
        for p in 0..config.procs {
            let mut dset = Vec::with_capacity(config.demand_per_proc as usize);
            for _ in 0..config.demand_per_proc {
                let id = BufferId(buffers.len() as u32);
                buffers.push(Buffer::new(ProcId(p), BufferClass::Demand));
                dset.push(id);
            }
            demand_sets.push(dset);
            let mut pset = Vec::with_capacity(config.prefetch_per_proc as usize);
            for _ in 0..config.prefetch_per_proc {
                let id = BufferId(buffers.len() as u32);
                buffers.push(Buffer::new(ProcId(p), BufferClass::Prefetch));
                pset.push(id);
            }
            prefetch_sets.push(pset);
        }
        let all_demand: Vec<BufferId> = demand_sets.iter().flatten().copied().collect();
        BufferPool {
            config,
            buffers,
            index: Vec::new(),
            demand_sets,
            prefetch_sets,
            all_demand,
            prefetched_unused: 0,
            unused_evictions: 0,
            stats: CacheStats::default(),
        }
    }

    /// The buffer indexed for `block`, if any — one dense-table load.
    #[inline]
    fn index_get(&self, block: BlockId) -> Option<BufferId> {
        match self.index.get(block.index()) {
            Some(&buf) if buf != NO_BUFFER => Some(BufferId(buf)),
            _ => None,
        }
    }

    /// Point the index at `buf` for `block`, growing the table on first
    /// touch of a block number beyond its current extent.
    #[inline]
    fn index_insert(&mut self, block: BlockId, buf: BufferId) {
        if block.index() >= self.index.len() {
            self.index.resize(block.index() + 1, NO_BUFFER);
        }
        debug_assert_eq!(self.index[block.index()], NO_BUFFER);
        self.index[block.index()] = buf.0;
    }

    #[inline]
    fn index_remove(&mut self, block: BlockId) {
        self.index[block.index()] = NO_BUFFER;
    }

    /// Run the full invariant sweep in debug builds; free in release.
    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// The pool geometry.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Number of prefetched-but-unused blocks currently held.
    #[inline]
    pub fn prefetched_unused(&self) -> u32 {
        self.prefetched_unused
    }

    /// Total unused-prefetch evictions so far. While this is unchanged, no
    /// block that was cached ahead of a demand frontier has become
    /// uncached — the validity condition for oracle scan hints.
    #[inline]
    pub fn unused_evictions(&self) -> u64 {
        self.unused_evictions
    }

    /// Inspect a buffer.
    #[inline]
    pub fn buffer(&self, id: BufferId) -> &Buffer {
        &self.buffers[id.index()]
    }

    /// Is `block` cached or in flight (without touching statistics)?
    /// Used by prefetch policies to skip already-covered blocks.
    #[inline]
    pub fn contains(&self, block: BlockId) -> bool {
        self.index_get(block).is_some()
    }

    /// The buffer currently holding or filling `block`, without touching
    /// statistics.
    #[inline]
    pub fn buffer_for(&self, block: BlockId) -> Option<BufferId> {
        self.index_get(block)
    }

    /// Look up `block` on behalf of a user read at time `now`, updating the
    /// hit/miss statistics. On a miss the caller must follow up with
    /// [`BufferPool::alloc_demand`]. Hit-wait *times* are accounted by the
    /// caller (who knows when the data actually arrives); the pool tracks
    /// the ready/unready/miss classification.
    #[inline]
    pub fn lookup_for_read(&mut self, block: BlockId, _now: SimTime) -> Lookup {
        match self.index_get(block) {
            None => {
                self.stats.hit_ratio.record(false);
                self.stats.misses += 1;
                Lookup::Miss
            }
            Some(buf) => match self.buffers[buf.index()].state {
                BufState::Ready { .. } => {
                    self.stats.hit_ratio.record(true);
                    self.stats.ready_hits += 1;
                    Lookup::ReadyHit(buf)
                }
                BufState::Pending { ready_at, .. } => {
                    self.stats.hit_ratio.record(true);
                    self.stats.unready_hits += 1;
                    Lookup::UnreadyHit { buf, ready_at }
                }
                BufState::Free => unreachable!("indexed buffer cannot be free"),
            },
        }
    }

    /// Update the expected completion time of a pending buffer. Used when a
    /// buffer is reserved before its disk request has been enqueued (the
    /// miss work runs in its own critical section).
    #[inline]
    pub fn set_ready_at(&mut self, buf: BufferId, ready_at: SimTime) {
        match &mut self.buffers[buf.index()].state {
            BufState::Pending { ready_at: r, .. } => *r = ready_at,
            other => panic!("set_ready_at on non-pending buffer: {other:?}"),
        }
    }

    /// Pin `buf` for a copy-out: the buffer cannot be evicted until the
    /// matching [`BufferPool::unpin`]. Pins nest (several processes may
    /// copy the same block concurrently).
    #[inline]
    pub fn pin(&mut self, buf: BufferId) {
        let b = &mut self.buffers[buf.index()];
        debug_assert!(
            matches!(b.state, BufState::Ready { .. }),
            "pin on a non-ready buffer"
        );
        b.pins += 1;
    }

    /// Release one pin on `buf`.
    #[inline]
    pub fn unpin(&mut self, buf: BufferId) {
        let b = &mut self.buffers[buf.index()];
        assert!(b.pins > 0, "unpin without a matching pin");
        b.pins -= 1;
    }

    /// Record that `proc` consumed the data in `buf` at `now`. Marks the
    /// buffer used (releasing it from the prefetch cap if applicable) and
    /// refreshes its recency.
    #[inline]
    pub fn record_use(&mut self, buf: BufferId, _proc: ProcId, now: SimTime) {
        let b = &mut self.buffers[buf.index()];
        match &mut b.state {
            BufState::Ready {
                used,
                last_use,
                prefetched,
                ..
            } => {
                if *prefetched && !*used {
                    debug_assert!(self.prefetched_unused > 0);
                    self.prefetched_unused -= 1;
                }
                *used = true;
                *last_use = now;
            }
            other => panic!("record_use on non-ready buffer: {other:?}"),
        }
        self.debug_check();
    }

    /// Reserve a buffer in `proc`'s RU set for a demand fetch of `block`,
    /// evicting the least-recently-used evictable buffer of the set. The
    /// caller supplies `ready_at` (or a placeholder updated via
    /// [`BufferPool::set_ready_at`] once the disk request is enqueued).
    /// Returns `None` when every candidate buffer is pinned by an in-flight
    /// copy — the caller retries shortly.
    pub fn alloc_demand(
        &mut self,
        proc: ProcId,
        block: BlockId,
        ready_at: SimTime,
    ) -> Option<BufferId> {
        debug_assert!(
            !self.contains(block),
            "alloc_demand for an already-indexed block"
        );
        let victim = match self.config.replacement {
            Replacement::RuSet => self.pick_victim(&self.demand_sets[proc.index()]),
            // One LRU list over every node's demand buffers, flattened
            // once at construction.
            Replacement::GlobalLru => self.pick_victim(&self.all_demand),
        }?;
        self.evict(victim);
        self.buffers[victim.index()].state = BufState::Pending {
            block,
            ready_at,
            kind: FetchKind::Demand,
        };
        self.index_insert(block, victim);
        self.stats.demand_fetches += 1;
        self.debug_check();
        Some(victim)
    }

    /// Try to reserve a prefetch buffer for `block` on behalf of `proc`.
    ///
    /// Prefetch buffers live three-per-node but are a *global* resource
    /// constrained only by the global unused-prefetch cap — exactly the
    /// paper's arrangement, which is what lets "some processes grab several
    /// buffers and prefetch for themselves, leaving few buffers for other
    /// processes" (§V-B, the lfp pathology). The node's own buffers are
    /// preferred (NUMA locality); remote nodes' free or reusable buffers
    /// are stolen when the local partition is exhausted.
    ///
    /// On success the caller must start the I/O and then call
    /// [`BufferPool::commit_prefetch`] with the completion time.
    pub fn try_reserve_prefetch(
        &mut self,
        proc: ProcId,
        block: BlockId,
    ) -> Result<BufferId, PrefetchBlocked> {
        if self.contains(block) {
            return Err(PrefetchBlocked::AlreadyCached);
        }
        if self.prefetched_unused >= self.config.global_prefetch_cap {
            self.stats.blocked_global_cap += 1;
            return Err(PrefetchBlocked::GlobalCap);
        }
        // Local partition first, then the other nodes' in index order.
        let victim = self
            .pick_victim(&self.prefetch_sets[proc.index()])
            .or_else(|| {
                self.prefetch_sets
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != proc.index())
                    .find_map(|(_, set)| self.pick_victim(set))
            });
        match victim {
            Some(victim) => {
                self.evict(victim);
                self.debug_check();
                Ok(victim)
            }
            None => {
                self.stats.blocked_no_buffer += 1;
                Err(PrefetchBlocked::NoBuffer)
            }
        }
    }

    /// Commit a reservation from [`BufferPool::try_reserve_prefetch`]: the
    /// I/O for `block` has been submitted and completes at `ready_at`.
    pub fn commit_prefetch(&mut self, buf: BufferId, block: BlockId, ready_at: SimTime) {
        debug_assert_eq!(self.buffers[buf.index()].state, BufState::Free);
        debug_assert!(!self.contains(block));
        self.buffers[buf.index()].state = BufState::Pending {
            block,
            ready_at,
            kind: FetchKind::Prefetch,
        };
        self.index_insert(block, buf);
        self.prefetched_unused += 1;
        self.stats.prefetches += 1;
        self.debug_check();
    }

    /// Mark the I/O filling `buf` complete at `now`. The buffer becomes
    /// ready; unready-hit waiters (tracked by the caller) may now be woken.
    pub fn complete_io(&mut self, buf: BufferId, now: SimTime) {
        let b = &mut self.buffers[buf.index()];
        match b.state {
            BufState::Pending { block, kind, .. } => {
                b.state = BufState::Ready {
                    block,
                    since: now,
                    last_use: now,
                    used: false,
                    prefetched: kind == FetchKind::Prefetch,
                };
            }
            other => panic!("complete_io on non-pending buffer: {other:?}"),
        }
        self.debug_check();
    }

    /// Abandon an in-flight fill: the I/O for this buffer failed and will
    /// not be retried. The block is unindexed and the buffer freed, as if
    /// the fetch had never been issued. Panics if the buffer is not
    /// [`BufState::Pending`] or is pinned (a pinned pending buffer has a
    /// waiter, and waiters must be retried, not abandoned).
    pub fn discard_pending(&mut self, buf: BufferId) {
        let b = &self.buffers[buf.index()];
        assert!(
            matches!(b.state, BufState::Pending { .. }),
            "discard_pending on non-pending buffer: {:?}",
            b.state
        );
        assert_eq!(b.pins, 0, "discard_pending on pinned buffer");
        if b.is_unused_prefetch() {
            self.prefetched_unused = self.prefetched_unused.saturating_sub(1);
            // A cached-ahead block vanished: bump the epoch so scan memos
            // that assumed it was coming are invalidated.
            self.unused_evictions += 1;
        }
        let block = b.block().expect("pending buffer always holds a block");
        self.index_remove(block);
        self.buffers[buf.index()].state = BufState::Free;
        self.debug_check();
    }

    /// May the replacement policy reclaim this buffer, given the pool's
    /// configuration? Extends [`Buffer::is_evictable`] with the optional
    /// unused-prefetch relaxation.
    fn can_evict(&self, id: BufferId) -> bool {
        let b = &self.buffers[id.index()];
        if b.is_evictable() {
            return true;
        }
        self.config.evict_unused_prefetch
            && b.pins == 0
            && matches!(b.state, BufState::Ready { .. })
    }

    /// Least-recently-used evictable buffer of `set`, preferring free
    /// buffers outright.
    fn pick_victim(&self, set: &[BufferId]) -> Option<BufferId> {
        let mut best: Option<(BufferId, SimTime)> = None;
        for &id in set {
            match self.buffers[id.index()].state {
                BufState::Free => return Some(id),
                BufState::Ready { last_use, .. }
                    if self.can_evict(id) && best.is_none_or(|(_, t)| last_use < t) =>
                {
                    best = Some((id, last_use));
                }
                _ => {}
            }
        }
        best.map(|(id, _)| id)
    }

    /// Drop a buffer's contents and unindex its block.
    fn evict(&mut self, buf: BufferId) {
        let b = &self.buffers[buf.index()];
        if let Some(block) = b.block() {
            if b.is_unused_prefetch() {
                // Only reachable with the unused-prefetch relaxation: a
                // prefetched block nobody wanted was pushed out.
                self.stats.wasted_prefetches += 1;
                self.prefetched_unused = self.prefetched_unused.saturating_sub(1);
                self.unused_evictions += 1;
            }
            self.index_remove(block);
        }
        self.buffers[buf.index()].state = BufState::Free;
    }

    /// Drop every ready, unpinned buffer of `node`'s demand (RU) set: the
    /// node rejoined after a crash and restarts with a cold RU set, as if
    /// freshly booted. Pending buffers (an orphaned fetch still in flight)
    /// and pinned buffers (another node mid-copy on the shared data) are
    /// left alone — they belong to the machine, not the node. Returns the
    /// number of buffers dropped.
    pub fn drop_node_demand(&mut self, node: ProcId) -> u32 {
        let mut dropped = 0;
        for i in 0..self.demand_sets[node.index()].len() {
            let id = self.demand_sets[node.index()][i];
            let b = &self.buffers[id.index()];
            if b.pins == 0 && matches!(b.state, BufState::Ready { .. }) {
                self.evict(id);
                dropped += 1;
            }
        }
        self.debug_check();
        dropped
    }

    /// [`PoolPressure::occupancy`] without the scan. The prefetch
    /// partition holds only prefetch fills, so its pending plus
    /// unused-ready buffers are exactly the `prefetched_unused` count
    /// (checked by [`BufferPool::assert_invariants`]); the division is the
    /// same, so the result is bit-identical.
    #[inline]
    pub fn prefetch_occupancy(&self) -> f64 {
        let total = self.config.procs as u32 * self.config.prefetch_per_proc as u32;
        if total == 0 {
            0.0
        } else {
            self.prefetched_unused as f64 / total as f64
        }
    }

    /// Snapshot the prefetch partition's fullness: a scan over the pool,
    /// for the observability sampler and tests. The admission gate reads
    /// [`BufferPool::prefetch_occupancy`] instead.
    pub fn pressure(&self) -> PoolPressure {
        let mut p = PoolPressure {
            free: 0,
            pending: 0,
            unused_ready: 0,
            pinned: 0,
            prefetch_total: 0,
        };
        for b in &self.buffers {
            if b.pins > 0 {
                p.pinned += 1;
            }
            if b.class != BufferClass::Prefetch {
                continue;
            }
            p.prefetch_total += 1;
            match b.state {
                BufState::Free => p.free += 1,
                BufState::Pending { .. } => p.pending += 1,
                BufState::Ready { used, .. } if !used => p.unused_ready += 1,
                BufState::Ready { .. } => {}
            }
        }
        p
    }

    /// Verify internal invariants; used by tests and property tests, and
    /// run after every pool mutation in debug builds (see
    /// [`BufferPool::debug_check`] — release builds pay nothing).
    ///
    /// Panics with a description if an invariant is violated.
    pub fn assert_invariants(&self) {
        // 1. Every indexed block maps to a buffer that holds/fills it.
        for (slot, &buf) in self.index.iter().enumerate() {
            if buf == NO_BUFFER {
                continue;
            }
            assert_eq!(
                self.buffers[buf as usize].block(),
                Some(BlockId(slot as u32)),
                "index points at a buffer with different contents"
            );
        }
        // 2. No two buffers hold the same block.
        let mut held = std::collections::HashSet::new();
        for b in &self.buffers {
            if let Some(block) = b.block() {
                assert!(held.insert(block), "block {block:?} cached twice");
                assert!(
                    self.contains(block),
                    "buffer holds unindexed block {block:?}"
                );
            }
        }
        // 3. The unused-prefetch counter matches reality and the cap.
        let actual = self
            .buffers
            .iter()
            .filter(|b| b.is_unused_prefetch())
            .count() as u32;
        assert_eq!(actual, self.prefetched_unused, "prefetch-cap counter drift");
        assert!(
            self.prefetched_unused <= self.config.global_prefetch_cap
                || self.config.global_prefetch_cap == 0,
            "global prefetch cap exceeded"
        );
        // 3b. ...and equals the prefetch partition's committed buffers, so
        //     the O(1) occupancy the admission gate reads is the scan's.
        let pressure = self.pressure();
        assert_eq!(
            self.prefetched_unused,
            pressure.pending + pressure.unused_ready,
            "prefetch partition holds a fill of another kind"
        );
        // 4. Pins only on ready buffers.
        for b in &self.buffers {
            if b.pins > 0 {
                assert!(
                    matches!(b.state, BufState::Ready { .. }),
                    "pinned buffer is not ready"
                );
            }
        }
        // 5. Partition sizes never change.
        for p in 0..self.config.procs as usize {
            assert_eq!(
                self.demand_sets[p].len(),
                self.config.demand_per_proc as usize
            );
            assert_eq!(
                self.prefetch_sets[p].len(),
                self.config.prefetch_per_proc as usize
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_sim::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn pool() -> BufferPool {
        BufferPool::new(PoolConfig::paper_prefetch(2))
    }

    #[test]
    fn miss_then_demand_fetch_then_hit() {
        let mut p = pool();
        assert_eq!(p.lookup_for_read(BlockId(5), t(0)), Lookup::Miss);
        let buf = p.alloc_demand(ProcId(0), BlockId(5), t(30)).unwrap();
        match p.lookup_for_read(BlockId(5), t(1)) {
            Lookup::UnreadyHit { buf: b, ready_at } => {
                assert_eq!(b, buf);
                assert_eq!(ready_at, t(30));
            }
            other => panic!("expected unready hit, got {other:?}"),
        }
        p.complete_io(buf, t(30));
        assert_eq!(p.lookup_for_read(BlockId(5), t(31)), Lookup::ReadyHit(buf));
        p.record_use(buf, ProcId(0), t(31));
        p.assert_invariants();
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.unready_hits, 1);
        assert_eq!(s.ready_hits, 1);
        assert_eq!(s.demand_fetches, 1);
        assert!((s.hit_ratio.value() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn unready_hit_reports_ready_time() {
        let mut p = pool();
        let buf = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        match p.lookup_for_read(BlockId(1), t(12)) {
            Lookup::UnreadyHit { ready_at, .. } => assert_eq!(ready_at, t(30)),
            other => panic!("expected unready hit, got {other:?}"),
        }
        p.complete_io(buf, t(30));
        p.assert_invariants();
    }

    #[test]
    fn set_ready_at_updates_pending() {
        let mut p = pool();
        let buf = p.alloc_demand(ProcId(0), BlockId(1), SimTime::MAX).unwrap();
        p.set_ready_at(buf, t(42));
        match p.lookup_for_read(BlockId(1), t(0)) {
            Lookup::UnreadyHit { ready_at, .. } => assert_eq!(ready_at, t(42)),
            other => panic!("expected unready hit, got {other:?}"),
        }
        p.complete_io(buf, t(42));
        p.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "set_ready_at on non-pending")]
    fn set_ready_at_rejects_ready_buffer() {
        let mut p = pool();
        let buf = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(buf, t(30));
        p.set_ready_at(buf, t(50));
    }

    #[test]
    fn demand_eviction_replaces_ru_set_lru() {
        let mut p = pool();
        let b1 = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(b1, t(30));
        p.record_use(b1, ProcId(0), t(31));
        // Same proc's next miss evicts block 1 (RU set size 1).
        let b2 = p.alloc_demand(ProcId(0), BlockId(2), t(60)).unwrap();
        assert_eq!(b1, b2, "RU set of size 1 must reuse the same buffer");
        assert!(!p.contains(BlockId(1)));
        assert!(p.contains(BlockId(2)));
        p.assert_invariants();
    }

    #[test]
    fn other_procs_hit_on_foreign_demand_buffer() {
        let mut p = pool();
        let buf = p.alloc_demand(ProcId(0), BlockId(7), t(30)).unwrap();
        p.complete_io(buf, t(30));
        assert_eq!(p.lookup_for_read(BlockId(7), t(31)), Lookup::ReadyHit(buf));
    }

    #[test]
    fn prefetch_reserve_commit_use_cycle() {
        let mut p = pool();
        let buf = p.try_reserve_prefetch(ProcId(0), BlockId(3)).unwrap();
        p.commit_prefetch(buf, BlockId(3), t(30));
        assert_eq!(p.prefetched_unused(), 1);
        p.complete_io(buf, t(30));
        assert_eq!(p.prefetched_unused(), 1, "unused until first read");
        match p.lookup_for_read(BlockId(3), t(40)) {
            Lookup::ReadyHit(b) => p.record_use(b, ProcId(1), t(40)),
            other => panic!("expected ready hit, got {other:?}"),
        }
        assert_eq!(p.prefetched_unused(), 0);
        p.assert_invariants();
    }

    #[test]
    fn prefetch_skips_cached_blocks() {
        let mut p = pool();
        let buf = p.alloc_demand(ProcId(0), BlockId(9), t(30)).unwrap();
        assert_eq!(
            p.try_reserve_prefetch(ProcId(1), BlockId(9)),
            Err(PrefetchBlocked::AlreadyCached)
        );
        p.complete_io(buf, t(30));
        assert_eq!(
            p.try_reserve_prefetch(ProcId(1), BlockId(9)),
            Err(PrefetchBlocked::AlreadyCached)
        );
    }

    #[test]
    fn prefetch_buffers_steal_globally() {
        let mut p = pool();
        // Node 0 grabs its own three buffers, then steals from node 1 —
        // the hogging the paper blames for the lfp slowdowns.
        for i in 0..5u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            p.commit_prefetch(buf, BlockId(i), t(30));
        }
        let stolen = (0..5)
            .filter(|&i| {
                let buf = p.buffer_for(BlockId(i)).unwrap();
                p.buffer(buf).home == ProcId(1)
            })
            .count();
        assert_eq!(stolen, 2, "two of five reservations stolen from node 1");
        // The sixth reservation hits the global cap (3 per proc × 2).
        let buf = p.try_reserve_prefetch(ProcId(0), BlockId(5)).unwrap();
        p.commit_prefetch(buf, BlockId(5), t(30));
        assert_eq!(
            p.try_reserve_prefetch(ProcId(1), BlockId(6)),
            Err(PrefetchBlocked::GlobalCap)
        );
        p.assert_invariants();
    }

    #[test]
    fn local_prefetch_buffers_preferred() {
        let mut p = pool();
        let buf = p.try_reserve_prefetch(ProcId(1), BlockId(0)).unwrap();
        assert_eq!(p.buffer(buf).home, ProcId(1), "own node's buffer first");
    }

    #[test]
    fn global_cap_blocks_prefetch() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 2,
            demand_per_proc: 1,
            prefetch_per_proc: 3,
            global_prefetch_cap: 2,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        for i in 0..2u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            p.commit_prefetch(buf, BlockId(i), t(30));
        }
        assert_eq!(
            p.try_reserve_prefetch(ProcId(1), BlockId(5)),
            Err(PrefetchBlocked::GlobalCap)
        );
        assert_eq!(p.stats().blocked_global_cap, 1);
        p.assert_invariants();
    }

    #[test]
    fn used_prefetch_buffer_is_recycled() {
        let mut p = pool();
        // Fill all three of node 0's prefetch buffers and use them at
        // different times.
        for i in 0..3u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            p.commit_prefetch(buf, BlockId(i), t(30));
            p.complete_io(buf, t(30));
            p.record_use(buf, ProcId(0), t(35 + i as u64));
        }
        // No free buffer remains, so the next reservation evicts the
        // least recently used block (block 0, used at t=35).
        assert!(p.try_reserve_prefetch(ProcId(0), BlockId(10)).is_ok());
        assert!(!p.contains(BlockId(0)));
        assert!(p.contains(BlockId(1)));
        assert!(p.contains(BlockId(2)));
        assert_eq!(p.stats().wasted_prefetches, 0);
        p.assert_invariants();
    }

    #[test]
    fn unused_prefetch_never_evicted() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 1,
            demand_per_proc: 1,
            prefetch_per_proc: 3,
            global_prefetch_cap: 8, // cap above the buffer count
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        for i in 0..3u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            p.commit_prefetch(buf, BlockId(i), t(30));
            p.complete_io(buf, t(30));
        }
        // All three ready but unused: protected, so reservation fails with
        // NoBuffer (the cap still has room).
        assert_eq!(
            p.try_reserve_prefetch(ProcId(0), BlockId(10)),
            Err(PrefetchBlocked::NoBuffer)
        );
        for i in 0..3u32 {
            assert!(p.contains(BlockId(i)));
        }
        p.assert_invariants();
    }

    #[test]
    fn pick_victim_prefers_lru() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 1,
            demand_per_proc: 2,
            prefetch_per_proc: 0,
            global_prefetch_cap: 0,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        let b1 = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(b1, t(30));
        p.record_use(b1, ProcId(0), t(31));
        let b2 = p.alloc_demand(ProcId(0), BlockId(2), t(60)).unwrap();
        p.complete_io(b2, t(60));
        p.record_use(b2, ProcId(0), t(61));
        // Refresh block 1 so block 2 becomes LRU.
        p.record_use(b1, ProcId(0), t(70));
        let b3 = p.alloc_demand(ProcId(0), BlockId(3), t(90)).unwrap();
        assert_eq!(b3, b2, "LRU (block 2) should be evicted");
        assert!(p.contains(BlockId(1)));
        assert!(!p.contains(BlockId(2)));
        p.assert_invariants();
    }

    #[test]
    fn global_lru_evicts_across_nodes() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 2,
            demand_per_proc: 1,
            prefetch_per_proc: 0,
            global_prefetch_cap: 0,
            replacement: Replacement::GlobalLru,
            evict_unused_prefetch: false,
        });
        // Node 0 fetches block 1 and uses it at t=31.
        let b1 = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(b1, t(30));
        p.record_use(b1, ProcId(0), t(31));
        // Node 1 fetches block 2, uses at t=61.
        let b2 = p.alloc_demand(ProcId(1), BlockId(2), t(60)).unwrap();
        p.complete_io(b2, t(60));
        p.record_use(b2, ProcId(1), t(61));
        // Node 1 misses again: under global LRU the victim is node 0's
        // buffer (block 1, older), not node 1's own.
        let b3 = p.alloc_demand(ProcId(1), BlockId(3), t(90)).unwrap();
        assert_eq!(b3, b1);
        assert!(!p.contains(BlockId(1)));
        assert!(p.contains(BlockId(2)));
        p.assert_invariants();
    }

    #[test]
    fn ru_set_never_evicts_foreign_buffers() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 2,
            demand_per_proc: 1,
            prefetch_per_proc: 0,
            global_prefetch_cap: 0,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        let b1 = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(b1, t(30));
        p.record_use(b1, ProcId(0), t(31));
        let b2 = p.alloc_demand(ProcId(1), BlockId(2), t(60)).unwrap();
        p.complete_io(b2, t(60));
        p.record_use(b2, ProcId(1), t(61));
        // Node 1's next miss recycles its own buffer despite block 1 being
        // older globally.
        let b3 = p.alloc_demand(ProcId(1), BlockId(3), t(90)).unwrap();
        assert_eq!(b3, b2);
        assert!(p.contains(BlockId(1)));
        p.assert_invariants();
    }

    #[test]
    fn pressure_tracks_prefetch_partition() {
        let mut p = pool(); // 2 procs × 3 prefetch buffers
        let empty = p.pressure();
        assert_eq!(empty.prefetch_total, 6);
        assert_eq!(empty.free, 6);
        assert!((empty.occupancy() - 0.0).abs() < 1e-9);

        // Three in flight: half the partition is committed.
        for i in 0..3u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            p.commit_prefetch(buf, BlockId(i), t(30));
        }
        let mid = p.pressure();
        assert_eq!(mid.pending, 3);
        assert_eq!(mid.free, 3);
        assert!((mid.occupancy() - 0.5).abs() < 1e-9);

        // Completion moves them to unused-ready; occupancy is unchanged
        // until someone reads the data.
        for i in 0..3u32 {
            let buf = p.buffer_for(BlockId(i)).unwrap();
            p.complete_io(buf, t(30));
        }
        let ready = p.pressure();
        assert_eq!(ready.pending, 0);
        assert_eq!(ready.unused_ready, 3);
        assert!((ready.occupancy() - 0.5).abs() < 1e-9);

        // Consuming a block releases its share of the pressure.
        let buf = p.buffer_for(BlockId(0)).unwrap();
        p.record_use(buf, ProcId(1), t(40));
        assert_eq!(p.pressure().unused_ready, 2);
        // A pinned copy-out shows up in the pinned count.
        p.pin(buf);
        assert_eq!(p.pressure().pinned, 1);
        p.unpin(buf);
        p.assert_invariants();
    }

    #[test]
    fn constant_time_occupancy_tracks_the_pressure_scan() {
        // 1 node × 3 prefetch buffers with the unused-prefetch relaxation,
        // so every path that moves the counter is reachable.
        let mut p = BufferPool::new(PoolConfig {
            procs: 1,
            demand_per_proc: 1,
            prefetch_per_proc: 3,
            global_prefetch_cap: 8,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: true,
        });
        let check = |p: &BufferPool, unused: u32| {
            p.assert_invariants();
            assert_eq!(p.prefetched_unused(), unused);
            assert_eq!(
                p.prefetch_occupancy().to_bits(),
                p.pressure().occupancy().to_bits()
            );
        };
        check(&p, 0);
        // Reserve, commit, complete: pending, then ready but unused.
        let mut bufs = Vec::new();
        for i in 0..3u32 {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(i)).unwrap();
            check(&p, i);
            p.commit_prefetch(buf, BlockId(i), t(30));
            check(&p, i + 1);
            bufs.push(buf);
        }
        p.complete_io(bufs[0], t(30));
        check(&p, 3);
        // Use releases one; a demand fill never counts.
        p.record_use(bufs[0], ProcId(0), t(40));
        check(&p, 2);
        p.complete_io(bufs[1], t(45));
        check(&p, 2);
        let d = p.alloc_demand(ProcId(0), BlockId(9), t(50)).unwrap();
        p.complete_io(d, t(50));
        check(&p, 2);
        // Discarding the pending prefetch releases it.
        p.discard_pending(bufs[2]);
        check(&p, 1);
        // Refill the freed buffer, then push out the used one: the
        // partition is now full of unused prefetches.
        for b in [10u32, 11] {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(b)).unwrap();
            p.commit_prefetch(buf, BlockId(b), t(60));
            p.complete_io(buf, t(60));
        }
        check(&p, 3);
        assert!((p.prefetch_occupancy() - 1.0).abs() < 1e-12);
        // Unused-prefetch eviction: the next reservation drops one.
        let before = p.unused_evictions();
        let buf = p.try_reserve_prefetch(ProcId(0), BlockId(12)).unwrap();
        assert_eq!(p.unused_evictions(), before + 1);
        assert_eq!(p.stats().wasted_prefetches, 1);
        check(&p, 2);
        p.commit_prefetch(buf, BlockId(12), t(70));
        check(&p, 3);
        // No prefetch partition at all reads as empty, like the scan.
        let none = BufferPool::new(PoolConfig {
            procs: 2,
            demand_per_proc: 1,
            prefetch_per_proc: 0,
            global_prefetch_cap: 0,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        assert_eq!(none.prefetch_occupancy(), 0.0);
        assert_eq!(none.pressure().occupancy(), 0.0);
    }

    #[test]
    fn drop_node_demand_leaves_pending_and_pinned_alone() {
        let mut p = BufferPool::new(PoolConfig {
            procs: 2,
            demand_per_proc: 3,
            prefetch_per_proc: 0,
            global_prefetch_cap: 0,
            replacement: Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        // Node 0: one ready block, one pinned block, one in-flight fill.
        let ready = p.alloc_demand(ProcId(0), BlockId(1), t(30)).unwrap();
        p.complete_io(ready, t(30));
        let pinned = p.alloc_demand(ProcId(0), BlockId(2), t(30)).unwrap();
        p.complete_io(pinned, t(30));
        p.pin(pinned);
        p.alloc_demand(ProcId(0), BlockId(3), t(90)).unwrap();
        // Node 1: a ready block that must survive node 0's cold restart.
        let other = p.alloc_demand(ProcId(1), BlockId(4), t(30)).unwrap();
        p.complete_io(other, t(30));

        assert_eq!(p.drop_node_demand(ProcId(0)), 1);
        assert!(!p.contains(BlockId(1)), "ready unpinned buffer dropped");
        assert!(p.contains(BlockId(2)), "pinned buffer kept");
        assert!(p.contains(BlockId(3)), "pending fill kept");
        assert!(p.contains(BlockId(4)), "other node untouched");
        p.unpin(pinned);
        p.assert_invariants();
    }

    #[test]
    fn stats_totals_are_consistent() {
        let mut p = pool();
        for i in 0..4u32 {
            if p.lookup_for_read(BlockId(i), t(i as u64)) == Lookup::Miss {
                let b = p
                    .alloc_demand(ProcId(0), BlockId(i), t(30 + i as u64))
                    .unwrap();
                p.complete_io(b, t(30 + i as u64));
                p.record_use(b, ProcId(0), t(31 + i as u64));
            }
        }
        let s = p.stats();
        assert_eq!(s.hit_ratio.total(), 4);
        assert_eq!(s.misses + s.ready_hits + s.unready_hits, 4);
        assert_eq!(s.demand_fetches, s.misses);
    }
}
