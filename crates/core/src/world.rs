//! The simulated testbed: processors, the file system read path, the
//! idle-time prefetching daemon, and their interactions.
//!
//! One [`World`] is one experiment run. Each processor node runs a single
//! user process (read a block, compute, synchronize — §IV-B) and a
//! file-system component that performs **prefetch actions only while the
//! local user process is idle**, releasing control only at the completion
//! of an action (§III). A process whose logical wake-up occurs while an
//! action is in flight resumes only when the action completes — the
//! **overrun** the paper identifies as a real cost of prefetching.
//!
//! All shared-structure work (lookups, buffer allocation, prefetch
//! decisions) serializes through one simulated FIFO lock, so contention for
//! the cache's internal data structures emerges the way it did on the
//! Butterfly's remote shared memory.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rt_cache::{BufState, BufferId, BufferPool, Lookup, PoolConfig};
use rt_disk::{BlockId, DiskId, FetchKind, ProcId};
use rt_fs::{FileId, FileSystem, FsError, FsStarted};
use rt_patterns::{Access, Cursor, Predictor, SyncStyle, Workload};
use rt_sim::{
    EventId, Laned, Model, Rng, Sampled, Scheduler, SimDuration, SimLock, SimTime, Tally,
};

use crate::admission::{AdmissionState, Deny, ParkedDemand};
use crate::barrier::Barrier;
use crate::config::{ExperimentConfig, PolicyKind};
use crate::faults::RetryPolicy;
use crate::health::HealthTracker;
use crate::metrics::{CrashMetrics, FaultMetrics, OverloadMetrics};
use crate::policy::{
    select_oracle, select_oracle_avoiding, select_oracle_avoiding_hinted, select_oracle_hinted,
    select_predicted, OracleView, ScanHint,
};
use crate::trace::{ReadOutcome, Trace, TraceEvent};
use rt_obs::{Component, EventKind as ObsKind, ReadAttribution, Track};

mod control;
mod crash;
mod daemon;
mod integrity;
mod obs;
mod readpath;
mod waiters;

use obs::{fetch_code, outcome_code, ObsState};
pub use obs::{ObsConfig, ObsData};
use waiters::WaiterTable;

/// Simulation events.
#[derive(Clone, Copy, Debug)]
pub enum Ev {
    /// A processor begins execution.
    Start(ProcId),
    /// The cache lock was granted and the lookup completed.
    LookupDone(ProcId),
    /// The miss work (buffer allocation, RU-set update, disk enqueue)
    /// completed and the demand fetch is on the disk queue.
    MissIssue(ProcId),
    /// All candidate demand buffers were pinned by in-flight copies; try
    /// the miss again.
    RetryMiss(ProcId),
    /// The in-flight request on this disk completed.
    DiskDone(DiskId),
    /// The data copy for the current read finished; the read returns.
    ReadFinished(ProcId),
    /// The simulated per-block computation finished.
    ComputeDone(ProcId),
    /// A prefetch action on this node completed.
    ActionEnd(ProcId),
    /// A failed or stuck read's backoff elapsed; resubmit the fetch.
    /// Never scheduled unless the run's fault layer is active.
    RetryIo(BlockId),
    /// A demand fetch's per-request timeout fired. Never scheduled unless
    /// the fault layer is active and a timeout is configured.
    IoTimeout(BlockId),
    /// A demand fetch's hedge delay elapsed; launch a duplicate fetch to
    /// the next replica. Never scheduled unless hedging is configured.
    Hedge(BlockId),
    /// The checksum verification of a freshly filled block finished.
    /// Never scheduled unless the integrity layer is active.
    VerifyDone(BlockId),
    /// The node crashes (fault injection). Never scheduled unless the
    /// configuration's crash plan is non-empty.
    Crash(ProcId),
    /// A crashed node restarts with a cold RU set. Never scheduled unless
    /// the crash plan schedules a rejoin.
    Rejoin(ProcId),
}

/// Event-queue routing. The paper's machine is built from FIFO resources
/// with fixed costs, so every kind but the exponential compute delay (and
/// the rare fault, crash and integrity events) is scheduled in
/// nondecreasing time order and can skip the heap. An out-of-order event
/// (a crash's `reclaim_tail`, a straggler disk, a remote copy) falls back
/// to the heap without changing the dispatch order.
impl Laned for Ev {
    #[inline]
    fn lane(&self) -> Option<usize> {
        match self {
            // Granted by the one FIFO cache lock: end times are monotone.
            Ev::LookupDone(_) | Ev::MissIssue(_) | Ev::ActionEnd(_) => Some(0),
            // Service start + the fixed access time.
            Ev::DiskDone(_) => Some(1),
            // Now + the constant copy cost.
            Ev::ReadFinished(_) => Some(2),
            _ => None,
        }
    }
}

/// User-process execution state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PState {
    /// Issuing the next operation.
    Running,
    /// Waiting for the cache lock / lookup.
    Lookup,
    /// Blocked until the current block's I/O completes.
    WaitBlock,
    /// Copying block data out of the cache.
    Copying,
    /// Simulated computation on the block just read.
    Computing,
    /// Blocked at a barrier.
    AtBarrier,
    /// Reference string exhausted.
    Done,
    /// The node crashed; it holds nothing and handles no events until
    /// (and unless) its rejoin fires.
    Crashed,
}

/// Per-processor state.
struct Proc {
    id: ProcId,
    state: PState,
    /// Cursor over this process's own string (local patterns only).
    cursor: Cursor,
    rng: Rng,
    /// Completed reads.
    reads_done: u32,
    /// The access currently being read.
    cur_access: Option<Access>,
    /// When the current read was requested.
    read_start: SimTime,
    /// When the current wait began (idle-period start).
    idle_since: Option<SimTime>,
    /// Set when the logical wake-up condition has fired.
    logical_wake: Option<SimTime>,
    /// Known wake time for I/O waits (None for barrier waits).
    expected_wake: Option<SimTime>,
    /// When the current block wait was classified (for hit-wait times).
    wait_since: SimTime,
    /// Whether the current block wait is an unready *hit* (vs a miss).
    wait_is_hit: bool,
    /// A prefetch action is in flight on this node.
    action_busy: bool,
    /// When the in-flight action started.
    action_started: SimTime,
    /// The previous action in this idle period found no candidate.
    last_action_empty: bool,
    /// Read count at the last per-proc barrier (BlocksPerProc dedup).
    synced_at_reads: u32,
    /// Barriers passed under the BlocksTotal style.
    boundaries_passed: u64,
    /// Portion this process is currently reading (EachPortion gating,
    /// local patterns).
    cur_portion: Option<u32>,
    /// Outcome of the current read's classification (for tracing).
    cur_outcome: Option<ReadOutcome>,
    /// Buffer this process is currently copying from (pinned).
    copying_buf: Option<rt_cache::BufferId>,
    /// The open cache-lock critical section charged to this node (its end
    /// instant and hold length): the lookup section while in `Lookup`, the
    /// daemon-action section while `action_busy`. Lets a crash reclaim the
    /// unexpired tail of the victim's lease.
    lock_cs: Option<(SimTime, SimDuration)>,
    /// The one in-flight event addressed to this user process (lookup,
    /// miss issue, alloc retry, copy completion, compute completion), so
    /// a crash can cancel it. `None` while the process waits on a wake.
    pending_ev: Option<EventId>,
    /// The in-flight `ActionEnd` of this node's daemon, cancellable on
    /// crash (concurrent with `pending_ev` — the daemon runs during
    /// the user process's waits).
    action_ev: Option<EventId>,
    finished_at: Option<SimTime>,
    /// Latency attribution of the current read: nanoseconds per component,
    /// accumulated by closing contiguous intervals at lifecycle
    /// transitions (see `world/obs.rs`). Sums exactly to the read time.
    attr: ReadAttribution,
    /// Start of the open attribution interval.
    attr_mark: SimTime,
    /// Component the open attribution interval accrues to.
    attr_cur: Component,
}

impl Proc {
    fn new(id: ProcId, rng: Rng) -> Self {
        Proc {
            id,
            state: PState::Running,
            cursor: Cursor::new(),
            rng,
            reads_done: 0,
            cur_access: None,
            read_start: SimTime::ZERO,
            idle_since: None,
            logical_wake: None,
            expected_wake: None,
            wait_since: SimTime::ZERO,
            wait_is_hit: false,
            action_busy: false,
            action_started: SimTime::ZERO,
            last_action_empty: false,
            synced_at_reads: 0,
            boundaries_passed: 0,
            cur_portion: None,
            cur_outcome: None,
            copying_buf: None,
            lock_cs: None,
            pending_ev: None,
            action_ev: None,
            finished_at: None,
            attr: ReadAttribution::default(),
            attr_mark: SimTime::ZERO,
            attr_cur: Component::Overhead,
        }
    }
}

/// Why a process is about to block at the barrier (for tracing/tests).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SyncReason {
    PerProcCount,
    TotalCount,
    PortionBoundary,
}

/// Raw measurement accumulators for one run.
#[derive(Default)]
pub(crate) struct Recorder {
    pub reads: Tally,
    /// Full read-time sample reservoir (for p50/p95/p99 quantiles; the
    /// `reads` tally stays the mean/extremes source the goldens pin).
    pub read_times: Sampled,
    /// Disk response times (submission → completion) across all fetch
    /// kinds, sampled for quantiles.
    pub disk_responses: Sampled,
    pub hit_wait: Sampled,
    /// Per-process read-time tallies (benefit-distribution analysis).
    pub proc_reads: Vec<Tally>,
    /// Hits (ready + unready) received per process.
    pub proc_hits: Vec<u64>,
    /// Prefetch I/Os issued per node.
    pub proc_prefetches: Vec<u64>,
    pub action_time: Tally,
    pub overrun: Tally,
    pub idle_necessary: Tally,
    pub idle_actual: Tally,
    pub empty_actions: u64,
    pub blocked_actions: u64,
    pub alloc_retries: u64,
    /// Fault-path counters (all zero unless faults are injected).
    pub io_errors: u64,
    pub retries: u64,
    pub retries_exhausted: u64,
    pub timeouts: u64,
    pub redirects: u64,
    pub aborted_prefetches: u64,
    pub degraded_skips: u64,
    pub stale_completions: u64,
    /// Tail-tolerance counters (all zero unless hedging, retry budgets,
    /// or breakers are configured).
    pub hedges_launched: u64,
    pub hedge_wins: u64,
    pub hedge_wasted: u64,
    pub hedge_cancels: u64,
    pub retries_denied: u64,
    pub budget_spent: u64,
    /// Read times of reads that waited on at least one hedged fetch.
    pub hedged_read_times: Sampled,
    /// A waiter woken by a block delivery it was not waiting for — the
    /// exactly-once tripwire the hedge path must keep at zero.
    /// [`World::check_soak_invariants`] rejects any run where it is not.
    pub duplicate_deliveries: u64,
    /// Overload counters (all zero unless queues are bounded or
    /// admission is enabled).
    pub prefetches_shed: u64,
    pub prefetches_throttled: u64,
    pub demand_parked: u64,
    pub demand_behind_prefetch: u64,
    pub cache_high_water_hits: u64,
    /// Corrupt payloads delivered to a reader as if clean. The integrity
    /// subsystem exists to keep this at zero; [`World::check_soak_invariants`]
    /// rejects any run where it is not. Lives in the always-present
    /// recorder (not the optional integrity state) so the tripwire also
    /// catches corruption reaching a run whose integrity layer failed to
    /// activate.
    pub corrupt_delivered: u64,
}

/// Hasher for the layer maps' [`BlockId`] keys: one rotate-xor-multiply
/// per word instead of SipHash. Block numbers come from the simulator, not
/// an adversary, so flood resistance buys nothing; the odd multiplier keeps
/// consecutive blocks in distinct buckets.
#[derive(Clone, Copy, Default)]
pub(crate) struct BlockHasher(u64);

impl Hasher for BlockHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// A map keyed by block, hashed with [`BlockHasher`].
pub(crate) type BlockMap<V> = HashMap<BlockId, V, BuildHasherDefault<BlockHasher>>;
/// A set of blocks, hashed with [`BlockHasher`].
pub(crate) type BlockSet = HashSet<BlockId, BuildHasherDefault<BlockHasher>>;

/// In-flight fault bookkeeping for one block's demand fetch.
pub(crate) struct PendingIo {
    /// Resubmissions so far (selects the replica and the backoff).
    pub attempts: u32,
    /// The armed timeout event, cancelled on completion.
    pub timeout: Option<EventId>,
    /// The node the fetch is charged to, for resubmission.
    pub initiator: ProcId,
    /// The armed hedge-delay event, cancelled on completion.
    pub hedge: Option<EventId>,
    /// `Some(replica)` once a hedge duplicate is in flight to `replica`;
    /// resolved (win or waste) by the first completion.
    pub hedged: Option<u16>,
    /// The replica the primary in-flight fetch targets (so the hedge can
    /// pick a different one).
    pub replica: u16,
}

impl Default for PendingIo {
    fn default() -> Self {
        PendingIo {
            attempts: 0,
            timeout: None,
            initiator: ProcId(0),
            hedge: None,
            hedged: None,
            replica: 0,
        }
    }
}

/// Node-crash layer state of one run; allocated only when the
/// configuration's crash plan is non-empty, so crash-free runs schedule
/// no crash events and their event stream is untouched. Liveness itself
/// lives in each process's state ([`PState::Crashed`]); this holds the
/// per-node crash instants (for dead-interval annotation) and the
/// reclamation counters.
pub(crate) struct CrashState {
    /// When each node last crashed (meaningful while it is dead).
    pub crashed_at: Vec<SimTime>,
    // Counters (see [`CrashMetrics`]).
    pub crashes: u64,
    pub rejoins: u64,
    pub orphaned_ios: u64,
    pub reclaimed_locks: u64,
    pub reclaimed_pins: u64,
    pub reclaimed_waiters: u64,
    pub redistributed_prefetches: u64,
    pub lost_reads: u64,
}

impl CrashState {
    fn new(procs: u16) -> Self {
        CrashState {
            crashed_at: vec![SimTime::ZERO; procs as usize],
            crashes: 0,
            rejoins: 0,
            orphaned_ios: 0,
            reclaimed_locks: 0,
            reclaimed_pins: 0,
            reclaimed_waiters: 0,
            redistributed_prefetches: 0,
            lost_reads: 0,
        }
    }
}

/// Fault-layer state of one run; allocated only when the configuration's
/// fault scenario is active, so fault-free runs pay nothing on the read
/// path beyond an `Option` check.
pub(crate) struct FaultState {
    /// Per-disk error/latency EWMAs driving prefetch degradation.
    pub health: HealthTracker,
    pub retry: RetryPolicy,
    /// Per-block retry/timeout state for fetches the fault layer touched.
    pub pending: BlockMap<PendingIo>,
    /// Retry-budget token bucket: fractional tokens, refilled per
    /// successful completion, spent (one whole token) per timeout-retry
    /// or hedge. Unlimited when no budget is configured.
    pub budget_tokens: f64,
}

/// One in-flight checksum verification (or replica re-fetch) of a cache
/// fill. Keyed by block in [`IntegrityState::verifying`].
pub(crate) struct VerifyState {
    /// `Some(corrupt)` while a checksum check is scheduled — the flag the
    /// pending [`Ev::VerifyDone`] will read. `None` while a replica
    /// re-fetch is in flight.
    pub checking: Option<bool>,
    /// The replica the payload under check (or in flight) came from.
    pub replica: u16,
    /// Copies checked so far in this episode; at `copies` the block is
    /// poisoned.
    pub tried: u16,
    /// Replicas that returned corrupt payloads, rewritten once a clean
    /// copy is found.
    pub corrupt_replicas: Vec<u16>,
    /// The original fetch kind (a corrupt prefetch nobody waits on is
    /// dropped rather than repaired).
    pub kind: FetchKind,
    /// The node re-fetches and repairs are charged to.
    pub who: ProcId,
}

/// One in-flight scrub check: a verify-only read chain hunting for a
/// clean copy of a block the scrubber found corrupt.
pub(crate) struct ScrubCheck {
    /// The replica the outstanding scrub read targets.
    pub replica: u16,
    /// Copies checked so far in this episode.
    pub tried: u16,
    /// Replicas that returned corrupt payloads.
    pub corrupt_replicas: Vec<u16>,
}

/// Per-node scrub daemon state: a strided cursor over the file.
pub(crate) struct ScrubProc {
    /// Next block this node will consider (node-strided: node `p` scans
    /// `p, p + procs, p + 2·procs, …`, wrapping per pass).
    pub cursor: u32,
    /// The copy being scrubbed this pass; rotates at each wrap so every
    /// replica is covered over `copies` passes.
    pub replica: u16,
    /// A scrub chain is outstanding on this node (one at a time).
    pub inflight: bool,
    /// When this node last issued a scrub read (rate limiting).
    pub last_issued: SimTime,
}

/// Integrity-layer state of one run; allocated only when the
/// configuration schedules corrupt windows, forces verification, or runs
/// the scrubber — default runs pay nothing beyond an `Option` check and
/// their event stream is untouched.
pub(crate) struct IntegrityState {
    pub cfg: crate::integrity::IntegrityConfig,
    /// Verify fills at all: forced on whenever the fault plan schedules a
    /// corrupt window, so corruption can never be injected undetected.
    pub verify: bool,
    /// Blocks with no clean copy anywhere: every replica returned a
    /// corrupt payload. Reads fail fast with a typed error.
    pub poisoned: BlockSet,
    /// In-flight fill verifications and read-repairs, by block.
    pub verifying: BlockMap<VerifyState>,
    /// In-flight scrub repair chains, by block.
    pub scrub_checks: BlockMap<ScrubCheck>,
    /// Per-node scrub cursors.
    pub scrub: Vec<ScrubProc>,
    /// Typed error awaiting each node's current read, consumed at resume.
    pub read_errors: Vec<Option<crate::integrity::IntegrityError>>,
    // Counters (see `IntegrityMetrics`).
    pub corruptions: u64,
    pub detections: u64,
    pub repairs: u64,
    pub rewrites: u64,
    pub scrubbed: u64,
    pub scrub_detections: u64,
    pub failed_reads: u64,
}

impl IntegrityState {
    fn new(cfg: &ExperimentConfig) -> Self {
        IntegrityState {
            cfg: cfg.integrity,
            verify: cfg.integrity.verify || cfg.faults.plan.has_corruption(),
            poisoned: BlockSet::default(),
            verifying: BlockMap::default(),
            scrub_checks: BlockMap::default(),
            scrub: (0..cfg.procs)
                .map(|p| ScrubProc {
                    cursor: p as u32,
                    replica: 0,
                    inflight: false,
                    last_issued: SimTime::ZERO,
                })
                .collect(),
            read_errors: vec![None; cfg.procs as usize],
            corruptions: 0,
            detections: 0,
            repairs: 0,
            rewrites: 0,
            scrubbed: 0,
            scrub_detections: 0,
            failed_reads: 0,
        }
    }
}

/// One experiment run: the whole machine plus its workload. The workload
/// is shared by `Arc`, not copied.
pub struct World {
    cfg: ExperimentConfig,
    pool: BufferPool,
    fs: FileSystem,
    file: FileId,
    lock: SimLock,
    /// Shared with the other half of a base/prefetch pair — the reference
    /// string is identical, so pairs generate it once (see
    /// [`generate_workload`]).
    workload: Arc<Workload>,
    /// True when no block appears twice across the whole workload — the
    /// soundness condition for the oracle scan memo (see [`ScanHint`]).
    /// With sharing, a block ahead of one frontier may be cached as
    /// another process's evictable demand buffer, which the memo's
    /// eviction epoch does not observe.
    oracle_hint_sound: bool,
    /// Oracle scan memos: one per process for local workloads, entry 0
    /// for the global cursor. Unused unless `oracle_hint_sound`.
    oracle_hints: Vec<ScanHint>,
    global_cursor: Cursor,
    /// Highest globally opened portion (EachPortion + global patterns).
    global_portion_open: u32,
    procs: Vec<Proc>,
    /// Per-block lists of processes blocked on an in-flight I/O.
    waiters: WaiterTable,
    /// Reusable buffer for draining a waiter list ([`World::block_ready`]);
    /// keeps the wake path allocation-free.
    wake_scratch: Vec<ProcId>,
    barrier: Barrier,
    total_reads_done: u64,
    finished: u16,
    predictors: Vec<Option<Box<dyn Predictor>>>,
    trace: Option<Trace>,
    /// Disk requests submitted but not yet completed.
    outstanding_io: u32,
    /// Fault-layer state; `None` when the run injects nothing, keeping
    /// the hot path identical to a fault-free build.
    pub(crate) faults: Option<FaultState>,
    /// Node-crash layer state; `None` unless the crash plan is non-empty
    /// (same inert-by-default discipline as `faults`).
    pub(crate) crash: Option<CrashState>,
    /// Admission/backpressure state; `None` unless the configuration
    /// bounds queues or enables admission (same discipline as `faults`).
    pub(crate) admission: Option<AdmissionState>,
    /// Integrity state (verify, read-repair, scrub, poison); `None`
    /// unless corrupt windows are scheduled, verification is forced, or
    /// the scrubber is on (same discipline as `faults`).
    pub(crate) integrity: Option<IntegrityState>,
    /// Observability recording state; `None` unless [`World::enable_obs`]
    /// was called (same inert-by-default discipline as `faults`).
    pub(crate) obs: Option<ObsState>,
    pub(crate) rec: Recorder,
}

/// Generate the reference string `cfg` describes — exactly what
/// [`World::new`] would build internally. Pair and sweep runners that run
/// several experiments over the same string (e.g. base vs prefetch)
/// generate it once and share it via [`World::with_workload`].
pub fn generate_workload(cfg: &ExperimentConfig) -> Workload {
    let root = Rng::seeded(cfg.seed);
    let mut wl_rng = root.split(0x776f726b);
    Workload::generate(cfg.pattern, &cfg.workload, &mut wl_rng)
}

impl World {
    /// Build the machine and workload described by `cfg`.
    pub fn new(cfg: ExperimentConfig) -> Self {
        let workload = Arc::new(generate_workload(&cfg));
        Self::with_workload(cfg, workload)
    }

    /// Build the machine described by `cfg` around an already-generated
    /// workload. `workload` must equal [`generate_workload`]`(&cfg)` —
    /// the point is to share one generation across the runs of a pair.
    pub fn with_workload(cfg: ExperimentConfig, workload: Arc<Workload>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid experiment config: {e}");
        }
        let root = Rng::seeded(cfg.seed);

        let file_blocks = cfg.workload.file_blocks;
        if let Some(max) = workload.max_block() {
            assert!(max.0 < file_blocks, "workload exceeds the file");
        }
        debug_assert_eq!(
            rt_patterns::validate(cfg.pattern, &workload),
            Vec::new(),
            "generated workload violates its pattern's taxonomy"
        );

        let pool_cfg = if cfg.prefetch.enabled {
            PoolConfig {
                procs: cfg.procs,
                demand_per_proc: cfg.ru_set_size,
                prefetch_per_proc: cfg.prefetch.buffers_per_proc,
                global_prefetch_cap: cfg.prefetch.global_cap_per_proc as u32 * cfg.procs as u32,
                replacement: cfg.replacement,
                evict_unused_prefetch: cfg.prefetch.evict_unused,
            }
        } else {
            PoolConfig {
                procs: cfg.procs,
                demand_per_proc: cfg.ru_set_size,
                prefetch_per_proc: 0,
                global_prefetch_cap: 0,
                replacement: cfg.replacement,
                evict_unused_prefetch: false,
            }
        };

        // Enabling admission is an explicit opt into demand QoS: queued
        // prefetches are downgraded behind demand fetches at dispatch.
        let discipline = if cfg.admission.enabled {
            rt_disk::Discipline::DemandPriority
        } else {
            cfg.discipline
        };
        let mut fs = FileSystem::new(cfg.disks, discipline);
        let file = fs
            .create_replicated("workload", file_blocks, cfg.striping, cfg.faults.replicas)
            .expect("fresh file system");
        if !cfg.faults.plan.is_empty() {
            fs.set_fault_plan(&cfg.faults.plan, &root.split(0x6661_756c));
        }
        // The quarantine lifecycle rides on the health tracker, so the
        // fault layer is also allocated when only the integrity layer is
        // active (its retry/timeout machinery then just never fires).
        let integrity_active = cfg.integrity.active_with(&cfg.faults.plan);
        let faults = (cfg.faults.is_active() || integrity_active).then(|| FaultState {
            health: HealthTracker::new(cfg.disks, cfg.faults.degrade)
                .with_quarantine(cfg.integrity.quarantine)
                .with_breaker(cfg.faults.breaker),
            retry: cfg.faults.retry,
            pending: BlockMap::default(),
            budget_tokens: cfg.faults.budget.capacity.map_or(f64::INFINITY, f64::from),
        });
        let integrity = integrity_active.then(|| IntegrityState::new(&cfg));
        if let Some(depth) = cfg.queue_depth {
            fs.set_queue_limit(Some(depth as usize));
        }
        let admission = (cfg.queue_depth.is_some() || cfg.admission.enabled)
            .then(|| AdmissionState::new(cfg.admission, cfg.disks));
        let crash = (!cfg.faults.crashes.is_empty()).then(|| CrashState::new(cfg.procs));

        let procs: Vec<Proc> = (0..cfg.procs)
            .map(|p| Proc::new(ProcId(p), root.split(0x0070_726f_6300 + p as u64)))
            .collect();

        let predictors: Vec<Option<Box<dyn Predictor>>> = (0..cfg.procs)
            .map(|_| match cfg.prefetch.policy {
                PolicyKind::Oracle => None,
                PolicyKind::Obl { depth } => {
                    Some(Box::new(rt_patterns::Obl::new(depth, file_blocks)) as Box<dyn Predictor>)
                }
                PolicyKind::PortionLearner { confidence } => Some(Box::new(
                    rt_patterns::PortionLearner::new(confidence as usize, file_blocks),
                )
                    as Box<dyn Predictor>),
            })
            .collect();

        let oracle_hint_sound = {
            let mut seen = vec![false; file_blocks as usize];
            let mut mark = |s: &rt_patterns::RefString| {
                s.accesses()
                    .iter()
                    .all(|a| !std::mem::replace(&mut seen[a.block.index()], true))
            };
            match &*workload {
                Workload::Global(s) => mark(s),
                Workload::Local(strings) => strings.iter().all(&mut mark),
            }
        };

        let barrier = Barrier::new(cfg.procs);
        World {
            pool: BufferPool::new(pool_cfg),
            fs,
            file,
            lock: SimLock::new(),
            workload,
            oracle_hint_sound,
            oracle_hints: vec![ScanHint::default(); cfg.procs as usize],
            global_cursor: Cursor::new(),
            global_portion_open: 0,
            procs,
            waiters: WaiterTable::new(file_blocks, cfg.procs),
            wake_scratch: Vec::new(),
            barrier,
            total_reads_done: 0,
            finished: 0,
            predictors,
            trace: None,
            outstanding_io: 0,
            faults,
            crash,
            admission,
            integrity,
            obs: None,
            rec: Recorder {
                proc_reads: vec![Tally::new(); cfg.procs as usize],
                proc_hits: vec![0; cfg.procs as usize],
                proc_prefetches: vec![0; cfg.procs as usize],
                ..Recorder::default()
            },
            cfg,
        }
    }

    /// Record the exact access pattern for off-line analysis (§IV-C).
    /// Call before the run starts.
    pub fn enable_tracing(&mut self) {
        self.trace = Some(Trace::new());
    }

    /// The recorded trace, if tracing was enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Schedule the initial events: every processor starts at time zero,
    /// and the crash plan's injections (if any) at their instants.
    pub fn bootstrap(&self, sched: &mut Scheduler<Ev>) {
        for p in 0..self.cfg.procs {
            sched.schedule_at(SimTime::ZERO, Ev::Start(ProcId(p)));
        }
        for spec in self.cfg.faults.crashes.entries() {
            sched.schedule_at(spec.at, Ev::Crash(ProcId(spec.node)));
            if let Some(t) = spec.rejoin {
                sched.schedule_at(t, Ev::Rejoin(ProcId(spec.node)));
            }
        }
    }

    // ------------------------------------------------------------------
    // Accessors used by the experiment runner to assemble metrics.
    // ------------------------------------------------------------------

    /// The configuration this world was built from.
    pub fn cfg(&self) -> &ExperimentConfig {
        &self.cfg
    }

    pub(crate) fn pool(&self) -> &BufferPool {
        &self.pool
    }

    pub(crate) fn disks(&self) -> &rt_disk::DiskSubsystem {
        self.fs.disks()
    }

    /// The file system underlying this run.
    pub fn fs(&self) -> &FileSystem {
        &self.fs
    }

    pub(crate) fn lock(&self) -> &SimLock {
        &self.lock
    }

    pub(crate) fn barrier(&self) -> &Barrier {
        &self.barrier
    }

    pub(crate) fn finish_times(&self) -> Vec<SimTime> {
        self.procs
            .iter()
            .map(|p| p.finished_at.expect("run not complete"))
            .collect()
    }

    /// True once every process has exhausted its reference string.
    pub fn complete(&self) -> bool {
        self.finished == self.cfg.procs
    }

    /// Total reads completed so far.
    pub fn reads_done(&self) -> u64 {
        self.total_reads_done
    }

    /// Fault-path counters of this run, with degraded-interval accounting
    /// closed off at `end`. All zero for fault-free runs.
    pub fn fault_metrics(&self, end: SimTime) -> FaultMetrics {
        let (intervals, time) = match &self.faults {
            Some(f) => (f.health.degraded_intervals(), f.health.degraded_time(end)),
            None => (0, SimDuration::ZERO),
        };
        FaultMetrics {
            io_errors: self.rec.io_errors,
            retries: self.rec.retries,
            retries_exhausted: self.rec.retries_exhausted,
            timeouts: self.rec.timeouts,
            redirects: self.rec.redirects,
            aborted_prefetches: self.rec.aborted_prefetches,
            degraded_skips: self.rec.degraded_skips,
            stale_completions: self.rec.stale_completions,
            degraded_intervals: intervals,
            degraded_time: time,
        }
    }

    /// Integrity counters of this run, with quarantine-interval
    /// accounting closed off at `end`. All default for runs without an
    /// active integrity layer.
    pub fn integrity_metrics(&self, end: SimTime) -> crate::metrics::IntegrityMetrics {
        let Some(ig) = &self.integrity else {
            return crate::metrics::IntegrityMetrics::default();
        };
        let (quarantines, quarantined_time) = match &self.faults {
            Some(f) => (
                f.health.quarantine_episodes(),
                f.health.quarantined_time(end),
            ),
            None => (0, SimDuration::ZERO),
        };
        crate::metrics::IntegrityMetrics {
            corruptions: ig.corruptions,
            detections: ig.detections,
            repairs: ig.repairs,
            rewrites: ig.rewrites,
            scrubbed: ig.scrubbed,
            scrub_detections: ig.scrub_detections,
            poisoned_blocks: ig.poisoned.len() as u64,
            failed_reads: ig.failed_reads,
            corrupt_delivered: self.rec.corrupt_delivered,
            quarantines,
            quarantined_time,
        }
    }

    /// Node-crash counters of this run. All zero for runs without a crash
    /// plan.
    pub fn crash_metrics(&self) -> CrashMetrics {
        match &self.crash {
            Some(c) => CrashMetrics {
                crashes: c.crashes,
                rejoins: c.rejoins,
                orphaned_ios: c.orphaned_ios,
                reclaimed_locks: c.reclaimed_locks,
                reclaimed_pins: c.reclaimed_pins,
                reclaimed_waiters: c.reclaimed_waiters,
                redistributed_prefetches: c.redistributed_prefetches,
                lost_reads: c.lost_reads,
            },
            None => CrashMetrics::default(),
        }
    }

    /// Tail-tolerance counters of this run. All zero for runs without
    /// hedging, retry budgets, or breakers configured.
    pub fn tail_metrics(&self) -> crate::metrics::TailMetrics {
        let (breaker_opens, probe_successes) = match &self.faults {
            Some(f) => (f.health.breaker_opens(), f.health.probe_successes()),
            None => (0, 0),
        };
        crate::metrics::TailMetrics {
            hedges_launched: self.rec.hedges_launched,
            hedge_wins: self.rec.hedge_wins,
            hedge_wasted: self.rec.hedge_wasted,
            hedge_cancels: self.rec.hedge_cancels,
            retries_denied: self.rec.retries_denied,
            budget_spent: self.rec.budget_spent,
            breaker_opens,
            probe_successes,
            duplicate_deliveries: self.rec.duplicate_deliveries,
        }
    }

    /// Overload/backpressure counters of this run. All zero for runs with
    /// unbounded queues and admission disabled (except `max_queue_depth`,
    /// which is always observed).
    pub fn overload_metrics(&self) -> OverloadMetrics {
        OverloadMetrics {
            prefetches_shed: self.rec.prefetches_shed,
            prefetches_throttled: self.rec.prefetches_throttled,
            demand_parked: self.rec.demand_parked,
            demand_behind_prefetch: self.rec.demand_behind_prefetch,
            cache_high_water_hits: self.rec.cache_high_water_hits,
            max_queue_depth: self.disks().max_queue_depth() as u64,
        }
    }

    /// Structural invariants the chaos soak harness checks after every
    /// event: bounded queues never exceed their bound, the in-flight
    /// counter matches the devices' queued + busy totals, the credit pool
    /// never overflows, and demand reads only park under a queue bound.
    /// Cheap — O(disks) — so it can run per event.
    pub fn check_soak_invariants(&self) -> Result<(), String> {
        let mut in_flight = 0usize;
        for (i, d) in self.disks().disks().iter().enumerate() {
            let queued = d.queued();
            if let Some(limit) = self.cfg.queue_depth {
                if queued > limit as usize {
                    return Err(format!(
                        "disk {i}: queue depth {queued} exceeds bound {limit}"
                    ));
                }
            }
            in_flight += queued + d.busy_now() as usize;
        }
        if in_flight != self.outstanding_io as usize {
            return Err(format!(
                "conservation: outstanding_io {} != queued+busy {in_flight}",
                self.outstanding_io
            ));
        }
        if self.rec.corrupt_delivered > 0 {
            return Err(format!(
                "integrity: {} corrupt block(s) delivered to readers as clean",
                self.rec.corrupt_delivered
            ));
        }
        if self.rec.duplicate_deliveries > 0 {
            return Err(format!(
                "exactly-once: {} waiter(s) woken by a delivery they were not waiting for",
                self.rec.duplicate_deliveries
            ));
        }
        if let Some(adm) = &self.admission {
            if adm.credits > adm.cfg.prefetch_credits {
                return Err(format!(
                    "credit pool overflow: {} > {}",
                    adm.credits, adm.cfg.prefetch_credits
                ));
            }
            if self.cfg.queue_depth.is_none() && adm.parked_total() != 0 {
                return Err(format!(
                    "{} demand reads parked with unbounded queues",
                    adm.parked_total()
                ));
            }
        }
        if self.crash.is_some() {
            // A dead node owns nothing: no pinned buffer, no daemon
            // action, no open lock critical section, and no parked work
            // charged to it.
            for (p, proc) in self.procs.iter().enumerate() {
                if proc.state != PState::Crashed {
                    continue;
                }
                if proc.copying_buf.is_some() {
                    return Err(format!("dead node {p} still pins a copy buffer"));
                }
                if proc.action_busy {
                    return Err(format!("dead node {p} still runs a daemon action"));
                }
                if proc.lock_cs.is_some() {
                    return Err(format!("dead node {p} still holds a lock lease"));
                }
            }
            if let Some(adm) = &self.admission {
                for q in &adm.parked {
                    for e in q {
                        if self.procs[e.who.index()].state == PState::Crashed {
                            return Err(format!(
                                "parked demand for block {} charged to dead node {}",
                                e.block.index(),
                                e.who.index()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Leak checks that only hold once the event queue has drained:
    /// every node parked in a terminal state (`Done`, or `Crashed` with
    /// no rejoin), every buffer unpinned with no fill still pending, no
    /// waiter registration left behind, the cache-lock lease expired,
    /// and no demand read still parked. The crashes sweep runs this
    /// after each scenario — a victim's unreclaimed pin, lease, or
    /// waiter entry shows up here even when the survivors finished.
    pub fn check_terminal_invariants(&self, now: SimTime) -> Result<(), String> {
        self.check_soak_invariants()?;
        for (p, proc) in self.procs.iter().enumerate() {
            if proc.state != PState::Done && proc.state != PState::Crashed {
                return Err(format!("node {p} drained in state {:?}", proc.state));
            }
            if proc.copying_buf.is_some() {
                return Err(format!("node {p} drained still pinning a copy buffer"));
            }
            if proc.action_busy {
                return Err(format!("node {p} drained inside a daemon action"));
            }
            if proc.lock_cs.is_some() {
                return Err(format!("node {p} drained holding a lock lease"));
            }
        }
        for i in 0..self.pool.config().total_buffers() {
            let b = self.pool.buffer(BufferId(i));
            if b.pins != 0 {
                return Err(format!("buffer {i} drained with {} pin(s) held", b.pins));
            }
            if matches!(b.state, BufState::Pending { .. }) {
                return Err(format!("buffer {i} drained with its fill still pending"));
            }
        }
        let leftover = self.waiters.total();
        if leftover != 0 {
            return Err(format!("{leftover} waiter registration(s) leaked"));
        }
        if self.lock.free_at() > now {
            return Err(format!(
                "cache lock still leased until {:?} at drain time {now:?}",
                self.lock.free_at()
            ));
        }
        if let Some(adm) = &self.admission {
            let parked = adm.parked_total();
            if parked != 0 {
                return Err(format!("{parked} demand read(s) still parked"));
            }
        }
        Ok(())
    }
}

impl Model for World {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        // Passive gauge sampling: piggybacks on the event already firing,
        // never schedules anything (no-op unless observation is enabled).
        self.obs_sample(sched.now());
        // No event is ever addressed to a crashed node: `crash_node`
        // cancels the victim's pending process and daemon events outright,
        // so a rejoined node can never receive a stale pre-crash event.
        match event {
            Ev::Start(p) => self.proceed_next(p.index(), sched),
            Ev::LookupDone(p) => self.lookup_done(p.index(), sched),
            Ev::MissIssue(p) => self.miss_issue(p.index(), sched),
            Ev::RetryMiss(p) => self.retry_miss(p.index(), sched),
            Ev::DiskDone(d) => self.disk_done(d, sched),
            Ev::ReadFinished(p) => self.read_finished(p.index(), sched),
            Ev::ComputeDone(p) => {
                self.procs[p.index()].pending_ev = None;
                self.procs[p.index()].state = PState::Running;
                self.proceed_next(p.index(), sched);
            }
            Ev::ActionEnd(p) => self.action_end(p.index(), sched),
            Ev::RetryIo(b) => self.retry_io(b, sched),
            Ev::IoTimeout(b) => self.io_timeout(b, sched),
            Ev::Hedge(b) => self.hedge_fire(b, sched),
            Ev::VerifyDone(b) => self.verify_done(b, sched),
            Ev::Crash(p) => self.crash_node(p.index(), sched),
            Ev::Rejoin(p) => self.rejoin_node(p.index(), sched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PrefetchConfig;
    use rt_patterns::{AccessPattern, WorkloadParams};
    use rt_sim::run;

    /// A small machine for fast unit runs.
    fn small_cfg(pattern: AccessPattern, sync: SyncStyle, prefetch: bool) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(pattern, sync);
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            fixed_portion_len: 5,
            global_fixed_portion_len: 20,
            rand_portion_min: 1,
            rand_portion_max: 10,
            global_rand_portion_min: 5,
            global_rand_portion_max: 20,
        };
        cfg.compute_mean = SimDuration::from_millis(5);
        if prefetch {
            cfg.prefetch = PrefetchConfig::paper();
        }
        cfg
    }

    fn run_world(cfg: ExperimentConfig) -> (World, SimTime) {
        let mut world = World::new(cfg);
        let mut sched = Scheduler::new();
        world.bootstrap(&mut sched);
        let out = run(&mut world, &mut sched, 20_000_000);
        assert!(!out.budget_exhausted, "runaway simulation");
        assert!(world.complete(), "processes did not all finish");
        (world, out.end_time)
    }

    #[test]
    fn gw_without_prefetch_completes_all_reads() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            false,
        ));
        assert_eq!(w.reads_done(), 200);
        assert_eq!(w.rec.reads.count(), 200);
        // Sequential disjoint reads: no hits at all.
        assert_eq!(w.pool().stats().misses, 200);
        assert_eq!(w.pool().stats().demand_fetches, 200);
        assert_eq!(w.disks().total_ops(), 200);
        w.pool().assert_invariants();
    }

    #[test]
    fn gw_with_prefetch_improves_read_time_and_hit_ratio() {
        let (base, t_base) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            false,
        ));
        let (pf, t_pf) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        assert_eq!(pf.reads_done(), 200);
        let base_hit = base.pool().stats().hit_ratio.value();
        let pf_hit = pf.pool().stats().hit_ratio.value();
        assert!(pf_hit > 0.5, "prefetch hit ratio too low: {pf_hit}");
        assert!(
            base_hit < 0.05,
            "base hit ratio unexpectedly high: {base_hit}"
        );
        assert!(
            pf.rec.reads.mean() < base.rec.reads.mean(),
            "prefetching should lower the mean read time ({} vs {})",
            pf.rec.reads.mean_millis(),
            base.rec.reads.mean_millis()
        );
        assert!(t_pf < t_base, "prefetching should shorten this run");
        assert!(pf.pool().stats().prefetches > 0);
        pf.pool().assert_invariants();
    }

    #[test]
    fn every_fetched_block_is_needed() {
        // The oracle never fetches a block that is not in the reference
        // string: disk ops equal unique block demand = 200.
        let (pf, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        let s = pf.pool().stats();
        assert_eq!(s.demand_fetches + s.prefetches, pf.disks().total_ops());
        assert_eq!(s.wasted_prefetches, 0);
        assert_eq!(
            pf.disks().total_ops(),
            200,
            "each block fetched exactly once"
        );
    }

    #[test]
    fn lw_shares_blocks_across_processes() {
        let (base, _) = run_world(small_cfg(
            AccessPattern::LocalWholeFile,
            SyncStyle::None,
            false,
        ));
        // 4 procs read the same 50 blocks: only ~50 misses, rest hits.
        assert_eq!(base.reads_done(), 200);
        let s = base.pool().stats();
        assert!(
            s.misses <= 60,
            "lw should fetch each block about once, got {} misses",
            s.misses
        );
        assert!(s.hit_ratio.value() > 0.6);
    }

    #[test]
    fn per_proc_sync_produces_barrier_episodes() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
            false,
        ));
        // 50 reads per proc, barrier every 10 reads, final one skipped
        // (string exhausted): 4 episodes.
        assert_eq!(w.barrier().episodes(), 4);
        assert!(w.barrier().sync_wait().count() > 0);
    }

    #[test]
    fn total_sync_produces_barrier_episodes() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksTotal(50),
            false,
        ));
        // 200 reads, boundary every 50: 3 boundaries hit before the end.
        assert!(
            w.barrier().episodes() >= 3,
            "episodes: {}",
            w.barrier().episodes()
        );
    }

    #[test]
    fn portion_sync_gates_global_portions() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalFixedPortions,
            SyncStyle::EachPortion,
            false,
        ));
        // 200 reads in portions of 20 -> 10 portions -> 9 transitions.
        assert_eq!(w.barrier().episodes(), 9);
    }

    #[test]
    fn portion_sync_gates_local_portions() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::LocalFixedPortions,
            SyncStyle::EachPortion,
            false,
        ));
        // 50 reads per proc in portions of 5 -> 10 portions -> 9 gates.
        assert_eq!(w.barrier().episodes(), 9);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = small_cfg(
            AccessPattern::GlobalRandomPortions,
            SyncStyle::BlocksPerProc(10),
            true,
        );
        let (a, ta) = run_world(cfg.clone());
        let (b, tb) = run_world(cfg);
        assert_eq!(ta, tb);
        assert_eq!(a.rec.reads.count(), b.rec.reads.count());
        assert_eq!(a.rec.reads.mean(), b.rec.reads.mean());
        assert_eq!(
            a.pool().stats().hit_ratio.value(),
            b.pool().stats().hit_ratio.value()
        );
        assert_eq!(a.disks().total_ops(), b.disks().total_ops());
    }

    #[test]
    fn prefetch_actions_and_overrun_are_recorded() {
        let (pf, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
            true,
        ));
        assert!(pf.rec.action_time.count() > 0, "daemon never ran");
        // Overrun may be zero in tiny runs but the accounting fields exist;
        // idle accounting must cover every wait.
        assert!(pf.rec.idle_actual.count() >= pf.rec.overrun.count());
        assert!(pf.rec.idle_actual.count() > 0);
    }

    #[test]
    fn all_six_patterns_complete_with_and_without_prefetch() {
        for pattern in AccessPattern::ALL {
            for &prefetch in &[false, true] {
                let cfg = small_cfg(pattern, SyncStyle::BlocksPerProc(10), prefetch);
                let (w, _) = run_world(cfg);
                assert_eq!(w.reads_done(), 200, "pattern {pattern} lost reads");
                w.pool().assert_invariants();
            }
        }
    }

    #[test]
    fn obl_policy_runs_and_prefetches_on_local_pattern() {
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, true);
        cfg.prefetch.policy = PolicyKind::Obl { depth: 3 };
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        // OBL tracks a locally sequential stream well enough to prefetch.
        assert!(w.pool().stats().prefetches > 0);
    }

    #[test]
    fn lw_io_bound_exercises_pinning_without_imbalance() {
        // Zero compute maximizes copy/eviction races in lw; the pinning
        // protocol must keep the accounting exact.
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, true);
        cfg.compute_mean = SimDuration::ZERO;
        let (w, _) = run_world(cfg);
        let s = w.pool().stats();
        assert_eq!(s.ready_hits + s.unready_hits + s.misses, 200);
        assert!(s.demand_fetches <= s.misses);
        assert_eq!(
            s.misses - s.demand_fetches,
            s.misses - s.demand_fetches.min(s.misses),
        );
        assert!(w.rec.alloc_retries >= s.misses - s.demand_fetches);
        w.pool().assert_invariants();
    }

    #[test]
    fn demand_priority_discipline_runs_clean() {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, true);
        cfg.discipline = rt_disk::Discipline::DemandPriority;
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        w.pool().assert_invariants();
    }

    #[test]
    fn global_lru_replacement_runs_clean() {
        let mut cfg = small_cfg(
            AccessPattern::LocalWholeFile,
            SyncStyle::BlocksPerProc(10),
            true,
        );
        cfg.replacement = rt_cache::Replacement::GlobalLru;
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        w.pool().assert_invariants();
    }

    #[test]
    fn portion_learner_policy_prefetches_on_lfp() {
        let mut cfg = small_cfg(AccessPattern::LocalFixedPortions, SyncStyle::None, true);
        cfg.prefetch =
            crate::config::PrefetchConfig::online(PolicyKind::PortionLearner { confidence: 2 });
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        assert!(
            w.pool().stats().prefetches > 0,
            "the learner should detect the regular portions and prefetch"
        );
    }

    #[test]
    fn tracing_records_every_read_in_world() {
        let cfg = small_cfg(
            AccessPattern::GlobalFixedPortions,
            SyncStyle::BlocksPerProc(10),
            true,
        );
        let mut world = World::new(cfg);
        world.enable_tracing();
        let mut sched = Scheduler::new();
        world.bootstrap(&mut sched);
        let out = run(&mut world, &mut sched, 20_000_000);
        assert!(!out.budget_exhausted);
        let trace = world.take_trace().expect("tracing enabled");
        assert_eq!(trace.len(), 200);
        // Completion order is time-sorted by construction.
        assert!(trace
            .events()
            .windows(2)
            .all(|w| w[0].completed <= w[1].completed));
    }

    #[test]
    fn barrier_departures_release_stragglers_under_portion_sync() {
        // lrp portions differ per process, so some processes exhaust their
        // strings while others still gate on portion barriers; dynamic
        // membership must prevent deadlock.
        let (w, _) = run_world(small_cfg(
            AccessPattern::LocalRandomPortions,
            SyncStyle::EachPortion,
            true,
        ));
        assert_eq!(w.reads_done(), 200);
        assert_eq!(w.barrier().departed(), 4);
    }

    #[test]
    fn min_lead_reduces_unready_hits_for_gw() {
        let mut near = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, true);
        near.prefetch.min_lead = 0;
        let mut led = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, true);
        led.prefetch.min_lead = 12;
        let (w_near, _) = run_world(near);
        let (w_led, _) = run_world(led);
        let hw_near = w_near.rec.hit_wait.mean();
        let hw_led = w_led.rec.hit_wait.mean();
        assert!(
            hw_led <= hw_near,
            "lead should not lengthen hit-wait ({} vs {})",
            hw_led.as_millis_f64(),
            hw_near.as_millis_f64()
        );
        // And the miss ratio rises, as in Fig. 14.
        assert!(w_led.pool().stats().hit_ratio.value() <= w_near.pool().stats().hit_ratio.value());
    }

    /// A config that actually stresses device queues: four processes
    /// hammering two disks with little compute between reads.
    fn overload_cfg(prefetch: bool) -> ExperimentConfig {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, prefetch);
        cfg.disks = 2;
        cfg.compute_mean = SimDuration::from_micros(500);
        cfg
    }

    #[test]
    fn defaults_leave_overload_layer_inert() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        assert!(w.admission.is_none(), "no admission state by default");
        let m = w.overload_metrics();
        assert_eq!(m.prefetches_shed, 0);
        assert_eq!(m.prefetches_throttled, 0);
        assert_eq!(m.demand_parked, 0);
        assert_eq!(m.demand_behind_prefetch, 0);
        assert_eq!(m.cache_high_water_hits, 0);
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn bounded_queue_respects_depth_and_still_finishes() {
        let mut cfg = overload_cfg(true);
        cfg.queue_depth = Some(1);
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        assert!(w.overload_metrics().max_queue_depth <= 1);
        // Contention on two disks with a depth-1 queue must have pushed
        // back somewhere: a shed prefetch or a parked demand read.
        let m = w.overload_metrics();
        assert!(
            m.prefetches_shed + m.demand_parked > 0,
            "expected backpressure under a depth-1 bound: {m:?}"
        );
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn admission_throttles_prefetch_and_finishes() {
        let mut cfg = overload_cfg(true);
        cfg.queue_depth = Some(2);
        cfg.admission = crate::admission::AdmissionConfig::on(2);
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let m = w.overload_metrics();
        assert!(
            m.prefetches_throttled > 0,
            "a 2-credit pool over 2 hot disks should throttle: {m:?}"
        );
        let adm = w.admission.as_ref().unwrap();
        assert!(adm.credits <= 2, "credit pool overflowed: {}", adm.credits);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    /// A corrupt window of probability `prob` on every disk, for the
    /// whole run, with `replicas` extra copies of the file.
    fn corrupt_cfg(prob: f64, replicas: u16, prefetch: bool) -> ExperimentConfig {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, prefetch);
        cfg.faults.replicas = replicas;
        for d in 0..cfg.disks {
            cfg.faults.plan.push(rt_disk::DeviceFault {
                disk: DiskId(d),
                kind: rt_disk::FaultKind::Corrupt { probability: prob },
                from: SimTime::ZERO,
                until: None,
            });
        }
        cfg
    }

    #[test]
    fn defaults_leave_integrity_layer_inert() {
        let (w, end) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        assert!(w.integrity.is_none(), "no integrity state by default");
        assert!(w.faults.is_none(), "no fault state by default");
        assert_eq!(
            w.integrity_metrics(end),
            crate::metrics::IntegrityMetrics::default()
        );
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn corruption_is_detected_and_repaired_never_delivered() {
        let (w, end) = run_world(corrupt_cfg(0.25, 1, true));
        assert_eq!(w.reads_done(), 200);
        let m = w.integrity_metrics(end);
        assert!(m.corruptions > 0, "{m:?}");
        assert!(m.detections > 0, "{m:?}");
        assert!(m.repairs > 0, "no read-repair happened: {m:?}");
        assert_eq!(m.corrupt_delivered, 0, "{m:?}");
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn unrepairable_corruption_poisons_with_typed_errors() {
        // No replicas: a corrupt primary is unrepairable, so nearly every
        // block poisons. Reads must fail with the typed error — recorded,
        // never delivered corrupt, never panicking — and the run still
        // terminates with every access consumed.
        let (w, end) = run_world(corrupt_cfg(0.95, 0, false));
        assert_eq!(w.reads_done(), 200);
        assert_eq!(w.rec.reads.count(), 200, "failed reads must be recorded");
        let m = w.integrity_metrics(end);
        assert!(m.poisoned_blocks > 0, "{m:?}");
        assert!(m.failed_reads > 0, "{m:?}");
        assert_eq!(m.corrupt_delivered, 0, "{m:?}");
        assert_eq!(m.repairs, 0, "no replicas to repair from");
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn scrubber_runs_in_idle_time_and_detects_corruption() {
        let mut cfg = corrupt_cfg(0.3, 1, false);
        cfg.integrity.scrub = true;
        cfg.integrity.scrub_interval = SimDuration::from_micros(100);
        let (w, end) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let m = w.integrity_metrics(end);
        assert!(m.scrubbed > 0, "scrubber never ran: {m:?}");
        assert!(m.scrub_detections > 0, "{m:?}");
        assert_eq!(m.corrupt_delivered, 0, "{m:?}");
        // Scrub actions are daemon actions: they were accounted.
        assert!(w.rec.action_time.count() > 0);
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn scrub_on_defaults_changes_nothing_without_corruption() {
        // Scrubbing a clean file costs I/O but must not change what the
        // readers observe: same reads, no detections, nothing poisoned.
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        cfg.integrity.scrub = true;
        let (w, end) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let m = w.integrity_metrics(end);
        assert!(m.scrubbed > 0);
        assert_eq!(m.detections, 0);
        assert_eq!(m.scrub_detections, 0);
        assert_eq!(m.poisoned_blocks, 0);
        assert_eq!(m.corrupt_delivered, 0);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn corrupt_device_is_quarantined_and_run_survives() {
        // One sick device among four, with a replica to steer to: the
        // corruption EWMA must quarantine it and the run must finish with
        // clean deliveries only.
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        cfg.faults.replicas = 1;
        cfg.faults.plan.push(rt_disk::DeviceFault {
            disk: DiskId(0),
            kind: rt_disk::FaultKind::Corrupt { probability: 0.95 },
            from: SimTime::ZERO,
            until: None,
        });
        let (w, end) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let m = w.integrity_metrics(end);
        assert!(m.quarantines >= 1, "{m:?}");
        assert!(m.quarantined_time > SimDuration::ZERO, "{m:?}");
        assert!(m.repairs > 0, "{m:?}");
        assert_eq!(m.corrupt_delivered, 0, "{m:?}");
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn verify_only_runs_pay_the_checksum_cost_but_stay_clean() {
        // Forced verification without any corruption: every fill pays
        // verify_cost, nothing is detected, and the run is slower than
        // the unverified baseline but otherwise equivalent.
        let base = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        let mut verified = base.clone();
        verified.integrity.verify = true;
        let (w_base, t_base) = run_world(base);
        let (w_ver, t_ver) = run_world(verified);
        assert_eq!(w_ver.reads_done(), w_base.reads_done());
        let m = w_ver.integrity_metrics(t_ver);
        assert_eq!(m.detections, 0);
        assert_eq!(m.corrupt_delivered, 0);
        assert!(
            t_ver > t_base,
            "checksum verification must cost simulated time ({t_ver:?} vs {t_base:?})"
        );
    }

    #[test]
    fn bounded_base_run_parks_without_admission_state_confusion() {
        // queue_depth alone (admission disabled) must still complete and
        // never issue credits-path accounting.
        let mut cfg = overload_cfg(false);
        cfg.queue_depth = Some(1);
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let m = w.overload_metrics();
        assert_eq!(m.prefetches_shed, 0, "no prefetches exist to shed");
        assert_eq!(m.prefetches_throttled, 0);
        w.check_soak_invariants().unwrap();
    }

    // ------------------------------------------------------------------
    // Node crashes.
    // ------------------------------------------------------------------

    fn crash_spec(node: u16, at_ms: u64, rejoin_ms: Option<u64>) -> crate::faults::CrashSpec {
        crate::faults::CrashSpec {
            node,
            at: SimTime::from_nanos(at_ms * 1_000_000),
            rejoin: rejoin_ms.map(|ms| SimTime::from_nanos(ms * 1_000_000)),
        }
    }

    #[test]
    fn defaults_leave_crash_layer_inert() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        assert!(w.crash.is_none(), "no crash state by default");
        assert_eq!(w.crash_metrics(), crate::metrics::CrashMetrics::default());
    }

    #[test]
    fn crash_without_rejoin_survivors_finish_the_file() {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        cfg.faults.crashes.push(crash_spec(1, 50, None));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.rejoins, 0);
        assert!(m.lost_reads <= 1, "{m:?}");
        // Global string: the survivors drain the shared cursor, so only
        // the victim's in-flight read (if any) is lost.
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert_eq!(w.procs[1].state, PState::Crashed);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn crash_and_rejoin_resumes_the_local_portion() {
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, false);
        cfg.faults.crashes.push(crash_spec(1, 30, Some(120)));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.rejoins, 1);
        assert!(m.lost_reads <= 1, "{m:?}");
        // Local strings: the rejoiner picks its cursor back up, so every
        // access except the one lost in flight completes.
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert!(w.procs.iter().all(|p| p.state == PState::Done));
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn cascading_crashes_still_terminate() {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, true);
        cfg.faults.crashes.push(crash_spec(1, 40, None));
        cfg.faults.crashes.push(crash_spec(2, 60, None));
        cfg.faults.crashes.push(crash_spec(3, 80, None));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 3);
        assert!(m.lost_reads <= 3, "{m:?}");
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert_eq!(w.procs[0].state, PState::Done);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn crash_in_miss_critical_section_resubmits_for_waiting_survivors() {
        // LocalWholeFile: every node reads block 0 first, so the lock
        // serializes the lookups (300us each) and node 0 — first to miss —
        // reserves the demand buffer and sits in its miss critical section
        // over (1200us, 2200us) while nodes 1..3 queue behind the Pending
        // buffer as unready hits. Crashing node 0 at 2ms therefore kills
        // it after the reservation but before the fetch reaches a disk
        // queue: the orphaned fetch must be submitted on behalf of a
        // survivor, or nodes 1..3 wait on a buffer that never fills.
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, false);
        cfg.faults.crashes.push(crash_spec(0, 2, None));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.orphaned_ios, 1, "{m:?}");
        assert_eq!(m.lost_reads, 1, "{m:?}");
        assert!(
            w.procs.iter().skip(1).all(|p| p.state == PState::Done),
            "survivors must finish despite the orphaned reservation"
        );
        assert_eq!(w.reads_done() + m.lost_reads + w.abandoned_reads(), 200);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn crash_shrinks_barrier_membership_so_survivors_never_deadlock() {
        // Without membership reclamation the first barrier after the
        // crash would wait for the dead node forever.
        let mut cfg = small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
            false,
        );
        cfg.faults.crashes.push(crash_spec(2, 100, None));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert!(w.barrier().episodes() > 0);
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn rejoiner_fast_forwards_sync_gates() {
        // A node that slept through barrier boundaries must not try to
        // retroactively synchronize; the run completes with the rejoiner
        // back in the rotation.
        let mut cfg = small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksTotal(50),
            false,
        );
        cfg.faults.crashes.push(crash_spec(3, 60, Some(400)));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 1);
        assert_eq!(m.rejoins, 1);
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert!(w.procs.iter().all(|p| p.state == PState::Done));
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn crash_reclaims_what_the_victim_held() {
        // Many staggered crash/rejoin cycles across a prefetching run:
        // whatever mix of states the victims die in, nothing leaks —
        // the soak invariants hold and the pool's pin accounting closes.
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, true);
        cfg.faults.crashes.push(crash_spec(0, 25, Some(200)));
        cfg.faults.crashes.push(crash_spec(1, 50, Some(250)));
        cfg.faults.crashes.push(crash_spec(2, 75, Some(300)));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 3);
        assert_eq!(m.rejoins, 3);
        assert_eq!(w.reads_done() + m.lost_reads, 200);
        assert!(w.procs.iter().all(|p| p.state == PState::Done));
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn crash_under_corruption_never_delivers_corrupt_data() {
        let mut cfg = corrupt_cfg(0.25, 1, true);
        cfg.faults.crashes.push(crash_spec(1, 50, Some(150)));
        let (w, end) = run_world(cfg);
        let cm = w.crash_metrics();
        assert_eq!(cm.crashes, 1);
        assert_eq!(cm.rejoins, 1);
        let m = w.integrity_metrics(end);
        assert!(m.detections > 0, "{m:?}");
        assert_eq!(m.corrupt_delivered, 0, "{m:?}");
        assert_eq!(w.reads_done() + cm.lost_reads, 200);
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn crash_after_done_and_double_entries_are_noops() {
        // The victim finishes its 50-block portion long before 1.9s; the
        // crash then finds a Done process and must change nothing, and
        // its rejoin finds nothing dead.
        let mut cfg = small_cfg(AccessPattern::LocalWholeFile, SyncStyle::None, true);
        cfg.faults.crashes.push(crash_spec(1, 1_900, Some(1_950)));
        let (w, _) = run_world(cfg);
        let m = w.crash_metrics();
        assert_eq!(m.crashes, 0);
        assert_eq!(m.rejoins, 0);
        assert_eq!(m.lost_reads, 0);
        assert_eq!(w.reads_done(), 200);
    }

    // ------------------------------------------------------------------
    // Tail tolerance: hedged reads, retry budgets, circuit breakers.
    // ------------------------------------------------------------------

    /// A straggled disk 0 (x8 for the whole run) with one replica and a
    /// demand-read timeout — the canonical tail scenario.
    fn straggler_cfg(prefetch: bool) -> ExperimentConfig {
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, prefetch);
        cfg.faults.replicas = 1;
        cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
        cfg.faults.plan.push(rt_disk::DeviceFault {
            disk: DiskId(0),
            kind: rt_disk::FaultKind::Slowdown { factor: 8.0 },
            from: SimTime::ZERO,
            until: None,
        });
        cfg
    }

    #[test]
    fn defaults_leave_tail_layer_inert() {
        let (w, _) = run_world(small_cfg(
            AccessPattern::GlobalWholeFile,
            SyncStyle::None,
            true,
        ));
        let t = w.tail_metrics();
        assert_eq!(t, crate::metrics::TailMetrics::default());
        assert_eq!(w.rec.hedged_read_times.count(), 0);
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn hedge_beats_the_timeout_on_a_straggled_fetch() {
        // The straggled primary holds a fetch for ~240 ms; the timeout
        // would redirect at 150 ms, but a 40 ms hedge delay launches the
        // duplicate first, and the duplicate (a 30 ms disk) wins the
        // race. The loser is cancelled or absorbed — never delivered
        // twice — and the tail of the read distribution shrinks.
        let timeout_only = straggler_cfg(false);
        let mut hedged = straggler_cfg(false);
        hedged.faults.hedge.delay = Some(SimDuration::from_millis(40));
        let (w_base, _) = run_world(timeout_only);
        let (w, _) = run_world(hedged);
        assert_eq!(w.reads_done(), 200);
        let t = w.tail_metrics();
        assert!(t.hedges_launched > 0, "{t:?}");
        assert!(
            t.hedge_wins > 0,
            "straggled fetches lose to their hedges: {t:?}"
        );
        assert_eq!(t.duplicate_deliveries, 0, "{t:?}");
        assert_eq!(
            t.hedge_wins + t.hedge_wasted,
            t.hedges_launched,
            "every hedge resolves exactly once: {t:?}"
        );
        assert!(
            w.rec.hedged_read_times.count() > 0,
            "hedged reads are sampled separately"
        );
        // Winning at ~70 ms instead of redirecting at 150 ms must cut
        // the straggler-bound tail and the timeout count.
        assert!(
            w.rec.timeouts < w_base.rec.timeouts,
            "hedges resolve fetches before their timeouts ({} vs {})",
            w.rec.timeouts,
            w_base.rec.timeouts
        );
        let p99 = |rec: &rt_sim::Sampled| {
            rec.quantile(0.99)
                .unwrap_or(SimDuration::ZERO)
                .as_millis_f64()
        };
        assert!(
            p99(&w.rec.read_times) <= p99(&w_base.rec.read_times),
            "hedged p99 {:.2} ms must not exceed timeout-only p99 {:.2} ms",
            p99(&w.rec.read_times),
            p99(&w_base.rec.read_times)
        );
        w.check_soak_invariants().unwrap();
        w.pool().assert_invariants();
    }

    #[test]
    fn exhausted_retry_budget_denies_hedges_and_waits_patiently() {
        let mut cfg = straggler_cfg(false);
        cfg.faults.hedge.delay = Some(SimDuration::from_millis(40));
        cfg.faults.budget.capacity = Some(1);
        cfg.faults.budget.refill = 0.001;
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200, "patience still finishes the run");
        let t = w.tail_metrics();
        assert!(t.retries_denied > 0, "a 1-token bucket must deny: {t:?}");
        assert_eq!(t.duplicate_deliveries, 0);
        // The spend bound: initial capacity plus what completions could
        // have refilled.
        let bound = 1.0 + 0.001 * w.disks().total_ops() as f64;
        assert!(
            (t.budget_spent as f64) <= bound,
            "budget_spent {} exceeds bound {bound:.2}",
            t.budget_spent
        );
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn breaker_opens_on_an_outage_and_probes_readmit() {
        // Disk 0 errors every request in [20 ms, 400 ms). Two errors
        // open its breaker (threshold 0.5); once open, demand selection
        // routes to the replica without waiting to fail. After the hold,
        // half-open probes re-admit the device once it answers again.
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        cfg.faults.replicas = 1;
        cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
        cfg.faults.breaker.enabled = true;
        cfg.faults.breaker.error_threshold = 0.5;
        cfg.faults.plan.push(rt_disk::DeviceFault {
            disk: DiskId(0),
            kind: rt_disk::FaultKind::Outage,
            from: SimTime::from_nanos(20 * 1_000_000),
            until: Some(SimTime::from_nanos(400 * 1_000_000)),
        });
        let (w, _) = run_world(cfg);
        assert_eq!(w.reads_done(), 200);
        let t = w.tail_metrics();
        assert!(t.breaker_opens > 0, "{t:?}");
        assert!(
            t.probe_successes > 0,
            "the repaired disk is re-admitted: {t:?}"
        );
        w.check_soak_invariants().unwrap();
    }

    #[test]
    fn demand_retry_daemon_and_scrubber_share_replica_avoidance() {
        // Satellite regression: every replica selector consults the one
        // `healthy_replica` / `HealthTracker::avoid` predicate, so an
        // open breaker steers the demand path, the retry rotation, and
        // the prefetch daemon identically.
        let mut cfg = small_cfg(AccessPattern::GlobalWholeFile, SyncStyle::None, false);
        cfg.faults.replicas = 1;
        cfg.faults.breaker.enabled = true;
        cfg.faults.breaker.error_threshold = 0.5;
        let mut w = World::new(cfg);
        let mut sched = Scheduler::new();
        w.bootstrap(&mut sched);
        let now = SimTime::from_nanos(1_000_000);
        // Closed breaker: block 0's primary (disk 0) is used everywhere.
        assert_eq!(w.pick_demand_replica(BlockId(0), now), 0);
        assert!(!w.prefetch_target_degraded(BlockId(0), now));
        // Two timeouts push disk 0's error EWMA over the threshold.
        let f = w.faults.as_mut().expect("breaker config activates faults");
        f.health.observe_timeout(DiskId(0), now);
        f.health.observe_timeout(DiskId(0), now);
        assert!(f.health.avoid(DiskId(0), now));
        // Open breaker: demand picks the replica, retry rotation lands
        // on it too, and the daemon refuses to prefetch into disk 0.
        assert_eq!(w.pick_demand_replica(BlockId(0), now), 1);
        assert_eq!(w.healthy_replica(BlockId(0), 0, now), 1);
        assert!(w.prefetch_target_degraded(BlockId(0), now));
        // Blocks whose primary is healthy are untouched.
        assert_eq!(w.pick_demand_replica(BlockId(1), now), 0);
        assert!(!w.prefetch_target_degraded(BlockId(1), now));
    }
}
