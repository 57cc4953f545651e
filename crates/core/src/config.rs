//! Experiment configuration: machine geometry, cost model, workload, and
//! prefetching parameters (§IV-D of the paper).

use crate::admission::AdmissionConfig;
use crate::faults::FaultConfig;
use crate::integrity::IntegrityConfig;
use rt_cache::Replacement;
use rt_disk::{Discipline, FaultKind};
use rt_fs::Striping;
use rt_patterns::{AccessPattern, SyncStyle, WorkloadParams};
use rt_sim::SimDuration;
use std::fmt;

/// Time costs of file-system operations on the simulated NUMA machine.
///
/// The paper's testbed ran on real Butterfly Plus hardware; the absolute
/// costs below are calibrated so the derived quantities land in the ranges
/// the paper reports (prefetch actions averaging 3–31 ms including lock
/// contention, overruns of 1–25 ms, ready-hit read times well under the
/// 30 ms disk time). All shared-structure operations hold one global
/// simulated lock, so their *effective* costs grow under contention exactly
/// as the paper describes (§V-D: remote references and memory contention
/// made the initial implementation slow).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Lock hold time for the lookup on the read path (hash probe in
    /// shared memory).
    pub lookup_overhead: SimDuration,
    /// Additional lock hold time on a miss: RU-set manipulation, buffer
    /// allocation, and enqueuing the disk request — the "several accesses
    /// to data structures in slower remote shared memory" of §V-D. When a
    /// block was prefetched, this work happened off the critical path
    /// during idle time, which is where prefetching's per-request saving
    /// comes from even when the disks are saturated.
    pub miss_overhead: SimDuration,
    /// Copying one block from a buffer on the requesting node.
    pub copy_local: SimDuration,
    /// Copying one block from a remote node's buffer (NUMA penalty).
    pub copy_remote: SimDuration,
    /// Lock hold time for one prefetch action that finds a candidate
    /// (block selection + buffer location + I/O initiation).
    pub action_hold: SimDuration,
    /// Lock hold time for a prefetch action that finds nothing to do
    /// (selection only).
    pub action_fail_hold: SimDuration,
}

impl CostModel {
    /// Costs calibrated against the paper's reported ranges.
    pub fn paper() -> Self {
        CostModel {
            lookup_overhead: SimDuration::from_micros(300),
            miss_overhead: SimDuration::from_micros(1000),
            copy_local: SimDuration::from_micros(500),
            copy_remote: SimDuration::from_micros(800),
            action_hold: SimDuration::from_micros(1200),
            action_fail_hold: SimDuration::from_micros(500),
        }
    }
}

/// How the prefetcher chooses blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's optimistic oracle: the reference string is supplied in
    /// advance; the policy never fetches a block that is not needed, but
    /// respects feasibility limits (no prefetching past an unestablished
    /// random portion).
    Oracle,
    /// Extension: on-the-fly one-block lookahead from each process's
    /// locally observed stream, generalized to `depth` blocks.
    Obl {
        /// How many successor blocks one observation predicts.
        depth: u32,
    },
    /// Extension: on-the-fly portion learner (detects fixed portion length
    /// and stride before predicting across boundaries).
    PortionLearner {
        /// Completed portions that must agree before extrapolating.
        confidence: u32,
    },
}

/// Prefetching parameters.
#[derive(Clone, Copy, Debug)]
pub struct PrefetchConfig {
    /// Master switch. When off, the cache has only the per-node RU-set
    /// buffers and no prefetch activity occurs.
    pub enabled: bool,
    /// Prefetch buffers per node (the paper uses 3).
    pub buffers_per_proc: u16,
    /// Global cap on prefetched-but-unused blocks, per node (the paper
    /// uses 3, i.e. 60 for 20 nodes).
    pub global_cap_per_proc: u16,
    /// Minimum prefetch lead (§V-E): do not select blocks closer than this
    /// many string positions ahead of the demand frontier, relaxed near the
    /// end of the string. Zero disables the restriction.
    pub min_lead: u32,
    /// Minimum prefetch time (§V-D): do not start an action when the
    /// estimated remaining idle time is below this. Zero disables.
    pub min_action_time: SimDuration,
    /// Block-selection policy.
    pub policy: PolicyKind,
    /// Allow evicting prefetched-but-unused blocks. The paper's oracle
    /// never errs, so it protects them; fallible on-line predictors need
    /// the relaxation or their wrong guesses permanently wedge the
    /// prefetch partition.
    pub evict_unused: bool,
}

impl PrefetchConfig {
    /// Prefetching disabled (the paper's base case).
    pub fn disabled() -> Self {
        PrefetchConfig {
            enabled: false,
            buffers_per_proc: 0,
            global_cap_per_proc: 0,
            min_lead: 0,
            min_action_time: SimDuration::ZERO,
            policy: PolicyKind::Oracle,
            evict_unused: false,
        }
    }

    /// The paper's prefetching configuration: oracle policy, 3 buffers per
    /// node, global cap of 3 per node, no lead, no minimum action time.
    pub fn paper() -> Self {
        PrefetchConfig {
            enabled: true,
            buffers_per_proc: 3,
            global_cap_per_proc: 3,
            min_lead: 0,
            min_action_time: SimDuration::ZERO,
            policy: PolicyKind::Oracle,
            evict_unused: false,
        }
    }

    /// A configuration for on-line predictor policies: like
    /// [`PrefetchConfig::paper`] but with the given policy and the
    /// unused-prefetch eviction relaxation that fallible predictors need.
    pub fn online(policy: PolicyKind) -> Self {
        PrefetchConfig {
            policy,
            evict_unused: true,
            ..PrefetchConfig::paper()
        }
    }
}

/// A complete experiment description. Two runs with equal configs produce
/// identical results.
#[derive(Clone, Debug)]
pub struct ExperimentConfig {
    /// Processor count (one user process per node). The paper uses 20.
    pub procs: u16,
    /// Disk count (one per node in the paper).
    pub disks: u16,
    /// Disk queue discipline (the paper: FCFS; demand-priority is an
    /// extension ablation).
    pub discipline: Discipline,
    /// How the workload file is laid out (the paper: interleaved round-
    /// robin over all disks; contiguous-on-one-disk is the traditional
    /// baseline that motivates parallel I/O in §II).
    pub striping: Striping,
    /// Workload geometry (file size, total reads, portion shapes).
    pub workload: WorkloadParams,
    /// Which of the six access patterns to run.
    pub pattern: AccessPattern,
    /// Synchronization style.
    pub sync: SyncStyle,
    /// Mean of the exponential per-block computation delay. The paper uses
    /// 30 ms (10 ms for `lw`) in balanced runs and 0 in I/O-bound runs.
    pub compute_mean: SimDuration,
    /// Demand (RU-set) buffers per node. The paper uses 1.
    pub ru_set_size: u16,
    /// Demand-buffer replacement policy (the paper: per-processor RU sets;
    /// global LRU is an extension ablation).
    pub replacement: Replacement,
    /// Prefetching parameters.
    pub prefetch: PrefetchConfig,
    /// Cost model.
    pub costs: CostModel,
    /// Fault-injection scenario ([`FaultConfig::none`] by default — with
    /// an empty plan the run is event-for-event identical to a build
    /// without the fault subsystem).
    pub faults: FaultConfig,
    /// Bound on each device queue's waiting requests (`None` — the
    /// default — keeps the paper's unbounded queues). When set,
    /// submissions past the bound are rejected: a rejected demand read
    /// sheds a queued prefetch or parks until the device drains; a
    /// rejected prefetch is dropped.
    pub queue_depth: Option<u32>,
    /// Prefetch admission controller ([`AdmissionConfig::off`] by
    /// default — a disabled controller is event-for-event identical to a
    /// build without the admission subsystem).
    pub admission: AdmissionConfig,
    /// Data-integrity behaviour: checksum verification at fill, the
    /// idle-time scrubber, and the device quarantine lifecycle. The
    /// default is inert; verification is forced on whenever the fault
    /// plan schedules a corrupt window.
    pub integrity: IntegrityConfig,
    /// Master random seed.
    pub seed: u64,
}

/// An inconsistency in an [`ExperimentConfig`], found by
/// [`ExperimentConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `procs == 0`.
    NoProcessors,
    /// `disks == 0`.
    NoDisks,
    /// The workload's processor count differs from the machine's.
    WorkloadProcMismatch {
        /// Machine processor count.
        machine: u16,
        /// Workload processor count.
        workload: u16,
    },
    /// `ru_set_size == 0`.
    NoRuSet,
    /// The synchronization style cannot be used with the access pattern
    /// (the paper's `lw` pattern has no portion boundaries to sync on).
    InvalidSync {
        /// The offending pattern.
        pattern: AccessPattern,
        /// The offending style.
        sync: SyncStyle,
    },
    /// Prefetching is enabled but no prefetch buffers are configured.
    NoPrefetchBuffers,
    /// A fault plan entry names a disk the machine does not have.
    FaultDiskOutOfRange {
        /// The disk named by the plan entry.
        disk: u16,
        /// The machine's disk count.
        disks: u16,
    },
    /// A flaky-fault probability is outside `[0, 1)`.
    InvalidFaultProbability(f64),
    /// A straggler slowdown factor is not positive.
    InvalidSlowdownFactor(f64),
    /// An outage never repairs and the file has no replicas to redirect
    /// to: every read of the dead device's blocks would retry forever.
    UnrecoverableOutage {
        /// The permanently dead disk.
        disk: u16,
    },
    /// Replication requires the interleaved layout (replicas are rotated
    /// interleaves).
    ReplicasNeedInterleaving,
    /// `queue_depth` is `Some(0)`: a zero-depth queue could never accept
    /// a second request while one is in service.
    ZeroQueueDepth,
    /// Admission is enabled with zero prefetch credits: the daemon could
    /// never prefetch at all (disable prefetching instead).
    ZeroPrefetchCredits,
    /// Admission is enabled with a cache high-water mark that is not a
    /// positive finite fraction.
    InvalidCacheHighWater(f64),
    /// The quarantine EWMA smoothing factor is outside `(0, 1]`.
    InvalidQuarantineAlpha(f64),
    /// The quarantine threshold is not a positive finite value.
    InvalidQuarantineThreshold(f64),
    /// A crash spec names a node the machine does not have.
    CrashNodeOutOfRange {
        /// The node named by the crash spec.
        node: u16,
        /// The machine's processor count.
        procs: u16,
    },
    /// A crash spec's rejoin time is not after its crash time.
    CrashRejoinNotAfter {
        /// The offending node.
        node: u16,
    },
    /// Two crash specs name the same node (one crash per node keeps the
    /// schedule unambiguous — a rejoined node stays up).
    DuplicateCrashNode {
        /// The node crashed twice.
        node: u16,
    },
    /// The hedge delay is zero: every demand fetch would duplicate
    /// immediately, doubling load instead of trimming the tail.
    ZeroHedgeDelay,
    /// The adaptive hedge multiplier is not > 1.0 (hedging below the
    /// typical service time duplicates nearly every fetch).
    InvalidHedgeMultiplier(f64),
    /// Hedging is configured but the file has no replicas to hedge to.
    HedgeNeedsReplicas,
    /// The retry-budget refill fraction is outside `(0, 1]`.
    InvalidBudgetRefill(f64),
    /// The retry-budget capacity is zero: no retry or hedge could ever
    /// launch (disable the timeout/hedge instead).
    ZeroBudgetCapacity,
    /// The breaker EWMA smoothing factor is outside `(0, 1]`.
    InvalidBreakerAlpha(f64),
    /// The breaker error threshold is not in `(0, 1]` (the error EWMA
    /// never exceeds 1, so a larger threshold could never trip).
    InvalidBreakerThreshold(f64),
    /// A breaker window (hold or half-open) is zero: the lifecycle would
    /// degenerate (a zero hold never skips, a zero half-open never
    /// probes).
    ZeroBreakerWindow,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoProcessors => write!(f, "need at least one processor"),
            ConfigError::NoDisks => write!(f, "need at least one disk"),
            ConfigError::WorkloadProcMismatch { machine, workload } => write!(
                f,
                "workload and machine disagree on processor count \
                 (machine {machine}, workload {workload})"
            ),
            ConfigError::NoRuSet => write!(f, "each node needs an RU set"),
            ConfigError::InvalidSync { pattern, sync } => write!(
                f,
                "synchronization style invalid for this pattern (lw + portion): \
                 {pattern} with {sync}"
            ),
            ConfigError::NoPrefetchBuffers => {
                write!(f, "prefetching enabled without prefetch buffers")
            }
            ConfigError::FaultDiskOutOfRange { disk, disks } => write!(
                f,
                "fault plan names disk {disk} but the machine has {disks} disks"
            ),
            ConfigError::InvalidFaultProbability(p) => {
                write!(f, "flaky fault probability {p} outside [0, 1)")
            }
            ConfigError::InvalidSlowdownFactor(x) => {
                write!(f, "straggler slowdown factor {x} must be > 0")
            }
            ConfigError::UnrecoverableOutage { disk } => write!(
                f,
                "disk {disk} fails forever and the file has no replicas: \
                 reads of its blocks could never complete"
            ),
            ConfigError::ReplicasNeedInterleaving => {
                write!(f, "file replication requires interleaved striping")
            }
            ConfigError::ZeroQueueDepth => {
                write!(f, "queue depth bound must be at least 1")
            }
            ConfigError::ZeroPrefetchCredits => {
                write!(f, "admission enabled with zero prefetch credits")
            }
            ConfigError::InvalidCacheHighWater(x) => {
                write!(
                    f,
                    "cache high-water mark {x} must be a positive finite fraction"
                )
            }
            ConfigError::InvalidQuarantineAlpha(x) => {
                write!(f, "quarantine EWMA alpha {x} outside (0, 1]")
            }
            ConfigError::InvalidQuarantineThreshold(x) => {
                write!(f, "quarantine threshold {x} must be positive and finite")
            }
            ConfigError::CrashNodeOutOfRange { node, procs } => write!(
                f,
                "crash spec names node {node} but the machine has {procs} processors"
            ),
            ConfigError::CrashRejoinNotAfter { node } => {
                write!(f, "node {node}'s rejoin time must be after its crash time")
            }
            ConfigError::DuplicateCrashNode { node } => {
                write!(f, "node {node} is scheduled to crash more than once")
            }
            ConfigError::ZeroHedgeDelay => {
                write!(f, "hedge delay must be positive")
            }
            ConfigError::InvalidHedgeMultiplier(x) => {
                write!(f, "hedge multiplier {x} must be finite and > 1.0")
            }
            ConfigError::HedgeNeedsReplicas => {
                write!(f, "hedged reads need at least one replica to hedge to")
            }
            ConfigError::InvalidBudgetRefill(x) => {
                write!(f, "retry-budget refill fraction {x} outside (0, 1]")
            }
            ConfigError::ZeroBudgetCapacity => {
                write!(f, "retry-budget capacity must be at least 1")
            }
            ConfigError::InvalidBreakerAlpha(x) => {
                write!(f, "breaker EWMA alpha {x} outside (0, 1]")
            }
            ConfigError::InvalidBreakerThreshold(x) => {
                write!(f, "breaker error threshold {x} outside (0, 1]")
            }
            ConfigError::ZeroBreakerWindow => {
                write!(f, "breaker hold and half-open windows must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ExperimentConfig {
    /// The paper's configuration for a given pattern and synchronization
    /// style, with prefetching **disabled** (flip `prefetch` to enable):
    /// 20 processors, 20 disks, 30 ms disks, 2000-block file, 2000 total
    /// reads, balanced compute (30 ms mean; 10 ms for `lw`).
    pub fn paper_default(pattern: AccessPattern, sync: SyncStyle) -> Self {
        let compute = if pattern == AccessPattern::LocalWholeFile {
            SimDuration::from_millis(10)
        } else {
            SimDuration::from_millis(30)
        };
        ExperimentConfig {
            procs: 20,
            disks: 20,
            discipline: Discipline::Fifo,
            striping: Striping::Interleaved,
            workload: WorkloadParams::paper(),
            pattern,
            sync,
            compute_mean: compute,
            ru_set_size: 1,
            replacement: Replacement::RuSet,
            prefetch: PrefetchConfig::disabled(),
            costs: CostModel::paper(),
            faults: FaultConfig::none(),
            queue_depth: None,
            admission: AdmissionConfig::off(),
            integrity: IntegrityConfig::default(),
            seed: 0x5241_5049_4454,
        }
    }

    /// The same configuration with zero compute per block (the paper's
    /// I/O-bound endpoint of the workload spectrum).
    pub fn paper_io_bound(pattern: AccessPattern, sync: SyncStyle) -> Self {
        ExperimentConfig {
            compute_mean: SimDuration::ZERO,
            ..Self::paper_default(pattern, sync)
        }
    }

    /// The §V-E lead-sweep configuration: local patterns read the whole
    /// file per process (40 000 total reads); global patterns keep the grid
    /// shape. `min_lead` is set on the prefetch config.
    pub fn paper_lead(pattern: AccessPattern, min_lead: u32) -> Self {
        let mut cfg = Self::paper_default(pattern, SyncStyle::BlocksPerProc(10));
        if pattern.is_local() {
            cfg.workload = WorkloadParams::paper_lead_local();
        }
        cfg.prefetch = PrefetchConfig {
            min_lead,
            ..PrefetchConfig::paper()
        };
        cfg
    }

    /// A short human-readable label for reports.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}ms{}",
            self.pattern,
            self.sync,
            self.compute_mean.as_millis_f64(),
            if self.prefetch.enabled { "/pf" } else { "" }
        )
    }

    /// Sanity-check the configuration.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.procs == 0 {
            return Err(ConfigError::NoProcessors);
        }
        if self.disks == 0 {
            return Err(ConfigError::NoDisks);
        }
        if self.workload.procs != self.procs {
            return Err(ConfigError::WorkloadProcMismatch {
                machine: self.procs,
                workload: self.workload.procs,
            });
        }
        if self.ru_set_size == 0 {
            return Err(ConfigError::NoRuSet);
        }
        if !self.sync.valid_for(self.pattern) {
            return Err(ConfigError::InvalidSync {
                pattern: self.pattern,
                sync: self.sync,
            });
        }
        if self.prefetch.enabled && self.prefetch.buffers_per_proc == 0 {
            return Err(ConfigError::NoPrefetchBuffers);
        }
        if self.faults.replicas > 0 && self.striping != Striping::Interleaved {
            return Err(ConfigError::ReplicasNeedInterleaving);
        }
        if self.queue_depth == Some(0) {
            return Err(ConfigError::ZeroQueueDepth);
        }
        if self.admission.enabled {
            if self.admission.prefetch_credits == 0 {
                return Err(ConfigError::ZeroPrefetchCredits);
            }
            let hw = self.admission.cache_high_water;
            if !(hw.is_finite() && hw > 0.0) {
                return Err(ConfigError::InvalidCacheHighWater(hw));
            }
        }
        for entry in self.faults.plan.entries() {
            if entry.disk.0 >= self.disks {
                return Err(ConfigError::FaultDiskOutOfRange {
                    disk: entry.disk.0,
                    disks: self.disks,
                });
            }
            match entry.kind {
                FaultKind::Flaky { probability } | FaultKind::Corrupt { probability }
                    if !(0.0..1.0).contains(&probability) =>
                {
                    return Err(ConfigError::InvalidFaultProbability(probability));
                }
                FaultKind::Slowdown { factor } if !(factor.is_finite() && factor > 0.0) => {
                    return Err(ConfigError::InvalidSlowdownFactor(factor));
                }
                FaultKind::Outage if entry.until.is_none() && self.faults.replicas == 0 => {
                    return Err(ConfigError::UnrecoverableOutage { disk: entry.disk.0 });
                }
                _ => {}
            }
        }
        let mut crashed_nodes = Vec::new();
        for spec in self.faults.crashes.entries() {
            if spec.node >= self.procs {
                return Err(ConfigError::CrashNodeOutOfRange {
                    node: spec.node,
                    procs: self.procs,
                });
            }
            if spec.rejoin.is_some_and(|r| r <= spec.at) {
                return Err(ConfigError::CrashRejoinNotAfter { node: spec.node });
            }
            if crashed_nodes.contains(&spec.node) {
                return Err(ConfigError::DuplicateCrashNode { node: spec.node });
            }
            crashed_nodes.push(spec.node);
        }
        if self.integrity.active_with(&self.faults.plan) {
            let q = self.integrity.quarantine;
            if !(q.alpha.is_finite() && q.alpha > 0.0 && q.alpha <= 1.0) {
                return Err(ConfigError::InvalidQuarantineAlpha(q.alpha));
            }
            if !(q.threshold.is_finite() && q.threshold > 0.0) {
                return Err(ConfigError::InvalidQuarantineThreshold(q.threshold));
            }
        }
        if let Some(delay) = self.faults.hedge.delay {
            if delay == SimDuration::ZERO {
                return Err(ConfigError::ZeroHedgeDelay);
            }
            let m = self.faults.hedge.multiplier;
            if !(m.is_finite() && m > 1.0) {
                return Err(ConfigError::InvalidHedgeMultiplier(m));
            }
            if self.faults.replicas == 0 {
                return Err(ConfigError::HedgeNeedsReplicas);
            }
        }
        if let Some(capacity) = self.faults.budget.capacity {
            if capacity == 0 {
                return Err(ConfigError::ZeroBudgetCapacity);
            }
            let r = self.faults.budget.refill;
            if !(r.is_finite() && r > 0.0 && r <= 1.0) {
                return Err(ConfigError::InvalidBudgetRefill(r));
            }
        }
        if self.faults.breaker.enabled {
            let b = self.faults.breaker;
            if !(b.alpha.is_finite() && b.alpha > 0.0 && b.alpha <= 1.0) {
                return Err(ConfigError::InvalidBreakerAlpha(b.alpha));
            }
            if !(b.error_threshold.is_finite()
                && b.error_threshold > 0.0
                && b.error_threshold <= 1.0)
            {
                return Err(ConfigError::InvalidBreakerThreshold(b.error_threshold));
            }
            if b.hold == SimDuration::ZERO || b.half_open == SimDuration::ZERO {
                return Err(ConfigError::ZeroBreakerWindow);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = ExperimentConfig::paper_default(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
        );
        assert_eq!(c.procs, 20);
        assert_eq!(c.disks, 20);
        assert_eq!(c.workload.total_reads, 2000);
        assert_eq!(c.compute_mean, SimDuration::from_millis(30));
        assert!(!c.prefetch.enabled);
        c.validate().unwrap();
    }

    #[test]
    fn lw_uses_10ms_compute() {
        let c = ExperimentConfig::paper_default(AccessPattern::LocalWholeFile, SyncStyle::None);
        assert_eq!(c.compute_mean, SimDuration::from_millis(10));
    }

    #[test]
    fn io_bound_has_zero_compute() {
        let c = ExperimentConfig::paper_io_bound(AccessPattern::GlobalWholeFile, SyncStyle::None);
        assert_eq!(c.compute_mean, SimDuration::ZERO);
    }

    #[test]
    fn lead_config_scales_local_patterns() {
        let c = ExperimentConfig::paper_lead(AccessPattern::LocalFixedPortions, 30);
        assert_eq!(c.workload.total_reads, 40_000);
        assert_eq!(c.prefetch.min_lead, 30);
        assert!(c.prefetch.enabled);
        let g = ExperimentConfig::paper_lead(AccessPattern::GlobalWholeFile, 30);
        assert_eq!(g.workload.total_reads, 2000);
    }

    #[test]
    fn validate_rejects_lw_portion_sync() {
        let err =
            ExperimentConfig::paper_default(AccessPattern::LocalWholeFile, SyncStyle::EachPortion)
                .validate()
                .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidSync { .. }));
        assert!(err.to_string().contains("lw + portion"));
    }

    #[test]
    fn validate_rejects_bufferless_prefetch() {
        let mut c =
            ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);
        c.prefetch.enabled = true;
        c.prefetch.buffers_per_proc = 0;
        let err = c.validate().unwrap_err();
        assert_eq!(err, ConfigError::NoPrefetchBuffers);
        assert!(err.to_string().contains("without prefetch buffers"));
    }

    #[test]
    fn validate_rejects_mismatched_workload() {
        let mut c =
            ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);
        c.procs = 16;
        let err = c.validate().unwrap_err();
        assert!(matches!(
            err,
            ConfigError::WorkloadProcMismatch {
                machine: 16,
                workload: 20
            }
        ));
    }

    #[test]
    fn validate_checks_fault_plan() {
        use crate::faults::parse_fault_specs;
        let base = ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);

        let mut c = base.clone();
        c.faults.plan = parse_fault_specs("straggler:25:x4").unwrap();
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::FaultDiskOutOfRange {
                disk: 25,
                disks: 20
            }
        ));

        // A never-repaired outage needs a replica to redirect to.
        let mut c = base.clone();
        c.faults.plan = parse_fault_specs("fail:3@5s").unwrap();
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::UnrecoverableOutage { disk: 3 }
        ));
        c.faults.replicas = 1;
        c.validate().unwrap();

        // Replication requires the interleaved layout.
        let mut c = base.clone();
        c.faults.replicas = 1;
        c.striping = Striping::OnDisk(0);
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::ReplicasNeedInterleaving
        );

        // A repairing outage is fine without replicas.
        let mut c = base;
        c.faults.plan = parse_fault_specs("fail:3@5s-9s").unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn validate_checks_crash_plan() {
        use crate::faults::parse_all_fault_specs;
        let base = ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);

        let mut c = base.clone();
        c.faults.crashes = parse_all_fault_specs("crash:20@1s").unwrap().1;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::CrashNodeOutOfRange {
                node: 20,
                procs: 20
            }
        ));

        let mut c = base.clone();
        c.faults.crashes = parse_all_fault_specs("crash:3@1s, crash:3@2s").unwrap().1;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::DuplicateCrashNode { node: 3 }
        );

        // The parser already orders rejoin after crash; validate re-checks
        // hand-built plans.
        let mut c = base.clone();
        let mut crashes = crate::faults::CrashPlan::none();
        crashes.push(crate::faults::CrashSpec {
            node: 5,
            at: rt_sim::SimTime::ZERO + SimDuration::from_secs(2),
            rejoin: Some(rt_sim::SimTime::ZERO + SimDuration::from_secs(1)),
        });
        c.faults.crashes = crashes;
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::CrashRejoinNotAfter { node: 5 }
        );

        let mut c = base;
        c.faults.crashes = parse_all_fault_specs("crash:3@1s:rejoin@2s, crash:7@500ms")
            .unwrap()
            .1;
        c.validate().unwrap();
    }

    #[test]
    fn validate_checks_overload_knobs() {
        let base = ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);
        assert!(base.queue_depth.is_none());
        assert!(!base.admission.enabled);

        let mut c = base.clone();
        c.queue_depth = Some(0);
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroQueueDepth);
        c.queue_depth = Some(1);
        c.validate().unwrap();

        let mut c = base.clone();
        c.admission = crate::admission::AdmissionConfig::on(0);
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroPrefetchCredits);

        let mut c = base;
        c.admission = crate::admission::AdmissionConfig::on(8);
        c.admission.cache_high_water = f64::NAN;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidCacheHighWater(_)
        ));
        c.admission.cache_high_water = 0.9;
        c.validate().unwrap();
    }

    #[test]
    fn validate_checks_tail_knobs() {
        use crate::faults::{BreakerConfig, HedgeConfig, RetryBudgetConfig};
        let base = ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);

        // Hedge: needs a positive delay, a sane multiplier, and replicas.
        let mut c = base.clone();
        c.faults.hedge.delay = Some(SimDuration::ZERO);
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroHedgeDelay);
        c.faults.hedge = HedgeConfig {
            delay: Some(SimDuration::from_millis(60)),
            multiplier: 1.0,
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidHedgeMultiplier(_)
        ));
        c.faults.hedge.multiplier = 2.0;
        assert_eq!(c.validate().unwrap_err(), ConfigError::HedgeNeedsReplicas);
        c.faults.replicas = 1;
        c.validate().unwrap();

        // Budget: capacity >= 1, refill in (0, 1].
        let mut c = base.clone();
        c.faults.budget.capacity = Some(0);
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroBudgetCapacity);
        c.faults.budget = RetryBudgetConfig {
            capacity: Some(8),
            refill: 0.0,
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidBudgetRefill(_)
        ));
        c.faults.budget.refill = 0.25;
        c.validate().unwrap();

        // Breaker: alpha and threshold in (0, 1], positive windows.
        let mut c = base;
        c.faults.breaker = BreakerConfig {
            enabled: true,
            alpha: 0.0,
            ..BreakerConfig::default()
        };
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidBreakerAlpha(_)
        ));
        c.faults.breaker.alpha = 0.3;
        c.faults.breaker.error_threshold = 1.5;
        assert!(matches!(
            c.validate().unwrap_err(),
            ConfigError::InvalidBreakerThreshold(_)
        ));
        c.faults.breaker.error_threshold = 0.6;
        c.faults.breaker.hold = SimDuration::ZERO;
        assert_eq!(c.validate().unwrap_err(), ConfigError::ZeroBreakerWindow);
        c.faults.breaker.hold = SimDuration::from_millis(200);
        c.validate().unwrap();
    }

    #[test]
    fn label_mentions_prefetch() {
        let mut c =
            ExperimentConfig::paper_default(AccessPattern::GlobalWholeFile, SyncStyle::None);
        assert!(!c.label().contains("/pf"));
        c.prefetch = PrefetchConfig::paper();
        assert!(c.label().contains("/pf"));
    }
}
