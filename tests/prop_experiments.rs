//! Property tests over randomly drawn experiment configurations: any
//! machine shape × pattern × synchronization × prefetch setting must
//! complete, balance its accounting, and stay within physical bounds.

use proptest::prelude::*;

use rapid_transit::core::experiment::run_experiment;
use rapid_transit::core::faults::{parse_fault_spec, CrashSpec};
use rapid_transit::core::world::generate_workload;
use rapid_transit::core::{AdmissionConfig, RunMetrics, World};
use rapid_transit::core::{ExperimentConfig, PolicyKind, PrefetchConfig};
use rapid_transit::patterns::{AccessPattern, SyncStyle, WorkloadParams};
use rapid_transit::sim::engine::run;
use rapid_transit::sim::{Scheduler, SimDuration, SimTime};

fn pattern_strategy() -> impl Strategy<Value = AccessPattern> {
    prop::sample::select(AccessPattern::ALL.to_vec())
}

fn sync_strategy() -> impl Strategy<Value = SyncStyle> {
    prop_oneof![
        Just(SyncStyle::None),
        (2u32..20).prop_map(SyncStyle::BlocksPerProc),
        (10u32..100).prop_map(SyncStyle::BlocksTotal),
        Just(SyncStyle::EachPortion),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Oracle),
        (1u32..5).prop_map(|depth| PolicyKind::Obl { depth }),
        (1u32..4).prop_map(|confidence| PolicyKind::PortionLearner { confidence }),
    ]
}

prop_compose! {
    fn config_strategy()(
        procs in 2u16..8,
        blocks_per_proc in 10u32..60,
        pattern in pattern_strategy(),
        sync in sync_strategy(),
        compute_ms in 0u64..20,
        prefetch_on in any::<bool>(),
        bufs in 1u16..5,
        lead in 0u32..30,
        policy in policy_strategy(),
        seed in any::<u64>(),
    ) -> ExperimentConfig {
        let sync = if sync.valid_for(pattern) { sync } else { SyncStyle::None };
        // Keep the portion geometry consistent with the machine size:
        // lfp needs reads_per_proc to be whole portions; gfp needs the
        // file to be a whole number of 2L stretches.
        let len = 5;
        let total = procs as u32 * (blocks_per_proc - blocks_per_proc % len).max(len);
        let global_len = total / 10 / (2 * len) * len + len; // small but valid
        let file = total;
        let mut cfg = ExperimentConfig::paper_default(pattern, sync);
        cfg.procs = procs;
        cfg.disks = procs;
        cfg.workload = WorkloadParams {
            procs,
            file_blocks: file,
            total_reads: total,
            fixed_portion_len: len,
            global_fixed_portion_len: global_len,
            rand_portion_min: 1,
            rand_portion_max: 8.min(file),
            global_rand_portion_min: 2,
            global_rand_portion_max: 16.min(file),
        };
        cfg.compute_mean = SimDuration::from_millis(compute_ms);
        cfg.seed = seed;
        if prefetch_on {
            cfg.prefetch = PrefetchConfig {
                buffers_per_proc: bufs,
                global_cap_per_proc: bufs,
                min_lead: lead,
                policy,
                ..PrefetchConfig::paper()
            };
        }
        cfg
    }
}

/// gfp requires `file % 2L == 0`; fix up configs that drew a bad geometry.
fn fixup(mut cfg: ExperimentConfig) -> ExperimentConfig {
    if cfg.pattern == AccessPattern::GlobalFixedPortions {
        let l = cfg.workload.global_fixed_portion_len.max(1);
        let stretch = 2 * l;
        let file = (cfg.workload.file_blocks / stretch).max(1) * stretch;
        cfg.workload.file_blocks = file;
        cfg.workload.total_reads = file;
        // total_reads must divide evenly among procs.
        let per = (file / cfg.procs as u32).max(1);
        cfg.workload.total_reads = per * cfg.procs as u32;
        if cfg.workload.total_reads != file {
            // Fall back to a geometry that satisfies both constraints.
            let per_proc = stretch;
            cfg.workload.file_blocks = per_proc * cfg.procs as u32;
            cfg.workload.total_reads = cfg.workload.file_blocks;
        }
    }
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    #[test]
    fn any_config_completes_and_balances(cfg in config_strategy()) {
        let cfg = fixup(cfg);
        let m = run_experiment(&cfg);
        prop_assert_eq!(m.total_reads(), cfg.workload.total_reads as u64);
        prop_assert_eq!(m.ready_hits + m.unready_hits + m.misses, m.total_reads());
        // A miss whose allocation spun on pinned buffers can be rescued by
        // another process's fetch, so fetches may lag misses by at most the
        // number of retries.
        prop_assert!(m.demand_fetches <= m.misses);
        prop_assert!(m.misses - m.demand_fetches <= m.alloc_retries);
        prop_assert_eq!(m.disk_ops, m.demand_fetches + m.prefetches);
        prop_assert!(m.hit_ratio >= 0.0 && m.hit_ratio <= 1.0);
        prop_assert_eq!(m.proc_finish.len(), cfg.procs as usize);
        // Physical bound: the run cannot beat perfect disk parallelism.
        // total_time ends at the last *read*, but prefetches in flight or
        // queued at that instant complete afterwards and must not be
        // charged. Each unfinished prefetch holds a prefetch buffer, so at
        // most procs * buffers_per_proc disk ops can outlive the run.
        let tail_cap = if cfg.prefetch.enabled {
            cfg.procs as u64 * cfg.prefetch.buffers_per_proc as u64
        } else {
            0
        };
        let charged = m.disk_ops.saturating_sub(tail_cap);
        let min_ms = (charged as f64 * 30.0) / cfg.disks as f64;
        prop_assert!(
            m.total_time.as_millis_f64() >= min_ms * 0.99,
            "total {} ms beats the disk bound {} ms (cfg {:?})",
            m.total_time.as_millis_f64(), min_ms, cfg
        );
    }

    #[test]
    fn runs_are_reproducible(cfg in config_strategy()) {
        let cfg = fixup(cfg);
        let a = run_experiment(&cfg);
        let b = run_experiment(&cfg);
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.ready_hits, b.ready_hits);
        prop_assert_eq!(a.unready_hits, b.unready_hits);
        prop_assert_eq!(a.misses, b.misses);
        prop_assert_eq!(a.disk_ops, b.disk_ops);
    }

    /// Node-crash robustness: any random crash/rejoin plan, layered over
    /// any machine shape × pattern × prefetch setting and optionally over
    /// device faults and bounded admission, must drain its event queue,
    /// leak nothing (lock leases, buffer pins, waiter registrations,
    /// parked demand), close its read accounting against the generated
    /// workload, and remain deterministic.
    #[test]
    fn crashed_runs_terminate_reclaim_and_balance(
        cfg in config_strategy(),
        plan in prop::collection::vec(
            (any::<u16>(), 1u64..600, prop::option::of(1u64..600)),
            1..4,
        ),
        overload in any::<bool>(),
        faulty in any::<bool>(),
    ) {
        let mut cfg = fixup(cfg);
        if overload {
            cfg.queue_depth = Some(2);
            cfg.admission = AdmissionConfig::on(2);
        }
        if faulty {
            parse_fault_spec(&mut cfg.faults.plan, "straggler:0:x4").unwrap();
        }
        // Sanitize the drawn plan into a valid one: distinct nodes that
        // exist on the machine, rejoins strictly after their crash.
        let mut used = std::collections::BTreeSet::new();
        for (node, at_ms, rejoin_after_ms) in plan {
            let node = node % cfg.procs;
            if !used.insert(node) {
                continue;
            }
            cfg.faults.crashes.push(CrashSpec {
                node,
                at: SimTime::from_nanos(at_ms * 1_000_000),
                rejoin: rejoin_after_ms
                    .map(|d| SimTime::from_nanos((at_ms + d) * 1_000_000)),
            });
        }
        prop_assert!(cfg.validate().is_ok(), "sanitized plan invalid: {:?}", cfg.faults.crashes);

        let expected = generate_workload(&cfg).total_reads() as u64;
        let first = drain_crashed(&cfg);
        match &first {
            Ok(v) => prop_assert_eq!(
                v.completed + v.lost + v.abandoned,
                expected,
                "read accounting open: {:?} (cfg {:?})",
                v,
                cfg
            ),
            Err(e) => prop_assert!(false, "{} (cfg {:?})", e, cfg),
        }
        // Crash handling must not perturb determinism: the identical
        // config replays to the identical drain.
        let second = drain_crashed(&cfg);
        prop_assert_eq!(first, second);
    }

    /// Tail-tolerance robustness: any combination of hedging, retry
    /// budget, and circuit breakers, layered over any machine shape ×
    /// pattern × prefetch setting and optionally over device faults, a
    /// node crash, and bounded admission, must deliver every block
    /// exactly once, keep budget spend within the bucket bound, stay
    /// inert where unconfigured, and remain deterministic.
    #[test]
    fn tail_tolerant_runs_stay_exactly_once_and_deterministic(
        cfg in config_strategy(),
        hedge in any::<bool>(),
        budget in prop::option::of((1u32..8, 1u32..50)),
        breaker in any::<bool>(),
        faulty in any::<bool>(),
        crash in prop::option::of((any::<u16>(), 1u64..400, prop::option::of(1u64..400))),
        overload in any::<bool>(),
    ) {
        let mut cfg = fixup(cfg);
        if overload {
            cfg.queue_depth = Some(2);
            cfg.admission = AdmissionConfig::on(2);
        }
        if faulty {
            parse_fault_spec(&mut cfg.faults.plan, "straggler:0:x4").unwrap();
        }
        if let Some((node, at_ms, rejoin_after_ms)) = crash {
            cfg.faults.crashes.push(CrashSpec {
                node: node % cfg.procs,
                at: SimTime::from_nanos(at_ms * 1_000_000),
                rejoin: rejoin_after_ms
                    .map(|d| SimTime::from_nanos((at_ms + d) * 1_000_000)),
            });
        }
        // Any tail knob needs somewhere to steer: mirror once and arm
        // the demand timeout that drives hedging and breaker feedback.
        if hedge || budget.is_some() || breaker {
            cfg.faults.replicas = 1;
            cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
        }
        if hedge {
            cfg.faults.hedge.delay = Some(SimDuration::from_millis(40));
        }
        if let Some((cap, refill_pct)) = budget {
            cfg.faults.budget.capacity = Some(cap);
            cfg.faults.budget.refill = refill_pct as f64 / 100.0;
        }
        if breaker {
            cfg.faults.breaker.enabled = true;
            cfg.faults.breaker.error_threshold = 0.5;
        }
        prop_assert!(cfg.validate().is_ok(), "config invalid: {:?}", cfg);

        let m = run_experiment(&cfg);
        // Exactly-once delivery is the hedging layer's core promise.
        prop_assert_eq!(m.tail.duplicate_deliveries, 0, "cfg {:?}", cfg);
        // Every hedge resolves as a win or a waste (or was orphaned by a
        // crash); each resolution cancels at most one queued loser.
        prop_assert!(m.tail.hedge_wins + m.tail.hedge_wasted <= m.tail.hedges_launched);
        prop_assert!(m.tail.hedge_cancels <= m.tail.hedge_wins + m.tail.hedge_wasted);
        // Unconfigured slices of the layer must stay inert.
        if !hedge {
            prop_assert_eq!(m.tail.hedges_launched, 0);
        }
        if budget.is_none() {
            prop_assert_eq!(m.tail.retries_denied, 0);
            prop_assert_eq!(m.tail.budget_spent, 0);
        }
        if !breaker {
            prop_assert_eq!(m.tail.breaker_opens, 0);
            prop_assert_eq!(m.tail.probe_successes, 0);
        }
        // Token-bucket bound: spend never exceeds the initial capacity
        // plus what successful completions refilled.
        if let Some((cap, _)) = budget {
            let bound = cap as f64 + cfg.faults.budget.refill * m.disk_ops as f64;
            prop_assert!(
                m.tail.budget_spent as f64 <= bound + 1e-9,
                "budget_spent {} exceeds bucket bound {} (cfg {:?})",
                m.tail.budget_spent, bound, cfg
            );
        }
        // The tail layer must not perturb determinism.
        let again = run_experiment(&cfg);
        prop_assert_eq!(fingerprint(&again), fingerprint(&m));
        prop_assert_eq!(&again.tail, &m.tail);
        prop_assert_eq!(again.hedged_read_times.count(), m.hedged_read_times.count());
    }
}

/// Everything that pins a crashed run: completion counters, crash
/// accounting, and the exact drain time.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CrashDrain {
    completed: u64,
    lost: u64,
    abandoned: u64,
    crashes: u64,
    rejoins: u64,
    reclaimed: u64,
    end_ns: u64,
}

/// Run `cfg` to queue drain and apply every terminal invariant the
/// crashes sweep enforces; returns the drain fingerprint.
fn drain_crashed(cfg: &ExperimentConfig) -> Result<CrashDrain, String> {
    let mut world = World::new(cfg.clone());
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let out = run(&mut world, &mut sched, 50_000_000);
    if out.budget_exhausted {
        return Err(format!("event budget exhausted at {:?}", out.end_time));
    }
    if !world.complete() {
        return Err("event queue drained before the run completed".into());
    }
    world.check_terminal_invariants(sched.now())?;
    let c = world.crash_metrics();
    Ok(CrashDrain {
        completed: world.reads_done(),
        lost: c.lost_reads,
        abandoned: world.abandoned_reads(),
        crashes: c.crashes,
        rejoins: c.rejoins,
        reclaimed: c.reclaimed_locks + c.reclaimed_pins + c.reclaimed_waiters,
        end_ns: out.end_time.as_nanos(),
    })
}

/// The fields that pin a run bit-for-bit: exact simulated durations plus
/// every accounting counter.
fn fingerprint(m: &RunMetrics) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    (
        m.total_time.as_nanos(),
        m.reads.total().as_nanos(),
        m.ready_hits,
        m.unready_hits,
        m.misses,
        m.disk_ops,
        m.prefetches,
        m.barriers,
    )
}
