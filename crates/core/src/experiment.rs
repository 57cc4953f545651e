//! Experiment execution: single runs, prefetch-vs-base pairs, the paper's
//! full grid, a thread-parallel sweep runner, and a run handle that splits
//! set-up from the event loop.

use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::{run, run_with_stats, Scheduler};

pub use crate::config::ExperimentConfig;

use crate::config::PrefetchConfig;
use crate::metrics::{RunMetrics, RunPair};
use crate::world::{Ev, World};

/// Backstop on events per run; real experiments use a few hundred thousand.
const MAX_EVENTS: u64 = 500_000_000;

/// Run one experiment to completion and collect its metrics.
pub fn run_experiment(cfg: &ExperimentConfig) -> RunMetrics {
    let (metrics, _, _) = run_with_world(cfg, false, false);
    metrics
}

/// Run one experiment with access tracing enabled, returning the metrics
/// and the exact access pattern for off-line analysis (§IV-C).
pub fn run_experiment_traced(cfg: &ExperimentConfig) -> (RunMetrics, crate::trace::Trace) {
    let (metrics, trace, _) = run_with_world(cfg, true, false);
    (metrics, trace.expect("tracing was enabled"))
}

/// Host-side performance counters for one experiment run.
#[derive(Clone, Copy, Debug)]
pub struct RunPerf {
    /// Events the engine dispatched.
    pub events: u64,
    /// Host wall-clock time spent in the event loop.
    pub wall: std::time::Duration,
    /// Largest number of simultaneously pending events.
    pub peak_pending: usize,
    /// Events whose FIFO lane could not take them in time order and went
    /// to the event heap instead (see `rt_sim::Laned`).
    pub lane_fallbacks: u64,
}

impl RunPerf {
    /// Events dispatched per host-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.events as f64 / secs
        }
    }
}

/// Run one experiment and report how fast the host simulated it alongside
/// the simulated metrics. The metrics are identical to [`run_experiment`]'s.
pub fn run_experiment_instrumented(cfg: &ExperimentConfig) -> (RunMetrics, RunPerf) {
    let (metrics, _, perf) = run_with_world(cfg, false, true);
    (metrics, perf.expect("instrumentation was enabled"))
}

/// Run one experiment with telemetry recording enabled, returning the
/// metrics alongside the recorded [`ObsData`] (spans, instants, and epoch
/// gauge series). Recording is inert: the metrics are bit-identical to
/// [`run_experiment`]'s (see `tests/obs_inert.rs`).
pub fn run_experiment_observed(
    cfg: &ExperimentConfig,
    obs: crate::world::ObsConfig,
) -> (RunMetrics, crate::world::ObsData) {
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    let mut world = World::with_workload(cfg.clone(), workload);
    world.enable_obs(obs);
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let outcome = run(&mut world, &mut sched, MAX_EVENTS);
    assert!(
        !outcome.budget_exhausted,
        "simulation exceeded the event budget: {}",
        cfg.label()
    );
    assert!(world.complete(), "simulation drained without finishing");
    let metrics = collect_metrics(&mut world, outcome.end_time);
    let data = world.take_obs().expect("observation was enabled");
    (metrics, data)
}

fn run_with_world(
    cfg: &ExperimentConfig,
    traced: bool,
    instrumented: bool,
) -> (RunMetrics, Option<crate::trace::Trace>, Option<RunPerf>) {
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    run_shared_world(cfg, workload, traced, instrumented)
}

fn run_shared_world(
    cfg: &ExperimentConfig,
    workload: std::sync::Arc<rt_patterns::Workload>,
    traced: bool,
    instrumented: bool,
) -> (RunMetrics, Option<crate::trace::Trace>, Option<RunPerf>) {
    let mut world = World::with_workload(cfg.clone(), workload);
    if traced {
        world.enable_tracing();
    }
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let (outcome, perf) = if instrumented {
        let stats = run_with_stats(&mut world, &mut sched, MAX_EVENTS);
        (
            stats.outcome,
            Some(RunPerf {
                events: stats.outcome.events,
                wall: stats.wall,
                peak_pending: stats.peak_pending,
                lane_fallbacks: sched.lane_fallbacks(),
            }),
        )
    } else {
        (run(&mut world, &mut sched, MAX_EVENTS), None)
    };
    assert!(
        !outcome.budget_exhausted,
        "simulation exceeded the event budget: {}",
        cfg.label()
    );
    assert!(world.complete(), "simulation drained without finishing");

    let metrics = collect_metrics(&mut world, outcome.end_time);
    let trace = world.take_trace();
    (metrics, trace, perf)
}

/// Assemble the run's [`RunMetrics`] from a completed world. The sample
/// reservoirs are moved out rather than copied: every caller drops the
/// world right after.
fn collect_metrics(world: &mut World, end_time: rt_sim::SimTime) -> RunMetrics {
    use std::mem::take;
    let rec = &mut world.rec;
    let read_times = take(&mut rec.read_times);
    let disk_response_times = take(&mut rec.disk_responses);
    let hit_wait = take(&mut rec.hit_wait);
    let hedged_read_times = take(&mut rec.hedged_read_times);
    let world = &*world;
    let cfg = world.cfg();
    let pool_stats = world.pool().stats().clone();
    let disks = world.disks();
    let finish = world.finish_times();
    let total_time = finish
        .iter()
        .copied()
        .max()
        .expect("at least one process")
        .saturating_since(rt_sim::SimTime::ZERO);

    RunMetrics {
        total_time,
        proc_finish: finish.clone(),
        reads: world.rec.reads.clone(),
        read_times,
        disk_response_times,
        hit_ratio: pool_stats.hit_ratio.value(),
        ready_hits: pool_stats.ready_hits,
        unready_hits: pool_stats.unready_hits,
        misses: pool_stats.misses,
        hit_wait,
        disk_response: disks.response(),
        disk_ops: disks.total_ops(),
        disk_utilization: disks.mean_utilization(end_time),
        demand_fetches: pool_stats.demand_fetches,
        prefetches: pool_stats.prefetches,
        sync_wait: world.barrier().sync_wait().clone(),
        barriers: world.barrier().episodes(),
        action_time: world.rec.action_time.clone(),
        failed_actions: world.rec.empty_actions + world.rec.blocked_actions,
        overrun: world.rec.overrun.clone(),
        idle_necessary: world.rec.idle_necessary.clone(),
        idle_actual: world.rec.idle_actual.clone(),
        lock_wait: world.lock().wait().clone(),
        alloc_retries: world.rec.alloc_retries,
        per_proc: (0..cfg.procs as usize)
            .map(|p| crate::metrics::ProcMetrics {
                reads: world.rec.proc_reads[p].clone(),
                hits: world.rec.proc_hits[p],
                prefetches_issued: world.rec.proc_prefetches[p],
                finish: finish[p],
            })
            .collect(),
        faults: world.fault_metrics(end_time),
        overload: world.overload_metrics(),
        integrity: world.integrity_metrics(end_time),
        crash: world.crash_metrics(),
        tail: world.tail_metrics(),
        hedged_read_times,
    }
}

/// An experiment whose world is built and bootstrapped by
/// [`start`](RunHandle::start) and run to completion by
/// [`finish`](RunHandle::finish), so callers can time set-up and the event
/// loop separately. The metrics equal [`run_experiment`]'s.
pub struct RunHandle {
    world: World,
    sched: Scheduler<Ev>,
}

impl RunHandle {
    /// Build the world for `cfg` and schedule its initial events.
    pub fn start(cfg: &ExperimentConfig) -> Self {
        let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
        Self::start_shared(cfg, workload)
    }

    /// Like [`start`](RunHandle::start) around an already-generated
    /// workload (which must equal `generate_workload(cfg)`).
    pub fn start_shared(
        cfg: &ExperimentConfig,
        workload: std::sync::Arc<rt_patterns::Workload>,
    ) -> Self {
        let world = World::with_workload(cfg.clone(), workload);
        let mut sched = Scheduler::new();
        world.bootstrap(&mut sched);
        RunHandle { world, sched }
    }

    /// Run to completion and collect the metrics.
    pub fn finish(mut self) -> RunMetrics {
        let out = run(&mut self.world, &mut self.sched, MAX_EVENTS);
        assert!(
            !out.budget_exhausted,
            "simulation exceeded the event budget"
        );
        assert!(
            self.world.complete(),
            "simulation drained without finishing"
        );
        collect_metrics(&mut self.world, out.end_time)
    }
}

/// Run the same configuration with prefetching off and on (the paper's
/// base/prefetch comparison). The base run uses the identical seed and
/// workload; only the cache partitioning and daemon differ — so the
/// reference string is generated once and shared between the two runs.
pub fn run_pair(cfg: &ExperimentConfig) -> RunPair {
    let mut base_cfg = cfg.clone();
    base_cfg.prefetch = PrefetchConfig::disabled();
    let mut pf_cfg = cfg.clone();
    if !pf_cfg.prefetch.enabled {
        pf_cfg.prefetch = PrefetchConfig::paper();
    }
    // The workload depends only on seed/pattern/geometry, which the two
    // halves share.
    let workload = std::sync::Arc::new(crate::world::generate_workload(cfg));
    let (base, _, _) = run_shared_world(&base_cfg, workload.clone(), false, false);
    let (prefetch, _, _) = run_shared_world(&pf_cfg, workload, false, false);
    RunPair {
        label: cfg.label(),
        base,
        prefetch,
    }
}

/// Enumerate the paper's experiment grid (§IV-D): six patterns × four
/// synchronization styles (portion sync excluded for `lw`) × two I/O
/// intensities (balanced and I/O-bound). 46 configurations.
pub fn paper_grid() -> Vec<ExperimentConfig> {
    let mut grid = Vec::new();
    for pattern in AccessPattern::ALL {
        for sync in SyncStyle::PAPER {
            if !sync.valid_for(pattern) {
                continue;
            }
            grid.push(ExperimentConfig::paper_default(pattern, sync));
            grid.push(ExperimentConfig::paper_io_bound(pattern, sync));
        }
    }
    grid
}

/// Run `configs` as base/prefetch pairs across `threads` worker threads.
/// Results return in input order; each run is internally deterministic so
/// the parallelism never affects the numbers. A panic in any run resurfaces
/// on the caller.
pub fn run_pairs_parallel(configs: &[ExperimentConfig], threads: usize) -> Vec<RunPair> {
    assert!(threads > 0);
    crate::sweeps::parallel_map(configs, threads, run_pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_patterns::WorkloadParams;
    use rt_sim::SimDuration;

    fn small(pattern: AccessPattern, sync: SyncStyle) -> ExperimentConfig {
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
        cfg
    }

    #[test]
    fn run_experiment_accounts_every_read() {
        let m = run_experiment(&small(AccessPattern::GlobalWholeFile, SyncStyle::None));
        assert_eq!(m.total_reads(), 200);
        assert_eq!(m.ready_hits + m.unready_hits + m.misses, 200);
        assert_eq!(m.demand_fetches, m.misses);
        assert!(m.total_time > SimDuration::ZERO);
        assert_eq!(m.proc_finish.len(), 4);
    }

    #[test]
    fn pair_base_has_no_prefetches() {
        let pair = run_pair(&small(AccessPattern::GlobalWholeFile, SyncStyle::None));
        assert_eq!(pair.base.prefetches, 0);
        assert!(pair.prefetch.prefetches > 0);
        assert!(pair.read_time_improvement() > 0.0);
    }

    #[test]
    fn paper_grid_shape() {
        let grid = paper_grid();
        // 6 patterns × 4 syncs − lw-portion, ×2 intensities = 46.
        assert_eq!(grid.len(), 46);
        let lw_portion = grid.iter().any(|c| {
            c.pattern == AccessPattern::LocalWholeFile && c.sync == SyncStyle::EachPortion
        });
        assert!(!lw_portion);
        for c in &grid {
            c.validate().unwrap();
        }
    }

    #[test]
    fn parallel_runner_matches_serial() {
        let configs = vec![
            small(AccessPattern::GlobalWholeFile, SyncStyle::None),
            small(AccessPattern::LocalWholeFile, SyncStyle::BlocksPerProc(10)),
        ];
        let serial: Vec<_> = configs.iter().map(run_pair).collect();
        let parallel = run_pairs_parallel(&configs, 2);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.base.total_time, p.base.total_time);
            assert_eq!(s.prefetch.total_time, p.prefetch.total_time);
            assert_eq!(s.prefetch.prefetches, p.prefetch.prefetches);
        }
    }
}
