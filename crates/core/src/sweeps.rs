//! Standard experiment sweeps, parameterized so callers (the benchmark
//! harness, the CLI, downstream studies) share one implementation.
//!
//! Each sweep is a thread-parallel map over configurations derived from a
//! base; the workers run whole experiments, which are internally
//! deterministic, so parallelism never changes a number. All sweeps (and
//! [`run_pairs_parallel`]) share the [`parallel_map`] scheduler: workers
//! claim *chunks* of the remaining work — large while the queue is full,
//! shrinking toward single jobs near the end — which amortizes the shared
//! counter while still balancing uneven run times, and each worker
//! accumulates results in thread-local scratch merged once at exit instead
//! of locking a shared slot per job.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rt_patterns::AccessPattern;
use rt_sim::SimDuration;

use crate::config::{ExperimentConfig, PrefetchConfig};
use crate::experiment::{run_experiment, run_pairs_parallel};
use crate::metrics::{RunMetrics, RunPair};

/// Worker threads used by the sweeps: the host's available parallelism
/// (4 when it cannot be queried). Worker count never changes any simulated
/// number — only how the (internally deterministic) runs are scheduled
/// onto the host.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Chunked self-scheduling parallel map: apply `f` to every item, return
/// results in input order. A panic inside `f` is re-raised on the caller
/// with its original payload once the other workers drain.
pub fn parallel_map<In, Out, F>(items: &[In], threads: usize, f: F) -> Vec<Out>
where
    In: Sync,
    Out: Send,
    F: Fn(&In) -> Out + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(n);
    let next = AtomicUsize::new(0);
    let merged: Mutex<Vec<(usize, Out)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    // Thread-local scratch: results pile up here and merge
                    // under one lock at exit.
                    let mut local: Vec<(usize, Out)> = Vec::new();
                    loop {
                        // Guided chunking: claim about a quarter of an even
                        // share of what remains, at least one job. The size
                        // estimate races with other claims, which only makes
                        // a chunk slightly conservative.
                        let claimed = next.load(Ordering::Relaxed);
                        let remaining = n.saturating_sub(claimed);
                        let chunk = (remaining / (workers * 4)).max(1);
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in items.iter().enumerate().take(end).skip(start) {
                            local.push((i, f(item)));
                        }
                    }
                    if !local.is_empty() {
                        merged
                            .lock()
                            .unwrap_or_else(|poison| poison.into_inner())
                            .append(&mut local);
                    }
                })
            })
            .collect();
        // Join explicitly so a worker panic propagates with its payload
        // instead of aborting via an implicit-join double panic.
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
    let mut merged = merged.into_inner().expect("workers finished cleanly");
    merged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(merged.iter().enumerate().all(|(k, &(i, _))| k == i));
    merged.into_iter().map(|(_, out)| out).collect()
}

/// Generic parallel map over derived configurations.
pub fn sweep<T: Send>(
    jobs: Vec<ExperimentConfig>,
    tags: Vec<T>,
    threads: usize,
) -> Vec<(T, RunMetrics)> {
    assert_eq!(jobs.len(), tags.len());
    let metrics = parallel_map(&jobs, threads, run_experiment);
    tags.into_iter().zip(metrics).collect()
}

/// One point of a computation sweep.
pub struct ComputePoint {
    /// Mean per-block computation time in milliseconds.
    pub compute_ms: u64,
    /// The base/prefetch pair at that intensity.
    pub pair: RunPair,
}

/// Sweep the mean per-block computation time over `means_ms`, running each
/// point as a base/prefetch pair (§V-C / Fig. 12).
pub fn compute_sweep_over(
    base: &ExperimentConfig,
    means_ms: &[u64],
    threads: usize,
) -> Vec<ComputePoint> {
    let configs: Vec<ExperimentConfig> = means_ms
        .iter()
        .map(|&ms| {
            let mut cfg = base.clone();
            cfg.compute_mean = SimDuration::from_millis(ms);
            cfg
        })
        .collect();
    let pairs = run_pairs_parallel(&configs, threads);
    means_ms
        .iter()
        .zip(pairs)
        .map(|(&compute_ms, pair)| ComputePoint { compute_ms, pair })
        .collect()
}

/// One point of a minimum-prefetch-lead sweep.
pub struct LeadPoint {
    /// The pattern under study.
    pub pattern: AccessPattern,
    /// The minimum prefetch lead in string positions.
    pub lead: u32,
    /// Metrics with prefetching at that lead.
    pub metrics: RunMetrics,
}

/// Sweep the minimum prefetch lead over `leads` for each of `patterns`,
/// using the paper's §V-E geometry (local patterns read the whole file per
/// process).
pub fn lead_sweep_over(
    patterns: &[AccessPattern],
    leads: &[u32],
    threads: usize,
) -> Vec<LeadPoint> {
    let mut jobs = Vec::new();
    let mut tags = Vec::new();
    for &pattern in patterns {
        for &lead in leads {
            jobs.push(ExperimentConfig::paper_lead(pattern, lead));
            tags.push((pattern, lead));
        }
    }
    sweep(jobs, tags, threads)
        .into_iter()
        .map(|((pattern, lead), metrics)| LeadPoint {
            pattern,
            lead,
            metrics,
        })
        .collect()
}

/// Non-prefetching references for the lead sweep, in `patterns` order.
pub fn lead_baselines_for(patterns: &[AccessPattern]) -> Vec<RunMetrics> {
    patterns
        .iter()
        .map(|&pattern| {
            let mut cfg = ExperimentConfig::paper_lead(pattern, 0);
            cfg.prefetch = PrefetchConfig::disabled();
            run_experiment(&cfg)
        })
        .collect()
}

/// One point of a prefetch-buffer-count sweep.
pub struct BufferPoint {
    /// Prefetch buffers (and cap) per node.
    pub buffers: u16,
    /// Metrics with prefetching at that size.
    pub metrics: RunMetrics,
}

/// Sweep the prefetch buffers per node over `counts` (§V-F).
pub fn buffer_sweep_over(
    base: &ExperimentConfig,
    counts: &[u16],
    threads: usize,
) -> Vec<BufferPoint> {
    let mut jobs = Vec::new();
    let mut tags = Vec::new();
    for &buffers in counts {
        let mut cfg = base.clone();
        cfg.prefetch = PrefetchConfig {
            buffers_per_proc: buffers,
            global_cap_per_proc: buffers,
            ..PrefetchConfig::paper()
        };
        jobs.push(cfg);
        tags.push(buffers);
    }
    sweep(jobs, tags, threads)
        .into_iter()
        .map(|(buffers, metrics)| BufferPoint { buffers, metrics })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_patterns::{SyncStyle, WorkloadParams};

    fn small() -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
        );
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            ..WorkloadParams::paper()
        };
        cfg
    }

    #[test]
    fn compute_sweep_points_carry_their_means() {
        let points = compute_sweep_over(&small(), &[0, 5, 10], 2);
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].compute_ms, 0);
        assert_eq!(points[2].compute_ms, 10);
        for p in &points {
            assert_eq!(p.pair.base.total_reads(), 200);
            assert!(p.pair.prefetch.prefetches > 0);
        }
        // More compute -> longer runs, monotone across this small sweep.
        assert!(points[2].pair.base.total_time > points[0].pair.base.total_time);
    }

    #[test]
    fn buffer_sweep_orders_by_count() {
        let points = buffer_sweep_over(&small(), &[1, 3], 2);
        assert_eq!(points[0].buffers, 1);
        assert_eq!(points[1].buffers, 3);
        for p in &points {
            assert_eq!(p.metrics.total_reads(), 200);
        }
    }

    #[test]
    fn generic_sweep_preserves_tag_order() {
        let jobs = vec![small(), small()];
        let out = sweep(jobs, vec!["a", "b"], 2);
        assert_eq!(out[0].0, "a");
        assert_eq!(out[1].0, "b");
        assert_eq!(out[0].1.total_time, out[1].1.total_time, "same config");
    }

    #[test]
    #[should_panic]
    fn mismatched_tags_rejected() {
        let _ = sweep(vec![small()], Vec::<u32>::new(), 1);
    }

    #[test]
    fn parallel_map_returns_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for threads in [1, 3, 8, 200] {
            let out = parallel_map(&items, threads, |&x| x * x);
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u32> = parallel_map(&[] as &[u32], 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_worker_panic_payload() {
        let items: Vec<u32> = (0..16).collect();
        let result = std::panic::catch_unwind(|| {
            parallel_map(&items, 4, |&x| {
                if x == 7 {
                    panic!("job 7 exploded");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload preserved");
        assert_eq!(msg, "job 7 exploded");
    }
}
