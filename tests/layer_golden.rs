//! Golden layer counters: with every optional layer except crashes turned
//! on (the benchmark's `slice-all-layers` knobs at the paper's 2,000-block
//! size and seed), each run must reproduce its fingerprint and the
//! counters of the admission, tail, integrity and fault layers exactly.
//!
//! `tests/golden.rs` pins the paper runs, where these layers are off; this
//! table pins the runs where their bookkeeping decides what happens next,
//! so a host-side optimisation of that bookkeeping cannot move a simulated
//! nanosecond or a single decision unnoticed.

use rapid_transit::core::experiment::run_experiment;
use rapid_transit::core::faults::parse_all_fault_specs;
use rapid_transit::core::{AdmissionConfig, ExperimentConfig, PrefetchConfig, RunMetrics};
use rapid_transit::patterns::{AccessPattern, SyncStyle};
use rapid_transit::sim::SimDuration;

/// The benchmark's all-layers device faults: a straggler, a flaky disk
/// and silent corruption.
const FAULTS: &str = "straggler:0:x8,flaky:3:p0.05,corrupt:5:p0.02";

/// Paper-size run of `pattern` with prefetching and every layer but
/// crashes on.
fn all_layers(pattern: AccessPattern) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
    cfg.prefetch = PrefetchConfig::paper();
    let (plan, crashes) = parse_all_fault_specs(FAULTS).unwrap();
    assert!(crashes.is_empty());
    cfg.faults.plan = plan;
    cfg.faults.replicas = 1;
    cfg.faults.retry.timeout = Some(SimDuration::from_millis(150));
    cfg.faults.hedge.delay = Some(SimDuration::from_millis(60));
    cfg.faults.budget.capacity = Some(32);
    cfg.faults.budget.refill = 0.25;
    cfg.faults.breaker.enabled = true;
    cfg.integrity.scrub = true;
    cfg.queue_depth = Some(8);
    cfg.admission = AdmissionConfig::on(8);
    cfg.validate().unwrap();
    cfg
}

/// Total ns, read-time total ns, ready hits, unready hits, misses, disk
/// operations, prefetches.
type Fingerprint = [u64; 7];

/// Prefetches throttled, cache high-water hits, hedges launched, breaker
/// opens, blocks scrubbed, retries, timeouts, corruption detections.
type Counters = [u64; 8];

fn fingerprint(m: &RunMetrics) -> Fingerprint {
    [
        m.total_time.as_nanos(),
        m.reads.total().as_nanos(),
        m.ready_hits,
        m.unready_hits,
        m.misses,
        m.disk_ops,
        m.prefetches,
    ]
}

fn counters(m: &RunMetrics) -> Counters {
    [
        m.overload.prefetches_throttled,
        m.overload.cache_high_water_hits,
        m.tail.hedges_launched,
        m.tail.breaker_opens,
        m.integrity.scrubbed,
        m.faults.retries,
        m.faults.timeouts,
        m.integrity.detections,
    ]
}

/// One pattern per oracle path: gw (global hinted scan), lfp (per-process
/// hinted scan), grp (unhinted scan).
const GOLDEN: &[(&str, Fingerprint, Counters)] = &[
    (
        "gw",
        [7795400000, 53223038362, 791, 915, 294, 2164, 1707],
        [7726, 120, 126, 0, 103, 5, 0, 1],
    ),
    (
        "lfp",
        [9216321396, 62911356566, 1168, 134, 698, 2151, 1306],
        [10754, 3411, 144, 10, 27, 33, 31, 1],
    ),
    (
        "grp",
        [8824600000, 68307152060, 408, 1176, 416, 3117, 1551],
        [5719, 0, 107, 0, 1098, 5, 0, 1],
    ),
];

#[test]
fn all_layer_runs_match_golden_counters() {
    for &(abbrev, want_fp, want_counters) in GOLDEN {
        let m = run_experiment(&all_layers(AccessPattern::from_abbrev(abbrev).unwrap()));
        assert_eq!(fingerprint(&m), want_fp, "{abbrev}: fingerprint drifted");
        assert_eq!(
            counters(&m),
            want_counters,
            "{abbrev}: layer counters drifted"
        );
    }
}

/// Regression: at 16,000 blocks and seed 13, grp's straggler-served
/// primary of a hedged fetch completed after the hedge had delivered the
/// block and it had been evicted, landing while a new miss of the same
/// block was still in its critical section. The stale fill woke that
/// reader before its idle period began ("resume without idle start").
/// Such completions are now absorbed as stale.
#[test]
fn stale_duplicate_during_a_new_miss_is_absorbed() {
    let mut cfg = all_layers(AccessPattern::GlobalRandomPortions);
    cfg.workload.file_blocks = 16_000;
    cfg.workload.total_reads = 16_000;
    cfg.seed = 13;
    let m = run_experiment(&cfg);
    assert_eq!(m.reads.count(), 16_000);
    assert!(m.faults.stale_completions > 0);
}
