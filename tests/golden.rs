//! Golden regression tests: the simulation is deterministic, so the
//! paper-default runs (per-processor sync, balanced compute, default seed)
//! must reproduce these exact fingerprints. A legitimate model change will
//! move these numbers — regenerate them deliberately (see the table below)
//! and re-validate the figure benches against EXPERIMENTS.md when it does.

use rapid_transit::core::experiment::{run_experiment, run_experiment_instrumented};
use rapid_transit::core::sweeps::{default_threads, parallel_map};
use rapid_transit::core::{ExperimentConfig, PrefetchConfig};
use rapid_transit::patterns::{AccessPattern, SyncStyle};

/// (pattern, prefetch, total ns, mean read ns, ready, unready, misses)
const GOLDEN: &[(&str, bool, u64, u64, u64, u64, u64)] = &[
    ("lfp", false, 9655075092, 44123664, 0, 0, 2000),
    ("lfp", true, 8762689957, 21717746, 1512, 68, 420),
    ("lrp", false, 8981900912, 40912441, 8, 8, 1984),
    ("lrp", true, 7039652001, 18486718, 1507, 69, 424),
    ("lw", false, 3735367087, 24580194, 64, 1832, 104),
    ("lw", true, 2678292539, 6952721, 1880, 93, 27),
    ("gfp", false, 8268681093, 33980141, 0, 0, 2000),
    ("gfp", true, 6495565390, 10332742, 1479, 464, 57),
    ("grp", false, 8323782295, 34140404, 0, 0, 2000),
    ("grp", true, 6426273094, 14161485, 1218, 663, 119),
    ("gw", false, 8258476186, 33685345, 0, 0, 2000),
    ("gw", true, 6442648341, 10153561, 1553, 387, 60),
];

#[test]
fn paper_default_runs_match_golden_fingerprints() {
    for &(abbrev, prefetch, total_ns, read_ns, ready, unready, misses) in GOLDEN {
        let pattern = AccessPattern::from_abbrev(abbrev).unwrap();
        let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
        if prefetch {
            cfg.prefetch = PrefetchConfig::paper();
        }
        let m = run_experiment(&cfg);
        let got = (
            m.total_time.as_nanos(),
            m.reads.mean().as_nanos(),
            m.ready_hits,
            m.unready_hits,
            m.misses,
        );
        assert_eq!(
            got,
            (total_ns, read_ns, ready, unready, misses),
            "{abbrev}/pf={prefetch} drifted from its golden fingerprint; if \
             this change is intentional, regenerate the GOLDEN table and \
             re-validate EXPERIMENTS.md"
        );
    }
}

#[test]
fn golden_table_spans_all_patterns_both_ways() {
    // Guard the guard: the table must cover every (pattern, prefetch) cell.
    assert_eq!(GOLDEN.len(), 12);
    for pattern in AccessPattern::ALL {
        for &pf in &[false, true] {
            assert!(
                GOLDEN
                    .iter()
                    .any(|&(a, p, ..)| a == pattern.abbrev() && p == pf),
                "missing golden entry for {pattern}/pf={pf}"
            );
        }
    }
}

/// Events dispatched by the 16,000-block slice (the paper machine with the
/// file and the read count scaled ×8), as (pattern, prefetch, events). The
/// six sum to 582,644, a third of the 1,747,932 that every `BENCH_core.json`
/// entry records for its three passes over the same slice, so those frozen
/// entries stay comparable with today's engine.
const SLICE_EVENTS: &[(&str, bool, u64)] = &[
    ("gw", false, 80020),
    ("gw", true, 98879),
    ("lfp", false, 80020),
    ("lfp", true, 118114),
    ("grp", false, 80020),
    ("grp", true, 125591),
];

#[test]
fn slice_runs_dispatch_pinned_event_counts() {
    assert_eq!(SLICE_EVENTS.iter().map(|&(.., n)| n).sum::<u64>(), 582_644);
    let got = parallel_map(SLICE_EVENTS, default_threads(), |&(abbrev, prefetch, _)| {
        let pattern = AccessPattern::from_abbrev(abbrev).unwrap();
        let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
        cfg.workload.file_blocks = 16_000;
        cfg.workload.total_reads = 16_000;
        if prefetch {
            cfg.prefetch = PrefetchConfig::paper();
        }
        run_experiment_instrumented(&cfg).1.events
    });
    for (&(abbrev, prefetch, events), got) in SLICE_EVENTS.iter().zip(got) {
        assert_eq!(
            got, events,
            "{abbrev}/pf={prefetch}: the 16,000-block run dispatched a \
             different number of events"
        );
    }
}

/// The engine's FIFO lanes take the lock, disk and copy completions in
/// O(1) only while each kind arrives in time order; an out-of-order event
/// falls back to the heap, keeping the dispatch order but losing the
/// speed. On the fault-free slice every laned kind is in order, so a
/// fallback here means the event routing no longer matches the model.
#[test]
fn slice_runs_take_no_lane_fallback() {
    let got = parallel_map(SLICE_EVENTS, default_threads(), |&(abbrev, prefetch, _)| {
        let pattern = AccessPattern::from_abbrev(abbrev).unwrap();
        let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
        cfg.workload.file_blocks = 16_000;
        cfg.workload.total_reads = 16_000;
        if prefetch {
            cfg.prefetch = PrefetchConfig::paper();
        }
        run_experiment_instrumented(&cfg).1.lane_fallbacks
    });
    for (&(abbrev, prefetch, _), fallbacks) in SLICE_EVENTS.iter().zip(got) {
        assert_eq!(
            fallbacks, 0,
            "{abbrev}/pf={prefetch}: laned events fell back to the heap"
        );
    }
}
