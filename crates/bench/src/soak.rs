//! The `rapid-transit soak` harness: deterministic chaos soak for the
//! overload-robustness layer, emitted as `BENCH_overload.json`.
//!
//! Each scenario drives a small machine into sustained overload — every
//! disk saturated, one hot disk, bursty barrier-released arrivals, or
//! overload combined with fault windows — with bounded device queues and
//! the prefetch admission controller turned on. Two things are measured:
//!
//! 1. **Performance under pressure**: the scenario runs base-vs-prefetch
//!    (both halves with the bounds active), and the report records both
//!    halves plus the overload counters. Admission exists so prefetching
//!    keeps paying off under overload; the validator rejects any report
//!    where the prefetch half is slower than the base half.
//! 2. **Structural soundness**: each scenario is then *soaked* — re-run
//!    under [`crate::verify_run`] across many derived seeds until a
//!    target number of events (one million for the full run) has been
//!    dispatched, every run checked after **every** event, watched for
//!    livelock (events flowing, no reads completing), and held to the
//!    terminal leak and read-accounting checks.
//!
//! Everything is seeded; a given build either always passes or always
//! fails. The `--smoke` variant shrinks the event target for CI.

use rt_core::experiment::run_pair;
use rt_core::faults::FaultSpecError;
use rt_core::{AdmissionConfig, ExperimentConfig, RunMetrics};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

use crate::json::{num_obj, Json};
use crate::sweep::{
    check_report, check_verified, inject, machine, run_obj, value, verify_run, Field, Scenario,
    SweepRun, Verdict,
};

/// Events each scenario's soak must dispatch (full run).
pub const SOAK_EVENTS: u64 = 1_000_000;

/// Events per scenario for the CI smoke variant.
pub const SMOKE_EVENTS: u64 = 60_000;

/// The fixed scenario set. All scenarios use a small machine (4 nodes,
/// 200 blocks) so individual runs are cheap and the soak loop can cycle
/// hundreds of seeds; overload comes from the workload shape, not scale.
/// A malformed spec is reported as a typed [`FaultSpecError`] rather
/// than a panic, so the CLI can surface it through its exit code.
pub fn scenarios() -> Result<Vec<Scenario>, FaultSpecError> {
    let small = |pattern, sync, compute_us: u64| {
        let mut cfg = machine(pattern, sync, true);
        cfg.compute_mean = SimDuration::from_micros(compute_us);
        cfg.prefetch = rt_core::PrefetchConfig::paper();
        cfg.queue_depth = Some(2);
        cfg.admission = AdmissionConfig::on(4);
        cfg
    };
    // io-burst: every node issues back-to-back reads; all four disks run
    // saturated for the whole run.
    let io_burst = small(AccessPattern::GlobalWholeFile, SyncStyle::None, 500);
    // hot-disk: twice as many nodes as devices and barrier-released
    // bursts, so both depth-2 queues fill and demand reads park — the
    // worst case for shedding. The barrier gaps leave slack prefetching
    // can exploit; steady single-device saturation would leave nothing
    // to overlap.
    let mut hot_disk = small(
        AccessPattern::GlobalWholeFile,
        SyncStyle::BlocksTotal(40),
        4_000,
    );
    hot_disk.disks = 2;
    // burst-barrier: a total-blocks barrier releases all four nodes at
    // once, so arrivals come in synchronized bursts.
    let burst_barrier = small(
        AccessPattern::GlobalFixedPortions,
        SyncStyle::BlocksTotal(40),
        1_000,
    );
    // straggler-storm: overload plus fault windows — one device slowed
    // 8x mid-run and another flaky — exercising shed/park/throttle and
    // the retry path together.
    let mut straggler_storm = small(
        AccessPattern::LocalFixedPortions,
        SyncStyle::BlocksPerProc(10),
        1_000,
    );
    inject(
        &mut straggler_storm,
        "straggler:2:x8@50ms-400ms,flaky:1:p0.2",
    )?;
    // node-churn: overload plus node crashes — one node bounces
    // (crash + rejoin) and another dies for good mid-run, exercising
    // lease/pin/waiter reclamation, barrier shrink, daemon failover,
    // and parked-demand re-charging under the same bounded queues and
    // admission control as every other soak scenario.
    let mut node_churn = small(
        AccessPattern::GlobalWholeFile,
        SyncStyle::BlocksPerProc(10),
        1_000,
    );
    inject(&mut node_churn, "crash:1@40ms:rejoin@160ms,crash:3@90ms")?;
    Ok([
        ("io-burst", io_burst),
        ("hot-disk", hot_disk),
        ("burst-barrier", burst_barrier),
        ("straggler-storm", straggler_storm),
        ("node-churn", node_churn),
    ]
    .map(|(name, cfg)| Scenario {
        name: name.to_string(),
        cfg,
    })
    .into())
}

/// Soak one scenario: [`verify_run`] it over derived seeds until
/// `target_events` have been dispatched, stopping at the first failing
/// verdict. Returns every cycle's verdict in order; only the last can
/// carry a violation.
pub fn soak_scenario(cfg: &ExperimentConfig, target_events: u64) -> Vec<Verdict> {
    let mut verdicts: Vec<Verdict> = Vec::new();
    let mut events = 0;
    while events < target_events {
        let mut cfg = cfg.clone();
        // Different seed each cycle -> different workload and timing; the
        // derivation is fixed so the whole soak is reproducible.
        let cycle = verdicts.len() as u64;
        cfg.seed = cfg.seed.wrapping_add(cycle.wrapping_mul(0x9e37_79b9));
        let v = verify_run(&cfg);
        events += v.events;
        let failed = v.violation.is_some();
        verdicts.push(v);
        if failed {
            break;
        }
    }
    verdicts
}

/// Fields every per-run object in the report carries, in order.
pub const FIELDS: &[Field] = &[
    ("total_ms", |m| m.total_time.as_millis_f64()),
    ("read_ms", RunMetrics::mean_read_ms),
    ("hit_ratio", |m| m.hit_ratio),
    ("prefetches_shed", |m| m.overload.prefetches_shed as f64),
    ("prefetches_throttled", |m| {
        m.overload.prefetches_throttled as f64
    }),
    ("demand_parked", |m| m.overload.demand_parked as f64),
    ("demand_behind_prefetch", |m| {
        m.overload.demand_behind_prefetch as f64
    }),
    ("cache_high_water_hits", |m| {
        m.overload.cache_high_water_hits as f64
    }),
    ("max_queue_depth", |m| m.overload.max_queue_depth as f64),
];

/// Run every scenario: the base/prefetch pair, then the soak.
pub fn run_sweep(smoke: bool) -> Result<SweepRun, FaultSpecError> {
    let target = if smoke { SMOKE_EVENTS } else { SOAK_EVENTS };
    let mut run = SweepRun::new(smoke);
    for s in scenarios()? {
        let pair = run_pair(&s.cfg);
        let soak = soak_scenario(&s.cfg, target);
        let events: u64 = soak.iter().map(|v| v.events).sum();
        let last = soak.last().expect("a soak runs at least once");
        run.note(
            || format!("{} (seed cycle {})", s.name, soak.len() - 1),
            last,
        );
        let failed = last.violation.is_some();
        let runs = soak.len() - usize::from(failed);
        run.push(vec![
            ("name", Json::Str(s.name)),
            ("base", run_obj(FIELDS, &pair.base, None)),
            ("prefetch", run_obj(FIELDS, &pair.prefetch, None)),
            (
                "soak",
                num_obj(&[
                    ("events", events as f64),
                    ("runs", runs as f64),
                    ("violations", u64::from(failed) as f64),
                ]),
            ),
        ]);
    }
    Ok(run)
}

/// Check that `doc` is a structurally valid overload report: correct
/// schema, a non-empty scenario array, every run object carrying all
/// counters, zero soak violations with the full event target met (unless
/// smoke), and the prefetch half no slower than the base half — the
/// property the admission controller exists to preserve. Every failure
/// is reported, newline-joined, not just the first.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let smoke = doc.get("smoke").and_then(Json::as_bool).unwrap_or(false);
    let floor = if smoke { SMOKE_EVENTS } else { SOAK_EVENTS };
    let c = check_report(doc, &["base", "prefetch"], FIELDS, |c, name, s| {
        let total = |half: &str| value(s, half, "total_ms").unwrap_or(f64::NAN);
        let (base_ms, pf_ms) = (total("base"), total("prefetch"));
        // NaN (a missing or non-numeric field) must fail too, so compare
        // via matches! rather than `pf <= base`.
        if !matches!(
            pf_ms.partial_cmp(&base_ms),
            Some(core::cmp::Ordering::Less | core::cmp::Ordering::Equal)
        ) {
            c.fail(format!(
                "scenario {name}: prefetch half slower than base under overload \
                 ({pf_ms} ms vs {base_ms} ms)"
            ));
        }
        check_verified(c, name, s, "soak", floor);
    });
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::report_scenarios;
    use crate::sweep::tests::{assert_each_field_required, edited, set, smoke_report};

    #[test]
    fn scenario_set_shape() {
        let set = scenarios().unwrap();
        assert_eq!(set.len(), 5);
        for s in &set {
            s.cfg.validate().unwrap();
            assert_eq!(s.cfg.queue_depth, Some(2));
            assert!(s.cfg.admission.enabled);
            assert!(s.cfg.prefetch.enabled);
        }
        assert!(set[3].cfg.faults.is_active(), "storm scenario has faults");
        let churn = &set[4].cfg.faults.crashes;
        assert_eq!(churn.entries().len(), 2, "churn scenario crashes twice");
        assert!(churn.entries()[0].rejoin.is_some());
    }

    #[test]
    fn short_soak_is_clean_and_counts_events() {
        let cfg = &scenarios().unwrap()[0].cfg;
        let out = soak_scenario(cfg, 10_000);
        assert!(
            out.iter().all(|v| v.violation.is_none()),
            "{:?}",
            out.last().map(|v| &v.violation)
        );
        assert!(out.iter().map(|v| v.events).sum::<u64>() >= 10_000);
        assert!(!out.is_empty());
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        let doc = smoke_report("soak");
        // The scenarios actually drive the overload machinery.
        let results = report_scenarios(&doc);
        let hot = results
            .iter()
            .find(|s| s.get("name").and_then(Json::as_str) == Some("hot-disk"))
            .expect("hot-disk scenario present");
        let pressure: f64 = ["prefetches_shed", "prefetches_throttled", "demand_parked"]
            .iter()
            .map(|key| value(hot, "prefetch", key).unwrap())
            .sum();
        assert!(
            pressure > 0.0,
            "hot-disk scenario never hit backpressure: {hot:?}"
        );
        for s in results {
            assert_eq!(value(s, "soak", "violations"), Some(0.0), "{s:?}");
        }
    }

    #[test]
    fn validation_names_a_dropped_field() {
        assert_each_field_required("soak", &["base", "prefetch"], FIELDS);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
        let doc = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("empty"));
        // A prefetch half slower than base must be rejected.
        let doc = smoke_report("soak");
        let broken = edited(&doc, "io-burst", "prefetch", |f| set(f, "total_ms", 1e9));
        assert!(validate_report(&broken).unwrap_err().contains("slower"));
    }
}
