//! The `rapid-transit faults` harness: a fixed set of fault-injection
//! scenarios run base-vs-prefetch, emitted as `BENCH_faults.json`.
//!
//! Each scenario injects one failure mode into the paper's `lfp`
//! configuration — a straggling device, a flaky device, a repairing
//! outage, and a permanent outage absorbed by a replica — plus the
//! fault-free control. The report records both halves of each pair along
//! with the fault-path counters, so a regression in retry/degradation
//! behaviour shows up as a counter or completion-time shift between
//! builds, and re-runs both halves under [`crate::verify_run`]. The
//! `--smoke` variant shrinks the machine for CI.

use rt_core::experiment::run_pair;
use rt_core::faults::FaultSpecError;
use rt_core::RunMetrics;
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

use crate::json::Json;
use crate::sweep::{
    check_report, halves, inject, machine, report_scenarios, run_obj, value, Field, Scenario,
    SweepRun,
};

/// The fixed scenario set. `quick` shrinks the machine (4 nodes, 200
/// blocks) and the fault windows for smoke tests. A malformed spec is
/// reported as a typed [`FaultSpecError`] rather than a panic, so the
/// CLI can surface it through its exit code.
pub fn scenarios(quick: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    // Disk indices and windows scale with the machine: the smoke machine
    // has 4 disks and finishes in roughly a second of simulated time.
    // (name, smoke specs, full specs, replicas, timeout ms)
    const SET: [(&str, &str, &str, u16, u64); 6] = [
        ("none", "", "", 0, 0),
        ("straggler-x4", "straggler:2:x4", "straggler:7:x4", 0, 0),
        ("flaky-p30", "flaky:1:p0.3", "flaky:3:p0.3", 0, 0),
        ("outage-repair", "fail:3@100ms-400ms", "fail:5@1s-4s", 0, 0),
        ("outage-replica", "fail:3@100ms", "fail:5@1s", 1, 500),
        (
            "straggler-timeout",
            "straggler:2:x25",
            "straggler:7:x25",
            1,
            500,
        ),
    ];
    SET.iter()
        .map(|&(name, smoke, full, replicas, timeout_ms)| {
            let lfp = AccessPattern::LocalFixedPortions;
            let mut cfg = machine(lfp, SyncStyle::BlocksPerProc(10), quick);
            inject(&mut cfg, if quick { smoke } else { full })?;
            cfg.faults.replicas = replicas;
            if timeout_ms > 0 {
                cfg.faults.retry.timeout = Some(SimDuration::from_millis(timeout_ms));
            }
            Ok(Scenario {
                name: name.to_string(),
                cfg,
            })
        })
        .collect()
}

/// Fields every per-run object in the report carries, in order.
pub const FIELDS: &[Field] = &[
    ("total_ms", |m| m.total_time.as_millis_f64()),
    ("read_ms", RunMetrics::mean_read_ms),
    ("hit_ratio", |m| m.hit_ratio),
    ("io_errors", |m| m.faults.io_errors as f64),
    ("retries", |m| m.faults.retries as f64),
    ("retries_exhausted", |m| m.faults.retries_exhausted as f64),
    ("timeouts", |m| m.faults.timeouts as f64),
    ("redirects", |m| m.faults.redirects as f64),
    ("aborted_prefetches", |m| m.faults.aborted_prefetches as f64),
    ("degraded_skips", |m| m.faults.degraded_skips as f64),
    ("degraded_intervals", |m| m.faults.degraded_intervals as f64),
    ("degraded_time_ms", |m| {
        m.faults.degraded_time.as_millis_f64()
    }),
];

/// Run every scenario base-vs-prefetch and verify both halves.
pub fn run_sweep(quick: bool) -> Result<SweepRun, FaultSpecError> {
    let mut run = SweepRun::new(quick);
    for s in scenarios(quick)? {
        let pair = run_pair(&s.cfg);
        for (half, cfg) in halves(&s.cfg) {
            run.verify(|| format!("{} ({half})", s.name), &cfg);
        }
        run.push(vec![
            ("name", Json::Str(s.name)),
            ("base", run_obj(FIELDS, &pair.base, None)),
            ("prefetch", run_obj(FIELDS, &pair.prefetch, None)),
        ]);
    }
    Ok(run)
}

/// Check that `doc` is a structurally valid faults report: correct
/// schema, a non-empty scenario array including the fault-free control,
/// and every run object carrying all counters. Every failure is
/// reported, newline-joined, not just the first.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let mut saw_control = false;
    let mut c = check_report(doc, &["base", "prefetch"], FIELDS, |c, name, s| {
        if name != "none" {
            return;
        }
        saw_control = true;
        for half in ["base", "prefetch"] {
            let errs = value(s, half, "io_errors").unwrap_or(0.0);
            if errs != 0.0 {
                c.fail(format!(
                    "control scenario reports {errs} io_errors in its {half} run"
                ));
            }
        }
    });
    if !saw_control && !report_scenarios(doc).is_empty() {
        c.fail("missing the fault-free control scenario `none`");
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{assert_each_field_required, smoke_report};

    #[test]
    fn scenario_set_shape() {
        for quick in [false, true] {
            let set = scenarios(quick).unwrap();
            assert_eq!(set.len(), 6);
            assert_eq!(set[0].name, "none");
            assert!(!set[0].cfg.faults.is_active());
            for s in &set {
                s.cfg.validate().unwrap();
            }
        }
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        let doc = smoke_report("faults");
        let s = report_scenarios(&doc);
        let num = |i: usize, half: &str, key: &str| value(&s[i], half, key).unwrap();
        // Injected scenarios actually exercised the fault path.
        assert!(
            num(1, "prefetch", "degraded_intervals") > 0.0
                || num(1, "prefetch", "degraded_skips") > 0.0,
            "straggler scenario never degraded the device"
        );
        assert!(num(2, "base", "io_errors") > 0.0);
        assert!(num(2, "base", "retries") > 0.0);
        // The extreme straggler outlasts the 500 ms timeout, forcing
        // timeout-driven redirects to the replica.
        assert!(num(5, "base", "timeouts") > 0.0);
        assert!(num(5, "base", "redirects") > 0.0);
    }

    #[test]
    fn validation_names_a_dropped_field() {
        assert_each_field_required("faults", &["base", "prefetch"], FIELDS);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
        let doc = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("empty"));
        let doc = Json::parse(r#"{"schema":1,"scenarios":[{"name":"straggler-x4"}]}"#).unwrap();
        assert!(validate_report(&doc).is_err());
    }
}
