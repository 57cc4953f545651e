//! The `rapid-transit crashes` harness: node-crash fault scenarios run
//! base-vs-prefetch over every paper pattern, emitted as
//! `BENCH_crash.json`.
//!
//! Each of the six access patterns is run under three crash modes —
//! an early permanent crash, a mid-run crash that rejoins, and a
//! cascading three-node loss — and each scenario runs twice (without
//! and with prefetching). Two things are checked per half:
//!
//! 1. **Recovery accounting**: the report records both halves with the
//!    crash counters (injections, rejoins, lost reads, reclaimed locks
//!    / pins / waiter slots, orphaned I/Os, failover prefetches), so a
//!    regression in the reclamation path shows up as a counter shift
//!    between builds.
//! 2. **Structural soundness**: every half is re-run under
//!    [`crate::verify_run`] — per-event invariants, a livelock watchdog,
//!    and the terminal leak checks — and its verdict is recorded. The
//!    validator requires every scenario to terminate with every read
//!    accounted for (`completed + lost + abandoned == expected`) and
//!    zero violations.
//!
//! Everything is deterministic; a given build either always passes or
//! always fails. The `--smoke` variant shrinks the machine for CI.

use rt_core::experiment::run_pair;
use rt_core::faults::FaultSpecError;
use rt_core::RunMetrics;
use rt_patterns::{AccessPattern, SyncStyle};

use crate::json::Json;
use crate::sweep::{
    check_report, check_verdict, halves, inject, machine, run_obj, Field, Scenario, SweepRun,
};

/// The paper's six access patterns with their report abbreviations.
pub const PATTERNS: [(&str, AccessPattern); 6] = [
    ("lfp", AccessPattern::LocalFixedPortions),
    ("lrp", AccessPattern::LocalRandomPortions),
    ("lw", AccessPattern::LocalWholeFile),
    ("gfp", AccessPattern::GlobalFixedPortions),
    ("grp", AccessPattern::GlobalRandomPortions),
    ("gw", AccessPattern::GlobalWholeFile),
];

/// The three crash modes swept per pattern, as crash-spec strings
/// (exactly what `--faults` accepts, so the sweep exercises the
/// parser too).
fn modes(quick: bool) -> [(&'static str, String); 3] {
    if quick {
        [
            ("early", "crash:1@40ms".into()),
            ("rejoin", "crash:1@60ms:rejoin@300ms".into()),
            ("cascade", "crash:1@50ms,crash:2@100ms,crash:3@150ms".into()),
        ]
    } else {
        [
            ("early", "crash:3@500ms".into()),
            ("rejoin", "crash:3@1s:rejoin@3s".into()),
            ("cascade", "crash:3@500ms,crash:7@1s,crash:11@1500ms".into()),
        ]
    }
}

/// The fixed scenario grid: six patterns x three crash modes. `quick`
/// shrinks the machine (4 nodes, 200 blocks) and the crash windows for
/// smoke tests. A malformed spec is reported as a typed
/// [`FaultSpecError`] rather than a panic, so the CLI can surface it
/// through its exit code.
pub fn scenarios(quick: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let mut out = Vec::with_capacity(PATTERNS.len() * 3);
    for (pat_name, pattern) in PATTERNS {
        for (mode_name, spec) in modes(quick) {
            let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), quick);
            inject(&mut cfg, &spec)?;
            out.push(Scenario {
                name: format!("{pat_name}-{mode_name}"),
                cfg,
            });
        }
    }
    Ok(out)
}

/// Fields every per-run object in the report carries, in order, before
/// the verdict keys.
pub const FIELDS: &[Field] = &[
    ("total_ms", |m| m.total_time.as_millis_f64()),
    ("read_ms", RunMetrics::mean_read_ms),
    ("hit_ratio", |m| m.hit_ratio),
    ("crashes", |m| m.crash.crashes as f64),
    ("rejoins", |m| m.crash.rejoins as f64),
    ("lost_reads", |m| m.crash.lost_reads as f64),
    ("reclaimed_locks", |m| m.crash.reclaimed_locks as f64),
    ("reclaimed_pins", |m| m.crash.reclaimed_pins as f64),
    ("reclaimed_waiters", |m| m.crash.reclaimed_waiters as f64),
    ("orphaned_ios", |m| m.crash.orphaned_ios as f64),
    ("redistributed_prefetches", |m| {
        m.crash.redistributed_prefetches as f64
    }),
];

/// Run every scenario base-vs-prefetch and verify both halves.
pub fn run_sweep(quick: bool) -> Result<SweepRun, FaultSpecError> {
    let mut run = SweepRun::new(quick);
    for s in scenarios(quick)? {
        let pair = run_pair(&s.cfg);
        let [base, prefetch] =
            halves(&s.cfg).map(|(half, cfg)| run.verify(|| format!("{} ({half})", s.name), &cfg));
        run.push(vec![
            ("name", Json::Str(s.name)),
            ("base", run_obj(FIELDS, &pair.base, Some(&base))),
            ("prefetch", run_obj(FIELDS, &pair.prefetch, Some(&prefetch))),
        ]);
    }
    Ok(run)
}

/// Check that `doc` is a structurally valid crashes report: correct
/// schema, the full pattern x mode grid present, every run object
/// carrying all counters, zero verification violations, every crash
/// injected, and the surviving reads accounted for
/// (`completed + lost == expected`). Every failure is reported,
/// newline-joined, not just the first.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut c = check_report(doc, &["base", "prefetch"], FIELDS, |c, name, s| {
        seen.push(name);
        let expect_crashes = if name.ends_with("-cascade") { 3.0 } else { 1.0 };
        let expect_rejoins = if name.ends_with("-rejoin") { 1.0 } else { 0.0 };
        for half in ["base", "prefetch"] {
            let Some(run) = s.get(half) else {
                continue;
            };
            let ctx = format!("scenario {name}/{half}");
            check_verdict(c, run, &ctx);
            let num = |field: &str| run.get(field).and_then(Json::as_f64);
            // A crash scenario must actually crash: rejoin scenarios
            // may see fewer if the node finished first, but the smoke
            // and full windows are chosen so it never does.
            if num("crashes").is_some_and(|v| v != expect_crashes) {
                c.fail(format!(
                    "{ctx}: expected {expect_crashes} crash(es), report says {:?}",
                    num("crashes")
                ));
            }
            if num("rejoins").is_some_and(|v| v != expect_rejoins) {
                c.fail(format!(
                    "{ctx}: expected {expect_rejoins} rejoin(s), report says {:?}",
                    num("rejoins")
                ));
            }
        }
    });
    for (pat, _) in PATTERNS {
        for mode in ["early", "rejoin", "cascade"] {
            let want = format!("{pat}-{mode}");
            if !seen.contains(&want.as_str()) {
                c.fail(format!("missing scenario {want}"));
            }
        }
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{assert_each_field_required, edited, set, smoke_report};
    use crate::sweep::{report_scenarios, value};

    #[test]
    fn scenario_set_shape() {
        for quick in [false, true] {
            let set = scenarios(quick).unwrap();
            assert_eq!(set.len(), 18, "6 patterns x 3 modes");
            for s in &set {
                s.cfg.validate().unwrap();
                assert!(!s.cfg.faults.crashes.is_empty());
                assert!(s.cfg.faults.plan.entries().is_empty());
            }
            let cascade = set.iter().find(|s| s.name == "gw-cascade").unwrap();
            assert_eq!(cascade.cfg.faults.crashes.entries().len(), 3);
            let rejoin = set.iter().find(|s| s.name == "lfp-rejoin").unwrap();
            assert!(rejoin.cfg.faults.crashes.entries()[0].rejoin.is_some());
        }
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        let doc = smoke_report("crashes");
        let results = report_scenarios(&doc);
        for s in results {
            for half in ["base", "prefetch"] {
                assert_eq!(value(s, half, "violations"), Some(0.0), "{s:?}");
            }
        }
        // The scenarios actually exercise the recovery machinery: at
        // least one victim somewhere held something reclaimable, and a
        // rejoin run rejoined.
        let reclaimed: f64 = results
            .iter()
            .flat_map(|s| ["base", "prefetch"].map(|half| (s, half)))
            .flat_map(|(s, half)| {
                [
                    "reclaimed_locks",
                    "reclaimed_pins",
                    "reclaimed_waiters",
                    "orphaned_ios",
                ]
                .map(|key| value(s, half, key).unwrap())
            })
            .sum();
        assert!(reclaimed > 0.0, "no scenario reclaimed anything");
        let rejoined = results
            .iter()
            .filter(|s| {
                s.get("name")
                    .and_then(Json::as_str)
                    .unwrap()
                    .ends_with("-rejoin")
            })
            .all(|s| {
                ["base", "prefetch"]
                    .iter()
                    .all(|h| value(s, h, "rejoins") == Some(1.0))
            });
        assert!(rejoined, "a rejoin scenario never rejoined");
    }

    #[test]
    fn validation_names_a_dropped_field() {
        assert_each_field_required("crashes", &["base", "prefetch"], FIELDS);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
        let doc = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
        let msg = validate_report(&doc).unwrap_err();
        assert!(msg.contains("missing scenario"), "{msg}");
        // A half that reports a violation must fail validation.
        let doc = smoke_report("crashes");
        let broken = edited(&doc, "gw-early", "base", |f| set(f, "violations", 1.0));
        let msg = validate_report(&broken).unwrap_err();
        assert!(msg.contains("violations"), "{msg}");
        // Broken read accounting must fail validation.
        let broken = edited(&doc, "gw-early", "base", |f| set(f, "completed_reads", 0.0));
        let msg = validate_report(&broken).unwrap_err();
        assert!(msg.contains("lost"), "{msg}");
    }
}
