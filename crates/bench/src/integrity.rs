//! The `rapid-transit integrity` harness: the end-to-end data-integrity
//! sweep, emitted as `BENCH_integrity.json`.
//!
//! Each of the paper's six access patterns runs three ways — without
//! corruption (the control), with silent-corruption windows and the
//! scrubber off, and with the same windows plus the idle-time scrubber —
//! all with one rotated replica so read-repair has a healthy copy to
//! fetch. Two things are checked per scenario:
//!
//! 1. **The integrity guarantee**: the scenario is re-run under
//!    [`crate::verify_run`], whose per-event invariants reject the run
//!    the instant a corrupt payload is delivered to a reader as clean
//!    data.
//! 2. **The counters**: the report records the integrity counters of each
//!    run, and [`validate_report`] rejects any document where a corrupt
//!    block was delivered, where injected corruption went undetected
//!    (every corrupt completion must be caught by demand verification or
//!    the scrubber), or where the control run saw corruption at all.
//!
//! Everything is seeded; a given build either always passes or always
//! fails. The `--smoke` variant shrinks the machine for CI.

use rt_core::experiment::run_experiment;
use rt_core::faults::{parse_fault_specs, FaultSpecError};
use rt_core::{ExperimentConfig, PrefetchConfig, RunMetrics};
use rt_patterns::{AccessPattern, SyncStyle};

use crate::json::{num_obj, Json};
use crate::sweep::{
    check_report, check_verified, machine, report_scenarios, run_obj, value, Field, SweepRun,
};

/// The three ways each pattern runs.
pub const VARIANTS: [&str; 3] = ["clean", "corrupt", "corrupt-scrub"];

/// One integrity scenario: a pattern under one corruption/scrub variant.
pub struct IntegrityScenario {
    /// Stable scenario name (report key), `<pattern>/<variant>`.
    pub name: String,
    /// Which variant this is (one of [`VARIANTS`]).
    pub variant: &'static str,
    /// The full experiment configuration.
    pub cfg: ExperimentConfig,
}

/// The fixed scenario set: every paper pattern under every variant.
/// `smoke` shrinks the machine (4 nodes, 200 blocks) for CI. A malformed
/// spec is reported as a typed [`FaultSpecError`] rather than a panic,
/// so the CLI can surface it through its exit code.
pub fn scenarios(smoke: bool) -> Result<Vec<IntegrityScenario>, FaultSpecError> {
    let mut out = Vec::new();
    for pattern in AccessPattern::ALL {
        for variant in VARIANTS {
            let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), smoke);
            cfg.prefetch = PrefetchConfig::paper();
            if variant != "clean" {
                // One device corrupting for the whole run, another for a
                // window — both indices exist on the 4-disk smoke machine.
                cfg.faults.plan = parse_fault_specs("corrupt:1:p0.2,corrupt:2:p0.3@50ms-900ms")?;
                cfg.faults.replicas = 1;
            }
            if variant == "corrupt-scrub" {
                cfg.integrity.scrub = true;
            }
            out.push(IntegrityScenario {
                name: format!("{pattern}/{variant}"),
                variant,
                cfg,
            });
        }
    }
    Ok(out)
}

/// Fields every per-run object in the report carries, in order.
pub const FIELDS: &[Field] = &[
    ("total_ms", |m| m.total_time.as_millis_f64()),
    ("read_ms", RunMetrics::mean_read_ms),
    ("hit_ratio", |m| m.hit_ratio),
    ("corruptions", |m| m.integrity.corruptions as f64),
    ("detections", |m| m.integrity.detections as f64),
    ("repairs", |m| m.integrity.repairs as f64),
    ("rewrites", |m| m.integrity.rewrites as f64),
    ("scrubbed", |m| m.integrity.scrubbed as f64),
    ("scrub_detections", |m| m.integrity.scrub_detections as f64),
    ("poisoned_blocks", |m| m.integrity.poisoned_blocks as f64),
    ("failed_reads", |m| m.integrity.failed_reads as f64),
    ("corrupt_delivered", |m| {
        m.integrity.corrupt_delivered as f64
    }),
    ("quarantines", |m| m.integrity.quarantines as f64),
    ("quarantined_ms", |m| {
        m.integrity.quarantined_time.as_millis_f64()
    }),
];

/// Run every scenario for its metrics, then verify it.
pub fn run_sweep(smoke: bool) -> Result<SweepRun, FaultSpecError> {
    let mut run = SweepRun::new(smoke);
    for s in scenarios(smoke)? {
        let metrics = run_experiment(&s.cfg);
        let verdict = run.verify(|| s.name.clone(), &s.cfg);
        run.push(vec![
            ("name", Json::Str(s.name)),
            ("variant", Json::Str(s.variant.to_string())),
            ("run", run_obj(FIELDS, &metrics, None)),
            (
                "observed",
                num_obj(&[
                    ("events", verdict.events as f64),
                    ("violations", u64::from(verdict.violation.is_some()) as f64),
                ]),
            ),
        ]);
    }
    Ok(run)
}

/// Check that `doc` is a structurally valid integrity report, and that
/// it witnesses the end-to-end guarantee: no scenario delivered a
/// corrupt block, every injected corruption was caught by a check
/// (demand verification or the scrubber), the control runs stayed
/// entirely clean, the scrub variants actually scrubbed, and the
/// per-event observed re-runs reported zero violations. Every failure
/// is reported, newline-joined, not just the first.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let mut seen = [0u32; 3];
    let mut scrubbed_total = 0.0;
    let mut c = check_report(doc, &["run"], FIELDS, |c, name, s| {
        let variant = c.string(s, "variant", &format!("scenario {name}"));
        let slot = variant.and_then(|v| VARIANTS.iter().position(|k| *k == v));
        match (variant, slot) {
            (Some(v), None) => c.fail(format!("scenario {name}: unknown variant {v:?}")),
            (_, Some(slot)) => seen[slot] += 1,
            _ => {}
        }
        check_verified(c, name, s, "observed", 1);
        if s.get("run").is_none() {
            return;
        }
        let num = |f: &str| value(s, "run", f);
        // The guarantee itself: nothing corrupt ever reached a reader.
        if num("corrupt_delivered").is_some_and(|v| v != 0.0) {
            c.fail(format!(
                "scenario {name}: delivered a corrupt block to a reader"
            ));
        }
        let corruptions = num("corruptions").unwrap_or(0.0);
        let caught = num("detections").unwrap_or(0.0) + num("scrub_detections").unwrap_or(0.0);
        match variant {
            // A guard, not a nested if: a clean control that passes it must
            // not fall through to the injected-corruption checks below.
            Some("clean")
                if corruptions != 0.0 || num("poisoned_blocks").is_some_and(|v| v != 0.0) =>
            {
                c.fail(format!("scenario {name}: control run saw corruption"));
            }
            Some("clean") | None => {}
            Some(_) => {
                if corruptions == 0.0 {
                    c.fail(format!(
                        "scenario {name}: corruption was injected but never observed"
                    ));
                } else if caught != corruptions {
                    c.fail(format!(
                        "scenario {name}: {corruptions} corrupt completions but only \
                         {caught} caught by a check"
                    ));
                }
            }
        }
        if variant == Some("corrupt-scrub") {
            scrubbed_total += num("scrubbed").unwrap_or(0.0);
        }
    });
    if !report_scenarios(doc).is_empty() {
        for (v, n) in VARIANTS.iter().zip(seen) {
            if n == 0 {
                c.fail(format!("no {v} scenario in the report"));
            }
        }
        if scrubbed_total == 0.0 {
            c.fail("scrub variants never issued a scrub read");
        }
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::tests::{assert_each_field_required, edited, set, smoke_report};

    #[test]
    fn scenario_set_shape() {
        for smoke in [false, true] {
            let set = scenarios(smoke).unwrap();
            assert_eq!(set.len(), AccessPattern::ALL.len() * VARIANTS.len());
            for s in &set {
                s.cfg.validate().unwrap();
                match s.variant {
                    "clean" => assert!(!s.cfg.integrity.active_with(&s.cfg.faults.plan)),
                    _ => {
                        assert!(s.cfg.faults.plan.has_corruption());
                        assert_eq!(s.cfg.faults.replicas, 1);
                    }
                }
                assert_eq!(s.variant == "corrupt-scrub", s.cfg.integrity.scrub);
            }
        }
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        for s in report_scenarios(&smoke_report("integrity")) {
            assert_eq!(value(s, "observed", "violations"), Some(0.0), "{s:?}");
        }
    }

    #[test]
    fn validation_names_a_dropped_field() {
        assert_each_field_required("integrity", &["run"], FIELDS);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
        let doc = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
        assert!(validate_report(&doc).unwrap_err().contains("empty"));
        // A delivered corrupt block must be rejected even if every other
        // field is in order.
        let broken = edited(&smoke_report("integrity"), "gw/corrupt", "run", |f| {
            set(f, "corrupt_delivered", 1.0)
        });
        assert!(validate_report(&broken)
            .unwrap_err()
            .contains("delivered a corrupt block"));
    }
}
