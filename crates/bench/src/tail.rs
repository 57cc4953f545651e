//! The `rapid-transit tail` harness: tail-tolerance scenarios swept over
//! every paper pattern, emitted as `BENCH_tail.json`.
//!
//! Each of the six access patterns runs under three fault modes — a
//! persistent straggler disk, a transient outage window, and a straggler
//! compounded by a node crash/rejoin — and each combination runs under
//! three mitigation policies:
//!
//! * **timeout** — the PR-7 baseline: a demand-read timeout with
//!   redirect, nothing else.
//! * **hedge** — the timeout plus hedged reads: a duplicate fetch to the
//!   next replica once a demand fetch is outstanding past the hedge
//!   delay, first completion wins.
//! * **full** — hedging plus a retry-budget token bucket and per-device
//!   circuit breakers.
//!
//! Three properties are enforced by the report validator:
//!
//! 1. **Exactly-once delivery**: `duplicate_deliveries` is zero in every
//!    run — no waiter is ever woken twice no matter how the duplicate
//!    fetches race (the verification pass also rejects it per event).
//! 2. **Budget discipline**: `budget_spent` never exceeds the bucket's
//!    capacity plus its per-completion refill times the run's disk ops.
//! 3. **Tail improvement**: under the straggler mode, the hedged
//!    policy's p99 read time is no worse than the timeout-only
//!    policy's — the whole point of duplicating slow fetches.
//!
//! Everything is deterministic; a given build either always passes or
//! always fails. The `--smoke` variant shrinks the machine for CI.

use rt_core::experiment::run_experiment;
use rt_core::faults::FaultSpecError;
use rt_core::{ExperimentConfig, RunMetrics};
use rt_patterns::SyncStyle;
use rt_sim::SimDuration;

use crate::crashes::PATTERNS;
use crate::json::Json;
use crate::sweep::{
    check_report, check_verdict, inject, machine, run_obj, Field, Scenario, SweepRun,
};

/// Demand-read timeout shared by every policy (milliseconds).
const TIMEOUT_MS: u64 = 150;

/// Fixed hedge delay for the hedged policies (milliseconds) — under the
/// paper's 30 ms disk, an x8 straggler holds a fetch for 240 ms, so the
/// hedge fires long before the timeout does.
const HEDGE_MS: u64 = 60;

/// Retry-budget token bucket for the `full` policy.
pub const BUDGET_CAPACITY: u32 = 32;
/// Tokens refilled per successful disk completion in the `full` policy.
pub const BUDGET_REFILL: f64 = 0.25;

/// The three fault modes swept per pattern.
pub const FAULT_MODES: [&str; 3] = ["straggler", "outage", "straggler-crash"];

/// The three mitigation policies swept per pattern x fault mode.
pub const POLICIES: [&str; 3] = ["timeout", "hedge", "full"];

/// Fault-spec string for a mode (exactly what `--faults` accepts, so
/// the sweep exercises the parser too). `quick` shrinks the windows to
/// the smoke machine's timescale.
fn fault_spec(mode: &str, quick: bool) -> &'static str {
    match (mode, quick) {
        ("straggler", _) => "straggler:0:x8",
        ("outage", false) => "fail:0@500ms-2500ms",
        ("outage", true) => "fail:0@40ms-400ms",
        ("straggler-crash", false) => "straggler:0:x8,crash:3@1s:rejoin@3s",
        ("straggler-crash", true) => "straggler:0:x8,crash:1@60ms:rejoin@300ms",
        _ => unreachable!("unknown fault mode {mode}"),
    }
}

/// Apply one mitigation policy's knobs. Every policy keeps the same
/// timeout and replica count so the only axis that moves is the
/// tail-tolerance machinery itself.
fn apply_policy(cfg: &mut ExperimentConfig, policy: &str) {
    cfg.faults.replicas = 1;
    cfg.faults.retry.timeout = Some(SimDuration::from_millis(TIMEOUT_MS));
    match policy {
        "timeout" => {}
        "hedge" => {
            cfg.faults.hedge.delay = Some(SimDuration::from_millis(HEDGE_MS));
        }
        "full" => {
            cfg.faults.hedge.delay = Some(SimDuration::from_millis(HEDGE_MS));
            cfg.faults.budget.capacity = Some(BUDGET_CAPACITY);
            cfg.faults.budget.refill = BUDGET_REFILL;
            cfg.faults.breaker.enabled = true;
            // Two consecutive errors trip the breaker (EWMA 0.3 then
            // 0.51): the device-health quarantine steers demand away so
            // fast that an outage only yields a couple of errors before
            // traffic is gone, and the breaker must still latch open.
            cfg.faults.breaker.error_threshold = 0.5;
        }
        other => unreachable!("unknown policy {other}"),
    }
}

/// The fixed scenario grid: six patterns x three fault modes x three
/// policies. `quick` shrinks the machine (4 nodes, 200 blocks) and the
/// fault windows for smoke tests.
pub fn scenarios(quick: bool) -> Result<Vec<Scenario>, FaultSpecError> {
    let mut out = Vec::with_capacity(PATTERNS.len() * FAULT_MODES.len() * POLICIES.len());
    for (pat_name, pattern) in PATTERNS {
        for mode in FAULT_MODES {
            for policy in POLICIES {
                let mut cfg = machine(pattern, SyncStyle::BlocksPerProc(10), quick);
                inject(&mut cfg, fault_spec(mode, quick))?;
                apply_policy(&mut cfg, policy);
                out.push(Scenario {
                    name: format!("{pat_name}-{mode}-{policy}"),
                    cfg,
                });
            }
        }
    }
    Ok(out)
}

/// Fields every per-run object in the report carries, in order, before
/// the verdict keys.
pub const FIELDS: &[Field] = &[
    ("total_ms", |m| m.total_time.as_millis_f64()),
    ("read_ms", RunMetrics::mean_read_ms),
    ("read_p99_ms", |m| m.read_quantile_ms(0.99)),
    ("hedged_p99_ms", |m| m.hedged_read_quantile_ms(0.99)),
    ("timeouts", |m| m.faults.timeouts as f64),
    ("retries", |m| m.faults.retries as f64),
    ("disk_ops", |m| m.disk_ops as f64),
    ("hedges_launched", |m| m.tail.hedges_launched as f64),
    ("hedge_wins", |m| m.tail.hedge_wins as f64),
    ("hedge_wasted", |m| m.tail.hedge_wasted as f64),
    ("hedge_cancels", |m| m.tail.hedge_cancels as f64),
    ("retries_denied", |m| m.tail.retries_denied as f64),
    ("budget_spent", |m| m.tail.budget_spent as f64),
    ("breaker_opens", |m| m.tail.breaker_opens as f64),
    ("probe_successes", |m| m.tail.probe_successes as f64),
    ("duplicate_deliveries", |m| {
        m.tail.duplicate_deliveries as f64
    }),
    ("lost_reads", |m| m.crash.lost_reads as f64),
];

/// Run every scenario and verify it: per-event soak invariants (which
/// reject any duplicate delivery the moment it happens), a livelock
/// watchdog, and the terminal leak checks.
pub fn run_sweep(quick: bool) -> Result<SweepRun, FaultSpecError> {
    let mut run = SweepRun::new(quick);
    for s in scenarios(quick)? {
        let metrics = run_experiment(&s.cfg);
        let verdict = run.verify(|| s.name.clone(), &s.cfg);
        run.push(vec![
            ("name", Json::Str(s.name)),
            ("run", run_obj(FIELDS, &metrics, Some(&verdict))),
        ]);
    }
    Ok(run)
}

/// Check that `doc` is a structurally valid tail report: correct
/// schema, the full pattern x mode x policy grid present, every run
/// carrying all counters, zero verification violations, **zero
/// duplicate deliveries**, the reads accounted for, the timeout-only
/// policy untouched by the new machinery, `budget_spent` within the
/// token bucket's bound, hedges actually firing (and breakers actually
/// opening) where their faults demand it, and the hedged policy's p99
/// read time no worse than timeout-only's under the straggler. Every
/// failure is reported, newline-joined, not just the first.
pub fn validate_report(doc: &Json) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut p99: Vec<(&str, f64)> = Vec::new();
    let mut c = check_report(doc, &["run"], FIELDS, |c, name, s| {
        seen.push(name);
        let Some(run) = s.get("run") else {
            return;
        };
        let ctx = format!("scenario {name}/run");
        check_verdict(c, run, &ctx);
        let num = |field: &str| run.get(field).and_then(Json::as_f64);
        if let Some(p) = num("read_p99_ms") {
            p99.push((name, p));
        }
        if num("duplicate_deliveries").is_some_and(|v| v != 0.0) {
            c.fail(format!("{ctx}: a waiter was delivered a block twice"));
        }
        // The timeout-only policy must be untouched by the machinery:
        // inert layers stay inert.
        if name.ends_with("-timeout") {
            for field in ["hedges_launched", "budget_spent", "breaker_opens"] {
                if num(field).is_some_and(|v| v != 0.0) {
                    c.fail(format!("{ctx}: timeout-only run has nonzero {field}"));
                }
            }
        }
        // Budget discipline: spends never exceed the initial capacity
        // plus the refills successful completions could have earned.
        if name.ends_with("-full") {
            if let (Some(spent), Some(ops)) = (num("budget_spent"), num("disk_ops")) {
                let bound = f64::from(BUDGET_CAPACITY) + BUDGET_REFILL * ops;
                if spent > bound {
                    c.fail(format!(
                        "{ctx}: budget_spent {spent} exceeds the bucket bound {bound}"
                    ));
                }
            }
        }
        // A straggled disk must provoke hedging, and an outage must trip
        // the breaker, whenever the policy enables them.
        let hedging = name.ends_with("-hedge") || name.ends_with("-full");
        if hedging
            && name.contains("-straggler-")
            && num("hedges_launched").is_some_and(|v| v == 0.0)
        {
            c.fail(format!("{ctx}: straggler run never hedged"));
        }
        if name.contains("-outage-")
            && name.ends_with("-full")
            && num("breaker_opens").is_some_and(|v| v == 0.0)
        {
            c.fail(format!("{ctx}: outage run never opened a breaker"));
        }
    });
    for (pat, _) in PATTERNS {
        for mode in FAULT_MODES {
            for policy in POLICIES {
                let want = format!("{pat}-{mode}-{policy}");
                if !seen.contains(&want.as_str()) {
                    c.fail(format!("missing scenario {want}"));
                }
            }
        }
    }
    // Tail improvement: under the pure straggler, hedging must not make
    // the p99 read time worse than waiting for the timeout.
    let p99_of = |name: &str| p99.iter().find(|(n, _)| *n == name).map(|&(_, p)| p);
    for (pat, _) in PATTERNS {
        let base = p99_of(&format!("{pat}-straggler-timeout"));
        let hedged = p99_of(&format!("{pat}-straggler-hedge"));
        if let (Some(base), Some(hedged)) = (base, hedged) {
            if hedged > base {
                c.fail(format!(
                    "{pat}-straggler: hedged p99 {hedged:.2} ms worse than \
                     timeout-only p99 {base:.2} ms"
                ));
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
            assert_eq!(set.len(), 54, "6 patterns x 3 modes x 3 policies");
            for s in &set {
                s.cfg.validate().unwrap();
                assert_eq!(s.cfg.faults.replicas, 1);
                assert!(s.cfg.faults.retry.timeout.is_some());
                let hedging = s.name.ends_with("-hedge") || s.name.ends_with("-full");
                assert_eq!(s.cfg.faults.hedge.delay.is_some(), hedging, "{}", s.name);
                assert_eq!(
                    s.cfg.faults.breaker.enabled,
                    s.name.ends_with("-full"),
                    "{}",
                    s.name
                );
                assert_eq!(
                    !s.cfg.faults.crashes.is_empty(),
                    s.name.contains("-straggler-crash-"),
                    "{}",
                    s.name
                );
            }
        }
    }

    #[test]
    fn smoke_sweep_produces_valid_report() {
        // The sweep exercised the machinery it claims to measure:
        // hedges won somewhere, and some loser was cancelled or
        // absorbed without ever double-delivering.
        let doc = smoke_report("tail");
        let results = report_scenarios(&doc);
        let wins: f64 = results
            .iter()
            .map(|s| value(s, "run", "hedge_wins").unwrap())
            .sum();
        assert!(wins > 0.0, "no hedge ever won");
        for s in results {
            assert_eq!(value(s, "run", "duplicate_deliveries"), Some(0.0), "{s:?}");
        }
    }

    #[test]
    fn validation_names_a_dropped_field() {
        assert_each_field_required("tail", &["run"], FIELDS);
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&Json::parse("{}").unwrap()).is_err());
        let doc = Json::parse(r#"{"schema":1,"smoke":true,"scenarios":[]}"#).unwrap();
        let msg = validate_report(&doc).unwrap_err();
        assert!(msg.contains("missing scenario"), "{msg}");

        let doc = smoke_report("tail");
        let broken = |name: &str, key: &str, v: f64| {
            validate_report(&edited(&doc, name, "run", |f| set(f, key, v))).unwrap_err()
        };
        // A duplicate delivery anywhere must fail validation.
        let msg = broken("gw-straggler-hedge", "duplicate_deliveries", 1.0);
        assert!(msg.contains("delivered a block twice"), "{msg}");
        // A hedged straggler p99 above the timeout-only p99 must fail.
        let msg = broken("gw-straggler-hedge", "read_p99_ms", 1e9);
        assert!(msg.contains("worse than"), "{msg}");
        // Budget overspend must fail.
        let msg = broken("gw-outage-full", "budget_spent", 1e9);
        assert!(msg.contains("bucket bound"), "{msg}");
    }
}
