//! The shared runner behind the five robustness sweeps (`faults`,
//! `crashes`, `soak`, `integrity`, `tail`).
//!
//! Each sweep module supplies only what is its own: a scenario set, a
//! field table projecting [`RunMetrics`] onto its report keys, and a
//! report validator. This module holds what they share:
//!
//! * [`verify_run`] — the single verifier. Every run a sweep reports is
//!   re-run under [`rt_sim::run_observed`] with
//!   [`World::check_soak_invariants`] after **every** event, a stall
//!   watchdog ([`STALL_WINDOW`]), an event budget ([`RUN_EVENT_BUDGET`]),
//!   and the terminal checks at drain time.
//! * [`SweepRun`] — a sweep's scenario objects plus the first verified
//!   run that failed.
//! * [`SWEEPS`] — the table the binary's single `cmd_sweep` dispatches
//!   on: name, default report file, run function, validator, and the
//!   summary columns printed from the report document.

use rt_core::faults::{parse_all_fault_specs, FaultSpecError};
use rt_core::report::Table;
use rt_core::{ExperimentConfig, ObsConfig, PrefetchConfig, RunMetrics, World};
use rt_patterns::{AccessPattern, SyncStyle, WorkloadParams};
use rt_sim::{run_observed, ObservedEnd, Scheduler};

use crate::json::{num, Check, Json};
use crate::{crashes, faults, integrity, soak, tail, FlightDump};

/// Report format version shared by every sweep report.
pub const SCHEMA: u64 = 1;

/// Per-run event backstop for [`verify_run`]; a run on either sweep
/// machine takes well under a million events, so hitting this means the
/// run diverged.
pub const RUN_EVENT_BUDGET: u64 = 20_000_000;

/// Watchdog window: this many events without a completed read means
/// livelock.
pub const STALL_WINDOW: u64 = 200_000;

/// Outcome of verifying one run.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Events the verified run dispatched.
    pub events: u64,
    /// Reads the survivors (and any rejoiner) completed.
    pub completed: u64,
    /// Unread tail of permanently dead nodes' reference strings.
    pub abandoned: u64,
    /// Reads the workload would have performed crash-free.
    pub expected: u64,
    /// First violation, if any (`None` means clean).
    pub violation: Option<String>,
    /// Flight-recorder dump of the violating run (`None` when clean).
    pub flight: Option<FlightDump>,
}

/// Run `cfg` once with the flight recorder on, checking every soak
/// invariant after every event, failing after [`STALL_WINDOW`] events
/// without a completed read or past [`RUN_EVENT_BUDGET`] events, and at
/// the end requiring a complete run, clean terminal invariants (no
/// leaked pins, leases or waiters) and every read accounted for
/// (`completed + lost + abandoned == expected`). Measurement runs
/// elsewhere; this pass proves the run was structurally sound.
pub fn verify_run(cfg: &ExperimentConfig) -> Verdict {
    let expected = rt_core::world::generate_workload(cfg).total_reads() as u64;
    let mut world = World::new(cfg.clone());
    world.enable_obs(ObsConfig::flight_recorder());
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let mut last_reads = 0u64;
    let mut last_progress_event = 0u64;
    let end = run_observed(&mut world, &mut sched, RUN_EVENT_BUDGET, |w, events| {
        w.check_soak_invariants()?;
        let reads = w.reads_done();
        if reads > last_reads {
            last_reads = reads;
            last_progress_event = events;
        } else if events - last_progress_event > STALL_WINDOW {
            return Err(format!(
                "livelock: {} events since the last completed read",
                events - last_progress_event
            ));
        }
        Ok(())
    });
    let (events, violation) = match end {
        ObservedEnd::Finished(run) => {
            let violation = if run.budget_exhausted {
                Some(format!("run exceeded the {RUN_EVENT_BUDGET}-event budget"))
            } else if !world.complete() {
                Some("run drained without terminating".into())
            } else if let Err(e) = world.check_terminal_invariants(sched.now()) {
                Some(e)
            } else {
                let done = world.reads_done();
                let lost = world.crash_metrics().lost_reads;
                let abandoned = world.abandoned_reads();
                (done + lost + abandoned != expected).then(|| {
                    format!(
                        "read accounting: {done} completed + {lost} lost + \
                         {abandoned} abandoned != {expected} expected"
                    )
                })
            };
            (run.events, violation)
        }
        ObservedEnd::Violation {
            message,
            at,
            events,
        } => (
            events,
            Some(format!("{message} (at {at:?}, event {events})")),
        ),
    };
    let flight = violation
        .as_ref()
        .and_then(|_| FlightDump::take(&mut world));
    Verdict {
        events,
        completed: world.reads_done(),
        abandoned: world.abandoned_reads(),
        expected,
        violation,
        flight,
    }
}

/// One named scenario of a sweep.
pub struct Scenario {
    /// Stable scenario name (report key).
    pub name: String,
    /// The full experiment configuration, faults and knobs included.
    pub cfg: ExperimentConfig,
}

/// Install the device faults and node crashes of `specs` on `cfg`. The
/// specs are exactly what `--faults` accepts, so the sweeps exercise the
/// parser too.
pub fn inject(cfg: &mut ExperimentConfig, specs: &str) -> Result<(), FaultSpecError> {
    (cfg.faults.plan, cfg.faults.crashes) = parse_all_fault_specs(specs)?;
    Ok(())
}

/// The paper's configuration of `pattern` under `sync`, shrunk for
/// `smoke` to 4 nodes and 4 disks reading a 200-block file.
pub fn machine(pattern: AccessPattern, sync: SyncStyle, smoke: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(pattern, sync);
    if smoke {
        cfg.procs = 4;
        cfg.disks = 4;
        cfg.workload = WorkloadParams {
            procs: 4,
            file_blocks: 200,
            total_reads: 200,
            ..WorkloadParams::paper()
        };
    }
    cfg
}

/// The two halves [`rt_core::experiment::run_pair`] measures: prefetching
/// off, and on (the paper's oracle unless `cfg` already prefetches).
pub fn halves(cfg: &ExperimentConfig) -> [(&'static str, ExperimentConfig); 2] {
    let mut base = cfg.clone();
    base.prefetch = PrefetchConfig::disabled();
    let mut prefetch = cfg.clone();
    if !prefetch.prefetch.enabled {
        prefetch.prefetch = PrefetchConfig::paper();
    }
    [("base", base), ("prefetch", prefetch)]
}

/// One report key and how a run's metrics produce it.
pub type Field = (&'static str, fn(&RunMetrics) -> f64);

/// The verdict keys the `crashes` and `tail` reports append to each run.
pub const VERDICT_KEYS: [&str; 4] = [
    "completed_reads",
    "abandoned_reads",
    "expected_reads",
    "violations",
];

/// A run's report object: every key of `fields` in order, then the
/// [`VERDICT_KEYS`] when `verdict` is given.
pub fn run_obj(fields: &[Field], m: &RunMetrics, verdict: Option<&Verdict>) -> Json {
    let mut obj: Vec<_> = fields.iter().map(|(key, f)| num(key, f(m))).collect();
    if let Some(v) = verdict {
        obj.extend([
            num("completed_reads", v.completed as f64),
            num("abandoned_reads", v.abandoned as f64),
            num("expected_reads", v.expected as f64),
            num("violations", u64::from(v.violation.is_some()) as f64),
        ]);
    }
    Json::Obj(obj)
}

/// Check a sweep report's shell — the schema, a non-empty `scenarios`
/// array, a `name` on every scenario, and every key of `fields` on each
/// of its `runs` members — and hand each named scenario to `each` for
/// the sweep's own checks. Whole-report checks go on the returned
/// [`Check`] before [`Check::finish`].
pub fn check_report<'a>(
    doc: &'a Json,
    runs: &[&str],
    fields: &[Field],
    mut each: impl FnMut(&mut Check, &'a str, &'a Json),
) -> Check {
    let mut c = Check::new();
    c.require_schema(doc, SCHEMA);
    for (i, s) in c.array(doc, "scenarios").iter().enumerate() {
        let Some(name) = c.string(s, "name", &format!("scenario {i}")) else {
            continue;
        };
        for member in runs {
            let Some(run) = s.get(member) else {
                c.fail(format!("scenario {name}: missing {member}"));
                continue;
            };
            for (key, _) in fields {
                c.num(run, key, &format!("scenario {name}/{member}"));
            }
        }
        each(&mut c, name, s);
    }
    c
}

/// Require scenario `name`'s `member` object (`{events, violations}`,
/// summing verified runs) to report zero violations over at least
/// `min_events` events.
pub fn check_verified(c: &mut Check, name: &str, s: &Json, member: &str, min_events: u64) {
    let Some(obj) = s.get(member) else {
        c.fail(format!("scenario {name}: missing {member}"));
        return;
    };
    let ctx = format!("scenario {name}/{member}");
    if c.num(obj, "violations", &ctx).is_some_and(|v| v != 0.0) {
        c.fail(format!("{ctx}: verification reported violations"));
    }
    if let Some(events) = c.num(obj, "events", &ctx) {
        if events < min_events as f64 {
            c.fail(format!(
                "{ctx}: {events} events dispatched, below the {min_events} floor"
            ));
        }
    }
}

/// Require the [`VERDICT_KEYS`] on `run`, zero violations, and every read
/// accounted for: `completed + lost + abandoned == expected > 0`.
pub fn check_verdict(c: &mut Check, run: &Json, ctx: &str) {
    c.nums(run, &VERDICT_KEYS, ctx);
    let num = |field: &str| run.get(field).and_then(Json::as_f64);
    if num("violations").is_some_and(|v| v != 0.0) {
        c.fail(format!("{ctx}: verification reported violations"));
    }
    if let (Some(completed), Some(lost), Some(abandoned), Some(expected)) = (
        num("completed_reads"),
        num("lost_reads"),
        num("abandoned_reads"),
        num("expected_reads"),
    ) {
        if completed + lost + abandoned != expected {
            c.fail(format!(
                "{ctx}: {completed} completed + {lost} lost + {abandoned} \
                 abandoned != {expected} expected"
            ));
        }
        if expected <= 0.0 {
            c.fail(format!("{ctx}: empty workload"));
        }
    }
}

/// A sweep's output: its report's scenario objects and the first verified
/// run that failed.
pub struct SweepRun {
    smoke: bool,
    scenarios: Vec<Json>,
    /// The first failing verdict, labelled with its scenario (and half).
    pub failure: Option<(String, Verdict)>,
}

impl SweepRun {
    /// An empty full (or `smoke`) sweep.
    pub fn new(smoke: bool) -> Self {
        SweepRun {
            smoke,
            scenarios: Vec::new(),
            failure: None,
        }
    }

    /// [`verify_run`] `cfg`, keeping the verdict as the sweep's failure
    /// if it is the first to fail.
    pub fn verify(&mut self, label: impl FnOnce() -> String, cfg: &ExperimentConfig) -> Verdict {
        let verdict = verify_run(cfg);
        self.note(label, &verdict);
        verdict
    }

    /// Keep `verdict` as the sweep's failure if it failed and is the
    /// first to.
    pub fn note(&mut self, label: impl FnOnce() -> String, verdict: &Verdict) {
        if verdict.violation.is_some() && self.failure.is_none() {
            self.failure = Some((label(), verdict.clone()));
        }
    }

    /// Append one scenario object to the report.
    pub fn push(&mut self, scenario: Vec<(&str, Json)>) {
        self.scenarios.push(Json::Obj(
            scenario
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        ));
    }

    /// The report document. Reports are regenerated wholesale on each run
    /// (scenarios are deterministic, so entries only change when the code
    /// does).
    pub fn report(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Num(SCHEMA as f64)),
            ("smoke".into(), Json::Bool(self.smoke)),
            ("scenarios".into(), Json::Arr(self.scenarios.clone())),
        ])
    }
}

/// One robustness sweep, as the binary's `cmd_sweep` drives it.
pub struct Sweep {
    /// Subcommand name.
    pub name: &'static str,
    /// Report file written (or checked) without `--out`.
    pub report: &'static str,
    /// Run every scenario, full or smoke-sized.
    pub run: fn(bool) -> Result<SweepRun, FaultSpecError>,
    /// The report validator; no report that fails it is written.
    pub validate: fn(&Json) -> Result<(), String>,
    /// Summary-table columns, as (scenario member, key).
    pub columns: &'static [(&'static str, &'static str)],
}

/// The five robustness sweeps.
pub static SWEEPS: [Sweep; 5] = [
    Sweep {
        name: "faults",
        report: "BENCH_faults.json",
        run: faults::run_sweep,
        validate: faults::validate_report,
        columns: &[
            ("base", "total_ms"),
            ("prefetch", "total_ms"),
            ("prefetch", "io_errors"),
            ("prefetch", "retries"),
            ("prefetch", "timeouts"),
            ("prefetch", "degraded_time_ms"),
        ],
    },
    Sweep {
        name: "crashes",
        report: "BENCH_crash.json",
        run: crashes::run_sweep,
        validate: crashes::validate_report,
        columns: &[
            ("base", "total_ms"),
            ("prefetch", "total_ms"),
            ("prefetch", "crashes"),
            ("prefetch", "rejoins"),
            ("prefetch", "lost_reads"),
            ("prefetch", "orphaned_ios"),
            ("prefetch", "redistributed_prefetches"),
        ],
    },
    Sweep {
        name: "soak",
        report: "BENCH_overload.json",
        run: soak::run_sweep,
        validate: soak::validate_report,
        columns: &[
            ("base", "total_ms"),
            ("prefetch", "total_ms"),
            ("prefetch", "prefetches_shed"),
            ("prefetch", "prefetches_throttled"),
            ("prefetch", "demand_parked"),
            ("soak", "events"),
            ("soak", "runs"),
        ],
    },
    Sweep {
        name: "integrity",
        report: "BENCH_integrity.json",
        run: integrity::run_sweep,
        validate: integrity::validate_report,
        columns: &[
            ("run", "total_ms"),
            ("run", "corruptions"),
            ("run", "detections"),
            ("run", "repairs"),
            ("run", "scrubbed"),
            ("run", "poisoned_blocks"),
            ("observed", "events"),
        ],
    },
    Sweep {
        name: "tail",
        report: "BENCH_tail.json",
        run: tail::run_sweep,
        validate: tail::validate_report,
        columns: &[
            ("run", "total_ms"),
            ("run", "read_p99_ms"),
            ("run", "hedges_launched"),
            ("run", "hedge_wins"),
            ("run", "retries_denied"),
            ("run", "breaker_opens"),
            ("run", "duplicate_deliveries"),
        ],
    },
];

/// The sweep named `name`.
pub fn find(name: &str) -> Option<&'static Sweep> {
    SWEEPS.iter().find(|s| s.name == name)
}

/// The scenarios of a report document (empty when malformed).
pub fn report_scenarios(doc: &Json) -> &[Json] {
    doc.get("scenarios").and_then(Json::as_array).unwrap_or(&[])
}

/// The number at `member.key` of one scenario object.
pub fn value(scenario: &Json, member: &str, key: &str) -> Option<f64> {
    scenario.get(member)?.get(key)?.as_f64()
}

/// Render `doc`'s scenarios as the sweep's summary table.
pub fn summary_table(sweep: &Sweep, doc: &Json) -> String {
    let mut header = vec!["scenario".to_string()];
    header.extend(sweep.columns.iter().map(|(m, k)| format!("{m} {k}")));
    let mut t = Table::new(&header.iter().map(String::as_str).collect::<Vec<_>>());
    for s in report_scenarios(doc) {
        let mut row = vec![s
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()];
        row.extend(sweep.columns.iter().map(|(m, k)| match value(s, m, k) {
            Some(v) if v == v.trunc() => format!("{v}"),
            Some(v) => format!("{v:.2}"),
            None => "-".into(),
        }));
        t.row(&row);
    }
    t.render()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The smoke report of sweep `name`, run once per test binary, after
    /// checking that no verified run failed, that every summary column is
    /// in the report, and that the report — and its reparsed text, as it
    /// would be written — passes validation.
    pub(crate) fn smoke_report(name: &str) -> Json {
        static RUNS: [OnceLock<SweepRun>; 5] = [const { OnceLock::new() }; 5];
        let i = SWEEPS.iter().position(|s| s.name == name).unwrap();
        let run = RUNS[i].get_or_init(|| (SWEEPS[i].run)(true).unwrap());
        assert!(run.failure.is_none(), "{name}: {:?}", run.failure);
        let doc = run.report();
        for s in report_scenarios(&doc) {
            for (m, k) in SWEEPS[i].columns {
                assert!(
                    value(s, m, k).is_some(),
                    "{name}: no summary column {m} {k}"
                );
            }
        }
        (SWEEPS[i].validate)(&doc).unwrap();
        (SWEEPS[i].validate)(&Json::parse(&doc.pretty()).unwrap()).unwrap();
        doc
    }

    /// A copy of `doc` with `edit` applied to the `member` object of the
    /// scenario named `name`.
    pub(crate) fn edited(
        doc: &Json,
        name: &str,
        member: &str,
        edit: impl FnOnce(&mut Vec<(String, Json)>),
    ) -> Json {
        let mut doc = doc.clone();
        let Json::Obj(top) = &mut doc else {
            panic!("report is an object")
        };
        let Some((_, Json::Arr(items))) = top.iter_mut().find(|(k, _)| k == "scenarios") else {
            panic!("report has a scenario array")
        };
        let scenario = items
            .iter_mut()
            .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no scenario {name}"));
        let Json::Obj(members) = scenario else {
            panic!("scenario is an object")
        };
        let Some((_, Json::Obj(fields))) = members.iter_mut().find(|(k, _)| k == member) else {
            panic!("scenario {name} has no {member} object")
        };
        edit(fields);
        doc
    }

    /// Set `key` in a run object's fields to `v`.
    pub(crate) fn set(fields: &mut [(String, Json)], key: &str, v: f64) {
        fields.iter_mut().find(|(k, _)| k == key).expect(key).1 = Json::Num(v);
    }

    /// Drop each key of `fields` in turn from each `member` of the first
    /// scenario of sweep `name`'s smoke report, and require validation to
    /// fail naming that key.
    pub(crate) fn assert_each_field_required(name: &str, members: &[&str], fields: &[Field]) {
        let doc = smoke_report(name);
        let first = report_scenarios(&doc)[0].get("name").and_then(Json::as_str);
        for member in members {
            for (key, _) in fields {
                let broken = edited(&doc, first.unwrap(), member, |f| {
                    f.retain(|(k, _)| k != key)
                });
                let err = (find(name).unwrap().validate)(&broken).unwrap_err();
                assert!(err.contains(&format!("missing {key}")), "{key}: {err}");
            }
        }
    }

    #[test]
    fn verify_run_passes_on_a_clean_crash_run() {
        let cfg = &crashes::scenarios(true).unwrap()[0].cfg;
        let v = verify_run(cfg);
        assert!(v.violation.is_none(), "{:?}", v.violation);
        assert!(v.completed > 0);
        assert!(v.completed < v.expected, "a crash-early run loses reads");
    }

    #[test]
    fn summary_table_reads_the_report() {
        let doc = Json::parse(
            r#"{"schema":1,"smoke":true,"scenarios":[{"name":"x",
                "run":{"total_ms":12.5,"read_p99_ms":3,"hedges_launched":2}}]}"#,
        )
        .unwrap();
        let table = summary_table(find("tail").unwrap(), &doc);
        let row = table.lines().nth(2).unwrap();
        assert!(row.contains("12.50"), "{table}");
        assert!(row.trim_start().starts_with('x'), "{table}");
        assert!(row.contains('-'), "missing keys render as '-': {table}");
        assert!(table
            .lines()
            .next()
            .unwrap()
            .contains("run hedges_launched"));
    }
}
