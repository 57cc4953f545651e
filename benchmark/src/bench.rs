//! The workloads, and the three stages that measure them: an untimed
//! warm-up that records each configuration's reference results, timed
//! rounds interleaved across workloads, and a traced pass that times every
//! `World::handle` call by event kind.
//!
//! The simulator is driven only through its public API, so every layer is
//! measured from outside and no program code changes for the benchmark.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use rt_core::experiment::RunHandle;
use rt_core::faults::parse_all_fault_specs;
use rt_core::obs::{COMPONENTS, COMPONENT_NAMES};
use rt_core::patterns::{AccessPattern, SyncStyle};
use rt_core::sim::{run_with_stats, Model, Scheduler, SimDuration};
use rt_core::sweeps::parallel_map;
use rt_core::world::generate_workload;
use rt_core::{
    paper_grid, run_experiment_traced, AdmissionConfig, Ev, ExperimentConfig, PrefetchConfig,
    RunMetrics, World,
};

use crate::alloc;
use crate::stats::{mad, median, quantile};

/// The workloads, in the order rounds interleave them.
pub const WORKLOADS: [&str; 4] = [
    "slice-base",
    "slice-prefetch",
    "slice-all-layers",
    "paper-grid",
];

/// Patterns of the slices: one global-whole-file (the oracle-scan memo is
/// live), one local-portion, one global-random.
const SLICE_PATTERNS: [AccessPattern; 3] = [
    AccessPattern::GlobalWholeFile,
    AccessPattern::LocalFixedPortions,
    AccessPattern::GlobalRandomPortions,
];

/// The paper's 2,000-block file scaled ×8, so one run is long enough to
/// time on its own.
const SLICE_BLOCKS: u32 = 16_000;

/// Device faults of `slice-all-layers`: a straggler (hedges, breaker), a
/// flaky disk (retries, timeouts) and silent corruption (verify, repair).
const ALL_LAYER_FAULTS: &str = "straggler:0:x8,flaky:3:p0.05,corrupt:5:p0.02";

/// Backstop on events per run, as in the simulator's own runners.
const MAX_EVENTS: u64 = 500_000_000;

/// Worker threads of every round's `parallel_map`. On a shared 2-CPU host,
/// two threads doubled the run-to-run spread of `paper-grid` (7–10% of the
/// median against 4–6%), because load from other tenants then slows both.
pub const THREADS: usize = 1;

/// One workload: its configurations and how a round repeats them.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The configurations, each seeded from `--seed`.
    pub configs: Vec<ExperimentConfig>,
    /// Times a round runs every configuration.
    pub reps: usize,
}

impl Workload {
    /// The workload called `name`, with every configuration seeded `seed`.
    pub fn named(name: &str, seed: u64) -> Result<Workload, String> {
        let slice = |prefetch: bool| -> Vec<ExperimentConfig> {
            SLICE_PATTERNS
                .iter()
                .map(|&pattern| {
                    let mut cfg =
                        ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
                    cfg.workload.file_blocks = SLICE_BLOCKS;
                    cfg.workload.total_reads = SLICE_BLOCKS;
                    if prefetch {
                        cfg.prefetch = PrefetchConfig::paper();
                    }
                    cfg
                })
                .collect()
        };
        // A round holds at least 100 trials, so its p90 has ten samples
        // beyond it, and lasts 1–3 s on a 2-CPU host.
        let (name, mut configs, reps) = match name {
            "slice-base" => ("slice-base", slice(false), 40),
            "slice-prefetch" => ("slice-prefetch", slice(true), 34),
            "slice-all-layers" => (
                "slice-all-layers",
                slice(true).into_iter().map(all_layers).collect(),
                34,
            ),
            "paper-grid" => ("paper-grid", grid(), 10),
            other => {
                return Err(format!(
                    "unknown workload {other:?} (use {})",
                    WORKLOADS.join(", ")
                ))
            }
        };
        for cfg in &mut configs {
            cfg.seed = seed;
            cfg.validate()
                .map_err(|e| format!("{name}: {}: {e}", cfg.label()))?;
        }
        Ok(Workload {
            name,
            configs,
            reps,
        })
    }

    /// Trials in one timed round.
    pub fn trials_per_round(&self) -> usize {
        self.reps * self.configs.len()
    }
}

/// The §IV-D grid with prefetching off and on: 92 experiments.
fn grid() -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for cfg in paper_grid() {
        let mut pf = cfg.clone();
        pf.prefetch = PrefetchConfig::paper();
        configs.push(cfg);
        configs.push(pf);
    }
    configs
}

/// Turn on every optional layer except crashes.
fn all_layers(mut cfg: ExperimentConfig) -> ExperimentConfig {
    let (plan, crashes) =
        parse_all_fault_specs(ALL_LAYER_FAULTS).expect("the fault list is well formed");
    assert!(crashes.is_empty(), "crashes are not part of this workload");
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
    cfg
}

/// The optional layers live in `cfg`, for the report.
pub fn live_layers(cfg: &ExperimentConfig) -> Vec<&'static str> {
    let f = &cfg.faults;
    [
        ("prefetch", cfg.prefetch.enabled),
        ("faults", !f.plan.is_empty()),
        ("crashes", !f.crashes.is_empty()),
        ("replicas", f.replicas > 0),
        ("timeout", f.retry.timeout.is_some()),
        ("hedge", f.hedge.delay.is_some()),
        ("retry_budget", f.budget.capacity.is_some()),
        ("breaker", f.breaker.enabled),
        ("integrity", cfg.integrity.active_with(&f.plan)),
        ("scrub", cfg.integrity.scrub),
        ("queue_depth", cfg.queue_depth.is_some()),
        ("admission", cfg.admission.enabled),
    ]
    .into_iter()
    .filter_map(|(name, on)| on.then_some(name))
    .collect()
}

/// The fields that pin a run bit for bit: total time, read-time total,
/// ready and unready hits, misses, disk operations and prefetches.
type Fingerprint = [u64; 7];

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

/// Invariants every run must satisfy, whatever its configuration.
fn check_run(cfg: &ExperimentConfig, m: &RunMetrics) -> Result<(), String> {
    let reads = m.total_reads();
    if reads != u64::from(cfg.workload.total_reads) {
        return Err(format!(
            "{} reads, expected {}",
            reads, cfg.workload.total_reads
        ));
    }
    if m.ready_hits + m.unready_hits + m.misses != reads {
        return Err("ready + unready hits + misses != reads".into());
    }
    if m.integrity.corrupt_delivered != 0 {
        return Err(format!(
            "{} corrupt blocks delivered",
            m.integrity.corrupt_delivered
        ));
    }
    if m.tail.duplicate_deliveries != 0 {
        return Err(format!(
            "{} duplicate deliveries",
            m.tail.duplicate_deliveries
        ));
    }
    Ok(())
}

/// `World::handle` event kinds the traced pass times separately. Variants
/// not named here fall into `other`, so a new variant never breaks the
/// build.
pub const KINDS: [&str; 13] = [
    "start",
    "compute_done",
    "read_finished",
    "lookup_done",
    "miss_issue",
    "retry_miss",
    "disk_done",
    "retry_io",
    "io_timeout",
    "hedge",
    "action_end",
    "verify_done",
    "other",
];
/// Index of `action_end` in [`KINDS`].
const ACTION_END: usize = 10;

fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Start(_) => 0,
        Ev::ComputeDone(_) => 1,
        Ev::ReadFinished(_) => 2,
        Ev::LookupDone(_) => 3,
        Ev::MissIssue(_) => 4,
        Ev::RetryMiss(_) => 5,
        Ev::DiskDone(_) => 6,
        Ev::RetryIo(_) => 7,
        Ev::IoTimeout(_) => 8,
        Ev::Hedge(_) => 9,
        Ev::ActionEnd(_) => ACTION_END,
        Ev::VerifyDone(_) => 11,
        _ => 12,
    }
}

/// A [`World`] whose every `handle` call is timed and counted by kind.
struct Timed {
    world: World,
    ns: [u64; KINDS.len()],
    events: [u64; KINDS.len()],
}

impl Model for Timed {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        let k = kind(&event);
        let start = Instant::now();
        self.world.handle(event, sched);
        self.ns[k] += start.elapsed().as_nanos() as u64;
        self.events[k] += 1;
    }
}

/// One experiment driven as `World` + `run_with_stats`, timed by stage.
#[derive(Default)]
struct EngineRun {
    generate_ns: u64,
    build_ns: u64,
    loop_ns: u64,
    events: u64,
    peak_pending: u64,
    disk_ops: u64,
    handle_ns: [u64; KINDS.len()],
    kind_events: [u64; KINDS.len()],
}

/// Run `cfg` to completion through the engine, wrapping the world in the
/// per-kind timer when `timed`.
fn engine_run(cfg: &ExperimentConfig, timed: bool) -> EngineRun {
    let t0 = Instant::now();
    let workload = Arc::new(generate_workload(cfg));
    let t1 = Instant::now();
    let world = World::with_workload(cfg.clone(), workload);
    let mut sched = Scheduler::new();
    world.bootstrap(&mut sched);
    let t2 = Instant::now();
    let mut run = EngineRun {
        generate_ns: (t1 - t0).as_nanos() as u64,
        build_ns: (t2 - t1).as_nanos() as u64,
        ..EngineRun::default()
    };
    let (stats, world) = if timed {
        let mut t = Timed {
            world,
            ns: [0; KINDS.len()],
            events: [0; KINDS.len()],
        };
        let stats = run_with_stats(&mut t, &mut sched, MAX_EVENTS);
        run.handle_ns = t.ns;
        run.kind_events = t.events;
        (stats, t.world)
    } else {
        let mut world = world;
        let stats = run_with_stats(&mut world, &mut sched, MAX_EVENTS);
        (stats, world)
    };
    assert!(
        !stats.outcome.budget_exhausted && world.complete(),
        "{}: the run did not complete",
        cfg.label()
    );
    run.loop_ns = stats.wall.as_nanos() as u64;
    run.events = stats.outcome.events;
    run.peak_pending = stats.peak_pending as u64;
    run.disk_ops = world.fs().disks().total_ops();
    run
}

/// A configuration's warm-up results, which every later run must match.
struct Reference {
    fingerprint: Fingerprint,
    events: u64,
    disk_ops: u64,
}

/// Per-layer counters summed over the workload's configurations.
type Counter = (&'static str, fn(&RunMetrics) -> u64);
const COUNTERS: [Counter; 18] = [
    ("cache.unready_hits", |m| m.unready_hits),
    ("cache.misses", |m| m.misses),
    ("cache.alloc_retries", |m| m.alloc_retries),
    ("daemon.prefetches", |m| m.prefetches),
    ("daemon.failed_actions", |m| m.failed_actions),
    ("disk.ops", |m| m.disk_ops),
    ("barrier.episodes", |m| m.barriers),
    ("faults.retries", |m| m.faults.retries),
    ("faults.timeouts", |m| m.faults.timeouts),
    ("tail.hedges_launched", |m| m.tail.hedges_launched),
    ("tail.retries_denied", |m| m.tail.retries_denied),
    ("tail.breaker_opens", |m| m.tail.breaker_opens),
    ("integrity.detections", |m| m.integrity.detections),
    ("integrity.repairs", |m| m.integrity.repairs),
    ("integrity.scrubbed", |m| m.integrity.scrubbed),
    ("admission.prefetches_throttled", |m| {
        m.overload.prefetches_throttled
    }),
    ("admission.prefetches_shed", |m| m.overload.prefetches_shed),
    ("admission.demand_parked", |m| m.overload.demand_parked),
];

/// Simulated results summed over one run of each configuration. All of it
/// is deterministic for a given seed.
#[derive(Default)]
struct SimSums {
    configs: u64,
    reads: u64,
    read_ns: u64,
    total_time_ns: u64,
    hits: u64,
    hedge_wins: u64,
    overrun_ns: u64,
    idle_ns: u64,
    utilization: f64,
    disk_response_ns: u64,
    disk_responses: u64,
    disk_response_samples: Vec<f64>,
    lock_wait_ns: u64,
    lock_waits: u64,
    sync_wait_ns: u64,
    sync_waits: u64,
    counters: [u64; COUNTERS.len()],
    attribution_ns: [u64; COMPONENTS],
    events: u64,
    kind_events: [u64; KINDS.len()],
    peak_pending: u64,
}

impl SimSums {
    fn add(&mut self, m: &RunMetrics, trace: &rt_core::Trace, run: &EngineRun) {
        self.configs += 1;
        self.reads += m.total_reads();
        self.read_ns += m.reads.total().as_nanos();
        self.total_time_ns += m.total_time.as_nanos();
        self.hits += m.ready_hits + m.unready_hits;
        self.hedge_wins += m.tail.hedge_wins;
        self.overrun_ns += m.overrun.total().as_nanos();
        self.idle_ns += m.idle_actual.total().as_nanos();
        self.utilization += m.disk_utilization;
        self.disk_response_ns += m.disk_response.total().as_nanos();
        self.disk_responses += m.disk_response.count();
        self.disk_response_samples.extend(
            m.disk_response_times
                .samples()
                .iter()
                .map(|d| d.as_millis_f64()),
        );
        self.lock_wait_ns += m.lock_wait.total().as_nanos();
        self.lock_waits += m.lock_wait.count();
        self.sync_wait_ns += m.sync_wait.total().as_nanos();
        self.sync_waits += m.sync_wait.count();
        for (sum, (_, get)) in self.counters.iter_mut().zip(COUNTERS) {
            *sum += get(m);
        }
        for e in trace.events() {
            for (sum, ns) in self.attribution_ns.iter_mut().zip(e.attr.ns) {
                *sum += ns;
            }
        }
        self.events += run.events;
        for (sum, n) in self.kind_events.iter_mut().zip(run.kind_events) {
            *sum += n;
        }
        self.peak_pending = self.peak_pending.max(run.peak_pending);
    }
}

/// One timed experiment.
#[derive(Clone, Copy)]
struct Trial {
    cfg: usize,
    setup_ns: u64,
    finish_ns: u64,
    ok: bool,
}

/// Run `cfg` as `RunHandle::start` then `finish`, and check the result
/// against its reference. A panic counts as a failed trial.
fn trial(cfg: &ExperimentConfig, index: usize, reference: &Reference) -> Trial {
    let start = Instant::now();
    let mut setup_ns = 0;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let handle = RunHandle::start(cfg);
        setup_ns = start.elapsed().as_nanos() as u64;
        handle.finish()
    }));
    let total_ns = start.elapsed().as_nanos() as u64;
    let ok = matches!(&result, Ok(m)
        if fingerprint(m) == reference.fingerprint && check_run(cfg, m).is_ok());
    Trial {
        cfg: index,
        setup_ns,
        finish_ns: total_ns.saturating_sub(setup_ns),
        ok,
    }
}

/// One timed round of one workload.
struct Round {
    trials: Vec<Trial>,
    wall_ns: u64,
    peak_bytes: usize,
}

/// Totals of the traced pass.
#[derive(Default)]
struct Traced {
    runs: u64,
    generate_ns: u64,
    build_ns: u64,
    loop_ns: u64,
    plain_loop_ns: u64,
    events: u64,
    handle_ns: [u64; KINDS.len()],
}

/// A metric as measured: its value, the MAD of its per-round values for
/// host-time metrics, and the sample count behind a percentile.
#[derive(Debug)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Median absolute deviation across rounds.
    pub mad: Option<f64>,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

impl Metric {
    fn plain(value: f64) -> Self {
        Metric {
            value,
            mad: None,
            samples: None,
        }
    }
}

/// What one workload measured.
pub struct WorkloadResult {
    /// The workload's name.
    pub name: &'static str,
    /// Trials in each timed round.
    pub trials_per_round: usize,
    /// Each configuration's label and live optional layers.
    pub configs: Vec<(String, Vec<&'static str>)>,
    /// Timed trials run.
    pub attempted: usize,
    /// Timed trials that panicked or whose output was wrong.
    pub failed: usize,
    /// Failed checks outside the timed trials (warm-up, traced pass).
    pub problems: Vec<String>,
    /// Every metric measured, by name.
    pub metrics: BTreeMap<String, Metric>,
}

/// A workload being measured.
struct State {
    workload: Workload,
    refs: Vec<Reference>,
    sums: SimSums,
    problems: Vec<String>,
    rounds: Vec<Round>,
    traced: Option<Traced>,
}

impl State {
    /// The untimed warm-up: one traced run per configuration records its
    /// reference fingerprint, simulated metrics and event counts.
    fn warm_up(workload: Workload) -> State {
        let mut refs = Vec::new();
        let mut sums = SimSums::default();
        let mut problems = Vec::new();
        for cfg in &workload.configs {
            let (m, trace) = run_experiment_traced(cfg);
            let run = engine_run(cfg, true);
            if let Err(e) = check_run(cfg, &m) {
                problems.push(format!("warm-up {}: {e}", cfg.label()));
            }
            let attributed: u64 = trace.events().iter().map(|e| e.attr.sum()).sum();
            if attributed != m.reads.total().as_nanos() {
                problems.push(format!(
                    "warm-up {}: attribution does not sum to read time",
                    cfg.label()
                ));
            }
            if run.disk_ops != m.disk_ops || run.kind_events.iter().sum::<u64>() != run.events {
                problems.push(format!(
                    "warm-up {}: engine run disagrees with the experiment",
                    cfg.label()
                ));
            }
            sums.add(&m, &trace, &run);
            refs.push(Reference {
                fingerprint: fingerprint(&m),
                events: run.events,
                disk_ops: run.disk_ops,
            });
        }
        State {
            workload,
            refs,
            sums,
            problems,
            rounds: Vec::new(),
            traced: None,
        }
    }

    /// One timed round: every configuration `reps` times, through the
    /// sweep scheduler.
    fn round(&mut self) {
        let w = &self.workload;
        let items: Vec<usize> = (0..w.reps).flat_map(|_| 0..w.configs.len()).collect();
        alloc::reset_peak();
        let start = Instant::now();
        let trials = parallel_map(&items, THREADS, |&i| trial(&w.configs[i], i, &self.refs[i]));
        let wall_ns = start.elapsed().as_nanos() as u64;
        self.rounds.push(Round {
            trials,
            wall_ns,
            peak_bytes: alloc::peak_bytes(),
        });
    }

    /// The traced pass: each configuration run with the per-kind timer and
    /// without it, alternately, a quarter of a round's repetitions.
    fn traced_pass(&mut self) {
        let mut t = Traced::default();
        for _ in 0..(self.workload.reps / 4).max(1) {
            for (cfg, r) in self.workload.configs.iter().zip(&self.refs) {
                let plain = engine_run(cfg, false);
                let timed = engine_run(cfg, true);
                if timed.events != r.events || timed.disk_ops != r.disk_ops {
                    self.problems
                        .push(format!("traced pass {}: run diverged", cfg.label()));
                }
                t.runs += 1;
                t.generate_ns += timed.generate_ns;
                t.build_ns += timed.build_ns;
                t.loop_ns += timed.loop_ns;
                t.plain_loop_ns += plain.loop_ns;
                t.events += timed.events;
                for (sum, ns) in t.handle_ns.iter_mut().zip(timed.handle_ns) {
                    *sum += ns;
                }
            }
        }
        self.traced = Some(t);
    }

    fn finish(self, clock_ns: f64) -> WorkloadResult {
        let trials: Vec<Trial> = self.rounds.iter().flat_map(|r| r.trials.clone()).collect();
        let mut metrics = BTreeMap::new();
        let mut put = |name: &str, m: Metric| {
            metrics.insert(name.to_string(), m);
        };
        // A host-time metric is computed per round and reported as the
        // median over rounds, with their MAD: a burst of load from other
        // processes slows whole rounds, and the median discards them as
        // long as they are fewer than half.
        let host = |per_round: &dyn Fn(&Round) -> f64| {
            let values: Vec<f64> = self.rounds.iter().map(per_round).collect();
            Metric {
                value: median(&values),
                mad: Some(mad(&values)),
                samples: None,
            }
        };
        let of_trials =
            |r: &Round, f: &dyn Fn(&Trial) -> f64| -> Vec<f64> { r.trials.iter().map(f).collect() };
        put(
            "events_per_s",
            host(&|r| {
                median(&of_trials(r, &|t| {
                    self.refs[t.cfg].events as f64 / (t.finish_ns.max(1) as f64 * 1e-9)
                }))
            }),
        );
        put(
            "runs_per_s",
            host(&|r| r.trials.len() as f64 / (r.wall_ns as f64 * 1e-9)),
        );
        for (name, q) in [("run_ms_p50", 0.5), ("run_ms_p90", 0.9)] {
            let run_ms = |t: &Trial| (t.setup_ns + t.finish_ns) as f64 * 1e-6;
            put(
                name,
                Metric {
                    samples: Some(self.workload.trials_per_round()),
                    ..host(&|r| quantile(&of_trials(r, &run_ms), q))
                },
            );
        }
        put(
            "setup_s",
            host(&|r| median(&of_trials(r, &|t| t.setup_ns as f64 * 1e-9))),
        );
        put("peak_heap_mb", host(&|r| r.peak_bytes as f64 * 1e-6));
        let s = &self.sums;
        put(
            "sim_read_ms",
            Metric::plain(s.read_ns as f64 / s.reads as f64 * 1e-6),
        );
        put(
            "sim_total_s",
            Metric::plain(s.total_time_ns as f64 / s.configs as f64 * 1e-9),
        );

        if let Some(t) = &self.traced {
            let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
            let handled: u64 = t.handle_ns.iter().sum();
            put("sim.events", Metric::plain(s.events as f64));
            put(
                "sim.dispatch_ns",
                Metric::plain(ratio(
                    t.loop_ns.saturating_sub(handled) as f64,
                    t.events as f64,
                )),
            );
            put("sim.peak_pending", Metric::plain(s.peak_pending as f64));
            for (k, name) in KINDS.iter().enumerate() {
                put(
                    &format!("world.{name}.events"),
                    Metric::plain(s.kind_events[k] as f64),
                );
                put(
                    &format!("world.{name}.share"),
                    Metric::plain(ratio(t.handle_ns[k] as f64, t.loop_ns as f64)),
                );
            }
            put(
                "patterns.generate_us",
                Metric::plain(t.generate_ns as f64 / t.runs as f64 * 1e-3),
            );
            put(
                "world.build_us",
                Metric::plain(t.build_ns as f64 / t.runs as f64 * 1e-3),
            );
            let busy_ns: u64 = trials.iter().map(|t| t.setup_ns + t.finish_ns).sum();
            let wall_ns: u64 = self.rounds.iter().map(|r| r.wall_ns).sum();
            put(
                "sweeps.busy_ratio",
                Metric::plain(ratio(busy_ns as f64, (THREADS as u64 * wall_ns) as f64)),
            );
            for ((name, _), sum) in COUNTERS.iter().zip(s.counters) {
                put(name, Metric::plain(sum as f64));
            }
            let counter = |name: &str| {
                let i = COUNTERS.iter().position(|(n, _)| *n == name);
                s.counters[i.expect("a declared counter")] as f64
            };
            let prefetches = counter("daemon.prefetches");
            put(
                "cache.hit_ratio",
                Metric::plain(ratio(s.hits as f64, s.reads as f64)),
            );
            put(
                "cache.prefetch_used_ratio",
                Metric::plain(ratio(s.hits as f64, prefetches)),
            );
            put(
                "daemon.issue_ratio",
                Metric::plain(ratio(prefetches, s.kind_events[ACTION_END] as f64)),
            );
            put(
                "daemon.overrun_share",
                Metric::plain(ratio(s.overrun_ns as f64, s.idle_ns as f64)),
            );
            put(
                "disk.utilization",
                Metric::plain(s.utilization / s.configs as f64),
            );
            put(
                "disk.response_ms",
                Metric::plain(ratio(s.disk_response_ns as f64, s.disk_responses as f64) * 1e-6),
            );
            put(
                "disk.response_ms_p99",
                Metric {
                    value: quantile(&s.disk_response_samples, 0.99),
                    mad: None,
                    samples: Some(s.disk_response_samples.len()),
                },
            );
            put(
                "lock.wait_ms",
                Metric::plain(ratio(s.lock_wait_ns as f64, s.lock_waits as f64) * 1e-6),
            );
            put(
                "barrier.sync_wait_ms",
                Metric::plain(ratio(s.sync_wait_ns as f64, s.sync_waits as f64) * 1e-6),
            );
            for (name, ns) in COMPONENT_NAMES.iter().zip(s.attribution_ns) {
                put(
                    &format!("read.{name}.share"),
                    Metric::plain(ratio(ns as f64, s.read_ns as f64)),
                );
            }
            put(
                "tail.hedge_win_ratio",
                Metric::plain(ratio(s.hedge_wins as f64, counter("tail.hedges_launched"))),
            );
            put("bench.clock_ns", Metric::plain(clock_ns));
            put(
                "bench.trace_overhead",
                Metric::plain(ratio(t.loop_ns as f64, t.plain_loop_ns as f64)),
            );
        }

        WorkloadResult {
            name: self.workload.name,
            trials_per_round: self.workload.trials_per_round(),
            configs: self
                .workload
                .configs
                .iter()
                .map(|c| (c.label(), live_layers(c)))
                .collect(),
            attempted: trials.len(),
            failed: trials.iter().filter(|t| !t.ok).count(),
            problems: self.problems,
            metrics,
        }
    }
}

/// Host cost of one `Instant::now` + `elapsed` pair, as the traced pass's
/// timer pays it per event: the median of nine batches.
fn clock_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..PAIRS {
                std::hint::black_box(Instant::now().elapsed());
            }
            start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&batches)
}

/// Measure `workloads`: warm each up, then run timed rounds interleaved
/// across them (A B C D A B C D …) until each has had `seconds` of rounds,
/// or exactly one round for a smoke run; then, when `traced`, the traced
/// pass. Returns the number of rounds and each workload's results.
pub fn measure(
    workloads: Vec<Workload>,
    seconds: f64,
    smoke: bool,
    traced: bool,
) -> (usize, Vec<WorkloadResult>) {
    let mut states: Vec<State> = workloads.into_iter().map(State::warm_up).collect();
    let budget = seconds * states.len() as f64;
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for s in &mut states {
            s.round();
        }
        rounds += 1;
        if smoke || start.elapsed().as_secs_f64() >= budget {
            break;
        }
    }
    if traced {
        for s in &mut states {
            s.traced_pass();
        }
    }
    let clock = clock_ns();
    (
        rounds,
        states.into_iter().map(|s| s.finish(clock)).collect(),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rt_core::experiment::run_experiment_instrumented;
    use rt_core::patterns::WorkloadParams;
    use rt_core::trace::ReadOutcome;

    /// `name` shrunk to a 4-processor machine with 200-block files, so a
    /// debug-build test runs it in well under a second.
    pub(crate) fn shrunk(name: &str) -> Workload {
        let mut w = Workload::named(name, 7).unwrap();
        w.configs.truncate(4);
        for cfg in &mut w.configs {
            cfg.procs = 4;
            cfg.disks = 4;
            cfg.workload = WorkloadParams {
                procs: 4,
                file_blocks: 200,
                total_reads: 200,
                ..WorkloadParams::paper()
            };
            if cfg.faults.replicas > 0 {
                let (plan, _) = parse_all_fault_specs("straggler:0:x8,corrupt:2:p0.02").unwrap();
                cfg.faults.plan = plan;
            }
            cfg.validate().unwrap();
        }
        w.reps = 2;
        w
    }

    #[test]
    fn timing_wrapper_leaves_the_run_unchanged() {
        for name in WORKLOADS {
            for cfg in &shrunk(name).configs {
                let (m, perf) = run_experiment_instrumented(cfg);
                // The wrapped world, with the access trace on so its
                // outcomes can be compared with the experiment's.
                let mut world = World::new(cfg.clone());
                world.enable_tracing();
                let mut sched = Scheduler::new();
                world.bootstrap(&mut sched);
                let mut t = Timed {
                    world,
                    ns: [0; KINDS.len()],
                    events: [0; KINDS.len()],
                };
                let stats = run_with_stats(&mut t, &mut sched, MAX_EVENTS);
                assert!(t.world.complete());
                assert_eq!(stats.outcome.events, perf.events, "{}", cfg.label());
                assert_eq!(t.events.iter().sum::<u64>(), perf.events);
                let trace = t.world.take_trace().unwrap();
                let count = |o: ReadOutcome| {
                    trace.events().iter().filter(|e| e.outcome == o).count() as u64
                };
                let read_ns: u64 = trace
                    .events()
                    .iter()
                    .map(|e| e.read_time().as_nanos())
                    .sum();
                assert_eq!(
                    [
                        read_ns,
                        count(ReadOutcome::ReadyHit),
                        count(ReadOutcome::UnreadyHit),
                        count(ReadOutcome::Miss),
                        t.world.fs().disks().total_ops()
                    ],
                    [
                        fingerprint(&m)[1],
                        m.ready_hits,
                        m.unready_hits,
                        m.misses,
                        m.disk_ops
                    ],
                    "{}",
                    cfg.label()
                );
                // And the untimed engine run agrees too.
                let plain = engine_run(cfg, false);
                assert_eq!((plain.events, plain.disk_ops), (perf.events, m.disk_ops));
            }
        }
    }

    #[test]
    fn workloads_are_what_they_claim() {
        let base = Workload::named("slice-base", 1).unwrap();
        assert_eq!(base.configs.len(), 3);
        assert!(base.configs.iter().all(|c| live_layers(c).is_empty()));
        let pf = Workload::named("slice-prefetch", 1).unwrap();
        assert!(pf.configs.iter().all(|c| live_layers(c) == ["prefetch"]));
        let all = Workload::named("slice-all-layers", 1).unwrap();
        for c in &all.configs {
            let layers = live_layers(c);
            assert!(!layers.contains(&"crashes"));
            assert_eq!(layers.len(), 11, "{layers:?}");
        }
        let grid = Workload::named("paper-grid", 1).unwrap();
        assert_eq!(grid.configs.len(), 92);
        assert!(grid.configs.iter().all(|c| c.seed == 1));
        assert!(Workload::named("nope", 1).is_err());
    }
}
