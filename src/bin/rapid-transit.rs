//! Command-line interface to the RAPID Transit testbed.
//!
//! ```text
//! rapid-transit run   [options]     one experiment, metrics table
//! rapid-transit grid  [--csv]       the full §IV-D grid, base vs prefetch
//! rapid-transit lead  <pattern>     the §V-E minimum-lead sweep
//! rapid-transit sweep-compute       the §V-C computation sweep (Fig. 12)
//! rapid-transit trace <pattern>     record a run and analyze its trace
//! rapid-transit trace-check <file>  validate an exported Perfetto trace
//! rapid-transit faults|crashes|soak|integrity|tail [--out FILE] [--smoke] [--check]
//!                                   run (or check) a robustness sweep
//! ```
//!
//! Every subcommand declares its flags; an unknown or repeated flag
//! exits 2 before anything runs.
//!
//! Run options:
//! `--pattern lfp|lrp|lw|gfp|grp|gw` (default gw),
//! `--sync none|portion|per-proc:N|total:N` (default per-proc:10),
//! `--compute MS` (default 30; lw defaults to 10), `--procs N`,
//! `--disks N`, `--blocks N`, `--prefetch`, `--lead N`,
//! `--policy oracle|obl|learner`, `--seed N`, `--csv`,
//! `--faults SPECS`, `--replicas N`, `--io-timeout MS`,
//! `--queue-depth N`, `--prefetch-credits N`, `--verify`, `--scrub`,
//! `--trace-out FILE`, `--sample-every MS`.

use std::process::ExitCode;

use rapid_transit::bench::json::Json;
use rapid_transit::bench::sweep::{self, Sweep};
use rapid_transit::cli::{
    config_from, parse_pattern, scan, sweep_flags, Flag, SweepFlags, RUN_FLAGS,
};
use rapid_transit::core::experiment::{
    paper_grid, run_experiment, run_experiment_observed, run_experiment_traced, run_pair,
    run_pairs_parallel,
};
use rapid_transit::core::report::{quantile_cell, Table};
use rapid_transit::core::sweeps::default_threads;
use rapid_transit::core::trace::{replay_obl, Trace};
use rapid_transit::core::{ExperimentConfig, ObsConfig, PrefetchConfig, RunMetrics};
use rapid_transit::patterns::{AccessPattern, SyncStyle};
use rapid_transit::sim::SimDuration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{}", USAGE);
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "grid" => cmd_grid(rest),
        "lead" => cmd_lead(rest),
        "sweep-compute" => cmd_sweep_compute(rest),
        "trace" => cmd_trace(rest),
        "trace-check" => cmd_trace_check(rest),
        "help" | "--help" | "-h" => {
            println!("{}", USAGE);
            Ok(())
        }
        other => match sweep::find(other) {
            Some(sweep) => cmd_sweep(sweep, rest),
            None => Err(format!("unknown command {other:?}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{}", USAGE);
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
usage: rapid-transit <command> [options]

commands:
  run            one experiment (see --pattern/--sync/--prefetch/...)
  grid [--csv]   the paper's full grid, prefetch off vs on
  lead <pat>     the minimum-prefetch-lead sweep for lfp|gfp|lw|gw
  sweep-compute  the computation sweep of Fig. 12
  trace <pat>    record one run's access trace and analyze it off-line
  trace-check F  validate an exported Perfetto trace file (well-formed,
                 spans per track in order, attribution sums exact)

robustness sweeps (each run verified: per-event invariants, a livelock
watchdog, terminal leak and read-accounting checks; a violation exits 2
and writes <out>.flight.json):
  faults         fault injection, BENCH_faults.json
  crashes        node crash/rejoin/cascade over all six patterns,
                 BENCH_crash.json
  soak           overload/chaos soak, BENCH_overload.json
  integrity      corruption, verify, read-repair, scrub,
                 BENCH_integrity.json
  tail           stragglers/outages/crashes under timeout-only vs hedged
                 vs hedged+budget+breaker, BENCH_tail.json
sweep options:
  --out FILE     report to write (or check); default the BENCH file
  --smoke        run the shrunken CI-sized sweep
  --check        validate the report instead of running the sweep

run options:
  --pattern P    lfp|lrp|lw|gfp|grp|gw          (default gw)
  --sync S       none|portion|per-proc:N|total:N (default per-proc:10)
  --compute MS   mean per-block computation in ms
  --procs N      processors (= nodes)            (default 20)
  --disks N      disks                           (default = procs)
  --blocks N     file blocks = total reads       (default 2000)
  --prefetch     enable prefetching
  --lead N       minimum prefetch lead
  --policy K     oracle|obl|learner              (default oracle)
  --seed N       random seed
  --csv          machine-readable output where applicable

telemetry options (run):
  --trace-out F  record spans/instants/gauges and write a Perfetto
                 (Chrome Trace Event) JSON file to F; recording is inert,
                 the run's numbers are identical with or without it
  --sample-every MS epoch gauge-sampling period (default 50, 0 disables;
                 only meaningful with --trace-out)

fault options (run):
  --faults SPECS comma-separated fault specs, repeatable:
                   straggler:<disk>:x<factor>[@<from>[-<until>]]
                   flaky:<disk>:p<prob>[@<from>[-<until>]]
                   fail:<disk>@<from>[-<until>]
                   corrupt:<disk>:p<prob>[@<from>[-<until>]]
                   crash:<node>@<time>[:rejoin@<time>]
                 durations: 5s, 200ms, or bare milliseconds
  --replicas N   rotated-interleave file copies for redirects/repair
  --io-timeout MS demand-read timeout (redirects when replicas exist)

tail-tolerance options (run):
  --hedge MS[:xM] duplicate a slow demand fetch to the next replica after
                 MS ms (or M x the device's latency EWMA once trusted);
                 first completion wins, the loser is cancelled
  --retry-budget N[:R] token bucket over timeout-retries and hedges:
                 capacity N, refilled R tokens (default 0.1) per
                 successful disk completion; exhausted => wait patiently
  --breaker T[:HOLD[:HALF]] per-device circuit breaker: open when the
                 error/timeout EWMA crosses T, hold open HOLD ms
                 (default 200), then half-open probe for HALF ms
                 (default 200); open devices are skipped by demand
                 replica selection, prefetch, hedges, and the scrubber

integrity options (run):
  --verify       checksum-verify every cache fill (forced on whenever a
                 corrupt window is scheduled)
  --scrub        scrub blocks in idle time, repairing corrupt copies
                 ahead of demand

overload options (run):
  --queue-depth N     bound each device queue at N waiting requests
  --prefetch-credits N enable the prefetch admission controller with an
                 N-credit pool (throttles the daemon under pressure)";

fn metric_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    vec![
        (
            "total time (ms)",
            format!("{:.1}", m.total_time.as_millis_f64()),
        ),
        ("avg read time (ms)", format!("{:.2}", m.mean_read_ms())),
        (
            "read p50/p95/p99 (ms)",
            quantile_cell(m, RunMetrics::read_quantile_ms),
        ),
        ("hit ratio", format!("{:.3}", m.hit_ratio)),
        ("ready hits", m.ready_hits.to_string()),
        ("unready hits", m.unready_hits.to_string()),
        ("misses", m.misses.to_string()),
        ("avg hit-wait (ms)", format!("{:.2}", m.mean_hit_wait_ms())),
        (
            "hit-wait p50/p95/p99 (ms)",
            quantile_cell(m, RunMetrics::hit_wait_quantile_ms),
        ),
        (
            "disk response (ms)",
            format!("{:.2}", m.mean_disk_response_ms()),
        ),
        (
            "disk resp p50/p95/p99 (ms)",
            quantile_cell(m, RunMetrics::disk_response_quantile_ms),
        ),
        ("disk ops", m.disk_ops.to_string()),
        ("prefetches", m.prefetches.to_string()),
        ("failed actions", m.failed_actions.to_string()),
        (
            "avg action (ms)",
            format!("{:.2}", m.action_time.mean_millis()),
        ),
        (
            "avg overrun (ms)",
            format!("{:.2}", m.overrun.mean_millis()),
        ),
        (
            "avg sync wait (ms)",
            format!("{:.2}", m.sync_wait.mean_millis()),
        ),
        ("barriers", m.barriers.to_string()),
        (
            "finish skew (ms)",
            format!("{:.1}", m.finish_skew().as_millis_f64()),
        ),
    ]
}

/// Fault-path rows, shown only when the run injected faults.
fn fault_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    let f = &m.faults;
    vec![
        ("io errors", f.io_errors.to_string()),
        ("retries", f.retries.to_string()),
        ("retries exhausted", f.retries_exhausted.to_string()),
        ("timeouts", f.timeouts.to_string()),
        ("redirects", f.redirects.to_string()),
        ("aborted prefetches", f.aborted_prefetches.to_string()),
        ("degraded skips", f.degraded_skips.to_string()),
        ("degraded intervals", f.degraded_intervals.to_string()),
        (
            "degraded time (ms)",
            format!("{:.1}", f.degraded_time.as_millis_f64()),
        ),
    ]
}

/// Integrity rows, shown only when the integrity layer is active.
fn integrity_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    let ig = &m.integrity;
    vec![
        ("corruptions", ig.corruptions.to_string()),
        ("detections", ig.detections.to_string()),
        ("read-repairs", ig.repairs.to_string()),
        ("repair rewrites", ig.rewrites.to_string()),
        ("blocks scrubbed", ig.scrubbed.to_string()),
        ("scrub detections", ig.scrub_detections.to_string()),
        ("poisoned blocks", ig.poisoned_blocks.to_string()),
        ("failed reads", ig.failed_reads.to_string()),
        ("corrupt delivered", ig.corrupt_delivered.to_string()),
        ("quarantines", ig.quarantines.to_string()),
        (
            "quarantined time (ms)",
            format!("{:.1}", ig.quarantined_time.as_millis_f64()),
        ),
    ]
}

/// Crash rows, shown only when the run injected node crashes.
fn crash_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    let c = &m.crash;
    vec![
        ("crashes", c.crashes.to_string()),
        ("rejoins", c.rejoins.to_string()),
        ("lost reads", c.lost_reads.to_string()),
        ("reclaimed locks", c.reclaimed_locks.to_string()),
        ("reclaimed pins", c.reclaimed_pins.to_string()),
        ("reclaimed waiters", c.reclaimed_waiters.to_string()),
        ("orphaned ios", c.orphaned_ios.to_string()),
        (
            "failover prefetches",
            c.redistributed_prefetches.to_string(),
        ),
    ]
}

/// Tail-tolerance rows, shown only when hedging, retry budgets, or a
/// circuit breaker is configured.
fn tail_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    let t = &m.tail;
    vec![
        ("hedges launched", t.hedges_launched.to_string()),
        ("hedge wins", t.hedge_wins.to_string()),
        ("hedge wasted", t.hedge_wasted.to_string()),
        ("hedge cancels", t.hedge_cancels.to_string()),
        ("retries denied", t.retries_denied.to_string()),
        ("budget spent", t.budget_spent.to_string()),
        ("breaker opens", t.breaker_opens.to_string()),
        ("probe successes", t.probe_successes.to_string()),
        (
            "hedged read ms (p50/p95/p99)",
            format!(
                "{:.2}/{:.2}/{:.2}",
                m.hedged_read_quantile_ms(0.50),
                m.hedged_read_quantile_ms(0.95),
                m.hedged_read_quantile_ms(0.99)
            ),
        ),
    ]
}

/// Overload rows, shown only when queues are bounded or admission is on.
fn overload_rows(m: &RunMetrics) -> Vec<(&'static str, String)> {
    let o = &m.overload;
    vec![
        ("prefetches shed", o.prefetches_shed.to_string()),
        ("prefetches throttled", o.prefetches_throttled.to_string()),
        ("demand parked", o.demand_parked.to_string()),
        (
            "demand behind prefetch",
            o.demand_behind_prefetch.to_string(),
        ),
        ("cache high-water hits", o.cache_high_water_hits.to_string()),
        ("max queue depth", o.max_queue_depth.to_string()),
    ]
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let args = scan(args, RUN_FLAGS, &[])?;
    let cfg = config_from(&args)?;
    let trace_out = args.value("--trace-out");
    let sample_every: Option<u64> = args.parse("--sample-every")?;
    if sample_every.is_some() && trace_out.is_none() {
        return Err("--sample-every requires --trace-out".into());
    }
    println!("running {} ...", cfg.label());
    let show_faults = cfg.faults.is_active();
    let show_crashes = !cfg.faults.crashes.is_empty();
    let show_integrity = cfg.integrity.active_with(&cfg.faults.plan);
    let show_overload = cfg.queue_depth.is_some() || cfg.admission.enabled;
    let show_tail = cfg.faults.hedge.delay.is_some()
        || cfg.faults.budget.capacity.is_some()
        || cfg.faults.breaker.enabled;
    let m = match &trace_out {
        Some(path) => {
            let mut ocfg = ObsConfig::default();
            if let Some(ms) = sample_every {
                ocfg.sample_every = (ms > 0).then(|| SimDuration::from_millis(ms));
            }
            let (m, data) = run_experiment_observed(&cfg, ocfg);
            std::fs::write(path, data.to_perfetto())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!(
                "wrote {path} ({} events, {} series, {} dropped)",
                data.events.len(),
                data.series.len(),
                data.dropped
            );
            m
        }
        None => run_experiment(&cfg),
    };
    let mut rows = metric_rows(&m);
    if show_faults {
        rows.extend(fault_rows(&m));
    }
    if show_crashes {
        rows.extend(crash_rows(&m));
    }
    if show_integrity {
        rows.extend(integrity_rows(&m));
    }
    if show_tail {
        rows.extend(tail_rows(&m));
    }
    if show_overload {
        rows.extend(overload_rows(&m));
    }
    if args.has("--csv") {
        println!("metric,value");
        for (k, v) in rows {
            println!("{k},{v}");
        }
        return Ok(());
    }
    let mut t = Table::new(&["metric", "value"]);
    for (k, v) in rows {
        t.row(&[k.to_string(), v]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_grid(args: &[String]) -> Result<(), String> {
    const FLAGS: &[Flag] = &[Flag::Bare("--csv")];
    let csv = scan(args, FLAGS, &[])?.has("--csv");
    let grid = paper_grid();
    let pairs = run_pairs_parallel(&grid, default_threads());
    if csv {
        println!("experiment,total_base_ms,total_pf_ms,read_base_ms,read_pf_ms,hit_pf,disk_base_ms,disk_pf_ms");
        for p in &pairs {
            println!(
                "{},{:.2},{:.2},{:.3},{:.3},{:.4},{:.3},{:.3}",
                p.label,
                p.base.total_time.as_millis_f64(),
                p.prefetch.total_time.as_millis_f64(),
                p.base.mean_read_ms(),
                p.prefetch.mean_read_ms(),
                p.prefetch.hit_ratio,
                p.base.mean_disk_response_ms(),
                p.prefetch.mean_disk_response_ms(),
            );
        }
        return Ok(());
    }
    let mut t = Table::new(&["experiment", "Δtotal %", "Δread %", "hit (pf)"]);
    for p in &pairs {
        t.row(&[
            p.label.clone(),
            format!("{:+.1}", p.total_time_improvement() * 100.0),
            format!("{:+.1}", p.read_time_improvement() * 100.0),
            format!("{:.3}", p.prefetch.hit_ratio),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

fn cmd_lead(args: &[String]) -> Result<(), String> {
    let pattern = match scan(args, &[], &["PATTERN"])?.positional(0) {
        Some(p) => parse_pattern(p)?,
        None => return Err("lead requires a pattern (lfp|gfp|lw|gw)".into()),
    };
    let scale = if pattern.is_local() { 20.0 } else { 1.0 };
    println!("lead,hit_wait_ms,miss_ratio,read_ms,total_ms");
    for lead in [0u32, 15, 30, 45, 60, 75, 90] {
        let cfg = ExperimentConfig::paper_lead(pattern, lead);
        let m = run_experiment(&cfg);
        println!(
            "{lead},{:.3},{:.4},{:.3},{:.1}",
            m.mean_hit_wait_ms(),
            m.miss_ratio(),
            m.mean_read_ms(),
            m.total_time.as_millis_f64() / scale,
        );
    }
    Ok(())
}

fn cmd_sweep_compute(args: &[String]) -> Result<(), String> {
    scan(args, &[], &[])?;
    println!("compute_ms,dtotal_pct,dread_pct,read_pf_ms,action_ms");
    for ms in [0u64, 5, 10, 20, 30, 45, 60, 80, 100, 150, 200] {
        let mut cfg = ExperimentConfig::paper_default(
            AccessPattern::GlobalWholeFile,
            SyncStyle::BlocksPerProc(10),
        );
        cfg.compute_mean = SimDuration::from_millis(ms);
        let pair = run_pair(&cfg);
        println!(
            "{ms},{:.2},{:.2},{:.3},{:.3}",
            pair.total_time_improvement() * 100.0,
            pair.read_time_improvement() * 100.0,
            pair.prefetch.mean_read_ms(),
            pair.prefetch.action_time.mean_millis(),
        );
    }
    Ok(())
}

fn cmd_trace_check(args: &[String]) -> Result<(), String> {
    use rapid_transit::bench::trace_check;

    let Some(path) = scan(args, &[], &["FILE"])?.positional(0) else {
        return Err("trace-check requires a file".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let stats = trace_check::validate_trace(&doc).map_err(|e| format!("{path}:\n{e}"))?;
    println!(
        "{path}: valid trace — {} events ({} spans, {} read spans with exact \
         attribution, {} instants, {} counter samples), {} dropped",
        stats.events, stats.spans, stats.reads, stats.instants, stats.counters, stats.dropped
    );
    Ok(())
}

/// Run one robustness sweep (or, with `--check`, validate its report).
/// A verified run that fails leaves its flight dump and exits 2; a report
/// that fails its own validator is never written.
fn cmd_sweep(sweep: &Sweep, args: &[String]) -> Result<(), String> {
    let SweepFlags { out, smoke, check } = sweep_flags(args, sweep.report)?;
    let name = sweep.name;

    if check {
        let text = std::fs::read_to_string(&out).map_err(|e| format!("cannot read {out}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{out}: {e}"))?;
        (sweep.validate)(&doc).map_err(|e| format!("{out}: {e}"))?;
        let n = sweep::report_scenarios(&doc).len();
        println!("{out}: valid {name} report, {n} scenarios");
        return Ok(());
    }

    let size = if smoke { "smoke" } else { "full" };
    println!("running {name} sweep ({size} ...)");
    let run = (sweep.run)(smoke).map_err(|e| e.to_string())?;
    let doc = run.report();
    print!("{}", sweep::summary_table(sweep, &doc));
    if let Some((label, verdict)) = &run.failure {
        write_flight_dump(&out, verdict.flight.as_ref());
        let message = verdict.violation.as_deref().unwrap_or_default();
        return Err(format!("{name} invariant violation — {label}: {message}"));
    }
    (sweep.validate)(&doc).map_err(|e| format!("refusing to write {out}: {e}"))?;
    std::fs::write(&out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// Write a flight-recorder dump next to the report (`<out>.flight.json`)
/// and print its human-readable tail to stderr, so a failing verified
/// run leaves a postmortem behind.
fn write_flight_dump(out: &str, flight: Option<&rapid_transit::bench::FlightDump>) {
    let Some(dump) = flight else {
        return;
    };
    let path = format!("{out}.flight.json");
    match std::fs::write(&path, &dump.perfetto) {
        Ok(()) => eprintln!("flight recording written to {path}"),
        Err(e) => eprintln!("cannot write flight recording {path}: {e}"),
    }
    eprintln!("--- flight recorder tail ---");
    eprint!("{}", dump.tail);
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let pattern = match scan(args, &[], &["PATTERN"])?.positional(0) {
        Some(p) => parse_pattern(p)?,
        None => return Err("trace requires a pattern".into()),
    };
    let mut cfg = ExperimentConfig::paper_default(pattern, SyncStyle::BlocksPerProc(10));
    cfg.prefetch = PrefetchConfig::paper();
    let (m, trace) = run_experiment_traced(&cfg);
    let merged = trace.merged_reference_string();
    let runs = Trace::run_lengths(&merged);
    let mean_run = if runs.is_empty() {
        0.0
    } else {
        runs.iter().map(|&r| r as f64).sum::<f64>() / runs.len() as f64
    };
    let mut t = Table::new(&["trace property", "value"]);
    t.row(&["reads".into(), trace.len().to_string()]);
    t.row(&[
        "global sequentiality".into(),
        format!("{:.3}", trace.global_sequentiality()),
    ]);
    t.row(&[
        "local sequentiality".into(),
        format!("{:.3}", trace.mean_local_sequentiality()),
    ]);
    t.row(&["mean run length".into(), format!("{mean_run:.1}")]);
    t.row(&[
        "interprocess overlap".into(),
        format!("{:.3}", trace.overlap_fraction()),
    ]);
    t.row(&["hit ratio".into(), format!("{:.3}", m.hit_ratio)]);
    t.row(&[
        "OBL replay (local)".into(),
        format!("{:.3}", replay_obl(&trace, 3, 20, false)),
    ]);
    t.row(&[
        "OBL replay (shared)".into(),
        format!("{:.3}", replay_obl(&trace, 3, 20, true)),
    ]);
    print!("{}", t.render());
    Ok(())
}
