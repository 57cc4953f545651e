//! Argument parsing for the `rapid-transit` command-line tool, kept in the
//! library so it can be unit-tested.

use rt_core::faults::parse_all_fault_specs;
use rt_core::{AdmissionConfig, ExperimentConfig, PolicyKind, PrefetchConfig};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;

/// Return the value following `--name`, if present.
pub fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.as_str())),
                None => Err(format!("{name} requires a value")),
            };
        }
    }
    Ok(None)
}

/// Return every value following an occurrence of `--name` (the flag is
/// repeatable).
pub fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, String> {
    let mut values = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            match args.get(i + 1) {
                Some(v) => values.push(v.as_str()),
                None => return Err(format!("{name} requires a value")),
            }
        }
    }
    Ok(values)
}

/// True when the bare flag `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse a pattern abbreviation (`lfp` … `gw`).
pub fn parse_pattern(s: &str) -> Result<AccessPattern, String> {
    AccessPattern::from_abbrev(s)
        .ok_or_else(|| format!("unknown pattern {s:?} (use lfp|lrp|lw|gfp|grp|gw)"))
}

/// Parse a synchronization style: `none`, `portion`, `per-proc:N`,
/// `total:N`.
pub fn parse_sync(s: &str) -> Result<SyncStyle, String> {
    match s {
        "none" => Ok(SyncStyle::None),
        "portion" => Ok(SyncStyle::EachPortion),
        other => {
            if let Some(n) = other.strip_prefix("per-proc:") {
                n.parse()
                    .map(SyncStyle::BlocksPerProc)
                    .map_err(|_| format!("bad per-proc count in {other:?}"))
            } else if let Some(n) = other.strip_prefix("total:") {
                n.parse()
                    .map(SyncStyle::BlocksTotal)
                    .map_err(|_| format!("bad total count in {other:?}"))
            } else {
                Err(format!("unknown sync style {other:?}"))
            }
        }
    }
}

/// Build an [`ExperimentConfig`] from `run`-style command-line options.
pub fn build_config(args: &[String]) -> Result<ExperimentConfig, String> {
    let pattern = match flag_value(args, "--pattern")? {
        Some(s) => parse_pattern(s)?,
        None => AccessPattern::GlobalWholeFile,
    };
    let sync = match flag_value(args, "--sync")? {
        Some(s) => parse_sync(s)?,
        None => SyncStyle::BlocksPerProc(10),
    };
    if !sync.valid_for(pattern) {
        return Err("portion synchronization cannot be used with lw".into());
    }
    let mut cfg = ExperimentConfig::paper_default(pattern, sync);

    if let Some(v) = flag_value(args, "--procs")? {
        let procs: u16 = v.parse().map_err(|_| "bad --procs")?;
        if procs == 0 {
            return Err("--procs must be positive".into());
        }
        cfg.procs = procs;
        cfg.disks = procs;
        cfg.workload.procs = procs;
    }
    if let Some(v) = flag_value(args, "--disks")? {
        let disks: u16 = v.parse().map_err(|_| "bad --disks")?;
        if disks == 0 {
            return Err("--disks must be positive".into());
        }
        cfg.disks = disks;
    }
    if let Some(v) = flag_value(args, "--blocks")? {
        let blocks: u32 = v.parse().map_err(|_| "bad --blocks")?;
        if blocks == 0 {
            return Err("--blocks must be positive".into());
        }
        cfg.workload.file_blocks = blocks;
        cfg.workload.total_reads = blocks;
    }
    if !cfg.workload.total_reads.is_multiple_of(cfg.procs as u32) {
        return Err(format!(
            "total reads ({}) must divide evenly among {} processors",
            cfg.workload.total_reads, cfg.procs
        ));
    }
    if let Some(v) = flag_value(args, "--compute")? {
        let ms: u64 = v.parse().map_err(|_| "bad --compute")?;
        cfg.compute_mean = SimDuration::from_millis(ms);
    }
    if let Some(v) = flag_value(args, "--seed")? {
        cfg.seed = v.parse().map_err(|_| "bad --seed")?;
    }
    if has_flag(args, "--prefetch") {
        let policy = match flag_value(args, "--policy")? {
            None | Some("oracle") => PolicyKind::Oracle,
            Some("obl") => PolicyKind::Obl { depth: 3 },
            Some("learner") => PolicyKind::PortionLearner { confidence: 2 },
            Some(other) => return Err(format!("unknown policy {other:?}")),
        };
        cfg.prefetch = match policy {
            PolicyKind::Oracle => PrefetchConfig::paper(),
            other => PrefetchConfig::online(other),
        };
        if let Some(v) = flag_value(args, "--lead")? {
            cfg.prefetch.min_lead = v.parse().map_err(|_| "bad --lead")?;
        }
    }

    // Overload knobs: bound the per-device queues, and optionally enable
    // the prefetch admission controller with a credit pool. Both default
    // off, which reproduces the paper's unbounded behavior exactly.
    if let Some(v) = flag_value(args, "--queue-depth")? {
        let depth: u32 = v.parse().map_err(|_| "bad --queue-depth")?;
        if depth == 0 {
            return Err("--queue-depth must be positive".into());
        }
        cfg.queue_depth = Some(depth);
    }
    if let Some(v) = flag_value(args, "--prefetch-credits")? {
        let credits: u32 = v.parse().map_err(|_| "bad --prefetch-credits")?;
        if credits == 0 {
            return Err("--prefetch-credits must be positive".into());
        }
        cfg.admission = AdmissionConfig::on(credits);
    }

    // Fault injection: each --faults value is a comma-separated list of
    // specs — device faults (straggler:7:x4, flaky:3:p0.2@1s-4s,
    // fail:5@2s) and node crashes (crash:3@5s:rejoin@12s). The flag is
    // repeatable.
    for list in flag_values(args, "--faults")? {
        let (plan, crashes) = parse_all_fault_specs(list).map_err(|e| e.to_string())?;
        for f in plan.entries() {
            cfg.faults.plan.push(*f);
        }
        for c in crashes.entries() {
            cfg.faults.crashes.push(*c);
        }
    }
    if let Some(v) = flag_value(args, "--replicas")? {
        cfg.faults.replicas = v.parse().map_err(|_| "bad --replicas")?;
    }
    if let Some(v) = flag_value(args, "--io-timeout")? {
        let ms: u64 = v.parse().map_err(|_| "bad --io-timeout (milliseconds)")?;
        if ms == 0 {
            return Err("--io-timeout must be positive".into());
        }
        cfg.faults.retry.timeout = Some(SimDuration::from_millis(ms));
    }

    // Tail-tolerance knobs. --hedge arms a duplicate fetch against the
    // next replica once a demand read is outstanding past the delay
    // (`<ms>` fixed, or `<ms>:x<mult>` to scale off the device latency
    // EWMA once it is trusted); --retry-budget caps timeout-retries and
    // hedges with a token bucket refilled per successful completion; and
    // --breaker opens a per-device circuit on an error/timeout EWMA so
    // replica selection routes around the sick device until a half-open
    // probe succeeds.
    if let Some(v) = flag_value(args, "--hedge")? {
        let (ms, mult) = match v.split_once(':') {
            Some((ms, m)) => {
                let m = m
                    .strip_prefix('x')
                    .ok_or("bad --hedge (want <ms>[:x<multiplier>])")?;
                (ms, Some(m))
            }
            None => (v, None),
        };
        let ms: u64 = ms.parse().map_err(|_| "bad --hedge (milliseconds)")?;
        cfg.faults.hedge.delay = Some(SimDuration::from_millis(ms));
        if let Some(m) = mult {
            cfg.faults.hedge.multiplier = m.parse().map_err(|_| "bad --hedge multiplier")?;
        }
    }
    if let Some(v) = flag_value(args, "--retry-budget")? {
        let (cap, refill) = match v.split_once(':') {
            Some((c, r)) => (c, Some(r)),
            None => (v, None),
        };
        let cap: u32 = cap.parse().map_err(|_| "bad --retry-budget capacity")?;
        cfg.faults.budget.capacity = Some(cap);
        if let Some(r) = refill {
            cfg.faults.budget.refill = r.parse().map_err(|_| "bad --retry-budget refill")?;
        }
    }
    if let Some(v) = flag_value(args, "--breaker")? {
        cfg.faults.breaker.enabled = true;
        let mut parts = v.split(':');
        if let Some(t) = parts.next() {
            cfg.faults.breaker.error_threshold =
                t.parse().map_err(|_| "bad --breaker threshold")?;
        }
        if let Some(h) = parts.next() {
            let ms: u64 = h.parse().map_err(|_| "bad --breaker hold (milliseconds)")?;
            cfg.faults.breaker.hold = SimDuration::from_millis(ms);
        }
        if let Some(p) = parts.next() {
            let ms: u64 = p
                .parse()
                .map_err(|_| "bad --breaker half-open (milliseconds)")?;
            cfg.faults.breaker.half_open = SimDuration::from_millis(ms);
        }
        if parts.next().is_some() {
            return Err("bad --breaker (want <threshold>[:<hold-ms>[:<half-open-ms>]])".into());
        }
    }

    // Data-integrity knobs. Checksum verification is forced on whenever a
    // corrupt window is scheduled (corruption can never bypass detection);
    // --verify pays the checksum cost even without corruption, and --scrub
    // lets the daemon spend otherwise-empty idle slots on scrub reads.
    if has_flag(args, "--verify") {
        cfg.integrity.verify = true;
    }
    if has_flag(args, "--scrub") {
        cfg.integrity.scrub = true;
    }
    cfg.validate().map_err(|e| e.to_string())?;
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_the_paper_config() {
        let cfg = build_config(&[]).unwrap();
        assert_eq!(cfg.pattern, AccessPattern::GlobalWholeFile);
        assert_eq!(cfg.sync, SyncStyle::BlocksPerProc(10));
        assert_eq!(cfg.procs, 20);
        assert!(!cfg.prefetch.enabled);
    }

    #[test]
    fn pattern_and_sync_parse() {
        let cfg = build_config(&args(&["--pattern", "lrp", "--sync", "total:200"])).unwrap();
        assert_eq!(cfg.pattern, AccessPattern::LocalRandomPortions);
        assert_eq!(cfg.sync, SyncStyle::BlocksTotal(200));
        assert!(parse_sync("per-proc:7").unwrap() == SyncStyle::BlocksPerProc(7));
        assert!(parse_sync("bogus").is_err());
        assert!(parse_pattern("nope").is_err());
    }

    #[test]
    fn lw_portion_combination_rejected() {
        let err = build_config(&args(&["--pattern", "lw", "--sync", "portion"])).unwrap_err();
        assert!(err.contains("portion"));
    }

    #[test]
    fn machine_shape_flags() {
        let cfg = build_config(&args(&[
            "--procs",
            "8",
            "--blocks",
            "800",
            "--compute",
            "5",
        ]))
        .unwrap();
        assert_eq!(cfg.procs, 8);
        assert_eq!(cfg.disks, 8);
        assert_eq!(cfg.workload.total_reads, 800);
        assert_eq!(cfg.compute_mean, SimDuration::from_millis(5));
        // Explicit --disks overrides the procs default.
        let cfg =
            build_config(&args(&["--procs", "4", "--disks", "2", "--blocks", "100"])).unwrap();
        assert_eq!(cfg.disks, 2);
    }

    #[test]
    fn uneven_division_rejected() {
        let err = build_config(&args(&["--procs", "7", "--blocks", "100"])).unwrap_err();
        assert!(err.contains("divide evenly"));
    }

    #[test]
    fn prefetch_flags() {
        let cfg = build_config(&args(&["--prefetch", "--lead", "30"])).unwrap();
        assert!(cfg.prefetch.enabled);
        assert_eq!(cfg.prefetch.min_lead, 30);
        assert_eq!(cfg.prefetch.policy, PolicyKind::Oracle);
        assert!(!cfg.prefetch.evict_unused);

        let cfg = build_config(&args(&["--prefetch", "--policy", "obl"])).unwrap();
        assert_eq!(cfg.prefetch.policy, PolicyKind::Obl { depth: 3 });
        assert!(cfg.prefetch.evict_unused, "online policies relax eviction");

        assert!(build_config(&args(&["--prefetch", "--policy", "psychic"])).is_err());
    }

    #[test]
    fn missing_value_reported() {
        let err = build_config(&args(&["--pattern"])).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    #[test]
    fn zero_values_rejected() {
        assert!(build_config(&args(&["--procs", "0"])).is_err());
        assert!(build_config(&args(&["--blocks", "0"])).is_err());
        assert!(build_config(&args(&["--disks", "0"])).is_err());
    }

    #[test]
    fn fault_flags_parse() {
        let cfg = build_config(&args(&[
            "--faults",
            "straggler:7:x4,flaky:3:p0.2@1s-4s",
            "--faults",
            "fail:5@2s-6s",
            "--io-timeout",
            "500",
            "--replicas",
            "1",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.plan.entries().len(), 3);
        assert_eq!(cfg.faults.replicas, 1);
        assert_eq!(
            cfg.faults.retry.timeout,
            Some(SimDuration::from_millis(500))
        );
        assert!(cfg.faults.is_active());
    }

    #[test]
    fn tail_flags_parse() {
        let cfg = build_config(&args(&[
            "--replicas",
            "1",
            "--io-timeout",
            "150",
            "--hedge",
            "60:x3.5",
            "--retry-budget",
            "32:0.25",
            "--breaker",
            "0.5:300:250",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.hedge.delay, Some(SimDuration::from_millis(60)));
        assert_eq!(cfg.faults.hedge.multiplier, 3.5);
        assert_eq!(cfg.faults.budget.capacity, Some(32));
        assert_eq!(cfg.faults.budget.refill, 0.25);
        assert!(cfg.faults.breaker.enabled);
        assert_eq!(cfg.faults.breaker.error_threshold, 0.5);
        assert_eq!(cfg.faults.breaker.hold, SimDuration::from_millis(300));
        assert_eq!(cfg.faults.breaker.half_open, SimDuration::from_millis(250));
        assert!(cfg.faults.is_active());

        // Short forms keep the defaults for the optional fields.
        let cfg = build_config(&args(&[
            "--replicas",
            "1",
            "--hedge",
            "40",
            "--retry-budget",
            "8",
            "--breaker",
            "0.6",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.hedge.delay, Some(SimDuration::from_millis(40)));
        assert_eq!(cfg.faults.hedge.multiplier, 2.0);
        assert_eq!(cfg.faults.budget.capacity, Some(8));
        assert_eq!(cfg.faults.budget.refill, 0.1);
        assert!(cfg.faults.breaker.enabled);
        assert_eq!(cfg.faults.breaker.hold, SimDuration::from_millis(200));

        // Hedging needs a replica to hedge onto, and junk is rejected.
        let err = build_config(&args(&["--hedge", "60"])).unwrap_err();
        assert!(err.contains("replica"), "{err}");
        assert!(build_config(&args(&["--hedge", "60:3"])).is_err());
        assert!(build_config(&args(&["--retry-budget", "0"])).is_err());
        assert!(build_config(&args(&["--breaker", "0.5:0"])).is_err());
        assert!(build_config(&args(&["--breaker", "0.5:1:1:1"])).is_err());
    }

    #[test]
    fn fault_flags_validated() {
        // Disk 25 does not exist on the default 20-disk machine.
        let err = build_config(&args(&["--faults", "straggler:25:x4"])).unwrap_err();
        assert!(err.contains("disk 25"), "{err}");
        // A permanent outage needs a replica to redirect to.
        let err = build_config(&args(&["--faults", "fail:3@5s"])).unwrap_err();
        assert!(err.contains("replicas"), "{err}");
        assert!(build_config(&args(&["--faults", "fail:3@5s", "--replicas", "1"])).is_ok());
        // Malformed specs are reported with the offending text.
        let err = build_config(&args(&["--faults", "meteor:3"])).unwrap_err();
        assert!(err.contains("meteor"), "{err}");
        assert!(build_config(&args(&["--io-timeout", "0"])).is_err());
    }

    #[test]
    fn crash_flags_parse() {
        let cfg = build_config(&args(&[
            "--faults",
            "crash:3@5s:rejoin@12s,straggler:7:x4",
            "--faults",
            "crash:9@8s",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.crashes.entries().len(), 2);
        assert_eq!(cfg.faults.crashes.entries()[0].node, 3);
        assert!(cfg.faults.crashes.entries()[0].rejoin.is_some());
        assert_eq!(cfg.faults.crashes.entries()[1].rejoin, None);
        assert_eq!(cfg.faults.plan.entries().len(), 1);
        // Node 25 does not exist on the default 20-proc machine.
        let err = build_config(&args(&["--faults", "crash:25@5s"])).unwrap_err();
        assert!(err.contains("node 25"), "{err}");
        // A rejoin must come after its crash.
        let err = build_config(&args(&["--faults", "crash:3@5s:rejoin@2s"])).unwrap_err();
        assert!(err.contains("rejoin"), "{err}");
    }

    #[test]
    fn integrity_flags_parse() {
        let cfg = build_config(&args(&["--verify", "--scrub"])).unwrap();
        assert!(cfg.integrity.verify);
        assert!(cfg.integrity.scrub);
        assert!(cfg.integrity.active_with(&cfg.faults.plan));
        // Defaults leave the integrity layer off entirely.
        let cfg = build_config(&[]).unwrap();
        assert!(!cfg.integrity.verify);
        assert!(!cfg.integrity.scrub);
        assert!(!cfg.integrity.active_with(&cfg.faults.plan));
        // A corrupt window activates the layer without any flag.
        let cfg = build_config(&args(&["--faults", "corrupt:1:p0.2", "--replicas", "1"])).unwrap();
        assert!(!cfg.integrity.verify);
        assert!(cfg.integrity.active_with(&cfg.faults.plan));
    }

    #[test]
    fn overload_flags_parse() {
        let cfg = build_config(&args(&["--queue-depth", "4", "--prefetch-credits", "8"])).unwrap();
        assert_eq!(cfg.queue_depth, Some(4));
        assert!(cfg.admission.enabled);
        assert_eq!(cfg.admission.prefetch_credits, 8);
        // Defaults leave the overload layer off entirely.
        let cfg = build_config(&[]).unwrap();
        assert_eq!(cfg.queue_depth, None);
        assert!(!cfg.admission.enabled);
        // Zero values are rejected at parse time.
        assert!(build_config(&args(&["--queue-depth", "0"])).is_err());
        assert!(build_config(&args(&["--prefetch-credits", "0"])).is_err());
    }

    #[test]
    fn flag_helpers() {
        let a = args(&["--x", "1", "--y"]);
        assert_eq!(flag_value(&a, "--x").unwrap(), Some("1"));
        assert_eq!(flag_value(&a, "--z").unwrap(), None);
        assert!(has_flag(&a, "--y"));
        assert!(!has_flag(&a, "--w"));
    }
}
