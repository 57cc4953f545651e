//! Argument parsing for the `rapid-transit` command-line tool, kept in the
//! library so it can be unit-tested.

use rt_core::faults::parse_all_fault_specs;
use rt_core::{AdmissionConfig, ExperimentConfig, PolicyKind, PrefetchConfig};
use rt_patterns::{AccessPattern, SyncStyle};
use rt_sim::SimDuration;
use std::str::FromStr;

/// One declared flag of a subcommand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// A bare flag, given at most once.
    Bare(&'static str),
    /// A flag taking one value (named by the placeholder), given at most
    /// once.
    Value(&'static str, &'static str),
    /// A flag taking one value, given any number of times.
    Repeated(&'static str, &'static str),
}

impl Flag {
    /// The flag itself, `--name`.
    pub fn name(self) -> &'static str {
        match self {
            Flag::Bare(name) | Flag::Value(name, _) | Flag::Repeated(name, _) => name,
        }
    }
}

/// A subcommand's arguments, scanned strictly against its declared flags
/// and positionals.
#[derive(Clone, Debug)]
pub struct Args<'a> {
    flags: &'static [Flag],
    given: Vec<(&'static str, &'a str)>,
    positionals: Vec<&'a str>,
}

/// Scan `args` against the declared `flags` and up to
/// `positionals.len()` positional arguments (named for the error
/// message). An unknown flag, a surplus positional, a value-taking flag
/// without a value, or a second use of a non-repeatable flag is an error
/// naming the argument and listing what is accepted, so a typo fails
/// before anything runs.
pub fn scan<'a>(
    args: &'a [String],
    flags: &'static [Flag],
    positionals: &[&str],
) -> Result<Args<'a>, String> {
    let accepted = || {
        let names = positionals.iter().map(|p| p.to_string());
        let flags = flags.iter().map(|f| match *f {
            Flag::Bare(name) => name.to_string(),
            Flag::Value(name, v) => format!("{name} {v}"),
            Flag::Repeated(name, v) => format!("{name} {v}..."),
        });
        let all: Vec<_> = names.chain(flags).collect();
        if all.is_empty() {
            "accepted: none".to_string()
        } else {
            format!("accepted: {}", all.join(", "))
        }
    };
    let mut out = Args {
        flags,
        given: Vec::new(),
        positionals: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
            if arg.starts_with("--") || out.positionals.len() == positionals.len() {
                return Err(format!("unknown argument {arg:?} ({})", accepted()));
            }
            out.positionals.push(arg);
            continue;
        };
        if !matches!(flag, Flag::Repeated(..)) && out.has(flag.name()) {
            return Err(format!("{arg} given more than once ({})", accepted()));
        }
        let value = match flag {
            Flag::Bare(_) => "",
            _ => it
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{arg} requires a value"))?,
        };
        out.given.push((flag.name(), value));
    }
    Ok(out)
}

impl<'a> Args<'a> {
    fn declared(&self, name: &str) {
        debug_assert!(
            self.flags.iter().any(|f| f.name() == name),
            "{name} is not a declared flag"
        );
    }

    /// The value of `--name`, if given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).next()
    }

    /// Every value of the repeatable `--name`, in order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.declared(name);
        self.given
            .iter()
            .filter(move |(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// True when the bare flag `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.values(name).next().is_some()
    }

    /// The value of `--name` parsed as a `T`, if given.
    pub fn parse<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| v.parse().map_err(|_| format!("bad {name}")))
            .transpose()
    }

    /// [`Args::parse`] for a value that must be positive.
    pub fn positive<T: FromStr + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.parse(name)? {
            Some(v) if v == T::default() => Err(format!("{name} must be positive")),
            v => Ok(v),
        }
    }

    /// The `i`th positional argument, if given.
    pub fn positional(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }
}

/// The flags of `run`: the experiment configuration plus output and
/// telemetry options.
pub const RUN_FLAGS: &[Flag] = &[
    Flag::Value("--pattern", "P"),
    Flag::Value("--sync", "S"),
    Flag::Value("--compute", "MS"),
    Flag::Value("--procs", "N"),
    Flag::Value("--disks", "N"),
    Flag::Value("--blocks", "N"),
    Flag::Bare("--prefetch"),
    Flag::Value("--lead", "N"),
    Flag::Value("--policy", "K"),
    Flag::Value("--seed", "N"),
    Flag::Bare("--csv"),
    Flag::Value("--trace-out", "FILE"),
    Flag::Value("--sample-every", "MS"),
    Flag::Repeated("--faults", "SPECS"),
    Flag::Value("--replicas", "N"),
    Flag::Value("--io-timeout", "MS"),
    Flag::Value("--hedge", "MS[:xM]"),
    Flag::Value("--retry-budget", "N[:R]"),
    Flag::Value("--breaker", "T[:HOLD[:HALF]]"),
    Flag::Bare("--verify"),
    Flag::Bare("--scrub"),
    Flag::Value("--queue-depth", "N"),
    Flag::Value("--prefetch-credits", "N"),
];

/// The flags of a sweep subcommand.
pub const SWEEP_FLAGS: &[Flag] = &[
    Flag::Value("--out", "FILE"),
    Flag::Bare("--smoke"),
    Flag::Bare("--check"),
];

/// The flags of a sweep subcommand (`faults`, `crashes`, `soak`,
/// `integrity`, `tail`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepFlags {
    /// Report file to write, or to validate with `--check`.
    pub out: String,
    /// Run the shrunken smoke sweep instead of the full one.
    pub smoke: bool,
    /// Validate `out` instead of running the sweep.
    pub check: bool,
}

/// Parse a sweep subcommand's arguments against [`SWEEP_FLAGS`]: only
/// `--out FILE`, `--smoke` and `--check`, each at most once, so a typo'd
/// flag fails before the sweep runs or overwrites its report.
pub fn sweep_flags(args: &[String], default_out: &str) -> Result<SweepFlags, String> {
    let a = scan(args, SWEEP_FLAGS, &[])?;
    Ok(SweepFlags {
        out: a.value("--out").unwrap_or(default_out).to_string(),
        smoke: a.has("--smoke"),
        check: a.has("--check"),
    })
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

/// Build an [`ExperimentConfig`] from `run`'s command-line options.
pub fn build_config(args: &[String]) -> Result<ExperimentConfig, String> {
    config_from(&scan(args, RUN_FLAGS, &[])?)
}

/// Build an [`ExperimentConfig`] from scanned [`RUN_FLAGS`].
pub fn config_from(args: &Args) -> Result<ExperimentConfig, String> {
    let pattern = match args.value("--pattern") {
        Some(s) => parse_pattern(s)?,
        None => AccessPattern::GlobalWholeFile,
    };
    let sync = match args.value("--sync") {
        Some(s) => parse_sync(s)?,
        None => SyncStyle::BlocksPerProc(10),
    };
    if !sync.valid_for(pattern) {
        return Err("portion synchronization cannot be used with lw".into());
    }
    let mut cfg = ExperimentConfig::paper_default(pattern, sync);

    if let Some(procs) = args.positive("--procs")? {
        cfg.procs = procs;
        cfg.disks = procs;
        cfg.workload.procs = procs;
    }
    if let Some(disks) = args.positive("--disks")? {
        cfg.disks = disks;
    }
    if let Some(blocks) = args.positive("--blocks")? {
        cfg.workload.file_blocks = blocks;
        cfg.workload.total_reads = blocks;
    }
    if !cfg.workload.total_reads.is_multiple_of(cfg.procs as u32) {
        return Err(format!(
            "total reads ({}) must divide evenly among {} processors",
            cfg.workload.total_reads, cfg.procs
        ));
    }
    if let Some(ms) = args.parse("--compute")? {
        cfg.compute_mean = SimDuration::from_millis(ms);
    }
    if let Some(seed) = args.parse("--seed")? {
        cfg.seed = seed;
    }
    if args.has("--prefetch") {
        let policy = match args.value("--policy") {
            None | Some("oracle") => PolicyKind::Oracle,
            Some("obl") => PolicyKind::Obl { depth: 3 },
            Some("learner") => PolicyKind::PortionLearner { confidence: 2 },
            Some(other) => return Err(format!("unknown policy {other:?}")),
        };
        cfg.prefetch = match policy {
            PolicyKind::Oracle => PrefetchConfig::paper(),
            other => PrefetchConfig::online(other),
        };
        if let Some(lead) = args.parse("--lead")? {
            cfg.prefetch.min_lead = lead;
        }
    }

    // Overload knobs: bound the per-device queues, and optionally enable
    // the prefetch admission controller with a credit pool. Both default
    // off, which reproduces the paper's unbounded behavior exactly.
    if let Some(depth) = args.positive("--queue-depth")? {
        cfg.queue_depth = Some(depth);
    }
    if let Some(credits) = args.positive("--prefetch-credits")? {
        cfg.admission = AdmissionConfig::on(credits);
    }

    // Fault injection: each --faults value is a comma-separated list of
    // specs — device faults (straggler:7:x4, flaky:3:p0.2@1s-4s,
    // fail:5@2s) and node crashes (crash:3@5s:rejoin@12s). The flag is
    // repeatable.
    for list in args.values("--faults") {
        let (plan, crashes) = parse_all_fault_specs(list).map_err(|e| e.to_string())?;
        for f in plan.entries() {
            cfg.faults.plan.push(*f);
        }
        for c in crashes.entries() {
            cfg.faults.crashes.push(*c);
        }
    }
    if let Some(replicas) = args.parse("--replicas")? {
        cfg.faults.replicas = replicas;
    }
    if let Some(ms) = args.positive("--io-timeout")? {
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
    if let Some(v) = args.value("--hedge") {
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
    if let Some(v) = args.value("--retry-budget") {
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
    if let Some(v) = args.value("--breaker") {
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
    if args.has("--verify") {
        cfg.integrity.verify = true;
    }
    if args.has("--scrub") {
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
        const FLAGS: &[Flag] = &[
            Flag::Value("--x", "N"),
            Flag::Bare("--y"),
            Flag::Value("--z", "N"),
            Flag::Bare("--w"),
            Flag::Repeated("--r", "V"),
        ];
        let list = args(&["--x", "1", "--y", "--r", "a", "pos", "--r", "b"]);
        let a = scan(&list, FLAGS, &["P"]).unwrap();
        assert_eq!(a.value("--x"), Some("1"));
        assert_eq!(a.value("--z"), None);
        assert!(a.has("--y"));
        assert!(!a.has("--w"));
        assert_eq!(a.values("--r").collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(a.positional(0), Some("pos"));
        assert_eq!(a.positional(1), None);

        let err = |list: &[&str]| scan(&args(list), FLAGS, &["P"]).unwrap_err();
        let e = err(&["one", "two"]);
        assert!(e.contains("unknown argument \"two\""), "{e}");
        assert!(
            e.contains("accepted: P, --x N, --y, --z N, --w, --r V..."),
            "{e}"
        );
        assert!(err(&["--x", "1", "--x", "2"]).contains("--x given more than once"));
        assert!(err(&["--y", "--y"]).contains("--y given more than once"));
        assert_eq!(err(&["--x"]), "--x requires a value");
        let e = scan(&args(&["x"]), &[], &[]).unwrap_err();
        assert!(e.contains("accepted: none"), "{e}");
    }

    #[test]
    fn run_flags_reject_unknown_and_repeated() {
        let err = |list: &[&str]| build_config(&args(list)).unwrap_err();
        let e = err(&["--patern", "lfp", "--hegde", "5", "--blocks", "200"]);
        assert!(e.contains("\"--patern\""), "{e}");
        assert!(e.contains("--pattern P"), "{e}");
        assert!(err(&["--prefetch", "--prefetch"]).contains("--prefetch given more than once"));
        assert!(err(&["--pattern", "lfp", "--pattern", "gw"])
            .contains("--pattern given more than once"));
        assert!(err(&["gw"]).contains("unknown argument \"gw\""));
        // --faults is repeatable; every value is kept.
        let cfg = build_config(&args(&[
            "--faults",
            "straggler:1:x2",
            "--faults",
            "straggler:2:x2",
        ]))
        .unwrap();
        assert_eq!(cfg.faults.plan.entries().len(), 2);
    }

    #[test]
    fn sweep_flags_parse() {
        let f = sweep_flags(&[], "BENCH_x.json").unwrap();
        assert_eq!(
            f,
            SweepFlags {
                out: "BENCH_x.json".into(),
                smoke: false,
                check: false
            }
        );
        let f = sweep_flags(&args(&["--smoke", "--out", "o.json", "--check"]), "d").unwrap();
        assert_eq!(
            f,
            SweepFlags {
                out: "o.json".into(),
                smoke: true,
                check: true
            }
        );
    }

    #[test]
    fn sweep_flags_reject_unknown_and_repeated() {
        let err = |list: &[&str]| sweep_flags(&args(list), "d").unwrap_err();
        let e = err(&["--smoke", "--chek"]);
        assert!(e.contains("\"--chek\""), "{e}");
        assert!(e.contains("--out FILE, --smoke, --check"), "{e}");
        assert!(err(&["stray"]).contains("\"stray\""));
        let e = err(&["--smoke", "--smoke"]);
        assert!(e.contains("--smoke given more than once"), "{e}");
        assert!(err(&["--check", "--check"]).contains("--check given more than once"));
        assert!(err(&["--out", "a", "--out", "b"]).contains("--out given more than once"));
        assert_eq!(err(&["--out"]), "--out requires a value");
        assert_eq!(err(&["--out", "--smoke"]), "--out requires a value");
    }
}
