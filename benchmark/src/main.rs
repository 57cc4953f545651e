//! The benchmark of record for the RAPID Transit simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- [--workload W]... [--seed N]
//!     [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check FILE
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare PARENT CHANGE
//! ```
//!
//! See `benchmark/README.md` for the workloads, the metrics and the rules.

mod alloc;
mod bench;
mod json;
mod report;
mod spec;
mod stats;

use std::io::Write;
use std::process::ExitCode;

use bench::{measure, Workload, WORKLOADS};
use report::{RunInfo, Verdict};
use spec::spec;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The paper's seed, applied to every configuration by default.
const PAPER_SEED: u64 = 0x5241_5049_4454;

/// Timed seconds per workload when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: rt-benchmark [--workload W]... [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out FILE]\n       rt-benchmark --check FILE\n       \
rt-benchmark compare PARENT CHANGE";

/// A measuring run's command line.
struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<String>,
}

fn parse_seed(s: &str) -> Result<u64, String> {
    let s = s.replace('_', "");
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad --seed {s:?}"))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: PAPER_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        out: None,
    };
    let mut seen: Vec<&str> = Vec::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag != "--workload" {
            if seen.contains(&flag.as_str()) {
                return Err(format!("{flag} given twice"));
            }
            seen.push(flag);
        }
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workloads.push(value.clone()),
            "--seed" => args.seed = parse_seed(value)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (use 0 or 1)")),
                })
            }
            "--out" => args.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workloads.is_empty() {
        args.workloads = WORKLOADS.map(String::from).into();
    }
    Ok(args)
}

/// The commit checked out in the working directory, or `unknown` when it
/// is not a git checkout.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_string))
            }),
    });
    rev.unwrap_or_else(|| "unknown".into())
}

fn run(args: Args) -> Result<ExitCode, String> {
    let mut workloads = Vec::new();
    for name in &args.workloads {
        let mut w = Workload::named(name, args.seed)?;
        if args.smoke {
            w.reps = (w.reps / 10).max(1);
        }
        workloads.push(w);
    }
    let single = workloads.len() == 1;
    let traced = args.trace != Some(false);
    let (rounds, results) = measure(workloads, args.seconds, args.smoke, traced);

    let s = spec();
    for r in &results {
        println!(
            "== {} ({} configs, {} trials/round, {rounds} round(s)) ==",
            r.name,
            r.configs.len(),
            r.trials_per_round,
        );
        for m in s.all() {
            let Some(v) = r.metrics.get(&m.name) else {
                continue;
            };
            let mut line = format!("  {:<34} {:>16.6} {}", m.name, v.value, m.unit);
            if let Some(mad) = v.mad {
                line += &format!("  (MAD {mad:.6})");
            }
            if let Some(n) = v.samples {
                line += &format!("  (n={n})");
            }
            println!("{line}");
        }
        println!(
            "  attempted {} failed {} correct {}",
            r.attempted,
            r.failed,
            report::correct(r)
        );
        for p in &r.problems {
            println!("  problem: {p}");
        }
    }

    if let Some(path) = &args.out {
        let info = RunInfo {
            seed: args.seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev(),
            smoke: args.smoke,
            seconds: args.seconds,
            rounds,
            traced,
        };
        let line = format!("{}\n", report::report(&info, &results));
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(line.as_bytes()))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
        println!("report appended to {path}");
    }
    if single {
        println!("{}", report::result_line(&results[0], args.trace));
    }
    Ok(ExitCode::SUCCESS)
}

fn check(path: &str) -> Result<ExitCode, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let runs = report::read_runs(&text)?;
    if runs.is_empty() {
        return Err(format!("{path} holds no report"));
    }
    let mut ok = true;
    for (i, doc) in runs.iter().enumerate() {
        for p in report::check(doc) {
            println!("run {}: {p}", i + 1);
            ok = false;
        }
    }
    println!(
        "{path}: {} run(s), {}",
        runs.len(),
        if ok { "ok" } else { "REJECTED" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare(parent: &str, change: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        report::read_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = report::compare(&load(parent)?, &load(change)?);
    println!(
        "{:<17} {:<13} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "wins"
    );
    for r in &rows {
        println!(
            "{:<17} {:<13} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>3}/{:<2}  {:?}",
            r.workload,
            r.metric,
            r.parent,
            r.change,
            (r.change / r.parent - 1.0) * 100.0,
            r.spread * 100.0,
            r.wins,
            r.pairs,
            r.verdict
        );
    }
    let worse = rows.iter().any(|r| r.verdict == Verdict::Worse);
    Ok(if worse {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("compare") => match &argv[1..] {
            [parent, change] => compare(parent, change),
            _ => Err("compare takes PARENT and CHANGE report files".into()),
        },
        Some("--check") => match &argv[1..] {
            [file] => check(file),
            _ => Err("--check takes one report file".into()),
        },
        Some("-h" | "--help") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&argv).and_then(run),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = args(&[
            "--workload",
            "paper-grid",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads, ["paper-grid"]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, Some(true)));
        let a = args(&[]).unwrap();
        assert_eq!(a.workloads, WORKLOADS);
        assert_eq!(a.seed, PAPER_SEED);
        assert_eq!(parse_seed("0x5241_5049_4454").unwrap(), PAPER_SEED);
        for bad in [
            &["--sed", "7"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seed", "1", "--seed", "2"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }
}
