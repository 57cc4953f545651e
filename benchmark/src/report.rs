//! The benchmark's outputs: the self-describing JSON report (one line per
//! run), the one-line result object, `--check` and `compare`.

use crate::bench::{WorkloadResult, KINDS, THREADS};
use crate::json::Json;
use crate::spec::{spec, MetricSpec};
use crate::stats::{iqr, median};

/// Report format version.
const SCHEMA: f64 = 1.0;

/// What a run was asked to do, echoed in its report.
pub struct RunInfo {
    /// Workload seed.
    pub seed: u64,
    /// Host CPUs available to the process.
    pub nproc: usize,
    /// Commit measured, or `unknown`.
    pub git_rev: String,
    /// One short round instead of timed rounds.
    pub smoke: bool,
    /// Timed seconds per workload.
    pub seconds: f64,
    /// Timed rounds run.
    pub rounds: usize,
    /// Whether the traced pass ran.
    pub traced: bool,
}

fn num(v: impl Into<f64>) -> Json {
    Json::Num(v.into())
}

fn unit(name: &str) -> &'static str {
    spec()
        .metric(name)
        .map_or("?", |m: &'static MetricSpec| m.unit.as_str())
}

/// A workload's result is correct when every trial passed and no
/// warm-up or traced-pass check failed.
pub fn correct(r: &WorkloadResult) -> bool {
    r.failed == 0 && r.problems.is_empty()
}

/// The full report of one run.
pub fn report(info: &RunInfo, results: &[WorkloadResult]) -> Json {
    let workloads = results
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|(name, m)| {
                    let mut fields = vec![
                        ("value".to_string(), num(m.value)),
                        ("unit".to_string(), Json::Str(unit(name).into())),
                    ];
                    if let Some(mad) = m.mad {
                        fields.push(("mad".into(), num(mad)));
                    }
                    if let Some(n) = m.samples {
                        fields.push(("samples".into(), num(n as f64)));
                    }
                    (name.clone(), Json::Obj(fields))
                })
                .collect();
            let configs = r
                .configs
                .iter()
                .map(|(label, layers)| {
                    Json::Obj(vec![
                        ("label".into(), Json::Str(label.clone())),
                        (
                            "layers".into(),
                            Json::Arr(layers.iter().map(|l| Json::Str(l.to_string())).collect()),
                        ),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("name".into(), Json::Str(r.name.into())),
                ("threads".into(), num(THREADS as f64)),
                ("trials_per_round".into(), num(r.trials_per_round as f64)),
                ("configs".into(), Json::Arr(configs)),
                ("correct".into(), Json::Bool(correct(r))),
                ("attempted".into(), num(r.attempted as f64)),
                ("failed".into(), num(r.failed as f64)),
                (
                    "problems".into(),
                    Json::Arr(r.problems.iter().map(|p| Json::Str(p.clone())).collect()),
                ),
                ("metrics".into(), Json::Obj(metrics)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), num(SCHEMA)),
        ("seed".into(), Json::Str(info.seed.to_string())),
        ("nproc".into(), num(info.nproc as f64)),
        ("git_rev".into(), Json::Str(info.git_rev.clone())),
        ("smoke".into(), Json::Bool(info.smoke)),
        ("seconds".into(), num(info.seconds)),
        ("rounds".into(), num(info.rounds as f64)),
        ("traced".into(), Json::Bool(info.traced)),
        ("workloads".into(), Json::Arr(workloads)),
    ])
}

/// The one-line result of a single-workload run: the end-to-end metrics
/// when `per_layer` is false, the per-layer metrics when true, both when
/// unset.
pub fn result_line(r: &WorkloadResult, per_layer: Option<bool>) -> Json {
    let s = spec();
    let chosen: Vec<&MetricSpec> = match per_layer {
        Some(false) => s.end_to_end.iter().collect(),
        Some(true) => s.per_layer.iter().collect(),
        None => s.all().collect(),
    };
    let metrics = chosen
        .into_iter()
        .filter_map(|m| {
            let v = r.metrics.get(&m.name)?;
            Some((
                m.name.clone(),
                Json::Obj(vec![
                    ("value".into(), num(v.value)),
                    ("unit".into(), Json::Str(m.unit.clone())),
                ]),
            ))
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct(r))),
        ("attempted".into(), num(r.attempted as f64)),
        ("failed".into(), num(r.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Find workload `name` in a report.
fn workload<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc.get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// The value of metric `name` in a report's workload entry.
fn value(w: &Json, name: &str) -> Option<f64> {
    w.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Validate one report: every declared workload and metric present with
/// its declared unit and a finite value, no failed trial or check, read
/// attribution shares summing to one, and per-kind event counts summing to
/// `sim.events`. Returns every problem found.
pub fn check(doc: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, _) in &spec().workloads {
        let Some(w) = workload(doc, name) else {
            problems.push(format!("{name}: missing"));
            continue;
        };
        for m in spec().all() {
            let entry = w.get("metrics").and_then(|ms| ms.get(&m.name));
            match entry.and_then(|e| e.get("value")).and_then(Json::as_f64) {
                Some(v) if v.is_finite() => {}
                _ => problems.push(format!("{name}: {} missing or not finite", m.name)),
            }
            let got = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
            if entry.is_some() && got != Some(m.unit.as_str()) {
                problems.push(format!(
                    "{name}: {} has unit {got:?}, not {}",
                    m.name, m.unit
                ));
            }
        }
        let count = |key: &str| w.get(key).and_then(Json::as_f64);
        match (count("attempted"), count("failed")) {
            (Some(a), Some(0.0)) if a >= 1.0 => {}
            (a, f) => problems.push(format!("{name}: fail ratio {f:?}/{a:?} is not 0")),
        }
        if w.get("correct").and_then(Json::as_bool) != Some(true) {
            problems.push(format!("{name}: output was not correct"));
        }
        let shares: Option<f64> = rt_core::obs::COMPONENT_NAMES
            .iter()
            .map(|c| value(w, &format!("read.{c}.share")))
            .sum();
        if shares.is_some_and(|s| (s - 1.0).abs() > 1e-9) {
            problems.push(format!("{name}: read.*.share sums to {shares:?}, not 1"));
        }
        let kinds: Option<f64> = KINDS
            .iter()
            .map(|k| value(w, &format!("world.{k}.events")))
            .sum();
        if kinds.is_some() && kinds != value(w, "sim.events") {
            problems.push(format!("{name}: world.*.events do not sum to sim.events"));
        }
    }
    problems
}

/// How a change's metric compares with its parent's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Won at least 9 of 10 pairs and moved by more than the parent's IQR.
    Improved,
    /// Median no worse than the parent's by more than the bound.
    WithinBound,
    /// Median worse than the parent's by more than the bound.
    Worse,
    /// The parent's spread is wider than the bound; nothing can be said.
    Unresolved,
}

/// One row of `compare`.
#[derive(Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Parent median.
    pub parent: f64,
    /// Change median.
    pub change: f64,
    /// Parent IQR as a share of its median.
    pub spread: f64,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judge one metric's paired runs by the rule the benchmark fixes: the
/// change improved only if it won at least nine tenths of at least ten
/// pairs and its median moved by more than the parent's IQR; otherwise a
/// parent spread wider than the bound leaves the metric unresolved, unless
/// every change run beats every parent run.
pub fn judge(
    parent: &[f64],
    change: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (Verdict, usize) {
    let better = |c: f64, p: f64| if lower_is_better { c < p } else { c > p };
    let (mp, mc) = (median(parent), median(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| better(c, p))
        .count();
    let worse_by = if lower_is_better { mc - mp } else { mp - mc } / mp.abs();
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let verdict =
        if pairs >= 10 && wins * 10 >= pairs * 9 && (mc - mp).abs() > iqr(parent) && better(mc, mp)
        {
            Verdict::Improved
        } else if iqr(parent) / mp.abs() > bound && !all_better {
            Verdict::Unresolved
        } else if worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        };
    (verdict, wins)
}

/// Compare paired runs (run i of the parent with run i of the change) of
/// every end-to-end metric on every workload. A workload whose change runs
/// failed more trials than the parent's gets a `failed` row marked worse,
/// and none of its rows counts as improved.
pub fn compare(parent: &[Json], change: &[Json]) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, _) in &spec().workloads {
        let values = |runs: &[Json], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter_map(|d| value(workload(d, name)?, metric))
                .collect()
        };
        let failed = |runs: &[Json]| -> f64 {
            runs.iter()
                .filter_map(|d| workload(d, name)?.get("failed")?.as_f64())
                .sum()
        };
        let more_failures = failed(change) > failed(parent);
        for m in &spec().end_to_end {
            let (p, c) = (values(parent, &m.name), values(change, &m.name));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let n = p.len().min(c.len());
            let (p, c) = (&p[..n], &c[..n]);
            let (mut verdict, wins) = judge(p, c, m.lower_is_better, m.bound.unwrap_or(0.0));
            if more_failures && verdict == Verdict::Improved {
                verdict = Verdict::WithinBound;
            }
            rows.push(Row {
                workload: name.clone(),
                metric: m.name.clone(),
                parent: median(p),
                change: median(c),
                spread: iqr(p) / median(p).abs(),
                wins,
                pairs: n,
                verdict,
            });
        }
        if more_failures {
            rows.push(Row {
                workload: name.clone(),
                metric: "failed".into(),
                parent: failed(parent),
                change: failed(change),
                spread: 0.0,
                wins: 0,
                pairs: parent.len().min(change.len()),
                verdict: Verdict::Worse,
            });
        }
    }
    rows
}

/// The runs in a report file: one JSON report per non-empty line.
pub fn read_runs(text: &str) -> Result<Vec<Json>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| Json::parse(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{measure, tests::shrunk, WORKLOADS};

    #[test]
    fn check_accepts_a_full_report_and_rejects_a_tampered_one() {
        let (rounds, results) = measure(WORKLOADS.map(shrunk).into(), 0.0, true, true);
        let info = RunInfo {
            seed: 7,
            nproc: 1,
            git_rev: "unknown".into(),
            smoke: true,
            seconds: 0.0,
            rounds,
            traced: true,
        };
        let doc = report(&info, &results);
        assert_eq!(check(&doc), Vec::<String>::new());
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(check(&reparsed), Vec::<String>::new());

        let mut bad = results;
        bad[0].failed = 1;
        bad[1].metrics.remove("run_ms_p90");
        bad[2].metrics.get_mut("read.overhead.share").unwrap().value += 0.5;
        bad[3].metrics.get_mut("world.start.events").unwrap().value += 1.0;
        let problems = check(&report(&info, &bad));
        assert_eq!(problems.len(), 5, "{problems:#?}");
    }

    #[test]
    fn judge_applies_the_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.4,
        ];
        // Faster on every pair by far more than the IQR: improved.
        let faster: Vec<f64> = parent.iter().map(|p| p * 0.8).collect();
        assert_eq!(judge(&parent, &faster, true, 0.1).0, Verdict::Improved);
        // 5% slower with a 10% bound: within bound; with 2%: worse.
        let slower: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
        assert_eq!(judge(&parent, &slower, true, 0.1).0, Verdict::WithinBound);
        assert_eq!(judge(&parent, &slower, true, 0.02).0, Verdict::Worse);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&parent, &slower, false, 0.1).0, Verdict::Improved);
        // A parent spread wider than the bound leaves it unresolved.
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(judge(&noisy, &slower, true, 0.1).0, Verdict::Unresolved);
        // ... unless every change run beats every parent run.
        assert_eq!(judge(&noisy, &[40.0; 10], true, 0.1).0, Verdict::Improved);
        // Fewer than ten pairs can never count as improved.
        assert_eq!(
            judge(&parent[..5], &faster[..5], true, 0.1).0,
            Verdict::WithinBound
        );
        // Identical runs are within bound, with no wins.
        assert_eq!(
            judge(&parent, &parent, true, 0.1),
            (Verdict::WithinBound, 0)
        );
    }

    #[test]
    fn check_rejects_incomplete_reports() {
        let empty = Json::Obj(vec![("workloads".into(), Json::Arr(vec![]))]);
        assert_eq!(check(&empty).len(), spec().workloads.len());
        assert!(read_runs("{}\n\n{\"a\":1}\n").unwrap().len() == 2);
        assert!(read_runs("{\n").is_err());
    }
}
