//! `BENCHMARK.json`, compiled in: the single list of workloads and metrics
//! (names, units, better direction, regression bounds) that the binary
//! emits, checks and compares against.

use std::sync::OnceLock;

use crate::json::Json;

/// One declared metric.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// True when a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
pub struct Spec {
    /// Workload names with the reason each was chosen.
    pub workloads: Vec<(String, String)>,
    /// End-to-end metrics.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Every declared metric, end-to-end first.
    pub fn all(&self) -> impl Iterator<Item = &MetricSpec> {
        self.end_to_end.iter().chain(&self.per_layer)
    }

    /// The declaration of `name`.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.all().find(|m| m.name == name)
    }
}

/// The spec, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is well formed")
    })
}

fn parse(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing `{key}`"))
    };
    let field = |m: &Json, key: &str| -> Result<String, String> {
        m.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("an entry lacks `{key}`"))
    };
    let metrics = |key: &str, bounded: bool| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                let better = field(m, "better")?;
                Ok(MetricSpec {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                    lower_is_better: better == "lower",
                    bound: if bounded {
                        Some(
                            m.get("bound")
                                .and_then(Json::as_f64)
                                .ok_or("missing bound")?,
                        )
                    } else {
                        None
                    },
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(|w| Ok((field(w, "name")?, field(w, "why")?)))
            .collect::<Result<_, String>>()?,
        end_to_end: metrics("end_to_end", true)?,
        per_layer: metrics("per_layer", false)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{measure, tests::shrunk, WORKLOADS};

    #[test]
    fn declared_workloads_are_the_measured_ones() {
        let declared: Vec<&str> = spec().workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(declared, WORKLOADS);
    }

    #[test]
    fn emitted_metric_names_equal_the_declared_ones() {
        let mut declared: Vec<&str> = spec().all().map(|m| m.name.as_str()).collect();
        declared.sort_unstable();
        let total = declared.len();
        declared.dedup();
        assert_eq!(declared.len(), total, "a metric name is declared twice");
        for name in WORKLOADS {
            let (_, results) = measure(vec![shrunk(name)], 0.0, true, true);
            let emitted: Vec<&str> = results[0].metrics.keys().map(String::as_str).collect();
            assert_eq!(emitted, declared, "{name}");
            assert_eq!(results[0].failed, 0, "{name}");
            assert!(results[0].problems.is_empty(), "{:?}", results[0].problems);
        }
    }
}
