//! Pattern explorer: run all six parallel access patterns of the paper's
//! workload under one synchronization style and compare how much each
//! gains from prefetching — reproducing the qualitative ranking of §V-F
//! ("Differences Among the Patterns"): `lw` benefits most (interprocess
//! temporal locality), the global patterns benefit from interprocess
//! spatial locality, and the other local patterns (`lfp`, `lrp`) benefit
//! least because each process prefetches only for itself.
//!
//! ```sh
//! cargo run --release --example pattern_explorer [per-proc|total|portion|none]
//! ```

use rapid_transit::core::experiment::run_pairs_parallel;
use rapid_transit::core::report::Table;
use rapid_transit::core::sweeps::default_threads;
use rapid_transit::core::ExperimentConfig;
use rapid_transit::patterns::{AccessPattern, SyncStyle};

fn main() {
    let style = match std::env::args().nth(1).as_deref() {
        None | Some("per-proc") => SyncStyle::BlocksPerProc(10),
        Some("total") => SyncStyle::BlocksTotal(200),
        Some("portion") => SyncStyle::EachPortion,
        Some("none") => SyncStyle::None,
        Some(other) => {
            eprintln!("unknown sync style {other:?}; use per-proc|total|portion|none");
            std::process::exit(2);
        }
    };

    let configs: Vec<ExperimentConfig> = AccessPattern::ALL
        .into_iter()
        .filter(|p| style.valid_for(*p))
        .map(|p| ExperimentConfig::paper_default(p, style))
        .collect();

    println!("Pattern comparison under sync style `{style}` (balanced compute)\n");
    let pairs = run_pairs_parallel(&configs, default_threads());

    let mut t = Table::new(&[
        "pattern",
        "total ms (base)",
        "total ms (pf)",
        "Δtotal %",
        "read ms (base)",
        "read ms (pf)",
        "Δread %",
        "hit ratio (pf)",
    ]);
    for pair in &pairs {
        t.row(&[
            pair.label.split('/').next().unwrap_or("?").to_string(),
            format!("{:.0}", pair.base.total_time.as_millis_f64()),
            format!("{:.0}", pair.prefetch.total_time.as_millis_f64()),
            format!("{:+.1}", pair.total_time_improvement() * 100.0),
            format!("{:.2}", pair.base.mean_read_ms()),
            format!("{:.2}", pair.prefetch.mean_read_ms()),
            format!("{:+.1}", pair.read_time_improvement() * 100.0),
            format!("{:.3}", pair.prefetch.hit_ratio),
        ]);
    }
    print!("{}", t.render());

    let best = pairs
        .iter()
        .max_by(|a, b| {
            a.total_time_improvement()
                .partial_cmp(&b.total_time_improvement())
                .unwrap()
        })
        .expect("at least one pattern");
    println!(
        "\nLargest total-time gain: {} ({:+.1}%).",
        best.label,
        best.total_time_improvement() * 100.0
    );
}
