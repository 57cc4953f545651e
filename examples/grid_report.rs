//! Full-grid report: run the paper's complete §IV-D experiment suite (46
//! configurations × prefetching off/on) in parallel and print a one-line
//! summary per configuration plus the aggregate statistics the paper
//! quotes. This is the fastest way to regenerate the whole evaluation.
//!
//! ```sh
//! cargo run --release --example grid_report
//! ```

use rapid_transit::core::experiment::{paper_grid, run_pairs_parallel};
use rapid_transit::core::report::{fraction_at_least, median, pct, Table};
use rapid_transit::core::sweeps::default_threads;

fn main() {
    let grid = paper_grid();
    println!(
        "Running the paper grid: {} configurations x 2 (base/prefetch)...\n",
        grid.len()
    );
    let pairs = run_pairs_parallel(&grid, default_threads());

    let mut t = Table::new(&[
        "experiment",
        "Δtotal %",
        "Δread %",
        "hit (pf)",
        "unready frac",
        "Δdisk %",
        "Δsync %",
    ]);
    for p in &pairs {
        t.row(&[
            p.label.clone(),
            format!("{:+.1}", p.total_time_improvement() * 100.0),
            format!("{:+.1}", p.read_time_improvement() * 100.0),
            format!("{:.3}", p.prefetch.hit_ratio),
            format!("{:.3}", p.prefetch.unready_fraction()),
            format!("{:+.1}", p.disk_response_improvement() * 100.0),
            if p.base.barriers > 0 {
                format!("{:+.1}", p.sync_wait_improvement() * 100.0)
            } else {
                "-".to_string()
            },
        ]);
    }
    print!("{}", t.render());

    let read_imps: Vec<f64> = pairs.iter().map(|p| p.read_time_improvement()).collect();
    let total_imps: Vec<f64> = pairs.iter().map(|p| p.total_time_improvement()).collect();
    println!("\nAggregates (paper's quoted statistics):");
    println!(
        "  read time:  median improvement {}, {} of runs >= 35%, max {}",
        pct(median(&read_imps)),
        pct(fraction_at_least(&read_imps, 0.35)),
        pct(read_imps.iter().copied().fold(f64::MIN, f64::max)),
    );
    println!(
        "  total time: {} of runs improved, median {}, best {}, worst {}",
        pct(fraction_at_least(&total_imps, 0.0)),
        pct(median(&total_imps)),
        pct(total_imps.iter().copied().fold(f64::MIN, f64::max)),
        pct(total_imps.iter().copied().fold(f64::MAX, f64::min)),
    );
}
