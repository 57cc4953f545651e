//! # rt-bench — the figure-reproduction harness
//!
//! Shared plumbing for the `benches/figNN_*` targets, each of which
//! regenerates one figure of Kotz & Ellis (1989). The figures fall into
//! three families:
//!
//! * **Grid scatter plots** (Figs. 3–11): every point is one configuration
//!   of the §IV-D grid run twice (without and with prefetching).
//!   [`grid_pairs`] produces those pairs once, in parallel.
//! * **The computation sweep** (Fig. 12): the `gw` pattern with the mean
//!   per-block compute time varied — [`compute_sweep`].
//! * **The minimum-prefetch-lead sweeps** (Figs. 13–16): the four patterns
//!   of §V-E under leads 0–90 — [`lead_sweep`].
//!
//! Every harness prints the series the paper plots plus the summary
//! statistics quoted in its text, so `cargo bench` output can be compared
//! against the paper claim by claim (see `EXPERIMENTS.md`).

use rt_core::experiment::{paper_grid, run_pairs_parallel};
use rt_core::sweeps;
use rt_core::{ExperimentConfig, RunMetrics, RunPair};
use rt_patterns::{AccessPattern, SyncStyle};

pub mod crashes;
pub mod faults;
pub mod integrity;
pub mod json;
pub mod soak;
pub mod tail;
pub mod trace_check;

/// Events shown in a flight dump's human-readable tail.
pub const FLIGHT_TAIL_EVENTS: usize = 40;

/// A flight-recorder postmortem: the Perfetto JSON document plus a
/// human-readable tail of the last events before a violation. The soak
/// and integrity harnesses produce one whenever an invariant (including
/// the corrupt-delivery tripwire) fires mid-run.
#[derive(Clone, Debug)]
pub struct FlightDump {
    /// Chrome Trace Event JSON (open in ui.perfetto.dev).
    pub perfetto: String,
    /// Human-readable tail of the recording, newest last.
    pub tail: String,
}

impl FlightDump {
    /// Detach `world`'s recording (if it was observed) as a dump.
    pub fn take(world: &mut rt_core::World) -> Option<FlightDump> {
        world.take_obs().map(|d| FlightDump {
            perfetto: d.to_perfetto(),
            tail: d.tail(FLIGHT_TAIL_EVENTS),
        })
    }
}

pub use rt_core::sweeps::{ComputePoint, LeadPoint};

/// Run the paper's full §IV-D grid as base/prefetch pairs.
pub fn grid_pairs() -> Vec<RunPair> {
    run_pairs_parallel(&paper_grid(), sweeps::default_threads())
}

/// The §V-C computation sweep: `gw`, synchronizing every 10 blocks per
/// processor, compute mean swept from I/O-bound to compute-bound.
pub fn compute_sweep() -> Vec<ComputePoint> {
    let base = ExperimentConfig::paper_default(
        AccessPattern::GlobalWholeFile,
        SyncStyle::BlocksPerProc(10),
    );
    sweeps::compute_sweep_over(
        &base,
        &[0, 5, 10, 20, 30, 45, 60, 80, 100, 150, 200],
        sweeps::default_threads(),
    )
}

/// The §V-E patterns: the lead restriction only matters where prefetching
/// past the frontier is permitted, so the paper studies the fixed-portion
/// and whole-file patterns.
pub const LEAD_PATTERNS: [AccessPattern; 4] = [
    AccessPattern::LocalFixedPortions,
    AccessPattern::GlobalFixedPortions,
    AccessPattern::LocalWholeFile,
    AccessPattern::GlobalWholeFile,
];

/// The paper's lead values (0 through 90 blocks).
pub const LEADS: [u32; 7] = [0, 15, 30, 45, 60, 75, 90];

/// Run the §V-E lead sweep for all four patterns. Local patterns read the
/// whole file per process (40 000 reads); divide their total time by 20
/// when comparing with the global patterns, as the paper does.
pub fn lead_sweep() -> Vec<LeadPoint> {
    sweeps::lead_sweep_over(&LEAD_PATTERNS, &LEADS, sweeps::default_threads())
}

/// The no-prefetch reference runs for the lead-sweep patterns (for the
/// Fig. 16 comparison), keyed in [`LEAD_PATTERNS`] order.
pub fn lead_baselines() -> Vec<RunMetrics> {
    sweeps::lead_baselines_for(&LEAD_PATTERNS)
}

/// Normalization for comparing local lead-sweep runs (40 000 reads) with
/// global ones (2000 reads): the paper divides local total times by 20.
pub fn lead_time_scale(pattern: AccessPattern) -> f64 {
    if pattern.is_local() {
        20.0
    } else {
        1.0
    }
}

/// Standard header printed by every figure harness.
pub fn figure_header(fig: &str, caption: &str) {
    println!("==================================================================");
    println!("{fig} — {caption}");
    println!("Kotz & Ellis, \"Prefetching in File Systems for MIMD");
    println!("Multiprocessors\" (1989); reproduced on the rt-core simulator.");
    println!("==================================================================\n");
}
