//! Observability wiring for [`World`]: the optional recording state, the
//! epoch gauge sampler, emit glue for spans/instants, and the per-read
//! latency-attribution interval accounting.
//!
//! Everything here follows the same inertness discipline as the fault,
//! admission, and integrity layers: `World::obs` is `None` by default and
//! recording never schedules simulation events, never touches an RNG, and
//! never changes control flow — results are byte-identical with
//! observation on or off. The epoch sampler piggybacks on whatever event
//! fires next at-or-after each boundary instead of scheduling its own
//! ticks, which keeps the event stream untouched at the cost of samples
//! being *taken* slightly late (they are *recorded at* the boundary).
//!
//! The attribution accumulator, by contrast, is always on: three plain
//! fields per process updated by closing contiguous intervals at
//! lifecycle transitions. Because every nanosecond between request and
//! completion falls into exactly one interval, the components telescope
//! to the observed read time — `read_finished` asserts that sum.

use super::*;
use rt_obs::{Component, EventKind, ObsEvent, ReadAttribution, Ring, Series, Track};

/// How a [`World`] records telemetry once [`World::enable_obs`] is called.
#[derive(Clone, Copy, Debug)]
pub struct ObsConfig {
    /// Maximum events held; older events are overwritten (and counted).
    pub ring_capacity: usize,
    /// Epoch gauge-sampling period; `None` disables the time-series.
    pub sample_every: Option<SimDuration>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            ring_capacity: 1 << 20,
            sample_every: Some(SimDuration::from_millis(50)),
        }
    }
}

impl ObsConfig {
    /// Flight-recorder shape: a short tail of events plus dense gauges,
    /// kept by the soak/integrity harnesses for postmortem dumps.
    pub fn flight_recorder() -> Self {
        ObsConfig {
            ring_capacity: 4096,
            sample_every: Some(SimDuration::from_millis(20)),
        }
    }
}

/// Fixed gauge-series layout: indices 0..SERIES_BASE are machine-wide,
/// then one group per disk (queue depth, plus health EWMAs when the
/// fault layer is allocated).
const S_OCCUPANCY: usize = 0;
const S_PF_PENDING: usize = 1;
const S_PF_UNUSED: usize = 2;
const S_PINNED: usize = 3;
const S_CREDITS: usize = 4;
const S_PARKED: usize = 5;
const S_UNUSED_EVICT: usize = 6;
const S_IN_FLIGHT: usize = 7;
const S_BARRIER: usize = 8;
const SERIES_BASE: usize = 9;

/// Recording state of an observed world.
pub(crate) struct ObsState {
    pub ring: Ring,
    pub series: Vec<Series>,
    /// Per-disk health series exist (fault layer allocated at enable).
    health: bool,
    sample_every: SimDuration,
    next_sample: SimTime,
}

/// The telemetry recorded by one observed run, detached from the world.
pub struct ObsData {
    /// Recorded events in order (oldest surviving first).
    pub events: Vec<ObsEvent>,
    /// Epoch gauge series.
    pub series: Vec<Series>,
    /// Events lost to ring overwrite (0 = the recording is complete).
    pub dropped: u64,
}

impl ObsData {
    /// Serialize as Chrome Trace Event JSON (open in ui.perfetto.dev).
    pub fn to_perfetto(&self) -> String {
        rt_obs::write_trace(&self.events, &self.series, self.dropped)
    }

    /// Human-readable tail of the last `limit` events.
    pub fn tail(&self, limit: usize) -> String {
        rt_obs::render_tail(&self.events, limit)
    }
}

/// `ObsEvent::arg2` code for a read outcome (matches
/// [`rt_obs::OUTCOME_LABELS`]).
pub(crate) fn outcome_code(o: ReadOutcome) -> u64 {
    match o {
        ReadOutcome::ReadyHit => 0,
        ReadOutcome::UnreadyHit => 1,
        ReadOutcome::Miss => 2,
        ReadOutcome::Failed => 3,
    }
}

/// `ObsEvent::arg2` code for a fetch kind (matches
/// [`rt_obs::FETCH_LABELS`]).
pub(crate) fn fetch_code(k: FetchKind) -> u64 {
    match k {
        FetchKind::Demand => 0,
        FetchKind::Prefetch => 1,
        FetchKind::Scrub => 2,
        FetchKind::Repair => 3,
    }
}

impl World {
    /// Start recording spans/instants into a bounded ring and gauges on a
    /// sampling epoch. Call before the run starts. Purely passive — see
    /// the module docs for the inertness guarantee.
    pub fn enable_obs(&mut self, cfg: ObsConfig) {
        let mut series = vec![
            Series::new("cache occupancy"),
            Series::new("prefetch pending"),
            Series::new("prefetched unused"),
            Series::new("pinned buffers"),
            Series::new("admission credits"),
            Series::new("parked demands"),
            Series::new("unused evictions"),
            Series::new("in-flight I/O"),
            Series::new("barrier waiting"),
        ];
        debug_assert_eq!(series.len(), SERIES_BASE);
        let health = self.faults.is_some();
        for d in 0..self.cfg.disks {
            series.push(Series::new(format!("disk {d} queue")));
            if health {
                series.push(Series::new(format!("disk {d} err-ewma")));
                series.push(Series::new(format!("disk {d} lat-ewma-ms")));
            }
        }
        let every = cfg.sample_every.unwrap_or(SimDuration::ZERO);
        self.obs = Some(ObsState {
            ring: Ring::new(cfg.ring_capacity),
            series,
            health,
            sample_every: every,
            next_sample: if every.is_zero() {
                SimTime::MAX
            } else {
                SimTime::ZERO + every
            },
        });
    }

    /// Detach and return the recorded telemetry, if observation was
    /// enabled. Recording stops.
    pub fn take_obs(&mut self) -> Option<ObsData> {
        self.obs.take().map(|o| ObsData {
            dropped: o.ring.dropped(),
            events: o.ring.to_vec(),
            series: o.series,
        })
    }

    /// Opportunistic epoch sampler, run at the top of every event. When
    /// one or more boundaries have passed since the last sample, record
    /// the current gauge values at the most recent boundary — no events
    /// are scheduled, so the simulation is untouched.
    #[inline]
    pub(crate) fn obs_sample(&mut self, now: SimTime) {
        let due = match &self.obs {
            Some(o) => o.next_sample,
            None => return,
        };
        if now < due {
            return;
        }
        let mut obs = self.obs.take().expect("sampled without obs state");
        let mut at = obs.next_sample;
        while at + obs.sample_every <= now {
            at += obs.sample_every;
        }
        obs.next_sample = at + obs.sample_every;

        let pressure = self.pool.pressure();
        obs.series[S_OCCUPANCY].record(at, pressure.occupancy());
        obs.series[S_PF_PENDING].record(at, pressure.pending as f64);
        obs.series[S_PF_UNUSED].record(at, self.pool.prefetched_unused() as f64);
        obs.series[S_PINNED].record(at, pressure.pinned as f64);
        let (credits, parked) = match &self.admission {
            Some(a) => (a.credits as f64, a.parked_total() as f64),
            None => (0.0, 0.0),
        };
        obs.series[S_CREDITS].record(at, credits);
        obs.series[S_PARKED].record(at, parked);
        obs.series[S_UNUSED_EVICT].record(at, self.pool.unused_evictions() as f64);
        obs.series[S_IN_FLIGHT].record(at, self.outstanding_io as f64);
        obs.series[S_BARRIER].record(at, self.barrier.waiting() as f64);
        let stride = if obs.health { 3 } else { 1 };
        for (i, d) in self.disks().disks().iter().enumerate() {
            let base = SERIES_BASE + i * stride;
            obs.series[base].record(at, d.queued() as f64);
            if obs.health {
                let f = self.faults.as_ref().expect("health series without faults");
                let id = DiskId(i as u16);
                obs.series[base + 1].record(at, f.health.error_ewma(id));
                obs.series[base + 2].record(at, f.health.latency_ewma_ms(id));
            }
        }
        self.obs = Some(obs);
    }

    /// Record an instant (zero-width) event, if observing.
    #[inline]
    pub(crate) fn obs_instant(
        &mut self,
        track: Track,
        kind: EventKind,
        now: SimTime,
        block: u64,
        arg2: u64,
    ) {
        if let Some(o) = &mut self.obs {
            o.ring.push(ObsEvent {
                track,
                kind,
                start: now,
                dur: SimDuration::ZERO,
                arg: block,
                arg2,
                attr: ReadAttribution::default(),
            });
        }
    }

    /// Record a duration span, if observing.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn obs_span(
        &mut self,
        track: Track,
        kind: EventKind,
        start: SimTime,
        dur: SimDuration,
        block: u64,
        arg2: u64,
        attr: ReadAttribution,
    ) {
        if let Some(o) = &mut self.obs {
            o.ring.push(ObsEvent {
                track,
                kind,
                start,
                dur,
                arg: block,
                arg2,
                attr,
            });
        }
    }

    // ------------------------------------------------------------------
    // Latency-attribution interval accounting (always on). The invariant:
    // for each process, [attr_mark, now] is the open interval and
    // attr_cur the component it will be charged to; every transition
    // closes the open interval and opens the next, so the components sum
    // exactly to the read's latency when `read_finished` closes the last.
    // ------------------------------------------------------------------

    /// Close the open interval into its component and open the next.
    #[inline]
    pub(crate) fn attr_close(&mut self, p: usize, now: SimTime, next: Component) {
        let proc = &mut self.procs[p];
        let d = now.saturating_since(proc.attr_mark);
        proc.attr.add(proc.attr_cur, d);
        proc.attr_mark = now;
        proc.attr_cur = next;
    }

    /// Close the open interval as a lock critical section: up to
    /// `overhead` of its tail is the section's own cost (Overhead), the
    /// remainder was spent queued on the lock (LockWait).
    pub(crate) fn attr_close_lock(
        &mut self,
        p: usize,
        now: SimTime,
        overhead: SimDuration,
        next: Component,
    ) {
        let proc = &mut self.procs[p];
        let elapsed = now.saturating_since(proc.attr_mark);
        let oh = elapsed.min(overhead);
        proc.attr.add(Component::Overhead, oh);
        proc.attr.add(Component::LockWait, elapsed - oh);
        proc.attr_mark = now;
        proc.attr_cur = next;
    }

    /// A fetch of `block` began device service: waiters still queued (or
    /// backing off) behind it start accruing disk service. Unready-hit
    /// waiters are untouched — their whole wait is hit-wait.
    pub(crate) fn attr_service_begins(&mut self, block: BlockId, now: SimTime) {
        let procs = &mut self.procs;
        self.waiters.for_each(block, |w| {
            let proc = &mut procs[w.index()];
            if matches!(
                proc.attr_cur,
                Component::QueueWait | Component::RetryBackoff
            ) {
                let d = now.saturating_since(proc.attr_mark);
                proc.attr.add(proc.attr_cur, d);
                proc.attr_mark = now;
                proc.attr_cur = Component::DiskService;
            }
        });
    }

    /// Emit breaker open-episode closures folded up by the health tracker
    /// as spans on the per-device breaker tracks. Draining is
    /// unconditional so the closure list never grows without bound;
    /// `obs_span` is a no-op when observation is off.
    pub(crate) fn emit_breaker_closures(&mut self) {
        if !self.cfg.faults.breaker.enabled {
            return;
        }
        let Some(f) = &mut self.faults else { return };
        let closed = f.health.drain_breaker_closures();
        for c in closed {
            self.obs_span(
                Track::Breaker(c.disk.0),
                EventKind::BreakerOpen,
                c.opened,
                c.hold,
                u64::MAX,
                c.half_open.as_nanos(),
                ReadAttribution::default(),
            );
        }
    }

    /// The fetch of `block` moved to a new stage (verify hold, retry
    /// backoff): miss-origin waiters switch their open interval to
    /// `next`. Unready-hit waiters keep accruing hit-wait.
    pub(crate) fn attr_fetch_stage(&mut self, block: BlockId, now: SimTime, next: Component) {
        let procs = &mut self.procs;
        self.waiters.for_each(block, |w| {
            let proc = &mut procs[w.index()];
            if matches!(
                proc.attr_cur,
                Component::QueueWait
                    | Component::DiskService
                    | Component::RetryBackoff
                    | Component::VerifyHold
                    | Component::HedgeWait
            ) {
                let d = now.saturating_since(proc.attr_mark);
                proc.attr.add(proc.attr_cur, d);
                proc.attr_mark = now;
                proc.attr_cur = next;
            }
        });
    }
}
