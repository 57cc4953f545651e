//! Statistics collection for simulation runs.
//!
//! The paper reports means, distributions (CDFs), and ratios of measured
//! quantities. [`Tally`] accumulates a streaming mean (Welford), [`Sampled`]
//! retains every observation so percentiles/CDFs can be extracted (and
//! folds them into a `Tally` on demand), and [`TimeWeighted`] integrates a
//! piecewise-constant value (e.g. disk queue length) over simulated time.

use crate::time::{SimDuration, SimTime};

/// Streaming count / mean / min / max of a sequence of durations.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    count: u64,
    mean: f64,
    min: Option<SimDuration>,
    max: Option<SimDuration>,
}

impl Tally {
    /// A fresh, empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Record one observation.
    pub fn record(&mut self, d: SimDuration) {
        let x = d.as_nanos() as f64;
        self.count += 1;
        self.mean += (x - self.mean) / self.count as f64;
        self.min = Some(self.min.map_or(d, |m| m.min(d)));
        self.max = Some(self.max.map_or(d, |m| m.max(d)));
    }

    /// Merge another tally into this one (parallel-safe reduction).
    pub fn merge(&mut self, other: &Tally) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n2 = other.count as f64;
        let total = self.count as f64 + n2;
        self.mean += (other.mean - self.mean) * n2 / total;
        self.count += other.count;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.mean.round() as u64)
        }
    }

    /// Mean in fractional milliseconds (for reporting).
    pub fn mean_millis(&self) -> f64 {
        self.mean / 1.0e6
    }

    /// Smallest observation, if any.
    pub fn min(&self) -> Option<SimDuration> {
        self.min
    }

    /// Largest observation, if any.
    pub fn max(&self) -> Option<SimDuration> {
        self.max
    }

    /// Sum of all observations.
    pub fn total(&self) -> SimDuration {
        SimDuration::from_nanos((self.mean * self.count as f64).round() as u64)
    }
}

/// Every observation of a sequence, so percentiles and CDFs can be computed
/// after the run. Experiments here record at most a few tens of thousands
/// of observations, so retention is cheap. Recording only appends; the
/// streaming summary is folded on demand, in recording order, so it is
/// bit-identical to a [`Tally`] fed the same sequence.
#[derive(Clone, Debug, Default)]
pub struct Sampled {
    samples: Vec<SimDuration>,
}

impl Sampled {
    /// A fresh, empty sampler.
    pub fn new() -> Self {
        Sampled::default()
    }

    /// Record one observation.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d);
    }

    /// The streaming summary of the same observations, folded now.
    pub fn tally(&self) -> Tally {
        let mut t = Tally::new();
        self.samples.iter().for_each(|&d| t.record(d));
        t
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Arithmetic mean, or zero if empty.
    pub fn mean(&self) -> SimDuration {
        self.tally().mean()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method, or `None`
    /// if no observations were recorded.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let rank = ((sorted.len() as f64) * q).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// All observations, in recording order.
    pub fn samples(&self) -> &[SimDuration] {
        &self.samples
    }
}

/// Integrates a piecewise-constant value over simulated time; used for
/// average queue lengths and device utilization.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    last_change: SimTime,
    value: f64,
    integral: f64,
    max: f64,
}

impl TimeWeighted {
    /// Start integrating `initial` from time `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_change: start,
            value: initial,
            integral: 0.0,
            max: initial,
        }
    }

    /// Set a new value at time `now` (which must not precede the previous
    /// change).
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.saturating_since(self.last_change).as_nanos() as f64;
        self.integral += self.value * dt;
        self.last_change = now;
        self.value = value;
        if value > self.max {
            self.max = value;
        }
    }

    /// Adjust the current value by `delta` at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value + delta;
        self.set(now, v);
    }

    /// Time-average of the value over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let dt = now.saturating_since(self.last_change).as_nanos() as f64;
        let total_time = self.integral + self.value * dt;
        let span = now.as_nanos() as f64;
        if span == 0.0 {
            self.value
        } else {
            total_time / span
        }
    }

    /// Largest value ever set.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Current value.
    pub fn current(&self) -> f64 {
        self.value
    }
}

/// A hit/total ratio counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ratio {
    hits: u64,
    total: u64,
}

impl Ratio {
    /// Record one event; `hit` says whether it counts toward the numerator.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Numerator.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Denominator.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `hits / total`, or 0 when empty.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }

    /// Merge another ratio (parallel-safe reduction).
    pub fn merge(&mut self, other: Ratio) {
        self.hits += other.hits;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            t.record(ms(x));
        }
        assert_eq!(t.count(), 8);
        assert!((t.mean_millis() - 5.0).abs() < 1e-9);
        assert_eq!(t.min(), Some(ms(2)));
        assert_eq!(t.max(), Some(ms(9)));
        assert_eq!(t.total(), ms(40));
    }

    #[test]
    fn tally_empty_is_zero() {
        let t = Tally::new();
        assert_eq!(t.mean(), SimDuration::ZERO);
        assert_eq!(t.count(), 0);
        assert_eq!(t.min(), None);
    }

    #[test]
    fn tally_merge_matches_sequential() {
        let mut a = Tally::new();
        let mut b = Tally::new();
        let mut whole = Tally::new();
        for x in 1..=10u64 {
            if x <= 4 {
                a.record(ms(x));
            } else {
                b.record(ms(x));
            }
            whole.record(ms(x));
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean_millis() - whole.mean_millis()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn sampled_quantiles() {
        let mut s = Sampled::new();
        for x in 1..=100u64 {
            s.record(ms(x));
        }
        assert_eq!(s.quantile(0.5), Some(ms(50)));
        assert_eq!(s.quantile(0.0), Some(ms(1)));
        assert_eq!(s.quantile(1.0), Some(ms(100)));
    }

    #[test]
    fn sampled_summary_is_the_tally_of_its_samples() {
        let mut s = Sampled::new();
        let mut t = Tally::new();
        for x in [7u64, 3, 11, 3, 5, 1_000_003] {
            s.record(SimDuration::from_nanos(x * 1_234_567));
            t.record(SimDuration::from_nanos(x * 1_234_567));
        }
        let folded = s.tally();
        assert_eq!(s.count(), t.count());
        assert_eq!(folded.mean_millis().to_bits(), t.mean_millis().to_bits());
        assert_eq!((folded.min(), folded.max()), (t.min(), t.max()));
        assert_eq!(s.mean(), t.mean());
    }

    #[test]
    fn sampled_empty() {
        let s = Sampled::new();
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn time_weighted_average() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 0.0);
        w.set(SimTime::from_nanos(10), 2.0); // 0 for 10ns
        w.set(SimTime::from_nanos(30), 4.0); // 2 for 20ns
                                             // 4 for 10ns -> integral = 0 + 40 + 40 = 80 over 40ns
        assert!((w.average(SimTime::from_nanos(40)) - 2.0).abs() < 1e-9);
        assert_eq!(w.max(), 4.0);
        assert_eq!(w.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut w = TimeWeighted::new(SimTime::ZERO, 1.0);
        w.add(SimTime::from_nanos(10), 1.0);
        assert_eq!(w.current(), 2.0);
        w.add(SimTime::from_nanos(20), -2.0);
        assert_eq!(w.current(), 0.0);
    }

    #[test]
    fn ratio_basics() {
        let mut r = Ratio::default();
        r.record(true);
        r.record(false);
        r.record(true);
        r.record(true);
        assert_eq!(r.hits(), 3);
        assert_eq!(r.total(), 4);
        assert!((r.value() - 0.75).abs() < 1e-9);
        let mut other = Ratio::default();
        other.record(false);
        r.merge(other);
        assert_eq!(r.total(), 5);
    }
}
