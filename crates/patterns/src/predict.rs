//! On-the-fly access-pattern predictors (extension).
//!
//! The paper supplies the prefetcher with the reference string in advance —
//! an optimistic upper bound — and defers "on-the-fly prediction algorithms"
//! to future work. This module implements two such predictors so the
//! oracle's advantage can be measured:
//!
//! * [`Obl`] — classic one-block lookahead: after a read of block *i*,
//!   predict *i + 1*. The dominant technique in uniprocessor disk caches
//!   (§II-B).
//! * [`PortionLearner`] — observes a process's accesses, detects regular
//!   portion length and stride, and once confident predicts through and
//!   across portion boundaries (what an adaptive `lfp` prefetcher needs).

use rt_disk::BlockId;

/// A predictor consumes the observed access stream of one process and
/// yields candidate blocks to prefetch, nearest-future first.
pub trait Predictor: Send {
    /// Observe one demand access.
    fn observe(&mut self, block: BlockId);

    /// Predict up to `n` future blocks, nearest first.
    fn predict(&self, n: usize) -> Vec<BlockId>;

    /// A short name for reports.
    fn name(&self) -> &'static str;
}

/// One-block lookahead, generalized to a run of `depth` successors.
#[derive(Clone, Debug)]
pub struct Obl {
    last: Option<BlockId>,
    depth: u32,
    file_blocks: u32,
}

impl Obl {
    /// Predict up to `depth` blocks past the last access, never past the
    /// end of the file.
    pub fn new(depth: u32, file_blocks: u32) -> Self {
        assert!(depth >= 1);
        Obl {
            last: None,
            depth,
            file_blocks,
        }
    }
}

impl Predictor for Obl {
    fn observe(&mut self, block: BlockId) {
        self.last = Some(block);
    }

    fn predict(&self, n: usize) -> Vec<BlockId> {
        let Some(last) = self.last else {
            return Vec::new();
        };
        (1..=self.depth.min(n as u32))
            .map(|d| last.0 + d)
            .take_while(|&b| b < self.file_blocks)
            .map(BlockId)
            .collect()
    }

    fn name(&self) -> &'static str {
        "obl"
    }
}

/// Learns a `(portion length, stride between portion starts)` pair from the
/// observed stream of a single process.
///
/// The learner segments the stream into maximal sequential runs. Once
/// `confidence_runs` consecutive completed runs agree on length and on the
/// start-to-start stride, it extrapolates: remaining blocks of the current
/// run first, then blocks of following portions.
#[derive(Clone, Debug)]
pub struct PortionLearner {
    history: Vec<BlockId>,
    /// Completed runs as (start, len).
    runs: Vec<(u32, u32)>,
    /// Current run (start, len).
    current: Option<(u32, u32)>,
    confidence_runs: usize,
    file_blocks: u32,
}

impl PortionLearner {
    /// A learner requiring `confidence_runs` agreeing portions before it
    /// predicts across boundaries.
    pub fn new(confidence_runs: usize, file_blocks: u32) -> Self {
        assert!(confidence_runs >= 1);
        PortionLearner {
            history: Vec::new(),
            runs: Vec::new(),
            current: None,
            confidence_runs,
            file_blocks,
        }
    }

    /// The learned (length, stride), if confident.
    pub fn learned(&self) -> Option<(u32, u32)> {
        if self.runs.len() < self.confidence_runs + 1 {
            return None;
        }
        let recent = &self.runs[self.runs.len() - self.confidence_runs - 1..];
        let len = recent[0].1;
        if recent.iter().any(|&(_, l)| l != len) {
            return None;
        }
        let stride = recent[1].0.wrapping_sub(recent[0].0);
        for w in recent.windows(2) {
            if w[1].0.wrapping_sub(w[0].0) != stride {
                return None;
            }
        }
        Some((len, stride))
    }
}

impl Predictor for PortionLearner {
    fn observe(&mut self, block: BlockId) {
        self.history.push(block);
        match self.current {
            Some((start, len)) if block.0 == start + len => {
                self.current = Some((start, len + 1));
            }
            Some(run) => {
                self.runs.push(run);
                self.current = Some((block.0, 1));
            }
            None => {
                self.current = Some((block.0, 1));
            }
        }
    }

    fn predict(&self, n: usize) -> Vec<BlockId> {
        let Some((start, len)) = self.current else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(n);
        match self.learned() {
            Some((plen, stride)) if stride > 0 => {
                // Rest of the current portion, then subsequent portions.
                let mut portion_start = start;
                let mut next = start + len;
                while out.len() < n {
                    if next >= self.file_blocks {
                        break;
                    }
                    if next < portion_start + plen {
                        out.push(BlockId(next));
                        next += 1;
                    } else {
                        portion_start = portion_start.wrapping_add(stride);
                        if portion_start >= self.file_blocks {
                            break;
                        }
                        next = portion_start;
                    }
                }
            }
            _ => {
                // Not confident: behave like OBL within the current run.
                let mut next = start + len;
                while out.len() < n && next < self.file_blocks {
                    out.push(BlockId(next));
                    next += 1;
                }
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "portion-learner"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obl_predicts_successors() {
        let mut p = Obl::new(3, 100);
        assert!(p.predict(3).is_empty(), "nothing before first observation");
        p.observe(BlockId(10));
        assert_eq!(p.predict(3), vec![BlockId(11), BlockId(12), BlockId(13)]);
        assert_eq!(p.predict(2), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn obl_stops_at_eof() {
        let mut p = Obl::new(4, 12);
        p.observe(BlockId(10));
        assert_eq!(p.predict(4), vec![BlockId(11)]);
    }

    #[test]
    fn learner_tracks_current_run_before_confidence() {
        let mut p = PortionLearner::new(2, 1000);
        for b in [0u32, 1, 2] {
            p.observe(BlockId(b));
        }
        assert_eq!(p.learned(), None);
        // Falls back to within-run lookahead.
        assert_eq!(p.predict(2), vec![BlockId(3), BlockId(4)]);
    }

    #[test]
    fn learner_detects_fixed_portions() {
        // Portions of length 5 at stride 100: 0-4, 100-104, 200-204, ...
        let mut p = PortionLearner::new(2, 10_000);
        for k in 0..3u32 {
            for j in 0..5u32 {
                p.observe(BlockId(k * 100 + j));
            }
        }
        p.observe(BlockId(300)); // starts the fourth portion
        assert_eq!(p.learned(), Some((5, 100)));
        // Predict rest of portion 3 then into portion 4.
        assert_eq!(
            p.predict(6),
            vec![
                BlockId(301),
                BlockId(302),
                BlockId(303),
                BlockId(304),
                BlockId(400),
                BlockId(401)
            ]
        );
    }

    #[test]
    fn learner_rejects_irregular_portions() {
        let mut p = PortionLearner::new(2, 10_000);
        // Lengths 3, 5, 2 — never agree.
        for b in [0u32, 1, 2] {
            p.observe(BlockId(b));
        }
        for b in [50u32, 51, 52, 53, 54] {
            p.observe(BlockId(b));
        }
        for b in [90u32, 91] {
            p.observe(BlockId(b));
        }
        p.observe(BlockId(200));
        assert_eq!(p.learned(), None);
    }

    #[test]
    fn learner_predictions_stay_in_file() {
        let mut p = PortionLearner::new(1, 210);
        for k in 0..2u32 {
            for j in 0..5u32 {
                p.observe(BlockId(k * 100 + j));
            }
        }
        p.observe(BlockId(200));
        assert_eq!(p.learned(), Some((5, 100)));
        let preds = p.predict(20);
        assert!(preds.iter().all(|b| b.0 < 210));
        assert_eq!(
            preds,
            vec![BlockId(201), BlockId(202), BlockId(203), BlockId(204)]
        );
    }

    #[test]
    fn names() {
        assert_eq!(Obl::new(1, 10).name(), "obl");
        assert_eq!(PortionLearner::new(1, 10).name(), "portion-learner");
    }
}
