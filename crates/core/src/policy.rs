//! Prefetch block selection.
//!
//! The paper's policies are *optimistic oracles*: each pattern's prefetch
//! algorithm is handed the reference string in advance and "always chooses a
//! block that will be needed in the near future and never makes mistakes",
//! tempered by feasibility limits — the random-portion patterns never
//! prefetch past the end of the currently established portion, because an
//! on-the-fly predictor could not know where the next portion starts
//! (§IV-B). The §V-E *minimum prefetch lead* variant additionally refuses
//! blocks closer than `lead` string positions to the demand frontier,
//! relaxed near the end of the string.

use rt_cache::BufferPool;
use rt_disk::BlockId;
use rt_patterns::RefString;

/// Inputs to one oracle selection.
#[derive(Clone, Copy, Debug)]
pub struct OracleView<'a> {
    /// The reference string to prefetch from (the issuing process's own
    /// string for local patterns; the shared string for global patterns).
    pub string: &'a RefString,
    /// Index of the next access to be demanded (the demand frontier).
    pub frontier: usize,
    /// May the policy select blocks beyond the current portion? False for
    /// the random-portion patterns.
    pub cross_portions: bool,
    /// Minimum prefetch lead in string positions (0 = none).
    pub min_lead: u32,
}

/// Choose the next block to prefetch under the paper's oracle rules, or
/// `None` when no feasible uncached block exists.
///
/// Scans the reference string forward from the frontier (offset by the
/// lead), skipping blocks already cached or in flight. Near the end of the
/// string the lead restriction is relaxed, exactly as in §V-E.
pub fn select_oracle(view: &OracleView<'_>, pool: &BufferPool) -> Option<BlockId> {
    let start = scan_start(view)?;
    match scan(view, pool, start, established(view)) {
        ScanStop::Uncached(_, block) => Some(block),
        ScanStop::Fence(_) | ScanStop::End => None,
    }
}

/// Memo for repeated oracle scans over a single reference string: the span
/// `base..pos` was verified all-cached when the pool's unused-eviction
/// count was `epoch`. While that count is unchanged, no block cached ahead
/// of the demand frontier can have become uncached, so a later scan
/// starting inside the span may resume at `pos` instead of re-checking it.
///
/// Soundness requires that every block appear **at most once** in the
/// string (otherwise a copy *behind* the frontier could be evicted while
/// the hinted span silently relied on it) and that the same string and
/// pool are used for every call. Callers gate on that — see
/// `World::select_block`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ScanHint {
    base: usize,
    pos: usize,
    epoch: u64,
}

impl ScanHint {
    /// Where a scan from `start` may resume: the end of the verified span
    /// while the memo covers `start` and the pool's eviction epoch is
    /// unchanged, `None` when it is stale.
    #[inline]
    fn resume(&self, start: usize, pool: &BufferPool) -> Option<usize> {
        let valid =
            self.epoch == pool.unused_evictions() && (self.base..=self.pos).contains(&start);
        valid.then_some(self.pos)
    }
}

/// In debug builds, check that a scan resuming at `from` skipped only
/// cached entries.
#[inline]
fn debug_check_skip(view: &OracleView<'_>, pool: &BufferPool, start: usize, from: usize) {
    debug_assert!(
        view.string.accesses()[start..from]
            .iter()
            .all(|a| pool.contains(a.block)),
        "scan hint skipped an uncached entry"
    );
}

/// [`select_oracle`] with a scan memo: identical selections, but repeat
/// scans over a still-cached prefix are skipped. This is the hot path for
/// the sequential global patterns, where each prefetch action would
/// otherwise re-walk the whole cached span ahead of the frontier.
pub fn select_oracle_hinted(
    view: &OracleView<'_>,
    pool: &BufferPool,
    hint: &mut ScanHint,
) -> Option<BlockId> {
    let start = scan_start(view)?;
    let from = hint.resume(start, pool).unwrap_or_else(|| {
        // Stale epoch or a start outside the verified span: rebuild.
        hint.base = start;
        hint.epoch = pool.unused_evictions();
        start
    });
    debug_check_skip(view, pool, start, from);
    let (pos, selected) = match scan(view, pool, from, established(view)) {
        ScanStop::Uncached(i, block) => (i, Some(block)),
        ScanStop::Fence(i) => (i, None),
        ScanStop::End => (view.string.len(), None),
    };
    hint.pos = pos;
    selected
}

/// Where a forward scan stopped.
enum ScanStop {
    /// The first feasible uncached entry, at this string index.
    Uncached(usize, BlockId),
    /// An unestablished portion begins at this index (random patterns).
    Fence(usize),
    /// Every remaining entry was cached.
    End,
}

/// The first string index a scan may select from, or `None` when the
/// string is exhausted. Near the end of the string the lead restriction is
/// relaxed, exactly as in §V-E.
#[inline]
fn scan_start(view: &OracleView<'_>) -> Option<usize> {
    let len = view.string.len();
    if view.frontier >= len {
        return None;
    }
    let lead_start = view.frontier + view.min_lead as usize;
    Some(if lead_start < len {
        lead_start
    } else {
        // End-of-string relaxation: fewer than `lead` accesses remain.
        view.frontier
    })
}

/// The portion the demand stream has most recently established: that of
/// the last taken access (or the first access before any are taken).
#[inline]
fn established(view: &OracleView<'_>) -> u32 {
    view.string
        .get(view.frontier.saturating_sub(1))
        .map(|a| a.portion)
        .unwrap_or(0)
}

fn scan(view: &OracleView<'_>, pool: &BufferPool, start: usize, established: u32) -> ScanStop {
    // Slice iteration: this scan runs once per prefetch action — tens of
    // thousands of times per run, walking the cached span ahead of the
    // frontier — so it must not pay a bounds check and Option per entry.
    for (off, access) in view.string.accesses()[start..].iter().enumerate() {
        if !view.cross_portions && access.portion > established {
            // Random portions: never predict into an unestablished portion.
            return ScanStop::Fence(start + off);
        }
        if !pool.contains(access.block) {
            return ScanStop::Uncached(start + off, access.block);
        }
    }
    ScanStop::End
}

/// [`select_oracle`] with an exclusion predicate: uncached blocks for
/// which `avoid` returns true are passed over (left to demand traffic)
/// and the scan continues behind them. Used by the fault layer to keep
/// prefetching ahead on healthy devices while a degraded one recovers;
/// portion fences and the lead restriction apply unchanged.
pub fn select_oracle_avoiding(
    view: &OracleView<'_>,
    pool: &BufferPool,
    avoid: impl Fn(BlockId) -> bool,
) -> Option<BlockId> {
    scan_avoiding(view, pool, scan_start(view)?, avoid)
}

/// [`select_oracle_avoiding`] resuming from a scan memo's verified-cached
/// span, under the same soundness conditions as [`select_oracle_hinted`].
/// The memo is only read: the daemon calls this right after a hinted
/// selection found a candidate it must pass over, so the span already
/// ends at that candidate.
pub fn select_oracle_avoiding_hinted(
    view: &OracleView<'_>,
    pool: &BufferPool,
    hint: &ScanHint,
    avoid: impl Fn(BlockId) -> bool,
) -> Option<BlockId> {
    let start = scan_start(view)?;
    let from = hint.resume(start, pool).unwrap_or(start);
    debug_check_skip(view, pool, start, from);
    scan_avoiding(view, pool, from, avoid)
}

fn scan_avoiding(
    view: &OracleView<'_>,
    pool: &BufferPool,
    start: usize,
    avoid: impl Fn(BlockId) -> bool,
) -> Option<BlockId> {
    let established = established(view);
    for access in &view.string.accesses()[start..] {
        if !view.cross_portions && access.portion > established {
            return None;
        }
        if !pool.contains(access.block) && !avoid(access.block) {
            return Some(access.block);
        }
    }
    None
}

/// Choose a block from an on-line predictor's candidate list: the first
/// prediction not already cached or in flight.
pub fn select_predicted(candidates: &[BlockId], pool: &BufferPool) -> Option<BlockId> {
    candidates.iter().copied().find(|&b| !pool.contains(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_cache::PoolConfig;
    use rt_disk::ProcId;
    use rt_sim::SimTime;

    fn pool_with(blocks: &[u32]) -> BufferPool {
        // A roomy pool so reservations never fail in these tests.
        let mut p = BufferPool::new(PoolConfig {
            procs: 1,
            demand_per_proc: 1,
            prefetch_per_proc: 64,
            global_prefetch_cap: 64,
            replacement: rt_cache::Replacement::RuSet,
            evict_unused_prefetch: false,
        });
        for &b in blocks {
            let buf = p.try_reserve_prefetch(ProcId(0), BlockId(b)).unwrap();
            p.commit_prefetch(buf, BlockId(b), SimTime::ZERO);
        }
        p
    }

    fn whole_file(n: u32) -> RefString {
        RefString::from_portions(&[(0, n)])
    }

    #[test]
    fn oracle_picks_first_uncached_after_frontier() {
        let s = whole_file(100);
        let pool = pool_with(&[3, 4]);
        let view = OracleView {
            string: &s,
            frontier: 3,
            cross_portions: true,
            min_lead: 0,
        };
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(5)));
    }

    #[test]
    fn oracle_exhausted_string_yields_none() {
        let s = whole_file(10);
        let pool = pool_with(&[]);
        let view = OracleView {
            string: &s,
            frontier: 10,
            cross_portions: true,
            min_lead: 0,
        };
        assert_eq!(select_oracle(&view, &pool), None);
    }

    #[test]
    fn oracle_respects_lead() {
        let s = whole_file(100);
        let pool = pool_with(&[]);
        let view = OracleView {
            string: &s,
            frontier: 10,
            cross_portions: true,
            min_lead: 20,
        };
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(30)));
    }

    #[test]
    fn oracle_relaxes_lead_near_end() {
        let s = whole_file(100);
        let pool = pool_with(&[]);
        let view = OracleView {
            string: &s,
            frontier: 95,
            cross_portions: true,
            min_lead: 20,
        };
        // Frontier + lead is past the end: relaxed, selects from frontier.
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(95)));
    }

    #[test]
    fn oracle_stops_at_unestablished_portion() {
        // Two portions: 0..5 and 50..55.
        let s = RefString::from_portions(&[(0, 5), (50, 5)]);
        let pool = pool_with(&[2, 3, 4]);
        // Frontier at index 2 (portion 0 established).
        let view = OracleView {
            string: &s,
            frontier: 2,
            cross_portions: false,
            min_lead: 0,
        };
        // Blocks 2-4 cached; block 50 is portion 1 — not established yet.
        assert_eq!(select_oracle(&view, &pool), None);
        // Once the frontier enters portion 1, selection proceeds there.
        let view = OracleView {
            string: &s,
            frontier: 6,
            cross_portions: false,
            min_lead: 0,
        };
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(51)));
    }

    #[test]
    fn oracle_crosses_portions_when_allowed() {
        let s = RefString::from_portions(&[(0, 5), (50, 5)]);
        let pool = pool_with(&[2, 3, 4]);
        let view = OracleView {
            string: &s,
            frontier: 2,
            cross_portions: true,
            min_lead: 0,
        };
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(50)));
    }

    #[test]
    fn oracle_skips_duplicate_appearances() {
        // A string with a repeated block (overlapping random portions).
        let s = RefString::from_portions(&[(0, 3), (1, 3)]);
        let pool = pool_with(&[1, 2]);
        let view = OracleView {
            string: &s,
            frontier: 1,
            cross_portions: true,
            min_lead: 0,
        };
        // Index 1,2 cached; index 3 is block 1 again (cached); index 4 is
        // block 2 (cached); index 5 is block 3.
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(3)));
    }

    #[test]
    fn hinted_oracle_matches_plain_selection() {
        // A duplicate-free sequential string (the gw shape). Drive both
        // selectors in lockstep while the cached span grows and the
        // frontier advances; they must agree at every step.
        let s = whole_file(64);
        let mut pool = pool_with(&[]);
        let mut hint = ScanHint::default();
        let mut frontier = 0usize;
        for step in 0..200 {
            let view = OracleView {
                string: &s,
                frontier,
                cross_portions: true,
                min_lead: 0,
            };
            let plain = select_oracle(&view, &pool);
            let hinted = select_oracle_hinted(&view, &pool, &mut hint);
            assert_eq!(plain, hinted, "selectors diverged at step {step}");
            if let Some(block) = hinted {
                let buf = pool.try_reserve_prefetch(ProcId(0), block).unwrap();
                pool.commit_prefetch(buf, block, SimTime::ZERO);
            }
            if step % 3 == 0 && frontier < s.len() {
                frontier += 1;
            }
        }
    }

    #[test]
    fn hinted_oracle_resets_after_unused_prefetch_eviction() {
        // With the unused-prefetch relaxation, a block inside the verified
        // span can be pushed out; the eviction epoch must force a rescan.
        let mut pool = BufferPool::new(PoolConfig {
            procs: 1,
            demand_per_proc: 1,
            prefetch_per_proc: 4,
            global_prefetch_cap: 64,
            replacement: rt_cache::Replacement::RuSet,
            evict_unused_prefetch: true,
        });
        let s = whole_file(32);
        for b in 0..4u32 {
            let buf = pool.try_reserve_prefetch(ProcId(0), BlockId(b)).unwrap();
            pool.commit_prefetch(buf, BlockId(b), SimTime::ZERO);
            pool.complete_io(buf, SimTime::ZERO);
        }
        let view = OracleView {
            string: &s,
            frontier: 0,
            cross_portions: true,
            min_lead: 0,
        };
        let mut hint = ScanHint::default();
        // First scan verifies 0..=3 cached and selects block 4.
        assert_eq!(
            select_oracle_hinted(&view, &pool, &mut hint),
            Some(BlockId(4))
        );
        // The partition is full, so committing block 4 evicts one of the
        // unused prefetches inside the verified span.
        let buf = pool.try_reserve_prefetch(ProcId(0), BlockId(4)).unwrap();
        pool.commit_prefetch(buf, BlockId(4), SimTime::ZERO);
        assert_eq!(pool.unused_evictions(), 1, "eviction must bump the epoch");
        let evicted = (0..4u32)
            .map(BlockId)
            .find(|&b| !pool.contains(b))
            .expect("one early block was pushed out");
        // The hint is stale; both selectors must re-find the evicted block.
        assert_eq!(select_oracle(&view, &pool), Some(evicted));
        assert_eq!(select_oracle_hinted(&view, &pool, &mut hint), Some(evicted));
    }

    #[test]
    fn avoiding_oracle_scans_past_excluded_blocks() {
        let s = whole_file(100);
        let pool = pool_with(&[3]);
        let view = OracleView {
            string: &s,
            frontier: 3,
            cross_portions: true,
            min_lead: 0,
        };
        // Plain selection picks block 4; with 4 and 5 excluded the scan
        // continues to 6 instead of stalling.
        assert_eq!(select_oracle(&view, &pool), Some(BlockId(4)));
        assert_eq!(
            select_oracle_avoiding(&view, &pool, |b| b.0 == 4 || b.0 == 5),
            Some(BlockId(6))
        );
        // Nothing avoided: identical to plain selection.
        assert_eq!(
            select_oracle_avoiding(&view, &pool, |_| false),
            Some(BlockId(4))
        );
        // Everything avoided: no candidate.
        assert_eq!(select_oracle_avoiding(&view, &pool, |_| true), None);
    }

    #[test]
    fn hinted_avoiding_oracle_matches_plain_avoiding_scan() {
        // Duplicate-free strings, one of them fenced into portions. The
        // partition may evict unused prefetches, so cached-ahead blocks
        // vanish and bump the memo's epoch; every fifth block sits on an
        // avoided device. The memo-aware avoiding scan must agree with the
        // plain one at every step, both right after a hinted selection (as
        // the daemon calls them) and with a memo gone stale.
        let avoid = |b: BlockId| b.0 % 5 == 2;
        let strings = [
            (whole_file(64), true),
            (
                RefString::from_portions(&[(0, 20), (100, 20), (200, 24)]),
                false,
            ),
        ];
        for (s, cross_portions) in &strings {
            let mut pool = BufferPool::new(PoolConfig {
                procs: 1,
                demand_per_proc: 1,
                prefetch_per_proc: 6,
                global_prefetch_cap: 64,
                replacement: rt_cache::Replacement::RuSet,
                evict_unused_prefetch: true,
            });
            let mut hint = ScanHint::default();
            let mut frontier = 0usize;
            let mut passed_over = 0;
            for step in 0..300u64 {
                let view = OracleView {
                    string: s,
                    frontier,
                    cross_portions: *cross_portions,
                    min_lead: 0,
                };
                let plain = select_oracle_avoiding(&view, &pool, avoid);
                // First with the memo as the last step left it: the
                // frontier may have moved and an eviction may have made
                // it stale.
                let hinted = select_oracle_avoiding_hinted(&view, &pool, &hint, avoid);
                assert_eq!(plain, hinted, "stale memo diverged at step {step}");
                let first = select_oracle_hinted(&view, &pool, &mut hint);
                assert_eq!(first, select_oracle(&view, &pool), "step {step}");
                let hinted = select_oracle_avoiding_hinted(&view, &pool, &hint, avoid);
                assert_eq!(plain, hinted, "avoiding selectors diverged at step {step}");
                if first != plain {
                    passed_over += 1;
                }
                if let Some(block) = hinted.or(first) {
                    if let Ok(buf) = pool.try_reserve_prefetch(ProcId(0), block) {
                        pool.commit_prefetch(buf, block, SimTime::from_nanos(step));
                        pool.complete_io(buf, SimTime::from_nanos(step));
                    }
                }
                if step % 3 == 0 && frontier < s.len() {
                    // The demand stream consumes the frontier block.
                    let demanded = s.accesses()[frontier].block;
                    if let Some(buf) = pool.buffer_for(demanded) {
                        pool.record_use(buf, ProcId(0), SimTime::from_nanos(step));
                    }
                    frontier += 1;
                }
            }
            assert!(pool.unused_evictions() > 0, "no epoch bump exercised");
            assert!(passed_over > 0, "the avoid predicate never mattered");
        }
    }

    #[test]
    fn avoiding_oracle_still_respects_portion_fence() {
        let s = RefString::from_portions(&[(0, 5), (50, 5)]);
        let pool = pool_with(&[2, 3]);
        let view = OracleView {
            string: &s,
            frontier: 2,
            cross_portions: false,
            min_lead: 0,
        };
        // Block 4 is the only feasible candidate; avoiding it must not
        // leak the scan into the unestablished portion at 50.
        assert_eq!(select_oracle_avoiding(&view, &pool, |b| b.0 == 4), None);
    }

    #[test]
    fn predicted_selection_filters_cached() {
        let pool = pool_with(&[7]);
        assert_eq!(
            select_predicted(&[BlockId(7), BlockId(8)], &pool),
            Some(BlockId(8))
        );
        assert_eq!(select_predicted(&[BlockId(7)], &pool), None);
        assert_eq!(select_predicted(&[], &pool), None);
    }
}
