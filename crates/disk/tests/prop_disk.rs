//! Property tests for the disk substrate: queue disciplines conserve
//! requests, FIFO never reorders, priority never starves within a class,
//! and interleaving balances load.

use proptest::prelude::*;

use rt_disk::{BlockId, Discipline, Disk, DiskRequest, FetchKind, FileLayout, Layout, ProcId};
use rt_sim::SimTime;

fn req(at: u64, kind: FetchKind, block: u32) -> DiskRequest {
    DiskRequest {
        block: BlockId(block),
        kind,
        initiator: ProcId(0),
        submitted: SimTime::from_nanos(at),
    }
}

/// Drive one disk with a submission schedule; drain everything and return
/// completion order as (block, kind).
fn drive(discipline: Discipline, jobs: &[(u64, bool)]) -> Vec<(u32, FetchKind)> {
    let mut disk = Disk::new(discipline);
    let mut completions: Vec<(u32, FetchKind)> = Vec::new();
    let mut next_completion: Option<SimTime> = None;
    let mut jobs: Vec<(u64, bool)> = jobs.to_vec();
    jobs.sort_by_key(|&(at, _)| at);

    let mut submitted = 0u32;
    let mut iter = jobs.iter().enumerate().peekable();
    // Event loop: interleave submissions and completions in time order.
    loop {
        let next_sub = iter.peek().map(|(_, &(at, _))| at);
        match (next_sub, next_completion) {
            (Some(at), Some(done)) if SimTime::from_nanos(at) <= done => {
                let (i, &(at, demand)) = iter.next().unwrap();
                let kind = if demand {
                    FetchKind::Demand
                } else {
                    FetchKind::Prefetch
                };
                if let Ok(Some(c)) = disk.submit(req(at, kind, i as u32)) {
                    assert!(next_completion.is_none());
                    next_completion = Some(c);
                }
                submitted += 1;
            }
            (Some(at), None) => {
                let (i, &(_, demand)) = iter.next().unwrap();
                let kind = if demand {
                    FetchKind::Demand
                } else {
                    FetchKind::Prefetch
                };
                if let Ok(Some(c)) = disk.submit(req(at, kind, i as u32)) {
                    next_completion = Some(c);
                }
                submitted += 1;
            }
            (_, Some(done)) => {
                let (finished, next) = disk.complete(done);
                completions.push((finished.req.block.0, finished.req.kind));
                next_completion = next.map(|(_, c)| c);
            }
            (None, None) => break,
        }
    }
    assert_eq!(completions.len(), submitted as usize);
    completions
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// Every submitted request completes exactly once, under either
    /// discipline.
    #[test]
    fn all_requests_complete(
        jobs in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..60),
        priority in any::<bool>(),
    ) {
        let discipline = if priority { Discipline::DemandPriority } else { Discipline::Fifo };
        let completions = drive(discipline, &jobs);
        let mut blocks: Vec<u32> = completions.iter().map(|&(b, _)| b).collect();
        blocks.sort_unstable();
        blocks.dedup();
        prop_assert_eq!(blocks.len(), jobs.len());
    }

    /// FIFO completes requests in submission order.
    #[test]
    fn fifo_preserves_submission_order(
        jobs in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..60),
    ) {
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let completions = drive(Discipline::Fifo, &sorted);
        let order: Vec<u32> = completions.iter().map(|&(b, _)| b).collect();
        let expected: Vec<u32> = (0..jobs.len() as u32).collect();
        prop_assert_eq!(order, expected);
    }

    /// Demand priority preserves FIFO order *within* each class.
    #[test]
    fn priority_is_fifo_within_class(
        jobs in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..60),
    ) {
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let completions = drive(Discipline::DemandPriority, &sorted);
        for kind in [FetchKind::Demand, FetchKind::Prefetch] {
            let order: Vec<u32> = completions
                .iter()
                .filter(|&&(_, k)| k == kind)
                .map(|&(b, _)| b)
                .collect();
            let mut sorted_order = order.clone();
            sorted_order.sort_unstable();
            prop_assert_eq!(order, sorted_order, "same-class requests reordered");
        }
    }

    /// Round-robin interleave spreads any contiguous range evenly: counts
    /// per disk differ by at most one.
    #[test]
    fn interleave_balances_contiguous_ranges(
        disks in 1u16..32,
        start in 0u32..10_000,
        len in 1u32..5_000,
    ) {
        let layout = FileLayout::interleaved(disks);
        let mut counts = vec![0u32; disks as usize];
        for b in start..start + len {
            let p = layout.place(BlockId(b));
            prop_assert!(p.disk.index() < disks as usize);
            counts[p.disk.index()] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "imbalanced interleave: {counts:?}");
    }

    /// Placement is injective: distinct blocks never share a physical slot.
    #[test]
    fn interleave_is_injective(disks in 1u16..16, blocks in 1u32..2_000) {
        let layout = FileLayout::interleaved(disks);
        let mut seen = std::collections::HashSet::new();
        for b in 0..blocks {
            let p = layout.place(BlockId(b));
            prop_assert!(seen.insert((p.disk, p.physical)), "slot collision");
        }
    }
}
