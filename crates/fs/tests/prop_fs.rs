//! Property tests for the file system: arbitrary mixes of interleaved and
//! contiguous files never overlap physically, reads map and attribute
//! correctly, and the allocator conserves space.

use proptest::prelude::*;

use rt_disk::{BlockId, Discipline, FetchKind, Layout, ProcId};
use rt_fs::{FileSystem, FsError, Striping};
use rt_sim::SimTime;

#[derive(Clone, Debug)]
struct FileSpec {
    blocks: u32,
    striping: Striping,
}

fn file_strategy(disks: u16) -> impl Strategy<Value = FileSpec> {
    (1u32..64, prop::option::of(0..disks)).prop_map(|(blocks, on_disk)| FileSpec {
        blocks,
        striping: match on_disk {
            None => Striping::Interleaved,
            Some(d) => Striping::OnDisk(d),
        },
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    /// No two blocks of any files ever share a physical slot.
    #[test]
    fn files_never_overlap(
        disks in 1u16..8,
        specs in prop::collection::vec(file_strategy(8), 1..12),
    ) {
        let mut fs = FileSystem::new(disks, Discipline::Fifo);
        let mut slots = std::collections::HashSet::new();
        for (i, spec) in specs.iter().enumerate() {
            let striping = match spec.striping {
                Striping::OnDisk(d) if d >= disks => Striping::OnDisk(d % disks),
                s => s,
            };
            let id = fs.create(&format!("f{i}"), spec.blocks, striping).unwrap();
            let meta = fs.meta(id).unwrap().clone();
            for b in 0..spec.blocks {
                let p = meta.layout.place(BlockId(b));
                prop_assert!(p.disk.index() < disks as usize);
                prop_assert!(
                    slots.insert((p.disk, p.physical)),
                    "file {i} block {b} collides at {p:?}"
                );
            }
        }
    }

    /// Submitting one read per file and draining the disks attributes every
    /// completion to the right (file, block).
    #[test]
    fn completions_attribute_correctly(
        disks in 1u16..6,
        specs in prop::collection::vec(file_strategy(6), 1..8),
        block_picks in prop::collection::vec(any::<u32>(), 8),
    ) {
        let mut fs = FileSystem::new(disks, Discipline::Fifo);
        let mut expected = std::collections::HashSet::new();
        let mut pending: Vec<(rt_disk::DiskId, SimTime)> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let striping = match spec.striping {
                Striping::OnDisk(d) if d >= disks => Striping::OnDisk(d % disks),
                s => s,
            };
            let id = fs.create(&format!("f{i}"), spec.blocks, striping).unwrap();
            let block = BlockId(block_picks[i % block_picks.len()] % spec.blocks);
            expected.insert((id, block));
            if let Some(s) = fs
                .read(SimTime::ZERO, id, block, FetchKind::Demand, ProcId(0))
                .unwrap()
            {
                pending.push((s.disk, s.completion));
            }
        }
        // Drain: completions may start queued requests.
        let mut got = std::collections::HashSet::new();
        while let Some((disk, at)) = pending.pop() {
            let (done, next) = fs.complete(disk, at);
            got.insert((done.file, done.block));
            if let Some(s) = next {
                pending.push((s.disk, s.completion));
            }
        }
        prop_assert_eq!(got, expected);
    }

    /// Out-of-range reads are rejected for every file shape.
    #[test]
    fn out_of_range_rejected(disks in 1u16..6, blocks in 1u32..64) {
        let mut fs = FileSystem::new(disks, Discipline::Fifo);
        let id = fs.create("f", blocks, Striping::Interleaved).unwrap();
        let err = fs
            .read(SimTime::ZERO, id, BlockId(blocks), FetchKind::Demand, ProcId(0))
            .unwrap_err();
        prop_assert_eq!(err, FsError::OutOfRange { block: blocks, len: blocks });
    }
}
