//! The file system proper: names, metadata, allocation, and the read path
//! down to the parallel disks.
//!
//! Files are identified by name at creation/open and by [`FileId`]
//! afterwards. Each file owns a physical extent handed out by the
//! [`Allocator`]; reads map `(file, logical block)` through the file's
//! layout onto a disk and physical offset, and travel the event-driven
//! [`DiskSubsystem`] (submit now, complete later). Because several files
//! can be in flight at once, in-flight requests are tracked per disk so a
//! completion can be attributed back to its file.

use std::collections::HashMap;

use rt_disk::{
    BlockId, Contiguous, Discipline, DiskFault, DiskId, DiskSubsystem, FaultPlan, FetchKind,
    FileLayout, Interleaved, Layout, ProcId,
};
use rt_sim::{Rng, SimDuration, SimTime};

use crate::alloc::{AllocError, Allocator};
use crate::file::{FileId, FileMeta, Striping};

/// Errors from file-system operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// A file with this name already exists.
    Exists(String),
    /// No file with this name.
    NotFound(String),
    /// The file id is stale or invalid.
    BadFile,
    /// The block number is outside the file.
    OutOfRange {
        /// The offending block.
        block: u32,
        /// The file's length.
        len: u32,
    },
    /// Allocation failed.
    Alloc(AllocError),
    /// Replication requires an interleaved layout.
    ReplicaUnsupported,
    /// The requested replica index exceeds the file's copy count.
    NoReplica {
        /// The offending replica index (0 = primary).
        replica: u16,
        /// Copies the file actually has beyond the primary.
        available: u16,
    },
    /// The target device's bounded queue rejected the request.
    QueueFull {
        /// The device that shed the request.
        disk: DiskId,
        /// Requests already waiting on that device.
        depth: usize,
    },
}

/// A read that started service (immediately at submit, or later when a
/// completion dispatched it from the queue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsStarted {
    /// The device serving it.
    pub disk: DiskId,
    /// The file whose block is being fetched.
    pub file: FileId,
    /// The logical block within that file.
    pub block: BlockId,
    /// What the request is for (demand, prefetch, scrub, repair).
    pub kind: FetchKind,
    /// When the I/O completes; call [`FileSystem::complete`] then.
    pub completion: SimTime,
}

/// A completed read, attributed to its file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FsCompleted {
    /// The file whose block finished.
    pub file: FileId,
    /// The logical block within that file.
    pub block: BlockId,
    /// Demand fetch or prefetch.
    pub kind: FetchKind,
    /// The node that issued the request.
    pub initiator: ProcId,
    /// `Ok` on success; `Err` carries the injected fault.
    pub status: Result<(), DiskFault>,
    /// Device service time of the request (excludes queueing).
    pub service: SimDuration,
    /// When the request was submitted (response time = now − submitted).
    pub submitted: SimTime,
    /// True when the completion is `Ok` but the payload is silently
    /// corrupt (see [`rt_disk::FaultKind::Corrupt`]).
    pub corrupt: bool,
}

/// The interleaved file system over parallel independent disks.
pub struct FileSystem {
    disks: DiskSubsystem,
    allocator: Allocator,
    files: Vec<FileMeta>,
    names: HashMap<String, FileId>,
    /// Reverse map: global block number → file. Keyed by the file's global
    /// base; found by range search over sorted bases.
    bases: Vec<(u32, FileId)>,
    next_base: u32,
}

impl FileSystem {
    /// A file system over `disk_count` devices with the given queue
    /// discipline.
    pub fn new(disk_count: u16, discipline: Discipline) -> Self {
        let disks = DiskSubsystem::new(
            disk_count,
            discipline,
            // The subsystem's layout maps *global* block numbers; each
            // file's own layout is applied before submission, so the
            // subsystem layer uses the identity interleave only for its
            // own bookkeeping. We bypass it by placing per file (see
            // `read`), so any layout works here; use the interleave.
            FileLayout::interleaved(disk_count),
        );
        FileSystem {
            allocator: Allocator::new(disk_count),
            disks,
            files: Vec::new(),
            names: HashMap::new(),
            bases: Vec::new(),
            next_base: 0,
        }
    }

    /// The paper's machine: 20 disks, 30 ms fixed latency, FCFS.
    pub fn paper() -> Self {
        FileSystem::new(20, Discipline::Fifo)
    }

    /// Create a file of `blocks` blocks with the given striping; returns
    /// its id. Names are unique.
    pub fn create(
        &mut self,
        name: &str,
        blocks: u32,
        striping: Striping,
    ) -> Result<FileId, FsError> {
        self.create_replicated(name, blocks, striping, 0)
    }

    /// Create a file with `replicas` extra copies beyond the primary.
    /// Each copy is a *rotated* interleave over its own extent: block `i`
    /// of replica `r` lives on disk `(i + r) mod D`, so every copy of a
    /// block sits on a different device and a redirected read dodges the
    /// failed one. Replication requires interleaved striping.
    pub fn create_replicated(
        &mut self,
        name: &str,
        blocks: u32,
        striping: Striping,
        replicas: u16,
    ) -> Result<FileId, FsError> {
        if self.names.contains_key(name) {
            return Err(FsError::Exists(name.to_string()));
        }
        if replicas > 0 && striping != Striping::Interleaved {
            return Err(FsError::ReplicaUnsupported);
        }
        let layout = match striping {
            Striping::Interleaved => {
                let base = self
                    .allocator
                    .alloc_interleaved(blocks)
                    .map_err(FsError::Alloc)?;
                FileLayout::Interleaved(Interleaved::new(self.allocator.disks(), base))
            }
            Striping::OnDisk(d) => {
                let base = self
                    .allocator
                    .alloc_contiguous(DiskId(d), blocks)
                    .map_err(FsError::Alloc)?;
                FileLayout::Contiguous(Contiguous::new(DiskId(d), base))
            }
        };
        let replica_layouts = (1..=replicas)
            .map(|r| {
                let base = self
                    .allocator
                    .alloc_interleaved(blocks)
                    .map_err(FsError::Alloc)?;
                Ok(FileLayout::Interleaved(Interleaved::with_shift(
                    self.allocator.disks(),
                    base,
                    r,
                )))
            })
            .collect::<Result<Vec<_>, FsError>>()?;
        let id = FileId(self.files.len() as u32);
        self.files.push(FileMeta {
            name: name.to_string(),
            blocks,
            striping,
            layout,
            replicas: replica_layouts,
            base: self.next_base,
        });
        self.names.insert(name.to_string(), id);
        self.bases.push((self.next_base, id));
        self.next_base = self
            .next_base
            .checked_add(blocks)
            .expect("global block namespace exhausted");
        Ok(id)
    }

    /// Look up a file by name.
    pub fn open(&self, name: &str) -> Result<FileId, FsError> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| FsError::NotFound(name.to_string()))
    }

    /// Metadata of an open file.
    pub fn meta(&self, file: FileId) -> Result<&FileMeta, FsError> {
        self.files.get(file.index()).ok_or(FsError::BadFile)
    }

    /// Submit a read of `block` within `file` at time `now`. `Ok(Some)`
    /// when the request started service immediately; `Ok(None)` when it
    /// queued behind other work on its disk.
    pub fn read(
        &mut self,
        now: SimTime,
        file: FileId,
        block: BlockId,
        kind: FetchKind,
        initiator: ProcId,
    ) -> Result<Option<FsStarted>, FsError> {
        self.read_replica(now, file, block, 0, kind, initiator)
    }

    /// Submit a read against a specific copy: `replica` 0 is the primary
    /// layout, `1..` the rotated copies. All copies share the block's
    /// global number, so completions attribute identically regardless of
    /// which copy served them.
    pub fn read_replica(
        &mut self,
        now: SimTime,
        file: FileId,
        block: BlockId,
        replica: u16,
        kind: FetchKind,
        initiator: ProcId,
    ) -> Result<Option<FsStarted>, FsError> {
        let meta = self.files.get(file.index()).ok_or(FsError::BadFile)?;
        if !meta.contains_block(block.0) {
            return Err(FsError::OutOfRange {
                block: block.0,
                len: meta.blocks,
            });
        }
        let layout = if replica == 0 {
            &meta.layout
        } else {
            meta.replicas
                .get(replica as usize - 1)
                .ok_or(FsError::NoReplica {
                    replica,
                    available: meta.replicas.len() as u16,
                })?
        };
        // Submit under the file's global block number so completions can be
        // attributed; pre-place here so the subsystem's own layout is
        // irrelevant.
        let global = BlockId(meta.base + block.0);
        let placement = layout.place(block);
        let started = self
            .disks
            .read_placed(now, global, placement, kind, initiator)
            .map_err(|full| FsError::QueueFull {
                disk: placement.disk,
                depth: full.depth,
            })?;
        Ok(started.map(|s| FsStarted {
            disk: s.disk,
            file,
            block,
            kind: s.kind,
            completion: s.completion,
        }))
    }

    /// Remove the first *queued* prefetch on `disk` whose attributed
    /// `(file, block)` the `keep` predicate does not protect, and attribute
    /// it back to its file. The in-service request is never cancelled.
    /// Used by the admission layer to make room for a demand read while
    /// sparing prefetches a reader already waits on.
    pub fn cancel_queued_prefetch(
        &mut self,
        disk: DiskId,
        now: SimTime,
        keep: impl Fn(FileId, BlockId) -> bool,
    ) -> Option<(FileId, BlockId, ProcId)> {
        let bases = &self.bases;
        let attribute = |global: BlockId| {
            let pos = bases
                .partition_point(|&(base, _)| base <= global.0)
                .checked_sub(1)
                .expect("queued request for an unallocated block");
            let (base, file) = bases[pos];
            (file, BlockId(global.0 - base))
        };
        let req = self.disks.cancel_queued(disk, now, |r| {
            if r.kind != FetchKind::Prefetch {
                return false;
            }
            let (file, block) = attribute(r.block);
            !keep(file, block)
        })?;
        let (file, block) = attribute(req.block);
        Some((file, block, req.initiator))
    }

    /// Remove the first *queued* demand fetch of `file`'s `block` on
    /// `disk`, returning its initiator. The in-service request is never
    /// cancelled. Used by the tail-tolerance layer to reap the losing
    /// half of a hedged pair while it still waits in a queue.
    pub fn cancel_queued_demand(
        &mut self,
        disk: DiskId,
        now: SimTime,
        file: FileId,
        block: BlockId,
    ) -> Option<ProcId> {
        let bases = &self.bases;
        let attribute = |global: BlockId| {
            let pos = bases
                .partition_point(|&(base, _)| base <= global.0)
                .checked_sub(1)
                .expect("queued request for an unallocated block");
            let (base, f) = bases[pos];
            (f, BlockId(global.0 - base))
        };
        let req = self.disks.cancel_queued(disk, now, |r| {
            r.kind == FetchKind::Demand && attribute(r.block) == (file, block)
        })?;
        Some(req.initiator)
    }

    /// Bound every device's queue to `limit` waiting requests (`None`
    /// restores the unbounded default).
    pub fn set_queue_limit(&mut self, limit: Option<usize>) {
        self.disks.set_queue_limit(limit);
    }

    /// Copies of `file` beyond the primary.
    pub fn replica_count(&self, file: FileId) -> u16 {
        self.files
            .get(file.index())
            .map_or(0, |m| m.replicas.len() as u16)
    }

    /// Which device serves `block` of `file` through copy `replica`
    /// (0 = primary). Used by upper layers to steer around degraded
    /// devices without submitting anything.
    pub fn placement_disk(&self, file: FileId, block: BlockId, replica: u16) -> Option<DiskId> {
        let meta = self.files.get(file.index())?;
        let layout = if replica == 0 {
            &meta.layout
        } else {
            meta.replicas.get(replica as usize - 1)?
        };
        Some(layout.place(block).disk)
    }

    /// Install a fault schedule on the underlying devices (see
    /// [`DiskSubsystem::set_fault_plan`]).
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, rng: &Rng) {
        self.disks.set_fault_plan(plan, rng);
    }

    /// The in-flight request on `disk` finished at `now`. Returns the
    /// finished `(file, block)` and, if queued work started, the next
    /// request's completion time.
    pub fn complete(&mut self, disk: DiskId, now: SimTime) -> (FsCompleted, Option<FsStarted>) {
        let (done, next) = self.disks.complete(disk, now);
        let (file, block) = self.attribute(done.block);
        let completed = FsCompleted {
            file,
            block,
            kind: done.kind,
            initiator: done.initiator,
            status: done.status,
            service: done.service,
            submitted: done.submitted,
            corrupt: done.corrupt,
        };
        (
            completed,
            next.map(|s| {
                let (file, block) = self.attribute(s.block);
                FsStarted {
                    disk: s.disk,
                    file,
                    block,
                    kind: s.kind,
                    completion: s.completion,
                }
            }),
        )
    }

    /// Map a global block number back to its file and logical block.
    fn attribute(&self, global: BlockId) -> (FileId, BlockId) {
        let pos = self
            .bases
            .partition_point(|&(base, _)| base <= global.0)
            .checked_sub(1)
            .expect("completion for an unallocated block");
        let (base, file) = self.bases[pos];
        (file, BlockId(global.0 - base))
    }

    /// The underlying disk subsystem (statistics).
    pub fn disks(&self) -> &DiskSubsystem {
        &self.disks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_sim::SimDuration;

    fn fs(disks: u16) -> FileSystem {
        FileSystem::new(disks, Discipline::Fifo)
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn create_open_meta_round_trip() {
        let mut f = fs(4);
        let id = f.create("data", 100, Striping::Interleaved).unwrap();
        assert_eq!(f.open("data").unwrap(), id);
        let meta = f.meta(id).unwrap();
        assert_eq!(meta.blocks, 100);
        assert_eq!(meta.name, "data");
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut f = fs(2);
        f.create("x", 10, Striping::Interleaved).unwrap();
        assert_eq!(
            f.create("x", 10, Striping::Interleaved),
            Err(FsError::Exists("x".into()))
        );
        assert_eq!(f.open("y"), Err(FsError::NotFound("y".into())));
    }

    #[test]
    fn out_of_range_reads_rejected() {
        let mut f = fs(2);
        let id = f.create("x", 10, Striping::Interleaved).unwrap();
        let err = f
            .read(t(0), id, BlockId(10), FetchKind::Demand, ProcId(0))
            .unwrap_err();
        assert_eq!(err, FsError::OutOfRange { block: 10, len: 10 });
    }

    #[test]
    fn interleaved_file_reads_in_parallel() {
        let mut f = fs(4);
        let id = f.create("x", 8, Striping::Interleaved).unwrap();
        for b in 0..4 {
            let started = f
                .read(t(0), id, BlockId(b), FetchKind::Demand, ProcId(0))
                .unwrap()
                .expect("idle disks start immediately");
            assert_eq!(started.completion, t(30));
        }
    }

    #[test]
    fn contiguous_file_serializes_on_its_disk() {
        let mut f = fs(4);
        let id = f.create("x", 8, Striping::OnDisk(2)).unwrap();
        let a = f
            .read(t(0), id, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        let b = f
            .read(t(0), id, BlockId(1), FetchKind::Demand, ProcId(0))
            .unwrap();
        assert!(a.is_some());
        assert!(b.is_none(), "second block queues behind the first");
        assert_eq!(a.unwrap().disk, DiskId(2));
    }

    #[test]
    fn completions_attribute_to_the_right_file() {
        let mut f = fs(2);
        let a = f.create("a", 4, Striping::Interleaved).unwrap();
        let b = f.create("b", 4, Striping::Interleaved).unwrap();
        // One block from each file on disk 0 (block 0 of each; b's stripes
        // start above a's).
        let s1 = f
            .read(t(0), a, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap()
            .unwrap();
        assert_eq!(s1.disk, DiskId(0));
        let s2 = f
            .read(t(0), b, BlockId(0), FetchKind::Demand, ProcId(1))
            .unwrap();
        assert!(s2.is_none(), "same disk: queues");
        let (done, next) = f.complete(DiskId(0), t(30));
        assert_eq!((done.file, done.block), (a, BlockId(0)));
        assert_eq!(done.status, Ok(()));
        assert_eq!(done.kind, FetchKind::Demand);
        let (done, _) = f.complete(DiskId(0), next.unwrap().completion);
        assert_eq!((done.file, done.block), (b, BlockId(0)));
    }

    #[test]
    fn replicas_rotate_and_never_collide() {
        let mut f = fs(4);
        let id = f
            .create_replicated("x", 8, Striping::Interleaved, 2)
            .unwrap();
        assert_eq!(f.replica_count(id), 2);
        for blk in 0..8u32 {
            let primary = f.placement_disk(id, BlockId(blk), 0).unwrap();
            let r1 = f.placement_disk(id, BlockId(blk), 1).unwrap();
            let r2 = f.placement_disk(id, BlockId(blk), 2).unwrap();
            assert_ne!(primary, r1);
            assert_ne!(primary, r2);
            assert_ne!(r1, r2);
        }
        // A replica read attributes to the same (file, block) as the
        // primary and lands on the rotated device.
        let s = f
            .read_replica(t(0), id, BlockId(0), 1, FetchKind::Demand, ProcId(0))
            .unwrap()
            .unwrap();
        assert_eq!(s.disk, DiskId(1));
        let (done, _) = f.complete(s.disk, s.completion);
        assert_eq!((done.file, done.block), (id, BlockId(0)));
        // Out-of-range replica indexes are rejected.
        assert_eq!(
            f.read_replica(t(0), id, BlockId(0), 3, FetchKind::Demand, ProcId(0)),
            Err(FsError::NoReplica {
                replica: 3,
                available: 2
            })
        );
    }

    #[test]
    fn replication_requires_interleaving() {
        let mut f = fs(4);
        assert_eq!(
            f.create_replicated("x", 8, Striping::OnDisk(1), 1),
            Err(FsError::ReplicaUnsupported)
        );
    }

    #[test]
    fn fault_plan_surfaces_in_completions() {
        use rt_disk::FaultPlan;
        let mut f = fs(2);
        let id = f.create("x", 4, Striping::Interleaved).unwrap();
        let plan = FaultPlan::none().outage(DiskId(1), t(0), None);
        f.set_fault_plan(&plan, &Rng::seeded(5));
        let s = f
            .read(t(0), id, BlockId(1), FetchKind::Demand, ProcId(0))
            .unwrap()
            .unwrap();
        let (done, _) = f.complete(s.disk, s.completion);
        assert!(done.status.is_err());
        assert_eq!((done.file, done.block), (id, BlockId(1)));
        assert_eq!(f.disks().total_errors(), 1);
    }

    #[test]
    fn two_files_never_share_physical_blocks() {
        let mut f = fs(3);
        let a = f.create("a", 7, Striping::Interleaved).unwrap();
        let b = f.create("b", 5, Striping::Interleaved).unwrap();
        let mut slots = std::collections::HashSet::new();
        for (id, len) in [(a, 7u32), (b, 5u32)] {
            let meta = f.meta(id).unwrap().clone();
            for blk in 0..len {
                let p = meta.layout.place(BlockId(blk));
                assert!(slots.insert((p.disk, p.physical)), "files overlap at {p:?}");
            }
        }
    }

    #[test]
    fn bounded_queue_surfaces_and_cancel_frees_room() {
        let mut f = fs(2);
        let id = f.create("x", 8, Striping::OnDisk(0)).unwrap();
        f.set_queue_limit(Some(1));
        // One in service, one queued prefetch, then the queue is full.
        f.read(t(0), id, BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap();
        f.read(t(0), id, BlockId(1), FetchKind::Prefetch, ProcId(0))
            .unwrap();
        assert_eq!(
            f.read(t(0), id, BlockId(2), FetchKind::Demand, ProcId(1)),
            Err(FsError::QueueFull {
                disk: DiskId(0),
                depth: 1
            })
        );
        // A protected prefetch is spared; an unprotected one is shed,
        // attributed back to the file, and makes room for the demand read.
        assert!(f
            .cancel_queued_prefetch(DiskId(0), t(0), |_, b| b == BlockId(1))
            .is_none());
        let (file, block, initiator) = f
            .cancel_queued_prefetch(DiskId(0), t(0), |_, _| false)
            .unwrap();
        assert_eq!((file, block, initiator), (id, BlockId(1), ProcId(0)));
        assert!(f
            .cancel_queued_prefetch(DiskId(0), t(0), |_, _| false)
            .is_none());
        assert!(f
            .read(t(0), id, BlockId(2), FetchKind::Demand, ProcId(1))
            .unwrap()
            .is_none());
    }

    #[test]
    fn bad_file_id_rejected() {
        let mut f = fs(2);
        assert_eq!(f.meta(FileId(0)).err(), Some(FsError::BadFile));
        let err = f
            .read(t(0), FileId(3), BlockId(0), FetchKind::Demand, ProcId(0))
            .unwrap_err();
        assert_eq!(err, FsError::BadFile);
    }
}
