//! Physical block allocation across the parallel disks.
//!
//! The allocator hands out physical extents so that any number of files —
//! interleaved or contiguous — coexist without overlapping. Interleaved
//! files consume whole *stripes* (one block per disk at the same physical
//! offset on every disk); contiguous files consume a run of blocks on one
//! disk. A per-disk high-water mark keeps both kinds disjoint.

use rt_disk::DiskId;

/// Allocation failure reasons.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The target disk does not exist.
    NoSuchDisk,
    /// The requested size was zero.
    EmptyFile,
}

/// Per-disk high-water-mark allocator.
#[derive(Clone, Debug)]
pub struct Allocator {
    /// Next free physical block on each disk.
    next_free: Vec<u32>,
}

impl Allocator {
    /// An allocator over `disks` empty devices.
    pub fn new(disks: u16) -> Self {
        assert!(disks > 0, "need at least one disk");
        Allocator {
            next_free: vec![0; disks as usize],
        }
    }

    /// Number of disks managed.
    pub fn disks(&self) -> u16 {
        self.next_free.len() as u16
    }

    /// Allocate `blocks` interleaved round-robin over all disks. Returns
    /// the physical stripe offset where the extent begins: logical block
    /// *i* of the extent lives on disk `i mod D` at physical offset
    /// `base + i / D`.
    pub fn alloc_interleaved(&mut self, blocks: u32) -> Result<u32, AllocError> {
        if blocks == 0 {
            return Err(AllocError::EmptyFile);
        }
        let d = self.next_free.len() as u32;
        // The stripe must start above every disk's high-water mark.
        let base = *self.next_free.iter().max().expect("at least one disk");
        let stripes = blocks.div_ceil(d);
        for nf in &mut self.next_free {
            *nf = base + stripes;
        }
        Ok(base)
    }

    /// Allocate `blocks` contiguously on `disk`; returns the physical
    /// offset of the first block.
    pub fn alloc_contiguous(&mut self, disk: DiskId, blocks: u32) -> Result<u32, AllocError> {
        if blocks == 0 {
            return Err(AllocError::EmptyFile);
        }
        let nf = self
            .next_free
            .get_mut(disk.index())
            .ok_or(AllocError::NoSuchDisk)?;
        let base = *nf;
        *nf += blocks;
        Ok(base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_extents_do_not_overlap() {
        let mut a = Allocator::new(4);
        let b1 = a.alloc_interleaved(10).unwrap(); // 3 stripes
        let b2 = a.alloc_interleaved(4).unwrap(); // 1 stripe
        assert_eq!(b1, 0);
        assert_eq!(b2, 3);
        // Disk 0's high-water mark sits above both extents.
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), 4);
    }

    #[test]
    fn contiguous_extents_stack_per_disk() {
        let mut a = Allocator::new(2);
        assert_eq!(a.alloc_contiguous(DiskId(0), 5).unwrap(), 0);
        assert_eq!(a.alloc_contiguous(DiskId(0), 3).unwrap(), 5);
        assert_eq!(a.alloc_contiguous(DiskId(1), 2).unwrap(), 0);
        assert_eq!(a.alloc_contiguous(DiskId(0), 1).unwrap(), 8);
        assert_eq!(a.alloc_contiguous(DiskId(1), 1).unwrap(), 2);
    }

    #[test]
    fn mixed_allocations_stay_disjoint() {
        let mut a = Allocator::new(2);
        let c = a.alloc_contiguous(DiskId(0), 3).unwrap();
        assert_eq!(c, 0);
        // The interleaved extent must start above disk 0's mark.
        let i = a.alloc_interleaved(4).unwrap();
        assert_eq!(i, 3);
        // And a later contiguous extent above the stripes.
        let c2 = a.alloc_contiguous(DiskId(1), 1).unwrap();
        assert_eq!(c2, 5);
    }

    #[test]
    fn errors() {
        let mut a = Allocator::new(2);
        assert_eq!(a.alloc_interleaved(0), Err(AllocError::EmptyFile));
        assert_eq!(
            a.alloc_contiguous(DiskId(9), 1),
            Err(AllocError::NoSuchDisk)
        );
        assert_eq!(a.alloc_contiguous(DiskId(0), 0), Err(AllocError::EmptyFile));
    }

    #[test]
    #[should_panic(expected = "at least one disk")]
    fn zero_disks_rejected() {
        let _ = Allocator::new(0);
    }
}
