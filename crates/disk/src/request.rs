//! Disk request descriptors.

use rt_sim::SimTime;

/// Identifies a processor node (one user process per node, as on the
/// Butterfly testbed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u16);

impl ProcId {
    /// Index for per-processor arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a physical disk device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DiskId(pub u16);

impl DiskId {
    /// Index for per-disk arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A logical block number within a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Index for per-block arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a disk request was issued — the paper's accounting distinguishes
/// demand fetches from prefetches throughout; the integrity layer adds
/// maintenance traffic on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FetchKind {
    /// Issued on behalf of a blocked user read.
    Demand,
    /// Issued by the prefetching component during idle time.
    Prefetch,
    /// Issued by the integrity scrubber during idle time: a verify-only
    /// read that never lands in the cache.
    Scrub,
    /// A read-repair rewrite: after a corrupt copy was re-fetched from a
    /// healthy replica, the clean payload is written back over the bad
    /// copy. Occupies the device like any other request.
    Repair,
}

/// One read request as seen by a disk device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DiskRequest {
    /// The file block being fetched.
    pub block: BlockId,
    /// Demand fetch or prefetch.
    pub kind: FetchKind,
    /// The node that issued the request.
    pub initiator: ProcId,
    /// When the request was placed on the disk queue.
    pub submitted: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_index() {
        assert_eq!(ProcId(3).index(), 3);
        assert_eq!(DiskId(19).index(), 19);
        assert_eq!(BlockId(1999).index(), 1999);
    }

    #[test]
    fn ids_order() {
        assert!(BlockId(1) < BlockId(2));
        assert!(ProcId(0) < ProcId(1));
    }
}
