//! # rt-fs — the interleaved file system
//!
//! The file-system substrate of the RAPID Transit reproduction, patterned
//! on the Bridge / BBN RAMFile systems the testbed derives from: named
//! files, per-file striping (round-robin interleaved over all disks, or
//! contiguous on one disk), a high-water-mark allocator that keeps files'
//! physical extents disjoint, and an event-driven read path down to the
//! parallel independent disks.
//!
//! ```
//! use rt_fs::{FileSystem, Striping};
//! use rt_disk::{BlockId, FetchKind, ProcId};
//! use rt_sim::{SimTime, SimDuration};
//!
//! let mut fs = FileSystem::paper();
//! let file = fs.create("trace.dat", 2000, Striping::Interleaved).unwrap();
//! // Block 0 of an interleaved file starts immediately on disk 0.
//! let started = fs
//!     .read(SimTime::ZERO, file, BlockId(0), FetchKind::Demand, ProcId(0))
//!     .unwrap()
//!     .expect("idle disk");
//! assert_eq!(started.completion, SimTime::ZERO + SimDuration::from_millis(30));
//! let (done, _) = fs.complete(started.disk, started.completion);
//! assert_eq!(done.file, file);
//! assert_eq!(done.block, BlockId(0));
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod file;
pub mod system;

pub use alloc::{AllocError, Allocator};
pub use file::{FileId, FileMeta, Striping};
pub use system::{FileSystem, FsCompleted, FsError, FsStarted};
