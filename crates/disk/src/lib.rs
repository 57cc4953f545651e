//! # rt-disk — parallel independent disks
//!
//! The disk substrate of the RAPID Transit reproduction: simulated disk
//! devices ([`Disk`]) behind FIFO queues with the paper's fixed 30 ms
//! access time ([`ACCESS_TIME`]), and the Bridge-style round-robin
//! interleaved file layout ([`Interleaved`]) that lets a sequential scan
//! drive all twenty disks at once.
//!
//! ```
//! use rt_disk::{DiskSubsystem, BlockId, FetchKind, ProcId};
//! use rt_sim::{SimTime, SimDuration};
//!
//! let mut io = DiskSubsystem::paper();
//! // Twenty consecutive blocks land on twenty distinct disks: all twenty
//! // reads start at once and complete after a single 30 ms access time.
//! for b in 0..20 {
//!     let started = io.read(SimTime::ZERO, BlockId(b), FetchKind::Demand, ProcId(0))
//!         .expect("queues are unbounded by default")
//!         .expect("idle disk starts immediately");
//!     assert_eq!(started.completion, SimTime::ZERO + SimDuration::from_millis(30));
//! }
//! ```

#![warn(missing_docs)]

pub mod device;
pub mod fault;
pub mod request;
pub mod striping;
pub mod subsystem;

pub use device::{Discipline, Disk, Finished, QueueFull, ACCESS_TIME};
pub use fault::{Applied, DeviceFault, DeviceFaults, DiskFault, FaultKind, FaultPlan};
pub use request::{BlockId, DiskId, DiskRequest, FetchKind, ProcId};
pub use striping::{Contiguous, FileLayout, Interleaved, Layout, Placement};
pub use subsystem::{Completed, DiskSubsystem, Started};
