//! # nuat-core
//!
//! The primary contribution of *"NUAT: A Non-Uniform Access Time Memory
//! Controller"* (HPCA 2014): a DRAM scheduler that exploits the fact
//! that recently-refreshed rows can be sensed faster, without modifying
//! the DRAM device.
//!
//! The crate provides:
//!
//! * [`PbrAcquisition`] — Partitioned Bank Rotation: derives a row's
//!   access-speed class (PB#) from refresh timing and position (§5),
//! * [`PseudoHitRate`] — the PHRC windowed hit-rate estimator (§6.1),
//! * [`PpmDecisionMaker`] — per-PB open/close page-mode selection (§6.2),
//! * [`NuatTable`] — the five-element scoring table (§7, Table 1),
//! * [`SchedulerKind`] — NUAT plus the FCFS / FR-FCFS baselines,
//! * [`MemoryController`] — the full per-cycle controller driving a
//!   `nuat-dram` device.
//!
//! ## Example
//!
//! ```
//! use nuat_core::{MemoryController, SchedulerKind, RequestKind};
//! use nuat_types::{PhysAddr, SystemConfig};
//!
//! let mut mc = MemoryController::new(SystemConfig::default(), SchedulerKind::Nuat);
//! mc.enqueue(0, RequestKind::Read, PhysAddr::new(0x4000_0000));
//! mc.run_for(200);
//! for done in mc.take_completions() {
//!     println!("read finished at cycle {}", done.done);
//! }
//! assert_eq!(mc.stats().reads_completed, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod candidate;
pub mod controller;
pub mod pbr;
pub mod phrc;
pub mod ppm;
pub mod queues;
pub mod request;
pub mod scheduler;
pub mod stats;
pub mod table;
mod wheel;

pub use candidate::{Candidate, CandidateKind};
/// The naive per-cycle reference controller the fast path is tested
/// against (see the module docs). Test-only in purpose, always compiled.
#[doc(hidden)]
pub use controller::oracle;
pub use controller::{Completion, MemoryController};
pub use pbr::{BoundaryZone, PbrAcquisition};
pub use phrc::PseudoHitRate;
pub use ppm::{PageMode, PpmDecisionMaker};
pub use queues::{DrainMode, RequestQueues};
pub use request::{MemoryRequest, RequestId, RequestKind};
pub use scheduler::{PolicyView, SchedulerKind, SchedulerPolicy};
pub use stats::{ControllerStats, LatencyHistogram};
pub use table::{NuatTable, NuatWeights, ScoreBreakdown, SCORE_FP};
