//! # nuat-sim
//!
//! Full-system simulation for the NUAT reproduction: trace-driven cores
//! (`nuat-cpu`) attached to the NUAT/FR-FCFS memory controller
//! (`nuat-core`) over a cycle-level DDR3 device (`nuat-dram`), plus the
//! experiment runners that regenerate every figure of the paper's
//! evaluation.
//!
//! ## Example
//!
//! ```
//! use nuat_sim::{RunConfig, run_single};
//! use nuat_core::SchedulerKind;
//! use nuat_workloads::by_name;
//!
//! let rc = RunConfig { mem_ops_per_core: 300, ..RunConfig::quick() };
//! let result = run_single(by_name("black").unwrap(), SchedulerKind::Nuat, &rc);
//! assert!(result.completed);
//! println!("avg read latency: {:.1} cycles", result.avg_read_latency());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod parallel;
pub mod report;
pub mod runner;
pub mod system;

pub use experiments::{LatencyExecReport, MulticoreEffects, PbSensitivity};
pub use parallel::{parallel_map, worker_count};
pub use report::{latency_exec_csv, multicore_csv, pb_sensitivity_csv, render_histogram, Csv};
pub use runner::{
    run_mix, run_mix_instrumented, run_mix_traced, run_single, traces_for, RunConfig,
};
/// The naive per-cycle reference system loop the event loop is tested
/// against (see the module docs). Test-only in purpose, always compiled.
#[doc(hidden)]
pub use system::oracle;
pub use system::{SimResult, System};
