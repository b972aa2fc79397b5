//! # nuat-cpu
//!
//! USIMM-style trace-driven processor model for the NUAT reproduction:
//! a fixed-width out-of-order core with a reorder buffer whose head
//! blocks on outstanding reads — the mechanism through which DRAM
//! latency becomes execution time in the paper's Figs. 20 and 22.
//!
//! ## Example
//!
//! ```
//! use nuat_cpu::{Core, MemOp, MemoryPort, Trace};
//! use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};
//!
//! struct InstantMemory;
//! impl MemoryPort for InstantMemory {
//!     fn can_accept(&self, _: MemOp, _: PhysAddr) -> bool { true }
//!     fn submit(&mut self, _: usize, _: MemOp, _: PhysAddr) -> u64 { 0 }
//! }
//!
//! let trace = Trace::new(vec![], 1000); // pure compute
//! let mut core = Core::new(0, ProcessorConfig::default(), trace);
//! let mut mem = InstantMemory;
//! let mut now = CpuCycle::ZERO;
//! while !core.is_done() {
//!     core.tick(now, &mut mem);
//!     now += 1;
//! }
//! assert_eq!(core.retired(), 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod core;
pub mod trace;
pub mod trace_io;

pub use crate::core::{Core, MemoryPort};
pub use trace::{MemOp, Trace, TraceRecord, TraceSource};
pub use trace_io::{read_usimm, write_usimm, ParseTraceError};
