//! # nuat-workloads
//!
//! Synthetic stand-in for the MSC workload suite the paper evaluates on
//! (Table 2): 18 parameterized trace generators plus the random 2-core
//! and 4-core combinations of §8. See DESIGN.md §3 for the substitution
//! rationale.
//!
//! ## Example
//!
//! ```
//! use nuat_workloads::{by_name, TraceGenerator};
//! use nuat_types::DramGeometry;
//!
//! let spec = by_name("ferret").expect("Table 2 workload");
//! let mut generator = TraceGenerator::new(spec, DramGeometry::default(), 42);
//! let trace = generator.generate(1000);
//! assert_eq!(trace.mem_ops(), 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod generator;
pub mod mixes;
pub mod spec;

pub use analysis::TraceProfile;
pub use generator::{GeneratedTrace, TraceGenerator};
pub use mixes::{paper_four_core_mixes, paper_two_core_mixes, random_mixes, WorkloadMix};
pub use spec::{by_name, table2, Suite, WorkloadSpec};
