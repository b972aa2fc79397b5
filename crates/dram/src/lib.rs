//! # nuat-dram
//!
//! Cycle-level DDR3 SDRAM device model for the NUAT reproduction: one
//! channel's ranks and banks, the complete DDR3 timing rule set, a
//! refresh engine with the linear row counter the paper's PBR mechanism
//! reads, per-command energy accounting, and — the part specific to this
//! paper — *physical minimum-timing validation*: every `ACTIVATE` carries
//! the activation timings the controller intends to use, and the device
//! rejects any set that under-runs the charge-dependent physical minimum
//! from `nuat-circuit`.
//!
//! The controller (in `nuat-core`) drives this device one command at a
//! time; [`DramDevice::can_issue`] / [`DramDevice::issue`] form the whole
//! interface.
//!
//! ## Example
//!
//! ```
//! use nuat_dram::{DramDevice, DramCommand};
//! use nuat_types::{DramConfig, McCycle, Rank, Bank, Row, Col};
//!
//! let mut dev = DramDevice::new(DramConfig::default());
//! let act = DramCommand::activate_worst_case(
//!     Rank::new(0), Bank::new(0), Row::new(42), dev.timings());
//! let t0 = McCycle::new(100);
//! dev.issue(act, t0)?;
//! // tRCD later, the column is readable:
//! let rd = DramCommand::Read {
//!     rank: Rank::new(0), bank: Bank::new(0), col: Col::new(3), auto_precharge: false,
//! };
//! assert!(dev.can_issue(&rd, t0 + 11).is_err()); // one cycle early
//! dev.issue(rd, t0 + 12)?;
//! # Ok::<(), nuat_dram::IssueError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod command_log;
pub mod device;
pub mod energy;
pub mod error;
pub mod reference;
pub mod refresh;

pub use bank::{BankState, BankView};
pub use command::DramCommand;
pub use command_log::{CommandLog, LogEntry};
pub use device::{BankGates, BankLanes, DeviceStats, DramDevice, RankTimingView, IDLE_ROW};
pub use energy::EnergyCounters;
pub use error::IssueError;
pub use reference::ReferenceChecker;
pub use refresh::RefreshEngine;
