//! Per-bank state machine and timing bookkeeping.
//!
//! Each bank tracks its row-buffer state plus the earliest cycle at which
//! each command class becomes legal. The earliest-cycle fields are
//! monotone (only pushed later), which is what makes the checker sound:
//! issuing a command can only ever delay other commands.

use nuat_types::{McCycle, Row, RowTimings};
use serde::{Deserialize, Serialize};

/// Row-buffer state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BankState {
    /// No open row; an `ACT` may be issued once `earliest_act` passes.
    Idle,
    /// A row is latched in the sense amplifiers.
    Active {
        /// The open row.
        row: Row,
        /// Cycle the `ACT` was issued.
        act_at: McCycle,
        /// Timings promised by the controller for this row cycle.
        timings: RowTimings,
    },
}

impl BankState {
    /// The open row, if any.
    pub fn open_row(&self) -> Option<Row> {
        match *self {
            BankState::Active { row, .. } => Some(row),
            BankState::Idle => None,
        }
    }

    /// The open row in the packed-lane encoding: the raw row number, or
    /// [`IDLE_ROW`](crate::IDLE_ROW) when closed. This is the value the
    /// device's `open_row` lane carries for the bank; the `prop_legality`
    /// test holds the lane to it.
    pub fn open_row_lane(&self) -> u32 {
        self.open_row().map_or(u32::MAX, Row::raw)
    }
}

/// Full timing view of one bank, used by the checker and exposed to the
/// controller for candidate generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankView {
    /// Row-buffer state.
    pub state: BankState,
    /// Earliest legal `ACT` (covers tRP after PRE, tRC after ACT, tRFC
    /// after REF).
    pub earliest_act: McCycle,
    /// Earliest legal `RD` to this bank (tRCD after ACT).
    pub earliest_read: McCycle,
    /// Earliest legal `WR` to this bank (tRCD after ACT).
    pub earliest_write: McCycle,
    /// Earliest legal `PRE` (tRAS after ACT, tRTP after RD, write
    /// recovery after WR).
    pub earliest_pre: McCycle,
}

impl Default for BankView {
    fn default() -> Self {
        BankView {
            state: BankState::Idle,
            earliest_act: McCycle::ZERO,
            earliest_read: McCycle::ZERO,
            earliest_write: McCycle::ZERO,
            earliest_pre: McCycle::ZERO,
        }
    }
}

impl BankView {
    /// True if `row` is currently open in this bank (a row-buffer hit).
    pub fn is_hit(&self, row: Row) -> bool {
        self.state.open_row() == Some(row)
    }

    /// Push a deadline field later; never earlier.
    pub(crate) fn push_earliest(field: &mut McCycle, candidate: McCycle) {
        *field = (*field).max(candidate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bank_is_idle_and_ready() {
        let b = BankView::default();
        assert_eq!(b.state, BankState::Idle);
        assert_eq!(b.earliest_act, McCycle::ZERO);
        assert!(!b.is_hit(Row::new(0)));
    }

    #[test]
    fn hit_detection() {
        let b = BankView {
            state: BankState::Active {
                row: Row::new(9),
                act_at: McCycle::new(5),
                timings: RowTimings::new(12, 30, 12),
            },
            ..BankView::default()
        };
        assert!(b.is_hit(Row::new(9)));
        assert!(!b.is_hit(Row::new(10)));
        assert_eq!(b.state.open_row(), Some(Row::new(9)));
    }

    #[test]
    fn push_earliest_is_monotone() {
        let mut t = McCycle::new(10);
        BankView::push_earliest(&mut t, McCycle::new(5));
        assert_eq!(t, McCycle::new(10));
        BankView::push_earliest(&mut t, McCycle::new(20));
        assert_eq!(t, McCycle::new(20));
    }
}
