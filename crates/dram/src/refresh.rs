//! Refresh engine: the per-rank linear refresh row counter and batch
//! schedule that PBR (paper §5) reads its information from.
//!
//! Rows are refreshed in linear order, 8 rows per `REF` command, one
//! command every `8 × tREFI` (paper §4, citing refresh-pausing work).
//! The engine tracks the *last refreshed row address* (LRRA) and the due
//! time of the next batch; the controller issues the actual `REF`
//! commands and must keep up with the schedule.
//!
//! Batch `k` (rows `8k .. 8k+8`) is due at `(k+1) × 8 × tREFI`, so every
//! row is re-refreshed exactly `retention` after its previous (possibly
//! pre-simulation) refresh slot.

use nuat_types::{DramTimings, McCycle, Row};
use serde::{Deserialize, Serialize};

/// How badly a refresh batch is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RefreshUrgency {
    /// Nothing due; keep scheduling normally.
    NotDue,
    /// Inside the lead window: stop opening new rows in this rank and
    /// drain it so the batch can issue on time.
    Pending,
    /// The due time has passed but postpone credits remain (DDR3 allows
    /// deferring up to 8 REF commands): the controller *may* keep
    /// serving demand requests.
    Postponable,
    /// The due time (plus any postpone budget) has passed: issue the
    /// batch as soon as banks close.
    Overdue,
}

/// Per-rank refresh schedule and LRRA counter.
///
/// # Examples
///
/// ```
/// use nuat_dram::RefreshEngine;
/// use nuat_types::{DramTimings, McCycle, Row};
///
/// let mut engine = RefreshEngine::new(8192, &DramTimings::default());
/// assert_eq!(engine.lrra(), Row::new(8191));
/// assert_eq!(engine.complete_batch(engine.next_due()), 0); // rows 0..8
/// assert_eq!(engine.lrra(), Row::new(7));
/// assert_eq!(engine.distance(Row::new(8)), 8191); // next deadline
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RefreshEngine {
    rows_per_bank: u64,
    batch_rows: u64,
    batch_interval: u64,
    retention: u64,
    trefi: u64,
    /// Cycles before the due time at which the engine reports
    /// [`RefreshUrgency::Pending`] so the controller can drain banks.
    lead: u64,
    /// Batches that may be postponed past their due time (DDR3 allows
    /// up to 8). Zero = prompt refresh (the default).
    postpone_budget: u64,
    /// Batches completed so far.
    batches_done: u64,
    /// Batches issued after their nominal due time.
    postponed_batches: u64,
    /// Last refreshed row address.
    lrra: u64,
}

impl RefreshEngine {
    /// Creates the schedule for one rank.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_bank` is not a multiple of the batch size.
    pub fn new(rows_per_bank: u64, timings: &DramTimings) -> Self {
        let batch_rows = timings.rows_per_refresh_batch();
        assert!(
            rows_per_bank.is_multiple_of(batch_rows),
            "rows per bank must be a multiple of the refresh batch size"
        );
        RefreshEngine {
            rows_per_bank,
            batch_rows,
            batch_interval: timings.refresh_batch_interval(),
            retention: timings.retention,
            trefi: timings.trefi,
            lead: 128,
            postpone_budget: 0,
            batches_done: 0,
            postponed_batches: 0,
            lrra: rows_per_bank - 1,
        }
    }

    /// Enables refresh postponement: up to `batches` REF commands may be
    /// deferred past their due time (DDR3 permits 8). **The PBR block
    /// must be derated by the same budget** (see
    /// `nuat_core::PbrAcquisition`), otherwise rows near a PB boundary
    /// can decay past the window their timing table assumes and the
    /// device's charge validator will reject the controller's promises.
    pub fn set_postpone_budget(&mut self, batches: u64) {
        self.postpone_budget = batches;
    }

    /// The configured postpone budget in batches.
    pub fn postpone_budget(&self) -> u64 {
        self.postpone_budget
    }

    /// Batches that were issued after their nominal due time.
    pub fn postponed_batches(&self) -> u64 {
        self.postponed_batches
    }

    /// The last refreshed row address — the `LRRA` of the paper's
    /// equation (1).
    pub fn lrra(&self) -> Row {
        Row::new(self.lrra as u32)
    }

    /// Cycle at which the next batch is due.
    pub fn next_due(&self) -> McCycle {
        McCycle::new((self.batches_done + 1) * self.batch_interval)
    }

    /// First cycle at which [`urgency`](Self::urgency) stops reporting
    /// [`RefreshUrgency::NotDue`] (the start of the lead window): the
    /// first of the three urgency transitions
    /// [`next_transition_after`](Self::next_transition_after) picks from.
    fn pending_from(&self) -> McCycle {
        McCycle::new(self.next_due().raw().saturating_sub(self.lead))
    }

    /// Urgency of the next batch at cycle `now`.
    pub fn urgency(&self, now: McCycle) -> RefreshUrgency {
        let due = self.next_due();
        let deadline = due.raw() + self.postpone_budget * self.batch_interval;
        if now.raw() >= deadline {
            RefreshUrgency::Overdue
        } else if now.raw() >= due.raw() {
            RefreshUrgency::Postponable
        } else if now.raw() + self.lead >= due.raw() {
            RefreshUrgency::Pending
        } else {
            RefreshUrgency::NotDue
        }
    }

    /// First cycle strictly after `now` at which [`urgency`](Self::urgency)
    /// changes value, or `None` if `now` is already at or past the final
    /// transition (Overdue never de-escalates until a batch completes).
    /// The controller's busy horizon uses this as its refresh component
    /// (empty queues included): between `now` and the returned cycle
    /// the urgency — and therefore every refresh-driven scheduling
    /// decision — is constant.
    pub fn next_transition_after(&self, now: McCycle) -> Option<McCycle> {
        let due = self.next_due().raw();
        let deadline = due + self.postpone_budget * self.batch_interval;
        [self.pending_from().raw(), due, deadline]
            .into_iter()
            .filter(|&t| t > now.raw())
            .min()
            .map(McCycle::new)
    }

    /// Number of batch positions in one refresh rotation: batch `k`
    /// covers rows `k × batch_rows .. (k + 1) × batch_rows`.
    pub fn batch_count(&self) -> usize {
        (self.rows_per_bank / self.batch_rows) as usize
    }

    /// The batch position whose `REF` refreshes `row`.
    pub fn batch_of(&self, row: Row) -> usize {
        (row.as_u64() / self.batch_rows) as usize
    }

    /// Marks the next batch complete, advancing the LRRA. Returns the
    /// refreshed batch's position (see [`batch_of`](Self::batch_of)),
    /// whose rows are restored in every bank of the rank. Called by the
    /// device when a `REF` is issued.
    pub fn complete_batch(&mut self, now: McCycle) -> usize {
        if now > self.next_due() {
            self.postponed_batches += 1;
        }
        // Batches start at row 0 and the row count is a multiple of the
        // batch size, so the row after the LRRA always opens a batch.
        let batch = self.batch_of(Row::new(((self.lrra + 1) % self.rows_per_bank) as u32));
        self.lrra = (self.lrra + self.batch_rows) % self.rows_per_bank;
        self.batches_done += 1;
        batch
    }

    /// The simulated cycle (possibly negative: before simulation start)
    /// at which `row` was last refreshed under the steady-state schedule.
    /// The device falls back to it for a row that has been neither
    /// activated nor refreshed since cycle 0, so it needs no per-row
    /// state for the rows a run never touches.
    ///
    /// Rows refresh in batches, so the restore time is the previous
    /// period's completion of the row's batch: batch `k` runs at
    /// `(k + 1) x batch_interval`, one retention window earlier.
    pub fn initial_restore_cycle(&self, row: Row) -> i64 {
        let batch = self.batch_of(row) as u64;
        ((batch + 1) * self.batch_interval) as i64 - self.retention as i64
    }

    /// Row distance from `row` back to the last refreshed row — the
    /// `(LRRA − RRA) mod #R` term of the paper's equation (1). Zero
    /// means "just refreshed"; `#R − 1` means "refresh imminent".
    pub fn distance(&self, row: Row) -> u64 {
        (self.lrra + self.rows_per_bank - row.as_u64()) % self.rows_per_bank
    }

    /// Number of completed batches (for stats).
    pub fn batches_done(&self) -> u64 {
        self.batches_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine() -> RefreshEngine {
        RefreshEngine::new(8192, &DramTimings::default())
    }

    #[test]
    fn initial_state() {
        let e = engine();
        assert_eq!(e.lrra(), Row::new(8191));
        assert_eq!(e.next_due(), McCycle::new(8 * 6250));
        assert_eq!(e.batch_count(), 1024);
        // The first REF covers rows 0..8: batch 0.
        assert!((0..8).all(|r| e.batch_of(Row::new(r)) == 0));
        assert_eq!(e.batch_of(Row::new(8)), 1);
    }

    #[test]
    fn urgency_transitions() {
        let e = engine();
        let due = e.next_due();
        assert_eq!(e.urgency(McCycle::new(0)), RefreshUrgency::NotDue);
        assert_eq!(
            e.urgency(McCycle::new(due.raw() - 200)),
            RefreshUrgency::NotDue
        );
        assert_eq!(
            e.urgency(McCycle::new(due.raw() - 128)),
            RefreshUrgency::Pending
        );
        assert_eq!(e.urgency(due), RefreshUrgency::Overdue);
    }

    #[test]
    fn pending_from_is_the_exact_not_due_boundary() {
        let mut e = engine();
        let p = e.pending_from();
        assert_eq!(e.urgency(McCycle::new(p.raw() - 1)), RefreshUrgency::NotDue);
        assert_ne!(e.urgency(p), RefreshUrgency::NotDue);
        // Holds after batches complete, too.
        e.complete_batch(e.next_due());
        let p = e.pending_from();
        assert_eq!(e.urgency(McCycle::new(p.raw() - 1)), RefreshUrgency::NotDue);
        assert_ne!(e.urgency(p), RefreshUrgency::NotDue);
    }

    #[test]
    fn postpone_budget_defers_the_overdue_deadline() {
        let mut e = engine();
        e.set_postpone_budget(2);
        let due = e.next_due().raw();
        assert_eq!(e.urgency(McCycle::new(due)), RefreshUrgency::Postponable);
        assert_eq!(
            e.urgency(McCycle::new(due + 2 * 50_000 - 1)),
            RefreshUrgency::Postponable
        );
        assert_eq!(
            e.urgency(McCycle::new(due + 2 * 50_000)),
            RefreshUrgency::Overdue
        );
        // Late completion is counted.
        assert_eq!(e.postponed_batches(), 0);
        e.complete_batch(McCycle::new(due + 60_000));
        assert_eq!(e.postponed_batches(), 1);
        e.complete_batch(McCycle::new(e.next_due().raw()));
        assert_eq!(e.postponed_batches(), 1, "on-time batches are not late");
    }

    #[test]
    fn next_transition_brackets_every_urgency_change() {
        let mut e = engine();
        e.set_postpone_budget(2);
        // Walk the whole first schedule period: urgency must be constant
        // between consecutive reported transitions.
        let mut now = McCycle::new(0);
        let mut seen = vec![e.urgency(now)];
        while let Some(next) = e.next_transition_after(now) {
            assert_eq!(
                e.urgency(McCycle::new(next.raw() - 1)),
                *seen.last().unwrap(),
                "urgency changed before the reported transition"
            );
            let u = e.urgency(next);
            assert_ne!(
                u,
                *seen.last().unwrap(),
                "transition at {next:?} was a no-op"
            );
            seen.push(u);
            now = next;
        }
        use RefreshUrgency::*;
        assert_eq!(seen, vec![NotDue, Pending, Postponable, Overdue]);
    }

    #[test]
    fn batches_advance_and_wrap() {
        let mut e = engine();
        for k in 0..1024 {
            let lrra = e.lrra().as_u64();
            let batch = e.complete_batch(McCycle::new((k + 1) * 8 * 6250));
            assert_eq!(batch, k as usize);
            // The batch is the 8 rows after the previous LRRA.
            assert_eq!(batch, e.batch_of(Row::new(((lrra + 1) % 8192) as u32)));
            assert_eq!(e.lrra().as_u64(), (lrra + 8) % 8192);
        }
        // One full retention window refreshes every row exactly once.
        assert_eq!(e.lrra(), Row::new(8191));
        assert_eq!(e.batches_done(), 1024);
        assert_eq!(e.next_due(), McCycle::new(1025 * 8 * 6250));
    }

    #[test]
    fn distance_semantics() {
        let mut e = engine();
        assert_eq!(e.distance(Row::new(8191)), 0);
        assert_eq!(e.distance(Row::new(0)), 8191);
        e.complete_batch(McCycle::new(50_000)); // rows 0..8 refreshed, lrra = 7
        assert_eq!(e.distance(Row::new(7)), 0);
        assert_eq!(e.distance(Row::new(0)), 7);
        assert_eq!(e.distance(Row::new(8)), 8191);
    }

    #[test]
    fn initial_restore_is_consistent_with_first_deadlines() {
        let e = engine();
        // Row 0 was last refreshed one retention window before its first
        // in-simulation refresh at the first batch due time.
        let r0 = e.initial_restore_cycle(Row::new(0));
        assert_eq!(r0 + e.retention as i64, e.next_due().raw() as i64);
        // The most recently refreshed row (8191) was covered by the last
        // batch of the previous period, completing exactly at t = 0.
        let r8191 = e.initial_restore_cycle(Row::new(8191));
        assert_eq!(r8191, 0);
        // Batch quantization: rows 8184..8191 share that restore time.
        assert_eq!(e.initial_restore_cycle(Row::new(8184)), 0);
        assert_eq!(e.initial_restore_cycle(Row::new(8183)), -(8 * 6250));
    }

    #[test]
    #[should_panic(expected = "multiple of the refresh batch size")]
    fn rejects_unaligned_row_count() {
        RefreshEngine::new(8190, &DramTimings::default());
    }

    proptest! {
        #[test]
        fn initial_restore_keeps_every_row_in_spec(row in 0u32..8192) {
            let e = engine();
            let restore = e.initial_restore_cycle(Row::new(row));
            // At t = 0 no row may already be beyond its retention window.
            prop_assert!(-restore <= e.retention as i64);
            // And every row's next refresh (steady schedule) arrives
            // within one retention window of its last one.
            let batch = row as i64 / 8;
            let due = (batch + 1) * e.batch_interval as i64;
            prop_assert!(due - restore <= e.retention as i64 + e.batch_interval as i64);
        }

        #[test]
        fn distance_is_inverse_of_refresh_order(adv in 0u64..4096, row in 0u32..8192) {
            let mut e = engine();
            for _ in 0..adv {
                e.complete_batch(McCycle::new(0));
            }
            let d = e.distance(Row::new(row));
            prop_assert!(d < 8192);
            // A row at distance 0..8 was refreshed within the last batch.
            if d < 8 {
                let lrra = e.lrra().as_u64();
                let delta = (lrra + 8192 - row as u64) % 8192;
                prop_assert!(delta < 8);
            }
        }
    }
}
