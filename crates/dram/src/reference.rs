//! Reference timing checker: a deliberately naive re-implementation of
//! the DDR3 rule set, used as a differential-test oracle for the fast
//! incremental checker in [`crate::device`] and to replay command logs
//! ([`crate::CommandLog::replay_validate`]).
//!
//! Where the device keeps monotone "earliest legal cycle" registers,
//! this checker keeps the recent command history and re-derives every
//! constraint from first principles on each query by scanning it. Its
//! rules are written directly from the JEDEC-style constraint table, so
//! agreement between the two implementations is strong evidence both
//! are right.
//!
//! Every timing rule asks whether some recorded command is younger than
//! a gap, and no gap exceeds the *span*: the longest of the fixed gaps
//! (tRRD, tFAW, tRP, tCCD, RD→WR, WR→RD, tRTP + tRP, WR→PRE + tRP and
//! tRFC) and, for every recorded ACT, its promised tRC, tRCD and
//! tRAS + tRP (the last also bounds an auto-precharge's implied PRE).
//! So the checker keeps only the events younger than the span, plus the
//! two facts per (rank, bank) that a rule reads further back: the open
//! row, and the latest ACT's cycle and promised tRAS. A check costs
//! O(window), a log replay is linear in the log's length, and the state
//! held is bounded by the span and the geometry, not by the history.
//! Queries are answered at the latest recorded cycle or later.
//!
//! The reference checker covers the protocol rules only (state and
//! timing); the charge-physics validation has its own oracle in
//! `nuat-circuit` and is tested separately.

use crate::command::DramCommand;
use nuat_types::{Bank, DramTimings, McCycle, Rank, Row};
use std::collections::VecDeque;

/// One accepted command with its issue time.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at: McCycle,
    cmd: DramCommand,
    /// For auto-precharging columns: when the implied PRE happens.
    implied_pre: Option<McCycle>,
}

/// What the rules read about one bank beyond the window.
#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    /// The open row. An auto-precharging column commits the bank to
    /// close: no further column/PRE commands are legal from the moment
    /// it issues (JEDEC semantics), even though the precharge itself
    /// happens later.
    open: Option<Row>,
    /// `(issue_time, promised tRAS)` of the bank's latest ACT.
    last_act: Option<(McCycle, u64)>,
}

/// Windowed DDR3 protocol checker. See the module docs.
///
/// # Examples
///
/// ```
/// use nuat_dram::{DramCommand, ReferenceChecker};
/// use nuat_types::{Bank, DramTimings, McCycle, Rank, Row};
///
/// let t = DramTimings::default();
/// let mut checker = ReferenceChecker::new(t, 8);
/// let act = DramCommand::activate_worst_case(Rank::new(0), Bank::new(0), Row::new(5), &t);
/// assert!(checker.is_legal(&act, McCycle::new(0)));
/// checker.record(act, McCycle::new(0));
/// assert!(!checker.is_legal(&act, McCycle::new(10))); // bank already open
/// ```
#[derive(Debug, Clone)]
pub struct ReferenceChecker {
    t: DramTimings,
    banks_per_rank: u32,
    /// The recorded events younger than `span`, oldest first.
    window: VecDeque<Event>,
    /// The longest gap a rule measures back from a recorded event (see
    /// the module docs). An ACT that promises longer timings widens it.
    span: u64,
    /// Per (rank, bank), indexed `rank * banks_per_rank + bank`; grows
    /// to the highest rank recorded.
    banks: Vec<BankState>,
    /// Issue cycle of the latest recorded command.
    latest: McCycle,
}

impl ReferenceChecker {
    /// Creates a checker for one rank-set with the given timing set.
    pub fn new(t: DramTimings, banks_per_rank: u32) -> Self {
        let span = [
            t.trrd,
            t.tfaw,
            t.trp,
            t.tccd,
            t.read_to_write(),
            t.write_to_read(),
            t.trtp + t.trp,
            t.write_to_precharge() + t.trp,
            t.trfc,
        ]
        .into_iter()
        .fold(0, u64::max);
        ReferenceChecker {
            t,
            banks_per_rank,
            window: VecDeque::new(),
            span,
            banks: Vec::new(),
            latest: McCycle::ZERO,
        }
    }

    /// The open row of `bank`, if any, at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the latest recorded command.
    pub fn open_row(&self, rank: Rank, bank: Bank, now: McCycle) -> Option<Row> {
        self.assert_not_before_latest(now);
        self.bank(rank, bank).open
    }

    /// Whether `cmd` is legal at `now` under the recorded history.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the latest recorded command.
    pub fn is_legal(&self, cmd: &DramCommand, now: McCycle) -> bool {
        self.assert_not_before_latest(now);
        let t = &self.t;
        let rank = cmd.rank();
        if cmd.bank().is_some_and(|b| b.raw() >= self.banks_per_rank) {
            return false;
        }
        // The window's events for this rank.
        let events = || self.window.iter().filter(move |e| e.cmd.rank() == rank);

        match *cmd {
            DramCommand::Activate { bank, timings, .. } => {
                if timings.trc != timings.tras + t.trp {
                    return false;
                }
                if self.open_row(rank, bank, now).is_some() {
                    return false;
                }
                // tRP after the bank's last (explicit or implied) PRE.
                for e in events() {
                    match e.cmd {
                        DramCommand::Precharge { bank: b, .. }
                            if b == bank && now.raw() < e.at.raw() + t.trp =>
                        {
                            return false;
                        }
                        DramCommand::Read { bank: b, .. } | DramCommand::Write { bank: b, .. }
                            if b == bank =>
                        {
                            if let Some(pre) = e.implied_pre {
                                if now.raw() < pre.raw() + t.trp {
                                    return false;
                                }
                            }
                        }
                        // tRC after the bank's last ACT (its promised tRC).
                        DramCommand::Activate {
                            bank: b,
                            timings: prev,
                            ..
                        } if b == bank && now.raw() < e.at.raw() + prev.trc => {
                            return false;
                        }
                        // tRFC after a refresh.
                        DramCommand::Refresh { .. } if now.raw() < e.at.raw() + t.trfc => {
                            return false;
                        }
                        _ => {}
                    }
                }
                // tRRD after any ACT in the rank.
                if events().any(|e| {
                    matches!(e.cmd, DramCommand::Activate { .. }) && now.raw() < e.at.raw() + t.trrd
                }) {
                    return false;
                }
                // tFAW: at most 4 ACTs in any tFAW window.
                let recent_acts = events()
                    .filter(|e| {
                        matches!(e.cmd, DramCommand::Activate { .. })
                            && e.at.raw() + t.tfaw > now.raw()
                    })
                    .count();
                recent_acts < 4
            }

            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                let is_read = matches!(cmd, DramCommand::Read { .. });
                if self.open_row(rank, bank, now).is_none() {
                    return false;
                }
                for e in events() {
                    match e.cmd {
                        DramCommand::Activate {
                            bank: b, timings, ..
                        } if b == bank
                            // tRCD (the ACT's promised value).
                            && now.raw() < e.at.raw() + timings.trcd =>
                        {
                            return false;
                        }
                        DramCommand::Read { .. } => {
                            if is_read {
                                if now.raw() < e.at.raw() + t.tccd {
                                    return false;
                                }
                            } else if now.raw() < e.at.raw() + t.read_to_write() {
                                return false;
                            }
                        }
                        DramCommand::Write { .. } => {
                            if is_read {
                                if now.raw() < e.at.raw() + t.write_to_read() {
                                    return false;
                                }
                            } else if now.raw() < e.at.raw() + t.tccd {
                                return false;
                            }
                        }
                        _ => {}
                    }
                }
                true
            }

            DramCommand::Precharge { bank, .. } => {
                if self.open_row(rank, bank, now).is_none() {
                    return false;
                }
                for e in events() {
                    match e.cmd {
                        DramCommand::Activate {
                            bank: b, timings, ..
                        } if b == bank && now.raw() < e.at.raw() + timings.tras => {
                            return false;
                        }
                        DramCommand::Read { bank: b, .. }
                            if b == bank && now.raw() < e.at.raw() + t.trtp =>
                        {
                            return false;
                        }
                        DramCommand::Write { bank: b, .. }
                            if b == bank && now.raw() < e.at.raw() + t.write_to_precharge() =>
                        {
                            return false;
                        }
                        _ => {}
                    }
                }
                true
            }

            DramCommand::Refresh { .. } => {
                for b in 0..self.banks_per_rank {
                    if self.open_row(rank, Bank::new(b), now).is_some() {
                        return false;
                    }
                }
                for e in events() {
                    let gate = match e.cmd {
                        DramCommand::Precharge { .. } => e.at.raw() + t.trp,
                        DramCommand::Activate { timings, .. } => e.at.raw() + timings.trc,
                        DramCommand::Refresh { .. } => e.at.raw() + t.trfc,
                        DramCommand::Read { .. } | DramCommand::Write { .. } => {
                            match e.implied_pre {
                                Some(pre) => pre.raw() + t.trp,
                                None => 0,
                            }
                        }
                    };
                    if now.raw() < gate {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// Records `cmd` as issued at `now`, then drops the events that no
    /// command at `now` or later can be checked against.
    ///
    /// # Panics
    ///
    /// Panics if events are recorded out of order, if `cmd` addresses a
    /// bank beyond `banks_per_rank`, or if an auto-precharging column
    /// addresses a bank never activated.
    pub fn record(&mut self, cmd: DramCommand, now: McCycle) {
        assert!(self.latest <= now, "history must be recorded in order");
        if let Some(bank) = cmd.bank() {
            assert!(
                bank.raw() < self.banks_per_rank,
                "bank {bank} out of range ({} per rank)",
                self.banks_per_rank
            );
        }
        let mut implied_pre = None;
        match cmd {
            DramCommand::Activate {
                rank,
                bank,
                row,
                timings,
            } => {
                *self.bank_mut(rank, bank) = BankState {
                    open: Some(row),
                    last_act: Some((now, timings.tras)),
                };
                self.span = self
                    .span
                    .max(timings.trc)
                    .max(timings.trcd)
                    .max(timings.tras + self.t.trp);
            }
            DramCommand::Precharge { rank, bank } => self.bank_mut(rank, bank).open = None,
            DramCommand::Read {
                rank,
                bank,
                auto_precharge: true,
                ..
            }
            | DramCommand::Write {
                rank,
                bank,
                auto_precharge: true,
                ..
            } => {
                let (act_at, tras) = self.bank(rank, bank).last_act.expect("column to open bank");
                let to_pre = match cmd {
                    DramCommand::Read { .. } => self.t.trtp,
                    _ => self.t.write_to_precharge(),
                };
                implied_pre = Some((act_at + tras).max(now + to_pre));
                self.bank_mut(rank, bank).open = None;
            }
            DramCommand::Refresh { rank } => {
                for b in 0..self.banks_per_rank {
                    self.bank_mut(rank, Bank::new(b)).open = None;
                }
            }
            DramCommand::Read { .. } | DramCommand::Write { .. } => {}
        }
        self.window.push_back(Event {
            at: now,
            cmd,
            implied_pre,
        });
        self.latest = now;
        while self
            .window
            .front()
            .is_some_and(|e| e.at.raw() + self.span <= now.raw())
        {
            self.window.pop_front();
        }
    }

    /// The window holds what commands from the latest record on are
    /// checked against, so earlier queries cannot be answered.
    fn assert_not_before_latest(&self, now: McCycle) {
        assert!(
            now >= self.latest,
            "query at {now} precedes the latest recorded command at {}",
            self.latest
        );
    }

    /// Index of `(rank, bank)` in `banks`.
    fn slot(&self, rank: Rank, bank: Bank) -> usize {
        rank.index() * self.banks_per_rank as usize + bank.index()
    }

    fn bank(&self, rank: Rank, bank: Bank) -> BankState {
        self.banks
            .get(self.slot(rank, bank))
            .copied()
            .unwrap_or_default()
    }

    fn bank_mut(&mut self, rank: Rank, bank: Bank) -> &mut BankState {
        let i = self.slot(rank, bank);
        if i >= self.banks.len() {
            let len = (rank.index() + 1) * self.banks_per_rank as usize;
            self.banks.resize(len, BankState::default());
        }
        &mut self.banks[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::{Col, RowTimings};

    fn checker() -> ReferenceChecker {
        ReferenceChecker::new(DramTimings::default(), 8)
    }

    fn act(bank: u32, row: u32) -> DramCommand {
        DramCommand::activate_worst_case(
            Rank::new(0),
            Bank::new(bank),
            Row::new(row),
            &DramTimings::default(),
        )
    }

    fn read(bank: u32, auto: bool) -> DramCommand {
        DramCommand::Read {
            rank: Rank::new(0),
            bank: Bank::new(bank),
            col: Col::new(0),
            auto_precharge: auto,
        }
    }

    fn pre(bank: u32) -> DramCommand {
        DramCommand::Precharge {
            rank: Rank::new(0),
            bank: Bank::new(bank),
        }
    }

    fn write(bank: u32, auto: bool) -> DramCommand {
        DramCommand::Write {
            rank: Rank::new(0),
            bank: Bank::new(bank),
            col: Col::new(0),
            auto_precharge: auto,
        }
    }

    /// An ACT to rank 0 promising `tRCD`/`tRAS` (tRC = tRAS + tRP).
    fn act_promising(bank: u32, trcd: u64, tras: u64) -> DramCommand {
        DramCommand::Activate {
            rank: Rank::new(0),
            bank: Bank::new(bank),
            row: Row::new(1),
            timings: RowTimings::new(trcd, tras, DramTimings::default().trp),
        }
    }

    fn refresh(rank: u32) -> DramCommand {
        DramCommand::Refresh {
            rank: Rank::new(rank),
        }
    }

    /// `cmd` is refused one cycle before `from` and accepted at `from`.
    fn assert_gate(c: &ReferenceChecker, cmd: DramCommand, from: u64, rule: &str) {
        assert!(
            !c.is_legal(&cmd, McCycle::new(from - 1)),
            "{rule}: {cmd} accepted at {}",
            from - 1
        );
        assert!(
            c.is_legal(&cmd, McCycle::new(from)),
            "{rule}: {cmd} refused at {from}"
        );
    }

    #[test]
    fn basic_act_read_pre_cycle() {
        let mut c = checker();
        let t0 = McCycle::new(100);
        assert!(c.is_legal(&act(0, 5), t0));
        c.record(act(0, 5), t0);
        assert!(!c.is_legal(&read(0, false), t0 + 11), "tRCD");
        assert!(c.is_legal(&read(0, false), t0 + 12));
        c.record(read(0, false), t0 + 12);
        assert!(!c.is_legal(&pre(0), t0 + 29), "tRAS");
        assert!(c.is_legal(&pre(0), t0 + 30));
    }

    #[test]
    fn open_row_tracking_with_auto_precharge() {
        let mut c = checker();
        let t0 = McCycle::new(0);
        c.record(act(0, 5), t0);
        assert_eq!(
            c.open_row(Rank::new(0), Bank::new(0), t0 + 5),
            Some(Row::new(5))
        );
        c.record(read(0, true), t0 + 12);
        // The auto-precharge commits the bank to close immediately for
        // command purposes; the physical precharge happens at
        // max(tRAS, rd + tRTP) = cycle 30 and gates the next ACT.
        assert_eq!(c.open_row(Rank::new(0), Bank::new(0), t0 + 13), None);
        // Next ACT legal at 30 + tRP = 42.
        assert!(!c.is_legal(&act(0, 7), t0 + 41));
        assert!(c.is_legal(&act(0, 7), t0 + 42));
    }

    #[test]
    fn refresh_needs_all_banks_idle() {
        let mut c = checker();
        c.record(act(3, 1), McCycle::new(0));
        let refresh = DramCommand::Refresh { rank: Rank::new(0) };
        assert!(!c.is_legal(&refresh, McCycle::new(100)));
        c.record(pre(3), McCycle::new(100));
        assert!(!c.is_legal(&refresh, McCycle::new(111)), "tRP");
        assert!(c.is_legal(&refresh, McCycle::new(112)));
    }

    /// The window keeps what a later command can be checked against and
    /// no more: tRFC (128 cycles) is the longest Table 3 gap, and an ACT
    /// promising a longer tRCD widens the window to it.
    #[test]
    fn window_spans_the_longest_gap() {
        let mut c = checker();
        let refresh = DramCommand::Refresh { rank: Rank::new(0) };
        c.record(refresh, McCycle::new(1_000));
        // A second rank keeps recording while rank 0 waits out tRFC.
        let other = DramCommand::activate_worst_case(
            Rank::new(1),
            Bank::new(0),
            Row::new(0),
            &DramTimings::default(),
        );
        c.record(other, McCycle::new(1_127));
        assert_eq!(c.window.len(), 2);
        assert!(!c.is_legal(&act(0, 1), McCycle::new(1_127)), "tRFC");
        assert!(c.is_legal(&act(0, 1), McCycle::new(1_128)));

        let slow = DramCommand::Activate {
            rank: Rank::new(0),
            bank: Bank::new(2),
            row: Row::new(9),
            timings: RowTimings::new(200, 210, 12),
        };
        c.record(slow, McCycle::new(1_128));
        assert_eq!(c.span, 222);
        c.record(act(3, 1), McCycle::new(1_327));
        assert!(!c.is_legal(&read(2, false), McCycle::new(1_327)), "tRCD");
        assert!(c.is_legal(&read(2, false), McCycle::new(1_328)));
        // The REF and rank 1's ACT are older than the span now.
        c.record(act(4, 1), McCycle::new(1_349));
        assert_eq!(c.window.len(), 3);
    }

    #[test]
    #[should_panic(expected = "precedes the latest recorded command")]
    fn queries_before_the_latest_record_are_refused() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(100));
        c.is_legal(&act(1, 5), McCycle::new(99));
    }

    // One test per rule below. Each pins the rule's edge with the
    // Table 3 defaults: tRCD 12, tRP 12, tRAS 30, tRRD 5, tFAW 24,
    // tCCD 4, tRTP 6, RD->WR 9, WR->RD 18, WR->PRE 24, tRFC 128.

    #[test]
    fn act_waits_trp_after_an_explicit_precharge() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(pre(0), McCycle::new(50));
        assert_gate(&c, act(0, 6), 62, "tRP");
    }

    /// NUAT's promise: an ACT to a recently restored row commits to a
    /// shorter tRCD, and a slower promise holds the column back longer.
    #[test]
    fn read_waits_the_promised_trcd() {
        let mut c = checker();
        c.record(act_promising(0, 8, 20), McCycle::new(0));
        c.record(act_promising(1, 20, 40), McCycle::new(5));
        assert_gate(&c, read(0, false), 8, "fast tRCD");
        assert_gate(&c, read(1, false), 25, "slow tRCD");
    }

    #[test]
    fn precharge_waits_the_promised_tras() {
        let mut c = checker();
        c.record(act_promising(0, 8, 20), McCycle::new(0));
        c.record(act(1, 5), McCycle::new(5));
        assert_gate(&c, pre(0), 20, "fast tRAS");
        assert_gate(&c, pre(1), 35, "worst-case tRAS");
    }

    #[test]
    fn a_shortened_row_cycle_reopens_the_bank_early() {
        let mut c = checker();
        c.record(act_promising(0, 8, 20), McCycle::new(0));
        c.record(pre(0), McCycle::new(20));
        // tRC 32, against the data sheet's 42.
        assert_gate(&c, act(0, 6), 32, "promised tRC");
    }

    #[test]
    fn act_with_an_inconsistent_trc_is_refused() {
        let c = checker();
        for trc in [41, 43] {
            let bad = DramCommand::Activate {
                rank: Rank::new(0),
                bank: Bank::new(0),
                row: Row::new(1),
                timings: RowTimings {
                    trcd: 12,
                    tras: 30,
                    trc,
                },
            };
            assert!(!c.is_legal(&bad, McCycle::new(1_000)), "tRC {trc}");
        }
    }

    #[test]
    fn act_waits_trrd_after_another_bank() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        assert_gate(&c, act(1, 5), 5, "tRRD");
    }

    #[test]
    fn fifth_act_waits_tfaw() {
        let mut c = checker();
        for b in 0..4 {
            c.record(act(b, 5), McCycle::new(5 * u64::from(b)));
        }
        // tRRD alone would allow cycle 20.
        assert_gate(&c, act(4, 5), 24, "tFAW");
    }

    #[test]
    fn read_autoprecharge_closes_at_trtp_once_tras_has_passed() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(read(0, true), McCycle::new(40));
        // The implied PRE is at max(0 + tRAS, 40 + tRTP) = 46.
        assert_gate(&c, act(0, 6), 58, "tRTP + tRP");
    }

    #[test]
    fn write_autoprecharge_closes_after_write_recovery() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(write(0, true), McCycle::new(12));
        assert_eq!(
            c.open_row(Rank::new(0), Bank::new(0), McCycle::new(12)),
            None
        );
        // The implied PRE is at max(0 + tRAS, 12 + WR->PRE) = 36.
        assert_gate(&c, act(0, 6), 48, "WR->PRE + tRP");
    }

    #[test]
    fn refresh_waits_out_an_implied_precharge() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(write(0, true), McCycle::new(12));
        // Past the ACT's tRC (42), the implied PRE at 36 still gates.
        assert_gate(&c, refresh(0), 48, "implied PRE + tRP");
    }

    #[test]
    fn reads_are_spaced_by_tccd() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(act(1, 5), McCycle::new(5));
        c.record(read(0, false), McCycle::new(17));
        assert_gate(&c, read(1, false), 21, "tCCD");
    }

    #[test]
    fn writes_are_spaced_by_tccd() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(write(0, false), McCycle::new(12));
        assert_gate(&c, write(0, false), 16, "tCCD");
    }

    #[test]
    fn read_to_write_turnaround() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(read(0, false), McCycle::new(12));
        assert_gate(&c, write(0, false), 21, "RD->WR");
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(write(0, false), McCycle::new(12));
        assert_gate(&c, read(0, false), 30, "WR->RD");
    }

    #[test]
    fn read_waits_trcd_of_its_own_bank_only() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(act(1, 5), McCycle::new(5));
        assert_gate(&c, read(0, false), 12, "bank 0 tRCD");
        assert_gate(&c, read(1, false), 17, "bank 1 tRCD");
    }

    #[test]
    fn column_commands_need_an_open_bank() {
        let mut c = checker();
        assert!(!c.is_legal(&read(0, false), McCycle::new(0)));
        assert!(!c.is_legal(&write(0, false), McCycle::new(0)));
        c.record(act(0, 5), McCycle::new(0));
        c.record(pre(0), McCycle::new(30));
        assert!(!c.is_legal(&read(0, false), McCycle::new(500)));
        c.record(act(0, 5), McCycle::new(500));
        c.record(read(0, true), McCycle::new(512));
        assert!(!c.is_legal(&write(0, false), McCycle::new(600)));
    }

    #[test]
    fn precharge_waits_trtp_after_a_read() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(read(0, false), McCycle::new(40));
        assert_gate(&c, pre(0), 46, "tRTP");
    }

    #[test]
    fn precharge_waits_write_recovery() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(write(0, false), McCycle::new(12));
        assert_gate(&c, pre(0), 36, "WR->PRE");
    }

    #[test]
    fn precharge_gates_are_per_bank() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(act(1, 5), McCycle::new(5));
        c.record(write(0, false), McCycle::new(12));
        // Bank 0's write recovery (36) does not hold bank 1 past its tRAS.
        assert_gate(&c, pre(1), 35, "bank 1 tRAS");
        assert_gate(&c, pre(0), 36, "bank 0 WR->PRE");
    }

    #[test]
    fn precharge_needs_an_open_bank() {
        let mut c = checker();
        assert!(!c.is_legal(&pre(0), McCycle::new(0)));
        c.record(act(0, 5), McCycle::new(0));
        c.record(pre(0), McCycle::new(30));
        assert!(!c.is_legal(&pre(0), McCycle::new(500)));
    }

    #[test]
    fn refresh_waits_trfc_after_refresh() {
        let mut c = checker();
        c.record(refresh(0), McCycle::new(0));
        assert_gate(&c, refresh(0), 128, "tRFC");
    }

    /// Every rule reads its own rank's history: rank 0's open banks,
    /// full tFAW window and pending tRRD leave rank 1 free.
    #[test]
    fn ranks_keep_their_own_gates() {
        let mut c = checker();
        for b in 0..4 {
            c.record(act(b, 5), McCycle::new(5 * u64::from(b)));
        }
        let now = McCycle::new(15);
        let other = DramCommand::activate_worst_case(
            Rank::new(1),
            Bank::new(0),
            Row::new(5),
            &DramTimings::default(),
        );
        assert!(!c.is_legal(&act(4, 5), now));
        assert!(c.is_legal(&other, now));
        assert!(c.is_legal(&refresh(1), now));
        assert_eq!(c.open_row(Rank::new(1), Bank::new(0), now), None);
        assert_eq!(
            c.open_row(Rank::new(0), Bank::new(0), now),
            Some(Row::new(5))
        );
    }

    #[test]
    fn banks_beyond_the_geometry_are_illegal() {
        let t = DramTimings::default();
        assert!(!checker().is_legal(&act(8, 0), McCycle::new(0)));
        assert!(ReferenceChecker::new(t, 16).is_legal(&act(8, 0), McCycle::new(0)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recording_a_bank_beyond_the_geometry_panics() {
        checker().record(act(8, 0), McCycle::new(0));
    }

    #[test]
    #[should_panic(expected = "recorded in order")]
    fn recording_out_of_order_panics() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(100));
        c.record(act(1, 5), McCycle::new(99));
    }

    #[test]
    #[should_panic(expected = "column to open bank")]
    fn autoprecharge_to_a_bank_never_opened_panics() {
        checker().record(read(0, true), McCycle::new(0));
    }

    /// An event is dropped exactly when it has aged one full span: one
    /// cycle earlier a command can still violate its gap.
    #[test]
    fn window_drops_an_event_exactly_one_span_later() {
        let mut c = checker();
        c.record(refresh(0), McCycle::new(0));
        // Other ranks keep recording while rank 0 waits out tRFC.
        let elsewhere = |rank| {
            DramCommand::activate_worst_case(
                Rank::new(rank),
                Bank::new(0),
                Row::new(0),
                &DramTimings::default(),
            )
        };
        c.record(elsewhere(1), McCycle::new(127));
        assert_eq!(c.window.len(), 2);
        assert!(!c.is_legal(&act(0, 1), McCycle::new(127)), "tRFC");
        c.record(elsewhere(2), McCycle::new(128));
        assert_eq!(c.window.len(), 2, "the REF is one span old");
        assert!(c.is_legal(&act(0, 1), McCycle::new(128)));
    }

    /// A promise longer than every fixed gap widens the window, so its
    /// ACT and an auto-precharge's implied PRE stay checked while another
    /// rank's traffic ages them past tRFC.
    #[test]
    fn slow_promises_stay_in_the_window() {
        let mut c = checker();
        c.record(act_promising(0, 12, 200), McCycle::new(0));
        c.record(act_promising(1, 12, 200), McCycle::new(5));
        // The implied PRE is at max(5 + 200, 17 + tRTP) = 205.
        c.record(read(1, true), McCycle::new(17));
        let elsewhere = DramCommand::activate_worst_case(
            Rank::new(1),
            Bank::new(0),
            Row::new(0),
            &DramTimings::default(),
        );
        c.record(elsewhere, McCycle::new(150));
        assert_gate(&c, pre(0), 200, "slow tRAS");
        assert_gate(&c, act(1, 6), 217, "slow implied PRE + tRP");
    }

    /// The open row and the latest ACT outlive the window: a bank left
    /// open for many spans still takes columns and PREs, refuses an ACT,
    /// and its auto-precharge still closes it.
    #[test]
    fn bank_state_outlives_the_window() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(read(0, false), McCycle::new(12));
        c.record(act(1, 5), McCycle::new(10_000));
        assert_eq!(c.window.len(), 1);
        let now = McCycle::new(10_000);
        assert_eq!(
            c.open_row(Rank::new(0), Bank::new(0), now),
            Some(Row::new(5))
        );
        assert!(!c.is_legal(&act(0, 6), now));
        assert!(c.is_legal(&pre(0), now));
        c.record(read(0, true), McCycle::new(10_001));
        // The implied PRE is at 10,001 + tRTP = 10,007.
        assert_gate(&c, act(0, 6), 10_019, "tRTP + tRP");
    }

    /// Several commands issue in one cycle, so a query at the latest
    /// recorded cycle is answered, against every command of that cycle.
    #[test]
    fn several_commands_issue_in_one_cycle() {
        let mut c = checker();
        c.record(act(0, 5), McCycle::new(0));
        c.record(act(1, 5), McCycle::new(5));
        let now = McCycle::new(50);
        c.record(pre(0), now);
        assert!(c.is_legal(&pre(1), now));
        c.record(pre(1), now);
        assert!(c.is_legal(&act(2, 5), now));
        c.record(act(2, 5), now);
        assert!(!c.is_legal(&act(3, 5), now), "tRRD from the same cycle");
        assert!(!c.is_legal(&read(0, false), now));
    }
}
