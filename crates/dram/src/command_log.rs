//! Bounded command logging with replay validation.
//!
//! When enabled on a [`crate::DramDevice`], every accepted command is
//! recorded into a ring buffer. The log can be dumped for debugging or
//! *replayed* through the naive [`crate::ReferenceChecker`] to confirm
//! after the fact that the traffic obeyed the protocol — the offline
//! counterpart of the differential property tests. The checker keeps
//! only a window of recent commands, so a replay takes time linear in
//! the log's length and holds a fixed amount of state beside the log:
//! the log of a whole run validates, not only a prefix.

use crate::command::DramCommand;
use crate::reference::ReferenceChecker;
use nuat_obs::{TraceEvent, TraceSink};
use nuat_types::{DramTimings, McCycle};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;
use std::io::Write;

/// One logged command.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LogEntry {
    /// Issue cycle.
    pub at: McCycle,
    /// The command.
    pub cmd: DramCommand,
}

impl LogEntry {
    /// The entry as a structured trace event (see
    /// [`DramCommand::to_event`]; the log does not retain PB groups).
    pub fn to_event(&self) -> TraceEvent {
        TraceEvent::Command(self.cmd.to_event(self.at, None))
    }
}

/// Ring buffer of accepted commands.
#[derive(Debug, Clone)]
pub struct CommandLog {
    capacity: usize,
    entries: VecDeque<LogEntry>,
    /// Total commands ever recorded (including evicted ones).
    recorded: u64,
}

impl CommandLog {
    /// Creates a log keeping the most recent `capacity` commands.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "log capacity must be nonzero");
        CommandLog {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            recorded: 0,
        }
    }

    /// Records a command, evicting the oldest if full.
    pub fn record(&mut self, cmd: DramCommand, at: McCycle) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(LogEntry { at, cmd });
        self.recorded += 1;
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter()
    }

    /// Total commands recorded over the log's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// True if older entries have been evicted.
    pub fn truncated(&self) -> bool {
        self.recorded > self.entries.len() as u64
    }

    /// Replays the retained window into a trace sink, oldest first —
    /// the same path live instrumentation uses, so one switch captures
    /// both live events and post-hoc log dumps.
    pub fn emit_into<S: TraceSink>(&self, sink: &mut S) {
        for e in &self.entries {
            sink.on_event(&e.to_event());
        }
    }

    /// Dumps the retained window as JSONL (one command object per
    /// line), the same line shape the live `JsonlSink` writes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `writer`.
    pub fn write_jsonl<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        for e in &self.entries {
            writeln!(writer, "{}", nuat_obs::jsonl::event_line(&e.to_event()))?;
        }
        Ok(())
    }

    /// Replays the retained entries through the reference protocol
    /// checker, in linear time and with bounded checker state.
    ///
    /// A truncated log starts mid-stream, so state-dependent rules
    /// cannot be re-derived exactly; replay is therefore only available
    /// for complete logs.
    ///
    /// # Errors
    ///
    /// Returns a description of the first illegal command, or of the
    /// truncation.
    pub fn replay_validate(
        &self,
        timings: &DramTimings,
        banks_per_rank: u32,
    ) -> Result<(), String> {
        if self.truncated() {
            return Err(format!(
                "log truncated ({} of {} commands retained); replay needs the full stream",
                self.entries.len(),
                self.recorded
            ));
        }
        let mut reference = ReferenceChecker::new(*timings, banks_per_rank);
        for e in &self.entries {
            if !reference.is_legal(&e.cmd, e.at) {
                return Err(format!(
                    "illegal command in log: {} at cycle {}",
                    e.cmd, e.at
                ));
            }
            reference.record(e.cmd, e.at);
        }
        Ok(())
    }
}

impl fmt::Display for CommandLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "command log: {} retained / {} recorded{}",
            self.entries.len(),
            self.recorded,
            if self.truncated() { " (truncated)" } else { "" }
        )?;
        for e in &self.entries {
            writeln!(f, "  @{:>10} {}", e.at, e.cmd)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::{Bank, Col, Rank, Row};

    fn act(row: u32) -> DramCommand {
        DramCommand::activate_worst_case(
            Rank::new(0),
            Bank::new(0),
            Row::new(row),
            &DramTimings::default(),
        )
    }

    fn read() -> DramCommand {
        DramCommand::Read {
            rank: Rank::new(0),
            bank: Bank::new(0),
            col: Col::new(0),
            auto_precharge: false,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut log = CommandLog::new(2);
        log.record(act(1), McCycle::new(0));
        log.record(read(), McCycle::new(12));
        log.record(act(2), McCycle::new(100));
        assert_eq!(log.recorded(), 3);
        assert!(log.truncated());
        let first = log.entries().next().unwrap();
        assert_eq!(first.at, McCycle::new(12));
    }

    #[test]
    fn replay_accepts_a_legal_stream() {
        let mut log = CommandLog::new(16);
        log.record(act(5), McCycle::new(100));
        log.record(read(), McCycle::new(112));
        assert_eq!(log.replay_validate(&DramTimings::default(), 8), Ok(()));
    }

    #[test]
    fn replay_rejects_a_trcd_violation() {
        let mut log = CommandLog::new(16);
        log.record(act(5), McCycle::new(100));
        log.record(read(), McCycle::new(105)); // tRCD is 12
        let err = log.replay_validate(&DramTimings::default(), 8).unwrap_err();
        assert!(err.contains("illegal command"), "{err}");
        assert!(err.contains("105"));
    }

    #[test]
    fn replay_reports_the_first_illegal_command() {
        let mut log = CommandLog::new(16);
        log.record(act(5), McCycle::new(100));
        // tRAS runs to 130; the ACT after it also breaks tRP.
        log.record(
            DramCommand::Precharge {
                rank: Rank::new(0),
                bank: Bank::new(0),
            },
            McCycle::new(110),
        );
        log.record(act(6), McCycle::new(111));
        let err = log.replay_validate(&DramTimings::default(), 8).unwrap_err();
        assert!(err.contains("PRE rk0 bk0 at cycle 110"), "{err}");
    }

    #[test]
    fn replay_rejects_a_refresh_with_a_bank_open() {
        let mut log = CommandLog::new(16);
        log.record(act(5), McCycle::new(0));
        log.record(
            DramCommand::Refresh { rank: Rank::new(0) },
            McCycle::new(500),
        );
        let err = log.replay_validate(&DramTimings::default(), 8).unwrap_err();
        assert!(err.contains("REF rk0 at cycle 500"), "{err}");
    }

    /// The checker indexes bank state by (rank, bank), so a command to
    /// a bank the geometry lacks fails the replay instead of panicking.
    #[test]
    fn replay_rejects_a_bank_beyond_the_geometry() {
        let t = DramTimings::default();
        let mut log = CommandLog::new(16);
        log.record(
            DramCommand::activate_worst_case(Rank::new(0), Bank::new(12), Row::new(1), &t),
            McCycle::new(0),
        );
        let err = log.replay_validate(&t, 8).unwrap_err();
        assert!(err.contains("bk12"), "{err}");
        assert_eq!(log.replay_validate(&t, 16), Ok(()));
    }

    /// A legal two-rank stream of `steps` 100-cycle steps, alternating
    /// ranks: ACT, RD at tRCD, WRA at RD->WR, and on every fifth step a
    /// REF at the implied PRE's tRP.
    fn long_stream(steps: u64) -> CommandLog {
        let t = DramTimings::default();
        let mut log = CommandLog::new(4 * steps as usize);
        for i in 0..steps {
            let base = McCycle::new(100 * i);
            let rank = Rank::new((i % 2) as u32);
            let bank = Bank::new((i % 8) as u32);
            let row = Row::new(i as u32);
            let col = Col::new(0);
            log.record(DramCommand::activate_worst_case(rank, bank, row, &t), base);
            log.record(
                DramCommand::Read {
                    rank,
                    bank,
                    col,
                    auto_precharge: false,
                },
                base + 12,
            );
            log.record(
                DramCommand::Write {
                    rank,
                    bank,
                    col,
                    auto_precharge: true,
                },
                base + 21,
            );
            if i % 5 == 4 {
                log.record(DramCommand::Refresh { rank }, base + 57);
            }
        }
        log
    }

    /// The stream lasts about 156 checker spans (tRFC, 128 cycles), so
    /// the window is pruned throughout; a read a cycle inside tRCD at its
    /// end is still caught.
    #[test]
    fn replay_accepts_a_stream_many_windows_long() {
        let t = DramTimings::default();
        let mut log = long_stream(200);
        assert_eq!(log.recorded(), 640);
        assert_eq!(log.replay_validate(&t, 8), Ok(()));
        log.record(act(7), McCycle::new(20_000));
        log.record(read(), McCycle::new(20_011));
        let err = log.replay_validate(&t, 8).unwrap_err();
        assert!(err.contains("at cycle 20011"), "{err}");
    }

    #[test]
    fn replay_refuses_truncated_logs() {
        let mut log = CommandLog::new(1);
        log.record(act(5), McCycle::new(100));
        log.record(read(), McCycle::new(112));
        let err = log.replay_validate(&DramTimings::default(), 8).unwrap_err();
        assert!(err.contains("truncated"));
    }

    #[test]
    fn emit_into_routes_entries_through_the_sink_path() {
        use nuat_obs::MemorySink;
        let mut log = CommandLog::new(16);
        log.record(act(5), McCycle::new(100));
        log.record(read(), McCycle::new(112));
        let mut sink = MemorySink::default();
        log.emit_into(&mut sink);
        assert_eq!(sink.events.len(), 2);
        assert_eq!(sink.events[0].at(), 100);
        let mut jsonl = Vec::new();
        log.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"cmd\":\"ACT\""));
        assert!(text.contains("\"at\":112"));
    }

    #[test]
    fn display_lists_entries() {
        let mut log = CommandLog::new(4);
        log.record(act(5), McCycle::new(100));
        let text = log.to_string();
        assert!(text.contains("1 retained"));
        assert!(text.contains("ACT"));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_rejected() {
        CommandLog::new(0);
    }
}
