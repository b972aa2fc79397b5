//! Chrome `trace_event` JSON exporter.
//!
//! Produces a file loadable in Perfetto (<https://ui.perfetto.dev>) or
//! Chrome's `about:tracing`. The memory system is laid out as one
//! process with one thread track per bank plus a track per rank (for
//! rank-scoped refresh and power events) and a controller track (for
//! quiet spans). Commands render as complete slices (`ph:"X"`) whose
//! duration is the command's occupancy-relevant timing; one simulated
//! memory cycle maps to one trace microsecond.

use std::io::Write;

use crate::epoch::EpochSample;
use crate::event::{CommandClass, CommandEvent, TraceEvent};
use crate::json::ObjBuilder;
use crate::metrics::{Counter, MetricsRecorder, TRACKED};
use crate::sink::TraceSink;

/// Geometry and fallback timings the exporter needs but the events do
/// not carry.
///
/// `ACT` slices use the event's charge-derived `trcd` when present;
/// `PRE` and `REF` events carry no timing, so their slice durations
/// come from here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceConfig {
    /// Ranks on the channel.
    pub ranks: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Row-precharge time, cycles (duration of `PRE` slices).
    pub trp: u64,
    /// Refresh-cycle time, cycles (duration of `REF` slices).
    pub trfc: u64,
    /// Data-burst length, cycles (duration of `RD`/`WR` slices).
    pub burst: u64,
}

/// Writes the Chrome `trace_event` JSON (`{"traceEvents":[...]}`).
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    writer: W,
    cfg: ChromeTraceConfig,
    first: bool,
}

const PID: u64 = 1;
/// Track id of the controller-level track (quiet spans).
const TID_CONTROLLER: u64 = 0;

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps `writer`, emitting the preamble and track-naming metadata
    /// immediately.
    pub fn new(writer: W, cfg: ChromeTraceConfig) -> Self {
        let mut sink = ChromeTraceSink {
            writer,
            cfg,
            first: true,
        };
        let _ = write!(sink.writer, "{{\"traceEvents\":[");
        sink.metadata("process_name", PID, TID_CONTROLLER, "NUAT channel");
        sink.metadata("thread_name", PID, TID_CONTROLLER, "controller");
        for rank in 0..cfg.ranks {
            sink.metadata(
                "thread_name",
                PID,
                sink.rank_tid(rank),
                &format!("rank {} (REF/power)", rank),
            );
            for bank in 0..cfg.banks_per_rank {
                sink.metadata(
                    "thread_name",
                    PID,
                    sink.bank_tid(rank, bank),
                    &format!("rank {} bank {}", rank, bank),
                );
            }
        }
        sink
    }

    /// Unwraps the underlying writer (call [`TraceSink::finish`] first,
    /// or the JSON is left unterminated).
    pub fn into_inner(self) -> W {
        self.writer
    }

    fn rank_tid(&self, rank: u32) -> u64 {
        1 + u64::from(rank)
    }

    fn bank_tid(&self, rank: u32, bank: u32) -> u64 {
        1 + u64::from(self.cfg.ranks)
            + u64::from(rank) * u64::from(self.cfg.banks_per_rank)
            + u64::from(bank)
    }

    fn emit(&mut self, json: &str) {
        if !self.first {
            let _ = write!(self.writer, ",");
        }
        self.first = false;
        let _ = write!(self.writer, "\n{}", json);
    }

    fn metadata(&mut self, name: &str, pid: u64, tid: u64, value: &str) {
        let mut b = ObjBuilder::new();
        b.str("name", name)
            .str("ph", "M")
            .u64("pid", pid)
            .u64("tid", tid)
            .raw("args", &{
                let mut a = ObjBuilder::new();
                a.str("name", value);
                a.finish()
            });
        let json = b.finish();
        self.emit(&json);
    }

    /// Emits a complete slice (`ph:"X"`).
    fn slice(&mut self, name: &str, tid: u64, ts: u64, dur: u64, args: Option<String>) {
        let mut b = ObjBuilder::new();
        b.str("name", name)
            .str("ph", "X")
            .u64("pid", PID)
            .u64("tid", tid)
            .u64("ts", ts)
            .u64("dur", dur.max(1));
        if let Some(a) = args {
            b.raw("args", &a);
        }
        let json = b.finish();
        self.emit(&json);
    }

    /// Emits a counter sample (`ph:"C"`).
    fn counter(&mut self, name: &str, ts: u64, series: &[(&str, u64)]) {
        let mut args = ObjBuilder::new();
        for &(k, v) in series {
            args.u64(k, v);
        }
        let args = args.finish();
        let mut b = ObjBuilder::new();
        b.str("name", name)
            .str("ph", "C")
            .u64("pid", PID)
            .u64("tid", TID_CONTROLLER)
            .u64("ts", ts)
            .raw("args", &args);
        let json = b.finish();
        self.emit(&json);
    }

    fn command(&mut self, e: &CommandEvent) {
        let (tid, dur) = match e.class {
            CommandClass::Refresh => (self.rank_tid(e.rank), self.cfg.trfc),
            CommandClass::Precharge => (self.bank_tid(e.rank, e.bank.unwrap_or(0)), self.cfg.trp),
            CommandClass::Activate => (
                self.bank_tid(e.rank, e.bank.unwrap_or(0)),
                e.trcd.unwrap_or(1),
            ),
            CommandClass::Read | CommandClass::Write => {
                (self.bank_tid(e.rank, e.bank.unwrap_or(0)), self.cfg.burst)
            }
        };
        let mut args = ObjBuilder::new();
        args.opt_u64("row", e.row.map(u64::from))
            .opt_u64("col", e.col.map(u64::from))
            .opt_u64("trcd", e.trcd)
            .opt_u64("tras", e.tras)
            .opt_u64("pb", e.pb.map(u64::from));
        if e.auto_precharge {
            args.bool("auto_precharge", true);
        }
        let name = if let Some(pb) = e.pb {
            format!("{} pb{}", e.class.mnemonic(), pb)
        } else {
            e.class.mnemonic().to_string()
        };
        self.slice(&name, tid, e.at, dur, Some(args.finish()));
    }
}

impl<W: Write + Send> TraceSink for ChromeTraceSink<W> {
    fn on_event(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::Command(ref e) => self.command(e),
            TraceEvent::QuietSpan { from, cycles, busy } => {
                let name = if busy { "busy skip" } else { "idle skip" };
                let mut args = ObjBuilder::new();
                args.u64("cycles", cycles);
                self.slice(name, TID_CONTROLLER, from, cycles, Some(args.finish()));
            }
            TraceEvent::PowerState {
                at,
                rank,
                powered_down,
            } => {
                let tid = self.rank_tid(rank);
                let name = if powered_down {
                    "power down"
                } else {
                    "power up"
                };
                let mut b = ObjBuilder::new();
                b.str("name", name)
                    .str("ph", "i")
                    .str("s", "t")
                    .u64("pid", PID)
                    .u64("tid", tid)
                    .u64("ts", at);
                let json = b.finish();
                self.emit(&json);
            }
            // Queue pressure is visible through the epoch counters;
            // per-request enqueue/complete instants would dominate the
            // file without adding visual information.
            TraceEvent::Enqueue { .. } | TraceEvent::ReadComplete { .. } => {}
        }
    }

    fn on_epoch(&mut self, s: &EpochSample) {
        self.counter(
            "queue occupancy",
            s.cycle,
            &[
                ("reads", u64::from(s.read_queue)),
                ("writes", u64::from(s.write_queue)),
            ],
        );
        self.counter(
            "active banks",
            s.cycle,
            &[("open", u64::from(s.active_banks))],
        );
    }

    fn on_metrics(&mut self, metrics: &MetricsRecorder) {
        // Merge the sampled metrics timeline into the trace as counter
        // tracks; Perfetto orders samples by ts, so interleaving with
        // the already-written slices is fine.
        let idx = |c: Counter| {
            TRACKED
                .iter()
                .position(|&t| t == c)
                .expect("tracked counter")
        };
        let (live, slab, act, rd) = (
            idx(Counter::WheelLive),
            idx(Counter::SlabHighWater),
            idx(Counter::CmdActivate),
            idx(Counter::CmdRead),
        );
        for &(cycle, vals) in metrics.timeline() {
            self.counter("wheel health", cycle, &[("live", vals[live])]);
            self.counter("slab high-water", cycle, &[("requests", vals[slab])]);
            self.counter(
                "commands issued",
                cycle,
                &[("act", vals[act]), ("rd", vals[rd])],
            );
        }
    }

    fn finish(&mut self) {
        let _ = write!(self.writer, "\n]}}\n");
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> ChromeTraceConfig {
        ChromeTraceConfig {
            ranks: 1,
            banks_per_rank: 2,
            trp: 11,
            trfc: 88,
            burst: 4,
        }
    }

    #[test]
    fn produces_balanced_json_with_tracks() {
        let mut sink = ChromeTraceSink::new(Vec::new(), tiny_cfg());
        let mut act = CommandEvent::bare(10, CommandClass::Activate, 0);
        act.bank = Some(1);
        act.row = Some(7);
        act.trcd = Some(6);
        act.pb = Some(3);
        sink.on_event(&TraceEvent::Command(act));
        sink.on_event(&TraceEvent::Command(CommandEvent::bare(
            20,
            CommandClass::Refresh,
            0,
        )));
        sink.on_event(&TraceEvent::QuietSpan {
            from: 30,
            cycles: 50,
            busy: true,
        });
        sink.on_epoch(&EpochSample {
            cycle: 100,
            read_queue: 3,
            write_queue: 1,
            active_banks: 2,
            ..EpochSample::default()
        });
        sink.finish();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert!(text.starts_with("{\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        // Metadata names the controller, the rank track, and both banks.
        assert!(text.contains("\"controller\""));
        assert!(text.contains("rank 0 (REF/power)"));
        assert!(text.contains("rank 0 bank 1"));
        // The ACT slice carries its charge-derived duration and PB group.
        assert!(text.contains("\"name\":\"ACT pb3\""));
        assert!(text.contains("\"dur\":6"));
        // REF lands on the rank track with the tRFC duration.
        assert!(text.contains("\"dur\":88"));
        assert!(text.contains("\"name\":\"busy skip\""));
        assert!(text.contains("\"name\":\"queue occupancy\""));
        // Balanced brackets / braces as a cheap well-formedness check.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }
}
