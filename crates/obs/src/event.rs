//! The structured event taxonomy emitted by the instrumented simulator.
//!
//! Events are plain-integer records: cheap to construct (so emission
//! sites cost nothing under [`crate::NullSink`]) and trivially
//! serializable by every exporter. Cycle stamps are memory-controller
//! cycles; events may arrive slightly out of stamp order across a
//! bulk-advanced span (exporters must not assume monotonicity).

/// DRAM command class of a [`CommandEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandClass {
    /// Row activation.
    Activate,
    /// Column read.
    Read,
    /// Column write.
    Write,
    /// Explicit precharge.
    Precharge,
    /// Per-rank refresh batch.
    Refresh,
}

impl CommandClass {
    /// Short mnemonic matching `nuat_dram::DramCommand::mnemonic`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CommandClass::Activate => "ACT",
            CommandClass::Read => "RD",
            CommandClass::Write => "WR",
            CommandClass::Precharge => "PRE",
            CommandClass::Refresh => "REF",
        }
    }
}

/// One accepted DRAM command, with the scheduling context the issuing
/// site had at hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandEvent {
    /// Issue cycle.
    pub at: u64,
    /// Command class.
    pub class: CommandClass,
    /// Target rank.
    pub rank: u32,
    /// Target bank (`None` for rank-scoped commands, i.e. `REF`).
    pub bank: Option<u32>,
    /// Opened row (`ACT` only).
    pub row: Option<u32>,
    /// Column (`RD`/`WR` only).
    pub col: Option<u32>,
    /// Auto-precharge flag (`RD`/`WR` only).
    pub auto_precharge: bool,
    /// Promised tRCD in cycles (`ACT` only) — the charge-derived timing
    /// the controller committed to for this row cycle.
    pub trcd: Option<u64>,
    /// Promised tRAS in cycles (`ACT` only).
    pub tras: Option<u64>,
    /// PB group of the target row under the LRRA at issue time, when
    /// the issuing site computed it (scheduler-chosen candidates carry
    /// it; refresh-path precharges do not).
    pub pb: Option<u8>,
}

impl CommandEvent {
    /// A command event with every optional field empty; emission sites
    /// fill in what they know.
    pub fn bare(at: u64, class: CommandClass, rank: u32) -> Self {
        CommandEvent {
            at,
            class,
            rank,
            bank: None,
            row: None,
            col: None,
            auto_precharge: false,
            trcd: None,
            tras: None,
            pb: None,
        }
    }
}

/// One structured simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A request entered the controller's queues.
    Enqueue {
        /// Arrival cycle.
        at: u64,
        /// Originating core.
        core: u32,
        /// True for writes.
        is_write: bool,
        /// Decoded rank.
        rank: u32,
        /// Decoded bank.
        bank: u32,
        /// Decoded row.
        row: u32,
    },
    /// A DRAM command was accepted by the device.
    Command(CommandEvent),
    /// A read's last data beat arrived back at the controller.
    ReadComplete {
        /// Completion cycle (data done, not issue).
        at: u64,
        /// Originating core.
        core: u32,
        /// Arrival-to-data latency in cycles.
        latency: u64,
    },
    /// A rank changed CKE state.
    PowerState {
        /// Transition cycle.
        at: u64,
        /// The rank.
        rank: u32,
        /// True on power-down entry, false on wake.
        powered_down: bool,
    },
    /// A span of provably-quiet cycles was crossed without full ticks
    /// (the controller's busy horizon). Consecutive quiet cycles of one
    /// kind are coalesced into one event per maximal span.
    QuietSpan {
        /// First cycle of the span.
        from: u64,
        /// Span length in cycles.
        cycles: u64,
        /// True for busy spans (work queued but nothing legal), false
        /// for idle spans (the queues empty).
        busy: bool,
    },
}

impl TraceEvent {
    /// The event's primary cycle stamp.
    pub fn at(&self) -> u64 {
        match *self {
            TraceEvent::Enqueue { at, .. }
            | TraceEvent::ReadComplete { at, .. }
            | TraceEvent::PowerState { at, .. } => at,
            TraceEvent::Command(CommandEvent { at, .. }) => at,
            TraceEvent::QuietSpan { from, .. } => from,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_command_has_no_optionals() {
        let e = CommandEvent::bare(7, CommandClass::Refresh, 1);
        assert_eq!(e.at, 7);
        assert_eq!(e.bank, None);
        assert_eq!(e.pb, None);
        assert_eq!(e.class.mnemonic(), "REF");
    }

    #[test]
    fn event_stamp_accessor() {
        assert_eq!(
            TraceEvent::QuietSpan {
                from: 10,
                cycles: 5,
                busy: true
            }
            .at(),
            10
        );
        assert_eq!(
            TraceEvent::Command(CommandEvent::bare(3, CommandClass::Activate, 0)).at(),
            3
        );
    }
}
