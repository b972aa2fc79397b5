//! Replaying a command log holds a fixed amount of checker state.
//!
//! `CommandLog::replay_validate` runs the log through the windowed
//! `ReferenceChecker`, which keeps the events younger than its longest
//! constraint and a few facts per bank, not the history. This binary logs
//! over 100,000 commands of legal device traffic (ACTs, reads and writes
//! with and without auto-precharge on every bank, and a REF every
//! refresh interval), then counts through the `heap_count` allocator the
//! live heap the replay adds at its peak, and holds it under 64 KiB. A
//! checker that kept the whole history would hold several MiB here. The
//! file has a single test, so no other test's allocations land in the
//! count.

use nuat_dram::{DramCommand, DramDevice, IssueError};
use nuat_types::{Bank, Col, DramConfig, McCycle, Rank, Row};

mod heap_count;

/// Issues `cmd` at its first legal cycle from `now` on, leaving `now`
/// there.
fn issue_when_ready(dev: &mut DramDevice, cmd: DramCommand, now: &mut McCycle) {
    while let Err(IssueError::TooEarly { earliest, .. }) = dev.can_issue(&cmd, *now) {
        *now = earliest;
    }
    dev.issue(cmd, *now)
        .expect("legal once its gates have passed");
}

#[test]
fn replay_holds_a_fixed_window() {
    const COMMANDS: u64 = 100_000;
    const CAP: usize = 64 << 10;
    let cfg = DramConfig::default();
    let mut dev = DramDevice::new(cfg);
    dev.enable_logging(COMMANDS as usize + 64);
    let t = *dev.timings();
    let rank = Rank::new(0);
    let banks = cfg.geometry.banks_per_rank as u32;
    let mut now = McCycle::new(100);
    let mut next_ref = t.trefi;
    let mut i = 0u32;
    while dev.command_log().expect("logging enabled").recorded() < COMMANDS {
        if now.raw() >= next_ref {
            // Every column below closes its bank, so REF only waits out
            // the last precharge.
            issue_when_ready(&mut dev, DramCommand::Refresh { rank }, &mut now);
            next_ref += t.trefi;
        }
        let bank = Bank::new(i % banks);
        let act = DramCommand::activate_worst_case(rank, bank, Row::new(i % 1_024), &t);
        issue_when_ready(&mut dev, act, &mut now);
        let col = Col::new(i % 16);
        // A read closed by PRE, a write and a read auto-precharging.
        let (write, auto_precharge) = match i % 3 {
            0 => (false, false),
            1 => (true, true),
            _ => (false, true),
        };
        let column = match write {
            false => DramCommand::Read {
                rank,
                bank,
                col,
                auto_precharge,
            },
            true => DramCommand::Write {
                rank,
                bank,
                col,
                auto_precharge,
            },
        };
        issue_when_ready(&mut dev, column, &mut now);
        if !auto_precharge {
            issue_when_ready(&mut dev, DramCommand::Precharge { rank, bank }, &mut now);
        }
        i += 1;
    }
    let log = dev.command_log().expect("logging enabled");
    assert!(!log.truncated());

    let base = heap_count::reset_peak();
    log.replay_validate(&t, banks)
        .expect("device traffic replays clean");
    let held = heap_count::peak() - base;
    assert!(
        held <= CAP,
        "replaying {} commands held {held} B at its peak (cap: {CAP} B)",
        log.recorded()
    );
}
