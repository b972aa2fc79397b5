//! Property tests for the DDR3 device model: protocol safety under
//! arbitrary command streams.

use nuat_dram::{DramCommand, DramDevice, IssueError};
use nuat_types::{Bank, Col, DramConfig, DramTimings, McCycle, Rank, Row, RowTimings};
use proptest::prelude::*;

/// A random command attempt, to be fired at a random time step.
#[derive(Debug, Clone, Copy)]
enum Attempt {
    Act { bank: u32, row: u32, fast: bool },
    Read { bank: u32, col: u32, auto: bool },
    Write { bank: u32, col: u32, auto: bool },
    Pre { bank: u32 },
    Refresh,
    Wait { cycles: u16 },
}

fn arb_attempt() -> impl Strategy<Value = Attempt> {
    prop_oneof![
        (0u32..8, 0u32..8192, proptest::bool::ANY).prop_map(|(bank, row, fast)| Attempt::Act {
            bank,
            row,
            fast
        }),
        (0u32..8, 0u32..1024, proptest::bool::ANY).prop_map(|(bank, col, auto)| Attempt::Read {
            bank,
            col,
            auto
        }),
        (0u32..8, 0u32..1024, proptest::bool::ANY).prop_map(|(bank, col, auto)| Attempt::Write {
            bank,
            col,
            auto
        }),
        (0u32..8).prop_map(|bank| Attempt::Pre { bank }),
        Just(Attempt::Refresh),
        (1u16..64).prop_map(|cycles| Attempt::Wait { cycles }),
    ]
}

fn to_command(a: Attempt, timings: &DramTimings) -> Option<DramCommand> {
    let rank = Rank::new(0);
    Some(match a {
        Attempt::Act { bank, row, fast } => DramCommand::Activate {
            rank,
            bank: Bank::new(bank),
            row: Row::new(row),
            timings: if fast {
                // PB0 timings: only legal on charged rows; the device
                // must reject, not corrupt, when the row is stale.
                RowTimings::new(8, 22, timings.trp)
            } else {
                timings.worst_case_row()
            },
        },
        Attempt::Read { bank, col, auto } => DramCommand::Read {
            rank,
            bank: Bank::new(bank),
            col: Col::new(col),
            auto_precharge: auto,
        },
        Attempt::Write { bank, col, auto } => DramCommand::Write {
            rank,
            bank: Bank::new(bank),
            col: Col::new(col),
            auto_precharge: auto,
        },
        Attempt::Pre { bank } => DramCommand::Precharge {
            rank,
            bank: Bank::new(bank),
        },
        Attempt::Refresh => DramCommand::Refresh { rank },
        Attempt::Wait { .. } => return None,
    })
}

/// The largest elapsed time since restore, in ns, at which the device's
/// physical model admits PB0 timings (tRCD 8, tRAS 22), found by
/// bisection over one retention window.
fn pb0_crossover_ns(dev: &DramDevice) -> f64 {
    let physical = dev.physical();
    let admits = |e: f64| physical.trcd_ok(e, 8) && physical.tras_ok(e, 22);
    let (mut lo, mut hi) = (0.0, 64.0e6);
    assert!(admits(lo) && !admits(hi), "PB0 must fit a fresh row only");
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if admits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Charge safety: PB0 timings (8/22) are accepted if and only if the
/// row's charge admits them. The device allows no grace, so on every row
/// of a fresh device an ACT is accepted exactly when the row's time since
/// restore is at most the physical model's crossover, and a staler row
/// raises `PhysicalViolation`.
#[test]
fn fast_activations_require_fresh_rows() {
    let dev = DramDevice::new(DramConfig::default());
    let crossover = pb0_crossover_ns(&dev);
    let now = McCycle::new(5);
    let mut accepted = 0;
    for row in 0..8192 {
        let (rank, bank, row) = (Rank::new(0), Bank::new(0), Row::new(row));
        let cmd = DramCommand::Activate {
            rank,
            bank,
            row,
            timings: RowTimings::new(8, 22, 12),
        };
        let elapsed = dev.elapsed_since_restore_ns(rank, bank, row, now);
        match dev.can_issue(&cmd, now) {
            Ok(()) => {
                assert!(
                    elapsed <= crossover,
                    "accepted PB0 ACT on a row {elapsed} ns stale (crossover {crossover} ns)"
                );
                accepted += 1;
            }
            Err(IssueError::PhysicalViolation { .. }) => assert!(
                elapsed > crossover,
                "rejected a row {elapsed} ns stale (crossover {crossover} ns)"
            ),
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert!(
        0 < accepted && accepted < 8192,
        "both sides of the crossover must be probed: {accepted} of 8192 rows accepted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `can_issue` and `issue` must agree exactly, and a rejected
    /// command must leave the device unchanged (checked by re-polling
    /// every bank view).
    #[test]
    fn check_and_apply_agree(attempts in proptest::collection::vec(arb_attempt(), 1..200)) {
        let mut dev = DramDevice::new(DramConfig::default());
        let timings = *dev.timings();
        let mut now = McCycle::new(10);
        for a in attempts {
            let Some(cmd) = to_command(a, &timings) else {
                if let Attempt::Wait { cycles } = a {
                    now += cycles as u64;
                }
                continue;
            };
            let pre_views: Vec<_> =
                (0..8).map(|b| dev.bank(Rank::new(0), Bank::new(b))).collect();
            let check = dev.can_issue(&cmd, now);
            let apply = dev.issue(cmd, now);
            prop_assert_eq!(check.is_ok(), apply.is_ok(), "{:?}", cmd);
            if apply.is_err() {
                // Rejection must be side-effect free.
                for (b, before) in pre_views.iter().enumerate() {
                    prop_assert_eq!(dev.bank(Rank::new(0), Bank::new(b as u32)), *before);
                }
            } else {
                now += 1;
            }
        }
    }

    /// Issuing a command never makes a previously-legal *unrelated*
    /// command illegal in a way that is not a timing delay: bank state
    /// errors only appear when the issued command touched that bank.
    #[test]
    fn rejections_are_classified(attempts in proptest::collection::vec(arb_attempt(), 1..120)) {
        let mut dev = DramDevice::new(DramConfig::default());
        let timings = *dev.timings();
        let mut now = McCycle::new(10);
        for a in attempts {
            let Some(cmd) = to_command(a, &timings) else {
                if let Attempt::Wait { cycles } = a {
                    now += cycles as u64;
                }
                continue;
            };
            match dev.issue(cmd, now) {
                Ok(done) => {
                    prop_assert!(done >= now, "completion cannot precede issue");
                    now += 1;
                }
                Err(IssueError::TooEarly { earliest, .. }) => {
                    prop_assert!(earliest > now);
                }
                Err(
                    IssueError::WrongBankState { .. }
                    | IssueError::RowMismatch { .. }
                    | IssueError::PhysicalViolation { .. }
                    | IssueError::RefreshWithOpenBank { .. },
                ) => {}
                Err(IssueError::OutOfRange { .. } | IssueError::PoweredDown { .. }) => {
                    prop_assert!(
                        false,
                        "generator neither produces out-of-range coordinates nor powers down"
                    );
                }
            }
        }
    }

    /// The refresh engine and the bank FSM cooperate: after any prefix
    /// of commands, a REF is issuable within bounded time once banks
    /// close (no deadlock in the refresh path).
    #[test]
    fn refresh_is_always_eventually_issuable(
        attempts in proptest::collection::vec(arb_attempt(), 1..100)
    ) {
        let mut dev = DramDevice::new(DramConfig::default());
        let timings = *dev.timings();
        let mut now = McCycle::new(10);
        for a in attempts {
            if let Some(cmd) = to_command(a, &timings) {
                if dev.issue(cmd, now).is_ok() {
                    now += 1;
                }
            } else if let Attempt::Wait { cycles } = a {
                now += cycles as u64;
            }
        }
        // Close every bank (legally), then a REF must go through within
        // the worst-case drain: tRAS + tWR recovery + tRP + tRFC slack.
        for b in 0..8u32 {
            let pre = DramCommand::Precharge { rank: Rank::new(0), bank: Bank::new(b) };
            for _ in 0..200 {
                match dev.issue(pre, now) {
                    Ok(_) => break,
                    Err(IssueError::WrongBankState { .. }) => break, // already idle
                    Err(_) => now += 1,
                }
            }
        }
        let refresh = DramCommand::Refresh { rank: Rank::new(0) };
        let mut issued = false;
        for _ in 0..400 {
            if dev.issue(refresh, now).is_ok() {
                issued = true;
                break;
            }
            now += 1;
        }
        prop_assert!(issued, "refresh must become issuable after banks close");
    }
}
