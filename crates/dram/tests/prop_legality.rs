//! Oracle property test for the SoA gate lanes: after an arbitrary
//! command history, each bank's [`BankLanes::bank_gates`] and `open_row`
//! lane must agree with the FSM `can_issue` path for every bank ×
//! command class × probe time. The controller's wheel enumeration
//! trusts exactly these gates without probing `can_issue` in release
//! builds; `can_issue` stays the single source of truth.

use nuat_dram::{BankLanes, DramCommand, DramDevice, IssueError, IDLE_ROW};
use nuat_types::{Bank, Col, DramConfig, DramTimings, McCycle, Rank, Row, RowTimings};
use proptest::prelude::*;

/// A random command attempt, to be fired at a random time step (same
/// generator shape as `prop_device.rs`).
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

/// One representative probe command per gate class. Worst-case ACT
/// timings are used so charge physics never interferes: the physical
/// minimum can only shrink below the fully-discharged worst case, so
/// the probe's legality is purely FSM-state + timing — exactly what
/// the gates and the open-row lane encode.
fn probes(bank: u32, timings: &DramTimings) -> [DramCommand; 4] {
    let rank = Rank::new(0);
    let bank = Bank::new(bank);
    [
        DramCommand::Activate {
            rank,
            bank,
            row: Row::new(0),
            timings: timings.worst_case_row(),
        },
        DramCommand::Read {
            rank,
            bank,
            col: Col::new(0),
            auto_precharge: false,
        },
        DramCommand::Write {
            rank,
            bank,
            col: Col::new(0),
            auto_precharge: false,
        },
        DramCommand::Precharge { rank, bank },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// After every step of an arbitrary command history, for every bank
    /// and command class the open-row lane decides whether the bank's
    /// FSM state admits the class (`ACT` idle, `RD`/`WR`/`PRE` open),
    /// and where it does, `now >= gate` iff the FSM accepts the class.
    /// Boundary probes additionally pin each gate exactly — legal *at*
    /// the gate, `TooEarly` naming the gate one cycle before it.
    #[test]
    fn legality_table_matches_fsm_check(
        attempts in proptest::collection::vec(arb_attempt(), 1..150)
    ) {
        let mut dev = DramDevice::new(DramConfig::default());
        let timings = *dev.timings();
        let rank = Rank::new(0);
        let mut now = McCycle::new(10);
        for a in attempts {
            if let Some(cmd) = to_command(a, &timings) {
                if dev.issue(cmd, now).is_ok() {
                    now += 1;
                }
            } else if let Attempt::Wait { cycles } = a {
                now += cycles as u64;
            }
            let rt = dev.rank_timing(rank);
            let lanes: BankLanes<'_> = dev.bank_lanes(rank);
            for b in 0..8usize {
                prop_assert_eq!(
                    lanes.open_row[b],
                    dev.bank(rank, Bank::new(b as u32)).state.open_row_lane(),
                    "open-row lane disagrees with the bank view (bank {})", b
                );
                let open = lanes.open_row[b] != IDLE_ROW;
                let g = lanes.bank_gates(b, &rt);
                let cmds = probes(b as u32, &timings);
                let gates = [(g.act, !open), (g.read, open), (g.write, open), (g.pre, open)];
                for (cmd, (gate, admitted)) in cmds.iter().zip(gates) {
                    if !admitted {
                        // State-forbidden: the FSM must refuse with a
                        // state error, not a timing one.
                        match dev.can_issue(cmd, now) {
                            Err(IssueError::WrongBankState { .. }) => {}
                            other => prop_assert!(
                                false,
                                "open-row lane forbids {:?} but FSM said {:?}",
                                cmd, other
                            ),
                        }
                        continue;
                    }
                    // The one-comparison claim, at the current cycle.
                    prop_assert_eq!(
                        now >= gate,
                        dev.can_issue(cmd, now).is_ok(),
                        "gate/FSM disagree at now={} gate={} for {:?}",
                        now, gate, cmd
                    );
                    // Boundary: legal exactly at the gate...
                    prop_assert!(
                        dev.can_issue(cmd, gate).is_ok(),
                        "illegal at its own gate {} for {:?}",
                        gate, cmd
                    );
                    // ...and `TooEarly` naming the gate one cycle before.
                    if gate.raw() > 0 {
                        match dev.can_issue(cmd, McCycle::new(gate.raw() - 1)) {
                            Err(IssueError::TooEarly { earliest, .. }) => {
                                prop_assert_eq!(
                                    earliest, gate,
                                    "FSM earliest disagrees with the gate for {:?}", cmd
                                );
                            }
                            other => prop_assert!(
                                false,
                                "expected TooEarly below gate {}, got {:?} for {:?}",
                                gate, other, cmd
                            ),
                        }
                    }
                }
            }
        }
    }
}
