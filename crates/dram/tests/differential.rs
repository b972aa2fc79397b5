//! Differential testing: the fast incremental checker in
//! [`nuat_dram::DramDevice`] must agree with the naive windowed
//! [`nuat_dram::ReferenceChecker`] on every protocol decision.
//!
//! Random command attempts are fired at random times on geometries of
//! 1, 2 or 4 ranks and 8 to 64 banks; each attempt is judged by both
//! implementations. Commands the device accepts are recorded into the
//! reference so the two views evolve together. Physical (charge)
//! rejections are excluded from the comparison — the reference covers
//! the protocol only — by issuing ACTs with the worst-case timings or
//! slower ones, which the physics always accepts.
//!
//! The streams are built to reach the reference's window and its edges:
//! - thousands of attempts per case, REFs among them;
//! - waits mostly of a few cycles, and one in fifty several times the
//!   window, so the window fills and empties many times;
//! - in half the cases, ACTs whose promised tRCD or tRAS runs past tRFC,
//!   so the window has to follow the promise;
//! - no cycle advance after an accepted command, so several commands
//!   issue in one cycle (neither implementation models a command bus);
//! - a step to one cycle before the device's hint for the latest command
//!   it refused as too early: the last cycle that command's gate holds.
//!
//! After every accepted command both are asked again, at that same
//! cycle, about that refused command and about a REF on every rank. An
//! event the reference has just dropped from its window while it still
//! gates one of them shows there.

use nuat_dram::{DramCommand, DramDevice, IssueError, ReferenceChecker};
use nuat_types::{Bank, Col, DramConfig, McCycle, Rank, Row, RowTimings};
use proptest::prelude::*;

/// One random step. Coordinates are reduced modulo the drawn geometry.
#[derive(Debug, Clone, Copy)]
enum Attempt {
    /// ACT with the worst-case tRCD and tRAS, stretched by `slow` in
    /// the cases that allow slow ACTs.
    Act {
        rank: u32,
        bank: u32,
        row: u32,
        slow: (u64, u64),
    },
    /// A column command to the `pick`-th open bank of the rank (any bank
    /// if none is open).
    Column {
        rank: u32,
        pick: u32,
        write: bool,
        auto: bool,
    },
    /// PRE to the `pick`-th open bank of the rank (any bank if none is).
    Pre {
        rank: u32,
        pick: u32,
    },
    /// REF to the rank. In the long streams: first PRE every open bank
    /// of the rank, each at its first legal cycle, then REF at its first
    /// legal cycle.
    Ref {
        rank: u32,
    },
    Wait {
        cycles: u32,
    },
    /// Move to one cycle before the hint for the latest command the
    /// device refused as too early, if that lies ahead.
    Approach,
}

fn arb_act() -> impl Strategy<Value = Attempt> {
    (
        0u32..4,
        0u32..64,
        0u32..64,
        prop_oneof![Just((0u64, 0u64)), (0u64..200, 0u64..200)],
    )
        .prop_map(|(rank, bank, row, slow)| Attempt::Act {
            rank,
            bank,
            row,
            slow,
        })
}

fn arb_column() -> impl Strategy<Value = Attempt> {
    (0u32..4, 0u32..64, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(rank, pick, write, auto)| Attempt::Column {
            rank,
            pick,
            write,
            auto,
        },
    )
}

/// PRE to a random open bank, or one time in eight a REF.
fn arb_pre_or_ref() -> impl Strategy<Value = Attempt> {
    (0u32..4, 0u32..64, 0u32..8).prop_map(|(rank, pick, kind)| match kind {
        0 => Attempt::Ref { rank },
        _ => Attempt::Pre { rank, pick },
    })
}

/// Mostly one to three cycles, so most cycles of a window see attempts;
/// one wait in fifty outlasts the window several times over.
fn arb_wait() -> impl Strategy<Value = Attempt> {
    (0u32..50, 1u32..4, 300u32..1_000).prop_map(|(kind, short, long)| Attempt::Wait {
        cycles: if kind == 0 { long } else { short },
    })
}

fn arb_attempt() -> impl Strategy<Value = Attempt> {
    prop_oneof![
        arb_act(),
        arb_act(),
        arb_column(),
        arb_column(),
        arb_pre_or_ref(),
        arb_wait(),
        Just(Attempt::Approach),
    ]
}

/// A device and a reference fed the same accepted commands.
struct Pair {
    dev: DramDevice,
    reference: ReferenceChecker,
    ranks: u32,
    banks: u32,
    /// Whether ACTs may promise slower than worst-case timings. Without
    /// them tRFC is the longest gap, and a REF sets the window's edge.
    slow_acts: bool,
    now: McCycle,
    /// The latest command the device refused as too early, and its
    /// hint.
    refused: Option<(DramCommand, McCycle)>,
}

impl Pair {
    fn new(ranks_log: u32, banks_log: u32, slow_acts: bool) -> Self {
        let mut cfg = DramConfig::default();
        cfg.geometry.ranks_per_channel = 1 << ranks_log;
        cfg.geometry.banks_per_rank = 8 << banks_log;
        let dev = DramDevice::new(cfg);
        let reference = ReferenceChecker::new(*dev.timings(), 8 << banks_log);
        Pair {
            dev,
            reference,
            ranks: 1 << ranks_log,
            banks: 8 << banks_log,
            slow_acts,
            // Start late enough that initial charge states allow
            // worst-case ACTs everywhere (they always do).
            now: McCycle::new(100),
            refused: None,
        }
    }

    fn is_open(&self, rank: Rank, bank: Bank) -> bool {
        self.dev.bank(rank, bank).state.open_row().is_some()
    }

    /// The `pick`-th open bank of `rank`, or bank `pick` if none is open.
    fn open_bank(&self, rank: Rank, pick: u32) -> Bank {
        let open = || (0..self.banks).filter(|&b| self.is_open(rank, Bank::new(b)));
        let n = open().count() as u32;
        Bank::new(match n {
            0 => pick % self.banks,
            _ => open().nth((pick % n) as usize).expect("n open banks"),
        })
    }

    /// The command an attempt makes at the current state, or `None` for
    /// a wait or an approach.
    fn command(&self, a: Attempt) -> Option<DramCommand> {
        let t = *self.dev.timings();
        let rank = |r: u32| Rank::new(r % self.ranks);
        Some(match a {
            Attempt::Act {
                rank: r,
                bank,
                row,
                slow: (trcd, tras),
            } => DramCommand::Activate {
                rank: rank(r),
                bank: Bank::new(bank % self.banks),
                row: Row::new(row),
                timings: match self.slow_acts {
                    true => RowTimings::new(t.trcd + trcd, t.tras + tras, t.trp),
                    false => t.worst_case_row(),
                },
            },
            Attempt::Column {
                rank: r,
                pick,
                write,
                auto,
            } => {
                let (rank, bank) = (rank(r), self.open_bank(rank(r), pick));
                let col = Col::new(pick % 16);
                match write {
                    false => DramCommand::Read {
                        rank,
                        bank,
                        col,
                        auto_precharge: auto,
                    },
                    true => DramCommand::Write {
                        rank,
                        bank,
                        col,
                        auto_precharge: auto,
                    },
                }
            }
            Attempt::Pre { rank: r, pick } => DramCommand::Precharge {
                rank: rank(r),
                bank: self.open_bank(rank(r), pick),
            },
            Attempt::Ref { rank: r } => DramCommand::Refresh { rank: rank(r) },
            Attempt::Wait { .. } | Attempt::Approach => return None,
        })
    }

    /// Asserts that the device and the reference agree on `cmd` now,
    /// and returns the device's verdict.
    fn judge(&self, cmd: &DramCommand) -> Result<(), IssueError> {
        let verdict = self.dev.can_issue(cmd, self.now);
        assert_eq!(
            verdict.is_ok(),
            self.reference.is_legal(cmd, self.now),
            "disagreement on {cmd} at {}: device {:?}",
            self.now,
            verdict.as_ref().err()
        );
        verdict
    }

    /// Judges `cmd` now and issues it to both if legal. After an issue,
    /// judges again at the same cycle the latest command refused as too
    /// early and a REF on every rank.
    fn attempt(&mut self, cmd: DramCommand) -> Result<(), IssueError> {
        let verdict = self.judge(&cmd);
        match verdict {
            Ok(()) => {
                self.dev.issue(cmd, self.now).expect("can_issue passed");
                self.reference.record(cmd, self.now);
                if let Some((refused, _)) = self.refused {
                    let _ = self.judge(&refused);
                }
                for r in 0..self.ranks {
                    let _ = self.judge(&DramCommand::Refresh { rank: Rank::new(r) });
                }
            }
            Err(IssueError::TooEarly { earliest, .. }) => self.refused = Some((cmd, earliest)),
            Err(_) => {}
        }
        verdict
    }

    /// Attempts `cmd`, moving to the device's hint while it is too early.
    fn attempt_when_ready(&mut self, cmd: DramCommand) -> Result<(), IssueError> {
        loop {
            match self.attempt(cmd) {
                Err(IssueError::TooEarly { earliest, .. }) => self.now = earliest,
                verdict => return verdict,
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn fast_checker_agrees_with_reference(
        ranks_log in 0u32..3,
        banks_log in 0u32..4,
        slow_acts in proptest::bool::ANY,
        attempts in proptest::collection::vec(arb_attempt(), 2_000..4_000)
    ) {
        let mut pair = Pair::new(ranks_log, banks_log, slow_acts);
        let mut refreshes = 0;
        for a in attempts {
            match a {
                Attempt::Wait { cycles } => pair.now += cycles as u64,
                Attempt::Approach => {
                    if let Some((_, hint)) = pair.refused {
                        pair.now = pair.now.max(McCycle::new(hint.raw() - 1));
                    }
                }
                Attempt::Ref { rank } => {
                    let rank = Rank::new(rank % pair.ranks);
                    for b in 0..pair.banks {
                        if pair.is_open(rank, Bank::new(b)) {
                            let pre = DramCommand::Precharge { rank, bank: Bank::new(b) };
                            pair.attempt_when_ready(pre).expect("an open bank precharges");
                        }
                    }
                    pair.attempt_when_ready(DramCommand::Refresh { rank })
                        .expect("a rank with every bank closed refreshes");
                    refreshes += 1;
                }
                a => {
                    let cmd = pair.command(a).expect("waits and approaches matched above");
                    let _ = pair.attempt(cmd);
                }
            }
        }
        prop_assert!(refreshes > 0);
    }

    /// The device's `TooEarly { earliest }` hints are *accurate* for
    /// single-constraint situations: the command is illegal one cycle
    /// before `earliest` per the reference too.
    #[test]
    fn too_early_hints_are_sound(
        ranks_log in 0u32..3,
        banks_log in 0u32..4,
        slow_acts in proptest::bool::ANY,
        attempts in proptest::collection::vec(arb_attempt(), 1..400)
    ) {
        let mut pair = Pair::new(ranks_log, banks_log, slow_acts);
        for a in attempts {
            let Some(cmd) = pair.command(a) else {
                if let Attempt::Wait { cycles } = a {
                    pair.now += cycles as u64;
                }
                continue;
            };
            if let Err(IssueError::TooEarly { earliest, .. }) = pair.attempt(cmd) {
                // The hint must not be in the past ...
                prop_assert!(earliest > pair.now);
                // ... and the reference must also consider the moment
                // just before the hint illegal.
                prop_assert!(
                    !pair.reference.is_legal(&cmd, McCycle::new(earliest.raw() - 1)),
                    "reference would allow {} before the device's hint {}",
                    cmd, earliest
                );
            }
        }
    }
}
