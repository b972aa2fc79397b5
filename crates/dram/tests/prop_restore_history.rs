//! Exactness oracle for the device's charge history.
//!
//! The device keeps a row's restore cycle as the later of its refresh
//! batch's latest `REF` and the row's own latest `ACT`, and falls back to
//! the steady-state slot of `RefreshEngine::initial_restore_cycle` for a
//! row neither has touched. This file drives random ACT / PRE / REF /
//! wait streams through `DramDevice` on random geometries and, after
//! every command, compares `elapsed_since_restore_ns` at random
//! (rank, bank, row) points with a naive dense model kept only here: one
//! restore cycle per row, filled with the steady-state slot, overwritten
//! on ACT, and overwritten for the refreshed batch in every bank on REF.
//!
//! Geometries draw 1, 2 or 4 ranks and 8 to 64 banks. Rows per bank are
//! either 64 to 1,024, so the refresh rotation wraps several times, or
//! 16,384, where the rotation is longer than the retention and some
//! steady-state slots lie after cycle 0.

use nuat_dram::{DramCommand, DramDevice, IssueError};
use nuat_types::{Bank, DramConfig, McCycle, Rank, Row, RowTimings, MC_CYCLE_NS};
use proptest::prelude::*;

/// Every row's last restore cycle, indexed
/// `(rank * banks + bank) * rows + row`.
struct DenseRestore {
    banks: usize,
    rows: usize,
    batch_rows: usize,
    restore: Vec<i64>,
    /// REFs completed per rank; the next one covers batch
    /// `refs_done % (rows / batch_rows)`, rows from 0 upwards.
    refs_done: Vec<usize>,
}

impl DenseRestore {
    fn new(dev: &DramDevice) -> Self {
        let g = dev.geometry();
        let (ranks, banks, rows) = (
            g.ranks_per_channel as usize,
            g.banks_per_rank as usize,
            g.rows_per_bank as usize,
        );
        let mut restore = Vec::with_capacity(ranks * banks * rows);
        for rank in 0..ranks {
            let engine = dev.refresh_engine(Rank::new(rank as u32));
            for _ in 0..banks {
                restore.extend((0..rows).map(|r| engine.initial_restore_cycle(Row::new(r as u32))));
            }
        }
        DenseRestore {
            banks,
            rows,
            batch_rows: dev.timings().rows_per_refresh_batch() as usize,
            restore,
            refs_done: vec![0; ranks],
        }
    }

    fn idx(&self, rank: usize, bank: usize, row: usize) -> usize {
        (rank * self.banks + bank) * self.rows + row
    }

    fn activate(&mut self, rank: usize, bank: usize, row: usize, now: McCycle) {
        let i = self.idx(rank, bank, row);
        self.restore[i] = now.raw() as i64;
    }

    /// Returns the refreshed batch.
    fn refresh(&mut self, rank: usize, now: McCycle) -> usize {
        let batch = self.refs_done[rank] % (self.rows / self.batch_rows);
        self.refs_done[rank] += 1;
        for bank in 0..self.banks {
            for row in batch * self.batch_rows..(batch + 1) * self.batch_rows {
                let i = self.idx(rank, bank, row);
                self.restore[i] = now.raw() as i64;
            }
        }
        batch
    }

    fn elapsed_ns(&self, rank: usize, bank: usize, row: usize, now: McCycle) -> f64 {
        (now.raw() as i64 - self.restore[self.idx(rank, bank, row)]) as f64 * MC_CYCLE_NS
    }
}

/// One random step. Coordinates are reduced modulo the drawn geometry.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Precharge the bank if it is open, then activate `row`, with PB0
    /// timings (8/22) when `fast`, which the charge check may reject.
    Act {
        rank: u32,
        bank: u32,
        row: u32,
        fast: bool,
    },
    Pre {
        rank: u32,
        bank: u32,
    },
    /// Close every bank of the rank, then issue `count` REFs.
    Ref {
        rank: u32,
        count: u32,
    },
    Wait {
        cycles: u32,
    },
}

fn arb_act() -> impl Strategy<Value = Op> {
    (0u32..4, 0u32..64, 0u32..16_384, proptest::bool::ANY).prop_map(|(rank, bank, row, fast)| {
        Op::Act {
            rank,
            bank,
            row,
            fast,
        }
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Two of every five steps activate.
    prop_oneof![
        arb_act(),
        arb_act(),
        (0u32..4, 0u32..64).prop_map(|(rank, bank)| Op::Pre { rank, bank }),
        (0u32..4, 1u32..=16).prop_map(|(rank, count)| Op::Ref { rank, count }),
        (1u32..20_000).prop_map(|cycles| Op::Wait { cycles }),
    ]
}

/// Issues `cmd` at the first cycle from `now` on at which no timing gate
/// holds it back, leaving `now` there. Returns the device's verdict.
fn issue_when_ready(
    dev: &mut DramDevice,
    cmd: DramCommand,
    now: &mut McCycle,
) -> Result<McCycle, IssueError> {
    while let Err(IssueError::TooEarly { earliest, .. }) = dev.can_issue(&cmd, *now) {
        *now = earliest;
    }
    dev.issue(cmd, *now)
}

/// SplitMix64: the probe points of one step.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Compares the device with the model at the `listed` points and at
/// four random ones.
fn agree(
    dev: &DramDevice,
    model: &DenseRestore,
    ranks: usize,
    now: McCycle,
    seed: &mut u64,
    listed: &[(usize, usize, usize)],
) {
    let random: [_; 4] = std::array::from_fn(|_| {
        let v = mix(seed);
        (
            (v % ranks as u64) as usize,
            ((v >> 8) % model.banks as u64) as usize,
            ((v >> 20) % model.rows as u64) as usize,
        )
    });
    for &(rank, bank, row) in listed.iter().chain(&random) {
        let got = dev.elapsed_since_restore_ns(
            Rank::new(rank as u32),
            Bank::new(bank as u32),
            Row::new(row as u32),
            now,
        );
        let want = model.elapsed_ns(rank, bank, row, now);
        assert_eq!(
            got,
            want,
            "rank {rank} bank {bank} row {row} at cycle {} \
             ({} rows per bank): device and dense model disagree",
            now.raw(),
            model.rows
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `elapsed_since_restore_ns` equals the dense per-row model after
    /// every command, accepted or rejected, at random points that
    /// include rows the run never touched.
    #[test]
    fn restore_history_matches_dense_model(
        ranks_log in 0u32..3,
        banks_log in 0u32..4,
        rows_pick in 0u32..8,
        ops in proptest::collection::vec(arb_op(), 1..300),
        seed in proptest::num::u64::ANY,
    ) {
        let mut cfg = DramConfig::default();
        cfg.geometry.ranks_per_channel = 1 << ranks_log;
        cfg.geometry.banks_per_rank = 8 << banks_log;
        // 64..=1,024 rows in five of eight cases, 16,384 in three.
        cfg.geometry.rows_per_bank = if rows_pick < 5 { 64 << rows_pick } else { 16_384 };
        let mut dev = DramDevice::new(cfg);
        let mut model = DenseRestore::new(&dev);
        let ranks = cfg.geometry.ranks_per_channel as usize;
        let (banks, rows) = (model.banks as u32, model.rows as u32);
        let worst = dev.timings().worst_case_row();
        let fast = RowTimings::new(8, 22, dev.timings().trp);
        let mut seed = seed;
        let mut now = McCycle::new(1);
        agree(&dev, &model, ranks, now, &mut seed, &[]);
        for op in ops {
            match op {
                Op::Act { rank, bank, row, fast: is_fast } => {
                    let (rank, bank, row) = (rank % ranks as u32, bank % banks, row % rows);
                    let (rk, bk) = (Rank::new(rank), Bank::new(bank));
                    if dev.bank(rk, bk).state.open_row().is_some() {
                        let pre = DramCommand::Precharge { rank: rk, bank: bk };
                        issue_when_ready(&mut dev, pre, &mut now).unwrap();
                        agree(&dev, &model, ranks, now, &mut seed, &[]);
                    }
                    let cmd = DramCommand::Activate {
                        rank: rk,
                        bank: bk,
                        row: Row::new(row),
                        timings: if is_fast { fast } else { worst },
                    };
                    match issue_when_ready(&mut dev, cmd, &mut now) {
                        Ok(_) => model.activate(rank as usize, bank as usize, row as usize, now),
                        Err(IssueError::PhysicalViolation { .. }) => prop_assert!(is_fast),
                        Err(e) => prop_assert!(false, "unexpected rejection: {e}"),
                    }
                    let here = (rank as usize, bank as usize, row as usize);
                    agree(&dev, &model, ranks, now, &mut seed, &[here]);
                }
                Op::Pre { rank, bank } => {
                    let (rk, bk) = (Rank::new(rank % ranks as u32), Bank::new(bank % banks));
                    let pre = DramCommand::Precharge { rank: rk, bank: bk };
                    let open = dev.bank(rk, bk).state.open_row().is_some();
                    prop_assert_eq!(issue_when_ready(&mut dev, pre, &mut now).is_ok(), open);
                    agree(&dev, &model, ranks, now, &mut seed, &[]);
                }
                Op::Ref { rank, count } => {
                    let rank = rank % ranks as u32;
                    let rk = Rank::new(rank);
                    for bank in 0..banks {
                        let bk = Bank::new(bank);
                        if dev.bank(rk, bk).state.open_row().is_some() {
                            let pre = DramCommand::Precharge { rank: rk, bank: bk };
                            issue_when_ready(&mut dev, pre, &mut now).unwrap();
                        }
                    }
                    for _ in 0..count {
                        let refresh = DramCommand::Refresh { rank: rk };
                        issue_when_ready(&mut dev, refresh, &mut now).unwrap();
                        let batch = model.refresh(rank as usize, now);
                        // One row of the refreshed batch and one of the
                        // batch after it, in a random bank.
                        let v = mix(&mut seed);
                        let bank = (v % banks as u64) as usize;
                        let row = batch * model.batch_rows + (v >> 8) as usize % model.batch_rows;
                        let listed = [
                            (rank as usize, bank, row),
                            (rank as usize, bank, (row + model.batch_rows) % model.rows),
                        ];
                        agree(&dev, &model, ranks, now, &mut seed, &listed);
                    }
                }
                Op::Wait { cycles } => {
                    now += cycles as u64;
                    agree(&dev, &model, ranks, now, &mut seed, &[]);
                }
            }
        }
    }
}
