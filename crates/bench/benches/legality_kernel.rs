//! Criterion micro-benchmark of the issuing-tick legality kernel:
//! per-bank scalar `BankGates` derivation with a branchy readiness /
//! key-selection ladder (the shape of the controller's scalar
//! `bank_key`, which the batch kernel is checked against) vs the SWAR
//! batch kernel (`LegalityTable::fill` + `ready_masks` +
//! `batch_bank_keys`) at 1/2/4 ranks × 8/16 banks.
//!
//! Both sides consume the same warmed controller's device state and the
//! same per-rank work/hit bitmaps, and both produce the same outputs —
//! four per-class ready bitmaps plus the fused per-rank minimum wheel
//! key — so the gap is purely the data layout and branch structure: a
//! handful of lane-wise compares and mask selects against a per-bank
//! FSM branch ladder.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_dram::{BankGates, DramDevice, LegalityTable, IDLE_ROW};
use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row, SystemConfig};
use std::hint::black_box;

/// A controller with `ranks × banks` geometry whose queues hold a full
/// complement of reads + writes spread over every bank, advanced far
/// enough that a realistic blend of open rows, conflicts and armed
/// timing gates is in place (same recipe as `candidate_wheel`).
fn saturated_controller(ranks: u64, banks: u64, depth: usize) -> MemoryController {
    let mut cfg = SystemConfig::default();
    cfg.dram.geometry.ranks_per_channel = ranks;
    cfg.dram.geometry.banks_per_rank = banks;
    cfg.controller.read_queue_capacity = depth;
    cfg.controller.write_queue_capacity = depth;
    cfg.controller.write_high_watermark = depth * 40 / 64;
    cfg.controller.write_low_watermark = depth * 20 / 64;
    let mut mc = MemoryController::new(cfg, SchedulerKind::Nuat);
    let mut state = 0x2545f4914f6cdd1du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    for rk in [RequestKind::Read, RequestKind::Write] {
        while mc.can_accept(rk) {
            let v = next();
            mc.enqueue_decoded(
                0,
                rk,
                DecodedAddr {
                    channel: Channel::new(0),
                    rank: Rank::new((v % ranks) as u32),
                    bank: Bank::new(((v >> 3) % banks) as u32),
                    row: Row::new((v >> 8) as u32 % 512),
                    col: Col::new((v >> 17) as u32 % 1024),
                },
            );
        }
    }
    mc.run_for(50);
    mc
}

/// Per-rank queue-side bitmaps, derived once outside the timed region
/// (both kernels take them as inputs; the device state supplies `open`,
/// an LCG supplies a half-dense work set with hits split between reads
/// and writes on the open banks).
struct RankMasks {
    work: u64,
    open: u64,
    hit_read: u64,
    hit_write: u64,
    refresh_pending: bool,
}

fn masks_for(dev: &DramDevice, ranks: u64, banks: u64) -> Vec<RankMasks> {
    let mut seed = 0x9e3779b97f4a7c15u64;
    (0..ranks)
        .map(|r| {
            let lanes = dev.bank_lanes(Rank::new(r as u32));
            let mut open = 0u64;
            for (b, &row) in lanes.open_row.iter().enumerate() {
                open |= ((row != IDLE_ROW) as u64) << b;
            }
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(r);
            let dense = seed | (seed >> 7);
            let lane_mask = if banks >= 64 {
                u64::MAX
            } else {
                (1 << banks) - 1
            };
            RankMasks {
                work: (dense | open) & lane_mask,
                open,
                hit_read: open & seed,
                hit_write: open & !seed,
                refresh_pending: r % 2 == 1,
            }
        })
        .collect()
}

/// The scalar reference kernel: per bank, derive [`BankGates`] from the
/// SoA lanes + rank view, branch on FSM state and the hit bits to
/// compute readiness and the wheel key, fold the minimum — the work the
/// pre-batch enumeration/re-key path did one bank at a time.
fn scalar_kernel(dev: &DramDevice, masks: &[RankMasks], now: u64) -> (u64, u64) {
    let mut ready_acc = 0u64;
    let mut min_acc = u64::MAX;
    for (r, m) in masks.iter().enumerate() {
        let rank = Rank::new(r as u32);
        let lanes = dev.bank_lanes(rank);
        let rt = dev.rank_timing(rank);
        for b in 0..lanes.open_row.len() {
            let gates: BankGates = lanes.bank_gates(b, &rt);
            let open = lanes.open_row[b] != IDLE_ROW;
            let has_work = (m.work >> b) & 1 == 1;
            let hit_r = (m.hit_read >> b) & 1 == 1;
            let hit_w = (m.hit_write >> b) & 1 == 1;
            let key = if !has_work {
                u64::MAX
            } else if open {
                if hit_r || hit_w {
                    let kr = if hit_r { gates.read.raw() } else { u64::MAX };
                    let kw = if hit_w { gates.write.raw() } else { u64::MAX };
                    kr.min(kw)
                } else {
                    gates.pre.raw()
                }
            } else if m.refresh_pending {
                u64::MAX
            } else {
                gates.act.raw()
            };
            ready_acc |= ((now >= key) as u64) << b;
            min_acc = min_acc.min(key);
        }
    }
    (ready_acc, min_acc)
}

/// The SWAR kernel: one lane fill per rank, then bitmaps and the fused
/// min-reduction from a handful of packed compares.
fn swar_kernel(
    dev: &DramDevice,
    masks: &[RankMasks],
    tables: &mut [LegalityTable],
    keys: &mut Vec<u64>,
    now: u64,
) -> (u64, u64) {
    let mut ready_acc = 0u64;
    let mut min_acc = u64::MAX;
    for (r, m) in masks.iter().enumerate() {
        let tbl = &mut tables[r];
        tbl.fill(dev, Rank::new(r as u32));
        let rm = tbl.ready_masks(now);
        ready_acc |= rm.act | rm.read | rm.write | rm.pre;
        min_acc = min_acc.min(tbl.batch_bank_keys(
            m.work,
            m.open,
            m.hit_read,
            m.hit_write,
            m.refresh_pending,
            keys,
        ));
    }
    (ready_acc, min_acc)
}

fn bench_legality_kernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("legality_kernel");
    for ranks in [1u64, 2, 4] {
        for banks in [8u64, 16] {
            g.throughput(Throughput::Elements(ranks * banks));
            let mc = saturated_controller(ranks, banks, 64);
            let now = mc.now().raw();
            let masks = masks_for(mc.device(), ranks, banks);
            g.bench_function(&format!("scalar/{ranks}r{banks}b"), |b| {
                b.iter(|| black_box(scalar_kernel(mc.device(), &masks, now)))
            });
            let mut tables = vec![LegalityTable::default(); ranks as usize];
            let mut keys = Vec::new();
            g.bench_function(&format!("swar/{ranks}r{banks}b"), |b| {
                b.iter(|| {
                    black_box(swar_kernel(
                        mc.device(),
                        &masks,
                        &mut tables,
                        &mut keys,
                        now,
                    ))
                })
            });
            // The two kernels must agree before their speeds mean
            // anything: same fused min on identical inputs.
            let s = scalar_kernel(mc.device(), &masks, now);
            let w = swar_kernel(mc.device(), &masks, &mut tables, &mut keys, now);
            assert_eq!(s.1, w.1, "{ranks}r{banks}b: kernels disagree on min key");
        }
    }
    g.finish();
}

criterion_group!(benches, bench_legality_kernel);
criterion_main!(benches);
