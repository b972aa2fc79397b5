//! Criterion micro-benchmark of wheel-driven candidate enumeration
//! across channel geometries (1/2/4 ranks × 8/16 banks): one post-issue
//! enumeration pass over a saturated controller state, with a single
//! bank dirtied and only the due banks enumerated
//! (`bench_enumerate_candidates_wheel`) — the steady-state shape of a
//! real busy tick, one issued bank re-keyed and the rest riding their
//! cached keys. Finding the due banks scans every key, so the cost grows
//! with ranks × banks; the paper's channel is the 1-rank, 8-bank case.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row, SystemConfig};
use std::hint::black_box;

/// A controller with `ranks × banks` geometry whose queues hold
/// `depth` reads + `depth` writes spread over every bank, advanced far
/// enough that a realistic blend of open rows, conflicts and timing
/// gates is in place.
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
    // A short warm-up opens rows and arms timing gates so the measured
    // pass sees all three candidate classes, not a cold all-idle array.
    mc.run_for(50);
    mc
}

fn bench_candidate_wheel(c: &mut Criterion) {
    let mut g = c.benchmark_group("candidate_wheel");
    for ranks in [1u64, 2, 4] {
        for banks in [8u64, 16] {
            g.throughput(Throughput::Elements(1));
            let mut wheel_mc = saturated_controller(ranks, banks, 64);
            g.bench_function(&format!("wheel/{ranks}r{banks}b"), |b| {
                b.iter(|| black_box(wheel_mc.bench_enumerate_candidates_wheel(&[0])))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_candidate_wheel);
criterion_main!(benches);
