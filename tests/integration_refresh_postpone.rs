//! Refresh-postponement integration: deferring REF commands to serve
//! demand (DDR3 allows up to 8) must stay physically safe because the
//! controller derates PBR by the same budget.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_sim::{run_mix, RunConfig};
use nuat_types::{Rank, SystemConfig};
use nuat_workloads::by_name;

fn rc(ops: usize) -> RunConfig {
    RunConfig {
        mem_ops_per_core: ops,
        ..RunConfig::quick()
    }
}

#[test]
fn postponement_defers_refreshes_under_load_and_stays_safe() {
    use nuat_core::{MemoryController, RequestKind};
    let mut cfg = SystemConfig::default();
    cfg.controller.refresh_postpone_batches = 4;
    let mut mc = MemoryController::new(cfg, SchedulerKind::Nuat);

    // Sustained demand across banks, spanning two refresh due times.
    let g = nuat_types::DramGeometry::default();
    let enq = |row: u32, bank: u32, col: u32, mc: &mut MemoryController| {
        let addr = g
            .encode(
                nuat_types::DecodedAddr {
                    channel: nuat_types::Channel::new(0),
                    rank: Rank::new(0),
                    bank: nuat_types::Bank::new(bank),
                    row: nuat_types::Row::new(row),
                    col: nuat_types::Col::new(col),
                },
                nuat_types::AddressMapping::OpenPageBaseline,
            )
            .unwrap();
        mc.enqueue(0, RequestKind::Read, addr);
    };
    let mut i = 0u32;
    while mc.now().raw() < 120_000 {
        if mc.can_accept(RequestKind::Read) && i.is_multiple_of(12) {
            enq(8191 - (i % 512), i % 8, i % 64, &mut mc);
        }
        mc.tick();
        i += 1;
    }
    // Drain.
    mc.run_for(5_000);
    let engine = mc.refresh_engine(Rank::new(0));
    assert!(engine.batches_done() >= 2, "refreshes must still happen");
    assert!(
        engine.postponed_batches() > 0,
        "continuous demand must have postponed at least one batch"
    );
    assert!(mc.stats().reads_completed > 0);
    // Physics held: completing without a panic is the safety assertion
    // (the device validates every ACT).
}

#[test]
fn postponement_does_not_regress_throughput() {
    let spec = by_name("ferret").unwrap();

    let prompt = run_mix(
        &[spec],
        SchedulerKind::Nuat,
        PbGrouping::paper(5),
        &rc(1500),
    );

    // Postponing run: same workload through the runner with a patched
    // config is not directly expressible, so compare via the controller
    // config on the System path.
    use nuat_sim::{traces_for, System};
    let mut cfg = SystemConfig::with_cores(1);
    cfg.controller.refresh_postpone_batches = 8;
    let traces = traces_for(&[spec], &cfg, &rc(1500));
    let postponed =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(20_000_000);

    assert!(prompt.completed && postponed.completed);
    // Derated PB assignments cost a little raw slack; deferring REFs
    // out of the demand path wins some back. Either way the difference
    // must be small.
    let ratio = postponed.avg_read_latency() / prompt.avg_read_latency();
    assert!(
        (0.8..1.2).contains(&ratio),
        "postponement changed latency by {ratio:.2}x"
    );
}

#[test]
fn config_rejects_excessive_postpone_budget() {
    let mut cfg = SystemConfig::default();
    cfg.controller.refresh_postpone_batches = 9;
    assert!(
        cfg.validate().is_err(),
        "DDR3 permits at most 8 postponed REFs"
    );
}

/// The bank wheel's keys must stay lower bounds through a long
/// refresh-heavy run: every tREFI the rank markers re-key and a whole
/// rank re-keys after each `REF`, so refresh edges are where a late key
/// would show.
#[test]
fn wheel_keys_stay_lower_bounds_on_refresh_heavy_run() {
    use nuat_core::{MemoryController, RequestKind};
    let cfg = SystemConfig::default();
    let g = cfg.dram.geometry;
    let mut mc = MemoryController::new(cfg, SchedulerKind::Nuat);

    // A sparse read trickle (one request every ~4k cycles, far below
    // one per tREFI) keeps bank re-keys flowing without ever letting
    // demand mask the refresh cadence.
    let mut i = 0u32;
    while mc.now().raw() < 2_000_000 {
        if mc.can_accept(RequestKind::Read) {
            let addr = g
                .encode(
                    nuat_types::DecodedAddr {
                        channel: nuat_types::Channel::new(0),
                        rank: Rank::new(i % g.ranks_per_channel as u32),
                        bank: nuat_types::Bank::new(i % g.banks_per_rank as u32),
                        row: nuat_types::Row::new(i % 512),
                        col: nuat_types::Col::new(i % 64),
                    },
                    nuat_types::AddressMapping::OpenPageBaseline,
                )
                .unwrap();
            mc.enqueue(0, RequestKind::Read, addr);
        }
        mc.run_for(4_096);
        mc.debug_check_wheel_keys();
        i += 1;
    }
    // ~40 batches at the default 50k-cycle batch interval, each one
    // re-keying its rank marker and sweeping the whole rank.
    assert!(
        mc.refresh_engine(Rank::new(0)).batches_done() >= 30,
        "run was not refresh-heavy enough to exercise the re-keys"
    );
}
