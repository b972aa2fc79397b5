//! Multi-rank integration tests: two ranks per channel, each with its
//! own refresh engine and LRRA — PBR must track them independently.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_cpu::Trace;
use nuat_sim::{traces_for, RunConfig, System};
use nuat_types::{DramGeometry, Rank, SystemConfig};
use nuat_workloads::by_name;

fn two_rank_config(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.dram.geometry = DramGeometry {
        ranks_per_channel: 2,
        ..DramGeometry::default()
    };
    cfg
}

#[test]
fn two_rank_system_completes_under_nuat() {
    let cfg = two_rank_config(1);
    let rc = RunConfig {
        mem_ops_per_core: 1500,
        ..RunConfig::quick()
    };
    // MT-canneal's 16 streams spread across both ranks' 8 banks each.
    let spec = by_name("MT-canneal").unwrap();
    let traces: Vec<Trace> = traces_for(&[spec], &cfg, &rc)
        .into_iter()
        .map(Trace::from_source)
        .collect();
    let expected_reads = traces[0].reads();
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    assert!(r.completed, "two-rank NUAT run must finish");
    assert_eq!(r.stats.reads_completed, expected_reads);
    assert!(r.device.reduced_activates > 0);
    // Both ranks must have been refreshed on schedule.
    assert!(r.stats.refreshes >= 2 * (r.mc_cycles / 50_000).saturating_sub(1));
}

#[test]
fn per_rank_refresh_engines_are_independent() {
    use nuat_core::{MemoryController, RequestKind};
    let cfg = two_rank_config(1);
    let mut mc = MemoryController::new(cfg, SchedulerKind::FrFcfsOpen);
    // Run past two refresh batch deadlines with no traffic.
    mc.run_for(2 * 50_000 + 2_000);
    let r0 = mc.refresh_engine(Rank::new(0)).batches_done();
    let r1 = mc.refresh_engine(Rank::new(1)).batches_done();
    assert_eq!(r0, 2, "rank 0 must have refreshed twice");
    assert_eq!(r1, 2, "rank 1 must have refreshed twice");
    // Keep one rank busy and confirm both still make their deadlines.
    let g = nuat_types::DramGeometry {
        ranks_per_channel: 2,
        ..Default::default()
    };
    for i in 0..32u32 {
        let addr = g
            .encode(
                nuat_types::DecodedAddr {
                    channel: nuat_types::Channel::new(0),
                    rank: Rank::new(1),
                    bank: nuat_types::Bank::new(i % 8),
                    row: nuat_types::Row::new(i * 3),
                    col: nuat_types::Col::new(0),
                },
                nuat_types::AddressMapping::OpenPageBaseline,
            )
            .unwrap();
        mc.enqueue(0, RequestKind::Read, addr);
    }
    mc.run_for(55_000);
    assert_eq!(mc.refresh_engine(Rank::new(0)).batches_done(), 3);
    assert_eq!(mc.refresh_engine(Rank::new(1)).batches_done(), 3);
    assert_eq!(mc.stats().reads_completed, 32);
}
