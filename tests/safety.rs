//! Safety-net tests: the DRAM device's charge validator must catch a
//! controller policy that promises timings the physics cannot honour —
//! the failure-injection counterpart of the conservativeness property
//! tests.

use nuat_circuit::PbGrouping;
use nuat_core::{
    Candidate, MemoryController, MemoryRequest, PolicyView, RequestKind, SchedulerKind,
    SchedulerPolicy,
};
use nuat_sim::{run_mix, RunConfig};
use nuat_types::{PhysAddr, RowTimings, SystemConfig};
use nuat_workloads::{Suite, WorkloadSpec};

/// A deliberately broken policy: PB0 timings for every row, regardless
/// of charge state.
#[derive(Debug)]
struct RecklessPolicy;

impl SchedulerPolicy for RecklessPolicy {
    fn name(&self) -> &'static str {
        "reckless"
    }

    fn act_timings(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> RowTimings {
        // Claims every row is freshly refreshed. A physics violation
        // for any row more than ~6 ms past its refresh.
        RowTimings::new(8, 22, 12)
    }

    fn auto_precharge(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> bool {
        false
    }

    fn choose(&mut self, _: &PolicyView<'_>, cands: &[Candidate]) -> Option<usize> {
        (!cands.is_empty()).then_some(0)
    }
}

/// Drives the controller with the reckless policy swapped in via the
/// test-only constructor below.
#[test]
#[should_panic(expected = "illegal ACT candidate")]
fn reckless_policy_is_caught_by_the_device() {
    let mut mc = MemoryController::with_policy(
        SystemConfig::default(),
        Box::new(RecklessPolicy),
        nuat_circuit::PbGrouping::paper(5),
    );
    // Row 100 starts ~64 ms stale (the refresh pointer begins at the
    // end of the row space), so the very first activation violates the
    // physical minimum and the controller panics loudly rather than
    // letting the request starve or corrupt.
    let g = nuat_types::DramGeometry::default();
    let addr = g
        .encode(
            nuat_types::DecodedAddr {
                channel: nuat_types::Channel::new(0),
                rank: nuat_types::Rank::new(0),
                bank: nuat_types::Bank::new(0),
                row: nuat_types::Row::new(100),
                col: nuat_types::Col::new(0),
            },
            nuat_types::AddressMapping::OpenPageBaseline,
        )
        .unwrap();
    mc.enqueue(0, RequestKind::Read, addr);
    mc.run_for(100);
}

/// The same reckless promise on a genuinely fresh row is fine — the
/// validator rejects physics violations, not tight timings per se.
#[test]
fn reckless_policy_survives_on_fresh_rows() {
    let mut mc = MemoryController::with_policy(
        SystemConfig::default(),
        Box::new(RecklessPolicy),
        nuat_circuit::PbGrouping::paper(5),
    );
    // Row 8191 was just refreshed at simulation start.
    let g = nuat_types::DramGeometry::default();
    let addr = g
        .encode(
            nuat_types::DecodedAddr {
                channel: nuat_types::Channel::new(0),
                rank: nuat_types::Rank::new(0),
                bank: nuat_types::Bank::new(0),
                row: nuat_types::Row::new(8191),
                col: nuat_types::Col::new(0),
            },
            nuat_types::AddressMapping::OpenPageBaseline,
        )
        .unwrap();
    mc.enqueue(0, RequestKind::Read, addr);
    mc.run_for(100);
    assert_eq!(mc.stats().reads_completed, 1);
    assert_eq!(mc.device().stats().reduced_activates, 1);
}

#[test]
fn phys_addr_roundtrip_sanity() {
    // Guard the encode helper the safety tests rely on.
    let g = nuat_types::DramGeometry::default();
    let decoded = nuat_types::DecodedAddr {
        channel: nuat_types::Channel::new(0),
        rank: nuat_types::Rank::new(0),
        bank: nuat_types::Bank::new(2),
        row: nuat_types::Row::new(4096),
        col: nuat_types::Col::new(17),
    };
    let addr: PhysAddr = g
        .encode(decoded, nuat_types::AddressMapping::OpenPageBaseline)
        .unwrap();
    assert_eq!(
        g.decode(addr, nuat_types::AddressMapping::OpenPageBaseline),
        decoded
    );
}

/// A sparse stream of row misses spread over every row of every bank:
/// most activated rows were last restored by their refresh, not by an
/// earlier activation, so NUAT's refresh-distance timings are all that
/// keeps them physical.
fn scattered() -> WorkloadSpec {
    WorkloadSpec {
        name: "scattered",
        suite: Suite::Spec,
        mpki: 2.0,
        row_locality: 0.0,
        read_fraction: 0.7,
        streams: 8,
        footprint_rows: 8192,
        burst_len: 4,
        gap_in_burst: 4,
        phased: false,
    }
}

/// NUAT's per-PB timings pass the device's charge check, which allows no
/// grace, on a run that crosses a whole PRE_PB window: 32 refresh
/// batches, in which every row's refresh distance grows by 256 rows, so
/// rows cross every PB boundary. A PBR block that counts rows even one
/// batch fresher than they are promises too short a tRCD/tRAS to rows
/// just past a boundary, and the controller panics on the refused ACT.
#[test]
fn nuat_timings_stay_physical_across_a_pre_pb_window() {
    let cfg = SystemConfig::with_cores(1);
    // One of the 32 PRE_PB windows (#LP) of the row space.
    let window_rows = cfg.dram.geometry.rows_per_bank / 32;
    let batches = window_rows / cfg.dram.timings.rows_per_refresh_batch();
    let rc = RunConfig {
        mem_ops_per_core: 32_000,
        ..RunConfig::default()
    };
    let r = run_mix(
        &[scattered()],
        SchedulerKind::Nuat,
        PbGrouping::paper(5),
        &rc,
    );
    assert!(r.completed);
    assert!(
        r.mc_cycles >= batches * cfg.dram.timings.refresh_batch_interval(),
        "{} cycles must cover {batches} refresh batches",
        r.mc_cycles
    );
    let acts = r.device.energy.activates;
    assert!(
        acts * 10 > rc.mem_ops_per_core as u64 * 9,
        "{acts} ACTs: nearly every access misses"
    );
}
