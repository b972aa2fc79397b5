//! Property-based end-to-end invariants.
//!
//! The central safety property of the reproduction: *whatever the
//! workload, NUAT never issues an activation whose promised timings
//! under-run the row's charge-dependent physical minimum* — the DRAM
//! device panics the controller if it does, so completing a run IS the
//! assertion. The remaining properties check accounting conservation
//! and latency floors across randomized workload parameters.

use nuat_circuit::PbGrouping;
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_cpu::MemOp;
use nuat_sim::System;
use nuat_types::{DramGeometry, Rank, SystemConfig};
use nuat_workloads::{Suite, TraceGenerator, WorkloadSpec};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        1.0f64..40.0, // mpki
        0.0f64..1.0,  // locality
        0.3f64..1.0,  // read fraction
        1usize..16,   // streams
        1u32..2048,   // footprint rows
        1u32..24,     // burst len
        0u32..16,     // gap in burst
        proptest::bool::ANY,
    )
        .prop_map(
            |(
                mpki,
                row_locality,
                read_fraction,
                streams,
                footprint_rows,
                burst_len,
                gap_in_burst,
                phased,
            )| {
                WorkloadSpec {
                    name: "prop",
                    suite: Suite::Parsec,
                    mpki,
                    row_locality,
                    read_fraction,
                    streams,
                    footprint_rows,
                    burst_len,
                    gap_in_burst,
                    phased,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn nuat_respects_physics_for_arbitrary_workloads(
        spec in arb_spec(),
        seed in 0u64..1000,
        n_pb in 2usize..=5,
    ) {
        let trace = TraceGenerator::new(spec, DramGeometry::default(), seed).generate(400);
        let reads = trace.reads();
        let sys = System::new(
            SystemConfig::with_cores(1),
            SchedulerKind::Nuat,
            PbGrouping::paper(n_pb),
            vec![trace],
        );
        // run() panics on any physical-timing violation (device check).
        let r = sys.run(30_000_000);
        prop_assert!(r.completed, "run must finish");
        prop_assert_eq!(r.stats.reads_completed, reads);
    }

    #[test]
    fn latency_floor_holds_for_every_scheduler(
        spec in arb_spec(),
        seed in 0u64..1000,
    ) {
        for kind in [SchedulerKind::FrFcfsOpen, SchedulerKind::FrFcfsClose, SchedulerKind::Nuat] {
            let trace = TraceGenerator::new(spec, DramGeometry::default(), seed).generate(250);
            let sys = System::new(
                SystemConfig::with_cores(1),
                kind,
                PbGrouping::paper(5),
                vec![trace],
            );
            let r = sys.run(30_000_000);
            prop_assert!(r.completed);
            if r.stats.reads_completed > 0 {
                // No read can beat CL + BL/2 = 15 cycles (a pure hit).
                prop_assert!(r.avg_read_latency() >= 15.0);
            }
        }
    }

    #[test]
    fn command_counts_are_consistent(
        spec in arb_spec(),
        seed in 0u64..1000,
    ) {
        let trace = TraceGenerator::new(spec, DramGeometry::default(), seed).generate(300);
        let sys = System::new(
            SystemConfig::with_cores(1),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            vec![trace],
        );
        let r = sys.run(30_000_000);
        prop_assert!(r.completed);
        let acts = r.stats.acts_for_reads + r.stats.acts_for_writes;
        let cols = r.stats.cols_read + r.stats.cols_write;
        // Every column requires an earlier activation of its row; with
        // hits, cols >= acts is not guaranteed in general, but every ACT
        // must serve at least one column by the time the run drains.
        prop_assert!(acts <= cols, "acts {} > cols {}", acts, cols);
        // PB histogram accounts for every activation.
        let hist: u64 = r.stats.pb_act_histogram.iter().sum();
        prop_assert_eq!(hist, acts);
        // The device agrees with the controller on command counts.
        prop_assert_eq!(r.device.energy.reads, r.stats.cols_read);
        prop_assert_eq!(r.device.energy.writes, r.stats.cols_write);
        prop_assert_eq!(r.device.energy.activates, acts);
    }

    /// Event-driven busy skipping must be a pure execution-speed
    /// transform: a controller advanced with `run_for` (bulk skips)
    /// must end bit-identical to one driven strictly tick-by-tick,
    /// for arbitrary workloads with power management and refresh
    /// postponing enabled — the two features whose state machines the
    /// horizon computation must bracket exactly.
    #[test]
    fn busy_skip_equals_tick_by_tick(
        spec in arb_spec(),
        seed in 0u64..1000,
        powerdown in prop_oneof![Just(0u64), 16u64..128],
        postpone in 0u64..=2,
    ) {
        let mut cfg = SystemConfig::with_cores(1);
        cfg.controller.powerdown_after_idle = powerdown;
        cfg.controller.refresh_postpone_batches = postpone;
        let trace = TraceGenerator::new(spec, cfg.dram.geometry, seed).generate(150);

        let mut fast = MemoryController::new(cfg, SchedulerKind::Nuat);
        let mut slow = MemoryController::new(cfg, SchedulerKind::Nuat);

        // Replay the trace into both controllers at identical cycles,
        // bulk-advancing the fast one and stepping the slow one through
        // the per-cycle reference (`tick_reference`: the full decision
        // pipeline every cycle, no busy horizon) between arrivals.
        let advance = |fast: &mut MemoryController, slow: &mut MemoryController, dt: u64| {
            fast.run_for(dt);
            for _ in 0..dt {
                slow.tick_reference();
            }
        };
        for rec in trace.records() {
            advance(&mut fast, &mut slow, rec.gap as u64 / 4 + 1);
            let kind = match rec.op {
                MemOp::Read => RequestKind::Read,
                MemOp::Write => RequestKind::Write,
            };
            // Acceptance must agree (identical state); skip the record
            // in both when a queue is full so they stay in lockstep.
            prop_assert_eq!(fast.can_accept(kind), slow.can_accept(kind));
            if fast.can_accept(kind) {
                fast.enqueue(0, kind, rec.addr);
                slow.enqueue(0, kind, rec.addr);
            }
        }
        // Drain, then idle across two refresh-batch intervals and the
        // power-down threshold so every horizon source is exercised.
        advance(&mut fast, &mut slow, 120_000);

        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(fast.stats(), slow.stats());
        prop_assert_eq!(fast.device().stats(), slow.device().stats());
        prop_assert_eq!(
            fast.device().total_powerdown_cycles(),
            slow.device().total_powerdown_cycles()
        );
        prop_assert_eq!(
            fast.refresh_engine(Rank::new(0)).batches_done(),
            slow.refresh_engine(Rank::new(0)).batches_done()
        );
        // The transform actually engaged — this is a skip test, not a
        // vacuous equality of two per-tick runs.
        prop_assert!(fast.cycles_skipped() > 0);
        prop_assert_eq!(slow.cycles_skipped(), 0);
    }
}
