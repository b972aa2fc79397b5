//! A trace generated on demand is the trace `generate` collects.
//!
//! `TraceGenerator::stream` hands cores their records one at a time;
//! `TraceGenerator::generate` collects the same stream into a `Trace`.
//! The records, the tail gap, the operation count and the instruction
//! total must agree for every Table 2 workload, and a system fed either
//! form must produce the same result under every scheduler.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_cpu::{Trace, TraceRecord, TraceSource};
use nuat_sim::{traces_for, RunConfig, SimResult, System};
use nuat_types::{DramGeometry, SystemConfig};
use nuat_workloads::{by_name, table2, TraceGenerator, WorkloadSpec};

const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Fcfs,
    SchedulerKind::FrFcfsOpen,
    SchedulerKind::FrFcfsClose,
    SchedulerKind::Nuat,
];

/// Instructions of a trace read as a source: each record's gap plus its
/// operation, then the tail gap.
fn instructions(records: &[TraceRecord], tail_gap: u32) -> u64 {
    records.iter().map(|r| u64::from(r.gap) + 1).sum::<u64>() + u64::from(tail_gap)
}

/// Lengths that end on an empty trace, on the first record, mid-burst
/// and at a burst boundary.
fn lengths(spec: &WorkloadSpec) -> [usize; 5] {
    let burst = spec.burst_len as usize;
    [0, 1, 3 * burst + burst / 2 + 1, 4 * burst, 1_003]
}

#[test]
fn stream_equals_generate_for_every_workload() {
    let g = DramGeometry::default();
    for spec in table2() {
        for seed in [1, 42, 0xdead_beef] {
            for n in lengths(&spec) {
                let what = format!("{} seed {seed} n {n}", spec.name);
                let collected = TraceGenerator::new(spec, g, seed).generate(n);
                let mut stream = TraceGenerator::new(spec, g, seed).stream(n);
                assert_eq!(stream.mem_ops(), collected.mem_ops(), "{what}");
                let records: Vec<TraceRecord> = stream.by_ref().collect();
                assert_eq!(records, collected.records(), "{what}");
                assert_eq!(stream.next(), None, "{what}: the stream stays ended");
                assert_eq!(stream.tail_gap(), collected.tail_gap(), "{what}");
                assert_eq!(
                    instructions(&records, stream.tail_gap()),
                    collected.total_instructions(),
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn generate_continues_the_stream() {
    let spec = by_name("comm3").unwrap();
    let g = DramGeometry::default();
    let mut parts = TraceGenerator::new(spec, g, 5);
    let mut joined = parts.generate(37).records().to_vec();
    joined.extend_from_slice(parts.generate(100).records());
    assert_eq!(
        joined,
        TraceGenerator::new(spec, g, 5).generate(137).records()
    );
}

/// One run per scheduler of `workloads`, one per core: once on the
/// generated traces `traces_for` hands out, once on the same traces
/// collected by `generate`.
fn assert_streamed_runs_equal_materialized(workloads: &[&str]) {
    let specs: Vec<WorkloadSpec> = workloads.iter().map(|w| by_name(w).unwrap()).collect();
    let cfg = SystemConfig::with_cores(specs.len());
    let rc = RunConfig {
        mem_ops_per_core: 700,
        ..RunConfig::quick()
    };
    // `traces_for`'s per-core seeds.
    let materialized: Vec<Trace> = specs
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            TraceGenerator::new(
                *spec,
                cfg.dram.geometry,
                rc.seed.wrapping_add(core as u64 * 7919),
            )
            .generate(rc.mem_ops_per_core)
        })
        .collect();
    let drained: Vec<Trace> = traces_for(&specs, &cfg, &rc)
        .into_iter()
        .map(Trace::from_source)
        .collect();
    assert_eq!(drained, materialized, "{workloads:?}: the same traces");
    for scheduler in SCHEDULERS {
        let grouping = PbGrouping::paper(5);
        let streamed: SimResult = System::new(
            cfg,
            scheduler,
            grouping.clone(),
            traces_for(&specs, &cfg, &rc),
        )
        .run(rc.max_mc_cycles);
        let collected =
            System::new(cfg, scheduler, grouping, materialized.clone()).run(rc.max_mc_cycles);
        assert!(streamed.completed, "{workloads:?} {scheduler:?}");
        assert_eq!(streamed, collected, "{workloads:?} {scheduler:?}");
    }
}

#[test]
fn one_core_streamed_run_equals_materialized() {
    assert_streamed_runs_equal_materialized(&["comm3"]);
}

#[test]
fn two_core_streamed_run_equals_materialized() {
    assert_streamed_runs_equal_materialized(&["ferret", "libq"]);
}

#[test]
fn four_core_streamed_run_equals_materialized() {
    assert_streamed_runs_equal_materialized(&["comm1", "comm3", "ferret", "tigr"]);
}
