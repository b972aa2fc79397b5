//! Peak heap of a generated run is small and does not grow with trace
//! length.
//!
//! Cores read generated traces as they fetch them, so the records of a
//! `traces_for` trace are never all in memory at once. This binary
//! counts every live heap byte through the `heap_count` allocator and
//! holds one comm3 run at 100,000 memory operations to the peak of the
//! same run at 10,000. A run that collected its records would add 16
//! bytes per record, 1.4 MB over the 90,000 extra records. The run at
//! 10,000 is also capped outright: the device keeps charge history
//! only for the rows a run activates, where a per-row table alone
//! would take 512 KiB on the Table 3 part. The file has a single test,
//! so no other test's allocations land in the count.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_sim::{traces_for, RunConfig, System};
use nuat_types::SystemConfig;
use nuat_workloads::by_name;

mod heap_count;

/// Peak live heap, above what was live before, of generating, building
/// and running one NUAT comm3 core for `mem_ops` memory operations.
fn peak_heap_of_run(mem_ops: usize) -> usize {
    let rc = RunConfig {
        mem_ops_per_core: mem_ops,
        ..RunConfig::default()
    };
    let cfg = SystemConfig::with_cores(1);
    let base = heap_count::reset_peak();
    let traces = traces_for(&[by_name("comm3").unwrap()], &cfg, &rc);
    let ops: u64 = traces.iter().map(|t| t.mem_ops()).sum();
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    let peak = heap_count::peak() - base;
    assert!(r.completed, "{mem_ops} ops: the run must finish");
    assert_eq!(r.stats.reads_completed + r.stats.writes_drained, ops);
    peak
}

#[test]
fn peak_heap_does_not_grow_with_trace_length() {
    const BOUND: usize = 256 << 10;
    const SHORT_CAP: usize = 160 << 10;
    let short = peak_heap_of_run(10_000);
    assert!(
        short < SHORT_CAP,
        "peak live heap of a 10,000-op comm3 core is {short} B (cap: {SHORT_CAP} B)"
    );
    let long = peak_heap_of_run(100_000);
    assert!(
        long < short + BOUND,
        "peak live heap grew from {short} B at 10,000 ops to {long} B at 100,000 \
         (bound: +{BOUND} B)"
    );
}
