//! Peak heap of a generated run does not grow with trace length.
//!
//! Cores read generated traces as they fetch them, so the records of a
//! `traces_for` trace are never all in memory at once. This binary
//! counts every live heap byte through its global allocator and holds
//! one comm3 run at 100,000 memory operations to the peak of the same
//! run at 10,000. A run that collected its records would add 16 bytes
//! per record, 1.4 MB over the 90,000 extra records. The file has a
//! single test, so no other test's allocations land in the count.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_sim::{traces_for, RunConfig, System};
use nuat_types::SystemConfig;
use nuat_workloads::by_name;
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Heap bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Relaxed) + by;
        PEAK.fetch_max(live, Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = SystemAlloc.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = SystemAlloc.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                Counting::grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live heap, above what was live before, of generating, building
/// and running one NUAT comm3 core for `mem_ops` memory operations.
fn peak_heap_of_run(mem_ops: usize) -> usize {
    let rc = RunConfig {
        mem_ops_per_core: mem_ops,
        ..RunConfig::default()
    };
    let cfg = SystemConfig::with_cores(1);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let traces = traces_for(&[by_name("comm3").unwrap()], &cfg, &rc);
    let ops: u64 = traces.iter().map(|t| t.mem_ops()).sum();
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    let peak = PEAK.load(Relaxed) - base;
    assert!(r.completed, "{mem_ops} ops: the run must finish");
    assert_eq!(r.stats.reads_completed + r.stats.writes_drained, ops);
    peak
}

#[test]
fn peak_heap_does_not_grow_with_trace_length() {
    const BOUND: usize = 256 << 10;
    let short = peak_heap_of_run(10_000);
    let long = peak_heap_of_run(100_000);
    assert!(
        long < short + BOUND,
        "peak live heap grew from {short} B at 10,000 ops to {long} B at 100,000 \
         (bound: +{BOUND} B)"
    );
}
