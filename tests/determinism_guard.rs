//! Determinism guards: lock the simulator's exact outputs so hot-path
//! optimizations (scratch buffers, single-pass scoring, quiet-span
//! skipping, parallel execution) cannot silently change scheduling
//! decisions. Every value here was recorded from the straightforward
//! reference implementation; a mismatch means an "optimization" altered
//! simulated behaviour, not just speed.

use nuat_circuit::PbGrouping;
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_sim::{parallel_map, run_single, traces_for, RunConfig, SimResult, System};
use nuat_types::{Rank, SystemConfig};
use nuat_workloads::{by_name, Suite, WorkloadSpec};

/// Golden single-core results on `comm3` at `RunConfig::quick()`,
/// recorded before the zero-allocation/fast-forward rework. The
/// optimized controller must reproduce them exactly — decision
/// identity, not statistical similarity.
#[test]
fn golden_single_core_results_are_locked() {
    let goldens = [
        (SchedulerKind::Fcfs, 12713u64, 67650u64, 50821u64),
        (SchedulerKind::FrFcfsOpen, 12732, 67172, 50897),
        (SchedulerKind::FrFcfsClose, 13064, 68455, 52253),
        (SchedulerKind::Nuat, 12990, 67075, 51957),
    ];
    let rc = RunConfig::quick();
    let spec = by_name("comm3").unwrap();
    for (kind, mc_cycles, total_read_latency, exec_cpu) in goldens {
        let r = run_single(spec, kind, &rc);
        assert!(r.completed, "{}: run must complete", r.scheduler);
        assert_eq!(r.mc_cycles, mc_cycles, "{}: mc_cycles drifted", r.scheduler);
        assert_eq!(
            r.stats.total_read_latency, total_read_latency,
            "{}: total_read_latency drifted",
            r.scheduler
        );
        assert_eq!(
            r.execution_cpu_cycles, exec_cpu,
            "{}: execution_cpu_cycles drifted",
            r.scheduler
        );
        assert_eq!(
            r.stats.reads_completed, 985,
            "{}: reads drifted",
            r.scheduler
        );
        assert_eq!(
            r.stats.writes_drained, 515,
            "{}: writes drifted",
            r.scheduler
        );
    }
}

/// The parallel campaign executor must be a pure reordering of work:
/// results come back in input order and are bit-identical to a
/// sequential loop, even when forced onto multiple workers.
#[test]
fn parallel_runs_match_sequential_runs_exactly() {
    // Force real threading even on single-CPU machines; the variable is
    // only read by this binary's parallel_map calls.
    std::env::set_var("NUAT_JOBS", "3");
    let rc = RunConfig {
        mem_ops_per_core: 600,
        ..RunConfig::quick()
    };
    let cells: Vec<(&str, SchedulerKind)> = ["comm3", "ferret", "libq"]
        .into_iter()
        .flat_map(|w| {
            [SchedulerKind::Nuat, SchedulerKind::FrFcfsOpen]
                .into_iter()
                .map(move |k| (w, k))
        })
        .collect();
    let fingerprint = |name: &str, kind: SchedulerKind| {
        let r = run_single(by_name(name).unwrap(), kind, &rc);
        (
            r.mc_cycles,
            r.stats.total_read_latency,
            r.execution_cpu_cycles,
        )
    };
    let par = parallel_map(&cells, |&(w, k)| fingerprint(w, k));
    let seq: Vec<_> = cells.iter().map(|&(w, k)| fingerprint(w, k)).collect();
    std::env::remove_var("NUAT_JOBS");
    assert_eq!(par, seq);
}

/// Full-result fingerprint used by the skip-mode A/B tests: every field
/// that could betray a scheduling or accounting divergence.
fn full_fingerprint(r: &SimResult) -> (u64, u64, u64, u64, u64, nuat_dram::DeviceStats, u64, u64) {
    (
        r.mc_cycles,
        r.execution_cpu_cycles,
        r.stats.total_read_latency,
        r.stats.reads_completed,
        r.stats.writes_drained,
        r.device,
        r.powerdown_cycles,
        // Bit-exact: energy must not drift even in the last ulp.
        r.energy_pj.to_bits(),
    )
}

/// Recorded goldens for [`powerdown_study_golden_fingerprint`]:
/// `(mc_cycles, total_read_latency, powerdown_cycles)` on the sparse
/// workload at `RunConfig::quick()`, NUAT scheduler.
const GOLDEN_PD0: (u64, u64, u64) = (242_662, 38_639, 0);
const GOLDEN_PD64: (u64, u64, u64) = (242_244, 40_306, 196_608);

/// One comm3 run at `RunConfig::quick()`: the production event loop
/// when `fast`, else the per-cycle reference (`System::run_reference`).
fn run_comm3(kind: SchedulerKind, fast: bool) -> SimResult {
    let rc = RunConfig::quick();
    let cfg = SystemConfig::with_cores(1);
    let traces = traces_for(&[by_name("comm3").unwrap()], &cfg, &rc);
    let sys = System::new(cfg, kind, PbGrouping::paper(5), traces);
    if fast {
        sys.run(rc.max_mc_cycles)
    } else {
        sys.run_reference(rc.max_mc_cycles, 0).0
    }
}

/// The event-driven busy-period skip must be invisible: for every
/// scheduler, the production run and the per-cycle reference must
/// produce byte-identical results — including device command counts,
/// energy and power-down accounting, not just the headline latency
/// numbers.
#[test]
fn busy_skip_modes_are_byte_identical_for_every_scheduler() {
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfsOpen,
        SchedulerKind::FrFcfsClose,
        SchedulerKind::Nuat,
    ] {
        let fast = run_comm3(kind, true);
        let slow = run_comm3(kind, false);
        assert!(fast.completed && slow.completed);
        assert_eq!(
            full_fingerprint(&fast),
            full_fingerprint(&slow),
            "{}: skip vs no-skip fingerprints diverged",
            fast.scheduler
        );
    }
}

/// The sparse workload from `powerdown_study`: long idle stretches, the
/// regime where busy-period skipping and CKE power management interact
/// hardest (urgency transitions, idle counting, wake-ups).
fn sparse() -> WorkloadSpec {
    WorkloadSpec {
        name: "sparse",
        suite: Suite::Spec,
        mpki: 0.8,
        row_locality: 0.5,
        read_fraction: 0.7,
        streams: 2,
        footprint_rows: 64,
        burst_len: 4,
        gap_in_burst: 10,
        phased: false,
    }
}

/// Golden fingerprint for the `powerdown_study` configuration, plus
/// skip-mode identity on the same runs. Values recorded from the
/// strictly-per-tick loop.
#[test]
fn powerdown_study_golden_fingerprint() {
    // (powerdown_after_idle, mc_cycles, total_read_latency, powerdown_cycles)
    let goldens = [(0u64, GOLDEN_PD0), (64, GOLDEN_PD64)];
    for (idle, golden) in goldens {
        let run = |fast: bool| {
            let rc = RunConfig::quick();
            let mut cfg = SystemConfig::with_cores(1);
            cfg.controller.powerdown_after_idle = idle;
            let traces = traces_for(&[sparse()], &cfg, &rc);
            let sys = System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces);
            if fast {
                sys.run(rc.max_mc_cycles)
            } else {
                sys.run_reference(rc.max_mc_cycles, 0).0
            }
        };
        let fast = run(true);
        let slow = run(false);
        assert!(fast.completed && slow.completed);
        assert_eq!(
            full_fingerprint(&fast),
            full_fingerprint(&slow),
            "powerdown={idle}: skip vs no-skip fingerprints diverged"
        );
        assert_eq!(
            (
                fast.mc_cycles,
                fast.stats.total_read_latency,
                fast.powerdown_cycles
            ),
            golden,
            "powerdown={idle}: golden fingerprint drifted"
        );
        if idle > 0 {
            assert!(
                fast.powerdown_cycles > 0,
                "sparse run must enter power-down"
            );
        }
    }
}

/// Attaching a trace sink must be pure observation: a run with the
/// default [`nuat_obs::NullSink`] and a run streaming full JSONL events
/// plus epoch samples must produce byte-identical results (the golden
/// fingerprints above stay valid with any sink attached).
#[test]
fn attached_sink_runs_are_byte_identical_to_null_sink_runs() {
    let rc = RunConfig::quick();
    let spec = by_name("comm3").unwrap();
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfsOpen,
        SchedulerKind::FrFcfsClose,
        SchedulerKind::Nuat,
    ] {
        let plain = run_single(spec, kind, &rc);
        let (traced, mut sinks) = nuat_sim::run_mix_traced(
            &[spec],
            kind,
            PbGrouping::paper(5),
            &rc,
            vec![nuat_obs::JsonlSink::new(Vec::new())],
            Some(1_000),
        );
        assert_eq!(
            full_fingerprint(&plain),
            full_fingerprint(&traced),
            "{}: attaching a JSONL sink changed the simulation",
            plain.scheduler
        );
        // And the sink actually observed the run — this test must not
        // pass vacuously because instrumentation was compiled out.
        let text = String::from_utf8(sinks.remove(0).into_inner()).unwrap();
        assert!(text.lines().count() > 1_000, "{kind:?}: trace looks empty");
        assert!(text.contains("\"type\":\"cmd\""));
        assert!(text.contains("\"type\":\"epoch\""));
    }
}

/// Attaching a metrics recorder must likewise be pure observation: for
/// every scheduler, a run with the default [`nuat_obs::NullMetrics`]
/// and a run carrying a full [`nuat_obs::MetricsRecorder`] (counters,
/// histograms, sampled timeline) must produce byte-identical results.
#[test]
fn attached_metrics_runs_are_byte_identical_to_null_metrics_runs() {
    use nuat_obs::Counter;
    let rc = RunConfig::quick();
    let spec = by_name("comm3").unwrap();
    for kind in [
        SchedulerKind::Fcfs,
        SchedulerKind::FrFcfsOpen,
        SchedulerKind::FrFcfsClose,
        SchedulerKind::Nuat,
    ] {
        let plain = run_single(spec, kind, &rc);
        let (instrumented, _sinks, recs) = nuat_sim::run_mix_instrumented(
            &[spec],
            kind,
            PbGrouping::paper(5),
            &rc,
            vec![nuat_obs::NullSink],
            vec![nuat_obs::MetricsRecorder::with_sample_interval(1_000)],
            None,
        );
        assert_eq!(
            full_fingerprint(&plain),
            full_fingerprint(&instrumented),
            "{}: attaching a metrics recorder changed the simulation",
            plain.scheduler
        );
        // Non-vacuousness: the recorder really rode the run, and its
        // ledger reconciles exactly with the controller statistics.
        let rec = &recs[0];
        assert!(rec.counter(Counter::TickCycles) > 0, "{kind:?}: no ticks");
        assert!(!rec.timeline().is_empty(), "{kind:?}: no timeline samples");
        assert_eq!(
            rec.counter(Counter::ReadsCompleted),
            instrumented.stats.reads_completed,
            "{kind:?}: reads ledger"
        );
        assert_eq!(
            rec.counter(Counter::WritesDrained),
            instrumented.stats.writes_drained,
            "{kind:?}: writes ledger"
        );
        assert_eq!(
            rec.counter(Counter::SkipBusyCycles),
            instrumented.cycles_skipped,
            "{kind:?}: skip ledger"
        );
        // Every cycle is a full tick, a busy skip or an idle skip.
        assert_eq!(
            rec.counter(Counter::TickCycles)
                + rec.counter(Counter::SkipBusyCycles)
                + rec.counter(Counter::SkipIdleCycles),
            instrumented.mc_cycles,
            "{kind:?}: cycle ledger"
        );
        if kind == SchedulerKind::Nuat {
            assert!(
                rec.counter(Counter::SkipIdleCycles) > 0,
                "{kind:?}: no idle span was skipped"
            );
        }
        assert_eq!(
            rec.counter(Counter::CmdActivate),
            instrumented.stats.acts_for_reads + instrumented.stats.acts_for_writes,
            "{kind:?}: activate ledger"
        );
    }
}

fn loaded_controller(powerdown_after_idle: u64) -> MemoryController {
    let mut cfg = SystemConfig::default();
    cfg.controller.powerdown_after_idle = powerdown_after_idle;
    let mut mc = MemoryController::new(cfg, SchedulerKind::Nuat);
    let g = nuat_types::DramGeometry::default();
    for i in 0..16u32 {
        let addr = g
            .encode(
                nuat_types::DecodedAddr {
                    channel: nuat_types::Channel::new(0),
                    rank: Rank::new(0),
                    bank: nuat_types::Bank::new(i % 8),
                    row: nuat_types::Row::new(100 + i / 4),
                    col: nuat_types::Col::new(i % 64),
                },
                nuat_types::AddressMapping::OpenPageBaseline,
            )
            .unwrap();
        mc.enqueue(
            0,
            if i % 3 == 0 {
                RequestKind::Write
            } else {
                RequestKind::Read
            },
            addr,
        );
    }
    mc
}

/// `run_for`'s quiet-span skipping must be invisible: a burst of work,
/// then a long idle stretch (queues empty) crossing several refresh
/// intervals and the power-down threshold, must leave the controller in
/// exactly the state a cycle-by-cycle loop produces.
#[test]
fn fast_forward_is_cycle_accurate() {
    // Refresh batches are due every 50k cycles (tREFI 6250 x 8 rows);
    // cover two of them plus the initial burst and power-down entry.
    const CYCLES: u64 = 120_000;
    for powerdown in [0u64, 64] {
        let mut fast = loaded_controller(powerdown);
        let mut slow = loaded_controller(powerdown);
        // The reference controller runs its full pipeline every cycle,
        // so this really is event-driven-vs-reference, not fast-vs-fast.
        fast.run_for(CYCLES);
        for _ in 0..CYCLES {
            slow.tick_reference();
        }
        assert!(
            fast.cycles_skipped() > 0,
            "powerdown={powerdown}: busy-period skip never engaged"
        );
        assert_eq!(
            slow.cycles_skipped(),
            0,
            "powerdown={powerdown}: the reference controller must not skip"
        );
        assert_eq!(
            fast.now(),
            slow.now(),
            "powerdown={powerdown}: clock diverged"
        );
        assert_eq!(
            fast.stats(),
            slow.stats(),
            "powerdown={powerdown}: stats diverged"
        );
        assert_eq!(
            fast.device().stats(),
            slow.device().stats(),
            "powerdown={powerdown}: device stats diverged"
        );
        assert_eq!(
            fast.device().total_powerdown_cycles(),
            slow.device().total_powerdown_cycles(),
            "powerdown={powerdown}: power-down accounting diverged"
        );
        assert_eq!(
            fast.refresh_engine(Rank::new(0)).batches_done(),
            slow.refresh_engine(Rank::new(0)).batches_done(),
            "powerdown={powerdown}: refresh accounting diverged"
        );
        // The idle stretch is long enough that the guards above actually
        // exercised refresh and power-down, not just an empty loop.
        assert!(fast.refresh_engine(Rank::new(0)).batches_done() > 0);
        if powerdown > 0 {
            assert!(fast.device().total_powerdown_cycles() > 0);
        }
    }
}
