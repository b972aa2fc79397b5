//! The production fast path against the naive per-cycle oracle.
//!
//! `System::run_traced` — the event calendar with cores running ahead,
//! busy-period skipping and the bank wheel — must reproduce
//! `System::run_reference` bit for bit. The reference ticks every core
//! every CPU cycle and runs every channel controller's full pipeline
//! every memory cycle, enumerating by a flat queue scan
//! (`nuat_sim::oracle`, `nuat_core::oracle`). Compared: the
//! result fingerprint, each channel's observable event stream (every
//! enqueue, DRAM command, read completion and power transition, in
//! order) and its epoch samples.
//!
//! The one legitimate difference is the skip structure: the reference
//! never skips. So `cycles_skipped` is left out of the fingerprint and
//! zeroed in the epoch samples, and `QuietSpan` events (the per-span
//! encoding of the skips) are filtered from the event streams.
//!
//! The configurations sampled are the ones the determinism goldens
//! never touch: 1, 2 and 4 ranks; 8, 16 and 64 banks per rank (64 is
//! the validated maximum and the full width of the queues' bank masks);
//! `PbGrouping::paper(n)` for n in 1..=5; all three address mappings;
//! power-down and refresh postponement; 1, 2 and 4 channels; queue
//! depths from 16 to 256; and six processor/controller corner cases
//! with a warm-up reset, a mid-trace cycle cap and a cap inside the
//! post-retirement write drain. Most runs end before the first refresh
//! (due at cycle 50,000); `oracle_matches_across_refresh_batches` runs
//! past two.
//!
//! `prop_wheel_keys_bound_bank_keys` checks a different oracle: the
//! bank wheel's lower-bound invariant — no bank's stored key later
//! than the `bank_key` derived from its current gates — at live
//! controller states.
//!
//! The lockstep tests drop the cores and replay traces straight into
//! bare controllers, one production and one reference controller per
//! channel, comparing the two after every advance. A divergence then
//! shows at the cycle span where it happens, not only in the end
//! result. Each production channel's full command log then replays
//! through `nuat_dram::ReferenceChecker`, which catches a wrong device
//! rule that both sides share.

use nuat_circuit::PbGrouping;
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_cpu::{MemOp, Trace};
use nuat_obs::{EpochSample, MemorySink, TraceEvent};
use nuat_sim::{traces_for, RunConfig, SimResult, System};
use nuat_types::{AddressMapping, SystemConfig, CPU_CYCLES_PER_MC_CYCLE};
use nuat_workloads::{by_name, WorkloadSpec};
use proptest::prelude::*;

const WORKLOADS: [&str; 7] = [
    "black", "face", "ferret", "comm1", "comm3", "libq", "mummer",
];
const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Fcfs,
    SchedulerKind::FrFcfsOpen,
    SchedulerKind::FrFcfsClose,
    SchedulerKind::Nuat,
];
const MAPPINGS: [AddressMapping; 3] = [
    AddressMapping::OpenPageBaseline,
    AddressMapping::ClosePageInterleaved,
    AddressMapping::OpenPageXorBank,
];

/// [`traces_for`]'s traces collected into memory, for the lockstep
/// replays that index records.
fn materialized(specs: &[WorkloadSpec], cfg: &SystemConfig, rc: &RunConfig) -> Vec<Trace> {
    traces_for(specs, cfg, rc)
        .into_iter()
        .map(Trace::from_source)
        .collect()
}

/// One sampled configuration.
#[derive(Debug, Clone, Copy)]
struct Shape {
    channels: u64,
    ranks: u64,
    banks: u64,
    n_pb: usize,
    mapping: AddressMapping,
    depth: usize,
    powerdown_after_idle: u64,
    refresh_postpone_batches: u64,
}

impl Shape {
    /// Table 3 with this shape's geometry and controller settings
    /// (write-drain watermarks scaled to the queue depth).
    fn config(&self, cores: usize) -> SystemConfig {
        let mut cfg = SystemConfig::with_cores(cores);
        let g = &mut cfg.dram.geometry;
        g.channels = self.channels;
        g.ranks_per_channel = self.ranks;
        g.banks_per_rank = self.banks;
        let c = &mut cfg.controller;
        c.mapping = self.mapping;
        c.read_queue_capacity = self.depth;
        c.write_queue_capacity = self.depth;
        c.write_high_watermark = self.depth * 40 / 64;
        c.write_low_watermark = self.depth * 20 / 64;
        c.powerdown_after_idle = self.powerdown_after_idle;
        c.refresh_postpone_batches = self.refresh_postpone_batches;
        cfg
    }
}

/// Table 3's geometry and controller settings, with `channels` channels
/// and `depth`-entry queues.
fn stock(channels: u64, depth: usize) -> Shape {
    Shape {
        channels,
        ranks: 1,
        banks: 8,
        n_pb: 5,
        mapping: AddressMapping::OpenPageBaseline,
        depth,
        powerdown_after_idle: 0,
        refresh_postpone_batches: 0,
    }
}

/// Everything a run reports, bit-exact, except `cycles_skipped` (see
/// the module docs).
#[allow(clippy::type_complexity)]
fn fingerprint(
    r: &SimResult,
) -> (
    u64,
    u64,
    bool,
    Vec<u64>,
    nuat_core::ControllerStats,
    nuat_dram::DeviceStats,
    u64,
    u64,
) {
    (
        r.mc_cycles,
        r.execution_cpu_cycles,
        r.completed,
        r.core_finish_cpu_cycles.clone(),
        r.stats.clone(),
        r.device,
        r.powerdown_cycles,
        r.energy_pj.to_bits(),
    )
}

/// Epoch samples with the skip split zeroed.
fn normalized_epochs(sink: &MemorySink) -> Vec<EpochSample> {
    sink.epochs
        .iter()
        .map(|e| EpochSample {
            cycles_skipped: 0,
            ..e.clone()
        })
        .collect()
}

/// The observable event stream: everything except `QuietSpan`.
fn observable_events(sink: &MemorySink) -> Vec<TraceEvent> {
    sink.events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::QuietSpan { .. }))
        .copied()
        .collect()
}

/// Runs `cfg` twice — production and reference — with a memory sink and
/// epoch sampling on every channel, and asserts the two agree. `rc`
/// gives the trace length, the warm-up and the cycle cap. Returns the
/// production result.
fn assert_fast_equals_oracle(
    cfg: SystemConfig,
    scheduler: SchedulerKind,
    grouping: &PbGrouping,
    workloads: &[&str],
    rc: &RunConfig,
    what: &str,
) -> SimResult {
    let specs: Vec<_> = workloads.iter().map(|w| by_name(w).unwrap()).collect();
    let traces = traces_for(&specs, &cfg, rc);
    let channels = cfg.dram.geometry.channels as usize;
    let system = || {
        System::with_sinks(
            cfg,
            scheduler,
            grouping.clone(),
            traces.clone(),
            vec![MemorySink::default(); channels],
            Some(500),
        )
    };
    let (fast, fast_sinks) = system().run_traced(rc.max_mc_cycles, rc.warmup_reads);
    let (slow, slow_mcs) = system().run_reference(rc.max_mc_cycles, rc.warmup_reads);
    let slow_sinks: Vec<MemorySink> = slow_mcs
        .into_iter()
        .map(MemoryController::into_sink)
        .collect();
    assert_eq!(
        fingerprint(&fast),
        fingerprint(&slow),
        "{what}: result fingerprint diverged"
    );
    assert_eq!(fast_sinks.len(), slow_sinks.len());
    for (ch, (f, s)) in fast_sinks.iter().zip(&slow_sinks).enumerate() {
        let (fe, se) = (observable_events(f), observable_events(s));
        assert!(!fe.is_empty(), "{what}: channel {ch} observed no events");
        if let Some(i) = (0..fe.len().min(se.len())).find(|&i| fe[i] != se[i]) {
            panic!(
                "{what}: channel {ch} event {i} diverged: fast {:?} vs reference {:?}",
                fe[i], se[i]
            );
        }
        assert_eq!(
            fe.len(),
            se.len(),
            "{what}: channel {ch} event count diverged"
        );
        assert!(
            normalized_epochs(f) == normalized_epochs(s),
            "{what}: channel {ch} epoch samples diverged"
        );
        assert!(f.finished && s.finished);
    }
    fast
}

/// [`assert_fast_equals_oracle`] for one shape under every scheduler,
/// run to completion without warm-up.
fn assert_shape(shape: Shape, workloads: &[&str], mem_ops: usize) {
    let cfg = shape.config(workloads.len());
    cfg.validate().expect("sampled shapes are valid");
    let grouping = PbGrouping::paper(shape.n_pb);
    let rc = RunConfig {
        mem_ops_per_core: mem_ops,
        ..RunConfig::quick()
    };
    for scheduler in SCHEDULERS {
        let r = assert_fast_equals_oracle(
            cfg,
            scheduler,
            &grouping,
            workloads,
            &rc,
            &format!("{scheduler:?} {shape:?} {workloads:?}"),
        );
        assert!(r.completed, "{scheduler:?} {shape:?}: run must finish");
    }
}

/// Asserts that a production and a reference controller agree: clock,
/// statistics, device statistics, power-down cycles, queue occupancy
/// and the reads each finished since the last check.
fn assert_same_controller_state(
    fast: &mut MemoryController,
    slow: &mut MemoryController,
    what: &str,
    ch: usize,
) {
    let at = slow.now();
    assert_eq!(fast.now(), at, "{what}, channel {ch}: clock diverged");
    assert_eq!(
        fast.stats(),
        slow.stats(),
        "{what}, channel {ch}: stats diverged at {at}"
    );
    assert_eq!(
        fast.device().stats(),
        slow.device().stats(),
        "{what}, channel {ch}: device stats diverged at {at}"
    );
    assert_eq!(
        fast.device().total_powerdown_cycles(),
        slow.device().total_powerdown_cycles(),
        "{what}, channel {ch}: power-down cycles diverged at {at}"
    );
    assert_eq!(
        fast.queues().occupancy(),
        slow.queues().occupancy(),
        "{what}, channel {ch}: queue occupancy diverged at {at}"
    );
    assert_eq!(
        fast.take_completions(),
        slow.take_completions(),
        "{what}, channel {ch}: completions diverged at {at}"
    );
}

/// Advances every channel's production and reference controller by
/// `cycles` and compares them. The production side runs `run_for`
/// (busy-period and idle skipping) unless `per_cycle`, when it ticks
/// one cycle at a time; either way its wheel keys are checked against
/// `bank_key` after every advance (with `per_cycle`, every tick).
fn advance_both(
    fast: &mut [MemoryController],
    slow: &mut [MemoryController],
    cycles: u64,
    per_cycle: bool,
    what: &str,
) {
    for (ch, (f, s)) in fast.iter_mut().zip(slow.iter_mut()).enumerate() {
        if per_cycle {
            for _ in 0..cycles {
                f.tick();
                f.debug_check_wheel_keys();
            }
        } else {
            f.run_for(cycles);
            f.debug_check_wheel_keys();
        }
        for _ in 0..cycles {
            s.tick_reference();
        }
        assert_same_controller_state(f, s, what, ch);
    }
}

/// Replays `traces` (one per core, interleaved record by record) into
/// one production and one reference controller per channel, routing
/// each request on its decoded channel as `System`'s port does. Before
/// each record both sides advance by its gap in memory cycles, and
/// after every `burst` records by a further `idle` cycles, so refresh,
/// power-down and idle skipping come up. See [`advance_both`] for
/// `per_cycle`. After the drain, each production channel's full command
/// log must replay clean through `ReferenceChecker`: both sides issue
/// to the same `DramDevice` rules, so a wrong device rule passes the
/// comparison and shows only there. Returns the reference controllers.
fn assert_controllers_in_lockstep(
    cfg: SystemConfig,
    scheduler: SchedulerKind,
    grouping: &PbGrouping,
    traces: &[Trace],
    (burst, idle): (usize, u64),
    per_cycle: bool,
    what: &str,
) -> Vec<MemoryController> {
    let channels = cfg.dram.geometry.channels as usize;
    let controllers = || -> Vec<MemoryController> {
        (0..channels)
            .map(|_| MemoryController::with_grouping(cfg, scheduler, grouping.clone()))
            .collect()
    };
    let (mut fast, mut slow) = (controllers(), controllers());
    // At most an ACT, a column and a PRE per request, plus refresh
    // traffic: a truncated log would fail the replay below.
    let requests: usize = traces.iter().map(|t| t.records().len()).sum();
    for mc in &mut fast {
        mc.enable_command_logging(4 * requests + 4_096);
    }
    let longest = traces.iter().map(|t| t.records().len()).max().unwrap_or(0);
    let mut replayed = 0usize;
    for i in 0..longest {
        for (core, trace) in traces.iter().enumerate() {
            let Some(rec) = trace.records().get(i) else {
                continue;
            };
            let gap = u64::from(rec.gap) / 4 + 1;
            advance_both(&mut fast, &mut slow, gap, per_cycle, what);
            replayed += 1;
            if idle > 0 && replayed.is_multiple_of(burst) {
                advance_both(&mut fast, &mut slow, idle, per_cycle, what);
            }
            let kind = match rec.op {
                MemOp::Read => RequestKind::Read,
                MemOp::Write => RequestKind::Write,
            };
            let addr = cfg.dram.geometry.decode(rec.addr, cfg.controller.mapping);
            let ch = addr.channel.index();
            while !slow[ch].can_accept(kind) {
                assert!(
                    !fast[ch].can_accept(kind),
                    "{what}, channel {ch}: admission diverged"
                );
                advance_both(&mut fast, &mut slow, 1, per_cycle, what);
            }
            assert!(
                fast[ch].can_accept(kind),
                "{what}, channel {ch}: admission diverged"
            );
            assert_eq!(
                fast[ch].enqueue_decoded(core, kind, addr),
                slow[ch].enqueue_decoded(core, kind, addr),
                "{what}, channel {ch}: request ids diverged"
            );
        }
    }
    let mut drained = 0u32;
    while !slow.iter().chain(&fast).all(MemoryController::is_idle) {
        advance_both(&mut fast, &mut slow, 16, per_cycle, what);
        drained += 1;
        assert!(drained < 10_000, "{what}: controllers failed to drain");
    }
    let reads: u64 = slow.iter().map(|mc| mc.stats().reads_completed).sum();
    assert!(reads > 0, "{what}: no read completed");
    let banks = cfg.dram.geometry.banks_per_rank as u32;
    for (ch, mc) in fast.iter().enumerate() {
        let log = mc.device().command_log().expect("logging enabled");
        log.replay_validate(&cfg.dram.timings, banks)
            .unwrap_or_else(|e| panic!("{what}, channel {ch}: {e}"));
    }
    if !per_cycle {
        let skipped: u64 = fast.iter().map(MemoryController::cycles_skipped).sum();
        assert!(skipped > 0, "{what}: the production side never skipped");
    }
    slow
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random shapes and workload pairs, every scheduler: fingerprints,
    /// per-channel event streams and normalized epoch samples must
    /// match the reference exactly.
    #[test]
    fn prop_fast_equals_oracle(
        channels in prop_oneof![Just(1u64), Just(2u64), Just(4u64)],
        ranks in prop_oneof![Just(1u64), Just(2u64), Just(4u64)],
        banks in prop_oneof![Just(8u64), Just(16u64), Just(64u64)],
        n_pb in 1usize..=5,
        mapping in 0usize..3,
        depth in prop_oneof![Just(16usize), Just(32usize), Just(64usize), Just(256usize)],
        powerdown_after_idle in prop_oneof![Just(0u64), 16u64..128],
        refresh_postpone_batches in 0u64..=8,
        w0 in 0usize..WORKLOADS.len(),
        w1 in 0usize..WORKLOADS.len(),
        mem_ops in 120usize..300,
    ) {
        let shape = Shape {
            channels,
            ranks,
            banks,
            n_pb,
            mapping: MAPPINGS[mapping],
            depth,
            powerdown_after_idle,
            refresh_postpone_batches,
        };
        assert_shape(shape, &[WORKLOADS[w0], WORKLOADS[w1]], mem_ops);
    }

    /// Live-state check of the bank wheel: replay a workload into a
    /// bare controller of a random geometry and, every `stride` cycles,
    /// check that no bank's stored wheel key is later than the
    /// `bank_key` derived from the controller's current gates, queues
    /// and refresh-pending flags.
    #[test]
    fn prop_wheel_keys_bound_bank_keys(
        ranks in prop_oneof![Just(1u64), Just(2u64), Just(4u64)],
        banks in prop_oneof![Just(8u64), Just(16u64), Just(64u64)],
        depth in prop_oneof![Just(32usize), Just(256usize)],
        powerdown_after_idle in prop_oneof![Just(0u64), 16u64..128],
        w in 0usize..WORKLOADS.len(),
        stride in 13u64..97,
    ) {
        let shape = Shape {
            channels: 1,
            ranks,
            banks,
            n_pb: 5,
            mapping: AddressMapping::OpenPageBaseline,
            depth,
            powerdown_after_idle,
            refresh_postpone_batches: 0,
        };
        let cfg = shape.config(1);
        let rc = RunConfig {
            mem_ops_per_core: 400,
            ..RunConfig::quick()
        };
        let trace = materialized(&[by_name(WORKLOADS[w]).unwrap()], &cfg, &rc).remove(0);
        for scheduler in SCHEDULERS {
            let mut mc = MemoryController::new(cfg, scheduler);
            let mut cycle = 0u64;
            let mut tick = |mc: &mut MemoryController| {
                mc.tick();
                cycle += 1;
                if cycle.is_multiple_of(stride) {
                    mc.debug_check_wheel_keys();
                }
            };
            for rec in trace.records() {
                for _ in 0..rec.gap as u64 / 4 + 1 {
                    tick(&mut mc);
                }
                let kind = match rec.op {
                    MemOp::Read => RequestKind::Read,
                    MemOp::Write => RequestKind::Write,
                };
                while !mc.can_accept(kind) {
                    tick(&mut mc);
                }
                mc.enqueue(0, kind, rec.addr);
            }
            while !mc.is_idle() {
                tick(&mut mc);
            }
        }
    }

    /// Bare controllers of random shapes in lockstep, production
    /// (`run_for`, skipping busy and idle spans) against reference
    /// (`tick_reference`), compared after every advance, with idle
    /// stretches long enough for power-down entry and refresh.
    #[test]
    fn prop_controller_lockstep_equals_oracle(
        channels in prop_oneof![Just(1u64), Just(2u64)],
        ranks in prop_oneof![Just(1u64), Just(2u64), Just(4u64)],
        banks in prop_oneof![Just(8u64), Just(16u64), Just(64u64)],
        n_pb in 1usize..=5,
        mapping in 0usize..3,
        depth in prop_oneof![Just(16usize), Just(64usize), Just(256usize)],
        powerdown_after_idle in prop_oneof![Just(0u64), 16u64..128],
        refresh_postpone_batches in 0u64..=8,
        scheduler in 0usize..SCHEDULERS.len(),
        w0 in 0usize..WORKLOADS.len(),
        w1 in 0usize..WORKLOADS.len(),
        burst in 4usize..64,
        idle in 0u64..4_000,
    ) {
        let shape = Shape {
            channels,
            ranks,
            banks,
            n_pb,
            mapping: MAPPINGS[mapping],
            depth,
            powerdown_after_idle,
            refresh_postpone_batches,
        };
        let cfg = shape.config(2);
        cfg.validate().expect("sampled shapes are valid");
        let rc = RunConfig {
            mem_ops_per_core: 300,
            ..RunConfig::quick()
        };
        let specs = [by_name(WORKLOADS[w0]).unwrap(), by_name(WORKLOADS[w1]).unwrap()];
        let traces = materialized(&specs, &cfg, &rc);
        let scheduler = SCHEDULERS[scheduler];
        assert_controllers_in_lockstep(
            cfg,
            scheduler,
            &PbGrouping::paper(n_pb),
            &traces,
            (burst, idle),
            false,
            &format!("{scheduler:?} {shape:?} burst {burst} idle {idle}"),
        );
    }
}

/// Every value of every sampled axis, deterministically: a fixed walk
/// of shapes in which each rank count, bank count, #PB, mapping,
/// channel count, power-down and postponement setting appears at least
/// once, each under every scheduler.
#[test]
fn oracle_matches_on_every_axis_value() {
    let base = stock(1, 32);
    let shapes = [
        Shape {
            ranks: 4,
            n_pb: 1,
            ..base
        },
        Shape {
            banks: 16,
            n_pb: 2,
            mapping: AddressMapping::ClosePageInterleaved,
            ..base
        },
        Shape {
            banks: 64,
            n_pb: 3,
            mapping: AddressMapping::OpenPageXorBank,
            ..base
        },
        Shape {
            channels: 2,
            ranks: 2,
            n_pb: 4,
            powerdown_after_idle: 24,
            ..base
        },
        Shape {
            channels: 4,
            ranks: 4,
            banks: 16,
            depth: 16,
            refresh_postpone_batches: 4,
            ..base
        },
        Shape {
            ranks: 2,
            banks: 64,
            mapping: AddressMapping::ClosePageInterleaved,
            depth: 256,
            powerdown_after_idle: 64,
            refresh_postpone_batches: 2,
            ..base
        },
    ];
    for shape in shapes {
        assert_shape(shape, &["ferret", "comm1"], 200);
    }
}

/// The processor and controller corner cases: processor shapes other
/// than Table 3's (a small ROB, retire wider than fetch, a deep or
/// empty pipeline), two ranks with power-down, postponed refresh with
/// shallow queues — each once with a warm-up reset, once with a cycle
/// cap that stops the run while cores still have work (a core that ran
/// ahead past the cap must count as unfinished), and, on two comm1
/// cores, once in full and once with a cap between the last core's
/// finish and the end of the full run, inside the post-retirement write
/// drain. At least one corner's drain must be cut short by that cap.
#[test]
fn oracle_matches_across_processor_and_controller_corners() {
    type Tweak = fn(&mut SystemConfig);
    let tweaks: [(&str, Tweak); 6] = [
        ("small rob", |c| c.processor.rob_size = 6),
        ("retire wider than fetch", |c| {
            c.processor.retire_width = 4;
            c.processor.fetch_width = 2;
        }),
        ("deep pipeline, 3-wide", |c| {
            c.processor.pipeline_depth = 40;
            c.processor.retire_width = 3;
            c.processor.fetch_width = 3;
        }),
        ("no pipeline", |c| c.processor.pipeline_depth = 0),
        ("two ranks, power-down", |c| {
            c.dram.geometry.ranks_per_channel = 2;
            c.controller.powerdown_after_idle = 32;
        }),
        ("postponed refresh, shallow queues", |c| {
            c.controller.refresh_postpone_batches = 4;
            c.controller.read_queue_capacity = 8;
            c.controller.write_queue_capacity = 8;
            c.controller.write_high_watermark = 6;
            c.controller.write_low_watermark = 2;
        }),
    ];
    let full = RunConfig::quick().max_mc_cycles;
    let mut drains_cut = 0;
    for (name, tweak) in tweaks {
        let mut cfg = SystemConfig::with_cores(2);
        tweak(&mut cfg);
        let run = |workloads: [&str; 2], warmup: u64, cap: u64| {
            let rc = RunConfig {
                mem_ops_per_core: 400,
                warmup_reads: warmup,
                max_mc_cycles: cap,
                ..RunConfig::quick()
            };
            assert_fast_equals_oracle(
                cfg,
                SchedulerKind::Nuat,
                &PbGrouping::paper(5),
                &workloads,
                &rc,
                &format!("{name}: {workloads:?}, warm-up {warmup}, cap {cap}"),
            )
        };
        let mix = ["comm3", "black"];
        assert!(run(mix, 100, full).completed, "{name}: the run must finish");
        assert!(
            !run(mix, 0, 3_000).completed,
            "{name}: cap 3,000 cuts the traces"
        );
        // Two comm1 cores leave posted writes queued at their finish;
        // the full run ends once they drain, `retired` is the memory
        // cycle after the last finish, and the cap lands in between.
        let writes = ["comm1", "comm1"];
        let whole = run(writes, 100, full);
        assert!(whole.completed, "{name}: the comm1 run must finish");
        let retired = whole.execution_cpu_cycles / CPU_CYCLES_PER_MC_CYCLE + 1;
        let cap = retired + (whole.mc_cycles - retired) / 2;
        let drain = run(writes, 100, cap);
        assert!(
            drain.completed,
            "{name}: cores retire before a cap of {cap}"
        );
        if drain.stats.writes_drained < whole.stats.writes_drained {
            drains_cut += 1;
        }
    }
    assert!(drains_cut > 0, "no cap landed inside a write drain");
}

/// Two ranks at the stock queue depth, run past each rank's second
/// refresh batch with requests queued, under every scheduler: whole
/// runs against `run_reference`, and the same traces replayed into
/// bare controllers in lockstep with reference ones. Refresh is where
/// the wheel re-derives whole ranks (the `REF` moves every act gate and
/// un-suppresses idle banks), and the other cases end before the first
/// batch is due at cycle 50,000.
#[test]
fn oracle_matches_across_refresh_batches() {
    let shape = Shape {
        ranks: 2,
        ..stock(1, 64)
    };
    let cfg = shape.config(2);
    let grouping = PbGrouping::paper(5);
    let workloads = ["comm3", "black"];
    let rc = RunConfig {
        mem_ops_per_core: 8_000,
        ..RunConfig::quick()
    };
    let specs: Vec<_> = workloads.iter().map(|w| by_name(w).unwrap()).collect();
    let traces = materialized(&specs, &cfg, &rc);
    for scheduler in SCHEDULERS {
        let what = format!("{scheduler:?} across refresh batches");
        let r = assert_fast_equals_oracle(cfg, scheduler, &grouping, &workloads, &rc, &what);
        assert!(
            r.completed && r.mc_cycles >= 120_000 && r.stats.refreshes >= 4,
            "{what}: the run must cross two refresh batches per rank"
        );
        let slow = assert_controllers_in_lockstep(
            cfg,
            scheduler,
            &grouping,
            &traces,
            (1, 0),
            false,
            &format!("{what}, lockstep"),
        );
        assert!(
            slow[0].now().raw() >= 120_000 && slow[0].stats().refreshes >= 4,
            "{what}, lockstep: the replay must cross two refresh batches per rank"
        );
    }
}

/// The event calendar against the per-cycle loop on the stock geometry,
/// deterministically: every scheduler at queue depths 32 and 256, on
/// one and four channels.
#[test]
fn des_goldens_match_tick_loop() {
    for depth in [32, 256] {
        for channels in [1, 4] {
            assert_shape(stock(channels, depth), &["ferret", "comm1"], 250);
        }
    }
}

/// The wheel-indexed enumeration against the reference's flat queue
/// scan on longer runs, deterministically: two channels at the stock
/// queue depth, every scheduler.
#[test]
fn wheel_two_channel_goldens_match_scan() {
    assert_shape(stock(2, 64), &["ferret", "comm1"], 600);
}

/// Production ticked one cycle at a time in lockstep with the
/// reference on the two-channel golden traffic, at queue depths 32 and
/// 256 under every scheduler, with the wheel keys checked against
/// `bank_key` after every tick.
#[test]
fn per_tick_two_channel_goldens_match_oracle() {
    let rc = RunConfig {
        mem_ops_per_core: 600,
        ..RunConfig::quick()
    };
    let specs = [by_name("ferret").unwrap(), by_name("comm1").unwrap()];
    for depth in [32, 256] {
        let cfg = stock(2, depth).config(2);
        let traces = materialized(&specs, &cfg, &rc);
        for scheduler in SCHEDULERS {
            assert_controllers_in_lockstep(
                cfg,
                scheduler,
                &PbGrouping::paper(5),
                &traces,
                (48, 400),
                true,
                &format!("{scheduler:?} depth {depth}"),
            );
        }
    }
}
