//! Property test for the unified event calendar: a discrete-event run
//! (the default — calendar-driven cores, wake caching and busy-period
//! skip) must be byte-identical to the legacy strictly tick-by-tick
//! loop (`NUAT_NO_DES=1` semantics, forced in-process via
//! [`System::set_des`] plus `MemoryController::set_cycle_skip(false)`)
//! — same stats fingerprint, same per-channel command/event stream,
//! same epoch samples — for every scheduler, random workload pairs,
//! queue depths {32, 256} and channel counts {1, 4}.
//!
//! As with the wheel-vs-scan property, the one legitimate divergence is
//! the *skip structure*: the calendar jumps straight to the next event
//! while the tick loop burns a cycle per iteration, so the split
//! between "ticked" and "bulk-advanced" quiet cycles differs while
//! every observable outcome — commands, their cycles, completion times,
//! energy, epoch-sampled counters — stays bit-exact across
//! arbitrary-length jumps. Fingerprints therefore exclude
//! `cycles_skipped`, epoch samples are compared with that single field
//! normalized to zero, and `QuietSpan` events (the per-span encoding of
//! the same split) are filtered from the compared event streams.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_obs::{EpochSample, MemorySink, TraceEvent};
use nuat_sim::{traces_for, RunConfig, SimResult, System};
use nuat_types::{DramGeometry, SystemConfig};
use nuat_workloads::by_name;
use proptest::prelude::*;

const WORKLOADS: [&str; 6] = ["black", "face", "ferret", "comm1", "libq", "mummer"];
const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Fcfs,
    SchedulerKind::FrFcfsOpen,
    SchedulerKind::FrFcfsClose,
    SchedulerKind::Nuat,
];
const DEPTHS: [usize; 2] = [32, 256];
const CHANNELS: [u64; 2] = [1, 4];

/// Every scalar a run produces, bit-exact (`cycles_skipped`
/// deliberately excluded — see the module docs).
#[allow(clippy::type_complexity)]
fn fingerprint(
    r: &SimResult,
) -> (
    u64,
    u64,
    u64,
    u64,
    u64,
    nuat_dram::DeviceStats,
    u64,
    u64,
    Vec<u64>,
) {
    (
        r.mc_cycles,
        r.execution_cpu_cycles,
        r.stats.total_read_latency,
        r.stats.reads_completed,
        r.stats.writes_drained,
        r.device,
        r.powerdown_cycles,
        r.energy_pj.to_bits(),
        r.core_finish_cpu_cycles.clone(),
    )
}

/// Epoch samples with the skip-split normalized out.
fn normalized_epochs(sink: &MemorySink) -> Vec<EpochSample> {
    sink.epochs
        .iter()
        .map(|e| EpochSample {
            cycles_skipped: 0,
            ..e.clone()
        })
        .collect()
}

/// The observable event stream: everything except `QuietSpan` (the
/// per-span encoding of the skip split — see the module docs).
fn observable_events(sink: &MemorySink) -> Vec<TraceEvent> {
    sink.events
        .iter()
        .filter(|e| !matches!(e, TraceEvent::QuietSpan { .. }))
        .copied()
        .collect()
}

/// One instrumented run. `des = true` is the stock configuration;
/// `des = false` forces the whole stack onto the reference loop: the
/// system steps every CPU cycle (no wake calendar) and every channel
/// controller ticks every MC cycle (no busy-period skip).
fn run_with(
    des: bool,
    scheduler: SchedulerKind,
    channels: u64,
    depth: usize,
    workloads: &[&str],
    mem_ops: usize,
) -> (SimResult, Vec<MemorySink>) {
    let mut cfg = SystemConfig::with_cores(workloads.len());
    cfg.dram.geometry = DramGeometry {
        channels,
        ..DramGeometry::default()
    };
    cfg.controller.read_queue_capacity = depth;
    cfg.controller.write_queue_capacity = depth;
    cfg.controller.write_high_watermark = depth * 40 / 64;
    cfg.controller.write_low_watermark = depth * 20 / 64;
    let rc = RunConfig {
        mem_ops_per_core: mem_ops,
        ..RunConfig::quick()
    };
    let specs: Vec<_> = workloads.iter().map(|w| by_name(w).unwrap()).collect();
    let traces = traces_for(&specs, &cfg, &rc);
    let mut sys = System::with_sinks(
        cfg,
        scheduler,
        PbGrouping::paper(5),
        traces,
        vec![MemorySink::default(); channels as usize],
        None,
    );
    if !des {
        sys.set_des(false);
        for mc in sys.controllers_mut() {
            mc.set_cycle_skip(false);
        }
    }
    sys.run_traced(rc.max_mc_cycles, 0)
}

fn assert_des_equals_tick(
    scheduler: SchedulerKind,
    channels: u64,
    depth: usize,
    workloads: &[&str],
    mem_ops: usize,
) {
    let (des, des_sinks) = run_with(true, scheduler, channels, depth, workloads, mem_ops);
    let (tick, tick_sinks) = run_with(false, scheduler, channels, depth, workloads, mem_ops);
    assert!(des.completed, "{scheduler:?}: DES run must finish");
    assert_eq!(
        fingerprint(&des),
        fingerprint(&tick),
        "fingerprint diverged for {scheduler:?} ({channels} channels, depth {depth})"
    );
    assert_eq!(des_sinks.len(), tick_sinks.len());
    for (ch, (d, t)) in des_sinks.iter().zip(&tick_sinks).enumerate() {
        let (de, te) = (observable_events(d), observable_events(t));
        assert!(
            !de.is_empty(),
            "channel {ch} observed no events for {scheduler:?}"
        );
        assert!(
            de == te,
            "channel {ch} event stream diverged for {scheduler:?} \
             ({channels} channels, depth {depth})"
        );
        assert!(
            normalized_epochs(d) == normalized_epochs(t),
            "channel {ch} epoch samples diverged for {scheduler:?} \
             ({channels} channels, depth {depth})"
        );
        assert!(d.finished && t.finished);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2, ..ProptestConfig::default() })]

    /// DES vs tick-by-tick over random workload mixes: for each sampled
    /// mix, every scheduler × depth {32, 256} × channels {1, 4} cell
    /// must match exactly — fingerprints, per-channel event streams
    /// (every DRAM command in issue order) and normalized epoch
    /// samples.
    #[test]
    fn prop_des_equals_tick(
        w0 in 0usize..WORKLOADS.len(),
        w1 in 0usize..WORKLOADS.len(),
        mem_ops in 150usize..350,
    ) {
        let workloads = [WORKLOADS[w0], WORKLOADS[w1]];
        for scheduler in SCHEDULERS {
            for depth in DEPTHS {
                for channels in CHANNELS {
                    assert_des_equals_tick(scheduler, channels, depth, &workloads, mem_ops);
                }
            }
        }
    }
}

/// Deterministic smoke for the same property (always runs, no
/// sampling): a fixed mix through every scheduler × depth × channel
/// cell the property covers.
#[test]
fn des_goldens_match_tick_loop() {
    for scheduler in SCHEDULERS {
        for depth in DEPTHS {
            for channels in CHANNELS {
                assert_des_equals_tick(scheduler, channels, depth, &["ferret", "comm1"], 250);
            }
        }
    }
}

/// The calendar's corner cases against the per-cycle loop: processor
/// shapes other than Table 3's (a small ROB, retire wider than fetch, a
/// deep or empty pipeline), two ranks, power-down, postponed refresh, a
/// warm-up reset, and a cycle cap that stops the run while cores still
/// have work (a core that ran ahead past the cap must count as
/// unfinished).
#[test]
fn des_matches_tick_across_configurations() {
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
    let rc = RunConfig {
        mem_ops_per_core: 400,
        ..RunConfig::quick()
    };
    for (name, tweak) in tweaks {
        let mut cfg = SystemConfig::with_cores(2);
        tweak(&mut cfg);
        let specs = [by_name("comm3").unwrap(), by_name("black").unwrap()];
        let traces = traces_for(&specs, &cfg, &rc);
        // (warm-up reads, cycle cap): a full run with a warm-up reset,
        // and one capped well before the traces finish.
        for (warmup, cap) in [(100, rc.max_mc_cycles), (0, 3_000)] {
            let run = |des: bool| {
                let mut sys = System::new(
                    cfg,
                    SchedulerKind::Nuat,
                    PbGrouping::paper(5),
                    traces.clone(),
                );
                if !des {
                    sys.set_des(false);
                    for mc in sys.controllers_mut() {
                        mc.set_cycle_skip(false);
                    }
                }
                sys.run_with_warmup(cap, warmup)
            };
            let (des, tick) = (run(true), run(false));
            assert_eq!(des.completed, tick.completed, "{name}, cap {cap}");
            assert_eq!(des.completed, cap == rc.max_mc_cycles, "{name}, cap {cap}");
            assert_eq!(
                fingerprint(&des),
                fingerprint(&tick),
                "{name}: warm-up {warmup}, cap {cap}"
            );
            assert_eq!(des.stats, tick.stats, "{name}: warm-up {warmup}, cap {cap}");
        }
    }
}
