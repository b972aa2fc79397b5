//! Arrival recording and controller-only replay.
//!
//! A recorded run keeps every request arrival the controller saw. Feeding
//! those arrivals, at their cycles, into a bare controller reproduces the
//! run's controller statistics exactly, so the replay's host time is the
//! controller's share of the run (`nuat-core`, with `nuat-dram` issue and
//! validation inline) and the rest is the core model and system calendar.

use nuat_circuit::PbGrouping;
use nuat_core::{ControllerStats, MemoryController, RequestKind, SchedulerKind};
use nuat_dram::DeviceStats;
use nuat_obs::{MetricsSink, NullMetrics, NullSink, TraceEvent, TraceSink};
use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row, SystemConfig};
use std::time::Instant;

/// One request as it entered the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    at: u64,
    core: u32,
    is_write: bool,
    rank: u32,
    bank: u32,
    row: u32,
}

/// Trace sink keeping only the arrivals.
#[derive(Debug, Default)]
pub struct ArrivalRecorder(pub Vec<Arrival>);

impl TraceSink for ArrivalRecorder {
    fn on_event(&mut self, event: &TraceEvent) {
        if let TraceEvent::Enqueue {
            at,
            core,
            is_write,
            rank,
            bank,
            row,
        } = *event
        {
            self.0.push(Arrival {
                at,
                core,
                is_write,
                rank,
                bank,
                row,
            });
        }
    }
}

/// Everything the controller reports at the end of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub mc_cycles: u64,
    pub stats: ControllerStats,
    pub device: DeviceStats,
}

impl Outcome {
    pub fn of<S: TraceSink, M: MetricsSink>(mc: &MemoryController<S, M>) -> Self {
        Outcome {
            mc_cycles: mc.now().raw(),
            stats: mc.stats().clone(),
            device: *mc.device().stats(),
        }
    }
}

/// One recorded single-channel run.
#[derive(Debug)]
pub struct Recording {
    pub cfg: SystemConfig,
    pub arrivals: Vec<Arrival>,
    pub outcome: Outcome,
}

fn controller<M: MetricsSink>(cfg: SystemConfig, metrics: M) -> MemoryController<NullSink, M> {
    MemoryController::with_instrumentation(
        cfg,
        SchedulerKind::Nuat,
        PbGrouping::paper(5),
        NullSink,
        metrics,
    )
}

fn feed<M: MetricsSink>(mc: &mut MemoryController<NullSink, M>, arrivals: &[Arrival]) {
    let mut done = Vec::new();
    for a in arrivals {
        let now = mc.now().raw();
        if a.at > now {
            mc.run_for(a.at - now);
            done.clear();
            mc.drain_completions_into(&mut done);
        }
        let kind = if a.is_write {
            RequestKind::Write
        } else {
            RequestKind::Read
        };
        // The arrival event carries no column; columns do not affect
        // timing, which the exact-replay check confirms on every run.
        mc.enqueue_decoded(
            a.core as usize,
            kind,
            DecodedAddr {
                channel: Channel::new(0),
                rank: Rank::new(a.rank),
                bank: Bank::new(a.bank),
                row: Row::new(a.row),
                col: Col::new(0),
            },
        );
    }
}

/// Runs until every queue is empty, skipping provably quiet spans.
fn drain<M: MetricsSink>(mc: &mut MemoryController<NullSink, M>) {
    while !mc.is_idle() {
        match mc.skippable_cycles() {
            0 => mc.tick(),
            span => mc.run_for(span),
        }
    }
}

/// Replays every arrival of `rec` into a fresh controller and runs it to
/// the recorded run's last cycle. (A system run ends once its cores have
/// retired and its queues drained, which can be a few idle cycles after
/// the controller's last command.) Returns the controller and the host
/// seconds the replay took, construction excluded.
pub fn replay<M: MetricsSink>(rec: &Recording, metrics: M) -> (MemoryController<NullSink, M>, f64) {
    let mut mc = controller(rec.cfg, metrics);
    let t = Instant::now();
    feed(&mut mc, &rec.arrivals);
    let now = mc.now().raw();
    mc.run_for(rec.outcome.mc_cycles.saturating_sub(now));
    (mc, t.elapsed().as_secs_f64())
}

/// Replays the first `n` arrivals of `rec` with command logging on, runs
/// until the queues drain, and checks the logged commands with the
/// reference protocol checker. Returns the number of commands checked.
///
/// The reference checker is quadratic in the log length, so `n` stays in
/// the thousands.
pub fn validate_prefix(rec: &Recording, n: usize) -> Result<u64, String> {
    let n = n.min(rec.arrivals.len());
    let mut mc = controller(rec.cfg, NullMetrics);
    mc.enable_command_logging(8 * n + 4096);
    feed(&mut mc, &rec.arrivals[..n]);
    drain(&mut mc);
    let log = mc
        .device()
        .command_log()
        .expect("command logging was enabled");
    let banks = u32::try_from(rec.cfg.dram.geometry.banks_per_rank)
        .map_err(|_| "banks per rank exceed u32".to_string())?;
    log.replay_validate(&rec.cfg.dram.timings, banks)?;
    Ok(log.recorded())
}

/// Modelled-system totals of one or more runs, plus a digest of their
/// full controller and device statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Model {
    pub mc_cycles: u64,
    pub requests: u64,
    reads: u64,
    read_latency: u64,
    acts: u64,
    reduced_acts: u64,
    pub digest: u64,
}

impl Model {
    pub fn of(o: &Outcome) -> Self {
        let s = &o.stats;
        Model {
            mc_cycles: o.mc_cycles,
            requests: s.reads_completed + s.writes_drained,
            reads: s.reads_completed,
            read_latency: s.total_read_latency,
            acts: s.acts_for_reads + s.acts_for_writes,
            reduced_acts: o.device.reduced_activates,
            digest: fnv1a(FNV_OFFSET, format!("{o:?}").as_bytes()),
        }
    }

    /// Accumulates another run (the digest chains, so order matters).
    pub fn add(&mut self, other: &Model) {
        self.mc_cycles += other.mc_cycles;
        self.requests += other.requests;
        self.reads += other.reads;
        self.read_latency += other.read_latency;
        self.acts += other.acts;
        self.reduced_acts += other.reduced_acts;
        self.digest = fnv1a(self.digest, &other.digest.to_le_bytes());
    }

    pub fn avg_read_latency(&self) -> f64 {
        self.read_latency as f64 / self.reads.max(1) as f64
    }

    pub fn reduced_act_share(&self) -> f64 {
        self.reduced_acts as f64 / self.acts.max(1) as f64
    }
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `hash`.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}
