//! The memory controller: queues + candidate enumeration + refresh
//! management + one scheduling decision per cycle.
//!
//! Each controller owns one channel's [`DramDevice`]. The per-cycle flow
//! (`tick`) is:
//!
//! 1. advance the policy's per-cycle state (PHRC windows),
//! 2. refresh management: when a rank's refresh batch is pending, stop
//!    opening new rows there, force columns to auto-precharge, and issue
//!    the `REF` as soon as every bank is idle,
//! 3. enumerate the next required command of every queued request,
//!    keeping only those issuable *this* cycle,
//! 4. let the policy pick one and issue it,
//! 5. if nothing else issued and a refresh is pending, force-close an
//!    open bank.
//!
//! Candidate legality is pre-filtered with cheap per-bank/per-rank gate
//! checks that mirror the device's rule set; the final `issue` call
//! re-validates everything (including the charge-physics check), so any
//! divergence between the two is caught immediately.

use crate::candidate::{Candidate, CandidateKind};
use crate::pbr::PbrAcquisition;
use crate::queues::{RequestQueues, NO_SLOT};
use crate::request::{MemoryRequest, RequestId, RequestKind};
use crate::scheduler::{PolicyView, SchedulerKind, SchedulerPolicy};
use crate::stats::ControllerStats;
use crate::wheel::{BankWheel, PARKED};
use nuat_circuit::PbGrouping;
use nuat_dram::{
    BankGates, BankLanes, BankState, DramCommand, DramDevice, LegalityTable, RankTimingView,
    RefreshEngine, IDLE_ROW,
};
use nuat_obs::{
    Counter, EpochCadence, EpochSample, Hist, MetricsSink, NullMetrics, NullSink, TraceEvent,
    TraceSink,
};
use nuat_types::{Bank, McCycle, PhysAddr, Rank, Row, SystemConfig};

/// A read request whose data has returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The finished request.
    pub request: MemoryRequest,
    /// Cycle the last data beat arrived.
    pub done: McCycle,
}

/// Reusable per-tick working memory. Every buffer here used to be a
/// fresh allocation inside `tick`/`enumerate_candidates`; hoisting them
/// into the controller makes the steady-state cycle loop allocation-free
/// (buffers reach their high-water size within a few cycles and are then
/// only cleared and refilled).
///
/// Invariants: contents are meaningless between ticks (except the
/// per-bank gate cache, whose validity is tracked explicitly by
/// generation) — every other user must clear/refill before reading; the
/// buffers are moved out of the controller (`std::mem::take`) for the
/// duration of a tick so the borrow checker sees them as disjoint from
/// the controller's state.
#[derive(Debug, Default)]
struct TickScratch {
    /// Per-rank "refresh wants this rank drained" flags.
    pending: Vec<bool>,
    /// The previous tick-pipeline's `pending` flags (swapped in by the
    /// acting-tick re-key before `pending` is refreshed at the
    /// post-tick clock): the batch sweep re-uses an untouched rank's
    /// enumeration verdicts only while its flag provably held.
    pending_prev: Vec<bool>,
    /// True once this tick's wheel enumeration has run — the signal
    /// that `rekeys` holds the tick's verdicts (the early-return tick
    /// shapes skip enumeration, leaving the due entries uncovered).
    enumerated: bool,
    /// Per-rank last-refreshed-row snapshot.
    lrras: Vec<Row>,
    /// Refresh count (`stats.refreshes`) at which `lrras` was filled.
    /// The LRRA only advances when a `REF` issues, so the snapshot
    /// stays valid — and the per-tick refill can be skipped — until
    /// the counter moves.
    lrras_gen: u64,
    /// This cycle's issuable candidates.
    candidates: Vec<Candidate>,
    /// The slab slot of each candidate's request, parallel to
    /// `candidates` (`NO_SLOT` for precharges, which leave their
    /// request queued). Lets the issue path remove the chosen column's
    /// request in O(1) instead of re-walking its bank list, and gives
    /// an issued activate the hint `note_row_open` needs to skip its
    /// match-list rebuild walk.
    candidate_slots: Vec<u32>,
    /// Per-bank earliest-legal-cycle cache: the bank's contribution to
    /// the gate horizon the last time it was enumerated and produced no
    /// candidate. While valid (see `bank_gate_gen`) and still in the
    /// future, the bank's whole enumeration — request walk, legality
    /// probes — is skipped and this value reused; the timing gates are
    /// monotone and every other input is generation-tracked, so the
    /// reused value is exactly what a re-enumeration would produce.
    bank_gate: Vec<u64>,
    /// Generation stamp per `bank_gate` entry: valid iff equal to the
    /// controller's `gate_gen`, which bumps on every device mutation
    /// (command issue, power transition); an enqueue invalidates just
    /// its target bank. 0 is never a live generation.
    bank_gate_gen: Vec<u64>,
    /// Refresh-pending flag the cached entry was computed under; a
    /// pending flip changes a bank's candidate shape without any device
    /// mutation, so it is checked alongside the generation.
    bank_gate_pending: Vec<bool>,
    /// Per-rank "idle counter advances during a quiet span" mask,
    /// filled by `next_busy_event_cycle` and read by `advance_quiet`.
    /// Valid exactly while `busy_horizon` is `Some`.
    counting: Vec<bool>,
    /// This tick's due wheel entries (sorted ascending — the full
    /// scan's bank visit order), snapshotted at the top of every full
    /// tick while the wheel is enabled.
    ready_banks: Vec<u32>,
    /// Re-key verdicts collected during wheel-driven enumeration
    /// (which holds `&self`) and applied by `post_tick_rekey`.
    rekeys: Vec<(u32, u64)>,
    /// Per-rank packed legality tables for the batch kernel: the four
    /// earliest-legal-cycle lanes (plus the rank-gate snapshot) the
    /// SWAR legality compare and batch key derivation run over.
    legality: Vec<LegalityTable>,
    /// Validity stamp per legality table: fresh iff equal to the
    /// controller's `gate_gen` (tables depend only on device state, so
    /// the device-mutation generation is exactly their invalidation
    /// signal — a table survives any number of non-acting ticks).
    legality_gen: Vec<u64>,
    /// One rank's batch-derived bank keys (dense, bank-indexed), the
    /// staging buffer `batch_bank_keys` fills and `rekey_range` drains.
    rank_keys: Vec<u64>,
    /// Earliest cycle any gated-out queued request clears its timing
    /// gates, accumulated as a by-product of candidate enumeration so
    /// `next_busy_event_cycle` needs no second queue scan. Valid for
    /// the tick that last ran `enumerate_candidates` (a non-acting
    /// tick leaves queues and device state untouched, so the absolute
    /// gate times stay exact when the horizon is taken right after).
    cand_horizon: u64,
}

/// Starts a wall-clock phase timer — `None` (and no clock read) unless
/// the metrics sink is enabled, so the uninstrumented hot path never
/// touches the clock. Timestamps come from [`nuat_obs::clock`] (the
/// calibrated TSC on x86-64): at four phase boundaries per issuing
/// tick, a `clock_gettime`-class read is a measurable slice of the
/// phases being measured, so the cheap clock lowers both the overhead
/// and the attribution error.
#[inline(always)]
fn phase_start<M: MetricsSink>() -> Option<u64> {
    if M::ENABLED {
        Some(nuat_obs::clock::now())
    } else {
        None
    }
}

/// Credits the elapsed wall time since `t0` to phase counter `c`.
#[inline(always)]
fn phase_end<M: MetricsSink>(metrics: &mut M, c: Counter, t0: Option<u64>) {
    if let Some(t0) = t0 {
        metrics.add(c, nuat_obs::clock::now().saturating_sub(t0));
    }
}

/// Ends phase `c` and starts the next one with a single clock read.
/// Adjacent phases share their boundary timestamp: an end/start pair
/// costs two clock reads per boundary and parks a whole extra
/// clock-read latency inside the downstream phase's measurement, so
/// the instrumented pipeline both runs and reads faster this way.
#[inline(always)]
fn phase_cut<M: MetricsSink>(metrics: &mut M, c: Counter, t0: Option<u64>) -> Option<u64> {
    if M::ENABLED {
        let t = nuat_obs::clock::now();
        if let Some(t0) = t0 {
            metrics.add(c, t.saturating_sub(t0));
        }
        Some(t)
    } else {
        None
    }
}

/// One channel's memory controller. See the module docs.
///
/// The controller is generic over a [`TraceSink`] receiving structured
/// instrumentation events and a [`MetricsSink`] receiving counter /
/// histogram increments; the defaults ([`NullSink`] / [`NullMetrics`])
/// compile every emission site out (static dispatch on zero-sized
/// types whose `ENABLED` flags are `false`), so an uninstrumented
/// controller is bit-identical — in behaviour *and* speed — to one
/// with no instrumentation at all. Sinks and metrics observe and never
/// influence the simulation.
#[derive(Debug)]
pub struct MemoryController<S: TraceSink = NullSink, M: MetricsSink = NullMetrics> {
    cfg: SystemConfig,
    device: DramDevice,
    queues: RequestQueues,
    policy: Box<dyn SchedulerPolicy>,
    pbr: PbrAcquisition,
    stats: ControllerStats,
    completions: Vec<Completion>,
    now: McCycle,
    scratch: TickScratch,
    /// Device-mutation generation for the per-bank gate cache in
    /// `scratch`: bumped on every command issue and power transition,
    /// so a cached bank gate is trusted only while the device (and the
    /// bank's request set, which only shrinks via issue) is provably
    /// unchanged. Starts at 1 so zeroed cache entries are never valid.
    gate_gen: u64,
    /// Opt-in stall diagnostics (set `NUAT_STALL_DEBUG=<cycles>`): dump
    /// queue/bank state when a request has waited this long.
    stall_debug: Option<u64>,
    stall_reported: bool,
    /// Per-rank cycles with no queued work (drives power-down entry).
    rank_idle_cycles: Vec<u64>,
    /// Event-driven busy skipping (set `NUAT_NO_SKIP=1` to disable):
    /// when a tick issues nothing, the earliest cycle at which *any*
    /// command could become legal is computed once and the dead span up
    /// to it is bulk-advanced instead of re-enumerated cycle by cycle.
    skip_enabled: bool,
    /// Cached event horizon: every cycle in `[now, h)` is provably
    /// quiet (no command legal, no refresh-urgency change, no
    /// power-state decision). `None` = unknown, recompute after the
    /// next real tick. Invalidated by `enqueue_decoded`.
    busy_horizon: Option<u64>,
    /// Incremental ready-set index (set `NUAT_NO_WHEEL=1` to disable):
    /// one earliest-actionable-cycle key per `(rank, bank)` pair plus
    /// one per-rank refresh marker. While enabled, candidate
    /// enumeration visits only due entries and the event horizon is an
    /// O(1) wheel peek — including after acting ticks, which the
    /// legacy path always follows with a full re-enumeration.
    wheel: BankWheel,
    /// Whether the wheel drives enumeration; the legacy full scan (and
    /// its per-bank gate cache) is kept intact behind this flag as the
    /// `prop_wheel_equals_scan` oracle and escape hatch.
    wheel_enabled: bool,
    /// Discrete-event mode (set `NUAT_NO_DES=1` to disable): with the
    /// wheel active, arrivals re-key their bank with an *exact*
    /// earliest-actionable key (instead of conservatively pinning it
    /// due-now) and merge it into the cached horizon rather than
    /// discarding it, and an issue re-keys every bank of its rank
    /// exactly (the device's gate mutations are rank-scoped, so the
    /// sweep leaves no conservatively-early keys behind). Together
    /// these keep the controller inside bulk-advanced quiet spans
    /// across traffic instead of dropping to per-cycle stepping on
    /// every arrival. Requires the wheel; purely a speed knob — the
    /// command stream is bit-identical either way.
    des_enabled: bool,
    /// Batch issuing-tick kernel (set `NUAT_NO_BATCH=1` to disable):
    /// with the wheel active, candidate enumeration and the post-issue
    /// re-key sweep evaluate whole ranks at once — packed legality
    /// lanes compared lane-wise against `now`, bank keys derived
    /// branchlessly from two queue-mask loads, the horizon min fused
    /// into the same pass — instead of per-bank branch ladders. Purely
    /// a speed knob: the scalar per-bank path is retained verbatim as
    /// the oracle and escape hatch, and the command stream is
    /// bit-identical either way.
    batch_enabled: bool,
    /// Per rank: the pending flag each refresh marker was last keyed
    /// with. While the flag is unchanged (and no `REF` issues, and the
    /// marker is not due) the marker's key needs no re-derivation.
    marker_pending: Vec<bool>,
    /// Full pipeline passes (`tick_inner` executions) — the cycles that
    /// were *not* crossed by quiet-span or idle fast-forwarding
    /// (diagnostic; deliberately not part of `ControllerStats`).
    full_ticks: u64,
    /// Cycles advanced through `advance_quiet` instead of full ticks
    /// (diagnostic; deliberately not part of `ControllerStats`, which
    /// must stay bit-identical between skipping and per-tick modes).
    cycles_skipped: u64,
    /// The instrumentation sink. [`NullSink`] by default; see the type
    /// docs.
    sink: S,
    /// The metrics sink. [`NullMetrics`] by default; see the type docs.
    metrics: M,
    /// Requests accepted since the last full tick (feeds the
    /// enqueue-batch histogram). Only maintained while `M::ENABLED`.
    enq_since_tick: u32,
    /// Quiet-span coalescer `(from, cycles, busy)`: consecutive skipped
    /// cycles of the same kind merge into one [`TraceEvent::QuietSpan`],
    /// flushed when a real tick (or any stamped event) interrupts the
    /// span. Always `None` under [`NullSink`].
    quiet_acc: Option<(u64, u64, bool)>,
    /// Epoch time-series cadence, when sampling is enabled (see
    /// [`set_sample_interval`](Self::set_sample_interval)).
    sampler: Option<EpochCadence>,
}

impl MemoryController {
    /// Builds a controller with the paper's 5PB grouping.
    pub fn new(cfg: SystemConfig, kind: SchedulerKind) -> Self {
        Self::with_grouping(cfg, kind, PbGrouping::paper(5))
    }

    /// Builds a controller with an explicit PB grouping (the #PB
    /// sensitivity axis of Fig. 21).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_grouping(cfg: SystemConfig, kind: SchedulerKind, grouping: PbGrouping) -> Self {
        let pbr = PbrAcquisition::new(grouping, cfg.dram.geometry.rows_per_bank, &cfg.dram.timings);
        let policy = kind.build(&pbr, &cfg.dram.timings);
        Self::from_parts(cfg, policy, pbr, NullSink, NullMetrics)
    }

    /// Builds a controller around a caller-supplied scheduling policy.
    /// This is the extension point for custom schedulers; note that the
    /// DRAM device validates every activation's promised timings against
    /// the row's charge state, so a policy that over-promises panics the
    /// controller rather than corrupting the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_policy(
        cfg: SystemConfig,
        policy: Box<dyn SchedulerPolicy>,
        grouping: PbGrouping,
    ) -> Self {
        let pbr = PbrAcquisition::new(grouping, cfg.dram.geometry.rows_per_bank, &cfg.dram.timings);
        Self::from_parts(cfg, policy, pbr, NullSink, NullMetrics)
    }
}

impl<S: TraceSink> MemoryController<S> {
    /// Builds an instrumented controller: like
    /// [`with_grouping`](MemoryController::with_grouping), but every
    /// structured event (and epoch sample, once
    /// [`set_sample_interval`](Self::set_sample_interval) is called)
    /// flows into `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_sink(
        cfg: SystemConfig,
        kind: SchedulerKind,
        grouping: PbGrouping,
        sink: S,
    ) -> Self {
        MemoryController::with_instrumentation(cfg, kind, grouping, sink, NullMetrics)
    }
}

impl<S: TraceSink, M: MetricsSink> MemoryController<S, M> {
    /// Builds a fully-instrumented controller: structured events flow
    /// into `sink`, counters and histograms into `metrics`. Either side
    /// can be the null implementation, which compiles its half out.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_instrumentation(
        cfg: SystemConfig,
        kind: SchedulerKind,
        grouping: PbGrouping,
        sink: S,
        metrics: M,
    ) -> Self {
        let pbr = PbrAcquisition::new(grouping, cfg.dram.geometry.rows_per_bank, &cfg.dram.timings);
        let policy = kind.build(&pbr, &cfg.dram.timings);
        Self::from_parts(cfg, policy, pbr, sink, metrics)
    }

    /// Shared constructor tail: both public builders used to construct
    /// the PBR block twice (once to seed the policy, once discarded and
    /// rebuilt); now each builds it exactly once and hands it here.
    fn from_parts(
        cfg: SystemConfig,
        mut policy: Box<dyn SchedulerPolicy>,
        mut pbr: PbrAcquisition,
        sink: S,
        metrics: M,
    ) -> Self {
        cfg.validate().expect("invalid system config");
        let mut device = DramDevice::new(cfg.dram);
        // Postponement and its PBR derate must travel together (the
        // device's charge validator enforces this pairing at run time).
        device.set_refresh_postpone_budget(cfg.controller.refresh_postpone_batches);
        pbr.set_postpone_derate(cfg.controller.refresh_postpone_batches);
        let ranks = cfg.dram.geometry.ranks_per_channel as usize;
        let banks_per_rank = cfg.dram.geometry.banks_per_rank as usize;
        let banks = ranks * banks_per_rank;
        policy.bind_topology(ranks, banks_per_rank);
        let stats = ControllerStats::new(cfg.processor.cores, pbr.n_pb(), banks);
        let stall_debug: Option<u64> = std::env::var("NUAT_STALL_DEBUG")
            .ok()
            .and_then(|v| v.parse().ok());
        // Stall diagnostics want to observe every real cycle, so they
        // force the per-tick loop too.
        let skip_enabled = std::env::var("NUAT_NO_SKIP").map_or(true, |v| v.is_empty() || v == "0")
            && stall_debug.is_none();
        let wheel_enabled =
            std::env::var("NUAT_NO_WHEEL").map_or(true, |v| v.is_empty() || v == "0");
        let des_enabled = std::env::var("NUAT_NO_DES").map_or(true, |v| v.is_empty() || v == "0");
        let batch_enabled =
            std::env::var("NUAT_NO_BATCH").map_or(true, |v| v.is_empty() || v == "0");
        // Banks start parked (no requests); the per-rank refresh
        // markers start due so the first full tick derives their real
        // transition keys.
        let mut wheel = BankWheel::new(banks + ranks);
        for r in 0..ranks {
            wheel.rekey((banks + r) as u32, 0);
        }
        MemoryController {
            queues: RequestQueues::new(cfg.controller, ranks, banks_per_rank),
            device,
            policy,
            pbr,
            stats,
            completions: Vec::new(),
            now: McCycle::ZERO,
            scratch: TickScratch::default(),
            gate_gen: 1,
            stall_debug,
            stall_reported: false,
            rank_idle_cycles: vec![0; ranks],
            skip_enabled,
            busy_horizon: None,
            wheel,
            wheel_enabled,
            des_enabled,
            batch_enabled,
            marker_pending: vec![false; ranks],
            full_ticks: 0,
            cycles_skipped: 0,
            sink,
            metrics,
            enq_since_tick: 0,
            quiet_acc: None,
            sampler: None,
            cfg,
        }
    }

    /// Enables epoch time-series sampling: every `interval` memory
    /// cycles a cumulative-counter snapshot ([`EpochSample`]) is pushed
    /// to the sink, including boundaries crossed inside bulk-skipped
    /// spans (whose state is constant, so the samples are exact).
    ///
    /// Sampling is tied to the sink: under [`NullSink`] (or any sink
    /// with `ENABLED == false`) the cadence is never polled, so the
    /// default controller pays nothing for this machinery.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn set_sample_interval(&mut self, interval: u64) {
        self.sampler = Some(EpochCadence::new(interval));
    }

    /// The instrumentation sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Flushes pending instrumentation (the open quiet span and, when
    /// sampling is on, one final off-boundary epoch sample at the
    /// current cycle) and calls the sink's `finish`. Idempotent in
    /// effect only if no further cycles run afterwards.
    pub fn finish_trace(&mut self) {
        self.flush_quiet();
        if let Some(c) = self.sampler {
            let (epoch, cycle) = c.final_point(self.now.raw());
            // Skip the extra sample when the run ended exactly on the
            // last sampled boundary.
            if epoch == 0 || cycle + c.interval() != c.next_boundary() {
                let s = self.build_sample(epoch, cycle);
                self.sink.on_epoch(&s);
            }
        }
        if M::ENABLED {
            self.refresh_wheel_gauges();
            self.metrics.flush(self.now.raw());
            if S::ENABLED {
                if let Some(rec) = self.metrics.recorder() {
                    self.sink.on_metrics(rec);
                }
            }
        }
        self.sink.finish();
        self.metrics.finish();
    }

    /// Finishes the trace (see [`finish_trace`](Self::finish_trace)) and
    /// returns the sink, consuming the controller.
    pub fn into_sink(mut self) -> S {
        self.finish_trace();
        self.sink
    }

    /// Finishes the trace and returns both instrumentation halves,
    /// consuming the controller.
    pub fn into_instrumentation(mut self) -> (S, M) {
        self.finish_trace();
        (self.sink, self.metrics)
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &M {
        &self.metrics
    }

    /// The metrics sink, mutably (system loops credit completion-drain
    /// phase time here).
    pub fn metrics_mut(&mut self) -> &mut M {
        &mut self.metrics
    }

    /// Copies the wheel's current health accounting into the metric
    /// gauges (overflow length, stale estimate, live entries,
    /// compaction count). Called at sample boundaries and at
    /// end-of-run.
    fn refresh_wheel_gauges(&mut self) {
        self.metrics
            .set_gauge(Counter::WheelOverflowLen, self.wheel.overflow_len() as u64);
        self.metrics
            .set_gauge(Counter::WheelStale, self.wheel.stale_estimate() as u64);
        self.metrics
            .set_gauge(Counter::WheelLive, self.wheel.live_entries() as u64);
        self.metrics
            .set_gauge(Counter::WheelCompactions, self.wheel.compactions());
    }

    /// Emits the quiet span accumulated so far, if any.
    fn flush_quiet(&mut self) {
        if S::ENABLED {
            if let Some((from, cycles, busy)) = self.quiet_acc.take() {
                self.sink
                    .on_event(&TraceEvent::QuietSpan { from, cycles, busy });
            }
        }
    }

    /// Extends the current quiet span by `n` cycles starting at `from`,
    /// flushing first when the kind changes or the span is not
    /// contiguous.
    fn note_quiet(&mut self, from: u64, n: u64, busy: bool) {
        if S::ENABLED {
            match &mut self.quiet_acc {
                Some((f, c, b)) if *b == busy && *f + *c == from => *c += n,
                _ => {
                    self.flush_quiet();
                    self.quiet_acc = Some((from, n, busy));
                }
            }
        }
    }

    /// Pushes a sample for every epoch boundary at or before `now`.
    /// Called after every clock advance; a bulk advance crossing several
    /// boundaries yields one (exact) sample per boundary, because a
    /// provably-quiet span's state is constant.
    fn sample_epochs(&mut self) {
        if self.sampler.is_none() {
            return;
        }
        let now = self.now.raw();
        while let Some((epoch, cycle)) = self.sampler.as_mut().expect("checked above").pop_due(now)
        {
            let s = self.build_sample(epoch, cycle);
            self.sink.on_epoch(&s);
        }
    }

    /// Snapshots the epoch sample for boundary `cycle`. Counter fields
    /// are cumulative (the final sample equals end-of-run statistics);
    /// queue and bank fields are instantaneous.
    fn build_sample(&self, epoch: u64, cycle: u64) -> EpochSample {
        let (read_queue, write_queue) = self.queues.occupancy();
        let d = self.device.stats();
        EpochSample {
            epoch,
            cycle,
            read_queue: read_queue as u32,
            write_queue: write_queue as u32,
            active_banks: self.device.open_bank_count(),
            bank_active_cycles: d.bank_active_cycles,
            reads_completed: self.stats.reads_completed,
            writes_drained: self.stats.writes_drained,
            total_read_latency: self.stats.total_read_latency,
            acts_for_reads: self.stats.acts_for_reads,
            acts_for_writes: self.stats.acts_for_writes,
            cols_read: self.stats.cols_read,
            cols_write: self.stats.cols_write,
            precharges: self.stats.precharges,
            refreshes: self.stats.refreshes,
            busy_cycles: self.stats.busy_cycles,
            cycles_skipped: self.cycles_skipped,
            reduced_activates: d.reduced_activates,
            trcd_cycles_saved: d.trcd_cycles_saved,
            tras_cycles_saved: d.tras_cycles_saved,
            pb_acts: self.stats.pb_act_histogram.clone(),
        }
    }

    /// Current controller cycle.
    pub fn now(&self) -> McCycle {
        self.now
    }

    /// The DRAM device (for inspection).
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The policy's display name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// The queues (occupancy, drain mode).
    pub fn queues(&self) -> &RequestQueues {
        &self.queues
    }

    /// The PBR acquisition block in use.
    pub fn pbr(&self) -> &PbrAcquisition {
        &self.pbr
    }

    /// The policy's internal hit-rate estimate, if it keeps one (the
    /// PHRC value for NUAT; `None` for the baselines).
    pub fn pseudo_hit_rate(&self) -> Option<f64> {
        self.policy.pseudo_hit_rate()
    }

    /// Enables or disables event-driven busy skipping at run time
    /// (tests use this for A/B comparisons without racing on the
    /// `NUAT_NO_SKIP` environment variable). Skipping never changes
    /// simulated behaviour — only how many cycles are executed one by
    /// one — so this is purely a speed/diagnostics knob.
    pub fn set_cycle_skip(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
        self.busy_horizon = None;
    }

    /// Enables or disables the incremental ready-set wheel at run time
    /// (tests use this for A/B comparisons without racing on the
    /// `NUAT_NO_WHEEL` environment variable). Like cycle skipping, the
    /// wheel never changes simulated behaviour — only which cycles pay
    /// for a full enumeration — so this is purely a speed/diagnostics
    /// knob.
    pub fn set_wheel(&mut self, enabled: bool) {
        if self.wheel_enabled == enabled {
            return;
        }
        self.wheel_enabled = enabled;
        self.busy_horizon = None;
        if enabled {
            // The wheel was not maintained while disabled: every entry
            // is conservatively due now, and the next full tick
            // re-derives exact keys for all of them.
            self.wheel.advance_to(self.now.raw());
            let entries =
                self.queues.total_banks() + self.cfg.dram.geometry.ranks_per_channel as usize;
            for e in 0..entries as u32 {
                self.wheel.rekey(e, self.now.raw());
            }
            if M::ENABLED {
                self.metrics.add(Counter::WheelRekeys, entries as u64);
            }
        } else {
            // The legacy per-bank gate cache was not refreshed while
            // the wheel drove enumeration; force cold passes.
            self.gate_gen += 1;
        }
    }

    /// Enables or disables discrete-event arrival/issue re-keying at
    /// run time (tests use this for A/B comparisons without racing on
    /// the `NUAT_NO_DES` environment variable). Like the wheel and
    /// cycle skipping it never changes simulated behaviour, only how
    /// many cycles are executed as full ticks. No key fixup is needed
    /// on toggle: DES keys are exact and non-DES keys are conservative
    /// lower bounds, and each mode tolerates the other's keys.
    pub fn set_des(&mut self, enabled: bool) {
        self.des_enabled = enabled;
        self.busy_horizon = None;
    }

    /// True while arrivals/issues maintain exact event-calendar keys
    /// (the wheel must be active for DES to have a calendar to keep).
    fn des_active(&self) -> bool {
        self.des_enabled && self.wheel_enabled
    }

    /// Enables or disables the batch issuing-tick kernel at run time
    /// (tests use this for A/B comparisons without racing on the
    /// `NUAT_NO_BATCH` environment variable). No key fixup is needed on
    /// toggle: both the batch and the scalar path maintain keys the
    /// other accepts (batch keys are exact, scalar keys are exact or
    /// conservative lower bounds). Purely a speed/diagnostics knob —
    /// the command stream is bit-identical either way.
    pub fn set_batch_kernel(&mut self, enabled: bool) {
        self.batch_enabled = enabled;
        self.busy_horizon = None;
    }

    /// True while the batch kernel drives enumeration and re-keying:
    /// it batches the *wheel* pipeline (the legacy full scan is its own
    /// escape hatch), and the branchless key selects need the queues'
    /// per-rank bank bitmaps (`banks_per_rank <= 64`).
    fn batch_active(&self) -> bool {
        self.batch_enabled
            && self.wheel_enabled
            && self.queues.masks_valid()
            && self.cfg.dram.geometry.ranks_per_channel <= 64
    }

    /// Cycles advanced in bulk by busy skipping instead of full ticks
    /// (diagnostic; not part of [`ControllerStats`]).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Full pipeline passes executed (cycles not crossed in bulk by
    /// quiet-span or idle fast-forwarding; diagnostic, not part of
    /// [`ControllerStats`]).
    pub fn full_ticks(&self) -> u64 {
        self.full_ticks
    }

    /// Slots currently in the wheel's lazy-deletion overflow heap
    /// (diagnostic: the heap-compaction regression test bounds this).
    pub fn wheel_overflow_len(&self) -> usize {
        self.wheel.overflow_len()
    }

    /// How many cycles from `now` are provably quiet and could be
    /// skipped in one step (0 when unknown or when the current cycle
    /// needs a real tick). Lockstep multi-channel drivers take the min
    /// across channels and `run_for` that span on each.
    pub fn skippable_cycles(&self) -> u64 {
        self.busy_horizon
            .map_or(0, |h| h.saturating_sub(self.now.raw()))
    }

    /// Starts recording every accepted DRAM command into a ring buffer
    /// (see `nuat_dram::CommandLog` for dumping and replay validation).
    pub fn enable_command_logging(&mut self, capacity: usize) {
        self.device.enable_logging(capacity);
    }

    /// Resets the accumulated statistics (warmup support): counters and
    /// histograms restart from zero while all simulation state — queues,
    /// bank states, charge, refresh position — is preserved.
    pub fn reset_stats(&mut self) {
        let banks = (self.cfg.dram.geometry.ranks_per_channel
            * self.cfg.dram.geometry.banks_per_rank) as usize;
        self.stats = ControllerStats::new(self.cfg.processor.cores, self.pbr.n_pb(), banks);
    }

    /// True if a request of `kind` can be accepted this cycle.
    pub fn can_accept(&self, kind: RequestKind) -> bool {
        self.queues.has_room(kind)
    }

    /// Enqueues a memory access. The address is decoded with the
    /// configured mapping; this controller serves channel 0 of the
    /// decode (callers with multiple channels route beforehand).
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full (check
    /// [`can_accept`](Self::can_accept)).
    pub fn enqueue(&mut self, core: usize, kind: RequestKind, addr: PhysAddr) -> RequestId {
        let decoded = self
            .cfg
            .dram
            .geometry
            .decode(addr, self.cfg.controller.mapping);
        self.enqueue_decoded(core, kind, decoded)
    }

    /// Enqueues an already-decoded request (multi-channel callers route
    /// on the decoded channel and hand each controller its share; the
    /// channel field itself is ignored here).
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full.
    pub fn enqueue_decoded(
        &mut self,
        core: usize,
        kind: RequestKind,
        addr: nuat_types::DecodedAddr,
    ) -> RequestId {
        // A new request changes exactly one bank's candidate shape:
        // drop that bank's cached gate. (Pending-flag effects on *other*
        // banks are covered by the cache's pending check, not the
        // generation.)
        let key =
            addr.rank.index() * self.cfg.dram.geometry.banks_per_rank as usize + addr.bank.index();
        if let Some(g) = self.scratch.bank_gate_gen.get_mut(key) {
            *g = 0;
        }
        if S::ENABLED {
            self.flush_quiet();
            self.sink.on_event(&TraceEvent::Enqueue {
                at: self.now.raw(),
                core: core as u32,
                is_write: kind == RequestKind::Write,
                rank: addr.rank.raw(),
                bank: addr.bank.raw(),
                row: addr.row.raw(),
            });
        }
        let des = self.des_active();
        let r = addr.rank.index();
        let bi = addr.bank.index();
        let rank = addr.rank;
        // Pre-push occupancy snapshots feed the DES side-effect guards
        // below (the push itself can flip a rank's postponable-refresh
        // decision or a power-down countdown).
        let was_empty = des && self.queues.is_empty();
        let rank_was_empty = des && self.queues.rank_len(r) == 0;
        let bank_was_empty = des && self.queues.bank_len(key) == 0;
        let pre_hits = if des {
            self.queues.hit_counts(key)
        } else {
            (0, 0)
        };
        let id = self.queues.push(MemoryRequest {
            id: RequestId(0), // assigned by the queue
            core,
            kind,
            addr,
            arrival: self.now,
        });
        if M::ENABLED {
            self.enq_since_tick += 1;
            self.metrics.add(Counter::EnqueuedRequests, 1);
            self.metrics
                .observe(Hist::QueueDepth, u64::from(self.queues.bank_len(key)));
            let (r_occ, w_occ) = self.queues.occupancy();
            self.metrics
                .lift_max(Counter::SlabHighWater, (r_occ + w_occ) as u64);
        }
        if !des {
            // Tick/skip fallback: arrival is one of the two events that
            // can make a bank actionable *earlier* than its wheel key
            // (the other being refresh-window edges). End any cached
            // quiet span and pull the bank due now; the next full tick
            // re-derives its exact key.
            self.busy_horizon = None;
            if self.wheel_enabled {
                self.wheel.rekey(key as u32, self.now.raw());
                if M::ENABLED {
                    self.metrics.add(Counter::WheelRekeys, 1);
                }
            }
            return id;
        }
        // DES path: the arrival's only effect on wheel keys is the
        // target bank's own (no device gate moved, and other banks'
        // keys are conservative bounds revalidated at enumeration), so
        // compute that bank's *exact* key and merge it into the cached
        // horizon instead of discarding the whole quiet span. Two
        // side-effect cases fall back to a due-now pin + full re-derive:
        //
        // * power management: a powered-down rank needs a real tick to
        //   take the demand wake, and an arrival to a drained rank
        //   restarts its idle countdown;
        // * postponable refresh: the first request into empty queues
        //   flips every postponing rank's pending flag, moving marker
        //   keys this O(1) path does not touch.
        let powerdown = self.cfg.controller.powerdown_after_idle > 0;
        let postponing = self.cfg.controller.refresh_postpone_batches > 0;
        if (powerdown && (rank_was_empty || self.device.is_powered_down(rank)))
            || (postponing && was_empty)
        {
            self.busy_horizon = None;
            self.wheel.rekey(key as u32, self.now.raw());
            if M::ENABLED {
                self.metrics.add(Counter::WheelRekeys, 1);
            }
            return id;
        }
        // An arrival leaves the bank's key valid unless it was the
        // bank's first request (PARKED → real key) or the first
        // row-hit of its kind (a column gate may undercut the old
        // key). Anything else only appends to the FCFS tail: the
        // oldest-request representative and the hit-gate min are
        // untouched, so both the wheel key and the cached horizon
        // stand as-is and the common enqueue costs nothing.
        if !bank_was_empty {
            let post_hits = self.queues.hit_counts(key);
            let first_hit = match kind {
                RequestKind::Read => pre_hits.0 == 0 && post_hits.0 > 0,
                RequestKind::Write => pre_hits.1 == 0 && post_hits.1 > 0,
            };
            if !first_hit {
                return id;
            }
        }
        use nuat_dram::refresh::RefreshUrgency::*;
        let pending = match self.device.refresh_engine(rank).urgency(self.now) {
            NotDue => false,
            Overdue => true,
            // Post-push the queues are non-empty, so a postpone budget
            // always defers (mirrors `compute_refresh_pending`).
            Pending | Postponable => !postponing,
        };
        let rt = self.device.rank_timing(rank);
        let lanes = self.device.bank_lanes(rank);
        let k = self.bank_key(key, bi, pending, &rt, &lanes);
        self.wheel.rekey(key as u32, k);
        if M::ENABLED {
            self.metrics.add(Counter::WheelRekeys, 1);
            if k != PARKED {
                self.metrics
                    .observe(Hist::WheelSlack, k.saturating_sub(self.now.raw()));
            }
        }
        self.busy_horizon = self.busy_horizon.map(|h| h.min(k));
        id
    }

    /// Drains the completed reads recorded since the last call.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Appends the completed reads recorded since the last drain to
    /// `out`, leaving the internal buffer (and its capacity) in place.
    /// Callers polling every cycle should prefer this over
    /// [`take_completions`](Self::take_completions): one caller-owned
    /// buffer is reused instead of a fresh `Vec` per poll.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completions);
    }

    /// True when no request is queued (used by run loops to terminate).
    pub fn is_idle(&self) -> bool {
        self.queues.is_empty()
    }

    /// Advances one controller cycle, issuing at most one command.
    ///
    /// When the cached event horizon proves this cycle quiet — no
    /// command can be legal, no refresh-urgency change, no power-state
    /// decision — the full pipeline (power management, refresh scan,
    /// candidate enumeration, policy) is skipped and only the per-cycle
    /// bookkeeping runs; the observable state is identical either way.
    pub fn tick(&mut self) {
        if let Some(h) = self.busy_horizon {
            if self.now.raw() < h {
                self.advance_quiet(1);
                return;
            }
        }
        // Move the scratch buffers out for the duration of the tick so
        // they can be filled while the controller's own fields are
        // borrowed. `tick_inner`'s early returns all funnel back here,
        // so the buffers (and their capacity) always come home.
        if S::ENABLED {
            // A real tick ends any coalesced quiet span, keeping the
            // event stream in near-chronological order.
            self.flush_quiet();
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        let issued = self.tick_inner(&mut scratch);
        if S::ENABLED {
            self.sample_epochs();
        }
        if M::ENABLED && self.metrics.sample_due(self.now.raw()) {
            self.refresh_wheel_gauges();
            self.metrics.sample(self.now.raw());
        }
        if self.wheel_enabled {
            // Incremental path: fold this tick's observations back into
            // the wheel — exact keys for every entry the tick touched,
            // conservative lower bounds for the rest — and the horizon
            // becomes an O(1) peek. Crucially it is valid after *acting*
            // ticks too: the legacy path pays a full no-op enumeration
            // tick after every issue just to learn the next horizon.
            let t0 = phase_start::<M>();
            self.post_tick_rekey(&mut scratch, issued);
            let t0 = phase_cut(&mut self.metrics, Counter::PhaseRekeyNanos, t0);
            self.busy_horizon = if self.skip_enabled {
                Some(self.next_busy_event_cycle_wheel(&mut scratch))
            } else {
                None
            };
            phase_end(&mut self.metrics, Counter::PhaseHorizonNanos, t0);
        } else {
            // A tick that issued nothing is the start of a dead span:
            // pay for one horizon computation now so the span's
            // remaining cycles cost O(1) each (or one bulk advance
            // under `run_for`). After an issuing tick the horizon is
            // left unknown — dense phases then never pay for horizons
            // they would not use.
            let t0 = phase_start::<M>();
            self.busy_horizon = if self.skip_enabled && issued.is_none() {
                Some(self.next_busy_event_cycle(&mut scratch))
            } else {
                None
            };
            phase_end(&mut self.metrics, Counter::PhaseHorizonNanos, t0);
        }
        self.scratch = scratch;
    }

    /// One full pipeline pass. Returns the issued command, if any
    /// (`Some` ⟺ `busy_cycles` advanced); the wheel's post-tick re-key
    /// uses it to pinpoint which gates moved.
    fn tick_inner(&mut self, scratch: &mut TickScratch) -> Option<DramCommand> {
        self.policy.on_cycle();
        self.stats.total_cycles += 1;
        self.full_ticks += 1;
        if M::ENABLED {
            self.metrics.add(Counter::TickCycles, 1);
            self.metrics
                .observe(Hist::EnqueueBatch, u64::from(self.enq_since_tick));
            self.enq_since_tick = 0;
        }

        if let Some(threshold) = self.stall_debug {
            if !self.stall_reported {
                if let Some(stuck) = self
                    .queues
                    .iter()
                    .find(|r| r.wait_cycles(self.now) > threshold)
                {
                    self.stall_reported = true;
                    eprintln!("[stall @{}] stuck: {}", self.now, stuck);
                    eprintln!(
                        "  mode {:?}, occupancy {:?}",
                        self.queues.mode(),
                        self.queues.occupancy()
                    );
                    for b in 0..self.cfg.dram.geometry.banks_per_rank as u32 {
                        let bv = self.device.bank(stuck.addr.rank, Bank::new(b));
                        eprintln!(
                            "  bank {b}: {:?} earliest_pre {}",
                            bv.state, bv.earliest_pre
                        );
                    }
                }
            }
        }

        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;

        if self.wheel_enabled {
            // Promote entries whose key came due and snapshot this
            // tick's ready set; the wheel emits it in ascending entry
            // order, i.e. the full scan's flat bank order (candidate
            // order feeds the policy's tie-breaks). Done before any
            // early return so `post_tick_rekey` always sees the set.
            self.wheel.advance_to(self.now.raw());
            scratch.ready_banks.clear();
            self.wheel.collect_ready_into(&mut scratch.ready_banks);
            scratch.rekeys.clear();
            scratch.enumerated = false;
        }

        // Power management: wake ranks with work or a due refresh; send
        // long-idle ranks to power-down (closing parked rows first).
        if self.cfg.controller.powerdown_after_idle > 0 {
            let t0 = phase_start::<M>();
            let power = self.manage_power(ranks);
            phase_end(&mut self.metrics, Counter::PhasePowerNanos, t0);
            if let Some(cmd) = power {
                self.now += 1;
                return Some(cmd);
            }
        }

        let t0 = phase_start::<M>();
        self.compute_refresh_pending(&mut scratch.pending);

        // (2) Issue a due refresh the moment it is legal.
        let refreshed = self.service_pending_refresh(&scratch.pending, false);
        phase_end(&mut self.metrics, Counter::PhaseRefreshNanos, t0);
        if let Some(cmd) = refreshed {
            self.now += 1;
            return Some(cmd);
        }

        // (3) Candidate enumeration. The LRRA snapshot is refilled only
        // when a refresh has issued since the last fill (the only event
        // that moves any rank's LRRA), not on every issuing tick.
        let t0 = phase_start::<M>();
        if scratch.lrras.len() != ranks || scratch.lrras_gen != self.stats.refreshes {
            scratch.lrras.clear();
            scratch
                .lrras
                .extend((0..ranks).map(|r| self.device.refresh_engine(Rank::new(r as u32)).lrra()));
            scratch.lrras_gen = self.stats.refreshes;
        }
        if self.wheel_enabled {
            self.enumerate_candidates_wheel(scratch, self.batch_active());
        } else {
            self.enumerate_candidates(scratch);
        }
        let t0 = phase_cut(&mut self.metrics, Counter::PhaseEnumNanos, t0);

        // (4) Policy decision. Every policy is a pure argmin/argmax
        // over the slate (the trait requires a non-empty slate to yield
        // a choice), so the trivial slates skip the dynamic dispatch —
        // and, for NUAT, the scoring-table walk — entirely.
        let choice = match scratch.candidates.len() {
            0 => None,
            1 => Some(0),
            _ => {
                let view = PolicyView {
                    now: self.now,
                    mode: self.queues.mode(),
                    lrras: &scratch.lrras,
                    pbr: &self.pbr,
                };
                self.policy.choose(&view, &scratch.candidates)
            }
        };
        if let Some(i) = choice {
            let t0 = phase_cut(&mut self.metrics, Counter::PhaseChooseNanos, t0);
            let cand = scratch.candidates[i];
            self.issue_candidate(cand, scratch.candidate_slots[i]);
            phase_end(&mut self.metrics, Counter::PhaseIssueNanos, t0);
            self.now += 1;
            return Some(cand.command);
        }
        phase_end(&mut self.metrics, Counter::PhaseChooseNanos, t0);

        // (5) Refresh-pending fallback: force-close an open bank.
        let t0 = phase_start::<M>();
        let closed = self.service_pending_refresh(&scratch.pending, true);
        phase_end(&mut self.metrics, Counter::PhaseRefreshNanos, t0);
        if let Some(cmd) = closed {
            self.now += 1;
            return Some(cmd);
        }

        self.now += 1;
        None
    }

    /// Fills the per-rank "refresh wants this rank drained" flags at the
    /// current cycle. Shared by the tick pipeline and the event-horizon
    /// computation — the two must agree on what "pending" means.
    fn compute_refresh_pending(&self, pending: &mut Vec<bool>) {
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let postponing = self.cfg.controller.refresh_postpone_batches > 0;
        pending.clear();
        pending.extend((0..ranks).map(|r| {
            use nuat_dram::refresh::RefreshUrgency::*;
            match self
                .device
                .refresh_engine(Rank::new(r as u32))
                .urgency(self.now)
            {
                NotDue => false,
                Overdue => true,
                // With a postpone budget, due-but-not-overdue
                // refreshes yield to queued demand requests; without
                // one, the lead window drains promptly (the paper's
                // assumption).
                Pending | Postponable => !postponing || self.queues.is_empty(),
            }
        }));
    }

    /// Scans the ranks whose refresh is pending and issues the first
    /// legal service command: the `REF` itself, or — in `force_close`
    /// mode, once nothing else issued this cycle — a precharge to an
    /// open bank standing in the refresh's way. Returns the issued
    /// command, if any (it consumed this cycle's command slot).
    fn service_pending_refresh(
        &mut self,
        pending: &[bool],
        force_close: bool,
    ) -> Option<DramCommand> {
        for (r, &p) in pending.iter().enumerate() {
            if !p {
                continue;
            }
            let rank = Rank::new(r as u32);
            if force_close {
                for b in 0..self.cfg.dram.geometry.banks_per_rank as u32 {
                    let bank = Bank::new(b);
                    let cmd = DramCommand::Precharge { rank, bank };
                    if matches!(self.device.bank(rank, bank).state, BankState::Active { .. })
                        && self.device.can_issue(&cmd, self.now).is_ok()
                    {
                        self.device.issue(cmd, self.now).expect("checked");
                        self.gate_gen += 1;
                        self.queues.note_row_close(rank, bank);
                        self.stats.precharges += 1;
                        self.stats.busy_cycles += 1;
                        if M::ENABLED {
                            self.metrics.add(Counter::CmdPrecharge, 1);
                        }
                        if S::ENABLED {
                            self.sink
                                .on_event(&TraceEvent::Command(cmd.to_event(self.now, None)));
                        }
                        return Some(cmd);
                    }
                }
            } else {
                let cmd = DramCommand::Refresh { rank };
                if self.device.can_issue(&cmd, self.now).is_ok() {
                    self.device.issue(cmd, self.now).expect("checked");
                    self.gate_gen += 1;
                    self.stats.refreshes += 1;
                    self.stats.busy_cycles += 1;
                    if M::ENABLED {
                        self.metrics.add(Counter::CmdRefresh, 1);
                    }
                    if S::ENABLED {
                        self.sink
                            .on_event(&TraceEvent::Command(cmd.to_event(self.now, None)));
                    }
                    return Some(cmd);
                }
            }
        }
        None
    }

    /// Bulk-advances `n` provably-quiet cycles: exactly the state a
    /// quiet `tick` touches — the clock, `total_cycles`, the policy's
    /// windowed per-cycle state, and the idle counters of ranks that
    /// were counting toward power-down — advances by `n`; everything
    /// else (queues, bank/charge state, refresh position, power states)
    /// is untouched, which is precisely what makes the span skippable.
    fn advance_quiet(&mut self, n: u64) {
        self.stats.total_cycles += n;
        self.policy.on_idle_cycles(n);
        if self.cfg.controller.powerdown_after_idle > 0 {
            for (r, &counting) in self.scratch.counting.iter().enumerate() {
                if counting {
                    self.rank_idle_cycles[r] += n;
                }
            }
        }
        let from = self.now.raw();
        self.now += n;
        self.cycles_skipped += n;
        if M::ENABLED {
            self.metrics.add(Counter::SkipBusyCycles, n);
            self.metrics.observe(Hist::BusySkipSpan, n);
            if self.metrics.sample_due(self.now.raw()) {
                self.refresh_wheel_gauges();
                self.metrics.sample(self.now.raw());
            }
        }
        if S::ENABLED {
            self.note_quiet(from, n, true);
            self.sample_epochs();
        }
    }

    /// Earliest cycle `h >= now` at which a full tick could do anything
    /// a quiet cycle does not: issue a command, change a rank's refresh
    /// urgency, or take a power-down decision. Every cycle in `[now, h)`
    /// is provably a no-op, because every input to those decisions —
    /// queue contents, bank states, the monotone per-bank/per-rank
    /// timing gates, refresh urgency, CKE state — is constant across the
    /// span. Conservative by construction: when in doubt (a queued
    /// request to a powered-down rank, a candidate already legal but
    /// declined by the policy) it returns `now`, degrading to the
    /// per-tick loop rather than guessing.
    ///
    /// Also fills `scratch.counting`, the idle-counter mask
    /// `advance_quiet` applies across the span.
    fn next_busy_event_cycle(&mut self, scratch: &mut TickScratch) -> u64 {
        let now = self.now;
        let g = &self.cfg.dram.geometry;
        let ranks = g.ranks_per_channel as usize;
        let banks_per_rank = g.banks_per_rank as usize;
        let mut h = u64::MAX;

        self.compute_refresh_pending(&mut scratch.pending);

        // (a) Refresh: the next urgency transition of any rank (the
        // pending flags and the power manager's wake decisions change
        // there), and — for already-pending ranks — the cycle the REF
        // itself (banks idle) or a way-clearing force-close precharge
        // becomes legal.
        for r in 0..ranks {
            let rank = Rank::new(r as u32);
            if let Some(t) = self.device.refresh_engine(rank).next_transition_after(now) {
                h = h.min(t.raw());
            }
            if scratch.pending[r] {
                if self.device.all_banks_idle(rank) {
                    h = h.min(self.device.rank_timing(rank).refresh_ready.raw());
                } else {
                    for b in 0..banks_per_rank {
                        let bv = self.device.bank(rank, Bank::new(b as u32));
                        if matches!(bv.state, BankState::Active { .. }) {
                            h = h.min(bv.earliest_pre.raw());
                        }
                    }
                }
            }
        }

        // (b) Candidates. A non-acting tick leaves queues and device
        // state untouched, so this cycle's enumeration pass already
        // holds the answer: any candidate it produced is legal *now*
        // and pins the horizon here, and `scratch.cand_horizon` is the
        // min over the gates of every request it filtered out (the
        // absolute gate times are unchanged since no command issued).
        if !scratch.candidates.is_empty() {
            return now.raw();
        }
        if self.cfg.controller.powerdown_after_idle > 0
            && (0..ranks).any(|r| {
                self.queues.rank_len(r) > 0 && self.device.is_powered_down(Rank::new(r as u32))
            })
        {
            // Demand wake-up happens on a real tick.
            return now.raw();
        }
        h = h.min(scratch.cand_horizon);

        // (c) Power management: the tick on which an idle-counting rank
        // reaches the power-down threshold acts (sleep or row close) and
        // must run for real. Ranks holding at zero (queued work or a
        // refresh outside NotDue) and already-sleeping ranks stay inert
        // for the whole span.
        let threshold = self.cfg.controller.powerdown_after_idle;
        scratch.counting.clear();
        scratch.counting.resize(ranks, false);
        if threshold > 0 {
            for r in 0..ranks {
                let rank = Rank::new(r as u32);
                use nuat_dram::refresh::RefreshUrgency;
                scratch.counting[r] = self.queues.rank_len(r) == 0
                    && !self.device.is_powered_down(rank)
                    && self.device.refresh_engine(rank).urgency(now) == RefreshUrgency::NotDue;
            }
            for (r, &counting) in scratch.counting.iter().enumerate() {
                if counting {
                    h = h.min(now.raw() + (threshold - 1).saturating_sub(self.rank_idle_cycles[r]));
                }
            }
        }

        h
    }

    /// Runs `cycles` ticks, fast-forwarding through guaranteed-idle
    /// stretches (see [`fast_forward_idle`](Self::fast_forward_idle))
    /// and bulk-advancing provably-dead busy spans in one step instead
    /// of `tick`'s one-at-a-time fast path.
    pub fn run_for(&mut self, cycles: u64) {
        let end = self.now.raw() + cycles;
        while self.now.raw() < end {
            if self.fast_forward_idle(end) > 0 {
                continue;
            }
            if let Some(h) = self.busy_horizon {
                let n = h.min(end).saturating_sub(self.now.raw());
                if n > 0 {
                    self.advance_quiet(n);
                    continue;
                }
            }
            self.tick();
        }
    }

    /// Earliest future cycle at which an idle controller must run a real
    /// tick again: the first cycle some rank's refresh leaves `NotDue`
    /// (the lead-window start), or — under power management — the tick
    /// on which some awake rank's idle counter reaches the power-down
    /// threshold. Returns `None` when the *current* cycle already needs
    /// a real tick (queued work, or a refresh already outside `NotDue`).
    fn next_event_cycle(&self) -> Option<u64> {
        if !self.queues.is_empty() {
            return None;
        }
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let mut horizon = u64::MAX;
        for r in 0..ranks {
            let engine = self.device.refresh_engine(Rank::new(r as u32));
            if engine.urgency(self.now) != nuat_dram::refresh::RefreshUrgency::NotDue {
                return None;
            }
            horizon = horizon.min(engine.pending_from().raw());
        }
        let threshold = self.cfg.controller.powerdown_after_idle;
        if threshold > 0 {
            for (r, &idle) in self.rank_idle_cycles.iter().enumerate() {
                if self.device.is_powered_down(Rank::new(r as u32)) {
                    continue;
                }
                // The tick that takes the counter from `threshold - 1`
                // to `threshold` performs the power-down (possibly
                // closing parked rows first) and must run for real.
                horizon = horizon.min(self.now.raw() + (threshold - 1).saturating_sub(idle));
            }
        }
        Some(horizon)
    }

    /// Skips ahead over cycles that are provably no-ops — empty queues,
    /// every rank's refresh strictly inside `NotDue`, and no rank on the
    /// brink of a power-down decision — without running them one by one.
    /// Cycle accounting stays exact: `total_cycles`, the policy's
    /// windowed state (via `on_idle_cycles`) and the per-rank idle
    /// counters all advance by the skipped amount, so the observable
    /// state is identical to ticking through the gap. Returns the number
    /// of cycles skipped (0 when the current cycle needs a real tick).
    pub fn fast_forward_idle(&mut self, limit: u64) -> u64 {
        let Some(horizon) = self.next_event_cycle() else {
            return 0;
        };
        let n = horizon.min(limit).saturating_sub(self.now.raw());
        if n == 0 {
            return 0;
        }
        self.stats.total_cycles += n;
        self.policy.on_idle_cycles(n);
        if self.cfg.controller.powerdown_after_idle > 0 {
            for (r, idle) in self.rank_idle_cycles.iter_mut().enumerate() {
                if !self.device.is_powered_down(Rank::new(r as u32)) {
                    *idle += n;
                }
            }
        }
        let from = self.now.raw();
        self.now += n;
        if M::ENABLED {
            self.metrics.add(Counter::SkipIdleCycles, n);
            self.metrics.observe(Hist::IdleSkipSpan, n);
            if self.metrics.sample_due(self.now.raw()) {
                self.refresh_wheel_gauges();
                self.metrics.sample(self.now.raw());
            }
        }
        if S::ENABLED {
            self.note_quiet(from, n, false);
            self.sample_epochs();
        }
        n
    }

    /// Candidate enumeration, indexed: iterates the channel's banks
    /// (≤ ranks × banks_per_rank) instead of queued requests. Per bank,
    /// the state machine is identical to the legacy flat scan — column
    /// candidates come from the bank's incremental open-row match list,
    /// the precharge/activate representative is the bank's oldest
    /// request (reads before writes, matching the flat scan's visit
    /// order), and gated-out banks contribute the same per-class gate
    /// values to `cand_horizon` — so the produced candidate *set*, the
    /// horizon, and (because every policy tie-breaks by age id, see
    /// [`SchedulerPolicy::choose`]) the chosen command are bit-identical
    /// to the flat scan. The `#[cfg(test)]` oracle
    /// `enumerate_candidates_linear` plus the
    /// `indexed_enum_equals_linear_scan` proptest enforce exactly this.
    fn enumerate_candidates(&self, scratch: &mut TickScratch) {
        let TickScratch {
            pending,
            lrras,
            candidates: out,
            candidate_slots: out_slots,
            bank_gate,
            bank_gate_gen,
            bank_gate_pending,
            cand_horizon,
            ..
        } = scratch;
        out.clear();
        out_slots.clear();
        // Earliest future gate among banks that produce no candidate
        // this cycle; `next_busy_event_cycle` reads it back instead of
        // rescanning anything. Banks that do produce a candidate need
        // no entry: an un-issued candidate pins the horizon to `now`
        // anyway (see `next_busy_event_cycle`).
        let mut gate_h = u64::MAX;
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras,
            pbr: &self.pbr,
        };
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let total_banks = self.queues.total_banks();
        debug_assert_eq!(total_banks, ranks * banks_per_rank);
        if bank_gate.len() != total_banks {
            bank_gate.clear();
            bank_gate.resize(total_banks, 0);
            bank_gate_gen.clear();
            bank_gate_gen.resize(total_banks, 0);
            bank_gate_pending.clear();
            bank_gate_pending.resize(total_banks, false);
        }
        // Column duplicates (same bank + open row + kind) carry the
        // identical command and score no higher than the oldest one, so
        // for order-respecting policies only the first per group is
        // offered (the match lists are age order within a kind).
        let dedup_cols = self.policy.prefers_oldest_equal_command();
        let now = self.now;

        for r in 0..ranks {
            if self.queues.rank_len(r) == 0 {
                continue;
            }
            let rank = Rank::new(r as u32);
            let p = pending[r];
            let lrra = lrras[r];
            let rt = self.device.rank_timing(rank);
            let lanes = self.device.bank_lanes(rank);
            for bi in 0..banks_per_rank {
                let key = r * banks_per_rank + bi;
                if self.queues.bank_len(key) == 0 {
                    continue;
                }
                // Timing-blocked bank, already proven: reuse its cached
                // gate and skip the walk entirely. Exactness argument:
                // while the generation matches, no command issued and no
                // request joined or left the bank, so its state, match
                // counts, and (monotone) gates are unchanged; with the
                // pending flag also unchanged and the cached gate still
                // in the future, a re-enumeration would walk the same
                // requests, find them all gated by the same absolute
                // cycle values, and emit the same minimum.
                if bank_gate_gen[key] == self.gate_gen
                    && bank_gate_pending[key] == p
                    && now.raw() < bank_gate[key]
                {
                    gate_h = gate_h.min(bank_gate[key]);
                    continue;
                }
                let bank = Bank::new(bi as u32);
                // SoA hot path: read the bank's open row and timing gates
                // straight from the flat lanes; no `BankView` materialised.
                let open = lanes.open_row[bi];
                let gates = lanes.bank_gates(bi, &rt);
                let n_before = out.len();
                let bank_h = self.enumerate_bank(
                    &view, key, rank, bank, p, lrra, gates, open, dedup_cols, false, out, out_slots,
                );

                if out.len() == n_before {
                    // No candidate: memoize the bank's gate until the
                    // next device mutation or enqueue to this bank.
                    bank_gate_gen[key] = self.gate_gen;
                    bank_gate[key] = bank_h;
                    bank_gate_pending[key] = p;
                } else {
                    // The bank offered work; whatever happens next tick
                    // must be recomputed.
                    bank_gate_gen[key] = 0;
                }
                gate_h = gate_h.min(bank_h);
            }
        }
        *cand_horizon = gate_h;
    }

    /// The per-bank enumeration body shared verbatim by the full scan
    /// ([`enumerate_candidates`](Self::enumerate_candidates)) and the
    /// wheel-driven path — one implementation is what keeps the two
    /// bit-identical. Appends `key`'s candidates (if any) to
    /// `out`/`out_slots` and returns the bank's gate-horizon
    /// contribution: the earliest future cycle a re-enumeration could
    /// find something new, a value `<= now` when the bank holds
    /// already-offerable (or device-refused) work, or `u64::MAX` when
    /// the bank is inert until an external event (refresh suppression,
    /// arrival).
    /// With `trust_gates` set (the batch-kernel path), a column or
    /// precharge whose mirrored gate has passed skips the per-candidate
    /// `can_issue` probe: the gate values *are* the device's own check
    /// inputs (`earliest_read/write` joined with the rank column gates,
    /// `earliest_pre`), the bank's FSM state is pinned by the open-row
    /// mirror, and a powered-down rank cannot reach enumeration with
    /// queued work (`manage_power` wakes it first), so gate-legal ⇒
    /// device-legal. Activates always probe — the device may refuse on
    /// row charge state, which no timing lane encodes.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn enumerate_bank(
        &self,
        view: &PolicyView<'_>,
        key: usize,
        rank: Rank,
        bank: Bank,
        p: bool,
        lrra: Row,
        gates: BankGates,
        open: u32,
        dedup_cols: bool,
        trust_gates: bool,
        out: &mut Vec<Candidate>,
        out_slots: &mut Vec<u32>,
    ) -> u64 {
        let now = self.now;
        let mut bank_h = u64::MAX;

        if open != IDLE_ROW {
            {
                debug_assert_eq!(
                    self.queues.open_row_mirror(key),
                    Some(Row::new(open)),
                    "queue open-row mirror out of sync with device"
                );
                let (hit_r, hit_w) = self.queues.hit_counts(key);
                let hits = hit_r + hit_w;
                if hits > 0 {
                    // Column candidates, per kind, from the
                    // incremental match index.
                    for (kind, count) in [(RequestKind::Read, hit_r), (RequestKind::Write, hit_w)] {
                        if count == 0 {
                            continue;
                        }
                        let gate = match kind {
                            RequestKind::Read => gates.read,
                            RequestKind::Write => gates.write,
                        };
                        if now < gate {
                            bank_h = bank_h.min(gate.raw());
                            continue;
                        }
                        for (slot, req) in self.queues.bank_hits_slots(key, kind) {
                            // NUAT's close-page decisions preserve
                            // imminent hits: a row some other queued
                            // request still needs stays open (this
                            // request itself accounts for one entry
                            // in the hit count). The FR-FCFS(close)
                            // baseline stays pure.
                            let auto = p
                                || (self.policy.auto_precharge(view, req)
                                    && !(self.policy.preserve_pending_hits() && hits > 1));
                            let command = match kind {
                                RequestKind::Read => DramCommand::Read {
                                    rank,
                                    bank,
                                    col: req.addr.col,
                                    auto_precharge: auto,
                                },
                                RequestKind::Write => DramCommand::Write {
                                    rank,
                                    bank,
                                    col: req.addr.col,
                                    auto_precharge: auto,
                                },
                            };
                            debug_assert!(
                                !trust_gates || self.device.can_issue(&command, now).is_ok(),
                                "gate-legal column refused by the device: {command}"
                            );
                            if trust_gates || self.device.can_issue(&command, now).is_ok() {
                                let (pb, zone) = self.pbr.pb_and_zone(lrra, req.addr.row);
                                out.push(Candidate {
                                    request: *req,
                                    command,
                                    kind: CandidateKind::Column,
                                    pb,
                                    zone,
                                });
                                out_slots.push(slot);
                                if dedup_cols {
                                    break;
                                }
                            } else {
                                // Legal by the mirrored gates but
                                // refused by the device: stay
                                // conservative and keep the horizon
                                // at `now` (a gate value `<= now`
                                // does exactly that after the
                                // saturating clamp).
                                bank_h = bank_h.min(gate.raw());
                            }
                        }
                    }
                } else if now < gates.pre {
                    // Conflict: consider precharging, but never
                    // close a row some queued request still hits.
                    bank_h = bank_h.min(gates.pre.raw());
                } else {
                    let req = *self.queues.bank_head(key).expect("bank_len > 0");
                    let command = DramCommand::Precharge { rank, bank };
                    debug_assert!(
                        !trust_gates || self.device.can_issue(&command, now).is_ok(),
                        "gate-legal precharge refused by the device: {command}"
                    );
                    if trust_gates || self.device.can_issue(&command, now).is_ok() {
                        let (pb, zone) = self.pbr.pb_and_zone(lrra, req.addr.row);
                        out.push(Candidate {
                            request: req,
                            command,
                            kind: CandidateKind::Precharge,
                            pb,
                            zone,
                        });
                        out_slots.push(NO_SLOT);
                    } else {
                        bank_h = bank_h.min(gates.pre.raw());
                    }
                }
            }
        } else {
            {
                // Activation (blocked while refresh pends; a
                // pending bank contributes no gate either — the
                // refresh horizon covers it).
                if !p {
                    if now < gates.act {
                        bank_h = bank_h.min(gates.act.raw());
                    } else if trust_gates {
                        // Gate-legal elision: the act gate folds in
                        // every `TooEarly` source of the device's
                        // ladder (tRP/tRC/tRFC per bank, tRRD/tFAW
                        // via the rank act window), so a refusal here
                        // could only be a physical charge-state or
                        // timing-consistency violation — which the
                        // probing walk below treats as a controller
                        // bug (its panic arm). Take the oldest
                        // request directly; the debug oracle and the
                        // issue-time check keep that invariant honest.
                        if let Some((slot, req)) = self.queues.bank_requests_slots(key).next() {
                            let timings = self.policy.act_timings(view, req);
                            let command = DramCommand::Activate {
                                rank,
                                bank,
                                row: req.addr.row,
                                timings,
                            };
                            // Debug oracle, preserving the walk's
                            // failure taxonomy: a non-timing refusal
                            // is a broken policy promise (same loud
                            // panic as the walk's arm below); a
                            // too-early refusal would be a gate
                            // soundness bug in the SoA lanes.
                            #[cfg(debug_assertions)]
                            if let Err(e) = self.device.can_issue(&command, now) {
                                assert!(e.is_too_early(), "illegal ACT candidate {command}: {e}");
                                panic!("gate-legal activate refused as too-early: {command}: {e}");
                            }
                            let (pb, zone) = self.pbr.pb_and_zone(lrra, req.addr.row);
                            out.push(Candidate {
                                request: *req,
                                command,
                                kind: CandidateKind::Activate,
                                pb,
                                zone,
                            });
                            out_slots.push(slot);
                        }
                    } else {
                        // Walk until the device accepts one: a
                        // charge-state refusal of the oldest row
                        // must not silence a younger sibling the
                        // flat scan would have offered.
                        for (slot, req) in self.queues.bank_requests_slots(key) {
                            let timings = self.policy.act_timings(view, req);
                            let command = DramCommand::Activate {
                                rank,
                                bank,
                                row: req.addr.row,
                                timings,
                            };
                            match self.device.can_issue(&command, now) {
                                Ok(()) => {
                                    let (pb, zone) = self.pbr.pb_and_zone(lrra, req.addr.row);
                                    out.push(Candidate {
                                        request: *req,
                                        command,
                                        kind: CandidateKind::Activate,
                                        pb,
                                        zone,
                                    });
                                    out_slots.push(slot);
                                    break;
                                }
                                Err(e) if e.is_too_early() => {
                                    bank_h = bank_h.min(gates.act.raw());
                                }
                                // A non-timing rejection (physical
                                // violation, protocol misuse) would
                                // silently starve the request forever
                                // — that is always a bug.
                                Err(e) => panic!("illegal ACT candidate {command}: {e}"),
                            }
                        }
                    }
                }
            }
        }

        bank_h
    }

    /// Wheel-driven enumeration: the same per-bank body as
    /// [`enumerate_candidates`](Self::enumerate_candidates), but only
    /// over `scratch.ready_banks` — the entries whose
    /// earliest-actionable key has come due — instead of every bank in
    /// the channel. Sound because every wheel key is a conservative
    /// lower bound (see `crate::wheel`): a bank strictly before its key
    /// cannot produce a candidate, so skipping it changes nothing the
    /// full scan would have found.
    ///
    /// Each visited bank's verdict is recorded into `scratch.rekeys`
    /// (applied by `post_tick_rekey`; enumeration holds `&self`):
    /// inert banks get their exact next-gate key, drained banks park.
    /// Candidate-producing banks record nothing — their stored key is
    /// already at-or-before the cursor, so they stay due (which keeps
    /// the horizon at `now` until something issues) without a re-key.
    ///
    /// `trust_gates` (the batch-kernel mode) forwards to
    /// [`enumerate_bank`](Self::enumerate_bank): candidate legality is
    /// read off the mirrored timing gates instead of per-candidate
    /// device probes. The wheel itself is what batches the rest — every
    /// key it holds was derived by the SWAR `batch_bank_keys` sweep at
    /// the last issue, so the per-tick legality filter the batch kernel
    /// once re-derived here is already folded into the ready set
    /// (re-deriving it each tick measured *slower* than this walk: on
    /// issuing ticks the keys are exact and the filter never fired).
    fn enumerate_candidates_wheel(&self, scratch: &mut TickScratch, trust_gates: bool) {
        let TickScratch {
            pending,
            lrras,
            candidates: out,
            candidate_slots: out_slots,
            ready_banks,
            rekeys,
            cand_horizon,
            enumerated,
            ..
        } = scratch;
        out.clear();
        out_slots.clear();
        rekeys.clear();
        *enumerated = true;
        let mut gate_h = u64::MAX;
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras,
            pbr: &self.pbr,
        };
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let total_banks = self.queues.total_banks();
        let dedup_cols = self.policy.prefers_oldest_equal_command();

        // Ready entries arrive sorted, so same-rank banks are
        // consecutive: track the rank base additively (no division in
        // the loop) and fetch the rank-scoped views once per rank.
        let mut r = 0usize;
        let mut rank_base = 0usize;
        let mut views: Option<(RankTimingView, BankLanes<'_>)> = None;
        for &entry in ready_banks.iter() {
            let key = entry as usize;
            if key >= total_banks {
                // Rank refresh markers carry no candidates; they are
                // re-keyed by `post_tick_rekey`.
                continue;
            }
            if self.queues.bank_len(key) == 0 {
                rekeys.push((entry, PARKED));
                continue;
            }
            while key >= rank_base + banks_per_rank {
                r += 1;
                rank_base += banks_per_rank;
                views = None;
            }
            let bi = key - rank_base;
            let rank = Rank::new(r as u32);
            let bank = Bank::new(bi as u32);
            if views.is_none() {
                views = Some((self.device.rank_timing(rank), self.device.bank_lanes(rank)));
            }
            let (rt, lanes) = views.as_ref().unwrap();
            let n_before = out.len();
            let bank_h = self.enumerate_bank(
                &view,
                key,
                rank,
                bank,
                pending[r],
                lrras[r],
                lanes.bank_gates(bi, rt),
                lanes.open_row[bi],
                dedup_cols,
                trust_gates,
                out,
                out_slots,
            );
            if out.len() == n_before {
                // Inert this cycle: the bank's own horizon contribution
                // is its exact next chance (`u64::MAX` = parked until
                // an external event re-keys it).
                rekeys.push((entry, bank_h));
            }
            // Offerable banks record nothing: the stored key is already
            // at-or-before the cursor, so the entry stays due — and the
            // horizon stays at `now` — until a command issues here.
            gate_h = gate_h.min(bank_h);
        }
        *cand_horizon = gate_h;
    }

    /// Recomputes one bank's earliest-actionable key from the current
    /// device gates and queue indices — O(1), no request walk. The key
    /// mirrors `enumerate_bank`'s case analysis exactly: column gates
    /// joined over the hit kinds present, the precharge gate for a
    /// conflict, the activate gate when idle, [`PARKED`] when drained
    /// or refresh-suppressed (the post-`REF` rank sweep revives
    /// suppressed banks). The rank-scoped views are parameters so bulk
    /// re-key sweeps fetch them once per rank instead of once per bank.
    #[inline]
    fn bank_key(
        &self,
        key: usize,
        bi: usize,
        pending: bool,
        rt: &RankTimingView,
        lanes: &BankLanes<'_>,
    ) -> u64 {
        if self.queues.bank_len(key) == 0 {
            PARKED
        } else if lanes.open_row[bi] != IDLE_ROW {
            let (hit_r, hit_w) = self.queues.hit_counts(key);
            if hit_r + hit_w > 0 {
                let gates = lanes.bank_gates(bi, rt);
                let mut k = u64::MAX;
                if hit_r > 0 {
                    k = k.min(gates.read.raw());
                }
                if hit_w > 0 {
                    k = k.min(gates.write.raw());
                }
                k
            } else {
                lanes.earliest_pre[bi].raw()
            }
        } else if pending {
            PARKED
        } else {
            lanes.earliest_act[bi].max(rt.next_act_rank_ok).raw()
        }
    }

    /// Recomputes rank `r`'s refresh-marker key: the rank's next
    /// urgency transition, joined — while its refresh is pending — with
    /// the cycle the `REF` itself (banks idle) or a way-clearing
    /// force-close precharge becomes legal. This is exactly the legacy
    /// horizon's per-rank refresh part, held incrementally.
    fn rekey_rank_marker(&mut self, total_banks: usize, r: usize, pending: bool) {
        self.marker_pending[r] = pending;
        let rank = Rank::new(r as u32);
        let mut k = self
            .device
            .refresh_engine(rank)
            .next_transition_after(self.now)
            .map_or(PARKED, |t| t.raw());
        if pending {
            if self.device.all_banks_idle(rank) {
                k = k.min(self.device.rank_timing(rank).refresh_ready.raw());
            } else {
                let lanes = self.device.bank_lanes(rank);
                for (bi, &row) in lanes.open_row.iter().enumerate() {
                    if row != IDLE_ROW {
                        k = k.min(lanes.earliest_pre[bi].raw());
                    }
                }
            }
        }
        self.wheel.rekey((total_banks + r) as u32, k);
        if M::ENABLED {
            self.metrics.add(Counter::WheelRekeys, 1);
        }
    }

    /// Credits the verdict re-keys about to be applied to the wheel:
    /// one rekey count each, plus the lower-bound slack (key minus
    /// current cycle) of every live key into the slack histogram.
    fn note_rekeys(&mut self, rekeys: &[(u32, u64)]) {
        if M::ENABLED {
            self.metrics.add(Counter::WheelRekeys, rekeys.len() as u64);
            let now = self.now.raw();
            for &(_, k) in rekeys {
                if k != PARKED {
                    self.metrics
                        .observe(Hist::WheelSlack, k.saturating_sub(now));
                }
            }
        }
    }

    /// Folds one tick's observations back into the wheel. Runs after
    /// *every* full tick while the wheel is enabled:
    ///
    /// * the enumeration's verdict keys are applied first;
    /// * on an acting tick, every bank that was due this tick plus the
    ///   issued command's own bank get fresh exact keys from the
    ///   post-issue gates (the issue moved rank-scoped gates for all of
    ///   them), a `REF` re-keys its whole rank (tRFC moved every act
    ///   gate and the cleared pending flag un-suppresses idle banks),
    ///   and every rank marker is re-derived (an issue can flip a
    ///   postponing rank's pending flag by draining the queues);
    /// * due rank markers are always re-derived (their transition
    ///   passed).
    fn post_tick_rekey(&mut self, scratch: &mut TickScratch, issued: Option<DramCommand>) {
        let total_banks = self.queues.total_banks();
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let Some(cmd) = issued else {
            // Non-acting tick: the enumeration's verdicts are exact, and
            // no gate moved. Only a due rank marker (its transition cycle
            // passed) needs a fresh key — and only that case needs the
            // post-tick pending flags at all.
            self.note_rekeys(&scratch.rekeys);
            for (e, k) in scratch.rekeys.drain(..) {
                self.wheel.rekey(e, k);
            }
            let any_marker = scratch
                .ready_banks
                .last()
                .is_some_and(|&e| e as usize >= total_banks);
            if any_marker {
                self.compute_refresh_pending(&mut scratch.pending);
                for i in 0..scratch.ready_banks.len() {
                    let e = scratch.ready_banks[i] as usize;
                    if e >= total_banks {
                        let r = e - total_banks;
                        self.rekey_rank_marker(total_banks, r, scratch.pending[r]);
                    }
                }
            }
            return;
        };
        // Acting tick: every ready bank is re-keyed exactly from the
        // post-issue gates (the scalar path drops the enumeration's
        // verdicts and recomputes; the batch path re-applies the
        // verdicts of every rank the issue provably did not touch), and
        // a `REF` re-keys its whole rank.
        //
        // The pending flags are a pure function of refresh urgency —
        // fixed within the tick, the clock has not advanced — and,
        // with a postpone budget, of channel emptiness. Post-issue
        // they can differ from the enumeration-time values only when
        // the `REF` itself moved the schedule or a column drain left
        // the channel empty: recompute only then (keeping the
        // enumeration-time flags in `pending_prev` so the batch path
        // can prove which ranks' verdicts survived the boundary), and
        // reuse the tick-start flags on every other acting tick.
        let is_ref = matches!(cmd, DramCommand::Refresh { .. });
        let pending_moved =
            is_ref || (self.cfg.controller.refresh_postpone_batches > 0 && self.queues.is_empty());
        if pending_moved {
            std::mem::swap(&mut scratch.pending, &mut scratch.pending_prev);
            self.compute_refresh_pending(&mut scratch.pending);
        }
        if self.batch_active() {
            self.post_tick_rekey_batch(scratch, &cmd, total_banks, banks_per_rank, pending_moved);
        } else {
            scratch.rekeys.clear();
            let ir = cmd.rank().index();
            let rank = Rank::new(ir as u32);
            let rt = self.device.rank_timing(rank);
            let lanes = self.device.bank_lanes(rank);
            if is_ref {
                for bi in 0..banks_per_rank {
                    let key = ir * banks_per_rank + bi;
                    let k = self.bank_key(key, bi, scratch.pending[ir], &rt, &lanes);
                    scratch.rekeys.push((key as u32, k));
                }
            } else if let Some(bank) = cmd.bank() {
                let ibi = bank.index();
                let key = ir * banks_per_rank + ibi;
                let k = self.bank_key(key, ibi, scratch.pending[ir], &rt, &lanes);
                scratch.rekeys.push((key as u32, k));
                if self.des_active() && self.queues.masks_valid() {
                    // Targeted sibling sweep: an issue moves rank-scoped
                    // gates for exactly one sibling key class — an ACT
                    // moves the rank act window (tRRD/tFAW), so
                    // idle-with-work siblings get fresh act-gate keys; a
                    // column command moves the rank column/turnaround
                    // gates, so open-row siblings with queued hits get
                    // fresh column-gate keys. A precharge is bank-local.
                    // Everything else keeps its still-exact key, which
                    // is what lets DES spans run to the true next event
                    // without paying a full-rank sweep per issue.
                    //
                    // Both sweeps are specialized to their key class:
                    // the queues' per-rank bitmaps pin each sibling's
                    // `bank_key` branch (queued work / open row / hit
                    // kinds present), so the key is rebuilt from the
                    // hoisted rank gates plus one or two dense device
                    // timing-lane loads — no per-bank queue-state probe
                    // inside the loop. Each key is asserted identical to
                    // the generic recompute in debug builds.
                    match cmd {
                        DramCommand::Activate { .. } if !scratch.pending[ir] => {
                            let mut affected = self.queues.work_mask(ir)
                                & !self.queues.open_mask(ir)
                                & !(1u64 << ibi);
                            let act_ok = rt.next_act_rank_ok;
                            while affected != 0 {
                                let bi = affected.trailing_zeros() as usize;
                                affected &= affected - 1;
                                let key = ir * banks_per_rank + bi;
                                let k = lanes.earliest_act[bi].max(act_ok).raw();
                                debug_assert_eq!(
                                    k,
                                    self.bank_key(key, bi, scratch.pending[ir], &rt, &lanes)
                                );
                                scratch.rekeys.push((key as u32, k));
                            }
                        }
                        DramCommand::Read { .. } | DramCommand::Write { .. } => {
                            let hr = self.queues.hit_read_mask(ir);
                            let hw = self.queues.hit_write_mask(ir);
                            let col_r = rt.earliest_col_read;
                            let col_w = rt.earliest_col_write;
                            let mut affected = (hr | hw) & !(1u64 << ibi);
                            while affected != 0 {
                                let bi = affected.trailing_zeros() as usize;
                                affected &= affected - 1;
                                let key = ir * banks_per_rank + bi;
                                let mut k = u64::MAX;
                                if hr >> bi & 1 != 0 {
                                    k = k.min(lanes.earliest_read[bi].max(col_r).raw());
                                }
                                if hw >> bi & 1 != 0 {
                                    k = k.min(lanes.earliest_write[bi].max(col_w).raw());
                                }
                                debug_assert_eq!(
                                    k,
                                    self.bank_key(key, bi, scratch.pending[ir], &rt, &lanes)
                                );
                                scratch.rekeys.push((key as u32, k));
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        if !self.batch_active() {
            // Ready entries arrive sorted (markers at the tail): track
            // the rank base additively — no division in the loop — and
            // fetch the rank views once per rank.
            let mut r = 0usize;
            let mut rank_base = 0usize;
            let mut views: Option<(RankTimingView, BankLanes<'_>)> = None;
            for i in 0..scratch.ready_banks.len() {
                let e = scratch.ready_banks[i] as usize;
                if e >= total_banks {
                    break;
                }
                while e >= rank_base + banks_per_rank {
                    r += 1;
                    rank_base += banks_per_rank;
                    views = None;
                }
                if views.is_none() {
                    let rank = Rank::new(r as u32);
                    views = Some((self.device.rank_timing(rank), self.device.bank_lanes(rank)));
                }
                let (rt, lanes) = views.as_ref().unwrap();
                let k = self.bank_key(e, e - rank_base, scratch.pending[r], rt, lanes);
                scratch.rekeys.push((e as u32, k));
            }
        }
        self.note_rekeys(&scratch.rekeys);
        for (e, k) in scratch.rekeys.drain(..) {
            self.wheel.rekey(e, k);
        }
        // Rank markers: a marker's key only moves on a `REF` (the
        // schedule advances), a pending-flag flip (an issue drained a
        // postponing rank), or its own coming due — while pending stays
        // false the key is exactly the same future urgency transition,
        // and while pending stays true the old key is a still-valid
        // conservative bound (service gates only move later). Re-derive
        // only in those cases instead of every acting tick.
        let any_marker_ready = scratch
            .ready_banks
            .last()
            .is_some_and(|&e| e as usize >= total_banks);
        for r in 0..ranks {
            let p = scratch.pending[r];
            if is_ref || any_marker_ready || p != self.marker_pending[r] {
                self.rekey_rank_marker(total_banks, r, p);
            }
        }
    }

    /// Batch-kernel post-issue sweep: the minimal exact re-key set.
    ///
    /// Device timing gates are rank-scoped and an issue mutates exactly
    /// one bank's queue state, so the enumeration's verdict keys stay
    /// exact for every rank the command did not touch — they are
    /// re-applied as-is (the wheel's due-region fast path makes each
    /// ~one store). Within the issued rank only the banks whose key
    /// class the command actually moved go stale: the issued bank
    /// itself (its queue state changed), plus — for an `ACT` — the
    /// idle-with-work siblings (the rank act window moved) or — for a
    /// column command — the open-row hit siblings (the rank column
    /// gates moved). A precharge is bank-local. Those banks are
    /// recomputed from the post-issue gates with the scalar `bank_key`
    /// oracle, mask-steered so the loop touches no other bank.
    ///
    /// The SWAR `batch_bank_keys` kernel handles the full-rank
    /// re-derivations, where every bank's key shape can change at
    /// once: a `REF` (tRFC moved every act gate and the cleared
    /// pending flag un-suppresses idle banks), a rank whose
    /// refresh-pending flag flipped across the tick boundary
    /// (suppression changes key shapes without a device mutation), and
    /// the early-return tick shapes that skip enumeration entirely
    /// (power transitions, a due refresh), where no verdicts cover the
    /// due entries. Each derived key is the exact `bank_key` oracle
    /// value (asserted in debug builds); for the re-applied verdicts a
    /// candidate-producing bank's `now` pin and the oracle's gate key
    /// are both at-or-before the cursor, so the ready set — and with
    /// it the command stream — is identical either way. Only
    /// observability differs from the scalar path: `WheelRekeys`
    /// counts keys that actually moved, and the per-key `WheelSlack`
    /// histogram is not fed (a verdict re-application is not a wait
    /// the wheel observes).
    fn post_tick_rekey_batch(
        &mut self,
        scratch: &mut TickScratch,
        cmd: &DramCommand,
        total_banks: usize,
        banks_per_rank: usize,
        pending_moved: bool,
    ) {
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let ir = cmd.rank().index();
        let mut derive: u64 = 0;
        if !scratch.enumerated {
            // Early-return tick (power transition, due refresh): no
            // verdicts cover the due entries, so their ranks — and the
            // issued rank — re-derive in full.
            derive |= 1 << ir;
            let mut r = 0usize;
            let mut rank_base = 0usize;
            for &e in scratch.ready_banks.iter() {
                let e = e as usize;
                if e >= total_banks {
                    break;
                }
                while e >= rank_base + banks_per_rank {
                    r += 1;
                    rank_base += banks_per_rank;
                }
                derive |= 1 << r;
            }
        } else if pending_moved {
            for (r, &p) in scratch.pending.iter().enumerate() {
                if scratch.pending_prev.get(r) != Some(&p) {
                    derive |= 1 << r;
                }
            }
        }
        if matches!(cmd, DramCommand::Refresh { .. }) {
            derive |= 1 << ir;
        }
        // Banks of the issued rank whose stored keys the issue moved,
        // recomputed below — unless the whole rank re-derives anyway.
        let stale: u64 = if derive >> ir & 1 != 0 {
            0
        } else {
            match *cmd {
                DramCommand::Activate { bank, .. } => {
                    let own = 1u64 << bank.index();
                    if scratch.pending[ir] {
                        // Idle siblings are refresh-suppressed (PARKED
                        // does not read the moved act window).
                        own
                    } else {
                        own | (self.queues.work_mask(ir) & !self.queues.open_mask(ir))
                    }
                }
                DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                    (1u64 << bank.index())
                        | self.queues.hit_read_mask(ir)
                        | self.queues.hit_write_mask(ir)
                }
                DramCommand::Precharge { bank, .. } => 1u64 << bank.index(),
                _ => {
                    derive |= 1 << ir;
                    0
                }
            }
        };
        let mut moved = 0u64;
        // Re-apply the surviving verdicts (sorted; rank tracked
        // additively), skipping fully re-derived ranks and the issued
        // rank's stale banks.
        let mut r = 0usize;
        let mut rank_base = 0usize;
        for i in 0..scratch.rekeys.len() {
            let (e, k) = scratch.rekeys[i];
            while e as usize >= rank_base + banks_per_rank {
                r += 1;
                rank_base += banks_per_rank;
            }
            if derive >> r & 1 != 0 || (r == ir && stale >> (e as usize - rank_base) & 1 != 0) {
                continue;
            }
            moved += u64::from(self.wheel.rekey(e, k));
        }
        scratch.rekeys.clear();
        if stale != 0 {
            let rank = Rank::new(ir as u32);
            let rt = self.device.rank_timing(rank);
            let lanes = self.device.bank_lanes(rank);
            let mut m = stale;
            while m != 0 {
                let bi = m.trailing_zeros() as usize;
                m &= m - 1;
                let key = ir * banks_per_rank + bi;
                let k = self.bank_key(key, bi, scratch.pending[ir], &rt, &lanes);
                moved += u64::from(self.wheel.rekey(key as u32, k));
            }
        }
        if derive != 0 && scratch.legality.len() != ranks {
            scratch.legality.resize_with(ranks, LegalityTable::default);
            scratch.legality_gen.clear();
            scratch.legality_gen.resize(ranks, 0);
        }
        while derive != 0 {
            let r = derive.trailing_zeros() as usize;
            derive &= derive - 1;
            let rank = Rank::new(r as u32);
            if scratch.legality_gen[r] != self.gate_gen {
                scratch.legality[r].fill(&self.device, rank);
                scratch.legality_gen[r] = self.gate_gen;
            }
            let m = self.queues.bank_masks(r);
            scratch.legality[r].batch_bank_keys(
                m.work,
                m.open,
                m.hit_read,
                m.hit_write,
                scratch.pending[r],
                &mut scratch.rank_keys,
            );
            #[cfg(debug_assertions)]
            {
                // A powered-down rank cannot hold queued work here
                // (`manage_power` woke any such rank at the top of this
                // very tick), so the all-`NEVER` table and the scalar
                // oracle agree on PARKED for every bank.
                let rt = self.device.rank_timing(rank);
                let lanes = self.device.bank_lanes(rank);
                for bi in 0..banks_per_rank {
                    debug_assert_eq!(
                        scratch.rank_keys[bi],
                        self.bank_key(r * banks_per_rank + bi, bi, scratch.pending[r], &rt, &lanes),
                        "batch key diverged from scalar oracle (rank {r}, bank {bi})"
                    );
                }
            }
            moved += self
                .wheel
                .rekey_range((r * banks_per_rank) as u32, &scratch.rank_keys);
        }
        if M::ENABLED {
            self.metrics.add(Counter::WheelRekeys, moved);
        }
    }

    /// Wheel-path event horizon: an O(1) peek of the wheel's next
    /// occupied slot merged with the power-management deadline, instead
    /// of the legacy path's full per-rank/per-bank rescan. Valid after
    /// acting ticks too, because `post_tick_rekey` has already folded
    /// the issue's gate movements back into the keys. The demand-wake
    /// and already-due pins mirror `next_busy_event_cycle` exactly.
    ///
    /// Also fills `scratch.counting`, the idle-counter mask
    /// `advance_quiet` applies across the span.
    fn next_busy_event_cycle_wheel(&mut self, scratch: &mut TickScratch) -> u64 {
        let now = self.now.raw();
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        if self.cfg.controller.powerdown_after_idle > 0
            && (0..ranks).any(|r| {
                self.queues.rank_len(r) > 0 && self.device.is_powered_down(Rank::new(r as u32))
            })
        {
            // Demand wake-up happens on a real tick.
            return now;
        }
        if self.wheel.has_ready() {
            // A due entry means possible work this very cycle (an
            // un-issued candidate, a refusal pin, a due refresh step).
            return now;
        }
        let mut h = self.wheel.peek_future();

        // Power management: same part as the legacy horizon — the tick
        // on which an idle-counting rank reaches the power-down
        // threshold must run for real.
        let threshold = self.cfg.controller.powerdown_after_idle;
        scratch.counting.clear();
        scratch.counting.resize(ranks, false);
        if threshold > 0 {
            for r in 0..ranks {
                let rank = Rank::new(r as u32);
                use nuat_dram::refresh::RefreshUrgency;
                scratch.counting[r] = self.queues.rank_len(r) == 0
                    && !self.device.is_powered_down(rank)
                    && self.device.refresh_engine(rank).urgency(self.now) == RefreshUrgency::NotDue;
            }
            for (r, &counting) in scratch.counting.iter().enumerate() {
                if counting {
                    h = h.min(now + (threshold - 1).saturating_sub(self.rank_idle_cycles[r]));
                }
            }
        }
        h
    }

    /// Issues `cand` on the device and retires its request (columns
    /// only). `slot` is the request's slab slot from enumeration — the
    /// candidate and the removal address the same storage, so no lookup
    /// is needed at issue time.
    fn issue_candidate(&mut self, cand: Candidate, slot: u32) {
        let done = self
            .device
            .issue(cand.command, self.now)
            .unwrap_or_else(|e| {
                // A non-timing ACT refusal is a broken policy promise: report
                // it as the probing enumeration walk does, so release builds
                // (which skip the gate-trusting path's debug oracle) name the
                // same failure.
                if matches!(cand.command, DramCommand::Activate { .. }) && !e.is_too_early() {
                    panic!("illegal ACT candidate {}: {e}", cand.command);
                }
                panic!("scheduler issued illegal command {}: {e}", cand.command)
            });
        self.gate_gen += 1;
        // Keep the queues' open-row mirror (and thus the per-bank match
        // lists) in lockstep with the device's row-buffer state.
        match cand.command {
            DramCommand::Activate {
                rank, bank, row, ..
            } => {
                // `slot` is the activator's slab slot; with it the
                // match-list rebuild is O(1) whenever the counting
                // filter proves the activator is the only hit.
                self.queues.note_row_open_hinted(rank, bank, row, slot);
            }
            DramCommand::Precharge { rank, bank } => {
                self.queues.note_row_close(rank, bank);
            }
            _ => {}
        }
        self.stats.busy_cycles += 1;
        self.policy.observe_issue(&cand);
        if S::ENABLED {
            self.sink.on_event(&TraceEvent::Command(
                cand.command.to_event(self.now, Some(cand.pb.raw())),
            ));
        }
        match cand.kind {
            CandidateKind::Activate => {
                match cand.request.kind {
                    RequestKind::Read => self.stats.acts_for_reads += 1,
                    RequestKind::Write => self.stats.acts_for_writes += 1,
                }
                self.stats.pb_act_histogram[cand.pb.index()] += 1;
                let bi = self.bank_index(&cand);
                self.stats.per_bank_acts[bi] += 1;
                if M::ENABLED {
                    self.metrics.add(Counter::CmdActivate, 1);
                }
            }
            CandidateKind::Column => {
                debug_assert_ne!(slot, NO_SLOT, "column candidate without a slot");
                self.queues.remove_at_issued(slot, &cand.request);
                if let DramCommand::Read {
                    rank,
                    bank,
                    auto_precharge: true,
                    ..
                }
                | DramCommand::Write {
                    rank,
                    bank,
                    auto_precharge: true,
                    ..
                } = cand.command
                {
                    // Auto-precharge closes the row at the device; the
                    // mirror must drop the bank's match list with it.
                    self.queues.note_row_close(rank, bank);
                }
                match cand.request.kind {
                    RequestKind::Read => {
                        self.stats.cols_read += 1;
                        let latency = done - cand.request.arrival;
                        self.stats.record_read(cand.request.core, latency);
                        self.stats.per_pb_reads[cand.pb.index()] += 1;
                        self.stats.per_pb_read_latency[cand.pb.index()] += latency;
                        if M::ENABLED {
                            self.metrics.add(Counter::CmdRead, 1);
                            self.metrics.add(Counter::ReadsCompleted, 1);
                        }
                        if S::ENABLED {
                            self.sink.on_event(&TraceEvent::ReadComplete {
                                at: done.raw(),
                                core: cand.request.core as u32,
                                latency,
                            });
                        }
                        self.completions.push(Completion {
                            request: cand.request,
                            done,
                        });
                    }
                    RequestKind::Write => {
                        self.stats.cols_write += 1;
                        self.stats.writes_drained += 1;
                        if M::ENABLED {
                            self.metrics.add(Counter::CmdWrite, 1);
                            self.metrics.add(Counter::WritesDrained, 1);
                        }
                    }
                }
            }
            CandidateKind::Precharge => {
                self.stats.precharges += 1;
                let bi = self.bank_index(&cand);
                self.stats.per_bank_conflicts[bi] += 1;
                if M::ENABLED {
                    self.metrics.add(Counter::CmdPrecharge, 1);
                }
            }
        }
    }

    /// Per-cycle CKE management: ranks with queued work or a due
    /// refresh are woken (paying tXP through the device's earliest-time
    /// registers); ranks idle beyond the configured threshold close any
    /// parked rows and enter precharge power-down. Returns the issued
    /// precharge if one consumed this cycle's command slot.
    fn manage_power(&mut self, ranks: usize) -> Option<DramCommand> {
        for r in 0..ranks {
            let rank = Rank::new(r as u32);
            let has_work = self.queues.rank_len(r) > 0;
            let refresh_soon = {
                use nuat_dram::refresh::RefreshUrgency;
                self.device.refresh_engine(rank).urgency(self.now) != RefreshUrgency::NotDue
            };
            if self.device.is_powered_down(rank) {
                if has_work || refresh_soon {
                    self.device.power_up(rank, self.now);
                    self.gate_gen += 1;
                    self.rank_idle_cycles[r] = 0;
                    if S::ENABLED {
                        self.sink.on_event(&TraceEvent::PowerState {
                            at: self.now.raw(),
                            rank: rank.raw(),
                            powered_down: false,
                        });
                    }
                }
                continue;
            }
            if has_work || refresh_soon {
                self.rank_idle_cycles[r] = 0;
                continue;
            }
            self.rank_idle_cycles[r] += 1;
            if self.rank_idle_cycles[r] < self.cfg.controller.powerdown_after_idle {
                continue;
            }
            if self.device.all_banks_idle(rank) {
                self.device.power_down(rank, self.now);
                self.gate_gen += 1;
                if S::ENABLED {
                    self.sink.on_event(&TraceEvent::PowerState {
                        at: self.now.raw(),
                        rank: rank.raw(),
                        powered_down: true,
                    });
                }
                continue;
            }
            // Close one parked row per cycle until the rank can sleep.
            for b in 0..self.cfg.dram.geometry.banks_per_rank as u32 {
                let bank = Bank::new(b);
                let cmd = DramCommand::Precharge { rank, bank };
                if matches!(self.device.bank(rank, bank).state, BankState::Active { .. })
                    && self.device.can_issue(&cmd, self.now).is_ok()
                {
                    self.device.issue(cmd, self.now).expect("checked");
                    self.gate_gen += 1;
                    self.queues.note_row_close(rank, bank);
                    self.stats.precharges += 1;
                    self.stats.busy_cycles += 1;
                    if M::ENABLED {
                        self.metrics.add(Counter::CmdPrecharge, 1);
                    }
                    if S::ENABLED {
                        self.sink
                            .on_event(&TraceEvent::Command(cmd.to_event(self.now, None)));
                    }
                    return Some(cmd);
                }
            }
        }
        None
    }

    fn bank_index(&self, cand: &Candidate) -> usize {
        cand.flat_bank(self.cfg.dram.geometry.banks_per_rank as usize)
    }

    /// The refresh engine of one rank (stats/tests).
    pub fn refresh_engine(&self, rank: Rank) -> &RefreshEngine {
        self.device.refresh_engine(rank)
    }

    /// Enumeration-only entry point for the `candidate_enum` micro-bench:
    /// refreshes the per-tick inputs (refresh-pending flags, LRRA
    /// snapshot), bumps the gate generation so every bank is enumerated
    /// cold (as after a command issue), and runs one candidate
    /// enumeration pass. Returns the candidate count so the bench has a
    /// value to sink. Not a stable API.
    #[doc(hidden)]
    pub fn bench_enumerate_candidates(&mut self) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.compute_refresh_pending(&mut scratch.pending);
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        scratch.lrras.clear();
        scratch
            .lrras
            .extend((0..ranks).map(|r| self.device.refresh_engine(Rank::new(r as u32)).lrra()));
        self.gate_gen += 1;
        self.enumerate_candidates(&mut scratch);
        let n = scratch.candidates.len();
        self.scratch = scratch;
        n
    }

    /// Wheel-path counterpart of
    /// [`bench_enumerate_candidates`](Self::bench_enumerate_candidates)
    /// for the `candidate_wheel` micro-bench: re-keys the `dirty`
    /// entries to due-now (modelling the post-issue dirtying a real
    /// tick performs), advances the wheel, and runs one wheel-driven
    /// enumeration over the resulting ready set, applying the verdict
    /// re-keys exactly as a real tick would. Returns the candidate
    /// count so the bench has a value to sink. Not a stable API.
    #[doc(hidden)]
    pub fn bench_enumerate_candidates_wheel(&mut self, dirty: &[u32]) -> usize {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.compute_refresh_pending(&mut scratch.pending);
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        scratch.lrras.clear();
        scratch
            .lrras
            .extend((0..ranks).map(|r| self.device.refresh_engine(Rank::new(r as u32)).lrra()));
        for &e in dirty {
            self.wheel.rekey(e, self.now.raw());
        }
        self.wheel.advance_to(self.now.raw());
        scratch.ready_banks.clear();
        self.wheel.collect_ready_into(&mut scratch.ready_banks);
        self.enumerate_candidates_wheel(&mut scratch, self.batch_active());
        for (e, k) in scratch.rekeys.drain(..) {
            self.wheel.rekey(e, k);
        }
        let n = scratch.candidates.len();
        self.scratch = scratch;
        n
    }

    /// Cross-checks every batch-kernel product against its scalar
    /// oracle at the controller's *current* state: the SWAR ready
    /// bitmaps against per-bank gate compares, each branchlessly
    /// selected bank key against `bank_key`, and the fused min
    /// reduction against a scalar fold. Panics on any divergence.
    /// Driven mid-run by `prop_batch_equals_scalar` across random
    /// timing states; not a stable API.
    #[doc(hidden)]
    pub fn debug_check_batch_vs_scalar(&mut self) {
        if !self.queues.masks_valid() {
            return;
        }
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let mut pending = std::mem::take(&mut self.scratch.pending);
        self.compute_refresh_pending(&mut pending);
        let now = self.now.raw();
        let mut tbl = LegalityTable::default();
        let mut keys = Vec::new();
        for (r, &rank_pending) in pending.iter().enumerate().take(ranks) {
            let rank = Rank::new(r as u32);
            tbl.fill(&self.device, rank);
            let rm = tbl.ready_masks(now);
            if self.device.is_powered_down(rank) {
                // Every lane saturates to NEVER: no class may read as
                // legal. Keys are not compared here — a powered-down
                // rank can hold freshly arrived work until the next
                // tick's demand wake, a state the pipeline never
                // derives batch keys in (`manage_power` runs first).
                assert_eq!(
                    (rm.act, rm.read, rm.write, rm.pre),
                    (0, 0, 0, 0),
                    "powered-down rank {r} reported ready classes"
                );
                continue;
            }
            let rt = self.device.rank_timing(rank);
            assert_eq!(tbl.rank, rt, "stale rank-gate snapshot (rank {r})");
            let lanes = self.device.bank_lanes(rank);
            for bi in 0..banks_per_rank {
                let gates = lanes.bank_gates(bi, &rt);
                let open = lanes.open_row[bi] != IDLE_ROW;
                assert_eq!(
                    rm.act >> bi & 1 != 0,
                    !open && now >= gates.act.raw(),
                    "ACT ready bit diverged (rank {r}, bank {bi})"
                );
                assert_eq!(
                    rm.read >> bi & 1 != 0,
                    open && now >= gates.read.raw(),
                    "RD ready bit diverged (rank {r}, bank {bi})"
                );
                assert_eq!(
                    rm.write >> bi & 1 != 0,
                    open && now >= gates.write.raw(),
                    "WR ready bit diverged (rank {r}, bank {bi})"
                );
                assert_eq!(
                    rm.pre >> bi & 1 != 0,
                    open && now >= lanes.earliest_pre[bi].raw(),
                    "PRE ready bit diverged (rank {r}, bank {bi})"
                );
            }
            let m = self.queues.bank_masks(r);
            let kmin = tbl.batch_bank_keys(
                m.work,
                m.open,
                m.hit_read,
                m.hit_write,
                rank_pending,
                &mut keys,
            );
            let mut smin = u64::MAX;
            for (bi, &bk) in keys.iter().enumerate().take(banks_per_rank) {
                let sk = self.bank_key(r * banks_per_rank + bi, bi, rank_pending, &rt, &lanes);
                assert_eq!(
                    bk, sk,
                    "batch bank key diverged from scalar oracle (rank {r}, bank {bi})"
                );
                smin = smin.min(sk);
            }
            assert_eq!(kmin, smin, "fused min-reduction diverged (rank {r})");
        }
        self.scratch.pending = pending;
    }

    /// Reference enumeration: the pre-index O(occupancy) flat queue
    /// scan, kept verbatim (modulo scratch buffers becoming locals) as
    /// the oracle for `indexed_enum_equals_linear_scan`. Returns the
    /// candidates in queue order plus the gate horizon.
    #[cfg(test)]
    fn enumerate_candidates_linear(
        &self,
        pending: &[bool],
        lrras: &[Row],
    ) -> (Vec<Candidate>, u64) {
        let mut out = Vec::new();
        let mut gate_h = u64::MAX;
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras,
            pbr: &self.pbr,
        };
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let total_banks = self.queues.total_banks();
        let mut act_seen = vec![false; total_banks];
        let mut pre_seen = vec![false; total_banks];
        let dedup_cols = self.policy.prefers_oldest_equal_command();
        let mut col_seen = vec![false; 2 * total_banks];

        let mut open_row_hits = vec![0u32; total_banks];
        for req in self.queues.iter() {
            let key = req.addr.rank.index() * banks_per_rank + req.addr.bank.index();
            if let BankState::Active { row, .. } =
                self.device.bank(req.addr.rank, req.addr.bank).state
            {
                if row == req.addr.row {
                    open_row_hits[key] += 1;
                }
            }
        }

        for req in self.queues.iter() {
            let rank = req.addr.rank;
            let bank = req.addr.bank;
            let bv = self.device.bank(rank, bank);
            let key = rank.index() * banks_per_rank + bank.index();
            let lrra = lrras[rank.index()];
            let pbr = &self.pbr;
            let pb_zone = || pbr.pb_and_zone(lrra, req.addr.row);

            match bv.state {
                BankState::Active { row, .. } if row == req.addr.row => {
                    let ck = 2 * key + (req.kind == RequestKind::Write) as usize;
                    if dedup_cols && col_seen[ck] {
                        continue;
                    }
                    let rt = self.device.rank_timing(rank);
                    let gate = match req.kind {
                        RequestKind::Read => bv.earliest_read.max(rt.earliest_col_read),
                        RequestKind::Write => bv.earliest_write.max(rt.earliest_col_write),
                    };
                    if self.now < gate {
                        gate_h = gate_h.min(gate.raw());
                        continue;
                    }
                    let auto = pending[rank.index()]
                        || (self.policy.auto_precharge(&view, req)
                            && !(self.policy.preserve_pending_hits() && open_row_hits[key] > 1));
                    let command = match req.kind {
                        RequestKind::Read => DramCommand::Read {
                            rank,
                            bank,
                            col: req.addr.col,
                            auto_precharge: auto,
                        },
                        RequestKind::Write => DramCommand::Write {
                            rank,
                            bank,
                            col: req.addr.col,
                            auto_precharge: auto,
                        },
                    };
                    if self.device.can_issue(&command, self.now).is_ok() {
                        col_seen[ck] = true;
                        let (pb, zone) = pb_zone();
                        out.push(Candidate {
                            request: *req,
                            command,
                            kind: CandidateKind::Column,
                            pb,
                            zone,
                        });
                    } else {
                        gate_h = gate_h.min(gate.raw());
                    }
                }
                BankState::Active { .. } => {
                    if pre_seen[key] || open_row_hits[key] > 0 {
                        continue;
                    }
                    if self.now < bv.earliest_pre {
                        gate_h = gate_h.min(bv.earliest_pre.raw());
                        continue;
                    }
                    let command = DramCommand::Precharge { rank, bank };
                    if self.device.can_issue(&command, self.now).is_ok() {
                        pre_seen[key] = true;
                        let (pb, zone) = pb_zone();
                        out.push(Candidate {
                            request: *req,
                            command,
                            kind: CandidateKind::Precharge,
                            pb,
                            zone,
                        });
                    } else {
                        gate_h = gate_h.min(bv.earliest_pre.raw());
                    }
                }
                BankState::Idle => {
                    if pending[rank.index()] || act_seen[key] {
                        continue;
                    }
                    let rt = self.device.rank_timing(rank);
                    let act_gate = bv.earliest_act.max(rt.next_act_rank_ok);
                    if self.now < act_gate {
                        gate_h = gate_h.min(act_gate.raw());
                        continue;
                    }
                    let timings = self.policy.act_timings(&view, req);
                    let command = DramCommand::Activate {
                        rank,
                        bank,
                        row: req.addr.row,
                        timings,
                    };
                    match self.device.can_issue(&command, self.now) {
                        Ok(()) => {
                            act_seen[key] = true;
                            let (pb, zone) = pb_zone();
                            out.push(Candidate {
                                request: *req,
                                command,
                                kind: CandidateKind::Activate,
                                pb,
                                zone,
                            });
                        }
                        Err(e) if e.is_too_early() => {
                            gate_h = gate_h.min(act_gate.raw());
                        }
                        Err(e) => panic!("illegal ACT candidate {command}: {e}"),
                    }
                }
            }
        }
        (out, gate_h)
    }

    /// Cross-checks the indexed enumeration against the linear oracle at
    /// the controller's current state: identical candidate *set*,
    /// identical `cand_horizon`, and an identical policy choice from
    /// either ordering. Also exercises the per-bank gate cache by
    /// running the indexed pass twice (cold, then warm on the
    /// now-populated cache) and demanding bit-identical results.
    #[cfg(test)]
    pub(crate) fn check_enumeration_equivalence(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.compute_refresh_pending(&mut scratch.pending);
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        scratch.lrras.clear();
        scratch
            .lrras
            .extend((0..ranks).map(|r| self.device.refresh_engine(Rank::new(r as u32)).lrra()));

        self.gate_gen += 1; // force a cold pass
        self.enumerate_candidates(&mut scratch);
        let cold = scratch.candidates.clone();
        let cold_h = scratch.cand_horizon;
        self.enumerate_candidates(&mut scratch); // warm: hits the gate cache
        assert_eq!(scratch.candidates, cold, "warm gate-cache pass diverged");
        assert_eq!(scratch.cand_horizon, cold_h, "warm horizon diverged");

        let (linear, linear_h) = self.enumerate_candidates_linear(&scratch.pending, &scratch.lrras);
        let mut a = cold.clone();
        let mut b = linear.clone();
        // Both emit at most one candidate per (bank, row-state, kind)
        // group and tag each with a distinct request, so sorting by the
        // unique age id makes the set comparison order-insensitive.
        a.sort_by_key(|c| c.request.id);
        b.sort_by_key(|c| c.request.id);
        assert_eq!(a, b, "indexed and linear candidate sets differ");
        assert_eq!(cold_h, linear_h, "cand_horizon differs from linear scan");

        // The policy must pick the same command from either ordering.
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras: &scratch.lrras,
            pbr: &self.pbr,
        };
        let ci = self.policy.choose(&view, &cold);
        let li = self.policy.choose(&view, &linear);
        match (ci, li) {
            (None, None) => {}
            (Some(i), Some(j)) => assert_eq!(
                cold[i], linear[j],
                "policy chose different commands from indexed vs linear orderings"
            ),
            (i, j) => panic!("policy choice presence differs: {i:?} vs {j:?}"),
        }
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::AddressMapping;

    fn addr_for(row: u32, bank: u32, col: u32) -> PhysAddr {
        let g = nuat_types::DramGeometry::default();
        g.encode(
            nuat_types::DecodedAddr {
                channel: nuat_types::Channel::new(0),
                rank: Rank::new(0),
                bank: Bank::new(bank),
                row: Row::new(row),
                col: nuat_types::Col::new(col),
            },
            AddressMapping::OpenPageBaseline,
        )
        .unwrap()
    }

    fn controller(kind: SchedulerKind) -> MemoryController {
        MemoryController::new(SystemConfig::default(), kind)
    }

    #[test]
    fn single_read_completes_with_act_plus_cas_latency() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.run_for(100);
        let done = mc.take_completions();
        assert_eq!(done.len(), 1);
        // ACT at cycle 0 is impossible (enqueue at 0, tick scheduling at
        // 0 sees it), ACT@0, RD@12, data done 12+15 = 27.
        let latency = done[0].done - done[0].request.arrival;
        assert_eq!(latency, 27);
        assert_eq!(mc.stats().reads_completed, 1);
        assert_eq!(mc.stats().avg_read_latency(), 27.0);
    }

    #[test]
    fn row_hits_skip_the_activation() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 1));
        mc.run_for(200);
        assert_eq!(mc.stats().reads_completed, 2);
        assert_eq!(mc.stats().acts_for_reads, 1, "second read must hit");
        assert!(mc.stats().read_hit_rate() > 0.49);
    }

    #[test]
    fn close_page_policy_precharges_once_pending_hits_drain() {
        // USIMM-style close page: the row stays open while another
        // queued request still hits it, then auto-precharges.
        let mut mc = controller(SchedulerKind::FrFcfsClose);
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 1));
        mc.run_for(300);
        assert_eq!(mc.stats().reads_completed, 2);
        assert_eq!(
            mc.stats().acts_for_reads,
            1,
            "second read rides the open row"
        );
        // A later read to the same row re-activates: the row closed
        // after the queue drained.
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 2));
        mc.run_for(300);
        assert_eq!(mc.stats().acts_for_reads, 2, "row was auto-precharged");
    }

    #[test]
    fn conflicting_rows_precharge_then_activate() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.enqueue(0, RequestKind::Read, addr_for(200, 0, 0));
        mc.run_for(300);
        assert_eq!(mc.stats().reads_completed, 2);
        assert_eq!(mc.stats().acts_for_reads, 2);
        assert_eq!(mc.stats().precharges, 1);
    }

    #[test]
    fn writes_drain_at_high_watermark() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        // One read to keep read mode busy, then flood writes past HW.
        for i in 0..41 {
            mc.enqueue(0, RequestKind::Write, addr_for(i, i % 8, 0));
        }
        assert_eq!(mc.queues().occupancy().1, 41);
        mc.run_for(4000);
        assert!(mc.stats().writes_drained > 20, "drain mode must engage");
    }

    #[test]
    fn nuat_uses_reduced_timings_for_fresh_rows() {
        let mut mc = controller(SchedulerKind::Nuat);
        // LRRA starts at 8191, so row 8191 is PB0.
        mc.enqueue(0, RequestKind::Read, addr_for(8191, 0, 0));
        mc.run_for(100);
        assert_eq!(mc.stats().reads_completed, 1);
        assert_eq!(mc.device().stats().reduced_activates, 1);
        assert_eq!(mc.device().stats().trcd_cycles_saved, 4);
    }

    #[test]
    fn nuat_never_violates_physics_across_many_rows() {
        let mut mc = controller(SchedulerKind::Nuat);
        // Rows spanning every PB; issue_candidate panics on violation.
        for (i, row) in [8191u32, 8000, 7000, 5000, 2000, 0, 42, 4242]
            .into_iter()
            .enumerate()
        {
            mc.enqueue(0, RequestKind::Read, addr_for(row, (i % 8) as u32, 0));
        }
        mc.run_for(2000);
        assert_eq!(mc.stats().reads_completed, 8);
    }

    #[test]
    fn refresh_batches_are_issued_on_schedule() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        // Run past several refresh due times with no traffic.
        mc.run_for(8 * 6250 * 3 + 1000);
        assert!(mc.stats().refreshes >= 3);
        assert_eq!(
            mc.refresh_engine(Rank::new(0)).batches_done(),
            mc.stats().refreshes
        );
    }

    #[test]
    fn refresh_preempts_open_rows() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        // Open a row just before the refresh window and keep hitting it.
        let due = mc.refresh_engine(Rank::new(0)).next_due().raw();
        while mc.now().raw() < due - 200 {
            mc.tick();
        }
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.run_for(1000);
        assert!(mc.stats().refreshes >= 1, "refresh must get through");
        assert_eq!(mc.stats().reads_completed, 1);
    }

    #[test]
    fn completion_latency_includes_queueing() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        // Two conflicting requests: the second's latency includes the
        // first's row cycle.
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.enqueue(0, RequestKind::Read, addr_for(200, 0, 0));
        mc.run_for(400);
        let dones = mc.take_completions();
        assert_eq!(dones.len(), 2);
        let l0 = dones[0].done - dones[0].request.arrival;
        let l1 = dones[1].done - dones[1].request.arrival;
        assert!(
            l1 > l0 + 20,
            "conflict latency {l1} must exceed hit path {l0}"
        );
    }

    #[test]
    fn power_management_sleeps_idle_ranks_and_wakes_for_work() {
        let mut cfg = SystemConfig::default();
        cfg.controller.powerdown_after_idle = 100;
        let mut mc = MemoryController::new(cfg, SchedulerKind::FrFcfsOpen);
        mc.run_for(500);
        assert!(
            mc.device().is_powered_down(Rank::new(0)),
            "idle rank must sleep"
        );
        // Work arrives: rank wakes, pays tXP, read completes.
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.run_for(200);
        assert_eq!(mc.stats().reads_completed, 1);
        assert!(mc.device().powerdown_cycles(Rank::new(0)) > 300);
        // The wake-up latency shows in the read (ACT waits for tXP).
        assert!(mc.stats().min_read_latency.unwrap() >= 27);
    }

    #[test]
    fn power_management_wakes_for_refresh() {
        let mut cfg = SystemConfig::default();
        cfg.controller.powerdown_after_idle = 100;
        let mut mc = MemoryController::new(cfg, SchedulerKind::FrFcfsOpen);
        // Run through two refresh deadlines with no traffic at all.
        mc.run_for(2 * 50_000 + 1_000);
        assert_eq!(mc.refresh_engine(Rank::new(0)).batches_done(), 2);
        assert!(
            mc.device().is_powered_down(Rank::new(0)),
            "back to sleep after REF"
        );
    }

    #[test]
    fn is_idle_reflects_queue_state() {
        let mut mc = controller(SchedulerKind::FrFcfsOpen);
        assert!(mc.is_idle());
        mc.enqueue(0, RequestKind::Read, addr_for(1, 0, 0));
        assert!(!mc.is_idle());
        mc.run_for(100);
        assert!(mc.is_idle());
    }

    #[test]
    fn sink_receives_the_full_event_stream() {
        use nuat_obs::MemorySink;
        let mut mc = MemoryController::with_sink(
            SystemConfig::default(),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            MemorySink::default(),
        );
        mc.enqueue(0, RequestKind::Read, addr_for(100, 0, 0));
        mc.enqueue(1, RequestKind::Read, addr_for(200, 0, 0));
        mc.run_for(400);
        mc.finish_trace();
        let sink = mc.sink();
        assert!(sink.finished);
        let count = |pred: &dyn Fn(&TraceEvent) -> bool| {
            sink.events.iter().filter(|e| pred(e)).count() as u64
        };
        assert_eq!(count(&|e| matches!(e, TraceEvent::Enqueue { .. })), 2);
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::ReadComplete { .. })),
            mc.stats().reads_completed
        );
        // Commands: one event per issued command, classes matching the
        // controller's counters.
        use nuat_obs::{CommandClass, CommandEvent};
        let class = |c: CommandClass| {
            count(&|e| matches!(e, TraceEvent::Command(CommandEvent { class, .. }) if *class == c))
        };
        assert_eq!(
            class(CommandClass::Activate),
            mc.stats().acts_for_reads + mc.stats().acts_for_writes
        );
        assert_eq!(class(CommandClass::Read), mc.stats().cols_read);
        assert_eq!(class(CommandClass::Precharge), mc.stats().precharges);
        // Scheduler-issued ACTs carry their PB group and charge-derived
        // timing promise.
        let act = sink
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Command(c) if c.class == CommandClass::Activate => Some(c),
                _ => None,
            })
            .expect("an ACT was issued");
        assert!(act.pb.is_some());
        assert!(act.trcd.is_some() && act.tras.is_some());
        // Quiet spans are coalesced and cover exactly the skipped cycles.
        let quiet: u64 = sink
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::QuietSpan {
                    cycles, busy: true, ..
                } => *cycles,
                _ => 0,
            })
            .sum();
        assert_eq!(quiet, mc.cycles_skipped());
    }

    #[test]
    fn epoch_sampling_is_exact_across_skipped_spans() {
        use nuat_obs::MemorySink;
        let mut mc = MemoryController::with_sink(
            SystemConfig::default(),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            MemorySink::default(),
        );
        mc.set_sample_interval(1000);
        for i in 0..16 {
            mc.enqueue(0, RequestKind::Read, addr_for(100 + i, i % 8, 0));
        }
        // Spans both busy scheduling and long skipped idle stretches.
        mc.run_for(10_500);
        mc.finish_trace();
        let epochs = &mc.sink().epochs;
        // Boundaries at 1000..=10000, plus the final off-boundary sample
        // at 10500.
        assert_eq!(epochs.len(), 11);
        for (i, e) in epochs.iter().take(10).enumerate() {
            assert_eq!(e.epoch, i as u64);
            assert_eq!(e.cycle, (i as u64 + 1) * 1000);
        }
        let last = epochs.last().unwrap();
        assert_eq!(last.cycle, 10_500);
        // Cumulative counters in the final sample equal end-of-run stats.
        assert_eq!(last.reads_completed, mc.stats().reads_completed);
        assert_eq!(last.busy_cycles, mc.stats().busy_cycles);
        assert_eq!(last.cycles_skipped, mc.cycles_skipped());
        assert_eq!(last.refreshes, mc.stats().refreshes);
        assert_eq!(
            last.pb_acts.iter().sum::<u64>(),
            mc.stats().pb_act_histogram.iter().sum::<u64>()
        );
        // Samples are monotone in cycle and counters.
        for w in epochs.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
            assert!(w[1].reads_completed >= w[0].reads_completed);
            assert!(w[1].cycles_skipped >= w[0].cycles_skipped);
        }
    }

    #[test]
    fn instrumented_run_matches_null_sink_run_exactly() {
        use nuat_obs::MemorySink;
        let mut plain = controller(SchedulerKind::Nuat);
        let mut traced = MemoryController::with_sink(
            SystemConfig::default(),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            MemorySink::default(),
        );
        traced.set_sample_interval(500);
        for _ in 0..2 {
            for i in 0..12 {
                let a = addr_for(50 + i, i % 8, 0);
                plain.enqueue(0, RequestKind::Read, a);
                traced.enqueue(0, RequestKind::Read, a);
            }
            plain.run_for(3000);
            traced.run_for(3000);
        }
        assert_eq!(plain.stats(), traced.stats());
        assert_eq!(plain.device().stats(), traced.device().stats());
        assert_eq!(plain.now(), traced.now());
        assert_eq!(plain.cycles_skipped(), traced.cycles_skipped());
    }

    #[test]
    fn wheel_health_metrics_match_wheel_ground_truth() {
        use nuat_obs::metrics::TRACKED;
        use nuat_obs::{MetricsRecorder, NullSink};
        let mut mc = MemoryController::with_instrumentation(
            SystemConfig::default(),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            NullSink,
            MetricsRecorder::with_sample_interval(5_000),
        );
        // Refresh-heavy: bursts of work interleaved with long spans
        // crossing many tREFI boundaries, so the wheel churns through
        // rekeys, refresh keys, parking and (possibly) compactions.
        for round in 0..20u32 {
            for i in 0..12 {
                mc.enqueue(
                    0,
                    RequestKind::Read,
                    addr_for(200 + round * 7 + i, i % 8, 0),
                );
            }
            mc.run_for(10_000);
        }
        assert!(mc.stats().refreshes > 0, "run must be refresh-heavy");
        // Ground truth straight from the wheel's internal accounting;
        // `into_instrumentation` flushes the final gauges from the same
        // state, so the recorder must agree exactly.
        let ovf = mc.wheel.overflow_len() as u64;
        let stale = mc.wheel.stale_estimate() as u64;
        let live = mc.wheel.live_entries() as u64;
        let comps = mc.wheel.compactions();
        let (_sink, rec) = mc.into_instrumentation();
        assert_eq!(rec.counter(Counter::WheelOverflowLen), ovf);
        assert_eq!(rec.counter(Counter::WheelStale), stale);
        assert_eq!(rec.counter(Counter::WheelLive), live);
        assert_eq!(rec.counter(Counter::WheelCompactions), comps);
        assert!(rec.counter(Counter::WheelRekeys) > 0, "wheel never rekeyed");
        // Every sampled point respects the compaction invariant the
        // wheel maintains internally: stale overflow entries are
        // compacted away before they can exceed half the heap.
        let idx = |c: Counter| TRACKED.iter().position(|&t| t == c).unwrap();
        let (oi, si) = (idx(Counter::WheelOverflowLen), idx(Counter::WheelStale));
        assert!(!rec.timeline().is_empty());
        for &(_, vals) in rec.timeline() {
            assert!(
                vals[si] * 2 <= vals[oi].max(1),
                "sampled stale count {} exceeds half the overflow heap {}",
                vals[si],
                vals[oi]
            );
        }
    }

    mod indexed_vs_linear {
        use super::*;
        use proptest::prelude::*;

        // Drives a full random workload through the controller,
        // cross-checking the indexed per-bank enumeration against the
        // flat-scan oracle (same candidate set, same horizon, same
        // policy choice, warm gate cache identical to cold) at every
        // simulated cycle — enqueue bursts, timing-gated stretches,
        // refresh windows and the final drain included.
        proptest! {
            #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

            #[test]
            fn indexed_enum_equals_linear_scan(
                sched in 0usize..4,
                two_ranks in proptest::bool::ANY,
                ops in proptest::collection::vec(
                    (proptest::bool::ANY, 0u32..8, 0u32..24, proptest::bool::ANY, 0u64..24),
                    1..48,
                ),
            ) {
                let kind = [
                    SchedulerKind::Fcfs,
                    SchedulerKind::FrFcfsOpen,
                    SchedulerKind::FrFcfsClose,
                    SchedulerKind::Nuat,
                ][sched];
                let mut cfg = SystemConfig::default();
                if two_ranks {
                    cfg.dram.geometry.ranks_per_channel = 2;
                }
                let ranks = cfg.dram.geometry.ranks_per_channel as u32;
                let mut mc = MemoryController::new(cfg, kind);
                for (hi_rank, bank, row, is_write, gap) in ops {
                    let rk = if is_write {
                        RequestKind::Write
                    } else {
                        RequestKind::Read
                    };
                    if mc.can_accept(rk) {
                        mc.enqueue_decoded(
                            0,
                            rk,
                            nuat_types::DecodedAddr {
                                channel: nuat_types::Channel::new(0),
                                rank: Rank::new(if hi_rank { ranks - 1 } else { 0 }),
                                bank: Bank::new(bank),
                                row: Row::new(row),
                                col: nuat_types::Col::new(0),
                            },
                        );
                    }
                    for _ in 0..gap {
                        mc.check_enumeration_equivalence();
                        mc.tick();
                    }
                }
                let mut guard = 0u32;
                while !mc.is_idle() && guard < 50_000 {
                    mc.check_enumeration_equivalence();
                    mc.tick();
                    guard += 1;
                }
                prop_assert!(mc.is_idle(), "workload failed to drain");
            }
        }
    }
}
