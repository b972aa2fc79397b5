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
//! Only the banks whose earliest-actionable key has come due in the
//! ready-set key table are enumerated, their legality read off gate
//! lanes that mirror the device's rule set; the final `issue` call
//! re-validates everything (including the charge-physics check), so any
//! divergence between the two is caught immediately. Cycles in which
//! provably nothing can happen are crossed in bulk. The [`oracle`]
//! module holds the naive per-cycle reference all of this is tested
//! against.

use crate::candidate::{Candidate, CandidateKind};
use crate::pbr::PbrAcquisition;
use crate::queues::{RequestQueues, NO_SLOT};
use crate::request::{MemoryRequest, RequestId, RequestKind};
use crate::scheduler::{PolicyView, SchedulerKind, SchedulerPolicy};
use crate::stats::ControllerStats;
use crate::wheel::{BankWheel, PARKED};
use nuat_circuit::PbGrouping;
use nuat_dram::{
    BankGates, BankLanes, BankState, DramCommand, DramDevice, RankTimingView, RefreshEngine,
    IDLE_ROW,
};
use nuat_obs::{
    Counter, EpochCadence, EpochSample, Hist, MetricsSink, NullMetrics, NullSink, TraceEvent,
    TraceSink,
};
use nuat_types::{Bank, McCycle, PhysAddr, Rank, Row, SystemConfig};

#[doc(hidden)]
pub mod oracle;

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
/// Invariants: contents are meaningless between ticks (except the LRRA
/// snapshot, whose validity is tracked explicitly by `lrras_gen`) —
/// every other user must clear/refill before reading; the buffers are
/// moved out of the controller (`std::mem::take`) for the duration of a
/// tick so the borrow checker sees them as disjoint from the
/// controller's state.
#[derive(Debug, Default)]
struct TickScratch {
    /// Per-rank "refresh wants this rank drained" flags.
    pending: Vec<bool>,
    /// The previous tick-pipeline's `pending` flags (swapped in by the
    /// acting-tick re-key before `pending` is refreshed at the
    /// post-tick clock): the re-key re-uses an untouched rank's
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
    /// Per-rank "idle counter advances during a quiet span" mask,
    /// filled by `next_busy_event_cycle_wheel` and read by
    /// `advance_quiet`. Valid exactly while `busy_horizon` is `Some`.
    counting: Vec<bool>,
    /// This tick's due wheel entries (sorted ascending — flat bank
    /// order), snapshotted at the top of every full tick.
    ready_banks: Vec<u32>,
    /// Re-key verdicts collected during wheel-driven enumeration
    /// (which holds `&self`) and applied by `post_tick_rekey`.
    rekeys: Vec<(u32, u64)>,
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
    /// Per-rank cycles with no queued work (drives power-down entry).
    rank_idle_cycles: Vec<u64>,
    /// Cached event horizon: every cycle in `[now, h)` is provably
    /// quiet (no command legal, no refresh-urgency change, no
    /// power-state decision), so `tick` and `run_for` advance across it
    /// in bulk. `None` = unknown, recompute after the next real tick.
    /// An arrival merges its bank's exact key into it.
    busy_horizon: Option<u64>,
    /// Incremental ready-set index: one earliest-actionable-cycle key
    /// per `(rank, bank)` pair plus one per-rank refresh marker.
    /// Candidate enumeration visits only due entries and the event
    /// horizon is the smallest key, after acting ticks too. Arrivals
    /// re-key their bank exactly, and an issue re-keys exactly the
    /// banks whose key class it moved (see `post_tick_rekey`).
    wheel: BankWheel,
    /// Per rank: the pending flag each refresh marker was last keyed
    /// with. While the flag is unchanged (and no `REF` issues, and the
    /// marker is not due) the marker's key needs no re-derivation.
    marker_pending: Vec<bool>,
    /// Full pipeline passes (`tick_inner` executions) — the cycles
    /// `advance_quiet` did *not* cross (diagnostic; deliberately not
    /// part of `ControllerStats`).
    full_ticks: u64,
    /// Busy cycles (requests queued) that `advance_quiet` crossed
    /// instead of full ticks; idle spans, with the queues empty, are not
    /// counted (diagnostic; deliberately not part of `ControllerStats`,
    /// which must stay bit-identical between skipping and per-tick
    /// modes).
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
            rank_idle_cycles: vec![0; ranks],
            busy_horizon: None,
            wheel,
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

    /// Copies the wheel's live-entry count into its metric gauge.
    /// Called at sample boundaries and at end-of-run.
    fn refresh_wheel_gauges(&mut self) {
        self.metrics
            .set_gauge(Counter::WheelLive, self.wheel.live_entries() as u64);
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

    /// Cycles with requests queued that were crossed in bulk as quiet
    /// spans instead of full ticks; quiet cycles with the queues empty
    /// are not counted (diagnostic; not part of [`ControllerStats`]).
    pub fn cycles_skipped(&self) -> u64 {
        self.cycles_skipped
    }

    /// Full pipeline passes executed: the cycles not crossed in bulk as
    /// quiet spans (diagnostic, not part of [`ControllerStats`]).
    pub fn full_ticks(&self) -> u64 {
        self.full_ticks
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
        let key =
            addr.rank.index() * self.cfg.dram.geometry.banks_per_rank as usize + addr.bank.index();
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
        let r = addr.rank.index();
        let bi = addr.bank.index();
        let rank = addr.rank;
        // Pre-push occupancy snapshots feed the side-effect guards below
        // (the push itself can flip a rank's postponable-refresh
        // decision or a power-down countdown).
        let was_empty = self.queues.is_empty();
        let rank_was_empty = self.queues.rank_len(r) == 0;
        let bank_was_empty = self.queues.bank_len(key) == 0;
        let pre_hits = self.queues.hit_counts(key);
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
        // The arrival's only effect on wheel keys is the target bank's
        // own (no device gate moved, and other banks' keys are
        // conservative bounds revalidated at enumeration), so compute
        // that bank's *exact* key and merge it into the cached horizon
        // instead of discarding the whole quiet span. Two side-effect
        // cases pin the bank due now and let the next full tick
        // re-derive:
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
    /// bookkeeping runs; the observable state is identical either way
    /// (the tests hold it to the per-cycle reference,
    /// `oracle`'s `tick_reference`).
    pub fn tick(&mut self) {
        if let Some(h) = self.busy_horizon {
            if self.now.raw() < h {
                self.advance_quiet(1);
                return;
            }
        }
        if S::ENABLED {
            // A real tick ends any coalesced quiet span, keeping the
            // event stream in near-chronological order.
            self.flush_quiet();
        }
        // Move the scratch buffers out for the duration of the tick so
        // they can be filled while the controller's own fields are
        // borrowed. `tick_inner`'s early returns all funnel back here,
        // so the buffers (and their capacity) always come home.
        let mut scratch = std::mem::take(&mut self.scratch);
        // Snapshot this tick's due entries; the wheel emits them in
        // ascending entry order, i.e. flat bank order (candidate order
        // feeds the policy's tie-breaks). Taken before the pipeline's
        // early returns so `post_tick_rekey` always sees the set.
        scratch.ready_banks.clear();
        self.wheel
            .collect_due_into(self.now.raw(), &mut scratch.ready_banks);
        scratch.rekeys.clear();
        scratch.enumerated = false;
        let issued = self.tick_inner(&mut scratch, Self::enumerate_candidates_wheel);
        self.observe_tick();
        // Fold this tick's observations back into the wheel — exact
        // keys for every entry the tick touched, conservative lower
        // bounds for the rest — and the horizon becomes the smallest
        // key, valid after acting ticks too.
        let t0 = phase_start::<M>();
        self.post_tick_rekey(&mut scratch, issued);
        let t0 = phase_cut(&mut self.metrics, Counter::PhaseRekeyNanos, t0);
        self.busy_horizon = Some(self.next_busy_event_cycle_wheel(&mut scratch));
        phase_end(&mut self.metrics, Counter::PhaseHorizonNanos, t0);
        self.scratch = scratch;
    }

    /// Emits what is due at the new clock after a full pipeline pass:
    /// epoch samples (sink side) and timeline points (metrics side).
    fn observe_tick(&mut self) {
        if S::ENABLED {
            self.sample_epochs();
        }
        if M::ENABLED && self.metrics.sample_due(self.now.raw()) {
            self.refresh_wheel_gauges();
            self.metrics.sample(self.now.raw());
        }
    }

    /// One full pipeline pass: power management, refresh service,
    /// candidate enumeration (the `enumerate` step, which fills
    /// `scratch.candidates`/`candidate_slots` for the current cycle),
    /// the policy's choice and its issue, then the refresh force-close
    /// fallback. Returns the issued command, if any (`Some` ⟺
    /// `busy_cycles` advanced); the wheel's post-tick re-key uses it to
    /// pinpoint which gates moved. Production passes the wheel-driven
    /// enumeration; the reference tick passes the flat queue scan.
    fn tick_inner(
        &mut self,
        scratch: &mut TickScratch,
        enumerate: impl FnOnce(&Self, &mut TickScratch),
    ) -> Option<DramCommand> {
        self.policy.on_cycle();
        self.stats.total_cycles += 1;
        self.full_ticks += 1;
        if M::ENABLED {
            self.metrics.add(Counter::TickCycles, 1);
            self.metrics
                .observe(Hist::EnqueueBatch, u64::from(self.enq_since_tick));
            self.enq_since_tick = 0;
        }

        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;

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
        enumerate(self, scratch);
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
    ///
    /// The span is *idle* when the queues are empty and *busy*
    /// otherwise; the label picks the skip counter, the span histogram
    /// and the [`TraceEvent::QuietSpan`] kind, and only busy spans count
    /// toward [`cycles_skipped`](Self::cycles_skipped).
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
        let busy = !self.queues.is_empty();
        if busy {
            self.cycles_skipped += n;
        }
        if M::ENABLED {
            let (counter, span) = if busy {
                (Counter::SkipBusyCycles, Hist::BusySkipSpan)
            } else {
                (Counter::SkipIdleCycles, Hist::IdleSkipSpan)
            };
            self.metrics.add(counter, n);
            self.metrics.observe(span, n);
            if self.metrics.sample_due(self.now.raw()) {
                self.refresh_wheel_gauges();
                self.metrics.sample(self.now.raw());
            }
        }
        if S::ENABLED {
            self.note_quiet(from, n, busy);
            self.sample_epochs();
        }
    }

    /// Runs `cycles` cycles: each span the busy horizon proves quiet
    /// (see [`skippable_cycles`](Self::skippable_cycles)) is crossed in
    /// one bulk advance, and every other cycle takes a full tick.
    pub fn run_for(&mut self, cycles: u64) {
        let end = self.now.raw() + cycles;
        while self.now.raw() < end {
            match self.skippable_cycles().min(end - self.now.raw()) {
                0 => self.tick(),
                n => self.advance_quiet(n),
            }
        }
    }

    /// One due bank's candidates: appends them (if any) to
    /// `out`/`out_slots`. A bank that offers nothing is re-keyed by the
    /// caller with `bank_key`, which derives its next chance to act from
    /// the same gates.
    ///
    /// Legality is read off the mirrored timing gates instead of being
    /// probed per candidate: the gate values *are* the device's own
    /// check inputs (`earliest_read/write` joined with the rank column
    /// gates, `earliest_pre`, and the act gate folding tRP/tRC/tRFC with
    /// the rank's tRRD/tFAW window), the bank's FSM state is pinned by
    /// the open-row mirror, and a powered-down rank cannot reach
    /// enumeration with queued work (`manage_power` wakes it first), so
    /// gate-legal ⇒ device-legal. The debug builds assert exactly that
    /// against `can_issue`; an activate refused on row charge state
    /// (which no timing lane encodes) is a broken policy promise, and
    /// the issue-time check reports it in every build.
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
        out: &mut Vec<Candidate>,
        out_slots: &mut Vec<u32>,
    ) {
        let now = self.now;

        if open != IDLE_ROW {
            debug_assert_eq!(
                self.queues.open_row_mirror(key),
                Some(Row::new(open)),
                "queue open-row mirror out of sync with device"
            );
            let (hit_r, hit_w) = self.queues.hit_counts(key);
            let hits = hit_r + hit_w;
            if hits > 0 {
                // Column candidates, per kind, from the incremental
                // match index.
                for (kind, count) in [(RequestKind::Read, hit_r), (RequestKind::Write, hit_w)] {
                    if count == 0 {
                        continue;
                    }
                    let gate = match kind {
                        RequestKind::Read => gates.read,
                        RequestKind::Write => gates.write,
                    };
                    if now < gate {
                        continue;
                    }
                    for (slot, req) in self.queues.bank_hits_slots(key, kind) {
                        // NUAT's close-page decisions preserve imminent
                        // hits: a row some other queued request still
                        // needs stays open (this request itself
                        // accounts for one entry in the hit count). The
                        // FR-FCFS(close) baseline stays pure.
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
                            self.device.can_issue(&command, now).is_ok(),
                            "gate-legal column refused by the device: {command}"
                        );
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
                    }
                }
            } else if now >= gates.pre {
                // Conflict: consider precharging, but never close a row
                // some queued request still hits.
                let req = *self.queues.bank_head(key).expect("bank_len > 0");
                let command = DramCommand::Precharge { rank, bank };
                debug_assert!(
                    self.device.can_issue(&command, now).is_ok(),
                    "gate-legal precharge refused by the device: {command}"
                );
                let (pb, zone) = self.pbr.pb_and_zone(lrra, req.addr.row);
                out.push(Candidate {
                    request: req,
                    command,
                    kind: CandidateKind::Precharge,
                    pb,
                    zone,
                });
                out_slots.push(NO_SLOT);
            }
        } else if !p && now >= gates.act {
            // Activation (blocked while refresh pends; the refresh
            // horizon covers a pending bank). The representative is the
            // bank's oldest request.
            let (slot, req) = self
                .queues
                .bank_requests_slots(key)
                .next()
                .expect("bank_len > 0");
            let timings = self.policy.act_timings(view, req);
            let command = DramCommand::Activate {
                rank,
                bank,
                row: req.addr.row,
                timings,
            };
            // A non-timing refusal is a broken policy promise; a
            // too-early one would be a gate soundness bug in the SoA
            // lanes.
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
    }

    /// Wheel-driven enumeration: visits only `scratch.ready_banks` —
    /// the entries whose earliest-actionable key has come due — instead
    /// of every bank in the channel. Sound because every wheel key is a
    /// conservative lower bound (see `crate::wheel`): a bank strictly
    /// before its key cannot produce a candidate, so skipping it changes
    /// nothing a full scan would have found.
    ///
    /// Each visited bank's verdict is recorded into `scratch.rekeys`
    /// (applied by `post_tick_rekey`; enumeration holds `&self`):
    /// inert banks get their exact `bank_key`, drained banks park.
    /// Candidate-producing banks record nothing — their stored key is
    /// already at or before `now`, so they stay due (which keeps
    /// the horizon at `now` until something issues) without a re-key.
    fn enumerate_candidates_wheel(&self, scratch: &mut TickScratch) {
        let TickScratch {
            pending,
            lrras,
            candidates: out,
            candidate_slots: out_slots,
            ready_banks,
            rekeys,
            enumerated,
            ..
        } = scratch;
        out.clear();
        out_slots.clear();
        rekeys.clear();
        *enumerated = true;
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras,
            pbr: &self.pbr,
        };
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let total_banks = self.queues.total_banks();
        // Column duplicates (same bank + open row + kind) carry the
        // identical command and score no higher than the oldest one, so
        // for order-respecting policies only the first per group is
        // offered (the match lists are age order within a kind).
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
            self.enumerate_bank(
                &view,
                key,
                rank,
                bank,
                pending[r],
                lrras[r],
                lanes.bank_gates(bi, rt),
                lanes.open_row[bi],
                dedup_cols,
                out,
                out_slots,
            );
            if out.len() == n_before {
                // Inert this cycle: its key is its exact next chance
                // (PARKED until an external event re-keys it).
                rekeys.push((entry, self.bank_key(key, bi, pending[r], rt, lanes)));
            }
        }
    }

    /// Recomputes one bank's earliest-actionable key from the current
    /// device gates and queue indices — O(1), no request walk: column
    /// gates joined over the hit kinds present, the precharge gate for a
    /// conflict, the activate gate when idle, [`PARKED`] when drained
    /// or refresh-suppressed (the post-`REF` full-rank re-key revives
    /// suppressed banks). It reads the gates `enumerate_bank` tests, so
    /// for a bank that offered nothing it is that bank's exact next
    /// chance to act. The rank-scoped views are parameters so a re-key
    /// loop fetches them once per rank instead of once per bank.
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
    /// force-close precharge becomes legal: the refresh part of the busy
    /// horizon, held incrementally.
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
    /// every full tick.
    ///
    /// A non-acting tick moved no gate, so the enumeration's verdicts
    /// are exact and are applied as-is; only a due rank marker (its
    /// transition cycle passed) needs a fresh key.
    ///
    /// An acting tick applies the minimal exact re-key set. Device
    /// timing gates are rank-scoped and an issue mutates exactly one
    /// bank's queue state, so the verdicts stay exact for every rank the
    /// command did not touch — they are re-applied as-is (one store
    /// each). Within the issued rank only the banks whose key class the
    /// command actually moved go stale: the issued bank itself, plus —
    /// for an `ACT` — the idle-with-work siblings (the rank act window
    /// moved) or — for a column command — the open-row hit siblings (the
    /// rank column gates moved). A precharge is bank-local.
    ///
    /// A whole rank re-derives where every bank's key shape can change
    /// at once: a `REF` (tRFC moved every act gate and the cleared
    /// pending flag un-suppresses idle banks), a rank whose
    /// refresh-pending flag flipped across the tick boundary
    /// (suppression changes key shapes without a device mutation), and
    /// the early-return tick shapes that skip enumeration entirely
    /// (power transitions, a due refresh), where no verdicts cover the
    /// due entries. One loop recomputes both sets from the post-issue
    /// gates with `bank_key`, steered by a per-rank bank mask — every
    /// bank of a re-derived rank, the stale banks of the issued one — so
    /// it touches no other bank. For the re-applied verdicts a
    /// candidate-producing bank's `now` pin and its gate key are both
    /// at or before `now`, so the bank is due either way.
    /// On acting ticks `WheelRekeys` counts the keys that actually
    /// moved, and the per-key `WheelSlack` histogram is not fed (a
    /// verdict re-application is not a wait the wheel observes).
    ///
    /// Rank markers are re-derived last, when their key can have moved.
    fn post_tick_rekey(&mut self, scratch: &mut TickScratch, issued: Option<DramCommand>) {
        let total_banks = self.queues.total_banks();
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let ranks = self.cfg.dram.geometry.ranks_per_channel as usize;
        let any_marker_ready = scratch
            .ready_banks
            .last()
            .is_some_and(|&e| e as usize >= total_banks);
        let Some(cmd) = issued else {
            // Only the due-marker case needs the post-tick pending flags.
            self.note_rekeys(&scratch.rekeys);
            for (e, k) in scratch.rekeys.drain(..) {
                self.wheel.rekey(e, k);
            }
            if any_marker_ready {
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
        // The pending flags are a pure function of refresh urgency —
        // fixed within the tick, the clock has not advanced — and,
        // with a postpone budget, of channel emptiness. Post-issue
        // they can differ from the enumeration-time values only when
        // the `REF` itself moved the schedule or a column drain left
        // the channel empty: recompute only then (keeping the
        // enumeration-time flags in `pending_prev` to prove which
        // ranks' verdicts survived the boundary), and reuse the
        // tick-start flags on every other acting tick.
        let is_ref = matches!(cmd, DramCommand::Refresh { .. });
        let pending_moved =
            is_ref || (self.cfg.controller.refresh_postpone_batches > 0 && self.queues.is_empty());
        if pending_moved {
            std::mem::swap(&mut scratch.pending, &mut scratch.pending_prev);
            self.compute_refresh_pending(&mut scratch.pending);
        }
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
        if is_ref {
            derive |= 1 << ir;
        }
        // Banks of the issued rank whose stored keys the issue moved,
        // recomputed below — unless the whole rank re-derives anyway.
        let stale: u64 = if derive >> ir & 1 != 0 {
            0
        } else {
            match cmd {
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
                    (1u64 << bank.index()) | self.queues.hit_mask(ir)
                }
                DramCommand::Precharge { bank, .. } => 1u64 << bank.index(),
                DramCommand::Refresh { .. } => unreachable!("a REF re-derives its whole rank"),
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
        // Recompute the stale keys from the post-issue gates: every bank
        // of a re-derived rank, the issued rank's stale banks otherwise.
        let full_rank = u64::MAX >> (64 - banks_per_rank);
        let mut todo = derive | u64::from(stale != 0) << ir;
        while todo != 0 {
            let r = todo.trailing_zeros() as usize;
            todo &= todo - 1;
            let mut m = if derive >> r & 1 != 0 {
                full_rank
            } else {
                stale
            };
            let rank = Rank::new(r as u32);
            let rt = self.device.rank_timing(rank);
            let lanes = self.device.bank_lanes(rank);
            while m != 0 {
                let bi = m.trailing_zeros() as usize;
                m &= m - 1;
                let key = r * banks_per_rank + bi;
                let k = self.bank_key(key, bi, scratch.pending[r], &rt, &lanes);
                moved += u64::from(self.wheel.rekey(key as u32, k));
            }
        }
        if M::ENABLED {
            self.metrics.add(Counter::WheelRekeys, moved);
        }
        // Rank markers: a marker's key only moves on a `REF` (the
        // schedule advances), a pending-flag flip (an issue drained a
        // postponing rank), or its own coming due — while pending stays
        // false the key is exactly the same future urgency transition,
        // and while pending stays true the old key is a still-valid
        // conservative bound (service gates only move later). Re-derive
        // only in those cases instead of every acting tick.
        for r in 0..ranks {
            let p = scratch.pending[r];
            if is_ref || any_marker_ready || p != self.marker_pending[r] {
                self.rekey_rank_marker(total_banks, r, p);
            }
        }
    }

    /// Earliest cycle `h >= now` at which a full tick could do anything
    /// a quiet cycle does not: issue a command, change a rank's refresh
    /// urgency, or take a power-down decision. Every cycle in `[now, h)`
    /// is provably a no-op, because every input to those decisions —
    /// queue contents, bank states, the monotone per-bank/per-rank
    /// timing gates, refresh urgency, CKE state — is constant across the
    /// span. It is the wheel's smallest key (bank gates and rank refresh
    /// markers), clamped to `now`, merged with the power-management
    /// deadline, valid after acting ticks too, because
    /// `post_tick_rekey` has already folded the issue's gate movements
    /// back into the keys. Conservative by construction: a due wheel
    /// entry (an un-issued candidate, a due refresh step) or queued work
    /// at a powered-down rank pins it to `now`.
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
        let mut h = self.wheel.min_key();
        if h <= now {
            // A due entry means possible work this very cycle (an
            // un-issued candidate, a refusal pin, a due refresh step).
            return now;
        }

        // Power management: the tick on which an idle-counting rank
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

    /// Enumeration-only entry point for the `candidate_wheel`
    /// micro-bench: re-keys the `dirty` entries to due-now (modelling
    /// the post-issue dirtying a real tick performs), collects the due
    /// entries, and runs one wheel-driven enumeration over them,
    /// applying the verdict re-keys exactly as a real tick would.
    /// Returns the candidate count so the bench has a value to sink. Not
    /// a stable API.
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
        scratch.ready_banks.clear();
        self.wheel
            .collect_due_into(self.now.raw(), &mut scratch.ready_banks);
        self.enumerate_candidates_wheel(&mut scratch);
        for (e, k) in scratch.rekeys.drain(..) {
            self.wheel.rekey(e, k);
        }
        let n = scratch.candidates.len();
        self.scratch = scratch;
        n
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
        let quiet = |kind: bool| -> u64 {
            sink.events
                .iter()
                .map(|e| match e {
                    TraceEvent::QuietSpan { cycles, busy, .. } if *busy == kind => *cycles,
                    _ => 0,
                })
                .sum()
        };
        assert_eq!(quiet(true), mc.cycles_skipped());
        // Busy spans, idle spans and full ticks account for every cycle.
        assert!(quiet(false) > 0, "the drained tail must be an idle span");
        assert_eq!(quiet(true) + quiet(false) + mc.full_ticks(), mc.now().raw());
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
        // rekeys, refresh keys and parking.
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
        // Ground truth straight from the key table; `into_instrumentation`
        // flushes the final gauge from the same state, so the recorder
        // must agree exactly.
        let live = mc.wheel.live_entries() as u64;
        let (_sink, rec) = mc.into_instrumentation();
        assert_eq!(rec.counter(Counter::WheelLive), live);
        assert!(rec.counter(Counter::WheelRekeys) > 0, "wheel never rekeyed");
    }
}
