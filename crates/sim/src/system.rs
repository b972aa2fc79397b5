//! Full-system wiring: N trace-driven cores sharing one memory
//! controller per channel, clocked at the paper's 4:1 CPU-to-memory
//! ratio.
//!
//! [`System::run`] is event-driven: it jumps from one memory cycle in
//! which something happens — a controller needs a full tick, or a core
//! probes its memory port — to the next, bulk-advancing the controllers
//! across the quiet cycles between. Cores run ahead on their own clocks
//! between their port probes (see `nuat_cpu::Core::run_ahead`), and are
//! ticked only on the cycles the calendar files for them, in the
//! per-cycle loop's order (CPU subcycle first, then core index), so
//! request admission and request ids are unchanged. The per-cycle loop
//! itself lives on as the test reference, `oracle`'s `run_reference`.

use nuat_circuit::PbGrouping;
use nuat_core::{MemoryController, RequestKind, SchedulerKind};
use nuat_cpu::{Core, MemOp, MemoryPort, TraceSource};
use nuat_obs::{Counter, MetricsSink, NullMetrics, NullSink, TraceSink};
use nuat_types::{CpuCycle, McCycle, PhysAddr, SystemConfig, CPU_CYCLES_PER_MC_CYCLE};

#[doc(hidden)]
pub mod oracle;

/// The channel `addr` maps to. Single-channel systems (the paper's
/// Table 3 configuration) skip the address decode on this per-probe
/// path.
fn channel_of(cfg: &SystemConfig, channels: usize, addr: PhysAddr) -> usize {
    if channels == 1 {
        return 0;
    }
    cfg.dram
        .geometry
        .decode(addr, cfg.controller.mapping)
        .channel
        .index()
}

/// Adapter exposing the channel controllers as the cores'
/// [`MemoryPort`]. Requests route by the decoded channel; completion
/// tokens encode `(request id, channel)` so the system can match them
/// back even though each controller numbers requests independently.
struct Port<'a, S: TraceSink = NullSink, M: MetricsSink = NullMetrics> {
    mcs: &'a mut [MemoryController<S, M>],
    cfg: &'a SystemConfig,
}

impl<S: TraceSink, M: MetricsSink> MemoryPort for Port<'_, S, M> {
    fn can_accept(&self, op: MemOp, addr: PhysAddr) -> bool {
        self.mcs[channel_of(self.cfg, self.mcs.len(), addr)].can_accept(kind_of(op))
    }

    fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64 {
        let decoded = self
            .cfg
            .dram
            .geometry
            .decode(addr, self.cfg.controller.mapping);
        let ch = decoded.channel.index();
        let id = self.mcs[ch].enqueue_decoded(core, kind_of(op), decoded);
        token(id.0, ch, self.mcs.len())
    }
}

/// Packs `(request id, channel)` into the opaque core-facing token.
fn token(id: u64, channel: usize, channels: usize) -> u64 {
    id * channels as u64 + channel as u64
}

fn kind_of(op: MemOp) -> RequestKind {
    match op {
        MemOp::Read => RequestKind::Read,
        MemOp::Write => RequestKind::Write,
    }
}

/// The event calendar of [`System::run`]: the CPU cycle at which each
/// core must next be ticked, taken in order of cycle and then core
/// index. A system has a handful of cores, so the queries scan `due`.
#[derive(Debug)]
struct Calendar {
    /// Core `i`'s next tick, `u64::MAX` for none.
    due: Vec<u64>,
    /// Cores whose next record a full queue refused.
    blocked: Vec<usize>,
    /// Whether core `i` has retired its whole trace.
    done: Vec<bool>,
    unfinished: usize,
    /// The memory cycle after the latest finish so far.
    end: u64,
}

impl Calendar {
    fn new(cores: usize) -> Self {
        Calendar {
            due: vec![u64::MAX; cores],
            blocked: Vec::new(),
            done: vec![false; cores],
            unfinished: cores,
            end: 0,
        }
    }

    /// Runs core `i` ahead and files its next tick.
    fn schedule(&mut self, i: usize, core: &mut Core) {
        self.due[i] = core.run_ahead().map_or(u64::MAX, CpuCycle::raw);
        if core.is_done() && !self.done[i] {
            self.done[i] = true;
            self.unfinished -= 1;
            if let Some(f) = core.finished_at() {
                self.end = self.end.max(f.to_mc_floor().raw() + 1);
            }
        }
    }

    /// The earliest filed tick, `u64::MAX` for none.
    fn next(&self) -> u64 {
        self.due.iter().copied().min().unwrap_or(u64::MAX)
    }

    /// Takes the earliest filed tick if it falls before CPU cycle `end`;
    /// of equal ticks, the lowest core index's.
    fn pop_before(&mut self, end: u64) -> Option<(u64, usize)> {
        let (i, at) = self
            .due
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, at)| (at, i))?;
        if at >= end {
            return None;
        }
        self.due[i] = u64::MAX;
        Some((at, i))
    }
}

/// Outcome of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Scheduler display name.
    pub scheduler: &'static str,
    /// Memory cycles until the last core finished and the posted writes
    /// drained (or the cap).
    pub mc_cycles: u64,
    /// CPU cycles until the last core finished (the paper's total
    /// execution time).
    pub execution_cpu_cycles: u64,
    /// Whether every core retired its whole trace within the cap.
    pub completed: bool,
    /// Per-core finish times (CPU cycles); cap value if unfinished.
    pub core_finish_cpu_cycles: Vec<u64>,
    /// Controller statistics (latency, hit rates, PB distribution).
    pub stats: nuat_core::ControllerStats,
    /// Device statistics (reduced activations, command energy).
    pub device: nuat_dram::DeviceStats,
    /// Total DRAM energy in picojoules.
    pub energy_pj: f64,
    /// Cycles spent in power-down across all ranks and channels.
    pub powerdown_cycles: u64,
    /// Controller cycles crossed in bulk as quiet spans while requests
    /// were queued, summed over channels (diagnostic: how often the skip
    /// engaged under load; quiet cycles with empty queues are not
    /// counted).
    pub cycles_skipped: u64,
}

impl SimResult {
    /// Mean read latency in memory-controller cycles.
    pub fn avg_read_latency(&self) -> f64 {
        self.stats.avg_read_latency()
    }
}

/// N cores + one memory controller per channel. See the module docs.
///
/// Generic over the trace sink like the controller itself: the default
/// [`NullSink`] compiles every instrumentation site out, so an
/// uninstrumented `System` is identical to one predating observability.
#[derive(Debug)]
pub struct System<S: TraceSink = NullSink, M: MetricsSink = NullMetrics> {
    cores: Vec<Core>,
    mcs: Vec<MemoryController<S, M>>,
    cfg: SystemConfig,
    cpu_now: CpuCycle,
    /// Reused to drain controller completions without allocating a
    /// fresh `Vec` per controller per cycle.
    completions_buf: Vec<nuat_core::Completion>,
}

impl System {
    /// Builds a system running one trace per core. One controller is
    /// instantiated per configured channel (Table 3 uses one).
    ///
    /// A trace is a materialized `nuat_cpu::Trace` or any other
    /// [`TraceSource`], such as the generated traces of
    /// [`traces_for`](crate::traces_for); each core reads its own as it
    /// fetches.
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores` or
    /// the configuration is invalid.
    pub fn new<T>(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<T>,
    ) -> Self
    where
        T: IntoIterator,
        T::IntoIter: TraceSource + 'static,
    {
        let channels = cfg.dram.geometry.channels as usize;
        Self::with_sinks(
            cfg,
            scheduler,
            grouping,
            traces,
            vec![NullSink; channels],
            None,
        )
    }
}

impl<S: TraceSink> System<S> {
    /// Builds an instrumented system: one sink per channel controller
    /// (`sinks.len()` must equal the configured channel count), each
    /// receiving that channel's full event stream, plus an optional
    /// epoch-sampling interval applied to every controller.
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores`, the
    /// sink count differs from the channel count, or the configuration
    /// is invalid.
    pub fn with_sinks<T>(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<T>,
        sinks: Vec<S>,
        sample_interval: Option<u64>,
    ) -> Self
    where
        T: IntoIterator,
        T::IntoIter: TraceSource + 'static,
    {
        let channels = sinks.len();
        System::with_instrumentation(
            cfg,
            scheduler,
            grouping,
            traces,
            sinks,
            vec![NullMetrics; channels],
            sample_interval,
        )
    }
}

impl<S: TraceSink, M: MetricsSink> System<S, M> {
    /// Builds a fully instrumented system: one trace sink *and* one
    /// metrics sink per channel controller (both vectors must match the
    /// configured channel count). The metrics sinks ride their
    /// controllers for the whole run and come back out of
    /// [`run_instrumented`](Self::run_instrumented); with
    /// [`NullMetrics`] this is exactly [`with_sinks`](System::with_sinks).
    ///
    /// # Panics
    ///
    /// Panics if the trace count differs from `cfg.processor.cores`, the
    /// sink or metrics count differs from the channel count, or the
    /// configuration is invalid.
    pub fn with_instrumentation<T>(
        cfg: SystemConfig,
        scheduler: SchedulerKind,
        grouping: PbGrouping,
        traces: Vec<T>,
        sinks: Vec<S>,
        metrics: Vec<M>,
        sample_interval: Option<u64>,
    ) -> Self
    where
        T: IntoIterator,
        T::IntoIter: TraceSource + 'static,
    {
        assert_eq!(
            traces.len(),
            cfg.processor.cores,
            "need exactly one trace per configured core"
        );
        assert_eq!(
            sinks.len(),
            cfg.dram.geometry.channels as usize,
            "need exactly one sink per configured channel"
        );
        assert_eq!(
            metrics.len(),
            cfg.dram.geometry.channels as usize,
            "need exactly one metrics sink per configured channel"
        );
        let mcs: Vec<MemoryController<S, M>> = sinks
            .into_iter()
            .zip(metrics)
            .map(|(sink, m)| {
                let mut mc = MemoryController::with_instrumentation(
                    cfg,
                    scheduler,
                    grouping.clone(),
                    sink,
                    m,
                );
                if let Some(interval) = sample_interval {
                    mc.set_sample_interval(interval);
                }
                mc
            })
            .collect();
        let cores: Vec<Core> = traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| Core::new(i, cfg.processor, t))
            .collect();
        System {
            cores,
            mcs,
            cfg,
            cpu_now: CpuCycle::ZERO,
            completions_buf: Vec::new(),
        }
    }

    /// The channel-0 controller (for inspection mid-run).
    pub fn controller(&self) -> &MemoryController<S, M> {
        &self.mcs[0]
    }

    /// All channel controllers.
    pub fn controllers(&self) -> &[MemoryController<S, M>] {
        &self.mcs
    }

    /// True once every core has retired its trace before the system's
    /// CPU clock.
    pub fn is_done(&self) -> bool {
        self.cores
            .iter()
            .all(|c| c.is_done() && c.finished_at().is_none_or(|f| f < self.cpu_now))
    }

    /// Hands channel `ch`'s finished reads to their cores, leaving them
    /// in `completions_buf`.
    fn deliver(&mut self, ch: usize) {
        let t0 = M::ENABLED.then(nuat_obs::clock::now);
        let channels = self.mcs.len();
        let mc = &mut self.mcs[ch];
        let now = mc.now().to_cpu();
        self.completions_buf.clear();
        mc.drain_completions_into(&mut self.completions_buf);
        for done in &self.completions_buf {
            // Read data reaches the core at the start of the memory cycle
            // after the RD issued. USIMM waits for the last data beat,
            // `done.done.to_cpu()` (a known deviation, see EXPERIMENTS.md).
            let at = now;
            self.cores[done.request.core].complete_read(token(done.request.id.0, ch, channels), at);
        }
        if let Some(t0) = t0 {
            mc.metrics_mut().add(
                Counter::PhaseDrainNanos,
                nuat_obs::clock::now().saturating_sub(t0),
            );
        }
    }

    fn mc_now(&self) -> u64 {
        self.mcs[0].now().raw()
    }

    /// Runs to completion or `max_mc_cycles`, returning the result.
    ///
    /// After the last core retires, the controllers keep ticking until
    /// their queues drain (posted writes), so command accounting is
    /// total. Multi-channel statistics are aggregated (sums; cycle
    /// counts take the lockstep maximum).
    pub fn run(self, max_mc_cycles: u64) -> SimResult {
        self.run_with_warmup(max_mc_cycles, 0)
    }

    /// Like [`run`](Self::run), but resets all statistics once
    /// `warmup_reads` reads have completed, so steady-state numbers are
    /// not polluted by the cold start (empty row buffers, fully-aligned
    /// refresh phase).
    pub fn run_with_warmup(mut self, max_mc_cycles: u64, warmup_reads: u64) -> SimResult {
        self.run_events(max_mc_cycles, warmup_reads);
        self.result()
    }

    /// Like [`run_with_warmup`](Self::run_with_warmup), but additionally
    /// finalizes each channel's trace (flushing coalesced quiet spans,
    /// emitting the final epoch sample, closing exporters) and returns
    /// the per-channel sinks alongside the result.
    pub fn run_traced(mut self, max_mc_cycles: u64, warmup_reads: u64) -> (SimResult, Vec<S>) {
        self.run_events(max_mc_cycles, warmup_reads);
        let result = self.result();
        let sinks = self
            .mcs
            .into_iter()
            .map(MemoryController::into_sink)
            .collect();
        (result, sinks)
    }

    /// Like [`run_traced`](Self::run_traced), but also returns the
    /// per-channel metrics sinks (flushed and finalized) so callers can
    /// export Prometheus/JSONL text or render the health report.
    pub fn run_instrumented(
        mut self,
        max_mc_cycles: u64,
        warmup_reads: u64,
    ) -> (SimResult, Vec<S>, Vec<M>) {
        self.run_events(max_mc_cycles, warmup_reads);
        let result = self.result();
        let (sinks, metrics) = self
            .mcs
            .into_iter()
            .map(MemoryController::into_instrumentation)
            .unzip();
        (result, sinks, metrics)
    }

    /// Resets the statistics once `warmup_reads` reads have completed.
    fn warm_up(&mut self, warm: &mut bool, warmup_reads: u64) {
        if *warm {
            return;
        }
        let reads: u64 = self.mcs.iter().map(|m| m.stats().reads_completed).sum();
        if reads >= warmup_reads {
            for mc in &mut self.mcs {
                mc.reset_stats();
            }
            *warm = true;
        }
    }

    /// The event loop behind [`run`](Self::run): produces exactly the
    /// per-cycle loop's requests, commands and completions. A memory
    /// cycle is processed only when a controller needs a full tick in it
    /// or a core is filed to probe its port in it; the controllers cross
    /// the cycles between in one bulk advance, which cannot issue a
    /// command, complete a read or free a queue slot.
    ///
    /// The loop ends at the cap, or once every core has retired and
    /// every queue is empty: at the memory cycle after the last finish,
    /// or later if posted writes are still queued there. The same loop
    /// drains them, with an empty calendar and the channels in lockstep
    /// (idle channels keep refreshing while others drain).
    ///
    /// A core is caught up to the calendar's time only when its state is
    /// needed: before its filed tick, when a read completes for it (it is
    /// then run ahead again), and at the end of the run. A core refused
    /// by a full queue is filed again for the first CPU cycle after a
    /// controller tick that leaves its queue room.
    fn run_events(&mut self, max_mc_cycles: u64, warmup_reads: u64) {
        let mut warm = warmup_reads == 0;
        let mut cal = Calendar::new(self.cores.len());
        for (i, core) in self.cores.iter_mut().enumerate() {
            cal.schedule(i, core);
        }
        loop {
            let m = self.mc_now();
            // No advance crosses `retired`: the run may end there.
            let retired = if cal.unfinished == 0 {
                cal.end
            } else {
                u64::MAX
            };
            let drained = m >= retired && self.mcs.iter().all(MemoryController::is_idle);
            if m >= max_mc_cycles || drained {
                break;
            }
            let stop = if m < retired { retired } else { u64::MAX }.min(max_mc_cycles);
            let next = self
                .mcs
                .iter()
                .map(|mc| m + mc.skippable_cycles())
                .min()
                .unwrap_or(m)
                .min(cal.next() / CPU_CYCLES_PER_MC_CYCLE)
                .min(stop);
            if next > m {
                for mc in &mut self.mcs {
                    mc.run_for(next - m);
                }
                if next == stop {
                    continue;
                }
            }
            let end = McCycle::new(next + 1).to_cpu().raw();
            while let Some((at, i)) = cal.pop_before(end) {
                let core = &mut self.cores[i];
                core.catch_up(CpuCycle::new(at));
                let mut port = Port {
                    mcs: &mut self.mcs,
                    cfg: &self.cfg,
                };
                core.tick(CpuCycle::new(at), &mut port);
                if core.blocked_on().is_some() {
                    cal.blocked.push(i);
                }
                cal.schedule(i, core);
            }
            for ch in 0..self.mcs.len() {
                self.mcs[ch].tick();
                self.deliver(ch);
                for done in &self.completions_buf {
                    let i = done.request.core;
                    cal.schedule(i, &mut self.cores[i]);
                }
            }
            let mut blocked = std::mem::take(&mut cal.blocked);
            blocked.retain(|&i| {
                let (op, addr) = self.cores[i]
                    .blocked_on()
                    .expect("a filed blocked core stays blocked until ticked");
                let ch = channel_of(&self.cfg, self.mcs.len(), addr);
                let room = self.mcs[ch].can_accept(kind_of(op));
                if room {
                    cal.due[i] = end;
                }
                !room
            });
            cal.blocked = blocked;
            self.warm_up(&mut warm, warmup_reads);
        }
        self.cpu_now = McCycle::new(self.mc_now()).to_cpu();
        for core in &mut self.cores {
            core.catch_up(self.cpu_now);
        }
    }

    /// Aggregates the finished run into a [`SimResult`]. Multi-channel
    /// statistics are summed field-by-field (controller stats via
    /// `ControllerStats::merge`, device stats via
    /// [`nuat_dram::DeviceStats::merge`]); cycle counts take the
    /// lockstep channel-0 value. A core that ran ahead and finished
    /// after the cap counts as unfinished.
    fn result(&self) -> SimResult {
        let completed = self.is_done();
        let end = self.cpu_now;
        let core_finish_cpu_cycles: Vec<u64> = self
            .cores
            .iter()
            .map(|c| c.finished_at().filter(|&f| f < end).unwrap_or(end).raw())
            .collect();
        let execution_cpu_cycles = core_finish_cpu_cycles.iter().copied().max().unwrap_or(0);
        let elapsed = self.mc_now();
        let mut stats = self.mcs[0].stats().clone();
        let mut device = *self.mcs[0].device().stats();
        let mut energy_pj = self.mcs[0].device().energy_pj(McCycle::new(elapsed));
        let mut powerdown_cycles = self.mcs[0].device().total_powerdown_cycles();
        for mc in &self.mcs[1..] {
            stats.merge(mc.stats());
            device.merge(mc.device().stats());
            energy_pj += mc.device().energy_pj(McCycle::new(elapsed));
            powerdown_cycles += mc.device().total_powerdown_cycles();
        }
        let cycles_skipped = self.mcs.iter().map(MemoryController::cycles_skipped).sum();
        SimResult {
            scheduler: self.mcs[0].policy_name(),
            cycles_skipped,
            mc_cycles: elapsed,
            execution_cpu_cycles,
            completed,
            core_finish_cpu_cycles,
            stats,
            device,
            energy_pj,
            powerdown_cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::DramGeometry;
    use nuat_workloads::{by_name, TraceGenerator};

    fn run_one(name: &str, scheduler: SchedulerKind, mem_ops: usize) -> SimResult {
        let cfg = SystemConfig::with_cores(1);
        let trace = TraceGenerator::new(by_name(name).unwrap(), DramGeometry::default(), 1)
            .generate(mem_ops);
        System::new(cfg, scheduler, PbGrouping::paper(5), vec![trace]).run(20_000_000)
    }

    #[test]
    fn small_run_completes_under_every_scheduler() {
        for s in [
            SchedulerKind::Fcfs,
            SchedulerKind::FrFcfsOpen,
            SchedulerKind::FrFcfsClose,
            SchedulerKind::Nuat,
        ] {
            let r = run_one("black", s, 300);
            assert!(r.completed, "{} did not finish", r.scheduler);
            assert_eq!(r.stats.reads_completed + r.stats.writes_drained, 300);
            assert!(r.execution_cpu_cycles > 0);
        }
    }

    #[test]
    fn nuat_reduces_latency_on_a_low_locality_workload() {
        let open = run_one("ferret", SchedulerKind::FrFcfsOpen, 2000);
        let nuat = run_one("ferret", SchedulerKind::Nuat, 2000);
        assert!(open.completed && nuat.completed);
        assert!(
            nuat.avg_read_latency() < open.avg_read_latency(),
            "NUAT {} vs FR-FCFS(open) {}",
            nuat.avg_read_latency(),
            open.avg_read_latency()
        );
        assert!(
            nuat.device.reduced_activates > 0,
            "NUAT must exploit charge slack"
        );
    }

    #[test]
    fn open_page_beats_close_page_on_high_locality() {
        let open = run_one("libq", SchedulerKind::FrFcfsOpen, 1500);
        let close = run_one("libq", SchedulerKind::FrFcfsClose, 1500);
        assert!(open.avg_read_latency() <= close.avg_read_latency());
        assert!(open.stats.read_hit_rate() > 0.5);
        // Close page still catches queued hits (USIMM semantics), but
        // fewer than open page.
        assert!(close.stats.read_hit_rate() < open.stats.read_hit_rate());
    }

    #[test]
    fn multicore_system_finishes_and_tracks_per_core() {
        let cfg = SystemConfig::with_cores(2);
        let g = DramGeometry::default();
        let t0 = TraceGenerator::new(by_name("black").unwrap(), g, 1).generate(300);
        let t1 = TraceGenerator::new(by_name("face").unwrap(), g, 2).generate(300);
        let r = System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), vec![t0, t1])
            .run(20_000_000);
        assert!(r.completed);
        assert_eq!(r.core_finish_cpu_cycles.len(), 2);
        assert!(r.stats.per_core_reads.iter().all(|&c| c > 0));
    }

    #[test]
    fn calendar_ties_go_to_lowest_core() {
        // The per-cycle loop ticks cores in index order, so of equal
        // ticks the lowest core's comes first.
        let mut cal = Calendar::new(4);
        cal.due = vec![9, 5, u64::MAX, 5];
        assert_eq!(cal.next(), 5);
        assert_eq!(cal.pop_before(6), Some((5, 1)));
        assert_eq!(cal.pop_before(6), Some((5, 3)));
        assert_eq!(cal.pop_before(6), None);
        assert_eq!(cal.next(), 9);
    }

    #[test]
    fn calendar_pop_before_takes_only_ticks_before_end() {
        let mut cal = Calendar::new(3);
        assert_eq!(cal.next(), u64::MAX);
        assert_eq!(cal.pop_before(u64::MAX), None);
        cal.due = vec![40, u64::MAX, 12];
        // `end` is exclusive.
        assert_eq!(cal.pop_before(12), None);
        assert_eq!(cal.pop_before(13), Some((12, 2)));
        assert_eq!(cal.next(), 40);
        assert_eq!(cal.pop_before(41), Some((40, 0)));
        assert_eq!(cal.next(), u64::MAX);
        assert_eq!(cal.pop_before(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "one trace per configured core")]
    fn trace_count_must_match_cores() {
        System::new(
            SystemConfig::with_cores(2),
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            Vec::<nuat_cpu::Trace>::new(),
        );
    }
}
