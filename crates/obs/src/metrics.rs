//! Zero-cost metrics registry: named counters, gauges and log2
//! histograms behind the same `const ENABLED` static-dispatch trick as
//! [`TraceSink`](crate::TraceSink).
//!
//! The controller and system are generic over `M: MetricsSink`; with
//! the default [`NullMetrics`] every `add`/`observe` call monomorphizes
//! into an empty inline function on a zero-sized type, and the guard
//! branches (`if M::ENABLED { ... }`) around the more expensive
//! collection sites — wall-clock phase timers, wheel introspection —
//! vanish at compile time. An uninstrumented build is therefore
//! bit- and speed-identical to one with no metrics code at all.
//!
//! [`MetricsRecorder`] is the one real implementation: a fixed counter
//! array, a bank of log2 [`Histogram`]s, and a sampled timeline of
//! tracked values for Perfetto counter tracks. Exporters are plain
//! functions over recorder slices: [`prometheus_text`],
//! [`jsonl_lines`], and [`health_report`].

use crate::json::{u64_array, ObjBuilder};
use std::fmt::Write as _;

/// Every scalar metric the simulator records, one variant per series.
///
/// Counters accumulate (`add`), gauges hold a level (`set_gauge` /
/// `lift_max`); [`Counter::kind`] drives both the Prometheus `# TYPE`
/// line and the merge rule in [`MetricsRecorder::absorb`] (counters
/// sum across channels, gauges take the maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Wall nanoseconds in power management (`manage_power`).
    PhasePowerNanos,
    /// Wall nanoseconds computing and servicing refresh.
    PhaseRefreshNanos,
    /// Wall nanoseconds enumerating issue candidates.
    PhaseEnumNanos,
    /// Wall nanoseconds in the scheduling policy's `choose`.
    PhaseChooseNanos,
    /// Wall nanoseconds issuing the chosen command.
    PhaseIssueNanos,
    /// Wall nanoseconds re-keying the bank wheel after a tick.
    PhaseRekeyNanos,
    /// Wall nanoseconds computing the busy-skip horizon.
    PhaseHorizonNanos,
    /// Wall nanoseconds draining completions back to the cores.
    PhaseDrainNanos,
    /// Cycles executed as full ticks (per-cycle scheduling work done).
    TickCycles,
    /// Cycles skipped inside busy quiet spans, with requests queued
    /// (must reconcile exactly with the controller's `cycles_skipped`
    /// total).
    SkipBusyCycles,
    /// Cycles skipped inside idle quiet spans, with the queues empty.
    SkipIdleCycles,
    /// ACT commands issued.
    CmdActivate,
    /// Column-read commands issued.
    CmdRead,
    /// Column-write commands issued.
    CmdWrite,
    /// Explicit precharge commands issued (all three sites: conflict
    /// precharge, refresh force-close, power-management row close).
    CmdPrecharge,
    /// Refresh batches issued.
    CmdRefresh,
    /// Reads returned to the cores.
    ReadsCompleted,
    /// Writes drained to DRAM.
    WritesDrained,
    /// Requests accepted into the command queues.
    EnqueuedRequests,
    /// Bank-wheel re-key operations (dirty-entry rate).
    WheelRekeys,
    /// Live (non-parked) wheel entries at the last sample (gauge).
    WheelLive,
    /// Peak request-slab occupancy (reads + writes in flight, gauge).
    SlabHighWater,
}

impl Counter {
    /// Every variant, in declaration order; indexes the recorder's
    /// counter array.
    pub const ALL: [Counter; 22] = [
        Counter::PhasePowerNanos,
        Counter::PhaseRefreshNanos,
        Counter::PhaseEnumNanos,
        Counter::PhaseChooseNanos,
        Counter::PhaseIssueNanos,
        Counter::PhaseRekeyNanos,
        Counter::PhaseHorizonNanos,
        Counter::PhaseDrainNanos,
        Counter::TickCycles,
        Counter::SkipBusyCycles,
        Counter::SkipIdleCycles,
        Counter::CmdActivate,
        Counter::CmdRead,
        Counter::CmdWrite,
        Counter::CmdPrecharge,
        Counter::CmdRefresh,
        Counter::ReadsCompleted,
        Counter::WritesDrained,
        Counter::EnqueuedRequests,
        Counter::WheelRekeys,
        Counter::WheelLive,
        Counter::SlabHighWater,
    ];

    /// Stable snake_case series name (Prometheus metric name without
    /// the `nuat_` prefix).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PhasePowerNanos => "phase_power_nanos_total",
            Counter::PhaseRefreshNanos => "phase_refresh_nanos_total",
            Counter::PhaseEnumNanos => "phase_enum_nanos_total",
            Counter::PhaseChooseNanos => "phase_choose_nanos_total",
            Counter::PhaseIssueNanos => "phase_issue_nanos_total",
            Counter::PhaseRekeyNanos => "phase_rekey_nanos_total",
            Counter::PhaseHorizonNanos => "phase_horizon_nanos_total",
            Counter::PhaseDrainNanos => "phase_drain_nanos_total",
            Counter::TickCycles => "tick_cycles_total",
            Counter::SkipBusyCycles => "skip_busy_cycles_total",
            Counter::SkipIdleCycles => "skip_idle_cycles_total",
            Counter::CmdActivate => "cmd_activate_total",
            Counter::CmdRead => "cmd_read_total",
            Counter::CmdWrite => "cmd_write_total",
            Counter::CmdPrecharge => "cmd_precharge_total",
            Counter::CmdRefresh => "cmd_refresh_total",
            Counter::ReadsCompleted => "reads_completed_total",
            Counter::WritesDrained => "writes_drained_total",
            Counter::EnqueuedRequests => "enqueued_requests_total",
            Counter::WheelRekeys => "wheel_rekeys_total",
            Counter::WheelLive => "wheel_live_entries",
            Counter::SlabHighWater => "slab_high_water",
        }
    }

    /// One-line human description (the Prometheus `# HELP` text).
    pub fn help(self) -> &'static str {
        match self {
            Counter::PhasePowerNanos => "Wall nanoseconds in power management",
            Counter::PhaseRefreshNanos => "Wall nanoseconds computing and servicing refresh",
            Counter::PhaseEnumNanos => "Wall nanoseconds enumerating issue candidates",
            Counter::PhaseChooseNanos => "Wall nanoseconds in the scheduling policy",
            Counter::PhaseIssueNanos => "Wall nanoseconds issuing commands",
            Counter::PhaseRekeyNanos => "Wall nanoseconds re-keying the bank wheel",
            Counter::PhaseHorizonNanos => "Wall nanoseconds computing the busy-skip horizon",
            Counter::PhaseDrainNanos => "Wall nanoseconds draining completions to cores",
            Counter::TickCycles => "Cycles executed as full scheduling ticks",
            Counter::SkipBusyCycles => "Cycles skipped inside busy quiet spans",
            Counter::SkipIdleCycles => "Cycles skipped inside idle quiet spans (queues empty)",
            Counter::CmdActivate => "ACT commands issued",
            Counter::CmdRead => "Column-read commands issued",
            Counter::CmdWrite => "Column-write commands issued",
            Counter::CmdPrecharge => "Explicit precharge commands issued",
            Counter::CmdRefresh => "Refresh batches issued",
            Counter::ReadsCompleted => "Reads returned to the cores",
            Counter::WritesDrained => "Writes drained to DRAM",
            Counter::EnqueuedRequests => "Requests accepted into the command queues",
            Counter::WheelRekeys => "Bank-wheel re-key operations",
            Counter::WheelLive => "Live bank-wheel entries at last sample",
            Counter::SlabHighWater => "Peak request-slab occupancy",
        }
    }

    /// Prometheus metric type: `"counter"` (sums across channels) or
    /// `"gauge"` (takes the maximum across channels).
    pub fn kind(self) -> &'static str {
        match self {
            Counter::WheelLive | Counter::SlabHighWater => "gauge",
            _ => "counter",
        }
    }

    fn index(self) -> usize {
        Counter::ALL
            .iter()
            .position(|&c| c == self)
            .expect("Counter::ALL covers every variant")
    }
}

/// Every distribution the simulator records as a log2 histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hist {
    /// Per-(rank,bank) queue depth observed at each enqueue.
    QueueDepth,
    /// Requests enqueued between consecutive full ticks.
    EnqueueBatch,
    /// Busy quiet-span lengths (requests queued), cycles.
    BusySkipSpan,
    /// Idle quiet-span lengths (queues empty), cycles.
    IdleSkipSpan,
    /// Bank-wheel lower-bound slack (new key minus current cycle) at
    /// each rekey.
    WheelSlack,
}

impl Hist {
    /// Every variant, in declaration order; indexes the recorder's
    /// histogram bank.
    pub const ALL: [Hist; 5] = [
        Hist::QueueDepth,
        Hist::EnqueueBatch,
        Hist::BusySkipSpan,
        Hist::IdleSkipSpan,
        Hist::WheelSlack,
    ];

    /// Stable snake_case series name.
    pub fn name(self) -> &'static str {
        match self {
            Hist::QueueDepth => "queue_depth",
            Hist::EnqueueBatch => "enqueue_batch",
            Hist::BusySkipSpan => "busy_skip_span",
            Hist::IdleSkipSpan => "idle_skip_span",
            Hist::WheelSlack => "wheel_slack",
        }
    }

    fn index(self) -> usize {
        Hist::ALL
            .iter()
            .position(|&h| h == self)
            .expect("Hist::ALL covers every variant")
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k`
/// holds values of bit-length `k` (so bucket 64 holds values with the
/// top bit set — nothing escapes).
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()) as usize;
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts, index = bit length of the samples it holds.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Inclusive upper bound of bucket `idx` (`2^idx - 1`).
    pub fn bucket_upper(idx: usize) -> u64 {
        if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Accumulates another histogram.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Counters snapshotted into the sampled timeline; the Chrome exporter
/// turns each into a Perfetto counter track.
pub const TRACKED: [Counter; 4] = [
    Counter::WheelLive,
    Counter::SlabHighWater,
    Counter::CmdActivate,
    Counter::CmdRead,
];

/// Receives metric increments from an instrumented simulation.
///
/// Statically dispatched like [`TraceSink`](crate::TraceSink): with
/// [`NullMetrics`] (the default, `ENABLED = false`) every call site
/// and its `if M::ENABLED` guard compile out. Metrics observe; they
/// must never influence the simulation — the determinism guard locks
/// byte-identity between attached-metrics and null runs.
pub trait MetricsSink: Send {
    /// Compile-time enable flag: `false` only for [`NullMetrics`].
    const ENABLED: bool = true;

    /// Adds `n` to counter `c`.
    #[inline(always)]
    fn add(&mut self, _c: Counter, _n: u64) {}

    /// Raises gauge `c` to at least `v` (peak tracking).
    #[inline(always)]
    fn lift_max(&mut self, _c: Counter, _v: u64) {}

    /// Sets gauge `c` to `v`.
    #[inline(always)]
    fn set_gauge(&mut self, _c: Counter, _v: u64) {}

    /// Records `v` into histogram `h`.
    #[inline(always)]
    fn observe(&mut self, _h: Hist, _v: u64) {}

    /// Whether the timeline wants a sample at `cycle`. Callers refresh
    /// the sampled gauges and call [`MetricsSink::sample`] when true.
    #[inline(always)]
    fn sample_due(&self, _cycle: u64) -> bool {
        false
    }

    /// Pushes a timeline point at `cycle` from the current gauges.
    #[inline(always)]
    fn sample(&mut self, _cycle: u64) {}

    /// Final flush at end of run: records a last timeline point.
    fn flush(&mut self, _cycle: u64) {}

    /// The concrete recorder, when there is one — lets generic code
    /// hand the collected metrics to exporters without knowing `M`.
    fn recorder(&self) -> Option<&MetricsRecorder> {
        None
    }

    /// Called once when the run ends.
    fn finish(&mut self) {}
}

/// The no-op metrics sink: every increment compiles out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullMetrics;

impl MetricsSink for NullMetrics {
    const ENABLED: bool = false;
}

/// The real metrics store: a counter array, log2 histograms, and a
/// sampled timeline of [`TRACKED`] values.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRecorder {
    counters: [u64; Counter::ALL.len()],
    hists: [Histogram; Hist::ALL.len()],
    timeline: Vec<(u64, [u64; TRACKED.len()])>,
    sample_interval: Option<u64>,
    next_sample: u64,
    channel: u64,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRecorder {
    /// Creates an empty recorder with no timeline sampling.
    pub fn new() -> Self {
        // A recorder existing means phase wall-time will be attributed;
        // calibrate the phase clock now, outside any measured region.
        crate::clock::calibrate();
        MetricsRecorder {
            counters: [0; Counter::ALL.len()],
            hists: [
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
                Histogram::default(),
            ],
            timeline: Vec::new(),
            sample_interval: None,
            next_sample: 0,
            channel: 0,
        }
    }

    /// Creates a recorder that snapshots [`TRACKED`] values every
    /// `interval` cycles into the timeline.
    pub fn with_sample_interval(interval: u64) -> Self {
        let mut r = Self::new();
        r.sample_interval = Some(interval.max(1));
        r
    }

    /// Tags the recorder with its channel index (exported as the
    /// Prometheus `channel` label).
    pub fn set_channel(&mut self, channel: u64) {
        self.channel = channel;
    }

    /// The channel index this recorder is tagged with.
    pub fn channel(&self) -> u64 {
        self.channel
    }

    /// Current value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Histogram `h`.
    pub fn hist(&self, h: Hist) -> &Histogram {
        &self.hists[h.index()]
    }

    /// The sampled timeline: `(cycle, tracked values)` in cycle order.
    pub fn timeline(&self) -> &[(u64, [u64; TRACKED.len()])] {
        &self.timeline
    }

    fn snapshot(&self) -> [u64; TRACKED.len()] {
        let mut vals = [0; TRACKED.len()];
        for (v, c) in vals.iter_mut().zip(TRACKED.iter()) {
            *v = self.counters[c.index()];
        }
        vals
    }

    /// Merges another recorder: counters sum, gauges take the maximum,
    /// histograms accumulate. The timeline is left untouched (timelines
    /// are per-channel; merge is for run-level aggregation).
    pub fn absorb(&mut self, other: &MetricsRecorder) {
        for c in Counter::ALL {
            let i = c.index();
            if c.kind() == "gauge" {
                self.counters[i] = self.counters[i].max(other.counters[i]);
            } else {
                self.counters[i] += other.counters[i];
            }
        }
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    /// One JSONL line for this recorder: channel, every counter, every
    /// histogram (count/sum/max/buckets), and the timeline length.
    pub fn to_json_line(&self) -> String {
        let mut counters = ObjBuilder::new();
        for c in Counter::ALL {
            counters.u64(c.name(), self.counter(c));
        }
        let mut hists = String::from("{");
        for (i, h) in Hist::ALL.iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            let hist = self.hist(*h);
            let mut o = ObjBuilder::new();
            o.u64("count", hist.count())
                .u64("sum", hist.sum())
                .u64("max", hist.max())
                .raw("buckets", &u64_array(hist.buckets()));
            let _ = write!(hists, "\"{}\":{}", h.name(), o.finish());
        }
        hists.push('}');
        let mut line = ObjBuilder::new();
        line.u64("channel", self.channel)
            .raw("counters", &counters.finish())
            .raw("histograms", &hists)
            .u64("timeline_points", self.timeline.len() as u64);
        line.finish()
    }
}

impl MetricsSink for MetricsRecorder {
    #[inline(always)]
    fn add(&mut self, c: Counter, n: u64) {
        self.counters[c.index()] += n;
    }

    #[inline(always)]
    fn lift_max(&mut self, c: Counter, v: u64) {
        let i = c.index();
        self.counters[i] = self.counters[i].max(v);
    }

    #[inline(always)]
    fn set_gauge(&mut self, c: Counter, v: u64) {
        self.counters[c.index()] = v;
    }

    #[inline(always)]
    fn observe(&mut self, h: Hist, v: u64) {
        self.hists[h.index()].record(v);
    }

    #[inline(always)]
    fn sample_due(&self, cycle: u64) -> bool {
        self.sample_interval
            .is_some_and(|_| cycle >= self.next_sample)
    }

    #[inline(always)]
    fn sample(&mut self, cycle: u64) {
        if let Some(iv) = self.sample_interval {
            self.timeline.push((cycle, self.snapshot()));
            self.next_sample = cycle + iv;
        }
    }

    fn flush(&mut self, cycle: u64) {
        if self.sample_interval.is_some() {
            self.timeline.push((cycle, self.snapshot()));
        }
    }

    fn recorder(&self) -> Option<&MetricsRecorder> {
        Some(self)
    }
}

/// Prometheus text-format exposition for a set of per-channel
/// recorders: one `# HELP` / `# TYPE` pair per series, one sample per
/// channel with a `channel="i"` label, histograms in native
/// `_bucket{le=...}` / `_sum` / `_count` form.
pub fn prometheus_text(recs: &[MetricsRecorder]) -> String {
    let mut out = String::new();
    for c in Counter::ALL {
        let _ = writeln!(out, "# HELP nuat_{} {}", c.name(), c.help());
        let _ = writeln!(out, "# TYPE nuat_{} {}", c.name(), c.kind());
        for r in recs {
            let _ = writeln!(
                out,
                "nuat_{}{{channel=\"{}\"}} {}",
                c.name(),
                r.channel(),
                r.counter(c)
            );
        }
    }
    for h in Hist::ALL {
        let _ = writeln!(out, "# HELP nuat_{} {} (log2 buckets)", h.name(), h.name());
        let _ = writeln!(out, "# TYPE nuat_{} histogram", h.name());
        for r in recs {
            let hist = r.hist(h);
            let mut cumulative = 0u64;
            for (idx, &n) in hist.buckets().iter().enumerate() {
                cumulative += n;
                // Only materialize buckets up to the histogram's max so
                // the text stays readable; the +Inf bucket closes it.
                if n == 0 && Histogram::bucket_upper(idx) > hist.max() {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "nuat_{}_bucket{{channel=\"{}\",le=\"{}\"}} {}",
                    h.name(),
                    r.channel(),
                    Histogram::bucket_upper(idx),
                    cumulative
                );
            }
            let _ = writeln!(
                out,
                "nuat_{}_bucket{{channel=\"{}\",le=\"+Inf\"}} {}",
                h.name(),
                r.channel(),
                hist.count()
            );
            let _ = writeln!(
                out,
                "nuat_{}_sum{{channel=\"{}\"}} {}",
                h.name(),
                r.channel(),
                hist.sum()
            );
            let _ = writeln!(
                out,
                "nuat_{}_count{{channel=\"{}\"}} {}",
                h.name(),
                r.channel(),
                hist.count()
            );
        }
    }
    out
}

/// One JSONL document per recorder, newline-terminated.
pub fn jsonl_lines(recs: &[MetricsRecorder]) -> String {
    let mut out = String::new();
    for r in recs {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

fn pct(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        100.0 * part as f64 / whole as f64
    }
}

/// Human-readable end-of-run health report: cycle composition, phase
/// wall-time pie, wheel and queue summaries, and the top counters.
pub fn health_report(recs: &[MetricsRecorder]) -> String {
    let mut agg = MetricsRecorder::new();
    for r in recs {
        agg.absorb(r);
    }
    let mut out = String::new();
    let _ = writeln!(out, "== run health ({} channel(s)) ==", recs.len().max(1));

    let ticks = agg.counter(Counter::TickCycles);
    let busy_skip = agg.counter(Counter::SkipBusyCycles);
    let idle_skip = agg.counter(Counter::SkipIdleCycles);
    let total = ticks + busy_skip + idle_skip;
    let _ = writeln!(
        out,
        "cycles: {} total = {} ticked ({:.1}%) + {} busy-skipped ({:.1}%) + {} idle-skipped ({:.1}%)",
        total,
        ticks,
        pct(ticks, total),
        busy_skip,
        pct(busy_skip, total),
        idle_skip,
        pct(idle_skip, total)
    );
    let busy_spans = agg.hist(Hist::BusySkipSpan);
    if busy_spans.count() > 0 {
        let _ = writeln!(
            out,
            "busy-skip spans: {} (mean {:.1} cyc, max {})",
            busy_spans.count(),
            busy_spans.mean(),
            busy_spans.max()
        );
    }

    let phases = [
        ("power", Counter::PhasePowerNanos),
        ("refresh", Counter::PhaseRefreshNanos),
        ("enumerate", Counter::PhaseEnumNanos),
        ("choose", Counter::PhaseChooseNanos),
        ("issue", Counter::PhaseIssueNanos),
        ("rekey", Counter::PhaseRekeyNanos),
        ("horizon", Counter::PhaseHorizonNanos),
        ("drain", Counter::PhaseDrainNanos),
    ];
    let phase_total: u64 = phases.iter().map(|&(_, c)| agg.counter(c)).sum();
    if phase_total > 0 {
        let _ = writeln!(
            out,
            "phase wall time ({:.3} ms attributed):",
            phase_total as f64 / 1e6
        );
        for (label, c) in phases {
            let v = agg.counter(c);
            let _ = writeln!(
                out,
                "  {:<10} {:>12} ns  {:>5.1}%",
                label,
                v,
                pct(v, phase_total)
            );
        }
    }

    let cmds = [
        ("ACT", Counter::CmdActivate),
        ("RD", Counter::CmdRead),
        ("WR", Counter::CmdWrite),
        ("PRE", Counter::CmdPrecharge),
        ("REF", Counter::CmdRefresh),
    ];
    let cmd_total: u64 = cmds.iter().map(|&(_, c)| agg.counter(c)).sum();
    let _ = write!(out, "commands: {} total", cmd_total);
    for (label, c) in cmds {
        let _ = write!(out, ", {} {}", label, agg.counter(c));
    }
    let _ = writeln!(out);
    let cols = agg.counter(Counter::CmdRead) + agg.counter(Counter::CmdWrite);
    let acts = agg.counter(Counter::CmdActivate);
    if cols > 0 {
        let _ = writeln!(
            out,
            "row-hit ratio: {:.3} ({} column accesses, {} activates)",
            cols.saturating_sub(acts) as f64 / cols as f64,
            cols,
            acts
        );
    }

    let _ = writeln!(
        out,
        "wheel: {} rekeys, live {}",
        agg.counter(Counter::WheelRekeys),
        agg.counter(Counter::WheelLive)
    );
    let slack = agg.hist(Hist::WheelSlack);
    if slack.count() > 0 {
        let _ = writeln!(
            out,
            "wheel slack: mean {:.1} cyc, max {} over {} rekeys",
            slack.mean(),
            slack.max(),
            slack.count()
        );
    }
    let depth = agg.hist(Hist::QueueDepth);
    if depth.count() > 0 {
        let _ = writeln!(
            out,
            "queue depth at enqueue: mean {:.1}, max {}; slab high-water {}",
            depth.mean(),
            depth.max(),
            agg.counter(Counter::SlabHighWater)
        );
    }
    let batch = agg.hist(Hist::EnqueueBatch);
    if batch.count() > 0 {
        let _ = writeln!(
            out,
            "enqueue batches: mean {:.2} req/tick, max {}",
            batch.mean(),
            batch.max()
        );
    }

    let mut top: Vec<(Counter, u64)> = Counter::ALL
        .iter()
        .map(|&c| (c, agg.counter(c)))
        .filter(|&(_, v)| v > 0)
        .collect();
    top.sort_by_key(|&(_, v)| std::cmp::Reverse(v));
    let _ = writeln!(out, "top counters:");
    for (c, v) in top.iter().take(8) {
        let _ = writeln!(out, "  {:<32} {}", c.name(), v);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_metrics_is_inert() {
        let mut m = NullMetrics;
        m.add(Counter::CmdRead, 3);
        m.observe(Hist::QueueDepth, 9);
        assert!(!m.sample_due(100));
        assert!(m.recorder().is_none());
        const { assert!(!NullMetrics::ENABLED) };
    }

    #[test]
    fn recorder_counts_and_merges_by_kind() {
        let mut a = MetricsRecorder::new();
        a.add(Counter::CmdRead, 5);
        a.set_gauge(Counter::SlabHighWater, 10);
        let mut b = MetricsRecorder::new();
        b.add(Counter::CmdRead, 7);
        b.set_gauge(Counter::SlabHighWater, 4);
        a.absorb(&b);
        assert_eq!(a.counter(Counter::CmdRead), 12);
        assert_eq!(a.counter(Counter::SlabHighWater), 10);
        a.lift_max(Counter::SlabHighWater, 3);
        assert_eq!(a.counter(Counter::SlabHighWater), 10);
        a.lift_max(Counter::SlabHighWater, 30);
        assert_eq!(a.counter(Counter::SlabHighWater), 30);
    }

    #[test]
    fn histogram_log2_bucketing() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.buckets()[0], 1); // the value 0
        assert_eq!(h.buckets()[1], 1); // value 1
        assert_eq!(h.buckets()[2], 2); // values 2, 3
        assert_eq!(h.buckets()[11], 1); // 1024 has bit length 11
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn timeline_samples_on_cadence() {
        let mut r = MetricsRecorder::with_sample_interval(100);
        assert!(r.sample_due(0));
        r.sample(0);
        assert!(!r.sample_due(50));
        assert!(r.sample_due(100));
        r.add(Counter::CmdActivate, 2);
        r.sample(150);
        r.flush(400);
        assert_eq!(r.timeline().len(), 3);
        let act_idx = TRACKED
            .iter()
            .position(|&c| c == Counter::CmdActivate)
            .unwrap();
        assert_eq!(r.timeline()[0].1[act_idx], 0);
        assert_eq!(r.timeline()[1].1[act_idx], 2);
        assert_eq!(r.timeline()[2].0, 400);
    }

    #[test]
    fn prometheus_text_has_types_and_labels() {
        let mut r = MetricsRecorder::new();
        r.set_channel(2);
        r.add(Counter::CmdRead, 9);
        r.observe(Hist::QueueDepth, 5);
        let text = prometheus_text(&[r]);
        assert!(text.contains("# TYPE nuat_cmd_read_total counter"));
        assert!(text.contains("# TYPE nuat_slab_high_water gauge"));
        assert!(text.contains("nuat_cmd_read_total{channel=\"2\"} 9"));
        assert!(text.contains("nuat_queue_depth_bucket{channel=\"2\",le=\"+Inf\"} 1"));
        assert!(text.contains("nuat_queue_depth_sum{channel=\"2\"} 5"));
    }

    #[test]
    fn jsonl_and_health_report_cover_all_series() {
        let mut r = MetricsRecorder::new();
        r.add(Counter::TickCycles, 80);
        r.add(Counter::SkipBusyCycles, 20);
        r.add(Counter::PhaseEnumNanos, 1_000);
        r.add(Counter::CmdActivate, 4);
        r.add(Counter::CmdRead, 10);
        r.observe(Hist::BusySkipSpan, 20);
        let line = r.to_json_line();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"tick_cycles_total\":80"));
        assert!(line.contains("\"busy_skip_span\""));
        let report = health_report(&[r]);
        assert!(report.contains("100 total"));
        assert!(report.contains("row-hit ratio: 0.600"));
        assert!(report.contains("enumerate"));
    }

    #[test]
    fn counter_index_is_total_and_stable() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
    }
}
