//! Measurement procedures shared by the simulation workloads, and the
//! report they fill.

use crate::replay::{replay, validate_prefix, Model, Outcome, Recording};
use crate::stats::{iqr_share, median, peak_rss_mb_self, quartiles};
use nuat_obs::{Counter, MetricsRecorder, NullMetrics};
use std::time::Instant;

/// Timed repetitions per measurement, at least, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// Host seconds and modelled outcome of one pass over a workload.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rep {
    /// Trace generation (`nuat-workloads`).
    pub generate_s: f64,
    /// System or controller construction.
    pub build_s: f64,
    /// The simulation itself.
    pub run_s: f64,
    pub model: Model,
    /// Every simulation completed and returned every request.
    pub ok: bool,
}

/// A workload that can run plain or with its arrivals recorded.
pub trait Subject {
    fn rep(&self) -> Rep;
    fn recorded(&self) -> (Rep, Vec<Recording>);
}

/// One named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Raw per-repetition samples behind the medians.
    pub samples: Vec<(String, Vec<f64>)>,
    /// Operations (runs and checks) attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    pub digest: Option<u64>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Records `values` as raw samples and their median as the metric.
    pub fn median_of(&mut self, name: &str, unit: &'static str, values: Vec<f64>) {
        self.metric(name, unit, median(&values));
        self.samples.push((name.to_string(), values));
    }

    /// Counts one checked operation; a failure is reported on stderr.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {what}");
        }
    }

    /// The modelled-system totals, exact and never gated.
    pub fn model(&mut self, m: &Model) {
        self.metric("model.mc_cycles", "cycles", m.mc_cycles as f64);
        self.metric("model.requests", "count", m.requests as f64);
        self.metric(
            "model.avg_read_latency_cycles",
            "cycles",
            m.avg_read_latency(),
        );
        self.metric("model.reduced_act_share", "ratio", m.reduced_act_share());
        self.digest = Some(m.digest);
    }
}

/// Repeats `f` until `seconds` have passed and at least `min` times.
fn repeat<T>(seconds: f64, min: usize, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(f());
    }
    out
}

/// The end-to-end measurement: one warm-up pass, then timed passes for
/// `seconds`, each with its own set-up.
pub fn end_to_end(subject: &dyn Subject, seconds: f64, report: &mut Report) {
    let warm = subject.rep();
    report.check("warm-up run completes every request", warm.ok);
    let reps = repeat(seconds, MIN_REPS, || subject.rep());
    for r in &reps {
        report.check("run completes every request", r.ok);
        report.check("modelled statistics repeat exactly", r.model == warm.model);
    }
    let wall: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let wall_med = median(&wall);
    report.median_of("wall_s", "s", wall);
    report.median_of(
        "setup_s",
        "s",
        reps.iter().map(|r| r.generate_s + r.build_s).collect(),
    );
    report.metric("peak_rss_mb", "MB", peak_rss_mb_self());
    report.metric(
        "sim_mcycles_per_s",
        "Mcycles/s",
        warm.model.mc_cycles as f64 / wall_med / 1e6,
    );
    report.metric(
        "sim_kreq_per_s",
        "kreq/s",
        warm.model.requests as f64 / wall_med / 1e3,
    );
    if warm.generate_s > 0.0 {
        report.median_of(
            "nuat-workloads.generate_s",
            "s",
            reps.iter().map(|r| r.generate_s).collect(),
        );
    }
    report.median_of(
        "nuat-sim.build_s",
        "s",
        reps.iter().map(|r| r.build_s).collect(),
    );
    report.model(&warm.model);
}

/// Replays each recording once and checks it reproduces its run exactly.
/// Returns the summed replay seconds and full ticks.
fn replay_all(recordings: &[Recording], report: &mut Report) -> (f64, u64) {
    let (mut secs, mut ticks) = (0.0, 0);
    for rec in recordings {
        let (mc, s) = replay(rec, NullMetrics);
        let got = Outcome::of(&mc);
        if got != rec.outcome {
            eprintln!(
                "replay: {} cycles, {} reads, {} read-latency cycles; run: {}, {}, {}",
                got.mc_cycles,
                got.stats.reads_completed,
                got.stats.total_read_latency,
                rec.outcome.mc_cycles,
                rec.outcome.stats.reads_completed,
                rec.outcome.stats.total_read_latency
            );
        }
        report.check(
            "controller replay reproduces the system run exactly",
            got == rec.outcome,
        );
        secs += s;
        ticks += mc.full_ticks();
    }
    (secs, ticks)
}

/// Validates the command stream of a replay of the first `prefix`
/// arrivals of the first recording.
fn validate(recordings: &[Recording], prefix: usize, report: &mut Report) {
    let verdict = validate_prefix(&recordings[0], prefix);
    if let Err(e) = &verdict {
        eprintln!("reference checker: {e}");
    }
    report.check("command log passes the reference checker", verdict.is_ok());
}

/// The correctness checks without the layer split: one recorded run of
/// `subject`, its exact replay, and the protocol check of a prefix.
pub fn replay_checks(subject: &dyn Subject, prefix: usize, report: &mut Report) {
    let (rep, recordings) = subject.recorded();
    report.check("recorded run completes every request", rep.ok);
    replay_all(&recordings, report);
    validate(&recordings, prefix, report);
}

/// Controller phases attributed by `MetricsRecorder`, reported as shares
/// of their total.
const PHASES: [(&str, Counter); 6] = [
    ("refresh", Counter::PhaseRefreshNanos),
    ("enumerate", Counter::PhaseEnumNanos),
    ("choose", Counter::PhaseChooseNanos),
    ("issue", Counter::PhaseIssueNanos),
    ("rekey", Counter::PhaseRekeyNanos),
    ("horizon", Counter::PhaseHorizonNanos),
];

/// The traced pass: plain and recorded runs alternate for `seconds`,
/// then the last recording is replayed into bare controllers three
/// times, and once more with the phase recorder attached.
pub fn layer_split(subject: &dyn Subject, seconds: f64, prefix: usize, report: &mut Report) {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let p = subject.rep();
        let (t, recordings) = subject.recorded();
        report.check("run completes every request", p.ok && t.ok);
        report.check(
            "recording leaves the modelled statistics unchanged",
            p.model == t.model,
        );
        plain.push(p.run_s);
        traced.push(t.run_s);
        last = Some((t, recordings));
    }
    let (rep, recordings) = last.expect("at least one round ran");

    let mut replays = Vec::new();
    let mut full_ticks = 0;
    for _ in 0..3 {
        let (secs, ticks) = replay_all(&recordings, report);
        replays.push(secs);
        full_ticks = ticks;
    }

    let mut phase_nanos = [0u64; PHASES.len()];
    for rec in &recordings {
        let (mc, _) = replay(rec, MetricsRecorder::new());
        report.check(
            "phase-recorded replay reproduces the system run exactly",
            Outcome::of(&mc) == rec.outcome,
        );
        for (sum, (_, counter)) in phase_nanos.iter_mut().zip(PHASES) {
            *sum += mc.metrics().counter(counter);
        }
    }
    validate(&recordings, prefix, report);

    let run_s = median(&traced);
    let replay_s = median(&replays);
    let commands: u64 = recordings.iter().map(|r| r.outcome.stats.busy_cycles).sum();
    let mc_cycles: u64 = recordings.iter().map(|r| r.outcome.mc_cycles).sum();
    report.median_of("nuat-sim.run_s", "s", traced);
    report.median_of("nuat-core.replay_s", "s", replays);
    report.metric("nuat-sim.loop_s", "s", run_s - replay_s);
    report.metric("nuat-sim.loop_share", "ratio", (run_s - replay_s) / run_s);
    report.metric(
        "nuat-sim.trace_overhead",
        "ratio",
        run_s / median(&plain) - 1.0,
    );
    report
        .samples
        .push(("nuat-sim.plain_run_s".to_string(), plain));
    report.metric(
        "nuat-core.ns_per_full_tick",
        "ns",
        replay_s * 1e9 / full_ticks as f64,
    );
    report.metric("nuat-core.full_ticks", "count", full_ticks as f64);
    report.metric(
        "nuat-core.skip_ratio",
        "ratio",
        1.0 - full_ticks as f64 / mc_cycles as f64,
    );
    report.metric(
        "nuat-core.cmds_per_full_tick",
        "ratio",
        commands as f64 / full_ticks as f64,
    );
    let total: u64 = phase_nanos.iter().sum();
    for ((name, _), nanos) in PHASES.iter().zip(phase_nanos) {
        report.metric(
            format!("nuat-core.phase_share.{name}"),
            "ratio",
            nanos as f64 / total.max(1) as f64,
        );
    }
    report.model(&rep.model);
}

/// Spread of a sample as printed next to its median.
pub fn spread(values: &[f64]) -> String {
    let [q1, _, q3] = quartiles(values);
    format!(
        "n={} q1={q1:.6} q3={q3:.6} iqr={:.2}%",
        values.len(),
        100.0 * iqr_share(values)
    )
}
