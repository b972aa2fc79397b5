//! Standalone saturated-throughput driver, primarily for profiling the
//! controller hot path in isolation (the criterion bench wraps the same
//! loop in warmups and medians that drown a profiler in repetition).
//!
//! ```text
//! cargo run --release -p nuat-bench --bin saturated -- \
//!     [--scheduler NAME] [--depth N] [--cycles N] \
//!     [--compare DEPTH_B [--phases]]
//! ```
//!
//! `--compare B` interleaves depth `--depth` and depth `B` in
//! millisecond slices on one thread and reports the drift-cancelled
//! wall-time ratio (see `saturated_compare_depths`).
//!
//! `--phases` upgrades that comparison to per-issuing-tick phase
//! attribution: both sides carry metrics recorders and the report is a
//! side-by-side table of nanoseconds per issuing tick in each
//! controller phase, plus the combined enumerate+choose+horizon+rekey
//! row (the issuing tick's hot phases).
//!
//! `--metrics PATH` additionally runs one metrics-attached channel at
//! the same scheduler/depth/cycles, asserts that every registry counter
//! reconciles exactly with the controller's own statistics (the same
//! totals `BENCH_scheduler.json` records), writes `PATH` (Prometheus
//! text) and `PATH.jsonl`, and prints the health report.

use nuat_bench::{
    saturated_compare_depths, saturated_compare_phases, saturated_run, saturated_run_controller,
    SaturatedDriver,
};
use nuat_core::SchedulerKind;
use nuat_obs::{health_report, jsonl_lines, prometheus_text, Counter, MetricsRecorder};

/// Prints the side-by-side per-issuing-tick phase table for two
/// recorders, ending with the combined enumerate+choose+horizon+rekey
/// row.
fn print_phase_table(
    label_a: &str,
    label_b: &str,
    rec_a: &MetricsRecorder,
    rec_b: &MetricsRecorder,
) {
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
    let per_tick = |rec: &MetricsRecorder, c: Counter| {
        rec.counter(c) as f64 / rec.counter(Counter::TickCycles).max(1) as f64
    };
    println!(
        "phase attribution, ns per issuing tick ({} ticks A, {} ticks B):",
        rec_a.counter(Counter::TickCycles),
        rec_b.counter(Counter::TickCycles),
    );
    println!(
        "  {:<12} {:>14} {:>14} {:>8}",
        "phase", label_a, label_b, "delta"
    );
    for (label, c) in phases {
        let (a, b) = (per_tick(rec_a, c), per_tick(rec_b, c));
        println!(
            "  {:<12} {:>14.1} {:>14.1} {:>+7.1}%",
            label,
            a,
            b,
            if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 },
        );
    }
    let bar = [
        Counter::PhaseEnumNanos,
        Counter::PhaseChooseNanos,
        Counter::PhaseHorizonNanos,
        Counter::PhaseRekeyNanos,
    ];
    let (a, b) = (
        bar.iter().map(|&c| per_tick(rec_a, c)).sum::<f64>(),
        bar.iter().map(|&c| per_tick(rec_b, c)).sum::<f64>(),
    );
    println!(
        "  {:<12} {:>14.1} {:>14.1} {:>+7.1}%",
        "enum+cho+hor+rek",
        a,
        b,
        if b > 0.0 { (a / b - 1.0) * 100.0 } else { 0.0 },
    );
}

fn arg<T: std::str::FromStr>(name: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let scheduler = arg("--scheduler", "nuat".to_string());
    let depth: usize = arg("--depth", 64);
    let cycles: u64 = arg("--cycles", 4_000_000);
    let kind = match scheduler.as_str() {
        "fcfs" => SchedulerKind::Fcfs,
        "open" => SchedulerKind::FrFcfsOpen,
        "close" => SchedulerKind::FrFcfsClose,
        "nuat" => SchedulerKind::Nuat,
        other => panic!("unknown scheduler {other} (fcfs|open|close|nuat)"),
    };
    let depth_b: usize = arg("--compare", 0);
    if std::env::args().any(|a| a == "--phases") {
        if depth_b == 0 {
            eprintln!("--phases attributes a depth comparison: add --compare DEPTH_B");
            std::process::exit(2);
        }
        let (label_a, label_b) = (format!("A(depth {depth})"), format!("B(depth {depth_b})"));
        let (rec_a, rec_b, wall_a, wall_b) =
            saturated_compare_phases(kind, depth, depth_b, cycles, 200_000);
        println!(
            "{} interleaved: {label_a} {:.0} cyc/s vs {label_b} {:.0} cyc/s (ratio {:.4})",
            kind.name(),
            cycles as f64 / wall_a,
            cycles as f64 / wall_b,
            wall_a / wall_b,
        );
        print_phase_table(&label_a, &label_b, &rec_a, &rec_b);
        return;
    }
    if depth_b > 0 {
        let (wall_a, wall_b) = saturated_compare_depths(kind, depth, depth_b, cycles, 200_000);
        println!(
            "{} interleaved: depth {depth} {:.0} cyc/s vs depth {depth_b} {:.0} cyc/s \
             (ratio {:.4}, gap {:+.1}%)",
            kind.name(),
            cycles as f64 / wall_a,
            cycles as f64 / wall_b,
            wall_a / wall_b,
            (wall_b / wall_a - 1.0) * 100.0,
        );
        return;
    }
    let (sim, skipped, wall) = saturated_run(kind, depth, cycles, 0);
    println!(
        "{} depth={depth}: {sim} cycles ({skipped} skipped) in {wall:.4}s = {:.0} cyc/s",
        kind.name(),
        sim as f64 / wall
    );
    if std::env::args().any(|a| a == "--stats") {
        let (mc, _) = saturated_run_controller(kind, depth, cycles, 0);
        let s = mc.stats();
        println!(
            "acts={} cols_read={} cols_write={} pre={} ref={} busy={}/{} reads_done={} writes_done={}",
            s.acts_for_reads + s.acts_for_writes,
            s.cols_read,
            s.cols_write,
            s.precharges,
            s.refreshes,
            s.busy_cycles,
            s.total_cycles,
            s.reads_completed,
            s.writes_drained,
        );
        println!("full_ticks={}", mc.full_ticks());
    }
    if let Some(path) = std::env::args()
        .collect::<Vec<_>>()
        .iter()
        .position(|a| a == "--metrics")
        .and_then(|i| std::env::args().nth(i + 1))
    {
        let mut drv = SaturatedDriver::with_metrics(
            kind,
            depth,
            0,
            MetricsRecorder::with_sample_interval(cycles / 64),
        );
        drv.step_to(cycles);
        let mc = drv.into_controller();
        let skipped = mc.cycles_skipped();
        let ticks = mc.full_ticks();
        let stats = mc.stats().clone();
        let (_, rec) = mc.into_instrumentation();
        // Every total the bench JSON records must reconcile exactly with
        // the registry's own accounting — same run, two ledgers.
        assert_eq!(
            rec.counter(Counter::SkipBusyCycles),
            skipped,
            "skipped cycles"
        );
        assert_eq!(rec.counter(Counter::TickCycles), ticks, "full ticks");
        assert_eq!(
            rec.counter(Counter::CmdActivate),
            stats.acts_for_reads + stats.acts_for_writes,
            "activates"
        );
        assert_eq!(
            rec.counter(Counter::CmdRead),
            stats.cols_read,
            "column reads"
        );
        assert_eq!(
            rec.counter(Counter::CmdWrite),
            stats.cols_write,
            "column writes"
        );
        assert_eq!(
            rec.counter(Counter::CmdRefresh),
            stats.refreshes,
            "refreshes"
        );
        assert_eq!(
            rec.counter(Counter::CmdPrecharge),
            stats.precharges,
            "precharges"
        );
        assert_eq!(rec.counter(Counter::ReadsCompleted), stats.reads_completed);
        assert_eq!(rec.counter(Counter::WritesDrained), stats.writes_drained);
        let recs = [rec];
        std::fs::write(&path, prometheus_text(&recs)).expect("write metrics");
        std::fs::write(format!("{path}.jsonl"), jsonl_lines(&recs)).expect("write metrics jsonl");
        println!("metrics reconciled exactly with controller statistics");
        println!("  -> {path} (Prometheus text format)");
        println!("  -> {path}.jsonl (JSONL)");
        println!();
        print!("{}", health_report(&recs));
    }
}
