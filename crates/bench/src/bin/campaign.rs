//! One-shot evaluation campaign: regenerates every table and figure
//! (plus the extension studies) into `results/`, text and CSV.
//!
//! ```sh
//! cargo run --release -p nuat-bench --bin campaign [--quick] [--out DIR] \
//!     [--sample-interval N]
//! ```
//!
//! With `--sample-interval N`, an instrumented NUAT run on comm3 is
//! added, writing its epoch time-series (one sample every N memory
//! cycles) to `nuat_comm3_timeseries.csv` — see the `trace_study` bin
//! for the full trace-artifact stack.
//!
//! With `--metrics PATH`, a metrics-attached NUAT run on comm3 is added,
//! writing `PATH` (Prometheus text format) and `PATH.jsonl` and printing
//! the end-of-run health report.

use nuat_bench::{quick_requested, run_config_from_args};
use nuat_circuit::{BinningProcess, DeviceSample, EccSupport, Fig9Report, PbGrouping};
use nuat_sim::{
    latency_exec_csv, multicore_csv, pb_sensitivity_csv, LatencyExecReport, MulticoreEffects,
    PbSensitivity,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

fn out_dir() -> PathBuf {
    let args: Vec<String> = std::env::args().collect();
    let dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "results".to_string());
    PathBuf::from(dir)
}

fn sample_interval() -> Option<u64> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--sample-interval")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn main() -> std::io::Result<()> {
    let rc = run_config_from_args();
    let dir = out_dir();
    fs::create_dir_all(&dir)?;
    let write = |name: &str, contents: String| -> std::io::Result<()> {
        let path = dir.join(name);
        eprintln!("  -> {}", path.display());
        fs::write(path, contents)
    };

    eprintln!("[1/6] circuit artifacts (Fig. 9, Fig. 17/Table 4)");
    write(
        "fig09_sense_amp.txt",
        Fig9Report::paper_default().to_string(),
    )?;
    let mut fig17 = String::new();
    for n in 2..=5 {
        fig17.push_str(&PbGrouping::paper(n).to_string());
        fig17.push('\n');
    }
    write("fig17_pb_config.txt", fig17)?;

    eprintln!("[2/6] Fig. 18 / Fig. 20 (18 workloads x 3 schedulers x 3 seeds)");
    let report = LatencyExecReport::run(&rc);
    write(
        "fig18_fig20.txt",
        format!(
            "{}\n{}\n{}",
            report.render_fig18(),
            report.render_fig20(),
            report.render_analysis()
        ),
    )?;
    write("fig18_fig20.csv", latency_exec_csv(&report))?;

    let mixes = if quick_requested() { 3 } else { 16 };
    eprintln!("[3/6] Fig. 21 (#PB sweep, {mixes} mixes per multi-core count)");
    let s = PbSensitivity::run_paper_reusing(&rc, mixes, &report);
    write("fig21_pb_sensitivity.txt", s.to_string())?;
    write("fig21_pb_sensitivity.csv", pb_sensitivity_csv(&s))?;

    let mixes22 = if quick_requested() { 4 } else { 32 };
    eprintln!("[4/6] Fig. 22 (multi-core, {mixes22} mixes per count)");
    let m = MulticoreEffects::run_paper_reusing(&rc, mixes22, &report);
    write("fig22_multicore.txt", m.to_string())?;
    write("fig22_multicore.csv", multicore_csv(&m))?;

    eprintln!("[5/6] Fig. 23 (binning, 10k devices)");
    let station = BinningProcess::paper_default();
    let mut rng = StdRng::seed_from_u64(0x23c0de);
    let pop: Vec<DeviceSample> = (0..10_000)
        .map(|_| {
            let m: f64 = (0..4).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / 4.0;
            DeviceSample {
                margin: (0.35 + 0.75 * m).min(1.0),
                single_bit_weak_words: if rng.gen_bool(0.18) {
                    rng.gen_range(1..4)
                } else {
                    0
                },
                multi_bit_weak_words: u64::from(rng.gen_bool(0.01)),
            }
        })
        .collect();
    let mut fig23 = String::new();
    for ecc in [EccSupport::None, EccSupport::Secded, EccSupport::MultiBit] {
        fig23.push_str(&station.bin_population(&pop, ecc).to_string());
        fig23.push_str("\n\n");
    }
    write("fig23_binning.txt", fig23)?;

    if let Some(interval) = sample_interval() {
        eprintln!("[extra] instrumented NUAT run on comm3 (epoch every {interval} cycles)");
        let (result, mut sinks) = nuat_sim::run_mix_traced(
            &[nuat_workloads::by_name("comm3").expect("comm3 exists")],
            nuat_core::SchedulerKind::Nuat,
            PbGrouping::paper(5),
            &rc,
            vec![nuat_obs::CsvTimeSeries::new(Vec::new())],
            Some(interval),
        );
        let csv = sinks.remove(0);
        let last = csv.last().expect("final sample always written");
        assert_eq!(last.reads_completed, result.stats.reads_completed);
        write(
            "nuat_comm3_timeseries.csv",
            String::from_utf8(csv.into_inner()).expect("CSV is ASCII"),
        )?;
    }

    if let Some(path) = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--metrics")
            .and_then(|i| args.get(i + 1).cloned())
    } {
        eprintln!("[extra] metrics-attached NUAT run on comm3");
        let interval = sample_interval().unwrap_or(10_000);
        let (_result, _sinks, recorders) = nuat_sim::run_mix_instrumented(
            &[nuat_workloads::by_name("comm3").expect("comm3 exists")],
            nuat_core::SchedulerKind::Nuat,
            PbGrouping::paper(5),
            &rc,
            vec![nuat_obs::NullSink],
            vec![nuat_obs::MetricsRecorder::with_sample_interval(interval)],
            None,
        );
        eprintln!("  -> {path}");
        fs::write(&path, nuat_obs::prometheus_text(&recorders))?;
        eprintln!("  -> {path}.jsonl");
        fs::write(format!("{path}.jsonl"), nuat_obs::jsonl_lines(&recorders))?;
        print!("{}", nuat_obs::health_report(&recorders));
    }

    eprintln!("[6/6] done — see {}", dir.display());
    Ok(())
}
