//! The `campaign` workload: the real `campaign` binary, a fresh process
//! per run, and in the traced pass the same library calls in-process.

use crate::measure::Report;
use crate::replay::{fnv1a, FNV_OFFSET};
use crate::sims::Sims;
use crate::stats::{cpu_seconds_children, cpu_seconds_self, peak_rss_mb_children};
use nuat_circuit::{BinningProcess, DeviceSample, EccSupport, Fig9Report, PbGrouping};
use nuat_sim::{
    latency_exec_csv, multicore_csv, pb_sensitivity_csv, LatencyExecReport, MulticoreEffects,
    PbSensitivity, RunConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// The campaign prints this when its first simulation stage starts;
/// everything before it is process start plus the circuit artifacts.
const FIRST_SIM_STAGE: &str = "[2/6]";

/// Process-start probes per round: campaign processes stopped at their
/// first simulation stage, cheap enough to take many.
const PROBES_PER_ROUND: usize = 8;

/// In-process set-ups of the campaign's Fig. 22 mixes per round.
const SETUPS_PER_ROUND: usize = 4;

/// Output files, by name.
pub type Outputs = BTreeMap<String, Vec<u8>>;

pub struct Campaign {
    pub bin: PathBuf,
    pub work_dir: PathBuf,
    pub quick: bool,
    pub jobs: usize,
}

/// One finished campaign process.
pub struct Run {
    /// Spawn to the first simulation stage.
    pub start_s: f64,
    pub wall_s: f64,
    pub outputs: Outputs,
    pub ok: bool,
}

impl Campaign {
    fn spawn(&self, out: &Path) -> std::io::Result<Child> {
        let mut cmd = Command::new(&self.bin);
        cmd.arg("--out").arg(out);
        if self.quick {
            cmd.arg("--quick");
        }
        cmd.env("NUAT_JOBS", self.jobs.to_string())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
    }

    /// Reads the child's progress lines until the first simulation stage
    /// starts (returning the time since `t0`) or the stream ends.
    fn until_first_stage(child: &mut Child, t0: Instant) -> (Option<f64>, impl BufRead) {
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        while lines.read_line(&mut line).unwrap_or(0) > 0 {
            if line.starts_with(FIRST_SIM_STAGE) {
                return (Some(t0.elapsed().as_secs_f64()), lines);
            }
            line.clear();
        }
        (None, lines)
    }

    /// Time from spawn to the first simulation stage; the process is then
    /// killed and reaped.
    pub fn probe(&self) -> Option<f64> {
        let out = self.work_dir.join("probe");
        let t0 = Instant::now();
        let mut child = self.spawn(&out).ok()?;
        let (start, _) = Self::until_first_stage(&mut child, t0);
        let _ = child.kill();
        let _ = child.wait();
        let _ = std::fs::remove_dir_all(&out);
        start
    }

    /// One whole campaign process, with its output files read back.
    pub fn run(&self) -> Run {
        let out = self.work_dir.join("run");
        let _ = std::fs::remove_dir_all(&out);
        let t0 = Instant::now();
        let Ok(mut child) = self.spawn(&out) else {
            return Run {
                start_s: 0.0,
                wall_s: 0.0,
                outputs: Outputs::new(),
                ok: false,
            };
        };
        let (start, mut rest) = Self::until_first_stage(&mut child, t0);
        // Drain the remaining progress lines so the child never blocks on
        // a full pipe.
        let _ = std::io::copy(&mut rest, &mut std::io::sink());
        let status = child.wait();
        let wall_s = t0.elapsed().as_secs_f64();
        let outputs = read_outputs(&out);
        let _ = std::fs::remove_dir_all(&out);
        Run {
            start_s: start.unwrap_or(0.0),
            wall_s,
            ok: status.is_ok_and(|s| s.success()) && start.is_some(),
            outputs,
        }
    }
}

fn read_outputs(dir: &Path) -> Outputs {
    let mut out = Outputs::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        if let Ok(bytes) = std::fs::read(entry.path()) {
            out.insert(entry.file_name().to_string_lossy().into_owned(), bytes);
        }
    }
    out
}

fn digest(outputs: &Outputs) -> u64 {
    outputs.iter().fold(FNV_OFFSET, |h, (name, bytes)| {
        fnv1a(fnv1a(h, name.as_bytes()), bytes)
    })
}

/// Whole campaign processes for `seconds` (at least two). Before each
/// run and after the last comes a round of set-up samples, so they span
/// the same stretch of time as the runs: in-process set-ups (trace
/// generation and system construction) of `sample`, some of the
/// campaign's own simulations, and process-start probes of the binary.
pub fn end_to_end(c: &Campaign, sample: &Sims, seconds: f64, report: &mut Report) {
    std::fs::create_dir_all(&c.work_dir).expect("work directory is writable");
    let mut setups = Vec::new();
    let mut starts = Vec::new();
    let mut runs = Vec::new();
    let mut cpu = 0.0;
    let start = Instant::now();
    loop {
        setups.extend((0..SETUPS_PER_ROUND).map(|_| sample.setup_s()));
        for _ in 0..PROBES_PER_ROUND {
            let probe = c.probe();
            report.check(
                "campaign reaches its first simulation stage",
                probe.is_some(),
            );
            starts.extend(probe);
        }
        if runs.len() >= 2 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let cpu0 = cpu_seconds_children();
        runs.push(c.run());
        cpu += cpu_seconds_children() - cpu0;
    }
    let first = digest(&runs[0].outputs);
    for r in &runs {
        report.check("campaign exits successfully", r.ok);
        report.check(
            "campaign writes every output file",
            EXPECTED
                .iter()
                .all(|f| r.outputs.get(*f).is_some_and(|b| !b.is_empty())),
        );
        report.check(
            "campaign outputs repeat byte for byte",
            digest(&r.outputs) == first,
        );
    }
    let wall: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let total: f64 = wall.iter().sum();
    report.median_of("wall_s", "s", wall);
    report.median_of("setup_s", "s", setups);
    starts.extend(runs.iter().map(|r| r.start_s));
    report.median_of("campaign.start_s", "s", starts);
    report.metric("peak_rss_mb", "MB", peak_rss_mb_children());
    report.metric("campaign.cpu_util", "ratio", cpu / (total * c.jobs as f64));
    report.digest = Some(first);
}

/// Files every campaign run writes.
const EXPECTED: [&str; 9] = [
    "fig09_sense_amp.txt",
    "fig17_pb_config.txt",
    "fig18_fig20.txt",
    "fig18_fig20.csv",
    "fig21_pb_sensitivity.txt",
    "fig21_pb_sensitivity.csv",
    "fig22_multicore.txt",
    "fig22_multicore.csv",
    "fig23_binning.txt",
];

/// Runs `f`, recording its wall seconds as `<name>_s` and, for the
/// parallel stages, its CPU utilisation over `jobs` workers.
fn stage<T>(report: &mut Report, name: &str, jobs: Option<usize>, f: impl FnOnce() -> T) -> T {
    let (t0, cpu0) = (Instant::now(), cpu_seconds_self());
    let out = f();
    let wall = t0.elapsed().as_secs_f64();
    report.metric(format!("{name}_s"), "s", wall);
    if let Some(jobs) = jobs {
        let util = (cpu_seconds_self() - cpu0) / (wall * jobs as f64);
        report.metric(format!("{name}_cpu_util"), "ratio", util);
    }
    out
}

/// The campaign's stages in this process, through the library calls the
/// `campaign` binary makes, each timed; the rendered files are compared
/// byte for byte with the binary's `outputs`.
pub fn stages(c: &Campaign, outputs: &Outputs, report: &mut Report) {
    let rc = if c.quick {
        RunConfig::quick()
    } else {
        RunConfig::default()
    };
    let (mixes21, mixes22) = if c.quick { (3, 4) } else { (16, 32) };
    let jobs = Some(c.jobs);
    let mut files: BTreeMap<&str, String> = BTreeMap::new();
    stage(report, "nuat-circuit.stage", None, || {
        files.insert(
            "fig09_sense_amp.txt",
            Fig9Report::paper_default().to_string(),
        );
        let mut fig17 = String::new();
        for n in 2..=5 {
            fig17.push_str(&PbGrouping::paper(n).to_string());
            fig17.push('\n');
        }
        files.insert("fig17_pb_config.txt", fig17);
        files.insert("fig23_binning.txt", fig23());
    });
    let r18 = stage(report, "nuat-sim.fig18", jobs, || {
        LatencyExecReport::run(&rc)
    });
    let s21 = stage(report, "nuat-sim.fig21", jobs, || {
        PbSensitivity::run_paper(&rc, mixes21)
    });
    let m22 = stage(report, "nuat-sim.fig22", jobs, || {
        MulticoreEffects::run_paper(&rc, mixes22)
    });
    stage(report, "nuat-sim.report", None, || {
        files.insert(
            "fig18_fig20.txt",
            format!(
                "{}\n{}\n{}",
                r18.render_fig18(),
                r18.render_fig20(),
                r18.render_analysis()
            ),
        );
        files.insert("fig18_fig20.csv", latency_exec_csv(&r18));
        files.insert("fig21_pb_sensitivity.txt", s21.to_string());
        files.insert("fig21_pb_sensitivity.csv", pb_sensitivity_csv(&s21));
        files.insert("fig22_multicore.txt", m22.to_string());
        files.insert("fig22_multicore.csv", multicore_csv(&m22));
    });
    for (name, text) in &files {
        let same = outputs.get(*name).is_some_and(|b| b == text.as_bytes());
        report.check(
            &format!("in-process {name} is byte-identical to the campaign's"),
            same,
        );
    }
}

/// Fig. 23's binning report over the campaign's fixed 10k-device
/// population.
fn fig23() -> String {
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
    let mut out = String::new();
    for ecc in [EccSupport::None, EccSupport::Secded, EccSupport::MultiBit] {
        out.push_str(&station.bin_population(&pop, ecc).to_string());
        out.push_str("\n\n");
    }
    out
}

/// One campaign process, the reference the traced pass's in-process
/// stages are compared against.
pub fn one_run(c: &Campaign, report: &mut Report) -> Outputs {
    std::fs::create_dir_all(&c.work_dir).expect("work directory is writable");
    let r = c.run();
    report.check("campaign exits successfully", r.ok);
    report.metric("campaign.wall_s", "s", r.wall_s);
    r.outputs
}
