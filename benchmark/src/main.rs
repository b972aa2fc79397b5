//! Host-time benchmark of the NUAT reproduction: the `campaign` binary
//! plus three long runs, with a replay-based split of controller time
//! versus core-model and calendar time. See README.md for the workloads
//! and metrics; `run.sh` builds and invokes this program.
//!
//! ```text
//! nuat-benchmark --workload <campaign|single_comm3|mix4|saturated>
//!     [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//!     [--campaign-bin PATH] [--work-dir DIR]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.

mod campaign;
mod measure;
mod replay;
mod saturated;
mod sims;
mod stats;

use measure::{layer_split, replay_checks, spread, Report, Subject};
use nuat_obs::json::escape;
use nuat_sim::RunConfig;
use nuat_workloads::{by_name, random_mixes};
use saturated::Saturated;
use sims::Sims;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics: printed with `--trace 0`, gated by BENCHMARK.json.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 19] = [
    ("nuat-sim.run_s", "s"),
    ("nuat-core.replay_s", "s"),
    ("nuat-sim.loop_s", "s"),
    ("nuat-sim.loop_share", "ratio"),
    ("nuat-sim.trace_overhead", "ratio"),
    ("nuat-core.ns_per_full_tick", "ns"),
    ("nuat-core.full_ticks", "count"),
    ("nuat-core.skip_ratio", "ratio"),
    ("nuat-core.cmds_per_full_tick", "ratio"),
    ("nuat-core.phase_share.refresh", "ratio"),
    ("nuat-core.phase_share.enumerate", "ratio"),
    ("nuat-core.phase_share.choose", "ratio"),
    ("nuat-core.phase_share.issue", "ratio"),
    ("nuat-core.phase_share.rekey", "ratio"),
    ("nuat-core.phase_share.horizon", "ratio"),
    ("model.mc_cycles", "cycles"),
    ("model.requests", "count"),
    ("model.avg_read_latency_cycles", "cycles"),
    ("model.reduced_act_share", "ratio"),
];

pub const WORKLOADS: [&str; 4] = ["campaign", "single_comm3", "mix4", "saturated"];

/// Input sizes. `smoke` is about 1/50 of `full`, for a quick end-to-end
/// check of the benchmark itself.
#[derive(Debug, Clone, Copy)]
struct Scale {
    name: &'static str,
    comm3_ops: usize,
    mix4_ops_per_core: usize,
    saturated_cycles: u64,
    /// Sizes of the small recorded runs the end-to-end pass checks.
    check_ops: usize,
    check_cycles: u64,
    /// Arrivals replayed through the (quadratic) reference checker.
    validate_arrivals: usize,
    /// `campaign --quick`, and its in-process equivalent.
    quick_campaign: bool,
}

const FULL: Scale = Scale {
    name: "full",
    comm3_ops: 1_000_000,
    mix4_ops_per_core: 250_000,
    saturated_cycles: 8_000_000,
    check_ops: 20_000,
    check_cycles: 200_000,
    validate_arrivals: 5_000,
    quick_campaign: false,
};

const SMOKE: Scale = Scale {
    name: "smoke",
    comm3_ops: 20_000,
    mix4_ops_per_core: 5_000,
    saturated_cycles: 160_000,
    check_ops: 4_000,
    check_cycles: 40_000,
    validate_arrivals: 1_000,
    quick_campaign: true,
};

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    campaign_bin: Option<PathBuf>,
    work_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: FULL,
        campaign_bin: None,
        work_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => a.workload = value,
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => a.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(a.seconds >= 0.0 && a.seconds.is_finite()) {
                    return Err(bad("a non-negative number"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scale" => {
                a.scale = match value.as_str() {
                    "full" => FULL,
                    "smoke" => SMOKE,
                    _ => return Err(bad("full or smoke")),
                }
            }
            "--campaign-bin" => a.campaign_bin = Some(value.into()),
            "--work-dir" => a.work_dir = Some(value.into()),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if a.workload == "campaign" && (a.campaign_bin.is_none() || a.work_dir.is_none()) {
        return Err("the campaign workload needs --campaign-bin and --work-dir".into());
    }
    Ok(a)
}

fn run_config(ops: usize, seed: u64) -> RunConfig {
    RunConfig {
        mem_ops_per_core: ops,
        seed,
        ..RunConfig::default()
    }
}

/// One core running comm3: bursty, 35% writes.
fn single_comm3(ops: usize, seed: u64) -> Sims {
    Sims {
        mixes: vec![vec![by_name("comm3").expect("Table 2 workload")]],
        rc: run_config(ops, seed),
    }
}

/// Four memory-intense cores that all stay active to the end.
fn mix4(ops_per_core: usize, seed: u64) -> Sims {
    let specs = ["comm1", "comm3", "ferret", "tigr"]
        .map(|n| by_name(n).expect("Table 2 workload"))
        .to_vec();
    Sims {
        mixes: vec![specs],
        rc: run_config(ops_per_core, seed),
    }
}

/// The first `count` of the campaign's own Fig. 22 four-core mixes, at
/// campaign scale and seed, under NUAT: simulations the campaign runs.
fn campaign_mixes(quick: bool, count: Option<usize>) -> Sims {
    let per_count = if quick { 4 } else { 32 };
    let mixes = random_mixes(4, per_count, 0x22c0de + 4)
        .into_iter()
        .take(count.unwrap_or(per_count))
        .map(|m| m.workloads)
        .collect();
    Sims {
        mixes,
        rc: if quick {
            RunConfig::quick()
        } else {
            RunConfig::default()
        },
    }
}

fn run(a: &Args, jobs: usize, report: &mut Report) {
    let s = a.scale;
    if a.workload == "campaign" {
        let c = campaign::Campaign {
            bin: a.campaign_bin.clone().expect("checked by parse_args"),
            work_dir: a.work_dir.clone().expect("checked by parse_args"),
            quick: s.quick_campaign,
            jobs,
        };
        if a.trace {
            let outputs = campaign::one_run(&c, report);
            campaign::stages(&c, &outputs, report);
            let sample = campaign_mixes(s.quick_campaign, None);
            layer_split(&sample, a.seconds, s.validate_arrivals, report);
        } else {
            replay_checks(
                &campaign_mixes(s.quick_campaign, Some(1)),
                s.validate_arrivals,
                report,
            );
            campaign::end_to_end(
                &c,
                &campaign_mixes(s.quick_campaign, None),
                a.seconds,
                report,
            );
        }
        let _ = std::fs::remove_dir_all(&c.work_dir);
        return;
    }
    let (full, small): (Box<dyn Subject>, Box<dyn Subject>) = match a.workload.as_str() {
        "single_comm3" => (
            Box::new(single_comm3(s.comm3_ops, a.seed)),
            Box::new(single_comm3(s.check_ops, a.seed)),
        ),
        "mix4" => (
            Box::new(mix4(s.mix4_ops_per_core, a.seed)),
            Box::new(mix4(s.check_ops / 4, a.seed)),
        ),
        "saturated" => (
            Box::new(Saturated {
                seed: a.seed,
                cycles: s.saturated_cycles,
            }),
            Box::new(Saturated {
                seed: a.seed,
                cycles: s.check_cycles,
            }),
        ),
        w => unreachable!("workload {w} was validated"),
    };
    if a.trace {
        layer_split(full.as_ref(), a.seconds, s.validate_arrivals, report);
    } else {
        replay_checks(small.as_ref(), s.validate_arrivals, report);
        measure::end_to_end(full.as_ref(), a.seconds, report);
    }
}

fn fingerprint(a: &Args, jobs: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::env::var("NUAT_BENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"commit\":\"{}\",\"nproc\":{nproc},\"cpu\":\"{}\",\"jobs\":{jobs},\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":\"{}\"}}",
        escape(&commit),
        escape(&stats::cpu_model()),
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        a.scale.name
    )
}

/// `"name":{"value":v,"unit":"u"}`, comma-separated from what precedes
/// it in the object `out` is building; a non-finite value prints as null.
fn json_metric(out: &mut String, name: &str, unit: &str, value: f64) {
    if !out.ends_with('{') {
        out.push(',');
    }
    let value = if value.is_finite() {
        value.to_string()
    } else {
        "null".to_string()
    };
    let _ = write!(
        out,
        "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
        escape(name),
        escape(unit)
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nuat-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // At most two simulation threads, in this process and in the
    // campaign processes it starts.
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    std::env::set_var("NUAT_JOBS", jobs.to_string());

    let mut report = Report::default();
    run(&args, jobs, &mut report);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in table {
        let ok = report
            .metrics
            .iter()
            .any(|m| m.name == name && m.unit == unit && m.value.is_finite());
        report.check(&format!("metric {name} measured, in {unit}"), ok);
    }

    // Every metric, for people: gated ones marked `*`, with the spread of
    // their samples.
    let (mut all, mut gated, mut samples) = ("{".to_string(), "{".to_string(), "{".to_string());
    for m in &report.metrics {
        let is_gated = table.iter().any(|(n, _)| *n == m.name);
        let sample = report.samples.iter().find(|(n, _)| *n == m.name);
        println!(
            "{} {:<34} {:>20} {:<10} {}",
            if is_gated { "*" } else { " " },
            m.name,
            m.value,
            m.unit,
            sample.map_or(String::new(), |(_, v)| spread(v))
        );
        json_metric(&mut all, &m.name, m.unit, m.value);
        if is_gated {
            json_metric(&mut gated, &m.name, m.unit, m.value);
        }
    }
    for (name, values) in &report.samples {
        if !samples.ends_with('{') {
            samples.push(',');
        }
        let list: Vec<String> = values.iter().map(f64::to_string).collect();
        let _ = write!(samples, "\"{}\":[{}]", escape(name), list.join(","));
    }
    for object in [&mut all, &mut gated, &mut samples] {
        object.push('}');
    }
    let digest = report
        .digest
        .map_or("null".into(), |d| format!("\"{d:016x}\""));
    // Everything, for a pipeline: run fingerprint, the modelled-system
    // digest, every metric and the raw samples behind each median.
    println!(
        "{{\"fingerprint\":{},\"digest\":{digest},\"metrics\":{all},\"samples\":{samples}}}",
        fingerprint(&args, jobs)
    );
    // The result line.
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{gated}}}",
        report.attempted, report.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Subject;
    use crate::replay::{replay, Outcome};
    use nuat_obs::NullMetrics;

    /// `(name, unit)` of every metric object in one section of
    /// BENCHMARK.json (one object per line there).
    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section}"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let field = |line: &str, key: &str| {
            let rest = &line[line.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} declared"
            );
        }
    }

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(name_ok(n) && unit_ok(u), "{n} {u}");
        }
    }

    /// Every metric a small run of each simulation workload prints is
    /// well formed, and both passes print every gated metric.
    #[test]
    fn small_runs_print_every_declared_metric() {
        let subjects: Vec<Box<dyn Subject>> = vec![
            Box::new(single_comm3(2_000, 7)),
            Box::new(mix4(500, 7)),
            Box::new(Saturated {
                seed: 7,
                cycles: 20_000,
            }),
        ];
        for s in &subjects {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let mut r = Report::default();
                if trace {
                    layer_split(s.as_ref(), 0.0, 300, &mut r);
                } else {
                    replay_checks(s.as_ref(), 300, &mut r);
                    measure::end_to_end(s.as_ref(), 0.0, &mut r);
                }
                assert_eq!(r.failed, 0);
                for (name, unit) in table {
                    let m = r.metrics.iter().find(|m| m.name == *name).expect(name);
                    assert_eq!(m.unit, *unit);
                    assert!(m.value.is_finite());
                }
            }
        }
    }

    fn assert_exact_replay(subject: &dyn Subject) {
        let (rep, recordings) = subject.recorded();
        assert!(rep.ok);
        for rec in &recordings {
            let (mc, _) = replay(rec, NullMetrics);
            assert_eq!(Outcome::of(&mc), rec.outcome);
        }
    }

    #[test]
    fn replay_reproduces_a_small_comm3_run() {
        assert_exact_replay(&single_comm3(20_000, 42));
    }

    #[test]
    fn replay_reproduces_a_small_four_core_run() {
        assert_exact_replay(&mix4(5_000, 42));
    }

    #[test]
    fn replay_reproduces_a_saturated_run() {
        assert_exact_replay(&Saturated {
            seed: 3,
            cycles: 100_000,
        });
    }

    #[test]
    fn saturated_loop_matches_the_bench_harness() {
        for seed in [0, 42] {
            let (cycles, skipped, _) =
                nuat_bench::saturated_run(nuat_core::SchedulerKind::Nuat, 64, 1_000_000, seed);
            let mut d = saturated::Driver::new(seed, nuat_obs::NullSink);
            d.step_to(1_000_000);
            assert_eq!(d.mc.now().raw(), cycles);
            assert_eq!(d.mc.cycles_skipped(), skipped);
        }
    }
}
