//! Figure 22: multi-core effects.
//!
//! Total-execution-time improvement of 5PB NUAT over FR-FCFS open- and
//! close-page for 1-, 2- and 4-core systems (paper: 4.8/6.2/21.9 % vs
//! open, 3.0/7.2/20.9 % vs close). The improvement grows with core
//! count because multiprogramming destroys spatial locality, shifting
//! work from row-buffer hits to activations — exactly where NUAT's
//! charge slack applies.

use crate::experiments::LatencyExecReport;
use crate::parallel::parallel_map;
use crate::runner::{run_mix, RunConfig};
use crate::system::SimResult;
use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_workloads::{random_mixes, table2, WorkloadSpec};
use std::fmt;

/// One core-count's aggregate improvements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticoreRow {
    /// Core count.
    pub cores: usize,
    /// Mean execution-time improvement vs FR-FCFS(open), percent.
    pub vs_open_pct: f64,
    /// Mean execution-time improvement vs FR-FCFS(close), percent.
    pub vs_close_pct: f64,
    /// Mean read-latency reduction vs FR-FCFS(open), percent.
    pub latency_vs_open_pct: f64,
    /// Combinations evaluated.
    pub combos: usize,
}

/// The Fig. 22 experiment result.
#[derive(Debug, Clone)]
pub struct MulticoreEffects {
    /// One row per core count.
    pub rows: Vec<MulticoreRow>,
}

impl MulticoreEffects {
    /// Runs the experiment for the given core counts. Single core uses
    /// `single_core_workloads` Table 2 entries; multi-core uses
    /// `mixes_per_count` random combinations (paper: 32).
    pub fn run(
        core_counts: &[usize],
        single_core_workloads: usize,
        mixes_per_count: usize,
        rc: &RunConfig,
    ) -> Self {
        Self::run_reusing(
            core_counts,
            single_core_workloads,
            mixes_per_count,
            rc,
            None,
        )
    }

    /// [`run`](Self::run), taking single-core results that `fig18`
    /// already holds instead of simulating them again.
    fn run_reusing(
        core_counts: &[usize],
        single_core_workloads: usize,
        mixes_per_count: usize,
        rc: &RunConfig,
        fig18: Option<&LatencyExecReport>,
    ) -> Self {
        let grouping = PbGrouping::paper(5);
        let rows = core_counts
            .iter()
            .map(|&cores| {
                let combos: Vec<Vec<WorkloadSpec>> = if cores == 1 {
                    table2()
                        .iter()
                        .take(single_core_workloads)
                        .map(|w| vec![*w])
                        .collect()
                } else {
                    random_mixes(cores, mixes_per_count, 0x22c0de + cores as u64)
                        .into_iter()
                        .map(|m| m.workloads)
                        .collect()
                };
                // Each combo's scheduler triple is one independent cell;
                // folding the returned triples in combo order keeps the
                // float accumulation identical to the sequential loop.
                let triples = parallel_map(&combos, |specs| {
                    // (execution CPU cycles, mean read latency)
                    let measure = |kind| {
                        let known = fig18
                            .filter(|_| specs.len() == 1)
                            .and_then(|r| r.first_seed_run(&specs[0], kind, rc));
                        let run =
                            |r: &SimResult| (r.execution_cpu_cycles as f64, r.avg_read_latency());
                        match known {
                            Some(r) => run(r),
                            None => run(&run_mix(specs, kind, grouping.clone(), rc)),
                        }
                    };
                    let nuat = measure(SchedulerKind::Nuat);
                    let open = measure(SchedulerKind::FrFcfsOpen);
                    let close = measure(SchedulerKind::FrFcfsClose);
                    (
                        pct(open.0, nuat.0),
                        pct(close.0, nuat.0),
                        pct(open.1, nuat.1),
                    )
                });
                let mut vs_open = 0.0;
                let mut vs_close = 0.0;
                let mut lat_open = 0.0;
                for (o, c, l) in &triples {
                    vs_open += o;
                    vs_close += c;
                    lat_open += l;
                }
                let n = combos.len() as f64;
                MulticoreRow {
                    cores,
                    vs_open_pct: vs_open / n,
                    vs_close_pct: vs_close / n,
                    latency_vs_open_pct: lat_open / n,
                    combos: combos.len(),
                }
            })
            .collect();
        MulticoreEffects { rows }
    }

    /// The paper's configuration: 1/2/4 cores, 18 single workloads, 32
    /// mixes per multi-core count.
    pub fn run_paper(rc: &RunConfig, mixes_per_count: usize) -> Self {
        Self::run(&[1, 2, 4], 18, mixes_per_count, rc)
    }

    /// [`run_paper`](Self::run_paper), reusing the single-core runs of a
    /// Fig. 18 report made with the same `rc`; the result is identical.
    pub fn run_paper_reusing(
        rc: &RunConfig,
        mixes_per_count: usize,
        fig18: &LatencyExecReport,
    ) -> Self {
        Self::run_reusing(&[1, 2, 4], 18, mixes_per_count, rc, Some(fig18))
    }
}

fn pct(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

impl fmt::Display for MulticoreEffects {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Fig. 22 — Multi-Core Effects (total execution time improvement, %)"
        )?;
        writeln!(
            f,
            "{:<7} {:>9} {:>10} {:>12} {:>7}",
            "cores", "vs open", "vs close", "lat vs open", "combos"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<7} {:>9.1} {:>10.1} {:>12.1} {:>7}",
                r.cores, r.vs_open_pct, r.vs_close_pct, r.latency_vs_open_pct, r.combos
            )?;
        }
        writeln!(
            f,
            "[paper: 1/2/4 cores -> 4.8/6.2/21.9 vs open, 3.0/7.2/20.9 vs close]"
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reusing_fig18_single_core_runs_changes_nothing() {
        let rc = RunConfig {
            mem_ops_per_core: 300,
            ..RunConfig::quick()
        };
        let fig18 = LatencyExecReport::run_subset(&table2()[..2], &rc);
        let reused = MulticoreEffects::run_reusing(&[1], 2, 1, &rc, Some(&fig18));
        assert_eq!(reused.rows, MulticoreEffects::run(&[1], 2, 1, &rc).rows);
        assert!(fig18
            .first_seed_run(&table2()[1], SchedulerKind::FrFcfsClose, &rc)
            .is_some());
        let other = RunConfig { seed: 7, ..rc };
        assert!(fig18
            .first_seed_run(&table2()[0], SchedulerKind::Nuat, &other)
            .is_none());
    }

    #[test]
    fn runs_and_renders_for_small_configs() {
        let rc = RunConfig {
            mem_ops_per_core: 500,
            ..RunConfig::quick()
        };
        let m = MulticoreEffects::run(&[1, 2], 2, 2, &rc);
        assert_eq!(m.rows.len(), 2);
        assert_eq!(m.rows[0].cores, 1);
        assert_eq!(m.rows[1].combos, 2);
        let txt = m.to_string();
        assert!(txt.contains("Fig. 22"));
        assert!(txt.contains("vs open"));
    }
}
