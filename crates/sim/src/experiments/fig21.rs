//! Figure 21: sensitivity to the number of PBs.
//!
//! The paper plots, per core count (1/2/4), the read-latency cycles
//! saved by 3/4/5-PB NUAT relative to the 2PB configuration. The saved
//! cycles grow with #PB but with diminishing returns (the sense-amp
//! nonlinearity), and the sensitivity steepens with more cores.

use crate::experiments::LatencyExecReport;
use crate::parallel::parallel_map;
use crate::runner::{run_mix, RunConfig};
use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_workloads::{random_mixes, table2, WorkloadSpec};
use std::fmt;

/// Result grid of the #PB sweep.
#[derive(Debug, Clone)]
pub struct PbSensitivity {
    /// Core counts evaluated (paper: 1, 2, 4).
    pub core_counts: Vec<usize>,
    /// PB counts evaluated (paper: 2, 3, 4, 5).
    pub n_pbs: Vec<usize>,
    /// `avg_latency[ci][pi]`: mean read latency (cycles) for
    /// `core_counts[ci]` cores under `n_pbs[pi]` partitions.
    pub avg_latency: Vec<Vec<f64>>,
}

impl PbSensitivity {
    /// Runs the sweep. `mixes_per_count` bounds the number of
    /// multi-programmed combinations per core count (the paper uses 32;
    /// tests use fewer). Single-core uses `single_core_workloads`
    /// workloads from Table 2.
    pub fn run(
        core_counts: &[usize],
        n_pbs: &[usize],
        single_core_workloads: usize,
        mixes_per_count: usize,
        rc: &RunConfig,
    ) -> Self {
        Self::run_reusing(
            core_counts,
            n_pbs,
            single_core_workloads,
            mixes_per_count,
            rc,
            None,
        )
    }

    /// [`run`](Self::run), taking single-core 5PB results that `fig18`
    /// already holds instead of simulating them again.
    fn run_reusing(
        core_counts: &[usize],
        n_pbs: &[usize],
        single_core_workloads: usize,
        mixes_per_count: usize,
        rc: &RunConfig,
        fig18: Option<&LatencyExecReport>,
    ) -> Self {
        let singles = table2();
        let mut avg_latency = Vec::new();
        for &cores in core_counts {
            let combos: Vec<Vec<WorkloadSpec>> = if cores == 1 {
                singles
                    .iter()
                    .take(single_core_workloads)
                    .map(|w| vec![*w])
                    .collect()
            } else {
                random_mixes(cores, mixes_per_count, 0x21c0de + cores as u64)
                    .into_iter()
                    .map(|m| m.workloads)
                    .collect()
            };
            // Flatten the (#PB, combo) grid into independent cells and
            // fan them out; fold per #PB in combo order so the float
            // accumulation matches the sequential nesting exactly.
            let cells: Vec<(usize, usize)> = n_pbs
                .iter()
                .enumerate()
                .flat_map(|(pi, _)| (0..combos.len()).map(move |ci| (pi, ci)))
                .collect();
            let latencies = parallel_map(&cells, |&(pi, ci)| {
                let known = fig18
                    .filter(|_| n_pbs[pi] == 5 && combos[ci].len() == 1)
                    .and_then(|r| r.first_seed_run(&combos[ci][0], SchedulerKind::Nuat, rc));
                match known {
                    Some(r) => r.avg_read_latency(),
                    None => {
                        let grouping = PbGrouping::paper(n_pbs[pi]);
                        run_mix(&combos[ci], SchedulerKind::Nuat, grouping, rc).avg_read_latency()
                    }
                }
            });
            let per_pb: Vec<f64> = n_pbs
                .iter()
                .enumerate()
                .map(|(pi, _)| {
                    let acc: f64 = latencies[pi * combos.len()..(pi + 1) * combos.len()]
                        .iter()
                        .sum();
                    acc / combos.len() as f64
                })
                .collect();
            avg_latency.push(per_pb);
        }
        PbSensitivity {
            core_counts: core_counts.to_vec(),
            n_pbs: n_pbs.to_vec(),
            avg_latency,
        }
    }

    /// The paper's default sweep shape.
    pub fn run_paper(rc: &RunConfig, mixes_per_count: usize) -> Self {
        Self::run(&[1, 2, 4], &[2, 3, 4, 5], 18, mixes_per_count, rc)
    }

    /// [`run_paper`](Self::run_paper), reusing the single-core 5PB runs
    /// of a Fig. 18 report made with the same `rc`; the result is
    /// identical.
    pub fn run_paper_reusing(
        rc: &RunConfig,
        mixes_per_count: usize,
        fig18: &LatencyExecReport,
    ) -> Self {
        Self::run_reusing(
            &[1, 2, 4],
            &[2, 3, 4, 5],
            18,
            mixes_per_count,
            rc,
            Some(fig18),
        )
    }

    /// Cycles saved vs the 2PB baseline, per core count and #PB (the
    /// quantity Fig. 21 plots). Assumes `n_pbs[0]` is the baseline.
    pub fn saved_cycles(&self) -> Vec<Vec<f64>> {
        self.avg_latency
            .iter()
            .map(|row| row.iter().map(|&l| row[0] - l).collect())
            .collect()
    }
}

impl fmt::Display for PbSensitivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Fig. 21 — Sensitivity to the number of PBs")?;
        writeln!(
            f,
            "(average read-latency cycles saved vs the {}PB baseline)",
            self.n_pbs[0]
        )?;
        write!(f, "{:<8}", "cores")?;
        for n in &self.n_pbs {
            write!(f, " {:>8}", format!("{n}PB"))?;
        }
        writeln!(f)?;
        for (ci, &cores) in self.core_counts.iter().enumerate() {
            write!(f, "{:<8}", cores)?;
            for saved in &self.saved_cycles()[ci] {
                write!(f, " {:>8.2}", saved)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_pbs_do_not_hurt_latency() {
        let rc = RunConfig {
            mem_ops_per_core: 800,
            ..RunConfig::quick()
        };
        let s = PbSensitivity::run(&[1], &[2, 5], 3, 1, &rc);
        let saved = s.saved_cycles();
        assert_eq!(saved[0][0], 0.0, "baseline saves nothing vs itself");
        assert!(
            saved[0][1] > -0.5,
            "5PB must not be materially slower than 2PB: {:?}",
            saved
        );
    }

    #[test]
    fn reusing_fig18_single_core_runs_changes_nothing() {
        let rc = RunConfig {
            mem_ops_per_core: 300,
            ..RunConfig::quick()
        };
        let fig18 = LatencyExecReport::run_subset(&table2()[..2], &rc);
        let reused = PbSensitivity::run_reusing(&[1], &[2, 5], 2, 1, &rc, Some(&fig18));
        let fresh = PbSensitivity::run(&[1], &[2, 5], 2, 1, &rc);
        assert_eq!(reused.avg_latency, fresh.avg_latency);
    }

    #[test]
    fn display_renders_the_grid() {
        let rc = RunConfig {
            mem_ops_per_core: 300,
            ..RunConfig::quick()
        };
        let s = PbSensitivity::run(&[1], &[2, 3], 2, 1, &rc);
        let txt = s.to_string();
        assert!(txt.contains("2PB"));
        assert!(txt.contains("3PB"));
        assert!(txt.contains("Fig. 21"));
    }
}
