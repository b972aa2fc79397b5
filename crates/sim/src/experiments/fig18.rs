//! Figures 18–20: per-workload read latency and total execution time of
//! NUAT vs FR-FCFS open- and close-page, single core, 5PB.
//!
//! One set of runs produces both figures: Fig. 18 reads the average
//! read-access latency, Fig. 20 the total execution time. The report
//! also prints the §9.1 analysis quantities (per-scheduler hit rates
//! and the PB3+PB4 access share).

use crate::parallel::parallel_map;
use crate::runner::{run_single, RunConfig};
use crate::system::SimResult;
use nuat_core::SchedulerKind;
use nuat_workloads::{table2, WorkloadSpec};
use std::fmt;

/// One workload's three scheduler runs.
///
/// The `SimResult`s come from the first seed (for detail stats such as
/// hit rates and PB distribution); the `*_latency` / `*_exec` fields
/// are means over all seeds and drive the headline percentages.
#[derive(Debug, Clone)]
pub struct WorkloadComparison {
    /// Workload name.
    pub workload: &'static str,
    /// NUAT (5PB) run (first seed).
    pub nuat: SimResult,
    /// FR-FCFS open-page run (first seed).
    pub open: SimResult,
    /// FR-FCFS close-page run (first seed).
    pub close: SimResult,
    /// Multi-seed mean read latencies (NUAT, open, close).
    pub mean_latency: [f64; 3],
    /// Multi-seed mean execution times in CPU cycles (NUAT, open, close).
    pub mean_exec: [f64; 3],
}

fn pct_reduction(base: f64, new: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (base - new) / base * 100.0
    }
}

impl WorkloadComparison {
    /// Read-latency reduction vs FR-FCFS(open), percent (Fig. 18b).
    pub fn latency_reduction_vs_open(&self) -> f64 {
        pct_reduction(self.mean_latency[1], self.mean_latency[0])
    }

    /// Read-latency reduction vs FR-FCFS(close), percent (Fig. 18b).
    pub fn latency_reduction_vs_close(&self) -> f64 {
        pct_reduction(self.mean_latency[2], self.mean_latency[0])
    }

    /// Execution-time improvement vs FR-FCFS(open), percent (Fig. 20).
    pub fn exec_improvement_vs_open(&self) -> f64 {
        pct_reduction(self.mean_exec[1], self.mean_exec[0])
    }

    /// Execution-time improvement vs FR-FCFS(close), percent (Fig. 20).
    pub fn exec_improvement_vs_close(&self) -> f64 {
        pct_reduction(self.mean_exec[2], self.mean_exec[0])
    }

    /// Open-vs-close read hit-rate gap (the Fig. 19 Leslie diagnostic).
    pub fn hit_rate_gap(&self) -> f64 {
        self.open.stats.read_hit_rate() - self.close.stats.read_hit_rate()
    }

    /// Share of NUAT activations landing in the two slowest PBs (the
    /// §9.1 Comm1 diagnostic).
    pub fn slow_pb_share(&self) -> f64 {
        let d = self.nuat.stats.pb_distribution();
        d.iter().rev().take(2).sum()
    }
}

/// The complete Fig. 18 / Fig. 20 experiment.
#[derive(Debug, Clone)]
pub struct LatencyExecReport {
    /// Per-workload comparisons.
    pub rows: Vec<WorkloadComparison>,
    /// The workloads and configuration the rows were run with.
    specs: Vec<WorkloadSpec>,
    rc: RunConfig,
}

impl LatencyExecReport {
    /// Runs the given workloads under the three schedulers, averaging
    /// headline metrics over `seeds` trace seeds.
    ///
    /// # Panics
    ///
    /// Panics if `seeds == 0`.
    pub fn run_subset_seeds(specs: &[WorkloadSpec], rc: &RunConfig, seeds: u64) -> Self {
        assert!(seeds >= 1, "need at least one seed");
        let kinds = [
            SchedulerKind::Nuat,
            SchedulerKind::FrFcfsOpen,
            SchedulerKind::FrFcfsClose,
        ];
        // One cell per (workload, seed, scheduler) — the independent
        // unit the parallel executor fans across worker threads.
        let mut cells: Vec<(WorkloadSpec, u64, SchedulerKind)> =
            Vec::with_capacity(specs.len() * seeds as usize * kinds.len());
        for spec in specs {
            for s in 0..seeds {
                for kind in kinds {
                    cells.push((*spec, s, kind));
                }
            }
        }
        let results = parallel_map(&cells, |&(spec, s, kind)| {
            let rc_s = RunConfig {
                seed: rc.seed.wrapping_add(s * 104_729),
                ..*rc
            };
            run_single(spec, kind, &rc_s)
        });
        // Fold in cell order (seed-major, scheduler-minor per workload)
        // so float accumulation is bit-identical to the sequential loop.
        let per_spec = seeds as usize * kinds.len();
        let rows = specs
            .iter()
            .enumerate()
            .map(|(wi, spec)| {
                let mut lat = [0.0f64; 3];
                let mut exec = [0.0f64; 3];
                let mut firsts: Vec<Option<SimResult>> = vec![None, None, None];
                for (j, r) in results[wi * per_spec..(wi + 1) * per_spec]
                    .iter()
                    .enumerate()
                {
                    let i = j % kinds.len();
                    lat[i] += r.avg_read_latency();
                    exec[i] += r.execution_cpu_cycles as f64;
                    if firsts[i].is_none() {
                        firsts[i] = Some(r.clone());
                    }
                }
                for v in lat.iter_mut().chain(exec.iter_mut()) {
                    *v /= seeds as f64;
                }
                WorkloadComparison {
                    workload: spec.name,
                    nuat: firsts[0].take().expect("seeds >= 1"),
                    open: firsts[1].take().expect("seeds >= 1"),
                    close: firsts[2].take().expect("seeds >= 1"),
                    mean_latency: lat,
                    mean_exec: exec,
                }
            })
            .collect();
        LatencyExecReport {
            rows,
            specs: specs.to_vec(),
            rc: *rc,
        }
    }

    /// The single-core 5PB run of `spec` under `kind` at the first seed,
    /// if this report holds it and was run with `rc`. Figs. 21 and 22
    /// simulate exactly these cells for their single-core rows.
    pub fn first_seed_run(
        &self,
        spec: &WorkloadSpec,
        kind: SchedulerKind,
        rc: &RunConfig,
    ) -> Option<&SimResult> {
        if self.rc != *rc {
            return None;
        }
        let row = &self.rows[self.specs.iter().position(|s| s == spec)?];
        match kind {
            SchedulerKind::Nuat => Some(&row.nuat),
            SchedulerKind::FrFcfsOpen => Some(&row.open),
            SchedulerKind::FrFcfsClose => Some(&row.close),
            _ => None,
        }
    }

    /// Runs the given workloads with a single seed (fast path for tests).
    pub fn run_subset(specs: &[WorkloadSpec], rc: &RunConfig) -> Self {
        Self::run_subset_seeds(specs, rc, 1)
    }

    /// Runs all 18 Table 2 workloads, 3 seeds each (the paper's
    /// configuration).
    pub fn run(rc: &RunConfig) -> Self {
        Self::run_subset_seeds(&table2(), rc, 3)
    }

    /// Mean latency reduction vs FR-FCFS(open), percent (paper: 16.1 %).
    pub fn avg_latency_reduction_vs_open(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(WorkloadComparison::latency_reduction_vs_open),
        )
    }

    /// Mean latency reduction vs FR-FCFS(close), percent (paper: 13.8 %).
    pub fn avg_latency_reduction_vs_close(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(WorkloadComparison::latency_reduction_vs_close),
        )
    }

    /// Mean execution-time improvement vs open, percent (paper: 8.1 %).
    pub fn avg_exec_improvement_vs_open(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(WorkloadComparison::exec_improvement_vs_open),
        )
    }

    /// Mean execution-time improvement vs close, percent (paper: 7.3 %).
    pub fn avg_exec_improvement_vs_close(&self) -> f64 {
        mean(
            self.rows
                .iter()
                .map(WorkloadComparison::exec_improvement_vs_close),
        )
    }

    /// Fig. 18 view: read access latency.
    pub fn render_fig18(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 18 — Read Access Latency (cycles @ 800 MHz), single core, 5PB NUAT\n");
        s.push_str(&format!(
            "{:<12} {:>10} {:>12} {:>13} {:>10} {:>10}\n",
            "workload", "NUAT", "FRFCFS-open", "FRFCFS-close", "vs open%", "vs close%"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<12} {:>10.1} {:>12.1} {:>13.1} {:>10.1} {:>10.1}\n",
                r.workload,
                r.mean_latency[0],
                r.mean_latency[1],
                r.mean_latency[2],
                r.latency_reduction_vs_open(),
                r.latency_reduction_vs_close(),
            ));
        }
        s.push_str(&format!(
            "{:<12} {:>10} {:>12} {:>13} {:>10.1} {:>10.1}   [paper: 16.1 / 13.8]\n",
            "average",
            "",
            "",
            "",
            self.avg_latency_reduction_vs_open(),
            self.avg_latency_reduction_vs_close(),
        ));
        s
    }

    /// Fig. 20 view: total execution time.
    pub fn render_fig20(&self) -> String {
        let mut s = String::new();
        s.push_str("Fig. 20 — Total Execution Time improvement (%), single core, 5PB NUAT\n");
        s.push_str(&format!(
            "{:<12} {:>14} {:>15}\n",
            "workload", "vs FRFCFS-open", "vs FRFCFS-close"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<12} {:>14.1} {:>15.1}\n",
                r.workload,
                r.exec_improvement_vs_open(),
                r.exec_improvement_vs_close(),
            ));
        }
        s.push_str(&format!(
            "{:<12} {:>14.1} {:>15.1}   [paper: 8.1 / 7.3]\n",
            "average",
            self.avg_exec_improvement_vs_open(),
            self.avg_exec_improvement_vs_close(),
        ));
        s
    }

    /// §9.1 analysis view: hit-rate gaps and PB access distribution.
    pub fn render_analysis(&self) -> String {
        let mut s = String::new();
        s.push_str("§9.1 analysis — hit rates and PB access distribution\n");
        s.push_str(&format!(
            "{:<12} {:>9} {:>10} {:>9} {:>12}\n",
            "workload", "hit(open)", "hit(close)", "gap", "PB3+4 share"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<12} {:>9.2} {:>10.2} {:>9.2} {:>12.2}\n",
                r.workload,
                r.open.stats.read_hit_rate(),
                r.close.stats.read_hit_rate(),
                r.hit_rate_gap(),
                r.slow_pb_share(),
            ));
        }
        s
    }
}

impl fmt::Display for LatencyExecReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}\n{}\n{}",
            self.render_fig18(),
            self.render_fig20(),
            self.render_analysis()
        )
    }
}

fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = iter.collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_workloads::by_name;

    #[test]
    fn subset_report_has_expected_shape() {
        let rc = RunConfig {
            mem_ops_per_core: 600,
            ..RunConfig::quick()
        };
        let specs = [by_name("ferret").unwrap(), by_name("libq").unwrap()];
        let rep = LatencyExecReport::run_subset(&specs, &rc);
        assert_eq!(rep.rows.len(), 2);
        for r in &rep.rows {
            assert!(r.nuat.completed && r.open.completed && r.close.completed);
        }
        let fig18 = rep.render_fig18();
        assert!(fig18.contains("ferret"));
        assert!(fig18.contains("average"));
        assert!(rep.render_fig20().contains("libq"));
        assert!(rep.render_analysis().contains("PB3+4"));
    }

    #[test]
    fn nuat_wins_on_average_over_a_low_locality_subset() {
        let rc = RunConfig {
            mem_ops_per_core: 2000,
            ..RunConfig::quick()
        };
        let specs = [
            by_name("ferret").unwrap(),
            by_name("MT-canneal").unwrap(),
            by_name("mummer").unwrap(),
        ];
        let rep = LatencyExecReport::run_subset_seeds(&specs, &rc, 2);
        assert!(
            rep.avg_latency_reduction_vs_open() > 0.0,
            "NUAT must beat FR-FCFS(open) on low-locality workloads: {:.2}%",
            rep.avg_latency_reduction_vs_open()
        );
    }
}
