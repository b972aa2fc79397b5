//! Full-system simulations (`nuat-workloads` traces driving `nuat-sim`),
//! the subject of `single_comm3`, `mix4` and the campaign's layer split.

use crate::measure::{Rep, Subject};
use crate::replay::{ArrivalRecorder, Model, Outcome, Recording};
use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_obs::{NullSink, TraceSink};
use nuat_sim::{traces_for, RunConfig, System};
use nuat_types::SystemConfig;
use nuat_workloads::WorkloadSpec;
use std::time::Instant;

/// NUAT simulations of one or more workload mixes, one after another.
#[derive(Debug, Clone)]
pub struct Sims {
    pub mixes: Vec<Vec<WorkloadSpec>>,
    pub rc: RunConfig,
}

impl Sims {
    /// Generates, builds and runs every mix with a fresh sink from `sink`,
    /// returning the summed timings and model plus each run's outcome and
    /// finished sink.
    fn run<S: TraceSink>(&self, sink: impl Fn() -> S) -> (Rep, Vec<(SystemConfig, Outcome, S)>) {
        let mut rep = Rep {
            ok: true,
            ..Rep::default()
        };
        let mut runs = Vec::with_capacity(self.mixes.len());
        for specs in &self.mixes {
            let cfg = SystemConfig::with_cores(specs.len());
            let t0 = Instant::now();
            let traces = traces_for(specs, &cfg, &self.rc);
            let t1 = Instant::now();
            let ops: u64 = traces.iter().map(|t| t.mem_ops()).sum();
            let system = System::with_sinks(
                cfg,
                SchedulerKind::Nuat,
                PbGrouping::paper(5),
                traces,
                vec![sink()],
                None,
            );
            let t2 = Instant::now();
            let (result, mut sinks) =
                system.run_traced(self.rc.max_mc_cycles, self.rc.warmup_reads);
            let t3 = Instant::now();
            rep.generate_s += (t1 - t0).as_secs_f64();
            rep.build_s += (t2 - t1).as_secs_f64();
            rep.run_s += (t3 - t2).as_secs_f64();
            let outcome = Outcome {
                mc_cycles: result.mc_cycles,
                stats: result.stats,
                device: result.device,
            };
            let model = Model::of(&outcome);
            // Every generated memory operation must come back: reads
            // completed plus writes drained.
            rep.ok &= result.completed && model.requests == ops;
            rep.model.add(&model);
            runs.push((cfg, outcome, sinks.remove(0)));
        }
        (rep, runs)
    }

    /// Generates the traces and builds the system of every mix without
    /// running them; returns the seconds that took.
    pub fn setup_s(&self) -> f64 {
        let mut secs = 0.0;
        for specs in &self.mixes {
            let cfg = SystemConfig::with_cores(specs.len());
            let t = Instant::now();
            let traces = traces_for(specs, &cfg, &self.rc);
            let system = System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces);
            secs += t.elapsed().as_secs_f64();
            drop(system);
        }
        secs
    }
}

impl Subject for Sims {
    fn rep(&self) -> Rep {
        self.run(|| NullSink).0
    }

    fn recorded(&self) -> (Rep, Vec<Recording>) {
        let (rep, runs) = self.run(ArrivalRecorder::default);
        let recordings = runs
            .into_iter()
            .map(|(cfg, outcome, sink)| Recording {
                cfg,
                arrivals: sink.0,
                outcome,
            })
            .collect();
        (rep, recordings)
    }
}
