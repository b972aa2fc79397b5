//! Convenience runners shared by the experiments, examples and benches.

use crate::system::{SimResult, System};
use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_types::SystemConfig;
use nuat_workloads::{GeneratedTrace, TraceGenerator, WorkloadSpec};

/// Knobs common to every experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    /// Memory operations per core.
    pub mem_ops_per_core: usize,
    /// Base RNG seed (workload name is mixed in per core).
    pub seed: u64,
    /// Hard cap on simulated memory cycles.
    pub max_mc_cycles: u64,
    /// Reads to complete before statistics start counting (standard
    /// warmup methodology; simulation state — queues, open rows, charge,
    /// refresh position — is preserved across the reset).
    pub warmup_reads: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mem_ops_per_core: 12_000,
            seed: 42,
            max_mc_cycles: 80_000_000,
            warmup_reads: 0,
        }
    }
}

impl RunConfig {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        RunConfig {
            mem_ops_per_core: 1_500,
            max_mc_cycles: 20_000_000,
            ..RunConfig::default()
        }
    }
}

/// One trace per core from the given specs, each generated on demand as
/// its core fetches it: nothing is generated here, and a run holds no
/// more than one record per core at any trace length.
/// [`nuat_cpu::Trace::from_source`] collects one into memory.
pub fn traces_for(
    specs: &[WorkloadSpec],
    cfg: &SystemConfig,
    rc: &RunConfig,
) -> Vec<GeneratedTrace> {
    specs
        .iter()
        .enumerate()
        .map(|(core, spec)| {
            TraceGenerator::new(
                *spec,
                cfg.dram.geometry,
                rc.seed.wrapping_add(core as u64 * 7919),
            )
            .stream(rc.mem_ops_per_core)
        })
        .collect()
}

/// Runs one multi-programmed combination under one scheduler.
///
/// # Panics
///
/// Panics if `specs` is empty.
pub fn run_mix(
    specs: &[WorkloadSpec],
    scheduler: SchedulerKind,
    grouping: PbGrouping,
    rc: &RunConfig,
) -> SimResult {
    assert!(!specs.is_empty(), "need at least one workload");
    let cfg = SystemConfig::with_cores(specs.len());
    let traces = traces_for(specs, &cfg, rc);
    System::new(cfg, scheduler, grouping, traces).run_with_warmup(rc.max_mc_cycles, rc.warmup_reads)
}

/// Runs a single-core workload under one scheduler with the paper's
/// 5PB grouping.
pub fn run_single(spec: WorkloadSpec, scheduler: SchedulerKind, rc: &RunConfig) -> SimResult {
    run_mix(&[spec], scheduler, PbGrouping::paper(5), rc)
}

/// Like [`run_mix`], but instrumented: each channel controller feeds the
/// matching entry of `sinks` (one per configured channel), with optional
/// epoch sampling every `sample_interval` cycles. Returns the finalized
/// sinks alongside the result.
///
/// # Panics
///
/// Panics if `specs` is empty or `sinks` does not match the channel
/// count.
pub fn run_mix_traced<S: nuat_obs::TraceSink>(
    specs: &[WorkloadSpec],
    scheduler: SchedulerKind,
    grouping: PbGrouping,
    rc: &RunConfig,
    sinks: Vec<S>,
    sample_interval: Option<u64>,
) -> (SimResult, Vec<S>) {
    assert!(!specs.is_empty(), "need at least one workload");
    let cfg = SystemConfig::with_cores(specs.len());
    let traces = traces_for(specs, &cfg, rc);
    System::with_sinks(cfg, scheduler, grouping, traces, sinks, sample_interval)
        .run_traced(rc.max_mc_cycles, rc.warmup_reads)
}

/// Like [`run_mix_traced`], but with a metrics sink riding each channel
/// controller as well (one per configured channel). Returns the
/// finalized trace sinks *and* metrics sinks alongside the result; pass
/// the recorders to [`nuat_obs::prometheus_text`] /
/// [`nuat_obs::health_report`] to export them.
///
/// # Panics
///
/// Panics if `specs` is empty or `sinks` / `metrics` do not match the
/// channel count.
pub fn run_mix_instrumented<S: nuat_obs::TraceSink, M: nuat_obs::MetricsSink>(
    specs: &[WorkloadSpec],
    scheduler: SchedulerKind,
    grouping: PbGrouping,
    rc: &RunConfig,
    sinks: Vec<S>,
    metrics: Vec<M>,
    sample_interval: Option<u64>,
) -> (SimResult, Vec<S>, Vec<M>) {
    assert!(!specs.is_empty(), "need at least one workload");
    let cfg = SystemConfig::with_cores(specs.len());
    let traces = traces_for(specs, &cfg, rc);
    System::with_instrumentation(
        cfg,
        scheduler,
        grouping,
        traces,
        sinks,
        metrics,
        sample_interval,
    )
    .run_instrumented(rc.max_mc_cycles, rc.warmup_reads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_cpu::Trace;
    use nuat_workloads::by_name;

    #[test]
    fn run_single_is_deterministic() {
        let rc = RunConfig {
            mem_ops_per_core: 400,
            ..RunConfig::quick()
        };
        let spec = by_name("swapt").unwrap();
        let a = run_single(spec, SchedulerKind::Nuat, &rc);
        let b = run_single(spec, SchedulerKind::Nuat, &rc);
        assert_eq!(a.mc_cycles, b.mc_cycles);
        assert_eq!(a.stats.total_read_latency, b.stats.total_read_latency);
    }

    #[test]
    fn per_core_seeds_differ_in_a_mix() {
        let rc = RunConfig {
            mem_ops_per_core: 200,
            ..RunConfig::quick()
        };
        let spec = by_name("black").unwrap();
        let cfg = SystemConfig::with_cores(2);
        let traces: Vec<Trace> = traces_for(&[spec, spec], &cfg, &rc)
            .into_iter()
            .map(Trace::from_source)
            .collect();
        assert_ne!(
            traces[0], traces[1],
            "same workload on two cores must not be identical"
        );
    }

    #[test]
    fn traced_run_matches_untraced_and_final_epoch_equals_stats() {
        use nuat_obs::MemorySink;
        let rc = RunConfig {
            mem_ops_per_core: 400,
            ..RunConfig::quick()
        };
        let spec = by_name("comm3").unwrap();
        let plain = run_single(spec, SchedulerKind::Nuat, &rc);
        let (traced, sinks) = run_mix_traced(
            &[spec],
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            &rc,
            vec![MemorySink::default()],
            Some(5_000),
        );
        // Attaching a sink must not perturb the simulation at all.
        assert_eq!(plain.mc_cycles, traced.mc_cycles);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.device, traced.device);
        // The final epoch sample's cumulative counters equal the
        // end-of-run statistics.
        let sink = &sinks[0];
        assert!(sink.finished);
        let last = sink.epochs.last().expect("sampling was on");
        assert_eq!(last.reads_completed, traced.stats.reads_completed);
        assert_eq!(last.writes_drained, traced.stats.writes_drained);
        assert_eq!(last.precharges, traced.stats.precharges);
        assert_eq!(last.refreshes, traced.stats.refreshes);
        assert_eq!(last.cycles_skipped, traced.cycles_skipped);
        assert_eq!(last.reduced_activates, traced.device.reduced_activates);
        assert_eq!(last.cycle, traced.mc_cycles);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_mix_rejected() {
        run_mix(
            &[],
            SchedulerKind::Nuat,
            PbGrouping::paper(5),
            &RunConfig::quick(),
        );
    }
}
