//! Multi-channel integration tests: the system routes requests to one
//! controller per channel and aggregates statistics.

use nuat_circuit::PbGrouping;
use nuat_core::SchedulerKind;
use nuat_cpu::Trace;
use nuat_sim::{traces_for, RunConfig, System};
use nuat_types::{DramGeometry, SystemConfig};
use nuat_workloads::by_name;

fn two_channel_config(cores: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_cores(cores);
    cfg.dram.geometry = DramGeometry {
        channels: 2,
        ..DramGeometry::default()
    };
    cfg
}

#[test]
fn two_channel_system_completes_and_conserves_requests() {
    let cfg = two_channel_config(1);
    let rc = RunConfig {
        mem_ops_per_core: 1500,
        ..RunConfig::quick()
    };
    let spec = by_name("comm1").unwrap();
    let traces: Vec<Trace> = traces_for(&[spec], &cfg, &rc)
        .into_iter()
        .map(Trace::from_source)
        .collect();
    let expected_reads = traces[0].reads();
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    assert!(r.completed);
    assert_eq!(r.stats.reads_completed, expected_reads);
}

#[test]
fn second_channel_relieves_pressure() {
    let rc = RunConfig {
        mem_ops_per_core: 2500,
        ..RunConfig::quick()
    };
    let spec = by_name("MT-fluid").unwrap(); // the most intense workload

    let one = {
        let cfg = SystemConfig::with_cores(1);
        let traces = traces_for(&[spec], &cfg, &rc);
        System::new(cfg, SchedulerKind::FrFcfsOpen, PbGrouping::paper(5), traces)
            .run(rc.max_mc_cycles)
    };
    let two = {
        let cfg = two_channel_config(1);
        let traces = traces_for(&[spec], &cfg, &rc);
        System::new(cfg, SchedulerKind::FrFcfsOpen, PbGrouping::paper(5), traces)
            .run(rc.max_mc_cycles)
    };
    assert!(one.completed && two.completed);
    assert!(
        two.avg_read_latency() < one.avg_read_latency(),
        "two channels {:.1} must beat one {:.1} under load",
        two.avg_read_latency(),
        one.avg_read_latency()
    );
    assert!(two.execution_cpu_cycles <= one.execution_cpu_cycles);
}

#[test]
fn multichannel_aggregation_equals_per_channel_sums() {
    // Run a 2-channel system keeping the per-channel controllers alive,
    // and check the aggregate the runner would report (built with
    // `ControllerStats::merge` / `DeviceStats::merge`) equals the
    // field-by-field sums over channels.
    let cfg = two_channel_config(1);
    let rc = RunConfig {
        mem_ops_per_core: 1500,
        ..RunConfig::quick()
    };
    let spec = by_name("comm1").unwrap();
    let traces = traces_for(&[spec], &cfg, &rc);
    let expected: Vec<_> = {
        let traces = traces.clone();
        let sys = System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces);
        // The per-cycle reference hands back its controllers, so the
        // per-channel statistics stay accessible after the run.
        let (reference, mcs) = sys.run_reference(rc.max_mc_cycles, 0);
        assert!(reference.completed, "run did not complete");
        mcs.iter()
            .map(|m| (m.stats().clone(), *m.device().stats()))
            .collect()
    };
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    assert!(r.completed);
    // Both channels saw traffic, so the merge is not vacuous.
    assert!(expected.iter().all(|(s, _)| s.reads_completed > 0));
    let sum = |f: &dyn Fn(&nuat_core::ControllerStats) -> u64| -> u64 {
        expected.iter().map(|(s, _)| f(s)).sum()
    };
    assert_eq!(r.stats.reads_completed, sum(&|s| s.reads_completed));
    assert_eq!(r.stats.writes_drained, sum(&|s| s.writes_drained));
    assert_eq!(r.stats.total_read_latency, sum(&|s| s.total_read_latency));
    assert_eq!(r.stats.precharges, sum(&|s| s.precharges));
    assert_eq!(r.stats.refreshes, sum(&|s| s.refreshes));
    assert_eq!(
        r.stats.read_latency_hist.total(),
        sum(&|s| s.read_latency_hist.total())
    );
    let dsum = |f: &dyn Fn(&nuat_dram::DeviceStats) -> u64| -> u64 {
        expected.iter().map(|(_, d)| f(d)).sum()
    };
    assert_eq!(r.device.reduced_activates, dsum(&|d| d.reduced_activates));
    assert_eq!(r.device.trcd_cycles_saved, dsum(&|d| d.trcd_cycles_saved));
    assert_eq!(r.device.tras_cycles_saved, dsum(&|d| d.tras_cycles_saved));
    assert_eq!(r.device.bank_active_cycles, dsum(&|d| d.bank_active_cycles));
    assert_eq!(
        r.device.energy.activates,
        expected
            .iter()
            .map(|(_, d)| d.energy.activates)
            .sum::<u64>()
    );
    assert_eq!(
        r.device.energy.refreshes,
        expected
            .iter()
            .map(|(_, d)| d.energy.refreshes)
            .sum::<u64>()
    );
}

#[test]
fn nuat_works_identically_per_channel() {
    // NUAT on a 2-channel system must still satisfy the physics (run
    // completing is the assertion) and exploit slack on both channels.
    let cfg = two_channel_config(2);
    let rc = RunConfig {
        mem_ops_per_core: 1500,
        ..RunConfig::quick()
    };
    let specs = [by_name("ferret").unwrap(), by_name("mummer").unwrap()];
    let traces = traces_for(&specs, &cfg, &rc);
    let r =
        System::new(cfg, SchedulerKind::Nuat, PbGrouping::paper(5), traces).run(rc.max_mc_cycles);
    assert!(r.completed);
    assert!(r.device.reduced_activates > 0);
    // Aggregated PB histogram covers all activations.
    let acts = r.stats.acts_for_reads + r.stats.acts_for_writes;
    assert_eq!(r.stats.pb_act_histogram.iter().sum::<u64>(), acts);
}
