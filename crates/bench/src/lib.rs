//! # nuat-bench
//!
//! Evaluation harness for the NUAT reproduction. Two kinds of targets:
//!
//! * **Figure-regeneration binaries** (`src/bin/`): one per table/figure
//!   of the paper's evaluation. Run e.g.
//!   `cargo run --release -p nuat-bench --bin fig18_read_latency`.
//!   Every binary accepts `--quick` for a reduced-scale smoke run.
//! * **Criterion benches** (`benches/`): micro-benchmarks of the circuit
//!   model, the scheduler hot path, and miniature figure runs.

/// Returns the run configuration selected by the command line:
/// `--quick` for smoke scale, `--ops N` to override the per-core memory
/// operation count.
pub fn run_config_from_args() -> nuat_sim::RunConfig {
    let args: Vec<String> = std::env::args().collect();
    let mut rc = if args.iter().any(|a| a == "--quick") {
        nuat_sim::RunConfig::quick()
    } else {
        nuat_sim::RunConfig::default()
    };
    if let Some(i) = args.iter().position(|a| a == "--ops") {
        if let Some(n) = args.get(i + 1).and_then(|s| s.parse().ok()) {
            rc.mem_ops_per_core = n;
        }
    }
    rc
}

/// `--quick` flag presence (smaller mix counts for Figs. 21/22).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// One saturated direct-controller run: the read/write queues are
/// sized to `depth` (write-drain watermarks scaled proportionally) and
/// kept topped up from a deterministic LCG address stream for
/// `mc_cycles` controller cycles, so the controller never leaves the
/// busy path. This isolates exactly the cost the queue-depth sweep is
/// about — candidate enumeration and horizon recomputation under deep
/// occupancy — from trace generation and CPU-model overhead. `seed_salt`
/// selects one of many decorrelated address streams. Returns
/// (simulated cycles, skipped cycles, wall seconds).
pub fn saturated_run(
    kind: nuat_core::SchedulerKind,
    depth: usize,
    mc_cycles: u64,
    seed_salt: u64,
) -> (u64, u64, f64) {
    let (mc, wall) = saturated_run_controller(kind, depth, mc_cycles, seed_salt);
    (mc.now().raw(), mc.cycles_skipped(), wall)
}

/// [`saturated_run`], returning the finished controller itself (command
/// mix, occupancy and skip statistics) alongside the wall time — the
/// profiling driver uses this to explain *why* a depth regresses, not
/// just that it did.
pub fn saturated_run_controller(
    kind: nuat_core::SchedulerKind,
    depth: usize,
    mc_cycles: u64,
    seed_salt: u64,
) -> (nuat_core::MemoryController, f64) {
    let mut drv = SaturatedDriver::new(kind, depth, seed_salt);
    let t0 = std::time::Instant::now();
    drv.step_to(mc_cycles);
    let wall = t0.elapsed().as_secs_f64();
    (drv.into_controller(), wall)
}

/// Incremental form of the saturated loop: the controller, its refill
/// LCG and its completion scratch live in the struct, and
/// [`step_to`](Self::step_to) advances any number of cycles at a time.
/// One full `step_to(n)` is byte-identical to [`saturated_run`] — the
/// address stream is a function of the persistent LCG state alone — but
/// slicing lets callers interleave *two* configurations in one thread
/// (`--compare` in the `saturated` bin): on hosts with erratic clock
/// speed, alternating small slices subjects both configurations to the
/// same drift, so the wall-time *ratio* stays meaningful when absolute
/// rates are noise.
pub struct SaturatedDriver<M: nuat_obs::MetricsSink = nuat_obs::NullMetrics> {
    mc: nuat_core::MemoryController<nuat_obs::NullSink, M>,
    state: u64,
    done: Vec<nuat_core::Completion>,
}

impl SaturatedDriver {
    /// A saturated controller of the given scheduler and queue depth
    /// (write-drain watermarks scaled proportionally). `seed_salt`
    /// selects one of many decorrelated address streams.
    pub fn new(kind: nuat_core::SchedulerKind, depth: usize, seed_salt: u64) -> Self {
        Self::with_metrics(kind, depth, seed_salt, nuat_obs::NullMetrics)
    }
}

impl<M: nuat_obs::MetricsSink> SaturatedDriver<M> {
    /// [`new`](SaturatedDriver::new) with a metrics sink riding the
    /// controller — the saturated loop is identical (metrics observe,
    /// they never influence), so the command stream and final cycle
    /// count are byte-identical to the [`nuat_obs::NullMetrics`] driver.
    pub fn with_metrics(
        kind: nuat_core::SchedulerKind,
        depth: usize,
        seed_salt: u64,
        metrics: M,
    ) -> Self {
        use nuat_circuit::PbGrouping;
        use nuat_types::SystemConfig;
        let mut cfg = SystemConfig::default();
        cfg.controller.read_queue_capacity = depth;
        cfg.controller.write_queue_capacity = depth;
        cfg.controller.write_high_watermark = depth * 40 / 64;
        cfg.controller.write_low_watermark = depth * 20 / 64;
        SaturatedDriver {
            mc: nuat_core::MemoryController::with_instrumentation(
                cfg,
                kind,
                PbGrouping::paper(5),
                nuat_obs::NullSink,
                metrics,
            ),
            state: 0x9e3779b97f4a7c15u64
                ^ ((depth as u64) << 1)
                ^ seed_salt.wrapping_mul(0xff51afd7ed558ccd),
            done: Vec::new(),
        }
    }

    /// Runs the refill/issue loop until the controller clock reaches at
    /// least `target` cycles (64-cycle granules, like the original
    /// monolithic loop).
    pub fn step_to(&mut self, target: u64) {
        use nuat_core::RequestKind;
        use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row};
        while self.mc.now().raw() < target {
            self.done.clear();
            self.mc.drain_completions_into(&mut self.done);
            while self.mc.can_accept(RequestKind::Read) || self.mc.can_accept(RequestKind::Write) {
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = self.state >> 16;
                let rk = if v & 1 == 0 {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                if !self.mc.can_accept(rk) {
                    continue;
                }
                self.mc.enqueue_decoded(
                    0,
                    rk,
                    DecodedAddr {
                        channel: Channel::new(0),
                        rank: Rank::new(0),
                        bank: Bank::new((v >> 1) as u32 % 8),
                        // A modest row working set keeps a realistic mix
                        // of hits, conflicts and fresh activations in
                        // flight.
                        row: Row::new((v >> 4) as u32 % 512),
                        col: Col::new((v >> 13) as u32 % 1024),
                    },
                );
            }
            self.mc.run_for(64);
        }
    }

    /// Current controller cycle.
    pub fn now(&self) -> u64 {
        self.mc.now().raw()
    }

    /// The driven controller.
    pub fn controller(&self) -> &nuat_core::MemoryController<nuat_obs::NullSink, M> {
        &self.mc
    }

    /// Consumes the driver, yielding the controller and its statistics.
    pub fn into_controller(self) -> nuat_core::MemoryController<nuat_obs::NullSink, M> {
        self.mc
    }
}

/// Drift-resistant A/B comparison of two queue depths under the same
/// scheduler: both saturated loops advance in alternating `slice`-cycle
/// granules on one thread, each granule's wall time accruing to its
/// depth. Returns `(wall_a, wall_b)` after `mc_cycles` simulated cycles
/// each. Because the granules interleave at millisecond scale, host
/// clock drift (shared CI containers, thermal throttling) hits both
/// configurations almost identically and cancels out of the ratio.
pub fn saturated_compare_depths(
    kind: nuat_core::SchedulerKind,
    depth_a: usize,
    depth_b: usize,
    mc_cycles: u64,
    slice: u64,
) -> (f64, f64) {
    let mut a = SaturatedDriver::new(kind, depth_a, 0);
    let mut b = SaturatedDriver::new(kind, depth_b, 0);
    let (mut wall_a, mut wall_b) = (0.0, 0.0);
    let mut target = 0u64;
    while target < mc_cycles {
        target = (target + slice).min(mc_cycles);
        let t0 = std::time::Instant::now();
        a.step_to(target);
        let t1 = std::time::Instant::now();
        b.step_to(target);
        wall_a += (t1 - t0).as_secs_f64();
        wall_b += t1.elapsed().as_secs_f64();
    }
    (wall_a, wall_b)
}

/// Drift-resistant *phase-attributed* A/B of two queue depths: two
/// metrics-instrumented saturated drivers advance in alternating
/// `slice`-cycle granules on one thread, exactly like
/// [`saturated_compare_depths`], but each side carries a
/// [`nuat_obs::MetricsRecorder`] so the wall time decomposes into the
/// controller's self-profiled phases (enumerate / choose / issue /
/// rekey / horizon / …) per issuing tick. Returns the two recorders
/// plus per-side total wall seconds.
pub fn saturated_compare_phases(
    kind: nuat_core::SchedulerKind,
    depth_a: usize,
    depth_b: usize,
    mc_cycles: u64,
    slice: u64,
) -> (
    nuat_obs::MetricsRecorder,
    nuat_obs::MetricsRecorder,
    f64,
    f64,
) {
    let mut da = SaturatedDriver::with_metrics(
        kind,
        depth_a,
        0,
        nuat_obs::MetricsRecorder::with_sample_interval(mc_cycles / 64),
    );
    let mut db = SaturatedDriver::with_metrics(
        kind,
        depth_b,
        0,
        nuat_obs::MetricsRecorder::with_sample_interval(mc_cycles / 64),
    );
    let (mut wall_a, mut wall_b) = (0.0, 0.0);
    let mut target = 0u64;
    while target < mc_cycles {
        target = (target + slice).min(mc_cycles);
        let t0 = std::time::Instant::now();
        da.step_to(target);
        let t1 = std::time::Instant::now();
        db.step_to(target);
        wall_a += (t1 - t0).as_secs_f64();
        wall_b += t1.elapsed().as_secs_f64();
    }
    let (_, rec_a) = da.into_controller().into_instrumentation();
    let (_, rec_b) = db.into_controller().into_instrumentation();
    (rec_a, rec_b, wall_a, wall_b)
}

#[cfg(test)]
mod tests {
    #[test]
    fn default_config_is_paper_scale() {
        let rc = nuat_sim::RunConfig::default();
        assert!(rc.mem_ops_per_core >= 10_000);
        let quick = nuat_sim::RunConfig::quick();
        assert!(quick.mem_ops_per_core < rc.mem_ops_per_core);
    }
}
