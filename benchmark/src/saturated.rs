//! The saturated controller loop: `nuat-core` and `nuat-dram` only, with
//! no core model, no system calendar and no trace generation.
//!
//! This is the benchmark's own copy of `nuat_bench::SaturatedDriver`'s
//! refill loop (same LCG, same address fields, same 64-cycle granules),
//! so the benchmark does not depend on the bench harness; a self-test
//! pins the two to identical cycle and skip counts.

use crate::measure::{Rep, Subject};
use crate::replay::{ArrivalRecorder, Model, Outcome, Recording};
use nuat_circuit::PbGrouping;
use nuat_core::{Completion, MemoryController, RequestKind, SchedulerKind};
use nuat_obs::{NullSink, TraceSink};
use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank, Row, SystemConfig};
use std::time::Instant;

/// Read and write queue depth.
const DEPTH: usize = 64;

/// The saturated controller's configuration: both queues `DEPTH` deep,
/// write-drain watermarks at 40/64 and 20/64 of it.
pub fn config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.controller.read_queue_capacity = DEPTH;
    cfg.controller.write_queue_capacity = DEPTH;
    cfg.controller.write_high_watermark = DEPTH * 40 / 64;
    cfg.controller.write_low_watermark = DEPTH * 20 / 64;
    cfg
}

/// A NUAT controller kept full from a deterministic address stream.
pub struct Driver<S: TraceSink> {
    pub mc: MemoryController<S>,
    state: u64,
    done: Vec<Completion>,
}

impl<S: TraceSink> Driver<S> {
    pub fn new(seed: u64, sink: S) -> Self {
        Driver {
            mc: MemoryController::with_sink(
                config(),
                SchedulerKind::Nuat,
                PbGrouping::paper(5),
                sink,
            ),
            state: 0x9e3779b97f4a7c15u64
                ^ ((DEPTH as u64) << 1)
                ^ seed.wrapping_mul(0xff51afd7ed558ccd),
            done: Vec::new(),
        }
    }

    /// Refills both queues, then runs 64 cycles, until the controller
    /// clock reaches `target`. Reads and writes are drawn 50/50 over
    /// 8 banks x 512 rows, so the write queue keeps crossing its
    /// watermarks and the drain mode keeps switching.
    pub fn step_to(&mut self, target: u64) {
        while self.mc.now().raw() < target {
            self.done.clear();
            self.mc.drain_completions_into(&mut self.done);
            while self.mc.can_accept(RequestKind::Read) || self.mc.can_accept(RequestKind::Write) {
                self.state = self
                    .state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = self.state >> 16;
                let kind = if v & 1 == 0 {
                    RequestKind::Read
                } else {
                    RequestKind::Write
                };
                if !self.mc.can_accept(kind) {
                    continue;
                }
                self.mc.enqueue_decoded(
                    0,
                    kind,
                    DecodedAddr {
                        channel: Channel::new(0),
                        rank: Rank::new(0),
                        bank: Bank::new((v >> 1) as u32 % 8),
                        row: Row::new((v >> 4) as u32 % 512),
                        col: Col::new((v >> 13) as u32 % 1024),
                    },
                );
            }
            self.mc.run_for(64);
        }
    }
}

/// `cycles` controller cycles of the saturated loop, seeded by `seed`.
#[derive(Debug, Clone, Copy)]
pub struct Saturated {
    pub seed: u64,
    pub cycles: u64,
}

impl Saturated {
    fn run<S: TraceSink>(&self, sink: S) -> (Rep, Outcome, MemoryController<S>) {
        let t0 = Instant::now();
        let mut driver = Driver::new(self.seed, sink);
        let t1 = Instant::now();
        driver.step_to(self.cycles);
        let t2 = Instant::now();
        let outcome = Outcome::of(&driver.mc);
        let rep = Rep {
            generate_s: 0.0,
            build_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            model: Model::of(&outcome),
            ok: outcome.mc_cycles >= self.cycles,
        };
        (rep, outcome, driver.mc)
    }
}

impl Subject for Saturated {
    fn rep(&self) -> Rep {
        self.run(NullSink).0
    }

    fn recorded(&self) -> (Rep, Vec<Recording>) {
        let (rep, outcome, mc) = self.run(ArrivalRecorder::default());
        let recording = Recording {
            cfg: config(),
            arrivals: mc.into_sink().0,
            outcome,
        };
        (rep, vec![recording])
    }
}
