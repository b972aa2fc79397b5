//! The naive per-cycle reference for [`System`]'s event loop. Nothing
//! in the simulator calls it; tests do.
//!
//! [`run_reference`](System::run_reference) is the USIMM-shaped loop:
//! every memory cycle, every core ticks on each of the four CPU cycles
//! (`Core::tick`), then every channel controller runs its reference
//! tick (`MemoryController::tick_reference`: the full pipeline, a flat
//! queue scan, no skipping) and hands its finished reads to the cores.
//! It shares with `run` only what is not an optimization: request
//! routing, read delivery, the warm-up reset and the result. The event
//! loop must reproduce it bit for bit.

use super::*;

impl<S: TraceSink, M: MetricsSink> System<S, M> {
    /// Runs to completion or `max_mc_cycles` the reference way,
    /// resetting statistics after `warmup_reads` completed reads like
    /// [`run_with_warmup`](Self::run_with_warmup), then drains the
    /// controllers. Returns the result and the controllers themselves,
    /// for inspection or [`MemoryController::into_sink`]. Not a stable
    /// API.
    #[doc(hidden)]
    pub fn run_reference(
        mut self,
        max_mc_cycles: u64,
        warmup_reads: u64,
    ) -> (SimResult, Vec<MemoryController<S, M>>) {
        let mut warm = warmup_reads == 0;
        while !self.is_done() && self.mc_now() < max_mc_cycles {
            for _ in 0..CPU_CYCLES_PER_MC_CYCLE {
                for core in &mut self.cores {
                    let mut port = Port {
                        mcs: &mut self.mcs,
                        cfg: &self.cfg,
                    };
                    core.tick(self.cpu_now, &mut port);
                }
                self.cpu_now += 1;
            }
            for ch in 0..self.mcs.len() {
                self.mcs[ch].tick_reference();
                self.deliver(ch);
            }
            self.warm_up(&mut warm, warmup_reads);
        }
        // Posted writes drain with no new arrivals.
        while !self.mcs.iter().all(MemoryController::is_idle) && self.mc_now() < max_mc_cycles {
            for mc in &mut self.mcs {
                mc.tick_reference();
            }
        }
        let result = self.result();
        (result, self.mcs)
    }
}
