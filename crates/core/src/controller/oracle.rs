//! The naive per-cycle reference the controller's fast path is tested
//! against. Nothing in the simulator calls it; tests and checks do.
//!
//! [`tick_reference`](MemoryController::tick_reference) runs the same
//! pipeline as `tick` — power management, refresh service, the policy's
//! choice and its issue, the refresh force-close fallback (all of it
//! `tick_inner`) — on every cycle, with a flat scan of the queues as its
//! enumeration step. It never reads the bank wheel or the busy
//! horizon and never skips a cycle, so a controller driven by it alone
//! is the plain USIMM-style per-cycle controller loop. The production
//! path must match it bit for bit: `tests/prop_fast_equals_oracle.rs`,
//! the determinism guards and the `indexed_vs_linear` property below
//! compare the two.
//!
//! [`debug_check_wheel_keys`](MemoryController::debug_check_wheel_keys)
//! checks the bank wheel's lower-bound invariant at a live controller
//! state.

use super::*;

impl<S: TraceSink, M: MetricsSink> MemoryController<S, M> {
    /// Advances one controller cycle the reference way: the full
    /// pipeline, every cycle, enumerating by a flat queue scan.
    ///
    /// Drive a controller with either this or `tick`/`run_for`, never
    /// both: the wheel and busy horizon this leaves untouched are what
    /// the fast path relies on. Not a stable API.
    #[doc(hidden)]
    pub fn tick_reference(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.tick_inner(&mut scratch, Self::enumerate_candidates_linear);
        self.scratch = scratch;
        self.observe_tick();
    }

    /// Reference enumeration: one pass over every queued request in
    /// queue order (reads then writes, each by age), reading bank state
    /// from the device rather than the queues' open-row mirror. Per
    /// bank it offers the first request whose activate or precharge the
    /// device accepts, and per (bank, kind) the first legal column hit
    /// when the policy dedups equal commands, else every one.
    fn enumerate_candidates_linear(&self, scratch: &mut TickScratch) {
        let TickScratch {
            pending,
            lrras,
            candidates: out,
            candidate_slots: out_slots,
            ..
        } = scratch;
        out.clear();
        out_slots.clear();
        let view = PolicyView {
            now: self.now,
            mode: self.queues.mode(),
            lrras,
            pbr: &self.pbr,
        };
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let total_banks = self.queues.total_banks();
        let mut act_seen = vec![false; total_banks];
        let mut pre_seen = vec![false; total_banks];
        let dedup_cols = self.policy.prefers_oldest_equal_command();
        let mut col_seen = vec![false; 2 * total_banks];

        let mut open_row_hits = vec![0u32; total_banks];
        for (_, req) in self.queues.iter_slots() {
            let key = req.addr.rank.index() * banks_per_rank + req.addr.bank.index();
            if let BankState::Active { row, .. } =
                self.device.bank(req.addr.rank, req.addr.bank).state
            {
                if row == req.addr.row {
                    open_row_hits[key] += 1;
                }
            }
        }

        for (slot, req) in self.queues.iter_slots() {
            let rank = req.addr.rank;
            let bank = req.addr.bank;
            let bv = self.device.bank(rank, bank);
            let key = rank.index() * banks_per_rank + bank.index();
            let lrra = lrras[rank.index()];
            let pb_zone = || self.pbr.pb_and_zone(lrra, req.addr.row);

            match bv.state {
                BankState::Active { row, .. } if row == req.addr.row => {
                    let ck = 2 * key + (req.kind == RequestKind::Write) as usize;
                    if dedup_cols && col_seen[ck] {
                        continue;
                    }
                    let auto = pending[rank.index()]
                        || (self.policy.auto_precharge(&view, req)
                            && !(self.policy.preserve_pending_hits() && open_row_hits[key] > 1));
                    let command = match req.kind {
                        RequestKind::Read => DramCommand::Read {
                            rank,
                            bank,
                            col: req.addr.col,
                            auto_precharge: auto,
                        },
                        RequestKind::Write => DramCommand::Write {
                            rank,
                            bank,
                            col: req.addr.col,
                            auto_precharge: auto,
                        },
                    };
                    if self.device.can_issue(&command, self.now).is_ok() {
                        col_seen[ck] = true;
                        let (pb, zone) = pb_zone();
                        out.push(Candidate {
                            request: *req,
                            command,
                            kind: CandidateKind::Column,
                            pb,
                            zone,
                        });
                        out_slots.push(slot);
                    }
                }
                BankState::Active { .. } => {
                    if pre_seen[key] || open_row_hits[key] > 0 {
                        continue;
                    }
                    let command = DramCommand::Precharge { rank, bank };
                    if self.device.can_issue(&command, self.now).is_ok() {
                        pre_seen[key] = true;
                        let (pb, zone) = pb_zone();
                        out.push(Candidate {
                            request: *req,
                            command,
                            kind: CandidateKind::Precharge,
                            pb,
                            zone,
                        });
                        out_slots.push(NO_SLOT);
                    }
                }
                BankState::Idle => {
                    if pending[rank.index()] || act_seen[key] {
                        continue;
                    }
                    let timings = self.policy.act_timings(&view, req);
                    let command = DramCommand::Activate {
                        rank,
                        bank,
                        row: req.addr.row,
                        timings,
                    };
                    match self.device.can_issue(&command, self.now) {
                        Ok(()) => {
                            act_seen[key] = true;
                            let (pb, zone) = pb_zone();
                            out.push(Candidate {
                                request: *req,
                                command,
                                kind: CandidateKind::Activate,
                                pb,
                                zone,
                            });
                            out_slots.push(slot);
                        }
                        Err(e) if e.is_too_early() => {}
                        // A non-timing rejection (physical violation,
                        // protocol misuse) would starve the request
                        // forever: a broken policy promise.
                        Err(e) => panic!("illegal ACT candidate {command}: {e}"),
                    }
                }
            }
        }
    }

    /// Checks the bank wheel's soundness invariant (see
    /// `crate::wheel`) at the controller's *current* state: no bank's
    /// stored key is later than the earliest cycle the bank can act —
    /// its `bank_key` derived from the current gates, queues and
    /// refresh-pending flags, or `now` once that cycle has passed (a
    /// bank able to act must come due at the next full tick). Keys may
    /// be early, never late. Panics naming the first late key. Not a
    /// stable API.
    #[doc(hidden)]
    pub fn debug_check_wheel_keys(&self) {
        let banks_per_rank = self.cfg.dram.geometry.banks_per_rank as usize;
        let now = self.now.raw();
        let mut pending = Vec::new();
        self.compute_refresh_pending(&mut pending);
        for (r, &rank_pending) in pending.iter().enumerate() {
            let rank = Rank::new(r as u32);
            let rt = self.device.rank_timing(rank);
            let lanes = self.device.bank_lanes(rank);
            for bi in 0..banks_per_rank {
                let key = r * banks_per_rank + bi;
                let earliest = self.bank_key(key, bi, rank_pending, &rt, &lanes).max(now);
                let stored = self.wheel.key(key as u32);
                assert!(
                    stored <= earliest,
                    "wheel key {stored} of rank {r}, bank {bi} is later than the bank's \
                     earliest action at {earliest} (now {now})"
                );
            }
        }
    }
}

#[cfg(test)]
mod indexed_vs_linear {
    use super::*;
    use proptest::prelude::*;

    // Drives a random workload through two controllers in lockstep,
    // one on the production `tick` (wheel-indexed enumeration, busy
    // skip) and one on `tick_reference` (flat queue scan, every
    // cycle), and demands identical statistics, device statistics
    // and queue occupancy after every simulated cycle — enqueue
    // bursts, timing-gated stretches, refresh windows and the final
    // drain included.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

        #[test]
        fn indexed_enum_equals_linear_scan(
            sched in 0usize..4,
            two_ranks in proptest::bool::ANY,
            ops in proptest::collection::vec(
                (proptest::bool::ANY, 0u32..8, 0u32..24, proptest::bool::ANY, 0u64..24),
                1..48,
            ),
        ) {
            let kind = [
                SchedulerKind::Fcfs,
                SchedulerKind::FrFcfsOpen,
                SchedulerKind::FrFcfsClose,
                SchedulerKind::Nuat,
            ][sched];
            let mut cfg = SystemConfig::default();
            if two_ranks {
                cfg.dram.geometry.ranks_per_channel = 2;
            }
            let ranks = cfg.dram.geometry.ranks_per_channel as u32;
            let mut fast = MemoryController::new(cfg, kind);
            let mut slow = MemoryController::new(cfg, kind);
            let step = |fast: &mut MemoryController, slow: &mut MemoryController| {
                fast.tick();
                slow.tick_reference();
                assert_eq!(fast.now(), slow.now());
                assert_eq!(fast.stats(), slow.stats(), "stats diverged at {}", slow.now());
                assert_eq!(
                    fast.device().stats(),
                    slow.device().stats(),
                    "device stats diverged at {}",
                    slow.now()
                );
                assert_eq!(fast.queues().occupancy(), slow.queues().occupancy());
            };
            for (hi_rank, bank, row, is_write, gap) in ops {
                let rk = if is_write {
                    RequestKind::Write
                } else {
                    RequestKind::Read
                };
                prop_assert_eq!(fast.can_accept(rk), slow.can_accept(rk));
                if fast.can_accept(rk) {
                    let addr = nuat_types::DecodedAddr {
                        channel: nuat_types::Channel::new(0),
                        rank: Rank::new(if hi_rank { ranks - 1 } else { 0 }),
                        bank: Bank::new(bank),
                        row: Row::new(row),
                        col: nuat_types::Col::new(0),
                    };
                    fast.enqueue_decoded(0, rk, addr);
                    slow.enqueue_decoded(0, rk, addr);
                }
                for _ in 0..gap {
                    step(&mut fast, &mut slow);
                }
            }
            let mut guard = 0u32;
            while !slow.is_idle() && guard < 50_000 {
                step(&mut fast, &mut slow);
                guard += 1;
            }
            prop_assert!(slow.is_idle(), "workload failed to drain");
            prop_assert!(fast.is_idle());
        }
    }
}
