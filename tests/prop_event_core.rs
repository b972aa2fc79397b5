//! Property test for the event-driven core: driving a [`Core`] through
//! [`Core::run_ahead`] / [`Core::catch_up`] and ticking it only on its
//! probe cycles must reproduce the per-cycle [`Core::tick`] loop exactly
//! — every submit on the same cycle, the same finish cycle and the same
//! stall count — for random traces, read latencies, queue-full windows
//! and processor configurations. The per-cycle loop is itself checked
//! against a plain model that keeps one ROB entry per instruction.

use nuat_cpu::{Core, MemOp, MemoryPort, Trace, TraceRecord};
use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};
use proptest::prelude::*;

/// SplitMix64: the scenario generator's randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// A memory system whose queues refuse one kind of request during
/// fixed windows of CPU cycles and whose reads complete a per-read
/// latency after submission.
#[derive(Debug, Clone)]
struct Scenario {
    cfg: ProcessorConfig,
    trace: Trace,
    /// Latency of the n-th read, in CPU cycles (cycled if short).
    latencies: Vec<u64>,
    /// `(kind, from, to)`: `kind` is refused on cycles `from..to`.
    full: Vec<(MemOp, u64, u64)>,
}

impl Scenario {
    fn random(seed: u64) -> Self {
        let mut rng = Rng(seed);
        let cfg = ProcessorConfig {
            rob_size: rng.range(1, 160) as usize,
            retire_width: rng.range(1, 5) as usize,
            fetch_width: rng.range(1, 5) as usize,
            pipeline_depth: rng.range(0, 12),
            cores: 1,
        };
        let reads = rng.range(0, 100);
        let burst = rng.range(0, 1) == 0;
        let records = (0..rng.range(0, 200))
            .map(|i| TraceRecord {
                gap: if burst && i % 8 != 0 {
                    rng.range(0, 3) as u32
                } else {
                    rng.range(0, 150) as u32
                },
                op: if rng.range(0, 99) < reads {
                    MemOp::Read
                } else {
                    MemOp::Write
                },
                addr: PhysAddr::new(rng.next() & 0xffff_ffc0),
            })
            .collect();
        let trace = Trace::new(records, rng.range(0, 300) as u32);
        let latencies = (0..16).map(|_| rng.range(1, 90)).collect();
        let mut full = Vec::new();
        let mut t = 0;
        for _ in 0..rng.range(0, 6) {
            t += rng.range(0, 120);
            let len = rng.range(1, 80);
            let kind = if rng.range(0, 1) == 0 {
                MemOp::Read
            } else {
                MemOp::Write
            };
            full.push((kind, t, t + len));
            t += len;
        }
        Scenario {
            cfg,
            trace,
            latencies,
            full,
        }
    }

    fn accepts(&self, op: MemOp, now: u64) -> bool {
        !self
            .full
            .iter()
            .any(|&(kind, from, to)| kind == op && (from..to).contains(&now))
    }

    /// First cycle at or after `now` on which `op` is accepted.
    fn next_accept(&self, op: MemOp, mut now: u64) -> u64 {
        while let Some(&(_, _, to)) = self
            .full
            .iter()
            .find(|&&(kind, from, to)| kind == op && (from..to).contains(&now))
        {
            now = to;
        }
        now
    }
}

/// What a run produced: `(cycle, op, addr)` per submit, the finish
/// cycle, the stall count and the instructions retired.
type Outcome = (Vec<(u64, MemOp, PhysAddr)>, Option<CpuCycle>, u64, u64);

/// The port for one cycle: records submits and schedules completions.
struct Port<'a> {
    sc: &'a Scenario,
    now: u64,
    submits: &'a mut Vec<(u64, MemOp, PhysAddr)>,
    /// `(completion cycle, token)` of reads in flight.
    inflight: &'a mut Vec<(u64, u64)>,
}

impl MemoryPort for Port<'_> {
    fn can_accept(&self, op: MemOp, _addr: PhysAddr) -> bool {
        self.sc.accepts(op, self.now)
    }

    fn submit(&mut self, _core: usize, op: MemOp, addr: PhysAddr) -> u64 {
        let token = self.submits.len() as u64;
        if op == MemOp::Read {
            let reads = self.inflight.len() + self.submits.len();
            let lat = self.sc.latencies[reads % self.sc.latencies.len()];
            self.inflight.push((self.now + lat, token));
        }
        self.submits.push((self.now, op, addr));
        token
    }
}

/// Hands every read completing on `now` to the core.
fn deliver(core: &mut Core, inflight: &mut Vec<(u64, u64)>, now: u64) {
    inflight.retain(|&(at, token)| {
        if at == now {
            core.complete_read(token, CpuCycle::new(at));
        }
        at != now
    });
}

const CAP: u64 = 1_000_000;

/// Reference: one `tick` per CPU cycle.
fn per_cycle(sc: &Scenario) -> Outcome {
    let mut core = Core::new(0, sc.cfg, sc.trace.clone());
    let (mut submits, mut inflight) = (Vec::new(), Vec::new());
    let mut now = 0;
    while !core.is_done() {
        assert!(now < CAP, "reference run did not finish");
        deliver(&mut core, &mut inflight, now);
        let mut port = Port {
            sc,
            now,
            submits: &mut submits,
            inflight: &mut inflight,
        };
        core.tick(CpuCycle::new(now), &mut port);
        now += 1;
    }
    let (finish, stalls, retired) = (core.finished_at(), core.stall_cycles(), core.retired());
    (submits, finish, stalls, retired)
}

/// The model `Core::tick` compresses, written plainly: one ROB entry
/// per instruction, holding its completion cycle (`None` while a read
/// is outstanding) and its token.
fn one_entry_per_instruction(sc: &Scenario) -> Outcome {
    use std::collections::VecDeque;
    let cfg = sc.cfg;
    let records = sc.trace.records();
    let gap_of = |i: usize| records.get(i).map_or(sc.trace.tail_gap(), |r| r.gap);
    let total = sc.trace.total_instructions();
    let (mut next, mut gap, mut fetched, mut retired) = (0, gap_of(0), 0, 0);
    let mut rob: VecDeque<(Option<u64>, u64)> = VecDeque::new();
    let (mut finish, mut stalls) = (None, 0);
    let (mut submits, mut inflight) = (Vec::new(), Vec::new());
    let mut now = 0;
    while retired < total {
        assert!(now < CAP, "plain run did not finish");
        inflight.retain(|&(at, token)| {
            if at == now {
                let e = rob.iter_mut().find(|e| e.1 == token && e.0.is_none());
                e.expect("completion for an instruction in the ROB").0 = Some(at);
            }
            at != now
        });
        let mut n = 0;
        while n < cfg.retire_width && rob.front().is_some_and(|e| e.0.is_some_and(|t| t <= now)) {
            rob.pop_front();
            retired += 1;
            n += 1;
        }
        if n == 0 {
            stalls += 1;
        }
        for _ in 0..cfg.fetch_width {
            if fetched == total || rob.len() == cfg.rob_size {
                break;
            }
            if gap > 0 {
                gap -= 1;
            } else {
                let rec = records[next];
                let mut port = Port {
                    sc,
                    now,
                    submits: &mut submits,
                    inflight: &mut inflight,
                };
                if !port.can_accept(rec.op, rec.addr) {
                    break;
                }
                let token = port.submit(0, rec.op, rec.addr);
                if rec.op == MemOp::Read {
                    rob.push_back((None, token));
                    fetched += 1;
                    next += 1;
                    gap = gap_of(next);
                    continue;
                }
                next += 1;
                gap = gap_of(next);
            }
            rob.push_back((Some(now + cfg.pipeline_depth), u64::MAX));
            fetched += 1;
        }
        if retired == total {
            finish = Some(CpuCycle::new(now));
        }
        now += 1;
    }
    (submits, finish, stalls, retired)
}

/// Event-driven: tick only on probe cycles and on the first cycle a
/// refused record may be accepted; deliver completions as they fall due.
fn event_driven(sc: &Scenario) -> Outcome {
    let mut core = Core::new(0, sc.cfg, sc.trace.clone());
    let (mut submits, mut inflight) = (Vec::new(), Vec::new());
    let mut due = core.run_ahead();
    let mut events = 0;
    while !core.is_done() {
        events += 1;
        assert!(events < CAP, "event-driven run did not finish");
        let wake = core
            .blocked_on()
            .map(|(op, _)| sc.next_accept(op, core.clock().raw()));
        let tick_at = due.map(CpuCycle::raw).into_iter().chain(wake).min();
        let completion = inflight.iter().map(|&(at, _)| at).min();
        // Completions on a cycle reach the core before its tick.
        if let Some(at) = completion.filter(|&at| tick_at.is_none_or(|t| at <= t)) {
            deliver(&mut core, &mut inflight, at);
            due = core.run_ahead();
            continue;
        }
        let now = tick_at.expect("a live core is waiting on something");
        core.catch_up(CpuCycle::new(now));
        let mut port = Port {
            sc,
            now,
            submits: &mut submits,
            inflight: &mut inflight,
        };
        core.tick(CpuCycle::new(now), &mut port);
        due = core.run_ahead();
    }
    let (finish, stalls, retired) = (core.finished_at(), core.stall_cycles(), core.retired());
    (submits, finish, stalls, retired)
}

fn assert_same(sc: &Scenario) {
    let reference = per_cycle(sc);
    assert_eq!(
        one_entry_per_instruction(sc),
        reference,
        "tick diverged from the plain model: {:?}",
        sc.cfg
    );
    let events = event_driven(sc);
    assert_eq!(
        events.0.len(),
        reference.0.len(),
        "submit count diverged: {:?}",
        sc.cfg
    );
    assert_eq!(
        events,
        reference,
        "outcome diverged: {:?} {:?}",
        sc.cfg,
        sc.trace.records().len()
    );
    assert_eq!(reference.3, sc.trace.total_instructions());
}

fn record(gap: u32, op: MemOp) -> TraceRecord {
    TraceRecord {
        gap,
        op,
        addr: PhysAddr::new(0x40),
    }
}

fn fixed(cfg: ProcessorConfig, trace: Trace) -> Scenario {
    Scenario {
        cfg,
        trace,
        latencies: vec![37, 5, 120, 64],
        full: vec![(MemOp::Write, 30, 90), (MemOp::Read, 200, 260)],
    }
}

#[test]
fn empty_trace() {
    let sc = fixed(ProcessorConfig::default(), Trace::new(vec![], 0));
    assert_same(&sc);
    assert_eq!(event_driven(&sc).1, None);
}

#[test]
fn trace_without_memory_operations() {
    assert_same(&fixed(
        ProcessorConfig::default(),
        Trace::new(vec![], 5_000),
    ));
}

#[test]
fn trace_ending_in_a_non_memory_tail_gap() {
    let records = (0..40)
        .map(|i| {
            record(
                i % 7,
                if i % 3 == 0 {
                    MemOp::Write
                } else {
                    MemOp::Read
                },
            )
        })
        .collect();
    assert_same(&fixed(
        ProcessorConfig::default(),
        Trace::new(records, 2_000),
    ));
}

#[test]
fn retire_width_greater_than_fetch_width() {
    let cfg = ProcessorConfig {
        retire_width: 4,
        fetch_width: 2,
        ..ProcessorConfig::default()
    };
    let records = (0..40).map(|i| record(i * 11 % 50, MemOp::Read)).collect();
    assert_same(&fixed(cfg, Trace::new(records, 300)));
}

#[test]
fn steady_state_spans_match_with_a_small_rob_and_deep_pipeline() {
    let cfg = ProcessorConfig {
        rob_size: 8,
        retire_width: 3,
        fetch_width: 4,
        pipeline_depth: 12,
        cores: 1,
    };
    let records = (0..30).map(|i| record(200 + i, MemOp::Read)).collect();
    assert_same(&fixed(cfg, Trace::new(records, 100)));
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1000, ..ProptestConfig::default() })]

    #[test]
    fn prop_event_core_equals_tick(seed in proptest::num::u64::ANY) {
        assert_same(&Scenario::random(seed));
    }
}
