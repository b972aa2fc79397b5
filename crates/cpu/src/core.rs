//! USIMM-style trace-driven out-of-order core model.
//!
//! The model follows USIMM's processor abstraction (Table 3 of the
//! paper): a fixed-size reorder buffer, fixed fetch and retire widths,
//! and a fixed pipeline depth.
//!
//! * Non-memory instructions complete `pipeline_depth` CPU cycles after
//!   fetch.
//! * Writes are posted: they complete like non-memory instructions once
//!   the controller's write queue accepts them (fetch stalls while it is
//!   full — the back-pressure path that makes write-drain policy matter).
//! * Reads occupy their ROB slot until the controller returns data;
//!   because retirement is in-order, a pending read at the ROB head
//!   stalls the core — this is how DRAM latency becomes execution time.
//!
//! ## Two ways to drive a core
//!
//! [`Core::tick`] simulates one CPU cycle and is the reference. The
//! event-driven form simulates whole spans in which the core offers
//! nothing to the memory system: [`Core::run_ahead`] advances as far as
//! the core's future is known and returns the cycle of its next
//! [`MemoryPort`] probe, [`Core::catch_up`] advances a core that stopped
//! early to a given cycle, and the caller ticks the core only on its
//! probe cycles. Both forms produce the same submits on the same cycles,
//! the same finish cycle and the same stall count.
//!
//! The ROB is run-length encoded: one `Run` holds consecutive fetch
//! groups that complete on consecutive cycles, so a steady-state span
//! (ROB full, `retire_width` instructions retiring and as many fetched
//! each cycle) is one O(1) append plus the retirement of whole runs.
//!
//! A core reads its trace from a [`TraceSource`], one record ahead of
//! fetch: the record whose gap it is fetching and whose operation it
//! offers next. It holds no other record, so a trace generated on
//! demand costs the same memory at any length.

use crate::trace::{MemOp, TraceRecord, TraceSource};
use nuat_types::{CpuCycle, PhysAddr, ProcessorConfig};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// The memory system as seen by a core. Implemented by the simulator
/// around `nuat_core::MemoryController`.
pub trait MemoryPort {
    /// True if a request of this kind to this address can be accepted
    /// this CPU cycle (the address picks the channel in multi-channel
    /// systems).
    fn can_accept(&self, op: MemOp, addr: PhysAddr) -> bool;

    /// Submits a request, returning an opaque token that will be handed
    /// back via [`Core::complete_read`] when a read finishes.
    fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64;
}

/// Completion cycle of a read whose data has not returned.
const PENDING: u64 = u64::MAX;

/// Consecutive ROB entries: `groups` fetch groups, group `j` completing
/// at CPU cycle `at + j`. An outstanding read is a one-entry run at
/// [`PENDING`].
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Completion cycle of the first group.
    at: u64,
    /// Instructions left in the first group (retiring part of a group
    /// shrinks it).
    first: u32,
    /// Instructions in each later group; runs are only extended with
    /// groups at least `retire_width` wide.
    width: u32,
    groups: u64,
}

impl Run {
    fn len(&self) -> u64 {
        u64::from(self.first) + (self.groups - 1) * u64::from(self.width)
    }
}

/// Hashes read tokens (already unique integers) with one multiply.
#[derive(Debug, Default)]
struct TokenHasher(u64);

impl Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// One trace-driven core.
#[derive(Debug)]
pub struct Core {
    id: usize,
    cfg: ProcessorConfig,
    /// The records after `next`.
    source: Box<dyn TraceSource>,
    /// The record fetch works towards: its gap, then its operation.
    /// `None` once the source is exhausted and only the tail gap is left.
    next: Option<TraceRecord>,
    /// Non-memory instructions still to fetch before the next record's
    /// memory operation (or before the end, for the tail gap).
    gap_remaining: u32,
    retired: u64,
    rob: VecDeque<Run>,
    /// Instructions in the ROB.
    rob_len: u64,
    /// Sequence number of `rob[0]`: runs are numbered in push order.
    rob_head: u64,
    /// Outstanding reads: token → sequence number of the read's run.
    reads: HashMap<u64, u64, BuildHasherDefault<TokenHasher>>,
    /// Next CPU cycle to simulate; every earlier cycle is final.
    clock: u64,
    /// The port refused the next record at the last tick; fetch stays
    /// stuck on it until the caller ticks the core again.
    queue_blocked: bool,
    /// CPU cycle at which the final instruction retired.
    finished_at: Option<CpuCycle>,
    /// Cycles in which retirement made no progress while work remained.
    stall_cycles: u64,
}

impl Core {
    /// Creates a core that will execute `trace` under `cfg`: a
    /// materialized `Trace` or any other [`TraceSource`], read one record
    /// at a time as fetch reaches it.
    pub fn new<T>(id: usize, cfg: ProcessorConfig, trace: T) -> Self
    where
        T: IntoIterator,
        T::IntoIter: TraceSource + 'static,
    {
        let mut core = Core {
            id,
            cfg,
            source: Box::new(trace.into_iter()),
            next: None,
            gap_remaining: 0,
            retired: 0,
            rob: VecDeque::new(),
            rob_len: 0,
            rob_head: 0,
            reads: HashMap::default(),
            clock: 0,
            queue_blocked: false,
            finished_at: None,
            stall_cycles: 0,
        };
        core.pull();
        core
    }

    /// Takes the next record from the source, and with it the gap fetch
    /// must cross before its operation (the tail gap after the last).
    fn pull(&mut self) {
        self.next = self.source.next();
        self.gap_remaining = match self.next {
            Some(r) => r.gap,
            None => self.source.tail_gap(),
        };
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// True once every instruction has retired.
    pub fn is_done(&self) -> bool {
        self.next.is_none() && self.gap_remaining == 0 && self.rob_len == 0
    }

    /// CPU cycle the last instruction retired, if finished.
    pub fn finished_at(&self) -> Option<CpuCycle> {
        self.finished_at
    }

    /// Cycles in which no instruction retired while the core was not
    /// done (a coarse memory-stall indicator).
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// The next CPU cycle this core will simulate.
    pub fn clock(&self) -> CpuCycle {
        CpuCycle::new(self.clock)
    }

    /// The memory operation the port refused at the last tick, while
    /// fetch is stuck on it. Such a core neither runs ahead nor submits
    /// until it is ticked again, which the caller should do on the first
    /// cycle the target queue may have room.
    pub fn blocked_on(&self) -> Option<(MemOp, PhysAddr)> {
        if !self.queue_blocked {
            return None;
        }
        self.next.map(|r| (r.op, r.addr))
    }

    /// Delivers read data for `token` (from [`MemoryPort::submit`]); the
    /// entry may retire from CPU cycle `at` on. `at` may lie before or
    /// after the core's clock: a read's completion cycle only matters in
    /// cycles whose retirement reaches it, and the core simulates none
    /// of those while the read is outstanding, except under a
    /// [`catch_up`](Self::catch_up) that promised no earlier delivery.
    pub fn complete_read(&mut self, token: u64, at: CpuCycle) {
        let Some(seq) = self.reads.remove(&token) else {
            // A completion for an unknown token indicates a wiring bug.
            panic!(
                "core {}: read completion for unknown token {token}",
                self.id
            );
        };
        self.rob[(seq - self.rob_head) as usize].at = at.raw();
    }

    /// Advances one CPU cycle: retire, then fetch, offering memory
    /// operations to `port`. This is the reference every other way of
    /// advancing the core reproduces; the event-driven caller uses it on
    /// the cycles [`run_ahead`](Self::run_ahead) reports.
    ///
    /// Generic over the port (rather than `&mut dyn`) so the admission
    /// checks and submits inline into the system loop.
    pub fn tick(&mut self, now: CpuCycle, port: &mut impl MemoryPort) {
        let now = now.raw();
        self.clock = now + 1;
        self.queue_blocked = false;
        if self.is_done() {
            return;
        }
        self.retire(self.ready(now).0);
        let id = self.id;
        self.fetch(now, |op, addr| {
            if port.can_accept(op, addr) {
                Some(port.submit(id, op, addr))
            } else {
                None
            }
        });
        self.note_finish(now);
    }

    /// Advances through every cycle whose outcome is already known and
    /// returns the CPU cycle at which the core will next probe the
    /// memory port, where the caller must [`tick`](Self::tick) it.
    ///
    /// The core stops early, without simulating it, at a cycle whose
    /// retirement reaches a read that has not returned: its data decides
    /// what follows. The returned cycle then assumes the data stays
    /// out; the caller must call this again after every
    /// [`complete_read`](Self::complete_read), and
    /// [`catch_up`](Self::catch_up) the core before ticking it. Returns
    /// `None` when only a completion can lead to a probe, when the core
    /// is blocked on a full queue (see [`blocked_on`](Self::blocked_on)),
    /// and once it is done.
    pub fn run_ahead(&mut self) -> Option<CpuCycle> {
        if self.queue_blocked {
            return None;
        }
        // Without a limit, only finishing ends the run-ahead otherwise.
        let ready = self.advance(u64::MAX, true)?;
        if self.probes(ready) {
            return Some(CpuCycle::new(self.clock));
        }
        // Retirement reaches a read that has not returned: past this
        // cycle nothing retires, so fetch reaches the next record only if
        // the ROB has room for the gap before it.
        let gap = u64::from(self.gap_remaining);
        let room = self.cfg.rob_size as u64 - self.rob_len + ready;
        (self.next.is_some() && gap < room)
            .then(|| CpuCycle::new(self.clock + gap / self.cfg.fetch_width as u64))
    }

    /// Simulates every cycle before `to` that has not been simulated.
    /// The caller guarantees that the core probes the port on none of
    /// them and that every read completing before `to` was delivered.
    pub fn catch_up(&mut self, to: CpuCycle) {
        self.advance(to.raw(), false);
        debug_assert!(
            self.clock >= to.raw() || self.is_done(),
            "core {}: catch-up to {to} stopped at a probe on cycle {}",
            self.id,
            self.clock
        );
    }

    /// Instructions at the ROB head that can retire in cycle `now`,
    /// capped at the retire width, and whether retirement stops short at
    /// a read whose data is outstanding.
    fn ready(&self, now: u64) -> (u64, bool) {
        let cap = self.cfg.retire_width as u64;
        let mut n = 0;
        for run in &self.rob {
            if run.at > now {
                return (n, run.at == PENDING);
            }
            let groups = (now - run.at).min(run.groups - 1);
            n += u64::from(run.first) + groups * u64::from(run.width);
            if n >= cap {
                return (cap, false);
            }
            if groups + 1 < run.groups {
                break;
            }
        }
        (n, false)
    }

    /// Retires the `n` oldest ROB entries.
    fn pop(&mut self, mut n: u64) {
        self.retired += n;
        self.rob_len -= n;
        while n > 0 {
            let run = self.rob.front_mut().expect("retiring past the ROB tail");
            let len = run.len();
            if n >= len {
                n -= len;
                self.rob.pop_front();
                self.rob_head += 1;
            } else {
                if n < u64::from(run.first) {
                    run.first -= n as u32;
                } else {
                    let later = n - u64::from(run.first);
                    let width = u64::from(run.width);
                    let skipped = 1 + later / width;
                    run.at += skipped;
                    run.groups -= skipped;
                    run.first = (width - later % width) as u32;
                }
                return;
            }
        }
    }

    /// Appends `groups` fetch groups of `width` entries, group `j`
    /// completing at `at + j`.
    fn push(&mut self, at: u64, width: u32, groups: u64) {
        self.rob_len += u64::from(width) * groups;
        if let Some(tail) = self.rob.back_mut() {
            if tail.at != PENDING
                && tail.at + tail.groups == at
                && width as usize >= self.cfg.retire_width
                && (tail.groups == 1 || tail.width == width)
            {
                tail.width = width;
                tail.groups += groups;
                return;
            }
        }
        self.rob.push_back(Run {
            at,
            first: width,
            width,
            groups,
        });
    }

    fn retire(&mut self, ready: u64) {
        match ready {
            0 => self.stall_cycles += 1,
            n => self.pop(n),
        }
    }

    /// Fetch stage of cycle `now`. `submit` offers the next record's
    /// operation to the memory system and returns its token, or `None`
    /// when the target queue is full.
    fn fetch(&mut self, now: u64, mut submit: impl FnMut(MemOp, PhysAddr) -> Option<u64>) {
        let at = now + self.cfg.pipeline_depth;
        let cap = self.cfg.rob_size as u64;
        let mut group = 0u32;
        for _ in 0..self.cfg.fetch_width {
            if self.rob_len + u64::from(group) == cap {
                break;
            }
            if self.gap_remaining > 0 {
                self.gap_remaining -= 1;
                group += 1;
                continue;
            }
            let Some(rec) = self.next else {
                // Only the tail gap remained and it is exhausted.
                break;
            };
            let Some(token) = submit(rec.op, rec.addr) else {
                self.queue_blocked = true; // structural stall: queue full
                break;
            };
            match rec.op {
                MemOp::Read => {
                    if group > 0 {
                        self.push(at, group, 1);
                        group = 0;
                    }
                    self.reads
                        .insert(token, self.rob_head + self.rob.len() as u64);
                    self.rob.push_back(Run {
                        at: PENDING,
                        first: 1,
                        width: 1,
                        groups: 1,
                    });
                    self.rob_len += 1;
                }
                MemOp::Write => group += 1,
            }
            self.pull();
        }
        if group > 0 {
            self.push(at, group, 1);
        }
    }

    fn note_finish(&mut self, now: u64) {
        if self.is_done() && self.finished_at.is_none() {
            self.finished_at = Some(CpuCycle::new(now));
        }
    }

    /// Whether fetch in cycle `clock`, after `ready` entries retire,
    /// reaches the next record with ROB room to take it, i.e. probes the
    /// port.
    fn probes(&self, ready: u64) -> bool {
        if self.queue_blocked || self.next.is_none() {
            return false;
        }
        let gap = u64::from(self.gap_remaining);
        gap < self.cfg.fetch_width as u64 && gap < self.cfg.rob_size as u64 - self.rob_len + ready
    }

    /// Simulates cycles from `clock` up to `limit`, stopping early before
    /// a cycle that probes the port and, if `stop_at_read`, before a cycle
    /// whose retirement reaches a read that has not returned. After such
    /// an early stop, returns how many entries that cycle can retire.
    fn advance(&mut self, limit: u64, stop_at_read: bool) -> Option<u64> {
        while self.clock < limit && !self.is_done() {
            let now = self.clock;
            let (ready, read_out) = self.ready(now);
            if (stop_at_read && read_out) || self.probes(ready) {
                return Some(ready);
            }
            if !self.jump(limit) {
                self.retire(ready);
                // Reaches a record only while the queue is known full.
                self.fetch(now, |_, _| None);
                self.note_finish(now);
                self.clock = now + 1;
            }
        }
        None
    }

    /// Crosses, in O(1) plus the runs it retires, a span of cycles that
    /// all behave alike, starting at `clock` and ending by `limit`:
    ///
    /// * the head cannot retire, and fetch takes either nothing or a
    ///   full `fetch_width` group of gap instructions each cycle;
    /// * exactly `retire_width` entries retire each cycle, and fetch
    ///   takes either nothing or as many gap instructions (ROB full).
    ///
    /// Returns false, changing nothing, when the next cycle is neither.
    /// The caller has checked that the next cycle does not probe.
    fn jump(&mut self, limit: u64) -> bool {
        let c = self.clock;
        let r = self.cfg.retire_width as u64;
        let f = self.cfg.fetch_width as u64;
        let cap = self.cfg.rob_size as u64;
        let depth = self.cfg.pipeline_depth;
        let gap = u64::from(self.gap_remaining);
        // Fetch can take nothing: all fetched, or the next record is
        // held back by a full queue.
        let fetch_idle = gap == 0 && (self.next.is_none() || self.queue_blocked);
        // Cycles before the head can retire.
        let head_wait = match self.rob.front() {
            // An instruction fetched now retires `depth` cycles later,
            // and never in its own fetch cycle.
            None if !fetch_idle => depth.max(1),
            None => u64::MAX,
            Some(head) => head.at.saturating_sub(c),
        };
        let mut k = limit - c;
        if head_wait > 0 {
            let room = cap - self.rob_len;
            k = k.min(head_wait);
            if !fetch_idle && room > 0 {
                if room < f || gap < f {
                    return false;
                }
                k = k.min(room / f).min(gap / f);
                self.push(c + depth, f as u32, k);
                self.gap_remaining -= (k * f) as u32;
            }
            self.stall_cycles += k;
            self.clock += k;
            return true;
        }
        let refill = if fetch_idle {
            k = k.min(self.rob_len / r);
            false
        } else if self.rob_len == cap && f >= r {
            k = k.min(gap / r);
            true
        } else {
            return false;
        };
        // Entry `p` (counted from the head) retires in cycle `c + p / r`
        // if every entry before it retired at full width; find the first
        // entry that might not be ready by then.
        let mut p = 0u64;
        for run in &self.rob {
            if p >= k * r {
                break;
            }
            if run.at > c + p / r {
                k = k.min(p / r);
                break;
            }
            if run.groups > 1 {
                // Later groups complete one cycle apart and, being at
                // least `r` wide, retire at least a cycle apart: the
                // second group is the only one that can be late.
                let second = p + u64::from(run.first);
                if u64::from(run.width) < r || run.at + 1 > c + second / r {
                    k = k.min(second / r);
                    break;
                }
            }
            p += run.len();
        }
        if refill && p == cap && k * r > cap && depth.max(1) > cap / r {
            // The span would retire groups it fetched itself before they
            // complete.
            k = k.min(cap / r);
        }
        if k == 0 {
            return false;
        }
        if refill {
            self.push(c + depth, r as u32, k);
            self.gap_remaining -= (k * r) as u32;
        }
        self.pop(k * r);
        self.clock += k;
        self.note_finish(self.clock - 1);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;

    /// A memory port that completes reads after a fixed delay.
    #[derive(Debug, Default)]
    struct FakePort {
        submitted: Vec<(usize, MemOp, PhysAddr, u64)>,
        next_token: u64,
        accept_writes: bool,
    }

    impl MemoryPort for FakePort {
        fn can_accept(&self, op: MemOp, _addr: PhysAddr) -> bool {
            op == MemOp::Read || self.accept_writes
        }
        fn submit(&mut self, core: usize, op: MemOp, addr: PhysAddr) -> u64 {
            let t = self.next_token;
            self.next_token += 1;
            self.submitted.push((core, op, addr, t));
            t
        }
    }

    fn cfg() -> ProcessorConfig {
        ProcessorConfig::default()
    }

    #[test]
    fn pure_compute_trace_finishes_at_retire_bandwidth() {
        // 100 non-mem instructions, retire width 2 -> >= 50 cycles.
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 100));
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        let mut now = CpuCycle::ZERO;
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
            assert!(now.raw() < 10_000, "must terminate");
        }
        let t = core.finished_at().unwrap().raw();
        assert!((50..=80).contains(&t), "took {t} cycles");
        assert!(port.submitted.is_empty());
    }

    #[test]
    fn read_at_rob_head_stalls_until_completion() {
        let trace = Trace::new(
            vec![TraceRecord {
                gap: 0,
                op: MemOp::Read,
                addr: PhysAddr::new(0x40),
            }],
            10,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        for i in 0..50 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        // Everything fetched, nothing retired past the read.
        assert_eq!(core.retired(), 0);
        assert!(core.stall_cycles() > 10);
        core.complete_read(0, CpuCycle::new(50));
        let mut now = CpuCycle::new(50);
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
        }
        assert_eq!(core.retired(), 11);
    }

    #[test]
    fn writes_are_posted_but_stall_when_queue_full() {
        let trace = Trace::new(
            vec![TraceRecord {
                gap: 0,
                op: MemOp::Write,
                addr: PhysAddr::new(0x40),
            }],
            2,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort::default(); // rejects writes
        for i in 0..20 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        assert_eq!(core.retired(), 0, "fetch is blocked on the write");
        port.accept_writes = true;
        let mut now = CpuCycle::new(20);
        while !core.is_done() {
            core.tick(now, &mut port);
            now += 1;
        }
        assert!(core.is_done());
        assert_eq!(port.submitted.len(), 1);
    }

    #[test]
    fn rob_capacity_limits_outstanding_work() {
        // 500 compute instructions: the ROB (128) cannot hold them all
        // at once; fetch must throttle but everything still retires.
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 500));
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        let mut now = CpuCycle::ZERO;
        while !core.is_done() {
            assert!(core.rob_len <= 128);
            core.tick(now, &mut port);
            now += 1;
            assert!(now.raw() < 100_000);
        }
    }

    #[test]
    fn interleaves_gaps_and_mem_ops_in_order() {
        let trace = Trace::new(
            vec![
                TraceRecord {
                    gap: 3,
                    op: MemOp::Read,
                    addr: PhysAddr::new(0x40),
                },
                TraceRecord {
                    gap: 2,
                    op: MemOp::Write,
                    addr: PhysAddr::new(0x80),
                },
            ],
            0,
        );
        let mut core = Core::new(0, cfg(), trace);
        let mut port = FakePort {
            accept_writes: true,
            ..FakePort::default()
        };
        for i in 0..10 {
            core.tick(CpuCycle::new(i), &mut port);
        }
        assert_eq!(port.submitted.len(), 2);
        assert_eq!(port.submitted[0].1, MemOp::Read);
        assert_eq!(port.submitted[1].1, MemOp::Write);
    }

    #[test]
    #[should_panic(expected = "unknown token")]
    fn unknown_completion_panics() {
        let mut core = Core::new(0, cfg(), Trace::new(vec![], 10));
        core.complete_read(42, CpuCycle::ZERO);
    }
}
