//! Read and write queues with the paper's watermark-driven write-drain
//! hysteresis (Table 1, Element 1; Fig. 13) — stored *indexed by
//! (rank, bank)* so the controller's per-cycle work scales with the
//! channel's bank count, not with queue occupancy.
//!
//! The controller services reads by default. When the write queue fills
//! to its high watermark it switches to *drain* mode (path ① in Fig. 13)
//! and prefers writes until occupancy falls to the low watermark (path
//! ②). Between the watermarks the previous mode persists — the
//! "Previous Variable" entry of Table 1.
//!
//! ## Storage layout
//!
//! Requests live in a slab threaded by three families of intrusive
//! doubly-linked lists, all kept in **age order** (a global monotone id
//! is assigned at `push` and never reused):
//!
//! * one *global* list per kind (reads, writes) — preserves the legacy
//!   flat-FIFO iteration order for diagnostics and oracles,
//! * one *per-(rank, bank)* list per kind — what candidate enumeration
//!   walks, so a bank's oldest read/write is O(1) away,
//! * one *per-(rank, bank) open-row match* list per kind — the requests
//!   hitting the bank's currently open row, maintained incrementally on
//!   enqueue / remove / row open / row close (the controller notifies
//!   row transitions via [`note_row_open`](RequestQueues::note_row_open)
//!   / [`note_row_close`](RequestQueues::note_row_close)).
//!
//! The slab is split into *hot* and *cold* lanes. Hot: the six
//! intrusive links in a dense 12-byte-per-slot lane (`SlotLinks`),
//! the age id (8 bytes), the bank key (2 bytes), the row coordinate
//! (4 bytes), and a flags byte that also encodes the request kind.
//! Cold: the full ~56-byte request payload (`reqs`). Every list walk —
//! match rebuilds, id-addressed removal, hit probes, unthreading —
//! reads hot lanes only; the payload is touched exactly when a specific
//! request is inspected or handed out. At deep queues (256 entries and
//! up) the walks therefore stream through a few hundred bytes of
//! contiguous memory instead of hopping across heterogeneous payload
//! slots — the difference between staying in L1 and going cache-cold
//! (see DESIGN.md §7).
//!
//! Per-rank occupancy counters ride along so power management and the
//! event-horizon computation need no queue scans either. Because every
//! list is age-ordered and ids are unique, any scheduler that breaks
//! ties by age id sees *bit-identical* choices whether candidates are
//! produced by a flat scan or bank by bank (see DESIGN.md §7).

use crate::request::{MemoryRequest, RequestId, RequestKind};
use nuat_types::{Bank, ControllerConfig, Rank, Row};
use serde::{Deserialize, Serialize};

/// The two Element-1 hysteresis states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DrainMode {
    /// Reads have priority (Fig. 13 path ② / below LW).
    ServeReads,
    /// Writes have priority (Fig. 13 path ① / above HW).
    DrainWrites,
}

/// Null link: the slab never grows near `u32::MAX` slots (capacities are
/// bounded by the queue configuration).
const NIL: u32 = u32::MAX;

/// In-slab encoding of [`NIL`]. Links are stored as `u16` — the slab is
/// capped to `u16::MAX - 1` slots at construction — so the links lane
/// is half the size it would be with `u32` fields and stays L1-resident
/// at queue depths where the slab itself no longer does.
const NIL16: u16 = u16::MAX;

#[inline]
fn widen(v: u16) -> u32 {
    if v == NIL16 {
        NIL
    } else {
        v as u32
    }
}

#[inline]
fn narrow(v: u32) -> u16 {
    if v == NIL {
        NIL16
    } else {
        debug_assert!(v < NIL16 as u32, "slot index exceeds the u16 link space");
        v as u16
    }
}

/// Which intrusive list family a link operation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Global per-kind age list.
    Global,
    /// Per-(rank, bank) per-kind age list.
    Bank,
    /// Per-(rank, bank) per-kind open-row match list.
    Hit,
}

/// One slab entry's intrusive links — the hot lane every list walk and
/// every unlink's neighbour fix-up streams through. Kept to 12 bytes
/// (six `u16`s, five slots per cache line): unlinks touch up to two
/// *neighbour* slots scattered across the slab, so halving the lane is
/// what keeps deep-queue (256+) removal churn from evicting the
/// enumeration's working set. Slot indices pass through the public API
/// as `u32`; [`widen`]/[`narrow`] translate at the lane boundary.
#[derive(Debug, Clone, Copy)]
struct SlotLinks {
    gprev: u16,
    gnext: u16,
    bprev: u16,
    bnext: u16,
    hprev: u16,
    hnext: u16,
}

impl SlotLinks {
    const UNLINKED: SlotLinks = SlotLinks {
        gprev: NIL16,
        gnext: NIL16,
        bprev: NIL16,
        bnext: NIL16,
        hprev: NIL16,
        hnext: NIL16,
    };

    fn prev(&self, l: Link) -> u32 {
        widen(match l {
            Link::Global => self.gprev,
            Link::Bank => self.bprev,
            Link::Hit => self.hprev,
        })
    }

    fn next(&self, l: Link) -> u32 {
        widen(match l {
            Link::Global => self.gnext,
            Link::Bank => self.bnext,
            Link::Hit => self.hnext,
        })
    }

    fn set_prev(&mut self, l: Link, v: u32) {
        let v = narrow(v);
        match l {
            Link::Global => self.gprev = v,
            Link::Bank => self.bprev = v,
            Link::Hit => self.hprev = v,
        }
    }

    fn set_next(&mut self, l: Link, v: u32) {
        let v = narrow(v);
        match l {
            Link::Global => self.gnext = v,
            Link::Bank => self.bnext = v,
            Link::Hit => self.hnext = v,
        }
    }
}

/// Slot-flag bit: the slot holds a queued request.
const FLAG_LIVE: u8 = 1 << 0;
/// Slot-flag bit: the slot is threaded on its bank's open-row match
/// list (so removal knows whether to unlink from it).
const FLAG_IN_HIT: u8 = 1 << 1;
/// Slot-flag bit: the slot holds a write (clear = read), so unthreading
/// and the O(1) hinted row-open path learn the kind without touching the
/// cold payload lane.
const FLAG_WRITE: u8 = 1 << 2;

#[inline]
fn kind_of_flags(flags: u8) -> RequestKind {
    if flags & FLAG_WRITE != 0 {
        RequestKind::Write
    } else {
        RequestKind::Read
    }
}

/// Head/tail of one intrusive list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ListHeads {
    head: u32,
    tail: u32,
}

impl ListHeads {
    const EMPTY: ListHeads = ListHeads {
        head: NIL,
        tail: NIL,
    };
}

/// Appends slot `i` at the tail of `list` (age order: newest last).
fn push_back(links: &mut [SlotLinks], list: &mut ListHeads, i: u32, l: Link) {
    links[i as usize].set_prev(l, list.tail);
    links[i as usize].set_next(l, NIL);
    if list.tail == NIL {
        list.head = i;
    } else {
        links[list.tail as usize].set_next(l, i);
    }
    list.tail = i;
}

/// Unlinks slot `i` from `list`.
fn unlink(links: &mut [SlotLinks], list: &mut ListHeads, i: u32, l: Link) {
    let (p, n) = {
        let s = &links[i as usize];
        (s.prev(l), s.next(l))
    };
    if p == NIL {
        list.head = n;
    } else {
        links[p as usize].set_next(l, n);
    }
    if n == NIL {
        list.tail = p;
    } else {
        links[n as usize].set_prev(l, p);
    }
}

/// Per-(rank, bank) index: age lists, the open-row match lists, and the
/// controller-maintained mirror of the bank's open row.
#[derive(Debug, Clone)]
struct BankIndex {
    reads: ListHeads,
    writes: ListHeads,
    hit_reads: ListHeads,
    hit_writes: ListHeads,
    hit_read_count: u32,
    hit_write_count: u32,
    /// Mirror of the device's row-buffer state, driven by
    /// `note_row_open` / `note_row_close`. `None` for direct users that
    /// never report row transitions (the match index then stays empty,
    /// which is exactly right: no row is open).
    open_row: Option<Row>,
    len: u32,
}

impl BankIndex {
    const EMPTY: BankIndex = BankIndex {
        reads: ListHeads::EMPTY,
        writes: ListHeads::EMPTY,
        hit_reads: ListHeads::EMPTY,
        hit_writes: ListHeads::EMPTY,
        hit_read_count: 0,
        hit_write_count: 0,
        open_row: None,
        len: 0,
    };
}

/// Age-order cursor over one intrusive list.
#[derive(Debug)]
pub struct ListIter<'a> {
    links: &'a [SlotLinks],
    reqs: &'a [MemoryRequest],
    cur: u32,
    link: Link,
}

impl<'a> Iterator for ListIter<'a> {
    type Item = &'a MemoryRequest;

    fn next(&mut self) -> Option<&'a MemoryRequest> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur;
        self.cur = self.links[i as usize].next(self.link);
        Some(&self.reqs[i as usize])
    }
}

/// Age-order cursor over one intrusive list that also yields each
/// request's slab slot, so the issue path can remove the chosen request
/// in O(1) via `RequestQueues::remove_at_issued` instead of re-walking its
/// bank list to find it.
#[derive(Debug)]
pub struct SlotIter<'a> {
    links: &'a [SlotLinks],
    reqs: &'a [MemoryRequest],
    cur: u32,
    link: Link,
}

impl<'a> Iterator for SlotIter<'a> {
    type Item = (u32, &'a MemoryRequest);

    fn next(&mut self) -> Option<(u32, &'a MemoryRequest)> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur;
        self.cur = self.links[i as usize].next(self.link);
        Some((i, &self.reqs[i as usize]))
    }
}

/// Sentinel slot value for candidates that never need slot-addressed
/// removal (precharges leave their request queued; activates carry
/// their slot as a `note_row_open` hint instead).
pub(crate) const NO_SLOT: u32 = NIL;

/// Buckets per bank in the row counting filter (power of two; the
/// bucket of a row is `row & (ROW_FILTER_BUCKETS - 1)`).
const ROW_FILTER_BUCKETS: usize = 512;

/// Per-slot hot metadata, packed so every slot-scattered access costs
/// one cache line: the row coordinate (the only payload field the
/// `note_row_open` match rebuild needs), the bank sub-queue key
/// (`rank * banks_per_rank + bank`, so unthreading recovers every
/// coordinate from hot lanes alone), and the
/// `FLAG_LIVE`/`FLAG_IN_HIT`/`FLAG_WRITE` bits.
#[derive(Debug, Clone, Copy)]
struct SlotMeta {
    /// Row coordinate (raw [`Row`]).
    row: u32,
    /// Bank sub-queue key, `rank * banks_per_rank + bank`.
    bank_key: u16,
    /// `FLAG_LIVE` / `FLAG_IN_HIT` / `FLAG_WRITE` bits.
    flags: u8,
}

/// The controller's request queues, indexed per (rank, bank).
///
/// Slab storage is a structure of arrays (see the module docs): the hot
/// lanes (`links`, `meta`, `ids`) are what list maintenance, match
/// rebuilds and id-addressed walks stream through; `reqs` is the cold
/// payload lane, only touched when a specific request is inspected or
/// handed out.
#[derive(Debug, Clone)]
pub struct RequestQueues {
    links: Vec<SlotLinks>,
    /// Packed per-slot metadata (row, bank key, flags). One 8-byte
    /// record instead of three parallel lanes: the slot-scattered
    /// operations — enqueue into a recycled slot, unthreading at
    /// issue, hit-flag maintenance — touch a single cache line where
    /// split `rows`/`flags`/`bank_keys` lanes touched three. At deep
    /// queue capacities the slab working set outgrows L1, so the lane
    /// count per scattered slot access is what the depth-64→256
    /// throughput droop scaled with.
    meta: Vec<SlotMeta>,
    /// Age id of each slot (the raw [`RequestId`]), lifted out of the
    /// payload so id-addressed walks (`remove`, hit probes that exempt
    /// one request) stream a dense 8-byte lane instead of the ~56-byte
    /// payload slots.
    ids: Vec<u64>,
    /// Per-bank counting filter over row-hash buckets, maintained at
    /// enqueue/remove time. When an ACT opens a row and the activating
    /// request's bucket holds exactly one entry, that request is
    /// provably the bank's only possible row hit, so `note_row_open`
    /// links it in O(1) instead of walking the whole bank list. A
    /// colliding bucket (count > 1) merely falls back to the exact
    /// walk — the filter never changes behaviour, only cost.
    row_filter: Vec<u32>,
    reqs: Vec<MemoryRequest>,
    free: Vec<u32>,
    reads: ListHeads,
    writes: ListHeads,
    banks: Vec<BankIndex>,
    rank_len: Vec<u32>,
    banks_per_rank: usize,
    read_len: usize,
    write_len: usize,
    cfg: ControllerConfig,
    mode: DrainMode,
    next_id: u64,
    /// Per-rank bank bitmaps, maintained at the same sites that update
    /// the per-bank counters they summarize (a rank has at most 64
    /// banks, see `SystemConfig::validate`). The controller's post-issue
    /// re-key picks the banks an issue moved from these loads instead
    /// of touching every sibling's `BankIndex`:
    /// bit b of `work_mask[r]` ⟺ bank b has queued requests,
    /// `open_mask[r]` ⟺ its open-row mirror is set,
    /// `hit_mask[r]` ⟺ it has open-row hits (reads or writes) queued.
    work_mask: Vec<u64>,
    open_mask: Vec<u64>,
    hit_mask: Vec<u64>,
}

impl RequestQueues {
    /// Creates empty queues with the given capacities/watermarks, sized
    /// for `ranks × banks_per_rank` bank sub-queues.
    ///
    /// # Panics
    ///
    /// Panics on a shape `SystemConfig::validate` rejects: a combined
    /// capacity the u16 slot links cannot address, or more than 64
    /// banks per rank (the width of the per-rank bank bitmaps).
    pub fn new(cfg: ControllerConfig, ranks: usize, banks_per_rank: usize) -> Self {
        let cap = cfg.read_queue_capacity + cfg.write_queue_capacity;
        assert!(
            cap < NIL16 as usize,
            "combined queue capacity {cap} exceeds the u16 slot-link space"
        );
        assert!(
            banks_per_rank <= 64,
            "{banks_per_rank} banks per rank exceed the 64-bit bank bitmaps"
        );
        assert!(
            ranks * banks_per_rank <= u16::MAX as usize,
            "bank count exceeds the u16 bank-key lane"
        );
        RequestQueues {
            links: Vec::with_capacity(cap),
            meta: Vec::with_capacity(cap),
            ids: Vec::with_capacity(cap),
            row_filter: vec![0; ranks * banks_per_rank * ROW_FILTER_BUCKETS],
            reqs: Vec::with_capacity(cap),
            free: Vec::new(),
            reads: ListHeads::EMPTY,
            writes: ListHeads::EMPTY,
            banks: vec![BankIndex::EMPTY; ranks * banks_per_rank],
            rank_len: vec![0; ranks],
            banks_per_rank,
            read_len: 0,
            write_len: 0,
            cfg,
            mode: DrainMode::ServeReads,
            next_id: 0,
            work_mask: vec![0; ranks],
            open_mask: vec![0; ranks],
            hit_mask: vec![0; ranks],
        }
    }

    /// Banks of rank `r` with queued requests, as a bitmap.
    pub(crate) fn work_mask(&self, r: usize) -> u64 {
        self.work_mask[r]
    }

    /// Banks of rank `r` whose open-row mirror is set, as a bitmap.
    pub(crate) fn open_mask(&self, r: usize) -> u64 {
        self.open_mask[r]
    }

    /// Banks of rank `r` with queued open-row hits, as a bitmap.
    pub(crate) fn hit_mask(&self, r: usize) -> u64 {
        self.hit_mask[r]
    }

    fn key_of(&self, req: &MemoryRequest) -> usize {
        req.addr.rank.index() * self.banks_per_rank + req.addr.bank.index()
    }

    #[inline]
    fn filter_bucket(key: usize, row: u32) -> usize {
        key * ROW_FILTER_BUCKETS + (row as usize & (ROW_FILTER_BUCKETS - 1))
    }

    /// True if a request of `kind` can be accepted this cycle.
    pub fn has_room(&self, kind: RequestKind) -> bool {
        match kind {
            RequestKind::Read => self.read_len < self.cfg.read_queue_capacity,
            RequestKind::Write => self.write_len < self.cfg.write_queue_capacity,
        }
    }

    /// Enqueues a request, assigning its id (the global age counter that
    /// every scheduler's tie-break keys on), threading it onto its
    /// bank's lists — and onto the bank's open-row match list when it
    /// hits — and updates the drain mode.
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full (callers must check
    /// [`has_room`](Self::has_room); the CPU model stalls on full
    /// queues) or if the address lies outside the configured topology.
    pub fn push(&mut self, mut req: MemoryRequest) -> RequestId {
        assert!(self.has_room(req.kind), "queue full: {}", req.kind);
        let id = RequestId(self.next_id);
        self.next_id += 1;
        req.id = id;
        let rank = req.addr.rank.index();
        assert!(
            req.addr.bank.index() < self.banks_per_rank && rank < self.rank_len.len(),
            "request outside topology: {}",
            req
        );
        let key = self.key_of(&req);
        let kind = req.kind;
        let row = req.addr.row;
        self.row_filter[Self::filter_bucket(key, row.raw())] += 1;
        let live = match kind {
            RequestKind::Read => FLAG_LIVE,
            RequestKind::Write => FLAG_LIVE | FLAG_WRITE,
        };
        let meta = SlotMeta {
            row: row.raw(),
            bank_key: key as u16,
            flags: live,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.links[i as usize] = SlotLinks::UNLINKED;
                self.meta[i as usize] = meta;
                self.ids[i as usize] = id.0;
                self.reqs[i as usize] = req;
                i
            }
            None => {
                self.links.push(SlotLinks::UNLINKED);
                self.meta.push(meta);
                self.ids.push(id.0);
                self.reqs.push(req);
                (self.reqs.len() - 1) as u32
            }
        };
        match kind {
            RequestKind::Read => push_back(&mut self.links, &mut self.reads, i, Link::Global),
            RequestKind::Write => push_back(&mut self.links, &mut self.writes, i, Link::Global),
        }
        let b = &mut self.banks[key];
        b.len += 1;
        match kind {
            RequestKind::Read => push_back(&mut self.links, &mut b.reads, i, Link::Bank),
            RequestKind::Write => push_back(&mut self.links, &mut b.writes, i, Link::Bank),
        }
        if b.open_row == Some(row) {
            match kind {
                RequestKind::Read => {
                    push_back(&mut self.links, &mut b.hit_reads, i, Link::Hit);
                    b.hit_read_count += 1;
                }
                RequestKind::Write => {
                    push_back(&mut self.links, &mut b.hit_writes, i, Link::Hit);
                    b.hit_write_count += 1;
                }
            }
            self.meta[i as usize].flags |= FLAG_IN_HIT;
        }
        self.rank_len[rank] += 1;
        let bit = 1u64 << (key - rank * self.banks_per_rank);
        self.work_mask[rank] |= bit;
        if self.meta[i as usize].flags & FLAG_IN_HIT != 0 {
            self.hit_mask[rank] |= bit;
        }
        match kind {
            RequestKind::Read => self.read_len += 1,
            RequestKind::Write => self.write_len += 1,
        }
        self.update_mode();
        id
    }

    /// Removes a completed/issued request. The search walks the dense
    /// `ids` lane only; the payload is read once, for the slot found.
    pub fn remove(&mut self, id: RequestId) -> Option<MemoryRequest> {
        // Search reads then writes — the legacy flat-queue order.
        for head in [self.reads.head, self.writes.head] {
            let mut i = head;
            while i != NIL {
                if self.ids[i as usize] == id.0 {
                    return Some(self.remove_slot(i));
                }
                i = self.links[i as usize].next(Link::Global);
            }
        }
        None
    }

    /// Removes the issued request in `slot` — O(1), no list walk, and
    /// no read of the (by now cache-cold) payload slot: the issue path
    /// already holds the request by value in its candidate, and a
    /// queued request's payload is immutable, so the copy taken at
    /// enumeration is authoritative for every coordinate unthreading
    /// needs. An id mismatch means the slot reference went stale
    /// between enumeration and issue — a controller bug, never a
    /// recoverable condition.
    pub(crate) fn remove_at_issued(&mut self, slot: u32, req: &MemoryRequest) {
        debug_assert_eq!(
            self.ids[slot as usize], req.id.0,
            "stale slot reference in remove_at_issued"
        );
        self.unthread_slot(slot, req.kind, self.key_of(req), req.addr.row);
    }

    fn remove_slot(&mut self, i: u32) -> MemoryRequest {
        let m = self.meta[i as usize];
        let kind = kind_of_flags(m.flags);
        let key = m.bank_key as usize;
        let row = Row::new(m.row);
        self.unthread_slot(i, kind, key, row);
        self.reqs[i as usize]
    }

    /// Unthreads slot `i` from every list and index, given the
    /// coordinates of the request it holds (all available from hot
    /// lanes; the cold payload is never read here).
    fn unthread_slot(&mut self, i: u32, kind: RequestKind, key: usize, row: Row) {
        debug_assert!(
            self.meta[i as usize].flags & FLAG_LIVE != 0,
            "double remove of slot {i}"
        );
        debug_assert_eq!(kind_of_flags(self.meta[i as usize].flags), kind);
        debug_assert_eq!(self.meta[i as usize].bank_key as usize, key);
        let rank = key / self.banks_per_rank;
        self.row_filter[Self::filter_bucket(key, row.raw())] -= 1;
        match kind {
            RequestKind::Read => unlink(&mut self.links, &mut self.reads, i, Link::Global),
            RequestKind::Write => unlink(&mut self.links, &mut self.writes, i, Link::Global),
        }
        let b = &mut self.banks[key];
        b.len -= 1;
        match kind {
            RequestKind::Read => unlink(&mut self.links, &mut b.reads, i, Link::Bank),
            RequestKind::Write => unlink(&mut self.links, &mut b.writes, i, Link::Bank),
        }
        if self.meta[i as usize].flags & FLAG_IN_HIT != 0 {
            match kind {
                RequestKind::Read => {
                    unlink(&mut self.links, &mut b.hit_reads, i, Link::Hit);
                    b.hit_read_count -= 1;
                }
                RequestKind::Write => {
                    unlink(&mut self.links, &mut b.hit_writes, i, Link::Hit);
                    b.hit_write_count -= 1;
                }
            }
        }
        self.rank_len[rank] -= 1;
        let bit = 1u64 << (key - rank * self.banks_per_rank);
        let b = &self.banks[key];
        if b.len == 0 {
            self.work_mask[rank] &= !bit;
        }
        if b.hit_read_count + b.hit_write_count == 0 {
            self.hit_mask[rank] &= !bit;
        }
        match kind {
            RequestKind::Read => self.read_len -= 1,
            RequestKind::Write => self.write_len -= 1,
        }
        self.meta[i as usize].flags = 0;
        self.free.push(i);
        self.update_mode();
    }

    /// Controller notification: an `ACT` opened `row` in (rank, bank).
    /// Rebuilds the bank's open-row match lists in one O(bank
    /// occupancy) pass (age order is inherited from the bank lists).
    /// The walk reads only the `links` and `rows` lanes — dense
    /// 28 bytes per visited slot, independent of payload size.
    pub fn note_row_open(&mut self, rank: Rank, bank: Bank, row: Row) {
        self.note_row_open_hinted(rank, bank, row, NO_SLOT);
    }

    /// [`note_row_open`](Self::note_row_open) with the activating
    /// request's slab slot as a hint. When the counting filter shows the
    /// activator's row bucket holds exactly one entry, the activator is
    /// provably the bank's only row hit and is linked directly in O(1)
    /// — the dominant case under deep queues, where the full-bank walk
    /// per ACT is what made depth 256 droop below depth 64. Any other
    /// bucket count (a true multi-hit or a hash collision) takes the
    /// exact walk, so the result is always identical to the unhinted
    /// rebuild.
    pub(crate) fn note_row_open_hinted(
        &mut self,
        rank: Rank,
        bank: Bank,
        row: Row,
        activator: u32,
    ) {
        let key = rank.index() * self.banks_per_rank + bank.index();
        debug_assert!(
            self.banks[key].open_row.is_none(),
            "row opened over an already-open mirror"
        );
        self.banks[key].open_row = Some(row);
        self.open_mask[rank.index()] |= 1u64 << bank.index();
        let row = row.raw();
        if activator != NO_SLOT && self.row_filter[Self::filter_bucket(key, row)] == 1 {
            debug_assert_eq!(
                self.meta[activator as usize].row, row,
                "stale activator hint"
            );
            debug_assert!(self.meta[activator as usize].flags & FLAG_LIVE != 0);
            debug_assert!(self.meta[activator as usize].flags & FLAG_IN_HIT == 0);
            debug_assert!(
                !self.any_other_request_hits(
                    rank,
                    bank,
                    Row::new(row),
                    RequestId(self.ids[activator as usize])
                ),
                "counting filter claimed a unique hit but another request matches"
            );
            let b = &mut self.banks[key];
            let kind = kind_of_flags(self.meta[activator as usize].flags);
            match kind {
                RequestKind::Read => {
                    push_back(&mut self.links, &mut b.hit_reads, activator, Link::Hit);
                    b.hit_read_count += 1;
                }
                RequestKind::Write => {
                    push_back(&mut self.links, &mut b.hit_writes, activator, Link::Hit);
                    b.hit_write_count += 1;
                }
            }
            self.meta[activator as usize].flags |= FLAG_IN_HIT;
            self.hit_mask[rank.index()] |= 1u64 << bank.index();
            return;
        }
        let b = &mut self.banks[key];
        for kind in [RequestKind::Read, RequestKind::Write] {
            let src = match kind {
                RequestKind::Read => b.reads,
                RequestKind::Write => b.writes,
            };
            let mut cur = src.head;
            while cur != NIL {
                let next = self.links[cur as usize].next(Link::Bank);
                if self.meta[cur as usize].row == row {
                    debug_assert!(self.meta[cur as usize].flags & FLAG_IN_HIT == 0);
                    match kind {
                        RequestKind::Read => {
                            push_back(&mut self.links, &mut b.hit_reads, cur, Link::Hit);
                            b.hit_read_count += 1;
                        }
                        RequestKind::Write => {
                            push_back(&mut self.links, &mut b.hit_writes, cur, Link::Hit);
                            b.hit_write_count += 1;
                        }
                    }
                    self.meta[cur as usize].flags |= FLAG_IN_HIT;
                }
                cur = next;
            }
        }
        let b = &self.banks[key];
        if b.hit_read_count + b.hit_write_count > 0 {
            self.hit_mask[rank.index()] |= 1u64 << bank.index();
        }
    }

    /// Controller notification: (rank, bank)'s row buffer closed (PRE,
    /// auto-precharge, or a refresh-path close). Clears the match index.
    pub fn note_row_close(&mut self, rank: Rank, bank: Bank) {
        let key = rank.index() * self.banks_per_rank + bank.index();
        let b = &mut self.banks[key];
        b.open_row = None;
        for head in [b.hit_reads.head, b.hit_writes.head] {
            let mut cur = head;
            while cur != NIL {
                self.meta[cur as usize].flags &= !FLAG_IN_HIT;
                cur = self.links[cur as usize].next(Link::Hit);
            }
        }
        b.hit_reads = ListHeads::EMPTY;
        b.hit_writes = ListHeads::EMPTY;
        b.hit_read_count = 0;
        b.hit_write_count = 0;
        let bit = !(1u64 << bank.index());
        self.open_mask[rank.index()] &= bit;
        self.hit_mask[rank.index()] &= bit;
    }

    fn update_mode(&mut self) {
        let wq = self.write_len;
        if wq > self.cfg.write_high_watermark {
            self.mode = DrainMode::DrainWrites;
        } else if wq < self.cfg.write_low_watermark {
            self.mode = DrainMode::ServeReads;
        }
        // Between the watermarks: keep the previous mode (hysteresis).
    }

    /// Current Element-1 hysteresis state.
    pub fn mode(&self) -> DrainMode {
        self.mode
    }

    fn list_iter(&self, head: u32, link: Link) -> ListIter<'_> {
        ListIter {
            links: &self.links,
            reqs: &self.reqs,
            cur: head,
            link,
        }
    }

    /// All queued requests (reads then writes, each in arrival order) —
    /// the flat-scan order, kept for diagnostics and the reference
    /// controller.
    pub fn iter(&self) -> impl Iterator<Item = &MemoryRequest> {
        self.iter_slots().map(|(_, req)| req)
    }

    /// [`iter`](Self::iter), yielding each request's slab slot too (the
    /// reference controller's issue path removes by slot, like the
    /// production one).
    pub(crate) fn iter_slots(&self) -> impl Iterator<Item = (u32, &MemoryRequest)> {
        let slots = |head| SlotIter {
            links: &self.links,
            reqs: &self.reqs,
            cur: head,
            link: Link::Global,
        };
        slots(self.reads.head).chain(slots(self.writes.head))
    }

    /// Number of bank sub-queues (`ranks × banks_per_rank`).
    pub(crate) fn total_banks(&self) -> usize {
        self.banks.len()
    }

    /// Queued requests in bank `key` (counting both kinds).
    pub(crate) fn bank_len(&self, key: usize) -> u32 {
        self.banks[key].len
    }

    /// Queued requests targeting rank `r`.
    pub(crate) fn rank_len(&self, r: usize) -> u32 {
        self.rank_len[r]
    }

    /// Bank `key`'s requests: reads then writes, each in age order —
    /// the same relative order the flat scan visited them in.
    pub(crate) fn bank_requests(&self, key: usize) -> impl Iterator<Item = &MemoryRequest> {
        let b = &self.banks[key];
        self.list_iter(b.reads.head, Link::Bank)
            .chain(self.list_iter(b.writes.head, Link::Bank))
    }

    /// Bank `key`'s oldest request, preferring reads over writes (the
    /// flat scan's first visit to the bank).
    pub(crate) fn bank_head(&self, key: usize) -> Option<&MemoryRequest> {
        self.bank_requests(key).next()
    }

    /// [`bank_requests`](Self::bank_requests) but yielding each
    /// request's slab slot too, so an activate candidate can carry its
    /// slot through issue as the `note_row_open` hint.
    pub(crate) fn bank_requests_slots(
        &self,
        key: usize,
    ) -> impl Iterator<Item = (u32, &MemoryRequest)> {
        let b = &self.banks[key];
        let slots = |head| SlotIter {
            links: &self.links,
            reqs: &self.reqs,
            cur: head,
            link: Link::Bank,
        };
        slots(b.reads.head).chain(slots(b.writes.head))
    }

    /// Bank `key`'s open-row matches of one kind, age order, each with
    /// its slab slot (for O(1) removal of the issued request via
    /// `remove_at_issued`).
    pub(crate) fn bank_hits_slots(&self, key: usize, kind: RequestKind) -> SlotIter<'_> {
        let b = &self.banks[key];
        let head = match kind {
            RequestKind::Read => b.hit_reads.head,
            RequestKind::Write => b.hit_writes.head,
        };
        SlotIter {
            links: &self.links,
            reqs: &self.reqs,
            cur: head,
            link: Link::Hit,
        }
    }

    /// Bank `key`'s open-row match counts `(reads, writes)`.
    pub(crate) fn hit_counts(&self, key: usize) -> (u32, u32) {
        let b = &self.banks[key];
        (b.hit_read_count, b.hit_write_count)
    }

    /// The mirrored open row of bank `key` (diagnostics/assertions).
    pub(crate) fn open_row_mirror(&self, key: usize) -> Option<Row> {
        self.banks[key].open_row
    }

    /// Occupancy `(reads, writes)`.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.read_len, self.write_len)
    }

    /// True when both queues are empty.
    pub fn is_empty(&self) -> bool {
        self.read_len + self.write_len == 0
    }

    /// True if any queued request (of either kind) targets `row` in the
    /// given bank — used to guard precharges of useful rows. Walks the
    /// bank lists over the dense `rows` lane only.
    pub fn any_request_hits(&self, rank: Rank, bank: Bank, row: Row) -> bool {
        let key = rank.index() * self.banks_per_rank + bank.index();
        let b = &self.banks[key];
        let row = row.raw();
        for head in [b.reads.head, b.writes.head] {
            let mut cur = head;
            while cur != NIL {
                if self.meta[cur as usize].row == row {
                    return true;
                }
                cur = self.links[cur as usize].next(Link::Bank);
            }
        }
        false
    }

    /// Like [`any_request_hits`](Self::any_request_hits) but ignoring
    /// request `except` — used by close-page auto-precharge decisions,
    /// where the request being issued should not count as its own
    /// pending hit.
    pub fn any_other_request_hits(
        &self,
        rank: Rank,
        bank: Bank,
        row: Row,
        except: RequestId,
    ) -> bool {
        let key = rank.index() * self.banks_per_rank + bank.index();
        let b = &self.banks[key];
        let row = row.raw();
        for head in [b.reads.head, b.writes.head] {
            let mut cur = head;
            while cur != NIL {
                if self.meta[cur as usize].row == row && self.ids[cur as usize] != except.0 {
                    return true;
                }
                cur = self.links[cur as usize].next(Link::Bank);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::{Bank, Channel, Col, DecodedAddr, McCycle, Rank, Row};

    fn mk(kind: RequestKind, row: u32) -> MemoryRequest {
        mk_at(kind, row, 0)
    }

    fn mk_at(kind: RequestKind, row: u32, bank: u32) -> MemoryRequest {
        MemoryRequest {
            id: RequestId(0),
            core: 0,
            kind,
            addr: DecodedAddr {
                channel: Channel::new(0),
                rank: Rank::new(0),
                bank: Bank::new(bank),
                row: Row::new(row),
                col: Col::new(0),
            },
            arrival: McCycle::ZERO,
        }
    }

    fn queues() -> RequestQueues {
        RequestQueues::new(ControllerConfig::default(), 1, 8)
    }

    #[test]
    fn push_assigns_monotone_ids() {
        let mut q = queues();
        let a = q.push(mk(RequestKind::Read, 0));
        let b = q.push(mk(RequestKind::Write, 1));
        assert!(b > a);
        assert_eq!(q.occupancy(), (1, 1));
    }

    #[test]
    fn drain_mode_hysteresis_matches_fig13() {
        let mut q = queues();
        assert_eq!(q.mode(), DrainMode::ServeReads);
        // Fill to HW (40): still read mode until we *exceed* HW.
        let ids: Vec<_> = (0..41).map(|i| q.push(mk(RequestKind::Write, i))).collect();
        assert_eq!(q.mode(), DrainMode::DrainWrites);
        // Draining back into the hysteresis band keeps drain mode.
        for id in ids.iter().take(15) {
            q.remove(*id);
        }
        assert_eq!(q.occupancy().1, 26);
        assert_eq!(q.mode(), DrainMode::DrainWrites);
        // Falling below LW (20) flips back to reads.
        for id in ids.iter().skip(15).take(7) {
            q.remove(*id);
        }
        assert_eq!(q.occupancy().1, 19);
        assert_eq!(q.mode(), DrainMode::ServeReads);
        // Climbing back into the band keeps read mode (path 2).
        for i in 0..10 {
            q.push(mk(RequestKind::Write, 100 + i));
        }
        assert_eq!(q.mode(), DrainMode::ServeReads);
    }

    #[test]
    fn remove_unknown_id_is_none() {
        let mut q = queues();
        assert_eq!(q.remove(RequestId(99)), None);
    }

    #[test]
    fn hit_detection_covers_both_queues() {
        let mut q = queues();
        q.push(mk(RequestKind::Read, 5));
        q.push(mk(RequestKind::Write, 9));
        let (rank, bank) = (Rank::new(0), Bank::new(0));
        assert!(q.any_request_hits(rank, bank, Row::new(5)));
        assert!(q.any_request_hits(rank, bank, Row::new(9)));
        assert!(!q.any_request_hits(rank, bank, Row::new(6)));
    }

    #[test]
    #[should_panic(expected = "queue full")]
    fn push_to_full_queue_panics() {
        let mut q = queues();
        for i in 0..=64 {
            q.push(mk(RequestKind::Read, i));
        }
    }

    #[test]
    fn bank_lists_preserve_age_order_across_banks() {
        let mut q = queues();
        // Interleave two banks; each bank list must stay age-ordered
        // and the global iteration must stay reads-then-writes by age.
        q.push(mk_at(RequestKind::Read, 1, 0));
        q.push(mk_at(RequestKind::Read, 2, 3));
        q.push(mk_at(RequestKind::Write, 3, 0));
        q.push(mk_at(RequestKind::Read, 4, 0));
        q.push(mk_at(RequestKind::Write, 5, 3));
        let bank0: Vec<u32> = q.bank_requests(0).map(|r| r.addr.row.raw()).collect();
        assert_eq!(bank0, vec![1, 4, 3], "reads by age, then writes by age");
        let bank3: Vec<u32> = q.bank_requests(3).map(|r| r.addr.row.raw()).collect();
        assert_eq!(bank3, vec![2, 5]);
        let global: Vec<u32> = q.iter().map(|r| r.addr.row.raw()).collect();
        assert_eq!(global, vec![1, 2, 4, 3, 5]);
        assert_eq!(q.bank_len(0), 3);
        assert_eq!(q.bank_len(3), 2);
        assert_eq!(q.rank_len(0), 5);
        assert_eq!(q.bank_head(0).unwrap().addr.row.raw(), 1);
    }

    #[test]
    fn open_row_match_index_tracks_enqueue_remove_and_row_changes() {
        let mut q = queues();
        let (rank, bank) = (Rank::new(0), Bank::new(0));
        let a = q.push(mk(RequestKind::Read, 7));
        q.push(mk(RequestKind::Read, 8));
        assert_eq!(q.hit_counts(0), (0, 0), "no row open yet");
        // Row 7 opens: the matching read is indexed.
        q.note_row_open(rank, bank, Row::new(7));
        assert_eq!(q.hit_counts(0), (1, 0));
        assert_eq!(q.bank_hits_slots(0, RequestKind::Read).count(), 1);
        // A late-arriving hit (either kind) is appended incrementally.
        q.push(mk(RequestKind::Write, 7));
        let c = q.push(mk(RequestKind::Read, 7));
        assert_eq!(q.hit_counts(0), (2, 1));
        let hit_rows: Vec<_> = q
            .bank_hits_slots(0, RequestKind::Read)
            .map(|(_, r)| r.id)
            .collect();
        assert_eq!(hit_rows, vec![a, c], "match list stays age-ordered");
        // Removing an indexed request unthreads it from the match list.
        q.remove(a);
        assert_eq!(q.hit_counts(0), (1, 1));
        // Closing the row clears the index; reopening a different row
        // rebuilds it from scratch.
        q.note_row_close(rank, bank);
        assert_eq!(q.hit_counts(0), (0, 0));
        q.note_row_open(rank, bank, Row::new(8));
        assert_eq!(q.hit_counts(0), (1, 0));
        assert_eq!(
            q.bank_hits_slots(0, RequestKind::Read)
                .next()
                .unwrap()
                .1
                .addr
                .row
                .raw(),
            8
        );
    }

    #[test]
    fn hinted_row_open_matches_unhinted_rebuild() {
        let mut q = queues();
        let (rank, bank) = (Rank::new(0), Bank::new(0));
        // Fast path: the activator's bucket holds only itself.
        q.push(mk(RequestKind::Read, 5)); // slot 0
        q.push(mk(RequestKind::Write, 9)); // slot 1
        q.note_row_open_hinted(rank, bank, Row::new(5), 0);
        assert_eq!(q.hit_counts(0), (1, 0));
        assert_eq!(q.bank_hits_slots(0, RequestKind::Read).next().unwrap().0, 0);
        q.note_row_close(rank, bank);
        // Bucket collision (rows 9 and 9 + ROW_FILTER_BUCKETS hash
        // alike): the filter reads 2, so the exact walk runs and still
        // indexes only the single true hit.
        q.push(mk(RequestKind::Read, 9 + ROW_FILTER_BUCKETS as u32)); // slot 2
        q.note_row_open_hinted(rank, bank, Row::new(9), 1);
        assert_eq!(q.hit_counts(0), (0, 1));
        q.note_row_close(rank, bank);
        // A genuine multi-hit also walks: both same-row requests land
        // in the match lists, not just the activator.
        q.push(mk(RequestKind::Write, 5)); // slot 3
        q.note_row_open_hinted(rank, bank, Row::new(5), 0);
        assert_eq!(q.hit_counts(0), (1, 1));
        // No hint (direct note_row_open users) always walks.
        q.note_row_close(rank, bank);
        q.note_row_open(rank, bank, Row::new(5));
        assert_eq!(q.hit_counts(0), (1, 1));
    }

    #[test]
    fn slots_are_recycled_without_breaking_order() {
        let mut q = queues();
        let ids: Vec<_> = (0..8)
            .map(|i| q.push(mk_at(RequestKind::Read, i, i % 4)))
            .collect();
        for id in ids.iter().take(4) {
            q.remove(*id);
        }
        // New pushes reuse freed slots; age order must still hold.
        for i in 0..4 {
            q.push(mk_at(RequestKind::Read, 100 + i, 0));
        }
        let rows: Vec<u32> = q.iter().map(|r| r.addr.row.raw()).collect();
        assert_eq!(rows, vec![4, 5, 6, 7, 100, 101, 102, 103]);
        assert_eq!(q.occupancy(), (8, 0));
        assert_eq!(q.total_banks(), 8);
    }

    #[test]
    fn row_lane_mirrors_payload_rows() {
        // The dense row lane used by match rebuilds must track the
        // payload through pushes, removals and slot recycling.
        let mut q = queues();
        let ids: Vec<_> = (0..6)
            .map(|i| q.push(mk_at(RequestKind::Read, 10 + i, i % 2)))
            .collect();
        q.remove(ids[1]);
        q.remove(ids[4]);
        q.push(mk_at(RequestKind::Write, 99, 0));
        for r in q.iter() {
            let key = r.addr.bank.index();
            assert!(q.any_request_hits(Rank::new(0), Bank::new(key as u32), r.addr.row));
        }
    }
}
