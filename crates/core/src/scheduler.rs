//! Scheduling policies: FCFS, FR-FCFS (open/close page) and NUAT.
//!
//! All policies share the controller's candidate enumeration and differ
//! only in three decisions:
//!
//! 1. which issuable candidate to pick (`choose`),
//! 2. what activation timings an `ACT` promises (`act_timings` — NUAT
//!    uses the per-PB table, baselines use the data-sheet worst case),
//! 3. whether a column access auto-precharges (`auto_precharge` — the
//!    page-mode policy; NUAT delegates to PPM).
//!
//! The paper's observation that NUAT degenerates to FR-FCFS when only
//! Elements 1–3 are active (§7.2/§8) holds structurally here: the NUAT
//! policy with [`NuatWeights::frfcfs`] weights makes the same choices as
//! [`FrFcfsPolicy`] up to tie-breaking, which is tested in the
//! integration suite.

use crate::candidate::{Candidate, CandidateKind};
use crate::pbr::PbrAcquisition;
use crate::phrc::PseudoHitRate;
use crate::ppm::{PageMode, PpmDecisionMaker};
use crate::queues::DrainMode;
use crate::request::{MemoryRequest, RequestKind};
use crate::table::{NuatTable, NuatWeights};
use nuat_types::{DramTimings, McCycle, Row, RowTimings};
use std::fmt;

/// Read-only context handed to a policy each cycle.
#[derive(Debug)]
pub struct PolicyView<'a> {
    /// Current controller cycle.
    pub now: McCycle,
    /// Element-1 hysteresis state.
    pub mode: DrainMode,
    /// Last refreshed row address per rank.
    pub lrras: &'a [Row],
    /// The PBR acquisition block (grouping + timings).
    pub pbr: &'a PbrAcquisition,
}

/// A memory-scheduling policy. See the module docs.
///
/// `Send` is a supertrait so a controller, which owns its policy boxed,
/// stays `Send`, and with it a whole simulation: one can be built on one
/// thread and run on another. `parallel_map` runs whole simulations on
/// its workers; nothing splits one simulation across threads. Policies
/// hold only plain per-channel state.
pub trait SchedulerPolicy: fmt::Debug + Send {
    /// Short policy name for reports (e.g. `"NUAT"`).
    fn name(&self) -> &'static str;

    /// Activation timings to promise for `req`'s row.
    fn act_timings(&self, view: &PolicyView<'_>, req: &MemoryRequest) -> RowTimings;

    /// Whether a column access for `req` should auto-precharge.
    fn auto_precharge(&self, view: &PolicyView<'_>, req: &MemoryRequest) -> bool;

    /// If true, a close-page decision is overridden while another
    /// queued request still hits the row (hit preservation). This is
    /// USIMM's close-page semantics — the paper's close-page baseline
    /// still achieves nonzero hit rates (§9.1 reports an average
    /// open-vs-close hit-rate gap of only 0.08) — so it defaults on for
    /// every policy.
    fn preserve_pending_hits(&self) -> bool {
        true
    }

    /// Picks the index of the candidate to issue, if any.
    ///
    /// **Order contract:** the slice order is an implementation detail
    /// of the controller's enumeration (today: bank-indexed, grouped by
    /// (rank, bank) rather than global age) and may change between
    /// releases. A policy's *selection* must therefore be a function of
    /// the candidate **set** alone: any scoring tie must be broken by a
    /// total order over candidate contents — all built-in policies use
    /// `(arrival, id)`, and `RequestId` is a globally unique, monotone
    /// age stamp — never by slice position. Policies honouring this are
    /// bit-identical under any enumeration order; the
    /// `indexed_enum_equals_linear_scan` proptest feeds both historic
    /// orderings through `choose` to enforce it.
    ///
    /// **Slate contract:** a non-empty slate must yield `Some` — every
    /// candidate is already device-legal this cycle, so "issue
    /// nothing" is never a better schedule than the policy's argmin.
    /// The controller relies on this to skip the call outright on
    /// trivial slates (empty ⇒ `None`, singleton ⇒ `Some(0)`).
    fn choose(&mut self, view: &PolicyView<'_>, cands: &[Candidate]) -> Option<usize>;

    /// Called once per controller cycle (before `choose`).
    fn on_cycle(&mut self) {}

    /// Tells the policy the channel topology it will run under, so it
    /// can size flat per-bank state up front. Called once by the
    /// controller before the first cycle; the default keeps policies
    /// without per-bank state oblivious.
    fn bind_topology(&mut self, _ranks: usize, _banks_per_rank: usize) {}

    /// Advances the policy over `n` dead cycles at once — cycles in
    /// which `choose` would never have been called: either truly idle
    /// (no queued requests) or a busy-period span in which no command
    /// can become legal (event-driven skipping). Must be equivalent to
    /// calling [`on_cycle`](Self::on_cycle) `n` times; policies with
    /// cheap window arithmetic (NUAT's PHRC) override this to roll whole
    /// sub-windows in O(windows) instead of O(cycles).
    fn on_idle_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.on_cycle();
        }
    }

    /// True (the default) if, among candidates carrying the *identical*
    /// command (same bank, row, column kind and auto-precharge flag),
    /// this policy never picks one whose request arrived later. All
    /// built-in policies qualify: their scores are monotone in request
    /// age and break ties oldest-first. The controller then offers only
    /// the oldest of each duplicate group, sparing a legality probe and
    /// a score evaluation per duplicate per cycle. Override to `false`
    /// for experimental policies that prioritize younger requests.
    fn prefers_oldest_equal_command(&self) -> bool {
        true
    }

    /// Called when a candidate has been issued.
    fn observe_issue(&mut self, _cand: &Candidate) {}

    /// The policy's internal hit-rate estimate, if it keeps one (NUAT's
    /// PHRC; used by the Fig. 19 analysis).
    fn pseudo_hit_rate(&self) -> Option<f64> {
        None
    }
}

/// Which policy to build (the experiment axis of the paper's Figs. 18–22).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// First-come-first-served (head-of-line, with write-drain).
    Fcfs,
    /// FR-FCFS keeping rows open.
    FrFcfsOpen,
    /// FR-FCFS with auto-precharge on every column access.
    FrFcfsClose,
    /// The paper's NUAT (Table 4 weights, PPM page mode).
    Nuat,
    /// NUAT with custom weights (for ablations).
    NuatWithWeights(NuatWeights),
    /// NUAT with PPM replaced by a fixed page mode (ablation).
    NuatFixedPage(PageMode),
    /// Fully custom: weights and a fixed page mode (ablation grid).
    NuatAblation {
        /// Table weights.
        weights: NuatWeights,
        /// Fixed page mode replacing PPM.
        page: PageMode,
    },
}

impl SchedulerKind {
    /// Instantiates the policy for a system whose PBR block is `pbr`
    /// (the grouping supplies PPM thresholds and `#D`).
    pub fn build(self, pbr: &PbrAcquisition, timings: &DramTimings) -> Box<dyn SchedulerPolicy> {
        let worst = timings.worst_case_row();
        match self {
            SchedulerKind::Fcfs => Box::new(FcfsPolicy { worst }),
            SchedulerKind::FrFcfsOpen => Box::new(FrFcfsPolicy {
                worst,
                close_page: false,
            }),
            SchedulerKind::FrFcfsClose => Box::new(FrFcfsPolicy {
                worst,
                close_page: true,
            }),
            SchedulerKind::Nuat => Box::new(NuatPolicy::new(
                NuatWeights::default(),
                pbr,
                timings,
                PageModeSource::Ppm,
            )),
            SchedulerKind::NuatWithWeights(w) => {
                Box::new(NuatPolicy::new(w, pbr, timings, PageModeSource::Ppm))
            }
            SchedulerKind::NuatFixedPage(mode) => Box::new(NuatPolicy::new(
                NuatWeights::default(),
                pbr,
                timings,
                PageModeSource::Fixed(mode),
            )),
            SchedulerKind::NuatAblation { weights, page } => Box::new(NuatPolicy::new(
                weights,
                pbr,
                timings,
                PageModeSource::Fixed(page),
            )),
        }
    }

    /// Display name without building the policy.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfsOpen => "FR-FCFS(open)",
            SchedulerKind::FrFcfsClose => "FR-FCFS(close)",
            SchedulerKind::Nuat => "NUAT",
            SchedulerKind::NuatWithWeights(_) => "NUAT(custom)",
            SchedulerKind::NuatFixedPage(PageMode::Open) => "NUAT(open)",
            SchedulerKind::NuatFixedPage(PageMode::Close) => "NUAT(close)",
            SchedulerKind::NuatAblation { .. } => "NUAT(ablation)",
        }
    }
}

fn favored(req: &MemoryRequest, mode: DrainMode) -> bool {
    match mode {
        DrainMode::ServeReads => req.kind == RequestKind::Read,
        DrainMode::DrainWrites => req.kind == RequestKind::Write,
    }
}

// ----------------------------------------------------------------------
// FCFS
// ----------------------------------------------------------------------

/// Strict arrival-order scheduling (within the read/write drain split).
#[derive(Debug)]
pub struct FcfsPolicy {
    worst: RowTimings,
}

impl SchedulerPolicy for FcfsPolicy {
    fn name(&self) -> &'static str {
        "FCFS"
    }

    fn act_timings(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> RowTimings {
        self.worst
    }

    fn auto_precharge(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> bool {
        false
    }

    fn choose(&mut self, view: &PolicyView<'_>, cands: &[Candidate]) -> Option<usize> {
        // Oldest favored request wins regardless of readiness class.
        // Single pass, one key evaluation per candidate.
        argmin_by_key(cands, |c| {
            (
                !favored(&c.request, view.mode),
                c.request.arrival,
                c.request.id,
            )
        })
    }
}

/// Index of the candidate with the smallest key; ties keep the first
/// occurrence (the same element `Iterator::min_by_key` returns). One key
/// evaluation per candidate, no intermediate collection.
fn argmin_by_key<K: Ord>(
    cands: &[Candidate],
    mut key: impl FnMut(&Candidate) -> K,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, c) in cands.iter().enumerate() {
        let k = key(c);
        match &best {
            Some((_, bk)) if *bk <= k => {}
            _ => best = Some((i, k)),
        }
    }
    best.map(|(i, _)| i)
}

// ----------------------------------------------------------------------
// FR-FCFS
// ----------------------------------------------------------------------

/// First-ready FCFS: column hits first, then oldest activations.
#[derive(Debug)]
pub struct FrFcfsPolicy {
    worst: RowTimings,
    close_page: bool,
}

impl SchedulerPolicy for FrFcfsPolicy {
    fn name(&self) -> &'static str {
        if self.close_page {
            "FR-FCFS(close)"
        } else {
            "FR-FCFS(open)"
        }
    }

    fn act_timings(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> RowTimings {
        self.worst
    }

    fn auto_precharge(&self, _: &PolicyView<'_>, _: &MemoryRequest) -> bool {
        self.close_page
    }

    fn choose(&mut self, view: &PolicyView<'_>, cands: &[Candidate]) -> Option<usize> {
        let class = |c: &Candidate| match c.kind {
            CandidateKind::Column => 0u8,
            CandidateKind::Activate => 1,
            CandidateKind::Precharge => 2,
        };
        argmin_by_key(cands, |c| {
            (
                !favored(&c.request, view.mode),
                class(c),
                c.request.arrival,
                c.request.id,
            )
        })
    }
}

// ----------------------------------------------------------------------
// NUAT
// ----------------------------------------------------------------------

/// Where the page-mode decision comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PageModeSource {
    /// The paper's PPM decision maker.
    Ppm,
    /// A fixed mode (ablation).
    Fixed(PageMode),
}

/// The NUAT policy: scoring table + PBR timings + PPM page mode + PHRC.
///
/// PHRC is fed with *potential* row-buffer hits: a column access counts
/// as a hit when its row matches the last row accessed in that bank,
/// regardless of whether the page policy actually kept the row open.
/// Feeding achieved hits instead creates a trap: once PPM selects
/// close-page, every access pays an activation, the measured hit rate
/// pins to zero, and the policy can never switch back to open-page.
#[derive(Debug)]
pub struct NuatPolicy {
    table: NuatTable,
    ppm: PpmDecisionMaker,
    phrc: PseudoHitRate,
    page_source: PageModeSource,
    use_pb_timings: bool,
    /// Last row accessed per bank, flat-indexed as
    /// `rank * banks_per_rank + bank`, for potential-hit tracking.
    /// Sized by [`bind_topology`](SchedulerPolicy::bind_topology); grows
    /// on demand for callers that drive the policy directly.
    last_rows: Vec<Option<Row>>,
    banks_per_rank: usize,
    /// Per-`choose` score scratch, reused across cycles so the hot path
    /// never allocates.
    scores: Vec<i64>,
}

impl NuatPolicy {
    fn new(
        weights: NuatWeights,
        pbr: &PbrAcquisition,
        timings: &DramTimings,
        page_source: PageModeSource,
    ) -> Self {
        NuatPolicy {
            table: NuatTable::new(weights, pbr.n_pb()),
            ppm: PpmDecisionMaker::new(pbr, timings.trp),
            phrc: PseudoHitRate::default(),
            page_source,
            use_pb_timings: true,
            last_rows: Vec::new(),
            banks_per_rank: 0,
            scores: Vec::new(),
        }
    }

    /// The current pseudo hit-rate estimate (exposed for stats).
    pub fn pseudo_hit_rate(&self) -> f64 {
        self.phrc.hit_rate()
    }

    fn bank_slot(&mut self, rank: u32, bank: u32) -> &mut Option<Row> {
        // Fall back to a per-rank stride wide enough for this bank when
        // the controller never bound a topology (direct policy use).
        if self.banks_per_rank <= bank as usize {
            self.banks_per_rank = bank as usize + 1;
            self.last_rows.clear();
        }
        let idx = rank as usize * self.banks_per_rank + bank as usize;
        if self.last_rows.len() <= idx {
            self.last_rows.resize(idx + 1, None);
        }
        &mut self.last_rows[idx]
    }
}

impl SchedulerPolicy for NuatPolicy {
    fn name(&self) -> &'static str {
        "NUAT"
    }

    fn act_timings(&self, view: &PolicyView<'_>, req: &MemoryRequest) -> RowTimings {
        if self.use_pb_timings {
            view.pbr
                .timings(view.lrras[req.addr.rank.index()], req.addr.row)
        } else {
            view.pbr.grouping().timings(view.pbr.grouping().last_pb())
        }
    }

    fn auto_precharge(&self, view: &PolicyView<'_>, req: &MemoryRequest) -> bool {
        let mode = match self.page_source {
            PageModeSource::Fixed(m) => m,
            PageModeSource::Ppm => {
                let pb = view.pbr.pb(view.lrras[req.addr.rank.index()], req.addr.row);
                self.ppm.mode(pb, self.phrc.hit_rate())
            }
        };
        mode == PageMode::Close
    }

    fn choose(&mut self, view: &PolicyView<'_>, cands: &[Candidate]) -> Option<usize> {
        // Score every candidate exactly once into the reusable scratch
        // slice, then take a single-pass maximum. The old `max_by`
        // version re-scored both sides of every comparison (2(n−1)
        // table evaluations per cycle instead of n).
        let (table, scores) = (&self.table, &mut self.scores);
        scores.clear();
        scores.extend(cands.iter().map(|c| table.score(c, view.mode, view.now)));
        let mut best: Option<usize> = None;
        for (i, c) in cands.iter().enumerate() {
            let better = match best {
                None => true,
                Some(b) => {
                    let bc = &cands[b];
                    scores[i]
                        .cmp(&scores[b])
                        // Ties: oldest request, then lowest id (older /
                        // lower must compare greater to win the max).
                        .then(bc.request.arrival.cmp(&c.request.arrival))
                        .then(bc.request.id.cmp(&c.request.id))
                        .is_gt()
                }
            };
            if better {
                best = Some(i);
            }
        }
        best
    }

    fn pseudo_hit_rate(&self) -> Option<f64> {
        Some(self.phrc.hit_rate())
    }

    fn on_cycle(&mut self) {
        self.phrc.tick();
    }

    fn on_idle_cycles(&mut self, n: u64) {
        self.phrc.advance_idle(n);
    }

    fn bind_topology(&mut self, ranks: usize, banks_per_rank: usize) {
        self.banks_per_rank = banks_per_rank;
        self.last_rows.clear();
        self.last_rows.resize(ranks * banks_per_rank, None);
    }

    fn observe_issue(&mut self, cand: &Candidate) {
        if cand.kind != CandidateKind::Column {
            return;
        }
        // Potential-hit accounting (see the struct docs).
        let row = cand.request.addr.row;
        let slot = self.bank_slot(cand.request.addr.rank.raw(), cand.request.addr.bank.raw());
        let was_hit = slot.replace(row) == Some(row);
        self.phrc.observe_column();
        if !was_hit {
            self.phrc.observe_activation();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbr::BoundaryZone;
    use crate::request::RequestId;
    use nuat_circuit::PbId;
    use nuat_dram::DramCommand;
    use nuat_types::{Bank, Channel, Col, DecodedAddr, Rank};

    fn pbr() -> PbrAcquisition {
        PbrAcquisition::paper_default()
    }

    fn req(id: u64, kind: RequestKind, row: u32, arrival: u64) -> MemoryRequest {
        MemoryRequest {
            id: RequestId(id),
            core: 0,
            kind,
            addr: DecodedAddr {
                channel: Channel::new(0),
                rank: Rank::new(0),
                bank: Bank::new(0),
                row: Row::new(row),
                col: Col::new(0),
            },
            arrival: McCycle::new(arrival),
        }
    }

    fn cand(r: MemoryRequest, kind: CandidateKind, pb: u8, zone: BoundaryZone) -> Candidate {
        let command = match kind {
            CandidateKind::Activate => DramCommand::activate_worst_case(
                r.addr.rank,
                r.addr.bank,
                r.addr.row,
                &DramTimings::default(),
            ),
            CandidateKind::Column => DramCommand::Read {
                rank: r.addr.rank,
                bank: r.addr.bank,
                col: r.addr.col,
                auto_precharge: false,
            },
            CandidateKind::Precharge => DramCommand::Precharge {
                rank: r.addr.rank,
                bank: r.addr.bank,
            },
        };
        Candidate {
            request: r,
            command,
            kind,
            pb: PbId(pb),
            zone,
        }
    }

    fn view<'a>(lrras: &'a [Row], pbr: &'a PbrAcquisition) -> PolicyView<'a> {
        PolicyView {
            now: McCycle::new(100),
            mode: DrainMode::ServeReads,
            lrras,
            pbr,
        }
    }

    #[test]
    fn frfcfs_prefers_hits_then_oldest() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = FrFcfsPolicy {
            worst: RowTimings::new(12, 30, 12),
            close_page: false,
        };
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 0),
                CandidateKind::Activate,
                0,
                BoundaryZone::Stable,
            ),
            cand(
                req(1, RequestKind::Read, 2, 5),
                CandidateKind::Column,
                0,
                BoundaryZone::Stable,
            ),
            cand(
                req(2, RequestKind::Read, 3, 1),
                CandidateKind::Column,
                0,
                BoundaryZone::Stable,
            ),
        ];
        // Column beats older activate; oldest column wins.
        assert_eq!(pol.choose(&v, &cands), Some(2));
    }

    #[test]
    fn frfcfs_prefers_reads_in_read_mode() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = FrFcfsPolicy {
            worst: RowTimings::new(12, 30, 12),
            close_page: false,
        };
        let cands = vec![
            cand(
                req(0, RequestKind::Write, 1, 0),
                CandidateKind::Column,
                0,
                BoundaryZone::Stable,
            ),
            cand(
                req(1, RequestKind::Read, 2, 50),
                CandidateKind::Activate,
                0,
                BoundaryZone::Stable,
            ),
        ];
        // A mere activate for a read beats a write column hit in read mode.
        assert_eq!(pol.choose(&v, &cands), Some(1));
    }

    #[test]
    fn fcfs_is_strict_arrival_order() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = FcfsPolicy {
            worst: RowTimings::new(12, 30, 12),
        };
        let cands = vec![
            cand(
                req(5, RequestKind::Read, 1, 9),
                CandidateKind::Column,
                0,
                BoundaryZone::Stable,
            ),
            cand(
                req(3, RequestKind::Read, 2, 2),
                CandidateKind::Activate,
                0,
                BoundaryZone::Stable,
            ),
        ];
        assert_eq!(
            pol.choose(&v, &cands),
            Some(1),
            "older activate beats newer hit"
        );
    }

    #[test]
    fn nuat_act_timings_follow_pb() {
        let p = pbr();
        let lrras = [Row::new(1000)];
        let v = view(&lrras, &p);
        let pol = SchedulerKind::Nuat.build(&p, &DramTimings::default());
        // Row 1000 == LRRA -> PB0 -> 8/22/34.
        let fresh = req(0, RequestKind::Read, 1000, 0);
        assert_eq!(pol.act_timings(&v, &fresh), RowTimings::new(8, 22, 12));
        // Row 1001 -> PB4 -> worst case.
        let stale = req(1, RequestKind::Read, 1001, 0);
        assert_eq!(pol.act_timings(&v, &stale), RowTimings::new(12, 30, 12));
    }

    #[test]
    fn nuat_prefers_faster_pb_activations() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = NuatPolicy::new(
            NuatWeights::default(),
            &p,
            &DramTimings::default(),
            PageModeSource::Ppm,
        );
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 0),
                CandidateKind::Activate,
                4,
                BoundaryZone::Stable,
            ),
            cand(
                req(1, RequestKind::Read, 2, 5),
                CandidateKind::Activate,
                0,
                BoundaryZone::Stable,
            ),
        ];
        // The newer request wins because its row is in PB0 (Element 4).
        assert_eq!(pol.choose(&v, &cands), Some(1));
    }

    #[test]
    fn nuat_hits_beat_any_activation() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = NuatPolicy::new(
            NuatWeights::default(),
            &p,
            &DramTimings::default(),
            PageModeSource::Ppm,
        );
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 0),
                CandidateKind::Activate,
                0,
                BoundaryZone::Warning,
            ),
            cand(
                req(1, RequestKind::Read, 2, 90),
                CandidateKind::Column,
                4,
                BoundaryZone::Stable,
            ),
        ];
        assert_eq!(pol.choose(&v, &cands), Some(1));
    }

    #[test]
    fn nuat_boundary_zones_break_pb_ties() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = NuatPolicy::new(
            NuatWeights::default(),
            &p,
            &DramTimings::default(),
            PageModeSource::Ppm,
        );
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 0),
                CandidateKind::Activate,
                2,
                BoundaryZone::Stable,
            ),
            cand(
                req(1, RequestKind::Read, 2, 5),
                CandidateKind::Activate,
                2,
                BoundaryZone::Warning,
            ),
        ];
        assert_eq!(pol.choose(&v, &cands), Some(1), "warning zone gets +w5");
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 0),
                CandidateKind::Activate,
                4,
                BoundaryZone::Promising,
            ),
            cand(
                req(1, RequestKind::Read, 2, 5),
                CandidateKind::Activate,
                4,
                BoundaryZone::Stable,
            ),
        ];
        assert_eq!(pol.choose(&v, &cands), Some(1), "promising zone gets -w5");
    }

    #[test]
    fn nuat_ties_break_by_age() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let mut pol = NuatPolicy::new(
            NuatWeights::default(),
            &p,
            &DramTimings::default(),
            PageModeSource::Ppm,
        );
        // Identical scores except arrival. (Same wait-cycle bucket: both
        // scores differ by < 1 fp unit of ES2 per cycle, so use equal
        // arrivals ... instead test distinct arrivals where ES2 already
        // differs: older also scores higher, consistent.)
        let cands = vec![
            cand(
                req(0, RequestKind::Read, 1, 10),
                CandidateKind::Activate,
                2,
                BoundaryZone::Stable,
            ),
            cand(
                req(1, RequestKind::Read, 2, 10),
                CandidateKind::Activate,
                2,
                BoundaryZone::Stable,
            ),
        ];
        assert_eq!(pol.choose(&v, &cands), Some(0), "equal score -> lowest id");
    }

    #[test]
    fn nuat_fixed_page_ablation_overrides_ppm() {
        let p = pbr();
        let lrras = [Row::new(0)];
        let v = view(&lrras, &p);
        let open = SchedulerKind::NuatFixedPage(PageMode::Open).build(&p, &DramTimings::default());
        let close =
            SchedulerKind::NuatFixedPage(PageMode::Close).build(&p, &DramTimings::default());
        let r = req(0, RequestKind::Read, 1, 0);
        assert!(!open.auto_precharge(&v, &r));
        assert!(close.auto_precharge(&v, &r));
    }

    #[test]
    fn scheduler_kind_names() {
        assert_eq!(SchedulerKind::Nuat.name(), "NUAT");
        assert_eq!(SchedulerKind::FrFcfsOpen.name(), "FR-FCFS(open)");
        assert_eq!(SchedulerKind::FrFcfsClose.name(), "FR-FCFS(close)");
        assert_eq!(SchedulerKind::Fcfs.name(), "FCFS");
    }
}
