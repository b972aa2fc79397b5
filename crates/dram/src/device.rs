//! The DDR3 device model: command legality checking, state update,
//! charge tracking, and physical-timing validation.
//!
//! One [`DramDevice`] models one channel (all of its ranks and banks).
//! The controller calls [`DramDevice::can_issue`] while enumerating
//! scheduling candidates and [`DramDevice::issue`] for the winner; both
//! enforce the complete DDR3 rule set:
//!
//! | constraint | scope | commands |
//! |------------|-------|----------|
//! | tRCD (per-ACT, possibly reduced) | bank | ACT→RD/WR |
//! | tRAS (per-ACT, possibly reduced) | bank | ACT→PRE |
//! | tRC (per-ACT) / tRP | bank | ACT/PRE→ACT |
//! | tRTP, write recovery | bank | RD/WR→PRE |
//! | tCCD, bus turnarounds (RD→WR, WR→RD) | rank | RD/WR→RD/WR |
//! | tRRD, tFAW | rank | ACT→ACT |
//! | tRFC, all-banks-idle | rank | REF |
//! | charge physics (`nuat-circuit`) | row | ACT timing set |
//!
//! The last row is the one this paper adds: the device knows when each
//! row was last restored and rejects an `Activate` whose promised
//! timings under-run the physical minimum for the row's current charge.
//!
//! That knowledge is kept by what a run does, not by the part's row
//! count. A row's charge is restored by an `Activate` and by the `REF`
//! that covers its refresh batch, so each rank records the latest `REF`
//! of every batch position and the latest `Activate` of every row it
//! has opened, the latter in 512-row pages allocated on a page's first
//! `Activate`. A row neither has touched since cycle 0 still holds its
//! steady-state charge, which
//! [`RefreshEngine::initial_restore_cycle`] computes without stored
//! state. Construction therefore writes one slot per batch position
//! and one index entry per page, and a `REF` is one store.

use crate::bank::{BankState, BankView};
use crate::command::DramCommand;
use crate::energy::{EnergyCounters, EnergyModel};
use crate::error::IssueError;
use crate::refresh::RefreshEngine;
use nuat_circuit::PhysicalTimingModel;
use nuat_types::{Bank, DramConfig, McCycle, Rank, Row, RowTimings, MC_CYCLE_NS};
use std::collections::VecDeque;

/// Aggregate command statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeviceStats {
    /// Commands accepted, by class.
    pub energy: EnergyCounters,
    /// ACTs that used timings tighter than the data-sheet worst case
    /// (i.e. NUAT exploited charge slack).
    pub reduced_activates: u64,
    /// Total tRCD cycles saved vs the worst case across all ACTs.
    pub trcd_cycles_saved: u64,
    /// Total tRAS cycles saved vs the worst case across all ACTs.
    pub tras_cycles_saved: u64,
    /// Cycles banks have spent with a row open, summed over all banks
    /// (state residency; accumulated when each row cycle closes).
    pub bank_active_cycles: u64,
}

impl DeviceStats {
    /// Accumulates `other` into `self` — the multi-channel aggregation
    /// primitive (each channel's device counts independent commands, so
    /// every field sums).
    pub fn merge(&mut self, other: &DeviceStats) {
        self.energy += other.energy;
        self.reduced_activates += other.reduced_activates;
        self.trcd_cycles_saved += other.trcd_cycles_saved;
        self.tras_cycles_saved += other.tras_cycles_saved;
        self.bank_active_cycles += other.bank_active_cycles;
    }
}

/// Rank-scoped timing horizons, read by the controller's event-driven
/// scheduler to compute the earliest cycle any command could become
/// legal. All fields are monotone (they only move forward on issue), so
/// a horizon computed from them stays valid until the next command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankTimingView {
    /// Earliest cycle the rank-level ACT spacing rules (tRRD and tFAW)
    /// admit another `Activate`. Per-bank tRP/tRC gates still apply on
    /// top (see [`BankView::earliest_act`]).
    pub next_act_rank_ok: McCycle,
    /// Earliest cycle a `Read` clears the rank's tCCD/tWTR bus gate.
    pub earliest_col_read: McCycle,
    /// Earliest cycle a `Write` clears the rank's tCCD/RTW bus gate.
    pub earliest_col_write: McCycle,
    /// Earliest cycle a `Refresh` clears tRP/tRFC (the cached maximum of
    /// every bank's `earliest_act`); banks must additionally be idle.
    pub refresh_ready: McCycle,
}

/// The earliest legal cycle of each command class for *one bank*, with
/// the rank-scoped bus/spacing gates already folded in. This is the
/// bank-granular legality view the controller's indexed candidate
/// enumeration keys on: a whole bank can be skipped (and its gate fed
/// into the event horizon) by comparing `now` against these four values,
/// without touching any queued request.
///
/// Like the views it is derived from, every field is monotone — it only
/// moves forward when a command issues — so a `BankGates` snapshot stays
/// exact until the next `issue` on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankGates {
    /// Earliest legal `ACT`: bank tRP/tRC joined with rank tRRD/tFAW.
    pub act: McCycle,
    /// Earliest legal `RD`: bank tRCD joined with the rank column bus.
    pub read: McCycle,
    /// Earliest legal `WR`: bank tRCD joined with the rank column bus.
    pub write: McCycle,
    /// Earliest legal `PRE` (bank-scoped only: tRAS/tWR/tRTP).
    pub pre: McCycle,
}

/// Sentinel in the `open_row` lane: the bank has no open row.
pub const IDLE_ROW: u32 = u32::MAX;

/// Per-bank FSM and timing state of one rank, stored as a structure of
/// arrays: one dense lane per field, indexed by bank. Horizon folds and
/// per-bank gate computation become tight loops over flat `u64`/`u32`
/// arrays instead of strided walks over an array of structs — the layout
/// the controller's candidate enumeration streams through every tick.
#[derive(Debug, Clone)]
struct BankLanesOwned {
    /// Open row per bank, [`IDLE_ROW`] when closed.
    open_row: Vec<u32>,
    /// Cycle of the in-flight row cycle's ACT (valid while open).
    act_at: Vec<McCycle>,
    /// Timings promised for the in-flight row cycle (valid while open).
    timings: Vec<RowTimings>,
    /// Earliest legal `ACT` (covers tRP after PRE, tRC after ACT, tRFC
    /// after REF). Monotone.
    earliest_act: Vec<McCycle>,
    /// Earliest legal `RD` (tRCD after ACT); reset to zero on close.
    earliest_read: Vec<McCycle>,
    /// Earliest legal `WR` (tRCD after ACT); reset to zero on close.
    earliest_write: Vec<McCycle>,
    /// Earliest legal `PRE` (tRAS/tRTP/tWR); reset to zero on close.
    earliest_pre: Vec<McCycle>,
}

impl BankLanesOwned {
    fn new(banks: usize) -> Self {
        BankLanesOwned {
            open_row: vec![IDLE_ROW; banks],
            act_at: vec![McCycle::ZERO; banks],
            timings: vec![RowTimings::new(0, 0, 0); banks],
            earliest_act: vec![McCycle::ZERO; banks],
            earliest_read: vec![McCycle::ZERO; banks],
            earliest_write: vec![McCycle::ZERO; banks],
            earliest_pre: vec![McCycle::ZERO; banks],
        }
    }

    fn is_open(&self, b: usize) -> bool {
        self.open_row[b] != IDLE_ROW
    }

    /// Reconstructs the classic per-bank view (API compatibility; the
    /// hot paths read the lanes directly).
    fn view(&self, b: usize) -> BankView {
        let state = if self.is_open(b) {
            BankState::Active {
                row: Row::new(self.open_row[b]),
                act_at: self.act_at[b],
                timings: self.timings[b],
            }
        } else {
            BankState::Idle
        };
        BankView {
            state,
            earliest_act: self.earliest_act[b],
            earliest_read: self.earliest_read[b],
            earliest_write: self.earliest_write[b],
            earliest_pre: self.earliest_pre[b],
        }
    }
}

/// Borrowed view of one rank's bank lanes (see [`DramDevice::bank_lanes`]).
/// All slices have length `banks_per_rank` and share indexing.
#[derive(Debug, Clone, Copy)]
pub struct BankLanes<'a> {
    /// Open row per bank, [`IDLE_ROW`] when closed.
    pub open_row: &'a [u32],
    /// Earliest legal `ACT` per bank (bank-scoped; join with
    /// [`RankTimingView::next_act_rank_ok`]).
    pub earliest_act: &'a [McCycle],
    /// Earliest legal `RD` per bank (bank-scoped; join with
    /// [`RankTimingView::earliest_col_read`]).
    pub earliest_read: &'a [McCycle],
    /// Earliest legal `WR` per bank (bank-scoped; join with
    /// [`RankTimingView::earliest_col_write`]).
    pub earliest_write: &'a [McCycle],
    /// Earliest legal `PRE` per bank (bank-scoped only).
    pub earliest_pre: &'a [McCycle],
}

impl BankLanes<'_> {
    /// Joins bank `b`'s lanes with the rank-scoped gates in `rank` into
    /// the per-bank legality view, without materialising a `BankView`.
    /// This is the timing-edge report the incremental scheduler keys its
    /// wheel from: every field is the exact cycle the corresponding
    /// command class unblocks, and every field is monotone under issue.
    pub fn bank_gates(&self, b: usize, rank: &RankTimingView) -> BankGates {
        BankGates {
            act: self.earliest_act[b].max(rank.next_act_rank_ok),
            read: self.earliest_read[b].max(rank.earliest_col_read),
            write: self.earliest_write[b].max(rank.earliest_col_write),
            pre: self.earliest_pre[b],
        }
    }
}

/// Rows per page of activation history: 512 `i64` cycles, 4 KiB.
const ACT_PAGE_ROWS: usize = 512;

/// A history slot whose event has not happened since cycle 0.
const NEVER: i64 = i64::MIN;

/// `RestoreHistory::page_of` entry of a page no row has been activated in.
const NO_PAGE: u32 = u32::MAX;

/// When each row of one rank last had its charge restored, sized by the
/// rows a run activates rather than by the part's row count.
///
/// A row's restore cycle is the later of its batch's latest `REF` and
/// its own latest `Activate`; while neither has happened it is the
/// steady-state slot from [`RefreshEngine::initial_restore_cycle`]. The
/// device accepts a rank's `Activate`s and `REF`s in nondecreasing cycle
/// order (tRRD, tRC and tRFC space them), so the later of the two
/// events is the last one, as a per-row table overwritten by both
/// would hold.
#[derive(Debug, Clone)]
struct RestoreHistory {
    /// Cycle of the latest `REF` of each batch position, [`NEVER`]
    /// before the first.
    refreshed_at: Vec<i64>,
    /// Index into `act_pages` of each (bank, 512-row page), indexed
    /// `bank * pages_per_bank + row / ACT_PAGE_ROWS`; [`NO_PAGE`] until
    /// a row of that page is first activated.
    page_of: Vec<u32>,
    pages_per_bank: usize,
    /// Latest `Activate` cycle of each row of an allocated page,
    /// [`NEVER`] for its rows not yet activated.
    act_pages: Vec<Box<[i64; ACT_PAGE_ROWS]>>,
}

impl RestoreHistory {
    fn new(banks: usize, rows_per_bank: usize, batches: usize) -> Self {
        let pages_per_bank = rows_per_bank.div_ceil(ACT_PAGE_ROWS);
        RestoreHistory {
            refreshed_at: vec![NEVER; batches],
            page_of: vec![NO_PAGE; banks * pages_per_bank],
            pages_per_bank,
            act_pages: Vec::new(),
        }
    }

    /// The cycle `row` of `bank` last had its charge restored.
    #[inline]
    fn restore_cycle(&self, refresh: &RefreshEngine, bank: usize, row: Row) -> i64 {
        let r = row.index();
        let page = self.page_of[bank * self.pages_per_bank + r / ACT_PAGE_ROWS];
        let activated = if page == NO_PAGE {
            NEVER
        } else {
            self.act_pages[page as usize][r % ACT_PAGE_ROWS]
        };
        match self.refreshed_at[refresh.batch_of(row)].max(activated) {
            NEVER => refresh.initial_restore_cycle(row),
            last => last,
        }
    }

    /// Records an `Activate` of `row` in `bank` at cycle `now`.
    fn activated(&mut self, bank: usize, row: Row, now: McCycle) {
        let r = row.index();
        let page = &mut self.page_of[bank * self.pages_per_bank + r / ACT_PAGE_ROWS];
        if *page == NO_PAGE {
            *page = self.act_pages.len() as u32;
            self.act_pages.push(Box::new([NEVER; ACT_PAGE_ROWS]));
        }
        self.act_pages[*page as usize][r % ACT_PAGE_ROWS] = now.raw() as i64;
    }
}

/// Per-rank timing and charge state.
#[derive(Debug, Clone)]
struct RankState {
    banks: BankLanesOwned,
    /// Issue times of the most recent ACTs (for tFAW, keeps up to 4).
    act_window: VecDeque<McCycle>,
    /// Most recent ACT in this rank (for tRRD).
    last_act: Option<McCycle>,
    earliest_col_read: McCycle,
    earliest_col_write: McCycle,
    /// Cached `max` of every bank's `earliest_act`, maintained
    /// incrementally at each update site so the REF legality check (and
    /// the controller's refresh horizon) need not fold over all banks.
    ref_ready: McCycle,
    refresh: RefreshEngine,
    /// CKE-low entry cycle, if the rank is powered down.
    powered_down_since: Option<McCycle>,
    /// Accumulated power-down cycles (for the energy model).
    powerdown_cycles: u64,
    /// When each row last had its charge restored: the latest `REF` per
    /// batch position and the latest `Activate` per activated row.
    restore: RestoreHistory,
}

/// One channel's worth of DDR3 devices. See the module docs.
#[derive(Debug, Clone)]
pub struct DramDevice {
    cfg: DramConfig,
    physical: PhysicalTimingModel,
    ranks: Vec<RankState>,
    stats: DeviceStats,
    energy_model: EnergyModel,
    /// Optional command logging (see [`crate::CommandLog`]).
    log: Option<crate::CommandLog>,
}

impl DramDevice {
    /// Builds the device for one channel of `cfg`, with the
    /// paper-calibrated physical timing model.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn new(cfg: DramConfig) -> Self {
        Self::with_physical(cfg, PhysicalTimingModel::paper_default(cfg.timings))
    }

    /// Builds the device with an explicit physical-timing oracle.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails validation.
    pub fn with_physical(cfg: DramConfig, physical: PhysicalTimingModel) -> Self {
        cfg.geometry.validate().expect("invalid DRAM geometry");
        let rows = cfg.geometry.rows_per_bank;
        let banks = cfg.geometry.banks_per_rank as usize;
        let ranks = (0..cfg.geometry.ranks_per_channel)
            .map(|_| {
                let refresh = RefreshEngine::new(rows, &cfg.timings);
                let restore = RestoreHistory::new(banks, rows as usize, refresh.batch_count());
                RankState {
                    banks: BankLanesOwned::new(banks),
                    act_window: VecDeque::with_capacity(4),
                    last_act: None,
                    earliest_col_read: McCycle::ZERO,
                    earliest_col_write: McCycle::ZERO,
                    ref_ready: McCycle::ZERO,
                    refresh,
                    powered_down_since: None,
                    powerdown_cycles: 0,
                    restore,
                }
            })
            .collect();
        DramDevice {
            cfg,
            physical,
            ranks,
            stats: DeviceStats::default(),
            energy_model: EnergyModel::default(),
            log: None,
        }
    }

    /// Starts recording accepted commands into a ring buffer of
    /// `capacity` entries (see [`crate::CommandLog`] for dumping and
    /// replay validation).
    pub fn enable_logging(&mut self, capacity: usize) {
        self.log = Some(crate::CommandLog::new(capacity));
    }

    /// The command log, if logging is enabled.
    pub fn command_log(&self) -> Option<&crate::CommandLog> {
        self.log.as_ref()
    }

    /// The data-sheet timing set.
    pub fn timings(&self) -> &nuat_types::DramTimings {
        &self.cfg.timings
    }

    /// The configured geometry.
    pub fn geometry(&self) -> &nuat_types::DramGeometry {
        &self.cfg.geometry
    }

    /// The physical-timing oracle in use.
    pub fn physical(&self) -> &PhysicalTimingModel {
        &self.physical
    }

    /// Read-only view of one bank, reconstructed from the flat lanes
    /// (state plus the four earliest-legal gates).
    ///
    /// # Panics
    ///
    /// Panics if `rank`/`bank` are out of range.
    pub fn bank(&self, rank: Rank, bank: Bank) -> BankView {
        self.ranks[rank.index()].banks.view(bank.index())
    }

    /// The flat per-bank lanes of one rank — what the controller's
    /// candidate enumeration and horizon folds stream through instead
    /// of materializing a [`BankView`] per bank.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn bank_lanes(&self, rank: Rank) -> BankLanes<'_> {
        let b = &self.ranks[rank.index()].banks;
        BankLanes {
            open_row: &b.open_row,
            earliest_act: &b.earliest_act,
            earliest_read: &b.earliest_read,
            earliest_write: &b.earliest_write,
            earliest_pre: &b.earliest_pre,
        }
    }

    /// The refresh engine of one rank (the controller reads LRRA and the
    /// schedule from here — exactly the information the paper's PBR
    /// acquisition block derives from refresh timing and position).
    pub fn refresh_engine(&self, rank: Rank) -> &RefreshEngine {
        &self.ranks[rank.index()].refresh
    }

    /// Enables refresh postponement on every rank (DDR3 allows deferring
    /// up to 8 REF commands). The physical validator allows no grace for
    /// it: safety under postponement must come from derating the
    /// controller's PBR block by the same budget — a controller that
    /// postpones without derating gets caught.
    pub fn set_refresh_postpone_budget(&mut self, batches: u64) {
        for rs in &mut self.ranks {
            rs.refresh.set_postpone_budget(batches);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Total DRAM energy in picojoules after `elapsed` cycles,
    /// accounting for time spent in power-down.
    pub fn energy_pj(&self, elapsed: McCycle) -> f64 {
        let pd: u64 = self
            .ranks
            .iter()
            .map(|r| {
                r.powerdown_cycles
                    + r.powered_down_since
                        .map_or(0, |t| elapsed.saturating_sub(t))
            })
            .sum();
        self.stats
            .energy
            .total_pj_with_powerdown(&self.energy_model, elapsed.raw(), pd)
    }

    /// Lowers CKE on `rank` (precharge or active power-down, depending
    /// on bank state). No commands may issue to the rank until
    /// [`power_up`](Self::power_up); idempotent.
    pub fn power_down(&mut self, rank: Rank, now: McCycle) {
        let rs = &mut self.ranks[rank.index()];
        if rs.powered_down_since.is_none() {
            rs.powered_down_since = Some(now);
        }
    }

    /// Raises CKE on `rank`: commands become legal `tXP` later.
    /// Idempotent; returns the first cycle a command may issue.
    pub fn power_up(&mut self, rank: Rank, now: McCycle) -> McCycle {
        let txp = self.cfg.timings.txp;
        let rs = &mut self.ranks[rank.index()];
        let Some(since) = rs.powered_down_since.take() else {
            return now;
        };
        rs.powerdown_cycles += now.saturating_sub(since);
        let ready = now + txp;
        for b in 0..rs.banks.open_row.len() {
            BankView::push_earliest(&mut rs.banks.earliest_act[b], ready);
            BankView::push_earliest(&mut rs.banks.earliest_read[b], ready);
            BankView::push_earliest(&mut rs.banks.earliest_write[b], ready);
            BankView::push_earliest(&mut rs.banks.earliest_pre[b], ready);
        }
        BankView::push_earliest(&mut rs.earliest_col_read, ready);
        BankView::push_earliest(&mut rs.earliest_col_write, ready);
        BankView::push_earliest(&mut rs.ref_ready, ready);
        ready
    }

    /// Rank-scoped timing horizons for the event-driven scheduler. See
    /// [`RankTimingView`]; combine with the per-bank gates from
    /// [`bank`](Self::bank) and [`is_powered_down`](Self::is_powered_down)
    /// to bound when the next command to this rank could become legal.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    #[inline]
    pub fn rank_timing(&self, rank: Rank) -> RankTimingView {
        let t = &self.cfg.timings;
        let rs = &self.ranks[rank.index()];
        let trrd_ok = rs.last_act.map_or(McCycle::ZERO, |last| last + t.trrd);
        let tfaw_ok = if rs.act_window.len() == 4 {
            rs.act_window[0] + t.tfaw
        } else {
            McCycle::ZERO
        };
        RankTimingView {
            next_act_rank_ok: trrd_ok.max(tfaw_ok),
            earliest_col_read: rs.earliest_col_read,
            earliest_col_write: rs.earliest_col_write,
            refresh_ready: rs.ref_ready,
        }
    }

    /// True while `rank` has CKE low.
    pub fn is_powered_down(&self, rank: Rank) -> bool {
        self.ranks[rank.index()].powered_down_since.is_some()
    }

    /// Cycles `rank` has spent powered down (completed episodes only).
    pub fn powerdown_cycles(&self, rank: Rank) -> u64 {
        self.ranks[rank.index()].powerdown_cycles
    }

    /// Total completed power-down cycles across all ranks.
    pub fn total_powerdown_cycles(&self) -> u64 {
        self.ranks.iter().map(|r| r.powerdown_cycles).sum()
    }

    /// Nanoseconds since `row` in `bank` was last refreshed or restored,
    /// as of cycle `now`. Negative for a row whose steady-state refresh
    /// slot lies after `now`.
    pub fn elapsed_since_restore_ns(&self, rank: Rank, bank: Bank, row: Row, now: McCycle) -> f64 {
        let rs = &self.ranks[rank.index()];
        let restore = rs.restore.restore_cycle(&rs.refresh, bank.index(), row);
        (now.raw() as i64 - restore) as f64 * MC_CYCLE_NS
    }

    /// Banks currently holding an open row, across all ranks (an
    /// instantaneous occupancy snapshot for the epoch sampler).
    pub fn open_bank_count(&self) -> u32 {
        self.ranks
            .iter()
            .flat_map(|r| &r.banks.open_row)
            .filter(|&&row| row != IDLE_ROW)
            .count() as u32
    }

    /// True if every bank of `rank` is idle (precondition for `REF`).
    pub fn all_banks_idle(&self, rank: Rank) -> bool {
        self.ranks[rank.index()]
            .banks
            .open_row
            .iter()
            .all(|&row| row == IDLE_ROW)
    }

    /// Checks whether `cmd` may issue at cycle `now` without applying it.
    ///
    /// # Errors
    ///
    /// [`IssueError::TooEarly`] if a timing constraint is pending (the
    /// normal scheduling outcome); other variants for protocol misuse.
    pub fn can_issue(&self, cmd: &DramCommand, now: McCycle) -> Result<(), IssueError> {
        self.check(cmd, now)
    }

    /// Issues `cmd` at cycle `now`, updating all device state.
    ///
    /// Returns the cycle at which the command's data phase completes:
    /// for a `Read`, when the last data beat arrives at the controller;
    /// for a `Write`, when the last beat has been driven; [`McCycle`]
    /// `now` for non-data commands.
    ///
    /// # Errors
    ///
    /// Same conditions as [`can_issue`](Self::can_issue); on error no
    /// state changes.
    pub fn issue(&mut self, cmd: DramCommand, now: McCycle) -> Result<McCycle, IssueError> {
        self.check(&cmd, now)?;
        Ok(self.apply(cmd, now))
    }

    // ------------------------------------------------------------------
    // legality checking
    // ------------------------------------------------------------------

    fn check(&self, cmd: &DramCommand, now: McCycle) -> Result<(), IssueError> {
        let t = &self.cfg.timings;
        let g = &self.cfg.geometry;
        let rank = cmd.rank();
        if rank.as_u64() >= g.ranks_per_channel {
            return Err(IssueError::OutOfRange {
                field: "rank",
                value: rank.as_u64(),
            });
        }
        let rs = &self.ranks[rank.index()];
        if rs.powered_down_since.is_some() {
            return Err(IssueError::PoweredDown { rank });
        }
        if let Some(bank) = cmd.bank() {
            if bank.as_u64() >= g.banks_per_rank {
                return Err(IssueError::OutOfRange {
                    field: "bank",
                    value: bank.as_u64(),
                });
            }
        }

        match *cmd {
            DramCommand::Activate {
                bank, row, timings, ..
            } => {
                if row.as_u64() >= g.rows_per_bank {
                    return Err(IssueError::OutOfRange {
                        field: "row",
                        value: row.as_u64(),
                    });
                }
                let b = bank.index();
                if rs.banks.is_open(b) {
                    return Err(IssueError::WrongBankState {
                        rank,
                        bank,
                        expected: "idle",
                    });
                }
                too_early("tRP/tRC/tRFC", rs.banks.earliest_act[b], now)?;
                if let Some(last) = rs.last_act {
                    too_early("tRRD", last + t.trrd, now)?;
                }
                if rs.act_window.len() == 4 {
                    too_early("tFAW", rs.act_window[0] + t.tfaw, now)?;
                }
                // Promised timings must be internally consistent ...
                if timings.trc != timings.tras + t.trp {
                    return Err(IssueError::PhysicalViolation {
                        parameter: "tRC",
                        proposed_cycles: timings.trc,
                        minimum_ns: (timings.tras + t.trp) as f64 * MC_CYCLE_NS,
                        elapsed_ns: 0.0,
                    });
                }
                // ... and must respect the row's charge state.
                let elapsed = self.elapsed_since_restore_ns(rank, bank, row, now).max(0.0);
                if !self.physical.trcd_ok(elapsed, timings.trcd) {
                    return Err(IssueError::PhysicalViolation {
                        parameter: "tRCD",
                        proposed_cycles: timings.trcd,
                        minimum_ns: self.physical.min_trcd_ns(elapsed),
                        elapsed_ns: elapsed,
                    });
                }
                if !self.physical.tras_ok(elapsed, timings.tras) {
                    return Err(IssueError::PhysicalViolation {
                        parameter: "tRAS",
                        proposed_cycles: timings.tras,
                        minimum_ns: self.physical.min_tras_ns(elapsed),
                        elapsed_ns: elapsed,
                    });
                }
                Ok(())
            }

            DramCommand::Read { bank, col, .. } | DramCommand::Write { bank, col, .. } => {
                if col.as_u64() >= g.cols_per_row {
                    return Err(IssueError::OutOfRange {
                        field: "col",
                        value: col.as_u64(),
                    });
                }
                let b = bank.index();
                if !rs.banks.is_open(b) {
                    return Err(IssueError::WrongBankState {
                        rank,
                        bank,
                        expected: "active",
                    });
                }
                let is_read = matches!(cmd, DramCommand::Read { .. });
                if is_read {
                    too_early("tRCD", rs.banks.earliest_read[b], now)?;
                    too_early("tCCD/tWTR", rs.earliest_col_read, now)?;
                } else {
                    too_early("tRCD", rs.banks.earliest_write[b], now)?;
                    too_early("tCCD/RTW", rs.earliest_col_write, now)?;
                }
                // Auto-precharge timing resolved at apply time.
                Ok(())
            }

            DramCommand::Precharge { bank, .. } => {
                let b = bank.index();
                if !rs.banks.is_open(b) {
                    return Err(IssueError::WrongBankState {
                        rank,
                        bank,
                        expected: "active",
                    });
                }
                too_early("tRAS/tRTP/tWR", rs.banks.earliest_pre[b], now)?;
                Ok(())
            }

            DramCommand::Refresh { .. } => {
                for (i, &row) in rs.banks.open_row.iter().enumerate() {
                    if row != IDLE_ROW {
                        return Err(IssueError::RefreshWithOpenBank {
                            bank: Bank::new(i as u32),
                        });
                    }
                }
                // REF obeys the same row-command spacing as ACT; the
                // max over banks is maintained incrementally on issue.
                debug_assert_eq!(
                    rs.ref_ready,
                    rs.banks
                        .earliest_act
                        .iter()
                        .copied()
                        .fold(McCycle::ZERO, McCycle::max),
                    "ref_ready cache out of sync with per-bank earliest_act"
                );
                too_early("tRP/tRFC", rs.ref_ready, now)?;
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // state update
    // ------------------------------------------------------------------

    fn apply(&mut self, cmd: DramCommand, now: McCycle) -> McCycle {
        if let Some(log) = &mut self.log {
            log.record(cmd, now);
        }
        let t = self.cfg.timings;
        let rank = cmd.rank();
        let rs = &mut self.ranks[rank.index()];
        match cmd {
            DramCommand::Activate {
                bank, row, timings, ..
            } => {
                let b = bank.index();
                rs.banks.open_row[b] = row.raw();
                rs.banks.act_at[b] = now;
                rs.banks.timings[b] = timings;
                rs.banks.earliest_read[b] = now + timings.trcd;
                rs.banks.earliest_write[b] = now + timings.trcd;
                rs.banks.earliest_pre[b] = now + timings.tras;
                BankView::push_earliest(&mut rs.banks.earliest_act[b], now + timings.trc);
                BankView::push_earliest(&mut rs.ref_ready, now + timings.trc);
                rs.last_act = Some(now);
                if rs.act_window.len() == 4 {
                    rs.act_window.pop_front();
                }
                rs.act_window.push_back(now);
                // Activation restores the row's charge.
                rs.restore.activated(b, row, now);
                self.stats.energy.activates += 1;
                let worst = t.worst_case_row();
                if timings.trcd < worst.trcd || timings.tras < worst.tras {
                    self.stats.reduced_activates += 1;
                    self.stats.trcd_cycles_saved += worst.trcd - timings.trcd;
                    self.stats.tras_cycles_saved += worst.tras - timings.tras;
                }
                now
            }

            DramCommand::Read {
                bank,
                auto_precharge,
                ..
            } => {
                let b = bank.index();
                debug_assert!(rs.banks.is_open(b), "checked in can_issue");
                let act_at = rs.banks.act_at[b];
                let timings = rs.banks.timings[b];
                BankView::push_earliest(&mut rs.banks.earliest_pre[b], now + t.trtp);
                rs.earliest_col_read = now + t.tccd;
                BankView::push_earliest(&mut rs.earliest_col_write, now + t.read_to_write());
                self.stats.energy.reads += 1;
                let done = now + t.read_data_done();
                if auto_precharge {
                    let pre_at = (act_at + timings.tras).max(now + t.trtp);
                    self.stats.bank_active_cycles += pre_at.saturating_sub(act_at);
                    rs.close_bank(b, pre_at, t.trp);
                    self.stats.energy.precharges += 1;
                }
                done
            }

            DramCommand::Write {
                bank,
                auto_precharge,
                ..
            } => {
                let b = bank.index();
                debug_assert!(rs.banks.is_open(b), "checked in can_issue");
                let act_at = rs.banks.act_at[b];
                let timings = rs.banks.timings[b];
                BankView::push_earliest(
                    &mut rs.banks.earliest_pre[b],
                    now + t.write_to_precharge(),
                );
                rs.earliest_col_write = now + t.tccd;
                BankView::push_earliest(&mut rs.earliest_col_read, now + t.write_to_read());
                self.stats.energy.writes += 1;
                let done = now + t.write_data_done();
                if auto_precharge {
                    let pre_at = (act_at + timings.tras).max(now + t.write_to_precharge());
                    self.stats.bank_active_cycles += pre_at.saturating_sub(act_at);
                    rs.close_bank(b, pre_at, t.trp);
                    self.stats.energy.precharges += 1;
                }
                done
            }

            DramCommand::Precharge { bank, .. } => {
                let b = bank.index();
                if rs.banks.is_open(b) {
                    self.stats.bank_active_cycles += now.saturating_sub(rs.banks.act_at[b]);
                }
                rs.close_bank(b, now, t.trp);
                self.stats.energy.precharges += 1;
                now
            }

            DramCommand::Refresh { .. } => {
                // The batch's rows are restored in every bank of the rank.
                let batch = rs.refresh.complete_batch(now);
                rs.restore.refreshed_at[batch] = now.raw() as i64;
                for b in 0..self.cfg.geometry.banks_per_rank as usize {
                    BankView::push_earliest(&mut rs.banks.earliest_act[b], now + t.trfc);
                }
                BankView::push_earliest(&mut rs.ref_ready, now + t.trfc);
                self.stats.energy.refreshes += 1;
                now + t.trfc
            }
        }
    }
}

impl RankState {
    /// Transitions bank `b` to idle at `pre_at`, making the next ACT
    /// legal `trp` after that (and never earlier than already
    /// scheduled). `ref_ready` — the rank's cached max-`earliest_act` —
    /// is kept in sync.
    fn close_bank(&mut self, b: usize, pre_at: McCycle, trp: u64) {
        self.banks.open_row[b] = IDLE_ROW;
        BankView::push_earliest(&mut self.banks.earliest_act[b], pre_at + trp);
        BankView::push_earliest(&mut self.ref_ready, pre_at + trp);
        // Column commands to an idle bank are state errors; reset their
        // gates so a future ACT fully determines them.
        self.banks.earliest_read[b] = McCycle::ZERO;
        self.banks.earliest_write[b] = McCycle::ZERO;
        self.banks.earliest_pre[b] = McCycle::ZERO;
    }
}

fn too_early(constraint: &'static str, earliest: McCycle, now: McCycle) -> Result<(), IssueError> {
    if now < earliest {
        Err(IssueError::TooEarly {
            constraint,
            earliest,
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nuat_types::{Col, DramTimings, RowTimings};

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::default())
    }

    fn rk() -> Rank {
        Rank::new(0)
    }
    fn bk(i: u32) -> Bank {
        Bank::new(i)
    }

    fn act(bank: u32, row: u32) -> DramCommand {
        DramCommand::activate_worst_case(rk(), bk(bank), Row::new(row), &DramTimings::default())
    }

    fn read(bank: u32, col: u32) -> DramCommand {
        DramCommand::Read {
            rank: rk(),
            bank: bk(bank),
            col: Col::new(col),
            auto_precharge: false,
        }
    }

    fn write(bank: u32, col: u32) -> DramCommand {
        DramCommand::Write {
            rank: rk(),
            bank: bk(bank),
            col: Col::new(col),
            auto_precharge: false,
        }
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let mut d = dev();
        let t0 = McCycle::new(1000);
        d.issue(act(0, 5), t0).unwrap();
        let err = d.can_issue(&read(0, 0), t0 + 11).unwrap_err();
        assert_eq!(
            err,
            IssueError::TooEarly {
                constraint: "tRCD",
                earliest: t0 + 12
            }
        );
        let done = d.issue(read(0, 0), t0 + 12).unwrap();
        assert_eq!(done, t0 + 12 + 11 + 4); // CL + BL/2
    }

    #[test]
    fn reduced_timings_pass_for_fresh_rows_only() {
        let mut d = dev();
        // Row 8191 was just refreshed (distance 0); PB0 timings are legal.
        let fresh = DramCommand::Activate {
            rank: rk(),
            bank: bk(0),
            row: Row::new(8191),
            timings: RowTimings::new(8, 22, 12),
        };
        d.issue(fresh, McCycle::new(10)).unwrap();
        assert_eq!(d.stats().reduced_activates, 1);
        assert_eq!(d.stats().trcd_cycles_saved, 4);
        assert_eq!(d.stats().tras_cycles_saved, 8);

        // Row 100 is ~64 ms stale; PB0 timings violate physics.
        // (Issued tRRD later so only the physical check can fail.)
        let stale = DramCommand::Activate {
            rank: rk(),
            bank: bk(1),
            row: Row::new(100),
            timings: RowTimings::new(8, 22, 12),
        };
        let err = d.issue(stale, McCycle::new(20)).unwrap_err();
        assert!(
            matches!(
                err,
                IssueError::PhysicalViolation {
                    parameter: "tRCD",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn worst_case_timings_pass_for_any_row() {
        let mut d = dev();
        for (i, (b, row)) in [(0, 0u32), (1, 4096), (2, 8191)].into_iter().enumerate() {
            // Staggered by tRRD so every ACT is legal.
            d.issue(act(b, row), McCycle::new(50 + 5 * i as u64))
                .unwrap();
        }
        assert_eq!(d.stats().reduced_activates, 0);
    }

    #[test]
    fn inconsistent_trc_is_rejected() {
        let mut d = dev();
        let bad = DramCommand::Activate {
            rank: rk(),
            bank: bk(0),
            row: Row::new(8191),
            timings: RowTimings {
                trcd: 8,
                tras: 22,
                trc: 42,
            }, // should be 34
        };
        let err = d.issue(bad, McCycle::new(10)).unwrap_err();
        assert!(matches!(
            err,
            IssueError::PhysicalViolation {
                parameter: "tRC",
                ..
            }
        ));
    }

    #[test]
    fn column_to_idle_bank_is_a_state_error() {
        let d = dev();
        let err = d.can_issue(&read(0, 0), McCycle::new(100)).unwrap_err();
        assert!(matches!(err, IssueError::WrongBankState { .. }));
    }

    #[test]
    fn activate_to_open_bank_is_a_state_error() {
        let mut d = dev();
        d.issue(act(0, 1), McCycle::new(0)).unwrap();
        let err = d.can_issue(&act(0, 2), McCycle::new(100)).unwrap_err();
        assert!(matches!(err, IssueError::WrongBankState { .. }));
    }

    #[test]
    fn precharge_respects_tras_and_trp() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        let err = d.can_issue(
            &DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 29,
        );
        assert!(err.unwrap_err().is_too_early());
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        // Next ACT needs tRP after PRE.
        let err = d.can_issue(&act(0, 2), t0 + 41).unwrap_err();
        assert_eq!(
            err,
            IssueError::TooEarly {
                constraint: "tRP/tRC/tRFC",
                earliest: t0 + 42
            }
        );
        d.issue(act(0, 2), t0 + 42).unwrap();
    }

    #[test]
    fn trc_binds_back_to_back_activates_same_bank() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        // PRE at 30 allows ACT at 42, which equals tRC anyway.
        d.issue(act(0, 2), t0 + 42).unwrap();
    }

    #[test]
    fn trrd_spaces_activates_across_banks() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        let err = d.can_issue(&act(1, 1), t0 + 4).unwrap_err();
        assert_eq!(
            err,
            IssueError::TooEarly {
                constraint: "tRRD",
                earliest: t0 + 5
            }
        );
        d.issue(act(1, 1), t0 + 5).unwrap();
    }

    #[test]
    fn tfaw_limits_to_four_activates_per_window() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        for i in 0..4u32 {
            d.issue(act(i, 1), t0 + (i as u64) * 5).unwrap();
        }
        // Fifth ACT must wait for the first + tFAW (24).
        let err = d.can_issue(&act(4, 1), t0 + 20).unwrap_err();
        assert_eq!(
            err,
            IssueError::TooEarly {
                constraint: "tFAW",
                earliest: t0 + 24
            }
        );
        d.issue(act(4, 1), t0 + 24).unwrap();
    }

    #[test]
    fn tccd_spaces_column_commands() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(read(0, 0), t0 + 12).unwrap();
        // Back-to-back reads to the open row are spaced by tCCD = 4.
        let err = d.can_issue(&read(0, 1), t0 + 15).unwrap_err();
        assert_eq!(
            err,
            IssueError::TooEarly {
                constraint: "tCCD/tWTR",
                earliest: t0 + 16
            }
        );
        d.issue(read(0, 1), t0 + 16).unwrap();
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(write(0, 0), t0 + 12).unwrap();
        // WR->RD: CWL + BL/2 + tWTR = 8 + 4 + 6 = 18 after the write.
        let err = d.can_issue(&read(0, 1), t0 + 12 + 17).unwrap_err();
        assert!(err.is_too_early());
        d.issue(read(0, 1), t0 + 12 + 18).unwrap();
    }

    #[test]
    fn read_to_write_turnaround() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(read(0, 0), t0 + 12).unwrap();
        // RD->WR: CL + BL/2 + 2 - CWL = 11 + 4 + 2 - 8 = 9 after the read.
        let err = d.can_issue(&write(0, 1), t0 + 12 + 8).unwrap_err();
        assert!(err.is_too_early());
        d.issue(write(0, 1), t0 + 12 + 9).unwrap();
    }

    #[test]
    fn write_delays_precharge_for_recovery() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(write(0, 0), t0 + 12).unwrap();
        // PRE after WR: CWL + BL/2 + tWR = 24 after the write.
        let pre = DramCommand::Precharge {
            rank: rk(),
            bank: bk(0),
        };
        let err = d.can_issue(&pre, t0 + 12 + 23).unwrap_err();
        assert!(err.is_too_early());
        d.issue(pre, t0 + 12 + 24).unwrap();
    }

    #[test]
    fn auto_precharge_closes_bank_and_respects_tras() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        let rd = DramCommand::Read {
            rank: rk(),
            bank: bk(0),
            col: Col::new(0),
            auto_precharge: true,
        };
        d.issue(rd, t0 + 12).unwrap();
        assert_eq!(d.bank(rk(), bk(0)).state, BankState::Idle);
        // Auto-PRE waits for tRAS (30), then tRP: ACT legal at 30+12=42.
        let err = d.can_issue(&act(0, 2), t0 + 41).unwrap_err();
        assert!(err.is_too_early());
        d.issue(act(0, 2), t0 + 42).unwrap();
        assert_eq!(d.stats().energy.precharges, 1);
    }

    #[test]
    fn refresh_requires_idle_banks_and_locks_rank() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        let err = d
            .can_issue(&DramCommand::Refresh { rank: rk() }, t0 + 100)
            .unwrap_err();
        assert_eq!(err, IssueError::RefreshWithOpenBank { bank: bk(0) });
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        d.issue(DramCommand::Refresh { rank: rk() }, t0 + 42)
            .unwrap();
        // tRFC lockout on every bank.
        let err = d.can_issue(&act(3, 1), t0 + 42 + 127).unwrap_err();
        assert!(err.is_too_early());
        d.issue(act(3, 1), t0 + 42 + 128).unwrap();
    }

    #[test]
    fn refresh_advances_lrra_and_restores_rows() {
        let mut d = dev();
        let t0 = McCycle::new(500);
        d.issue(DramCommand::Refresh { rank: rk() }, t0).unwrap();
        assert_eq!(d.refresh_engine(rk()).lrra(), Row::new(7));
        // Rows 0..8 are now fresh in every bank.
        for b in 0..8u32 {
            let e = d.elapsed_since_restore_ns(rk(), bk(b), Row::new(3), t0 + 4);
            assert_eq!(e, 4.0 * MC_CYCLE_NS);
        }
        // Row 8 is still ~64 ms stale.
        assert!(d.elapsed_since_restore_ns(rk(), bk(0), Row::new(8), t0 + 4) > 6.0e7);
    }

    #[test]
    fn activation_restores_charge_for_the_next_cycle() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        // Row 100 is stale; activate with worst-case timings, close it.
        d.issue(act(0, 100), t0).unwrap();
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        // Now the row is restored: PB0 timings are physically fine.
        let fast = DramCommand::Activate {
            rank: rk(),
            bank: bk(0),
            row: Row::new(100),
            timings: RowTimings::new(8, 22, 12),
        };
        d.issue(fast, t0 + 42).unwrap();
    }

    #[test]
    fn out_of_range_coordinates_are_rejected() {
        let d = dev();
        let bad = DramCommand::Activate {
            rank: Rank::new(1),
            bank: bk(0),
            row: Row::new(0),
            timings: DramTimings::default().worst_case_row(),
        };
        assert!(matches!(
            d.can_issue(&bad, McCycle::ZERO),
            Err(IssueError::OutOfRange { field: "rank", .. })
        ));
        let bad = DramCommand::Activate {
            rank: rk(),
            bank: bk(0),
            row: Row::new(9000),
            timings: DramTimings::default().worst_case_row(),
        };
        assert!(matches!(
            d.can_issue(&bad, McCycle::ZERO),
            Err(IssueError::OutOfRange { field: "row", .. })
        ));
    }

    #[test]
    fn power_down_blocks_commands_until_txp_after_wake() {
        let mut d = dev();
        let t0 = McCycle::new(100);
        d.power_down(rk(), t0);
        assert!(d.is_powered_down(rk()));
        let err = d.can_issue(&act(0, 1), t0 + 50).unwrap_err();
        assert!(matches!(err, IssueError::PoweredDown { .. }), "{err}");
        // Wake at 200: commands legal tXP = 5 later.
        let ready = d.power_up(rk(), McCycle::new(200));
        assert_eq!(ready, McCycle::new(205));
        assert!(!d.is_powered_down(rk()));
        assert!(d
            .can_issue(&act(0, 1), McCycle::new(204))
            .unwrap_err()
            .is_too_early());
        d.issue(act(0, 1), McCycle::new(205)).unwrap();
        assert_eq!(d.powerdown_cycles(rk()), 100);
    }

    #[test]
    fn power_down_cuts_background_energy() {
        let mut active = dev();
        let mut idle = dev();
        idle.power_down(rk(), McCycle::new(0));
        idle.power_up(rk(), McCycle::new(10_000));
        let t = McCycle::new(10_000);
        assert!(idle.energy_pj(t) < active.energy_pj(t));
        // Entry/exit are idempotent.
        active.power_down(rk(), McCycle::new(1));
        active.power_down(rk(), McCycle::new(5));
        active.power_up(rk(), McCycle::new(9));
        assert_eq!(active.power_up(rk(), McCycle::new(12)), McCycle::new(12));
        assert_eq!(active.powerdown_cycles(rk()), 8);
    }

    #[test]
    fn refresh_ready_cache_matches_bank_fold() {
        // Exercise every earliest_act update site — ACT, explicit PRE,
        // auto-PRE, REF, power-down/up — and assert the incrementally
        // maintained cache always equals the fold it replaced.
        let check = |d: &DramDevice, step: &str| {
            let fold = (0..8u32)
                .map(|b| d.bank(rk(), bk(b)).earliest_act)
                .fold(McCycle::ZERO, McCycle::max);
            assert_eq!(d.rank_timing(rk()).refresh_ready, fold, "step={step}");
        };
        let mut d = dev();
        check(&d, "init");
        d.issue(act(0, 1), McCycle::new(10)).unwrap();
        check(&d, "act0");
        d.issue(act(1, 2), McCycle::new(15)).unwrap();
        check(&d, "act1");
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            McCycle::new(40),
        )
        .unwrap();
        check(&d, "pre0");
        let rd = DramCommand::Read {
            rank: rk(),
            bank: bk(1),
            col: Col::new(0),
            auto_precharge: true,
        };
        d.issue(rd, McCycle::new(41)).unwrap();
        check(&d, "auto_pre");
        d.issue(DramCommand::Refresh { rank: rk() }, McCycle::new(100))
            .unwrap();
        check(&d, "ref");
        d.power_down(rk(), McCycle::new(300));
        d.power_up(rk(), McCycle::new(400));
        check(&d, "power");
        // And the REF legality check itself agrees with the cache.
        let rt = d.rank_timing(rk());
        assert!(d
            .can_issue(
                &DramCommand::Refresh { rank: rk() },
                McCycle::new(rt.refresh_ready.raw() - 1)
            )
            .unwrap_err()
            .is_too_early());
        assert!(d
            .can_issue(&DramCommand::Refresh { rank: rk() }, rt.refresh_ready)
            .is_ok());
    }

    #[test]
    fn rank_timing_tracks_act_spacing_gates() {
        let mut d = dev();
        assert_eq!(d.rank_timing(rk()).next_act_rank_ok, McCycle::ZERO);
        let t0 = McCycle::new(0);
        for i in 0..4u32 {
            d.issue(act(i, 1), t0 + (i as u64) * 5).unwrap();
        }
        // Window full: tFAW (first ACT + 24) dominates tRRD (last + 5).
        assert_eq!(d.rank_timing(rk()).next_act_rank_ok, t0 + 24);
        d.issue(act(4, 1), t0 + 24).unwrap();
        // Window slides: now ACT@5 + tFAW = 29 vs tRRD 24 + 5 = 29.
        assert_eq!(d.rank_timing(rk()).next_act_rank_ok, t0 + 29);
    }

    #[test]
    fn command_log_records_and_replays_device_traffic() {
        let mut d = dev();
        d.enable_logging(64);
        let t0 = McCycle::new(100);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(read(0, 0), t0 + 12).unwrap();
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        let log = d.command_log().expect("enabled");
        assert_eq!(log.recorded(), 3);
        // Everything the device accepted must replay cleanly through
        // the reference checker.
        log.replay_validate(&DramTimings::default(), 8).unwrap();
    }

    #[test]
    fn bank_residency_accumulates_on_every_close_path() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        assert_eq!(d.open_bank_count(), 0);
        // Explicit PRE: open 0..30 → 30 cycles of residency.
        d.issue(act(0, 1), t0).unwrap();
        assert_eq!(d.open_bank_count(), 1);
        d.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            t0 + 30,
        )
        .unwrap();
        assert_eq!(d.open_bank_count(), 0);
        assert_eq!(d.stats().bank_active_cycles, 30);
        // Auto-precharge: row cycle lasts exactly tRAS (30).
        d.issue(act(1, 1), t0 + 35).unwrap();
        let rda = DramCommand::Read {
            rank: rk(),
            bank: bk(1),
            col: Col::new(0),
            auto_precharge: true,
        };
        d.issue(rda, t0 + 35 + 12).unwrap();
        assert_eq!(d.stats().bank_active_cycles, 60);
    }

    #[test]
    fn device_stats_merge_sums_every_field() {
        let mut d1 = dev();
        let mut d2 = dev();
        d1.issue(act(0, 1), McCycle::new(0)).unwrap();
        d1.issue(read(0, 0), McCycle::new(12)).unwrap();
        let fast = DramCommand::Activate {
            rank: rk(),
            bank: bk(0),
            row: Row::new(8191),
            timings: RowTimings::new(8, 22, 12),
        };
        d2.issue(fast, McCycle::new(10)).unwrap();
        d2.issue(
            DramCommand::Precharge {
                rank: rk(),
                bank: bk(0),
            },
            McCycle::new(32),
        )
        .unwrap();
        let mut merged = *d1.stats();
        merged.merge(d2.stats());
        assert_eq!(merged.energy.activates, 2);
        assert_eq!(merged.energy.reads, 1);
        assert_eq!(merged.energy.precharges, 1);
        assert_eq!(merged.reduced_activates, 1);
        assert_eq!(merged.trcd_cycles_saved, 4);
        assert_eq!(merged.tras_cycles_saved, 8);
        assert_eq!(
            merged.bank_active_cycles,
            d1.stats().bank_active_cycles + d2.stats().bank_active_cycles
        );
    }

    #[test]
    fn energy_accounting_tracks_commands() {
        let mut d = dev();
        let t0 = McCycle::new(0);
        d.issue(act(0, 1), t0).unwrap();
        d.issue(read(0, 0), t0 + 12).unwrap();
        d.issue(write(0, 1), t0 + 12 + 9).unwrap();
        let e = d.stats().energy;
        assert_eq!((e.activates, e.reads, e.writes), (1, 1, 1));
        assert!(d.energy_pj(McCycle::new(100)) > 0.0);
    }
}
