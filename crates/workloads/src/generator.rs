//! Synthetic trace generation from a [`WorkloadSpec`].
//!
//! Each workload is modeled as a set of concurrent access *streams*
//! (bank-level parallelism). A stream owns a contiguous region of rows
//! spread across banks; on each access it either stays in its current
//! row (sequential columns — a row-buffer hit under open-page policy)
//! or jumps to a fresh random row in its region. Accesses arrive in
//! bursts separated by long compute gaps sized so the overall memory
//! intensity matches the spec's MPKI.
//!
//! For `phased` workloads (Leslie, Fig. 19) the row-jump probability
//! alternates between a high- and a low-locality phase every
//! `PHASE_LEN` accesses, which produces the large open-vs-close
//! hit-rate gap and the PHRC tracking lag the paper analyzes.
//!
//! A generator is an endless stream of records. [`TraceGenerator::stream`]
//! cuts it to a [`GeneratedTrace`] that a core reads as it fetches,
//! so memory does not grow with trace length;
//! [`TraceGenerator::generate`] collects the same records into a
//! [`Trace`].

use crate::spec::WorkloadSpec;
use nuat_cpu::{MemOp, Trace, TraceRecord, TraceSource};
use nuat_types::{AddressMapping, Bank, Channel, Col, DecodedAddr, DramGeometry, Rank, Row};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Accesses per locality phase for `phased` workloads.
const PHASE_LEN: usize = 600;

#[derive(Debug, Clone, Copy)]
struct Stream {
    channel: u32,
    bank: u32,
    rank: u32,
    base_row: u32,
    row: u32,
    col: u32,
}

/// Deterministic trace generator: an endless [`Iterator`] of records.
/// Identical `(spec, seed)` inputs produce identical record streams, so
/// the first `n` records of a [`stream`](Self::stream) equal those of
/// [`generate(n)`](Self::generate).
///
/// # Examples
///
/// ```
/// use nuat_workloads::{by_name, TraceGenerator};
/// use nuat_types::DramGeometry;
///
/// let spec = by_name("libq").expect("Table 2 workload");
/// let trace = TraceGenerator::new(spec, DramGeometry::default(), 7).generate(500);
/// assert_eq!(trace.mem_ops(), 500);
/// assert!((trace.mpki() - spec.mpki).abs() / spec.mpki < 0.3);
///
/// let lazy = TraceGenerator::new(spec, DramGeometry::default(), 7).stream(500);
/// assert_eq!(lazy.mem_ops(), 500);
/// assert!(lazy.eq(trace.records().iter().copied()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    spec: WorkloadSpec,
    geometry: DramGeometry,
    rng: StdRng,
    streams: Vec<Stream>,
    generated: usize,
    /// Compute gap of a burst's first access beyond `gap_in_burst`.
    long_gap: u32,
    /// Accesses left in the current burst; `burst_len` when the next
    /// access starts a burst.
    in_burst_left: usize,
}

impl TraceGenerator {
    /// Creates a generator for `spec` against the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(spec: WorkloadSpec, geometry: DramGeometry, seed: u64) -> Self {
        geometry.validate().expect("invalid geometry");
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(spec.name));
        let rows = geometry.rows_per_bank as u32;
        let streams = (0..spec.streams)
            .map(|i| {
                // Spread streams channel-first, then across banks and
                // ranks, so multi-channel systems see balanced load.
                let channel = (i as u32) % geometry.channels as u32;
                let j = (i as u32) / geometry.channels as u32;
                let bank = j % (geometry.banks_per_rank as u32);
                let rank = (j / geometry.banks_per_rank as u32) % geometry.ranks_per_channel as u32;
                let base_row = rng.gen_range(0..rows.saturating_sub(spec.footprint_rows).max(1));
                Stream {
                    channel,
                    bank,
                    rank,
                    base_row,
                    row: base_row,
                    col: 0,
                }
            })
            .collect();
        let burst_len = spec.burst_len.max(1) as usize;
        // The long gap between bursts restores the target mean:
        // burst_len accesses at gap_in_burst + one long gap.
        let in_burst = spec.gap_in_burst as f64;
        let long_gap = ((spec.mean_gap() - in_burst) * burst_len as f64)
            .max(0.0)
            .round() as u32;
        TraceGenerator {
            spec,
            geometry,
            rng,
            streams,
            generated: 0,
            long_gap,
            in_burst_left: burst_len,
        }
    }

    /// Collects the next `mem_ops` records into a trace. Successive calls
    /// continue the same stream.
    pub fn generate(&mut self, mem_ops: usize) -> Trace {
        Trace::new(
            self.by_ref().take(mem_ops).collect(),
            self.spec.gap_in_burst,
        )
    }

    /// The next `mem_ops` records as a trace a core reads on demand: the
    /// records [`generate(mem_ops)`](Self::generate) would collect, made
    /// one at a time as fetch reaches them.
    pub fn stream(self, mem_ops: usize) -> GeneratedTrace {
        GeneratedTrace {
            generator: self,
            mem_ops: mem_ops as u64,
            left: mem_ops,
        }
    }

    fn locality(&self) -> f64 {
        if !self.spec.phased {
            return self.spec.row_locality;
        }
        // Alternate around the nominal locality: a tight streaming phase
        // and a scattered phase (Fig. 19(b)'s non-bursting pattern).
        // The swing is what produces the paper's large open-vs-close
        // hit-rate gap for leslie (0.65 vs 0.28) and the PHRC lag.
        if (self.generated / PHASE_LEN).is_multiple_of(2) {
            (self.spec.row_locality + 0.26).min(0.98)
        } else {
            (self.spec.row_locality - 0.60).max(0.02)
        }
    }

    fn next_address(&mut self) -> nuat_types::PhysAddr {
        let idx = self.rng.gen_range(0..self.streams.len());
        let locality = self.locality();
        let cols = self.geometry.cols_per_row as u32;
        let rows = self.geometry.rows_per_bank as u32;
        let s = &mut self.streams[idx];
        if self.rng.gen_bool(locality) {
            // Stay in the row, advance the column.
            s.col = (s.col + 1) % cols;
        } else {
            // Jump to a new row in the stream's region.
            let span = self.spec.footprint_rows.max(1);
            s.row = (s.base_row + self.rng.gen_range(0..span)) % rows;
            s.col = self.rng.gen_range(0..cols);
        }
        let decoded = DecodedAddr {
            channel: Channel::new(s.channel),
            rank: Rank::new(s.rank),
            bank: Bank::new(s.bank),
            row: Row::new(s.row),
            col: Col::new(s.col),
        };
        self.geometry
            .encode(decoded, AddressMapping::OpenPageBaseline)
            .expect("stream coordinates are in range")
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let burst_len = self.spec.burst_len.max(1) as usize;
        let gap = if self.in_burst_left == burst_len {
            // First access of a burst carries the long compute gap.
            self.long_gap + self.spec.gap_in_burst
        } else {
            self.spec.gap_in_burst
        };
        self.in_burst_left -= 1;
        if self.in_burst_left == 0 {
            self.in_burst_left = burst_len;
        }

        let op = if self.rng.gen_bool(self.spec.read_fraction) {
            MemOp::Read
        } else {
            MemOp::Write
        };
        let addr = self.next_address();
        self.generated += 1;
        Some(TraceRecord { gap, op, addr })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// A generated trace of fixed length that makes each record when a core
/// fetches it ([`TraceGenerator::stream`]). It holds the generator's
/// state, not the records, so its size does not depend on its length.
/// Cloning it before it is read gives a second copy of the same trace.
#[derive(Debug, Clone)]
pub struct GeneratedTrace {
    generator: TraceGenerator,
    mem_ops: u64,
    left: usize,
}

impl GeneratedTrace {
    /// Memory operations in the whole trace.
    pub fn mem_ops(&self) -> u64 {
        self.mem_ops
    }
}

impl Iterator for GeneratedTrace {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.generator.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl TraceSource for GeneratedTrace {
    fn tail_gap(&self) -> u32 {
        self.generator.spec.gap_in_burst
    }
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, so each workload gets a distinct deterministic stream.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_name;
    use std::collections::HashSet;

    fn geometry() -> DramGeometry {
        DramGeometry::default()
    }

    fn gen(name: &str, seed: u64, n: usize) -> Trace {
        TraceGenerator::new(by_name(name).unwrap(), geometry(), seed).generate(n)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = gen("ferret", 1, 500);
        let b = gen("ferret", 1, 500);
        assert_eq!(a, b);
        let c = gen("ferret", 2, 500);
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn mpki_matches_spec_within_tolerance() {
        for name in ["comm1", "libq", "black", "MT-fluid"] {
            let spec = by_name(name).unwrap();
            let t = gen(name, 7, 4000);
            let rel = (t.mpki() - spec.mpki).abs() / spec.mpki;
            assert!(
                rel < 0.25,
                "{name}: trace mpki {} vs spec {}",
                t.mpki(),
                spec.mpki
            );
        }
    }

    #[test]
    fn read_fraction_matches_spec() {
        let spec = by_name("mummer").unwrap();
        let t = gen("mummer", 3, 5000);
        let frac = t.reads() as f64 / t.mem_ops() as f64;
        assert!((frac - spec.read_fraction).abs() < 0.05);
    }

    #[test]
    fn locality_orders_row_reuse() {
        // libq (locality .88) must reuse rows much more than ferret (.18).
        // Row changes are tracked per bank: exactly what an open-page
        // row buffer would see.
        let libq = row_changes(&gen("libq", 11, 3000));
        let ferret = row_changes(&gen("ferret", 11, 3000));
        assert!(
            libq * 2 < ferret,
            "libq row changes {libq} must be well below ferret {ferret}"
        );
    }

    #[test]
    fn streams_spread_across_banks() {
        let t = gen("MT-canneal", 5, 2000);
        let g = geometry();
        let banks: HashSet<u32> = t
            .records()
            .iter()
            .map(|r| {
                g.decode(r.addr, AddressMapping::OpenPageBaseline)
                    .bank
                    .raw()
            })
            .collect();
        assert!(banks.len() >= 6, "16 streams must cover most of 8 banks");
    }

    /// Per-bank row changes: what an open-page row buffer would see.
    fn row_changes_slice(records: &[TraceRecord]) -> usize {
        let g = geometry();
        let mut last: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
        let mut c = 0;
        for r in records {
            let d = g.decode(r.addr, AddressMapping::OpenPageBaseline);
            if last.insert(d.bank.raw(), d.row.raw()) != Some(d.row.raw()) {
                c += 1;
            }
        }
        c
    }

    fn row_changes(t: &Trace) -> usize {
        row_changes_slice(t.records())
    }

    #[test]
    fn phased_workload_alternates_locality() {
        let t = gen("leslie", 9, 4 * PHASE_LEN);
        // Count row changes separately in the first and second phase.
        let tight = row_changes_slice(&t.records()[0..PHASE_LEN]);
        let scattered = row_changes_slice(&t.records()[PHASE_LEN..2 * PHASE_LEN]);
        assert!(
            tight * 2 < scattered,
            "phase 0 ({tight} changes) must be tighter than phase 1 ({scattered})"
        );
    }

    #[test]
    fn addresses_stay_in_the_configured_capacity() {
        let g = geometry();
        let t = gen("comm3", 13, 2000);
        for r in t.records() {
            assert!(r.addr.raw() < g.capacity_bytes());
        }
    }
}
