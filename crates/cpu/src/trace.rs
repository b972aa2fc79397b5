//! Instruction traces in the USIMM style: a stream of memory operations,
//! each preceded by a count of non-memory instructions.
//!
//! A core reads its trace once, front to back, through a
//! [`TraceSource`]. A materialized [`Trace`] is one source (through its
//! [`IntoIterator`] impl); a generator that makes each record when the
//! core asks for it is another, and holds no record the core has not
//! reached.

use nuat_types::PhysAddr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Memory operation kind, as seen by the processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOp {
    /// A demand load; blocks retirement until data returns.
    Read,
    /// A writeback; posted to the controller's write queue.
    Write,
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemOp::Read => write!(f, "R"),
            MemOp::Write => write!(f, "W"),
        }
    }
}

/// One trace record: `gap` non-memory instructions followed by one
/// memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Non-memory instructions fetched before this memory operation.
    pub gap: u32,
    /// The memory operation.
    pub op: MemOp,
    /// Its physical address.
    pub addr: PhysAddr,
}

/// The records of a per-core trace, read once in program order, then
/// the non-memory instructions after the last one.
///
/// `Core` keeps one record of lookahead and never revisits a record, so
/// a source may make its records on demand.
pub trait TraceSource: Iterator<Item = TraceRecord> + fmt::Debug + Send {
    /// Non-memory instructions after the last memory operation.
    fn tail_gap(&self) -> u32;
}

/// A complete per-core instruction trace, held in memory: what a trace
/// file, a test or an analysis works with. A core reads it through
/// [`IntoIterator`], the same way as a trace generated on demand.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
    /// Non-memory instructions after the last memory operation.
    tail_gap: u32,
}

impl Trace {
    /// Builds a trace from records plus a trailing non-memory gap.
    pub fn new(records: Vec<TraceRecord>, tail_gap: u32) -> Self {
        Trace { records, tail_gap }
    }

    /// Drains `source` into memory.
    pub fn from_source(mut source: impl TraceSource) -> Self {
        let records = source.by_ref().collect();
        Trace::new(records, source.tail_gap())
    }

    /// The records in program order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Non-memory instructions after the last memory operation.
    pub fn tail_gap(&self) -> u32 {
        self.tail_gap
    }

    /// Total instructions (memory + non-memory).
    pub fn total_instructions(&self) -> u64 {
        self.records.iter().map(|r| r.gap as u64 + 1).sum::<u64>() + self.tail_gap as u64
    }

    /// Number of memory operations.
    pub fn mem_ops(&self) -> u64 {
        self.records.len() as u64
    }

    /// Number of reads.
    pub fn reads(&self) -> u64 {
        self.records.iter().filter(|r| r.op == MemOp::Read).count() as u64
    }

    /// Memory operations per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        let total = self.total_instructions();
        if total == 0 {
            0.0
        } else {
            self.mem_ops() as f64 * 1000.0 / total as f64
        }
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            records: self.records.into_iter(),
            tail_gap: self.tail_gap,
        }
    }
}

/// A [`Trace`] as a [`TraceSource`].
#[derive(Debug, Clone)]
pub struct IntoIter {
    records: std::vec::IntoIter<TraceRecord>,
    tail_gap: u32,
}

impl Iterator for IntoIter {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        self.records.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl TraceSource for IntoIter {
    fn tail_gap(&self) -> u32 {
        self.tail_gap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Trace {
        Trace::new(
            vec![
                TraceRecord {
                    gap: 9,
                    op: MemOp::Read,
                    addr: PhysAddr::new(0x40),
                },
                TraceRecord {
                    gap: 0,
                    op: MemOp::Write,
                    addr: PhysAddr::new(0x80),
                },
                TraceRecord {
                    gap: 4,
                    op: MemOp::Read,
                    addr: PhysAddr::new(0xc0),
                },
            ],
            5,
        )
    }

    #[test]
    fn counts() {
        let t = trace();
        assert_eq!(t.total_instructions(), (9 + 1) + 1 + 4 + 1 + 5);
        assert_eq!(t.mem_ops(), 3);
        assert_eq!(t.reads(), 2);
    }

    #[test]
    fn mpki() {
        let t = trace();
        assert!((t.mpki() - 3.0 * 1000.0 / 21.0).abs() < 1e-9);
        assert_eq!(Trace::new(vec![], 0).mpki(), 0.0);
    }

    #[test]
    fn a_trace_drained_as_a_source_is_itself() {
        let t = trace();
        assert_eq!(Trace::from_source(t.clone().into_iter()), t);
    }
}
