//! Building a device allocates no state per row.
//!
//! The charge validator records the latest `REF` of each refresh batch
//! position and the latest `ACT` of each row it has opened, so
//! `DramDevice::new` writes one slot per batch and one page-index entry
//! per 512 rows. This binary counts live heap bytes through the
//! `heap_count` allocator and holds a device of 4 ranks × 64 banks ×
//! 32,768 rows under 1 MiB; a table with one `i64` per row would take
//! 64 MiB there. The file has a single test, so no other test's
//! allocations land in the count.

use nuat_dram::DramDevice;
use nuat_types::DramConfig;

mod heap_count;

#[test]
fn device_construction_allocates_nothing_per_row() {
    const CAP: usize = 1 << 20;
    let mut cfg = DramConfig::default();
    cfg.geometry.ranks_per_channel = 4;
    cfg.geometry.banks_per_rank = 64;
    cfg.geometry.rows_per_bank = 32_768;
    let base = heap_count::live();
    let _device = DramDevice::new(cfg);
    let held = heap_count::live() - base;
    assert!(
        held < CAP,
        "DramDevice::new holds {held} B at 4 ranks x 64 banks x 32,768 rows (cap: {CAP} B)"
    );
}
