//! A saturated controller's steady-state cycle loop allocates nothing,
//! refreshes included.
//!
//! `TickScratch` keeps the controller's per-tick buffers, and a `REF`
//! records its batch in the device's refresh history rather than
//! building the list of refreshed rows. This binary counts allocation
//! calls through the `heap_count` allocator while a saturated NUAT
//! controller, warmed up first, runs across at least 16 REFs. The file
//! has a single test, so no other test's allocations land in the count.

use nuat_bench::SaturatedDriver;
use nuat_core::SchedulerKind;
use nuat_types::DramTimings;

mod heap_count;

#[test]
fn saturated_controller_allocates_nothing_across_refreshes() {
    let batch = DramTimings::default().refresh_batch_interval();
    let mut drv = SaturatedDriver::new(SchedulerKind::Nuat, 64, 0);
    // Warm-up: queues, scratch buffers and the device's activation
    // pages reach their high-water sizes.
    drv.step_to(4 * batch);
    let refs = |drv: &SaturatedDriver| drv.controller().device().stats().energy.refreshes;
    let (refs_before, allocs_before) = (refs(&drv), heap_count::allocations());
    drv.step_to(21 * batch);
    let allocs = heap_count::allocations() - allocs_before;
    let refreshed = refs(&drv) - refs_before;
    assert!(
        refreshed >= 16,
        "only {refreshed} REFs in the measured window"
    );
    assert_eq!(
        allocs, 0,
        "the saturated cycle loop allocated {allocs} times across {refreshed} REFs"
    );
}
