//! Allocation-count regression bound on the socket tick hot loop.
//!
//! `Socket::tick` used to clone the `SkuSpec` (three `Vec`s) every tick;
//! the SoA core planes and the reusable `TickScratch` removed that, along
//! with the per-tick duty/electrical/counter-rate vectors. This test pins
//! the result: a settled, fully loaded node must advance without allocator
//! traffic. `PcuController::solve` allocates nothing either: its grant is
//! `Copy`, it prices cores as two runs instead of a per-core array, and its
//! bisection memo is a fixed stack table. The settled loop measures 0
//! allocations over the 10,000 ticks below; the bound (0.2/tick) still
//! keeps a per-tick clone (3+/tick) from coming back.

use hsw_bench::CountingAlloc;
use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::{Node, NodeConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn settled_tick_loop_is_allocation_free() {
    let mut node = Node::new(NodeConfig::paper_default().with_seed(7));
    for s in 0..2 {
        node.run_on_socket(s, &WorkloadProfile::compute(), 12, 2);
    }
    node.set_setting_all(FreqSetting::from_mhz(2200));
    // Settle: first ticks legitimately allocate (counter-rate plane,
    // transition log, scratch growth); steady state must not.
    node.advance_s(0.5);

    CountingAlloc::reset();
    node.advance_s(0.2); // 10_000 ticks at the default 20 µs step
    let allocs = CountingAlloc::allocs();

    let ticks = 10_000u64;
    let per_tick = allocs as f64 / ticks as f64;
    assert!(
        per_tick < 0.2,
        "settled tick loop allocated {allocs} times over {ticks} ticks \
         ({per_tick:.3}/tick; bound 0.2/tick)"
    );
}
