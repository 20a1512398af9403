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
use hsw_node::{Node, NodeConfig, PlaneMask};

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

#[test]
fn dirty_plane_fork_allocates_less_than_a_node_build() {
    // The scratch-node fork path exists to avoid per-point construction;
    // verify the allocator agrees. A fork of a snapshot into a node that
    // only dirtied its WORK plane must stay well under what constructing
    // and restoring a fresh node costs.
    let cfg = NodeConfig::paper_default().with_seed(7);
    let mut golden = Node::new(cfg.clone());
    golden.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
    golden.advance_s(0.1);
    let snap = golden.snapshot();

    let mut scratch = Node::new(cfg.clone());
    // First fork clears the new node's everything-dirty state; then dirty
    // only the WORK plane, as a settings-sweep point would.
    scratch.fork_from(&snap, 1001);
    scratch.run_on_socket(0, &WorkloadProfile::busy_wait(), 4, 1);

    CountingAlloc::reset();
    scratch.fork_from(&snap, 1002);
    let fork_allocs = CountingAlloc::allocs();

    CountingAlloc::reset();
    let mut fresh = Node::new(cfg.with_seed(1002));
    fresh.restore(&snap);
    let build_allocs = CountingAlloc::allocs();

    assert!(
        fork_allocs * 4 < build_allocs,
        "WORK-plane fork allocated {fork_allocs} times vs {build_allocs} for \
         build+restore — expected under a quarter"
    );
}

#[test]
fn plane_scoped_access_forks_cheaper_than_all_dirty() {
    // `socket_planes_mut(s, MSR)` exists so a caller that only pokes MSRs
    // doesn't pay an ALL-planes restore on the next fork; pin that the
    // allocator sees the difference versus the conservative `socket_mut`.
    let cfg = NodeConfig::paper_default().with_seed(7);
    let mut golden = Node::new(cfg.clone());
    golden.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
    golden.advance_s(0.1);
    let snap = golden.snapshot();

    let mut scratch = Node::new(cfg);
    scratch.fork_from(&snap, 2001); // clear the new node's everything-dirty state

    let epb = hsw_msr::addresses::IA32_ENERGY_PERF_BIAS;
    scratch
        .socket_planes_mut(0, PlaneMask::MSR)
        .msr_store(0, epb, 6)
        .unwrap();
    CountingAlloc::reset();
    scratch.fork_from(&snap, 2002);
    let scoped_allocs = CountingAlloc::allocs();

    scratch.socket_mut(0).msr_store(0, epb, 6).unwrap();
    CountingAlloc::reset();
    scratch.fork_from(&snap, 2003);
    let all_dirty_allocs = CountingAlloc::allocs();

    assert!(
        scoped_allocs < all_dirty_allocs,
        "MSR-scoped fork allocated {scoped_allocs} times vs {all_dirty_allocs} \
         for an ALL-dirty fork — scoping should be cheaper"
    );
}
