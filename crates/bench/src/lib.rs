//! # hsw-bench — the benchmark harness that regenerates the paper
//!
//! Criterion bench targets over the survey and the layers under it:
//!
//! * `benches/experiments.rs` — every registered experiment on both
//!   platforms, through the same `SurveyExperiment::run` the survey calls,
//! * `benches/ablations.rs` — design-choice ablations called out in
//!   DESIGN.md (EET on/off, UFS schedule vs. pinned uncore, PCPS vs.
//!   chip-wide p-states, RAPL DRAM mode 0 vs. 1) and a simulator
//!   throughput measurement,
//! * `benches/survey.rs`, `sweep.rs`, `warmstart.rs`, `engine.rs`,
//!   `fleet.rs`, `analytic.rs`, `micro.rs` — the survey runner, the sweep
//!   executor, the time engines, the fleet and surrogate tiers, and
//!   per-component micro benches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::Value;

/// A counting wrapper around the system allocator for allocation-count
/// regression tests (e.g. "the socket tick hot loop must not allocate").
/// Install it with `#[global_allocator]` in a dedicated test binary, then
/// bracket the measured region with [`CountingAlloc::reset`] and
/// [`CountingAlloc::allocs`]. Counters are process-global and relaxed —
/// good enough for single-threaded regression bounds, not for profiling.
pub struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

impl CountingAlloc {
    /// Zero both counters.
    pub fn reset() {
        ALLOC_CALLS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
    }

    /// Allocation calls (alloc, alloc_zeroed, and growing reallocs) since
    /// the last reset.
    pub fn allocs() -> u64 {
        ALLOC_CALLS.load(Ordering::Relaxed)
    }

    /// Bytes requested since the last reset.
    pub fn bytes() -> u64 {
        ALLOC_BYTES.load(Ordering::Relaxed)
    }
}

// SAFETY: pure pass-through to `System` — every pointer/layout contract is
// forwarded unchanged, the counters are side-effect-only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same layout handed to `System.alloc`; counting has no effect
    // on the returned allocation.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: caller guarantees `ptr`/`layout` came from this allocator,
    // which always means `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: same layout handed to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    // SAFETY: caller's `ptr`/`layout`/`new_size` contract is forwarded
    // verbatim to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Print a banner followed by a reproduced artifact exactly once per
/// process (Criterion calls the closure many times).
pub fn print_once(tag: &'static str, render: impl FnOnce() -> String) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static PRINTED: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let set = PRINTED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut guard = set.lock().unwrap();
    if guard.insert(tag) {
        println!("\n===== {tag} =====\n{}", render());
    }
}

/// One timed variant of a bench: a label, its wall time, and the
/// order-sensitive digest of the values it produced (so a report also
/// records *what* was computed, not just how fast).
#[derive(Debug, Clone)]
pub struct BenchVariant {
    pub name: String,
    pub wall_ms: f64,
    pub digest: f64,
}

impl BenchVariant {
    pub fn new(name: impl Into<String>, wall_s: f64, digest: f64) -> Self {
        BenchVariant {
            name: name.into(),
            wall_ms: wall_s * 1e3,
            digest,
        }
    }
}

/// Write `BENCH_<name>.json` at the repository root: the bench id plus one
/// entry per variant with wall milliseconds and result digest. Wall time
/// is inherently non-deterministic — these reports are bench artifacts,
/// deliberately separate from the byte-stable `survey.json`.
pub fn write_report(name: &str, variants: &[BenchVariant]) -> std::path::PathBuf {
    let doc = Value::Object(vec![
        ("bench".to_string(), Value::Str(name.to_string())),
        (
            "variants".to_string(),
            Value::Array(
                variants
                    .iter()
                    .map(|v| {
                        Value::Object(vec![
                            ("name".to_string(), Value::Str(v.name.clone())),
                            ("wall_ms".to_string(), Value::Float(v.wall_ms)),
                            ("digest".to_string(), Value::Float(v.digest)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut json = serde_json::to_string_pretty(&doc).expect("bench report serialization");
    json.push('\n');
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, json).expect("write bench report");
    path
}
