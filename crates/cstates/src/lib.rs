//! # hsw-cstates — processor idle states and wake-up latencies
//!
//! Implements the ACPI processor power-state machinery of the simulated
//! node: core C-states (C0/C1/C3/C6), package C-states (PC0/PC2/PC3/PC6),
//! the wake-up-latency model calibrated to paper Figures 5/6 and
//! Section VI-B, a menu-style OS governor driven by the (inaccurate) ACPI
//! tables with statistics of how its choices compare to the hindsight
//! optimum, and the cross-socket package-state coupling the paper observed
//! ("these states are not used when there is still any core active in the
//! system—even if this core is located on the other processor").
//!
//! ## Snapshot coverage
//!
//! The node-resident c-state picture is just [`CoreCState`]/[`PkgCState`]
//! values (both `Copy`), which `hsw-node`'s warm-start snapshots capture
//! directly; residency counters live in the MSR bank and travel with its
//! snapshot. [`select_core_state`] and [`resolve_package_state`] are pure
//! functions of that state, so nothing else needs capturing here.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod governor;
pub mod latency;
pub mod residency;
pub mod state;

pub use governor::{fill_core_states, resolve_package_state, select_core_state};
pub use latency::{wake_latency_us, WakeScenario};
pub use residency::{GovernorStats, IdleEpisode};
pub use state::{CoreCState, PkgCState};
