//! # hsw-msr — model-specific register file for the simulated node
//!
//! Implements the MSR surface that the paper's measurement tools touch:
//! `IA32_PERF_CTL`/`IA32_PERF_STATUS` (p-state request/status),
//! `IA32_ENERGY_PERF_BIAS` (EPB), the RAPL register block
//! (`MSR_RAPL_POWER_UNIT`, `MSR_PKG_ENERGY_STATUS`, `MSR_PKG_POWER_LIMIT`,
//! `MSR_DRAM_ENERGY_STATUS`), the `IA32_APERF`/`IA32_MPERF`/TSC clock
//! counters, fixed-function core counters, and the uncore U-box fixed
//! counter (`UNCORE_CLOCK:UBOXFIX` in LIKWID terms, paper Section V-A).
//!
//! The register file is a faithful software model: addresses, bit layouts
//! and read/write semantics (including `#GP` on unknown addresses and on
//! writes to read-only counters) match the Intel SDM, so the re-implemented
//! tools in `hsw-tools` interact with the simulated hardware the same way
//! `likwid`/`ftalat` interact with real hardware.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod addresses;
pub mod device;
pub mod energy;
pub mod fields;
pub mod gate;

pub use device::{MsrBank, MsrError, MsrScope};
pub use energy::EnergyCounter;
pub use gate::{GateError, MsrGate, Permission};
