//! # hsw-hwspec — hardware specifications for the Haswell energy-efficiency survey
//!
//! This crate is the single source of truth for every architectural parameter
//! used by the simulator and the experiments: CPU generations and their
//! energy-management properties, die layouts and ring-interconnect topology
//! (paper Figure 1), frequency/turbo/AVX tables, cache and memory geometry,
//! voltage/frequency curve specifications, ACPI latency tables, and the
//! calibration constants derived from the paper's published measurements.
//!
//! Nothing in this crate has behavior beyond pure data and small derived
//! queries; the mechanisms that *use* these specifications live in `hsw-pcu`,
//! `hsw-power`, `hsw-cstates`, `hsw-memhier` and `hsw-node`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod acpi;
pub mod calib;
pub mod clock;
pub mod die;
pub mod epb;
pub mod freq;
pub mod generation;
pub mod memcfg;
pub mod microarch;
pub mod policy;
pub mod product_line;
pub mod sku;
pub mod vf;

pub use acpi::{AcpiCState, AcpiLatencyTable};
pub use clock::{mix_seed, DomainNoise, Ns};
pub use die::{DieLayout, RingPartition};
pub use epb::EpbClass;
pub use freq::{FrequencyTable, PState, MHZ_PER_RATIO};
pub use generation::{CpuGeneration, PStateTransitionMode, RaplMode, UncoreClockSource};
pub use memcfg::MemSpec;
pub use microarch::{BwParams, MicroArch};
pub use policy::{
    CStateExitPolicy, FirmwarePolicy, LicensePolicy, PStatePolicy, RaplPolicy, UncorePolicy,
    VrPolicy,
};
pub use product_line::{e5_2600_v3_line, haswell_ep_sku};
pub use sku::{CacheSpec, NodeSpec, SkuSpec};
pub use vf::VfCurveSpec;
