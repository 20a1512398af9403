//! # hsw-fleet — manufacturing variation for fleet-scale simulation
//!
//! The paper surveys one chip; Schuchart et al. ("The Shift from Processor
//! Power Consumption to Performance Variations") show what happens when the
//! same SKU is deployed by the hundreds: under a package power cap,
//! nominally identical processors converge in *power* and diverge in
//! *performance*, because the cap turns chip-to-chip electrical spread into
//! frequency spread. Hofmann et al. (arXiv:1702.07554) quantify the
//! underlying per-chip variation.
//!
//! This crate is the variation layer over `hsw-hwspec`: a documented
//! distribution model ([`VariationModel`]), the per-chip draw
//! ([`ChipVariation`]) sampled through the keyed [`DomainNoise`] stream
//! (`domain::FLEET`), the spec transformation that turns a nominal
//! [`NodeSpec`](hsw_hwspec::NodeSpec) into one concrete manufactured unit,
//! and the NaN-free spread statistics ([`Spread`]) the fleet experiments
//! report. The fleet *executor* — golden-node warmup plus per-node snapshot
//! forking — lives in `haswell_survey::survey` next to the other sweep
//! executors; this crate holds everything that is a property of a chip
//! rather than of the harness.
//!
//! Determinism contract: a chip's variation is a pure function of its node
//! seed (itself `mix_seed`-derived from the experiment base and the node
//! id), never of pool width, `--jobs`, or sampling order — so a fleet is
//! byte-identical however it is scheduled.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod stats;
pub mod variation;

pub use stats::Spread;
pub use variation::{ChipVariation, VariationModel};

// Re-exported so executor code can key fleet draws without importing
// hsw-hwspec directly.
pub use hsw_hwspec::clock::{domain, DomainNoise};
