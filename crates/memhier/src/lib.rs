//! # hsw-memhier — ring interconnect and memory bandwidth
//!
//! Two layers:
//!
//! * [`bandwidth`]: the analytic read-bandwidth model behind paper
//!   Figures 7 and 8 — per-generation core-side and uncore-side service
//!   terms that reproduce who scales with what: Haswell's L3 follows the
//!   core clock and flattens, its DRAM saturates at 8 cores and becomes
//!   core-frequency independent, Sandy Bridge's DRAM tracks the core clock
//!   because the uncore is core-coupled, Westmere's fixed uncore decouples
//!   both.
//! * [`ring`]: a message-level simulator of the partitioned ring
//!   interconnect (paper Figure 1) with the buffered inter-partition
//!   queues. Its tests check `DieLayout::mean_ring_hops`, which Figure 1
//!   reports, against this structural model.
//!
//! ## Snapshot coverage
//!
//! The node model consumes only this crate's *analytic* surface
//! ([`dram_read_bandwidth_gbs`] and friends), which is stateless — so
//! `hsw-node`'s warm-start snapshots need nothing from here. The ring
//! simulator holds state but is test-local scratch, never part of a
//! `Node`.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod bandwidth;
pub mod ring;

pub use bandwidth::{dram_read_bandwidth_gbs, l3_read_bandwidth_gbs, MemoryLevel};
pub use ring::{Delivery, RingNetwork, Stop};
