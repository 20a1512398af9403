//! # hsw-node — the simulated dual-socket compute node
//!
//! Binds the substrates into the paper's test system (Table II): two
//! simulated Xeon E5-2680 v3 packages with per-socket PCU (p-state engine,
//! UFS, AVX licenses, EET, TDP limiter), MSR banks, RAPL engines, c-state
//! governor with cross-socket package-state coupling, the DRAM/bandwidth
//! model, and the node-level electrical path (PSU, fans, LMG450 meter).
//!
//! Time advances through a two-body engine (see [`engine`]): both engine
//! modes subdivide time into identical micro-steps, but the default
//! [`EngineMode::Event`] replaces the full model evaluation with a cheap
//! replay of the continuous integrators on every step that ends before the
//! next discrete event — bit-identical to [`EngineMode::Fixed`], typically
//! several times faster on steady-state experiments.
//!
//! Experiments wire nodes through the [`session`] layer: a [`Platform`]
//! describes the machine once, and [`SessionBuilder`] derives seeded,
//! resolution-classed sessions from it. Workloads are assigned per hardware
//! thread as [`hsw_exec::WorkloadProfile`]s; measurement tools interact
//! with the hardware through [`Node::rdmsr`]/[`Node::wrmsr`] exactly like
//! their real counterparts. [`Node::sockets`] is read-only: no
//! `&mut Socket` leaves this crate, so every mutation goes through a
//! `Node` method.
//!
//! [`Node::snapshot`] captures the whole simulator state as a plain-data
//! [`NodeSnapshot`], and [`Node::restore`] writes all of it back: every
//! restore is a full one. The warm-start sweeps build a fresh node per
//! point and restore the settled image into it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod engine;
pub mod node;
pub mod session;
pub mod socket;
pub mod telemetry;

pub use config::{CpuId, NodeConfig};
pub use engine::{EngineMode, EngineStats};
pub use node::{Node, NodeSnapshot};
pub use session::{Platform, PlatformKind, Resolution, Session, SessionBuilder};
pub use socket::{PlaneMask, Socket, SocketSnapshot};
pub use telemetry::{Snapshot, Trace};
