//! # hsw-pcu — the Power Control Unit of the simulated processor
//!
//! Implements the firmware mechanisms the paper characterizes:
//!
//! * [`pstate`]: the p-state transition engine — per-core p-state domains
//!   (PCPS) with the ~500 µs opportunity mechanism of paper Figure 4
//!   (all cores of a socket transition together; sockets are independent),
//!   and the immediate mode of earlier generations.
//! * [`ufs`]: uncore frequency scaling — the Table III schedule keyed by the
//!   fastest active core's frequency setting, the EPB=performance override,
//!   the stall-driven raise toward 3.0 GHz, and the passive-socket shadow
//!   schedule.
//! * [`avx`]: the AVX license state machine (voltage raise → reduced
//!   throughput window → AVX base/turbo ceiling → 1 ms relax; paper
//!   Section II-F).
//! * [`eet`]: energy-efficient turbo (1 ms stall polling; paper
//!   Section II-E).
//! * [`controller`]: the TDP enforcement and core/uncore budget balancing
//!   that produces the Table IV equilibria (proportional throttle from the
//!   granted ceilings, leftover budget flowing to the uncore when the
//!   workload stalls on memory).

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod avx;
pub mod controller;
pub mod eet;
pub mod pstate;
pub mod ufs;

pub use avx::AvxLicense;
pub use controller::{epb_budget_factor, PcuController, PcuGrant, PcuInputs};
pub use eet::EetController;
pub use pstate::{PStateEngine, TransitionEvent, TransitionLog, TRANSITION_LOG_CAP};
pub use ufs::{ufs_target_mhz, UfsInputs};
