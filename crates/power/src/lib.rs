//! # hsw-power — electrical models of the simulated node
//!
//! Implements the power side of the survey:
//!
//! * [`components`]: the package power model (per-core dynamic + leakage,
//!   uncore, AVX multiplier, per-socket efficiency variation) and the DRAM
//!   power model, using the calibration coefficients from `hsw-hwspec`.
//! * [`psu`]: the nonlinear power-supply loss curve and constant node loads
//!   (fans at maximum, mainboard), designed so the true AC power of the test
//!   node follows the paper's published quadratic AC-vs-RAPL relation.
//! * [`meter`]: the ZES ZIMMER LMG450 reference meter model — 20 Sa/s with
//!   0.07 % + 0.23 W accuracy (paper Section III / Table II).
//! * [`temperature`]: a first-order thermal RC model (die temperature and
//!   PROCHOT) behind the digital readout in `IA32_THERM_STATUS`. It feeds
//!   nothing back into power: the socket-0-vs-socket-1 asymmetry the paper
//!   remarks on (Section III) comes from `calib::SOCKET_POWER_EFFICIENCY`.
//! * [`rapl`]: RAPL engines. Haswell-EP integrates *measured* energy
//!   (paper Fig. 2b); Sandy Bridge-EP applies a per-workload-class model
//!   bias (paper Fig. 2a). Includes the DRAM mode 0 / mode 1 distinction of
//!   paper Section IV.
//!
//! ## Snapshot coverage
//!
//! Every stateful type here ([`RaplEngine`], [`ThermalState`]) is plain
//! data and `Clone`, so `hsw-node`'s warm-start snapshots capture them
//! wholesale — no per-field snapshot companion is needed. The [`Lmg450`]
//! meter is the exception by design: it holds no mutable state (samples
//! are keyed by seed and instant), so forks rebuild it from the fork seed
//! instead of restoring it.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod components;
pub mod meter;
pub mod psu;
pub mod rapl;
pub mod temperature;

pub use components::{
    dram_power_w, package_power_of_runs, package_power_w, CoreElecState, PackagePower,
};
pub use meter::Lmg450;
pub use psu::NodePowerModel;
pub use rapl::{DramRaplMode, ModelBias, RaplEngine};
pub use temperature::{ThermalParams, ThermalState};
