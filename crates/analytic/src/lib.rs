//! # hsw-analytic — closed-form surrogate for the node simulator
//!
//! The survey's sweeps pay a simulated settle per point even though, at
//! steady state, the simulator's operating point is the fixed point of a
//! small set of firmware control laws. Hofmann/Hager (arXiv:1803.01618)
//! show that exactly this class of sweep — frequency/concurrency ladders of
//! a constant workload — is answered well by an analytic ECM-style model;
//! their Skylake-SP follow-up (arXiv:1905.12468) covers the second platform
//! this repo simulates. This crate is that model, parameterized from the
//! same [`SkuSpec`](hsw_hwspec::SkuSpec) the simulator runs on, so both
//! generations (and every fleet-varied chip in between) come for free.
//!
//! ## The model
//!
//! Package power is the simulator's own electrical composition
//! (`hsw-power`, paper Sections III/IV):
//!
//! ```text
//! P(f_c, f_u) = P_base
//!             + mult · Σ_cores  leak · V(f_c)²                    (static)
//!             + mult · Σ_active dyn  · V(f_c)² · f_c · a · avx    (dynamic)
//!             + mult · unc · V_u(f_u)² · f_u                      (uncore)
//! ```
//!
//! and the runtime side is the workload's IPC law `ipc(f_c, f_u)` times the
//! granted core clock and mean duty factor. The *grant* comes from the PCU
//! equilibrium solver itself ([`hsw_pcu::PcuController::solve`]): the
//! ceiling logic (turbo bins, AVX license, EET, EPB turbo-at-base), the
//! damped core/uncore fixed-point iteration against the RAPL budget, and the
//! stall-driven uncore boost. The solver prices cores as runs of identical
//! cores, memoizes its bisections within a solve and settles each one by
//! pricing a handful of whole-MHz frequencies around the power threshold
//! rather than all 24 midpoints, so one point costs microseconds instead of
//! a simulated settle, and the surrogate's grant is the simulator's grant
//! for the same inputs by construction.
//!
//! What the closed form adds over the solver is the steady limiter state.
//! The two-level RAPL limiter grants `e · clamp(2·TDP − avg, 0.9·TDP,
//! PL2·TDP)` and the running average converges to `g · (P + H)` (metering
//! trim `g`, idle housekeeping `H`), so the steady granted power solves
//!
//! ```text
//! P* = e · clamp(2·TDP − g·(P* + H), 0.9·TDP, PL2·TDP)
//! ```
//!
//! which this crate solves in closed form ([`steady_avg_pkg_w`]) and feeds
//! back as the solver's `avg_pkg_w` input. Monotonicity of power in both
//! frequencies makes the single resulting solve exact in *all* regimes:
//! power-limited points land on `P*` by construction, and unlimited points
//! take the solver's early-return paths, which are budget-insensitive.
//!
//! ## Where the model is wrong — on purpose
//!
//! The surrogate reproduces arXiv:1803.01618's conclusions about where
//! analytic models break, and the `analytic_accuracy` experiment measures
//! exactly these:
//!
//! * **C-state transients / idle packages**: the model prices an idle core
//!   at its steady C6 residency and omits the package-c-state uncore
//!   residual and wake transients, so idle and mostly-idle points diverge.
//! * **Duty-cycle transients**: periodic workloads enter as their long-run
//!   [`mean_factor`](hsw_exec::workloads::DutyCycle::mean_factor); finite
//!   measurement windows that cut a period mid-cycle disagree.
//! * **RAPL-capped regions**: the simulator's limiter average converges
//!   exponentially and dithers across frequency bins; the model reports the
//!   fixed point it converges *to*, so short settles under a tight cap show
//!   the largest (still small) error.
//!
//! Determinism: this crate is pure arithmetic over its inputs — no clocks,
//! no RNG, no hashing — so surrogate results are byte-identical at any
//! `--jobs`/pool width by construction. Fleet variation reuses
//! [`ChipVariation::apply`](hsw_fleet::ChipVariation::apply), keeping a
//! chip's analytic identity equal to its simulated identity.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod model;

pub use model::{
    steady_avg_pkg_w, AnalyticModel, NodePrediction, OperatingPoint, SocketPrediction,
};
