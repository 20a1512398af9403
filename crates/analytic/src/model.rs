//! The closed-form steady-state model: the PCU equilibrium solve itself,
//! fed with the RAPL limiter's analytic fixed point.
//!
//! See the crate docs for the model equations and the error model. A
//! prediction builds the same [`PcuInputs`] the simulated socket would at
//! steady state and calls [`PcuController::solve`]; what this module adds is
//! only what the controller lacks: the limiter's steady running average
//! ([`steady_avg_pkg_w`]), EET's steady limit, and the assembly of grants
//! into per-socket predictions.

use hsw_exec::workloads::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{calib, EpbClass, NodeSpec, SkuSpec};
use hsw_pcu::{epb_budget_factor, EetController, PcuController, PcuInputs};

use hsw_fleet::ChipVariation;

/// One point of the operating envelope: which workload runs how wide, under
/// which OS frequency/EPB policy. Power caps are expressed the way the
/// simulator expresses them — as the spec's TDP (see
/// [`AnalyticModel::with_cap_w`]).
#[derive(Debug, Clone)]
pub struct OperatingPoint<'a> {
    pub profile: &'a WorkloadProfile,
    pub setting: FreqSetting,
    pub epb: EpbClass,
    /// `IA32_MISC_ENABLE[38]` turbo disengage (inverted).
    pub turbo_enabled: bool,
    /// Cores running the workload per socket (the remainder idles in C6).
    pub active_cores: usize,
    /// Both hardware threads of each active core loaded.
    pub smt: bool,
}

impl<'a> OperatingPoint<'a> {
    /// The common case: `cores` cores active under turbo with balanced EPB.
    pub fn new(profile: &'a WorkloadProfile, setting: FreqSetting, active_cores: usize) -> Self {
        OperatingPoint {
            profile,
            setting,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores,
            smt: false,
        }
    }
}

/// Steady-state prediction for one socket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SocketPrediction {
    /// Granted core frequency in GHz (time-averaged, like the PCU grant).
    pub core_ghz: f64,
    /// Granted uncore frequency in GHz.
    pub uncore_ghz: f64,
    /// Retired instruction rate of one loaded hardware thread in GIPS —
    /// the quantity the survey's `PerfCtr` windows report per thread.
    pub gips: f64,
    /// Package power as the node's RAPL meter would report it (model power
    /// plus idle housekeeping, scaled by the chip's metering trim).
    pub pkg_w: f64,
    /// Whether the TDP limiter constrains this operating point.
    pub power_limited: bool,
}

/// Steady-state prediction for a whole node (one entry per socket).
#[derive(Debug, Clone, PartialEq)]
pub struct NodePrediction {
    pub sockets: Vec<SocketPrediction>,
}

impl NodePrediction {
    /// Total reported package power across sockets (W).
    pub fn node_pkg_w(&self) -> f64 {
        self.sockets.iter().map(|s| s.pkg_w).sum()
    }
}

/// The RAPL limiter's steady running average for a socket granting `P*`:
/// the closed-form fixed point of
/// `P* = e · clamp(2·TDP − g·(P* + H), 0.9·TDP, PL2·TDP)`,
/// returned as the average `g · (P* + H)` the PCU solve reads.
///
/// `housekeeping_w` is the OS idle-housekeeping power the meter sees on top
/// of the modeled package power (`IDLE_PKG_HOUSEKEEPING_W` × idle fraction).
pub fn steady_avg_pkg_w(spec: &SkuSpec, epb: EpbClass, housekeeping_w: f64) -> f64 {
    let t = spec.tdp_w;
    let g = spec.power.rapl_trim_gain;
    let h = housekeeping_w;
    let e = epb_budget_factor(epb);
    let (lo, hi) = (t * 0.9, t * calib::PL2_TDP_MULT);
    // Unclamped fixed point, then a consistency check against the clamp
    // window (the clamp map is monotone decreasing in P*, so exactly one
    // branch is self-consistent).
    let p_unclamped = e * (2.0 * t - g * h) / (1.0 + e * g);
    let x = 2.0 * t - g * (p_unclamped + h);
    let p_star = if x < lo {
        e * lo
    } else if x > hi {
        e * hi
    } else {
        p_unclamped
    };
    g * (p_star + h)
}

/// The closed-form surrogate for one concrete node (nominal or one
/// manufactured unit of a fleet).
#[derive(Debug, Clone)]
pub struct AnalyticModel {
    node: NodeSpec,
    eet_enabled: bool,
}

impl AnalyticModel {
    /// A model of the given node spec (already varied/capped if desired).
    pub fn from_node_spec(node: &NodeSpec, eet_enabled: bool) -> Self {
        AnalyticModel {
            node: node.clone(),
            eet_enabled,
        }
    }

    /// A model of one manufactured unit: the nominal node with `var`
    /// applied through the same [`ChipVariation::apply`] transformation the
    /// fleet executor uses, so a chip's analytic identity is exactly its
    /// simulated identity.
    pub fn for_chip(nominal: &NodeSpec, var: &ChipVariation, eet_enabled: bool) -> Self {
        AnalyticModel {
            node: var.apply(nominal),
            eet_enabled,
        }
    }

    /// Apply a package power cap the way the fleet harness does: by
    /// replacing the enforced TDP.
    pub fn with_cap_w(mut self, cap_w: Option<f64>) -> Self {
        if let Some(cap) = cap_w {
            self.node.sku.tdp_w = cap;
        }
        self
    }

    /// The (possibly varied/capped) node this model answers for.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Predict the steady-state operating point of every socket.
    pub fn predict(&self, pt: &OperatingPoint<'_>) -> NodePrediction {
        let spec = &self.node.sku;
        let duty = pt.profile.duty.mean_factor();
        let active = pt.active_cores.min(spec.cores);
        // Steady state: the governor parks every idle core in C6.
        let gated = spec.cores - active;
        let (activity, stall, avx_level) = if active > 0 {
            (
                pt.profile.activity(pt.smt) * duty,
                pt.profile.stall_fraction,
                u8::from(pt.profile.avx_heavy),
            )
        } else {
            (0.0, 0.0, 0)
        };
        // EET acts on its sporadically polled stall estimate, which at
        // steady state is the duty-weighted stall the socket feeds it.
        let eet_limit_mhz = if self.eet_enabled {
            let mut eet = EetController::new(true);
            eet.tick(0, stall * duty.min(1.0));
            eet.limit_mhz(spec, pt.epb, spec.freq.turbo_mhz(active.max(1)))
        } else {
            u32::MAX
        };
        let housekeeping_w =
            calib::IDLE_PKG_HOUSEKEEPING_W * ((spec.cores - active) as f64 / spec.cores as f64);
        let avg_pkg_w = steady_avg_pkg_w(spec, pt.epb, housekeeping_w);

        let sockets = (0..self.node.sockets)
            .map(|s| {
                let grant = PcuController::solve(&PcuInputs {
                    spec,
                    socket_power_mult: self.node.socket_power_mult[s],
                    setting: pt.setting,
                    epb: pt.epb,
                    turbo_enabled: pt.turbo_enabled,
                    active_cores: active,
                    gated_idle_cores: gated,
                    activity,
                    avx_level,
                    stall_fraction: stall,
                    eet_limit_mhz,
                    avg_pkg_w,
                });
                let core_ghz = grant.core_mhz / 1000.0;
                let uncore_ghz = grant.uncore_mhz / 1000.0;
                let gips = if active > 0 {
                    pt.profile.ipc(pt.smt, core_ghz, uncore_ghz.max(0.1)) * core_ghz * duty
                } else {
                    0.0
                };
                SocketPrediction {
                    core_ghz,
                    uncore_ghz,
                    gips,
                    // What the meter reports: model power plus the OS idle
                    // housekeeping, through the chip's metering trim. The
                    // package-c-state uncore residual and wake transients
                    // are deliberately unmodeled (crate docs).
                    pkg_w: (grant.power_w + housekeeping_w) * spec.power.rapl_trim_gain,
                    power_limited: grant.power_limited,
                }
            })
            .collect();
        NodePrediction { sockets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_fleet::VariationModel;

    fn haswell() -> NodeSpec {
        NodeSpec::paper_test_node()
    }

    fn skylake() -> NodeSpec {
        NodeSpec::skylake_sp_node()
    }

    #[test]
    fn steady_average_is_a_fixed_point_of_the_limiter() {
        for node in [haswell(), skylake()] {
            let spec = &node.sku;
            for epb in [
                EpbClass::Performance,
                EpbClass::Balanced,
                EpbClass::EnergySaving,
            ] {
                for (tdp, h) in [(spec.tdp_w, 0.0), (70.0, 2.1), (40.0, 3.6)] {
                    let mut capped = spec.clone();
                    capped.tdp_w = tdp;
                    let avg = steady_avg_pkg_w(&capped, epb, h);
                    // Granting exactly the budget this average yields must
                    // reproduce the average: avg = g · (budget(avg) + h).
                    let pl_base = (2.0 * tdp - avg).clamp(tdp * 0.9, tdp * calib::PL2_TDP_MULT);
                    let budget = pl_base * epb_budget_factor(epb);
                    let re_avg = capped.power.rapl_trim_gain * (budget + h);
                    assert!(
                        (re_avg - avg).abs() < 1e-9,
                        "{} {epb:?} tdp={tdp}: {avg} vs {re_avg}",
                        spec.model
                    );
                }
            }
        }
    }

    #[test]
    fn firestarter_turbo_lands_on_the_table4_equilibrium() {
        // Paper Table IV: FIRESTARTER at turbo settles near (2.31 GHz core,
        // 2.34 GHz uncore) at exactly the 120 W TDP.
        let model = AnalyticModel::from_node_spec(&haswell(), true);
        let fs = WorkloadProfile::firestarter();
        let pt = OperatingPoint {
            profile: &fs,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 12,
            smt: true,
        };
        let p = model.predict(&pt);
        assert_eq!(p.sockets.len(), 2);
        for s in &p.sockets {
            assert!(s.power_limited, "turbo FIRESTARTER must hit the limiter");
            assert!(
                (2.2..=2.4).contains(&s.core_ghz),
                "core {:.3} GHz",
                s.core_ghz
            );
            assert!((s.pkg_w - 120.0).abs() < 2.0, "pkg {:.1} W", s.pkg_w);
        }
        // Socket 0 is electrically worse, so its capped frequency is lower.
        assert!(p.sockets[0].core_ghz < p.sockets[1].core_ghz);
        assert!((p.node_pkg_w() - 240.0).abs() < 4.0);
    }

    #[test]
    fn firestarter_2100_runs_uncapped_with_boosted_uncore() {
        // Paper Section V-B: at 2.1 GHz FIRESTARTER stays under the TDP and
        // the headroom drives the uncore to its 3.0 GHz maximum.
        let model = AnalyticModel::from_node_spec(&haswell(), true);
        let fs = WorkloadProfile::firestarter();
        let pt = OperatingPoint {
            profile: &fs,
            setting: FreqSetting::from_mhz(2100),
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 12,
            smt: true,
        };
        for s in &model.predict(&pt).sockets {
            assert!((s.core_ghz - 2.1).abs() < 0.01, "core {:.3}", s.core_ghz);
            assert!(
                (s.uncore_ghz - 3.0).abs() < 0.02,
                "uncore {:.3}",
                s.uncore_ghz
            );
            assert!(s.pkg_w < 120.0, "pkg {:.1} W", s.pkg_w);
        }
    }

    #[test]
    fn memory_bound_is_eet_capped_at_base() {
        // Stall 0.85 > 0.60: EET holds the grant at the base frequency for
        // non-performance EPB.
        let node = haswell();
        let mb = WorkloadProfile::memory_bound();
        let pt = OperatingPoint {
            profile: &mb,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 12,
            smt: false,
        };
        let capped = AnalyticModel::from_node_spec(&node, true).predict(&pt);
        assert!(capped.sockets[1].core_ghz <= 2.5 + 1e-9);
        let uncapped = AnalyticModel::from_node_spec(&node, false).predict(&pt);
        assert!(uncapped.sockets[1].core_ghz > capped.sockets[1].core_ghz);
    }

    #[test]
    fn idle_prediction_is_the_passive_floor() {
        let model = AnalyticModel::from_node_spec(&haswell(), true);
        let idle = WorkloadProfile::idle();
        let pt = OperatingPoint {
            profile: &idle,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 0,
            smt: false,
        };
        for s in &model.predict(&pt).sockets {
            assert!((s.core_ghz - 1.2).abs() < 1e-9);
            assert_eq!(s.gips, 0.0);
            assert!(!s.power_limited);
            // Gated cores leak nothing; the passive UFS keeps the uncore up
            // for a Turbo-class setting, so an idle socket still burns tens
            // of watts — the documented idle divergence vs. the simulator's
            // package-sleep residual.
            assert!((8.0..60.0).contains(&s.pkg_w), "idle pkg {:.1}", s.pkg_w);
        }
    }

    #[test]
    fn power_cap_converts_chip_spread_into_frequency_spread() {
        // The Schuchart phenomenology the fleet experiments measure, now in
        // closed form: uncapped chips agree in frequency and differ in
        // power; capped chips agree in power and differ in frequency.
        let nominal = haswell();
        let compute = WorkloadProfile::compute();
        let pt = OperatingPoint::new(&compute, FreqSetting::Turbo, 5);
        let vm = VariationModel::paper_fleet();
        let chips: Vec<_> = (0..24)
            .map(|seed| ChipVariation::sample(&vm, seed))
            .collect();
        let predict = |cap: Option<f64>| -> Vec<SocketPrediction> {
            chips
                .iter()
                .map(|v| {
                    AnalyticModel::for_chip(&nominal, v, true)
                        .with_cap_w(cap)
                        .predict(&pt)
                        .sockets[0]
                })
                .collect()
        };
        let spread = |xs: &[f64]| -> f64 {
            let (lo, hi) = xs
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            (hi - lo) / mean
        };
        let free = predict(None);
        let capped = predict(Some(45.0));
        let f_freq = spread(&free.iter().map(|s| s.core_ghz).collect::<Vec<_>>());
        let f_pow = spread(&free.iter().map(|s| s.pkg_w).collect::<Vec<_>>());
        let c_freq = spread(&capped.iter().map(|s| s.core_ghz).collect::<Vec<_>>());
        let c_pow = spread(&capped.iter().map(|s| s.pkg_w).collect::<Vec<_>>());
        assert!(
            capped.iter().all(|s| s.power_limited),
            "45 W must cap every chip"
        );
        assert!(
            c_freq > f_freq,
            "cap: freq spread {c_freq} vs free {f_freq}"
        );
        assert!(c_pow < f_pow, "cap: power spread {c_pow} vs free {f_pow}");
    }

    #[test]
    fn nominal_chip_model_equals_the_nominal_spec_model() {
        let nominal = haswell();
        let fs = WorkloadProfile::firestarter();
        let pt = OperatingPoint {
            profile: &fs,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 12,
            smt: true,
        };
        let a = AnalyticModel::from_node_spec(&nominal, true).predict(&pt);
        let b = AnalyticModel::for_chip(&nominal, &ChipVariation::nominal(), true).predict(&pt);
        assert_eq!(a, b);
    }

    /// FNV-1a over the little-endian bytes of one 64-bit word.
    fn fnv1a(h: u64, word: u64) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// Every socket prediction for 512 fleet-varied chips on both
    /// platforms, uncapped and at 0.6× and 0.4×TDP, for `compute` on five
    /// cores and FIRESTARTER at full width — the varied, capped chips the
    /// analytic fleet experiments answer.
    fn varied_fleet_digest() -> (u64, usize) {
        let mut h = 0xcbf2_9ce4_8422_2325;
        let mut n = 0;
        let vm = VariationModel::paper_fleet();
        let compute = WorkloadProfile::compute();
        let fs = WorkloadProfile::firestarter();
        for nominal in [haswell(), skylake()] {
            let tdp = nominal.sku.tdp_w;
            let points = [
                OperatingPoint::new(&compute, FreqSetting::Turbo, 5),
                OperatingPoint {
                    smt: true,
                    ..OperatingPoint::new(&fs, FreqSetting::Turbo, nominal.sku.cores)
                },
            ];
            for seed in 0..512u64 {
                let var = ChipVariation::sample(&vm, seed);
                for cap in [None, Some(tdp * 0.6), Some(tdp * 0.4)] {
                    let model = AnalyticModel::for_chip(&nominal, &var, true).with_cap_w(cap);
                    for pt in &points {
                        for s in model.predict(pt).sockets {
                            for w in [
                                s.core_ghz.to_bits(),
                                s.uncore_ghz.to_bits(),
                                s.gips.to_bits(),
                                s.pkg_w.to_bits(),
                                u64::from(s.power_limited),
                            ] {
                                h = fnv1a(h, w);
                            }
                            n += 1;
                        }
                    }
                }
            }
        }
        (h, n)
    }

    #[test]
    fn varied_fleet_predictions_match_the_pinned_digest() {
        // Pinned from the solver that priced every bisection midpoint: the
        // whole-MHz threshold replay must not move a single bit of any
        // varied chip's prediction.
        assert_eq!(varied_fleet_digest(), (0xef32_6237_a473_4d52, 12288));
    }

    #[test]
    fn skylake_predictions_use_the_mesh_envelope() {
        let model = AnalyticModel::from_node_spec(&skylake(), true);
        let compute = WorkloadProfile::compute();
        let pt = OperatingPoint {
            profile: &compute,
            setting: FreqSetting::Turbo,
            epb: EpbClass::Balanced,
            turbo_enabled: true,
            active_cores: 26,
            smt: true,
        };
        for s in &model.predict(&pt).sockets {
            assert!(s.uncore_ghz <= 2.4 + 1e-9, "mesh caps at 2.4 GHz");
            assert!(s.core_ghz <= 2.8 + 1e-9, "26-core turbo bin is 2.8 GHz");
            assert!(s.pkg_w <= 165.0 + 2.0, "pkg {:.1} W", s.pkg_w);
        }
    }
}
