//! The mainboard voltage regulator and SVID interface (paper Section II-B).
//!
//! With FIVR on die, the mainboard VR supplies only three lanes: the
//! processor input `VCCin` and two DRAM lanes (`VCCD_01`, `VCCD_23`). The
//! processor commands the input voltage over SVID and "the MBVR supports
//! three different power states which are activated by the processor
//! according to the estimated power consumption" — light-load states trade
//! peak efficiency at high current for better efficiency at low current
//! (phase shedding).
//!
//! The phase-shedding thresholds, nominal rail voltage and legal SVID
//! command range come from the generation's [`hsw_hwspec::VrPolicy`]; the
//! per-state efficiency-curve shapes stay here (they are board, not
//! firmware, properties).

use hsw_hwspec::CpuGeneration;
use serde::{Deserialize, Serialize};

/// The three MBVR power states (full-phase, reduced-phase, light-load).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MbvrPowerState {
    /// All phases active: best efficiency at high load.
    Ps0,
    /// Phases shed: better mid-load efficiency.
    Ps1,
    /// Diode/light-load mode: best at near-idle currents.
    Ps2,
}

/// The supply lanes reaching a Haswell-EP package (paper Section II-B:
/// "only three voltage lanes are attached to the processor", vs. five on
/// previous products).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SupplyLane {
    VccIn,
    VccD01,
    VccD23,
}

impl SupplyLane {
    pub const ALL: [SupplyLane; 3] = [SupplyLane::VccIn, SupplyLane::VccD01, SupplyLane::VccD23];
}

/// The mainboard VR for the `VCCin` lane.
#[derive(Debug, Clone)]
pub struct Mbvr {
    state: MbvrPowerState,
    /// Nominal input voltage commanded over SVID (1.8 V for FIVR input).
    vccin: f64,
    /// Estimated-power threshold (W) below which PS1 engages, and …
    ps1_below_w: f64,
    /// … below which PS2 engages, with hysteresis to avoid chattering.
    ps2_below_w: f64,
    hysteresis_w: f64,
    /// Legal SVID command range (V).
    svid_lo_v: f64,
    svid_hi_v: f64,
}

impl Default for Mbvr {
    fn default() -> Self {
        Self::new()
    }
}

impl Mbvr {
    /// An MBVR with the paper system's (Haswell-EP) thresholds.
    pub fn new() -> Self {
        Self::for_generation(CpuGeneration::HaswellEp)
    }

    /// An MBVR with `generation`'s phase-shedding thresholds and SVID
    /// range.
    pub fn for_generation(generation: CpuGeneration) -> Self {
        let vr = generation.policy().vr();
        Mbvr {
            state: MbvrPowerState::Ps0,
            vccin: vr.vccin_v,
            ps1_below_w: vr.mbvr_ps1_below_w,
            ps2_below_w: vr.mbvr_ps2_below_w,
            hysteresis_w: vr.mbvr_hysteresis_w,
            svid_lo_v: vr.svid_lo_v,
            svid_hi_v: vr.svid_hi_v,
        }
    }

    pub fn state(&self) -> MbvrPowerState {
        self.state
    }

    pub fn vccin(&self) -> f64 {
        self.vccin
    }

    /// SVID set-voltage command from the processor.
    pub fn svid_set_voltage(&mut self, volts: f64) {
        assert!(
            (self.svid_lo_v..=self.svid_hi_v).contains(&volts),
            "VCCin range"
        );
        self.vccin = volts;
    }

    /// The processor updates the estimated power draw; the MBVR picks its
    /// state with hysteresis.
    pub fn update_estimated_power(&mut self, pkg_w: f64) {
        self.state = match self.state {
            MbvrPowerState::Ps0 => {
                if pkg_w < self.ps2_below_w {
                    MbvrPowerState::Ps2
                } else if pkg_w < self.ps1_below_w {
                    MbvrPowerState::Ps1
                } else {
                    MbvrPowerState::Ps0
                }
            }
            MbvrPowerState::Ps1 => {
                if pkg_w >= self.ps1_below_w + self.hysteresis_w {
                    MbvrPowerState::Ps0
                } else if pkg_w < self.ps2_below_w {
                    MbvrPowerState::Ps2
                } else {
                    MbvrPowerState::Ps1
                }
            }
            MbvrPowerState::Ps2 => {
                if pkg_w >= self.ps1_below_w + self.hysteresis_w {
                    MbvrPowerState::Ps0
                } else if pkg_w >= self.ps2_below_w + self.hysteresis_w {
                    MbvrPowerState::Ps1
                } else {
                    MbvrPowerState::Ps2
                }
            }
        };
    }

    /// Conversion efficiency at the given load in the current state.
    /// Shapes follow multiphase-buck practice: PS0 peaks near full load,
    /// the shed states near their own bands.
    pub fn efficiency(&self, pkg_w: f64) -> f64 {
        let x = pkg_w.max(0.5);
        match self.state {
            MbvrPowerState::Ps0 => 0.93 - 12.0 / x - 0.00008 * x,
            MbvrPowerState::Ps1 => 0.92 - 3.5 / x - 0.0006 * x,
            MbvrPowerState::Ps2 => 0.90 - 0.8 / x - 0.0025 * x,
        }
        .clamp(0.30, 0.95)
    }

    /// VR loss in W for a given package draw.
    pub fn loss_w(&self, pkg_w: f64) -> f64 {
        let eta = self.efficiency(pkg_w);
        pkg_w / eta - pkg_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn in_state(state: MbvrPowerState) -> Mbvr {
        Mbvr {
            state,
            ..Mbvr::new()
        }
    }

    #[test]
    fn three_lanes_only() {
        // Paper Section II-B: three lanes vs. five on previous products.
        assert_eq!(SupplyLane::ALL.len(), 3);
    }

    #[test]
    fn haswell_policy_reproduces_the_calibration_thresholds() {
        // Satellite regression pins: the policy-driven constructor carries
        // the exact pre-refactor literals.
        let vr = Mbvr::new();
        assert_eq!(vr.vccin(), 1.80);
        assert_eq!(vr.ps1_below_w, 45.0);
        assert_eq!(vr.ps2_below_w, 15.0);
        assert_eq!(vr.hysteresis_w, 4.0);
        assert_eq!(vr.svid_lo_v, 1.6);
        assert_eq!(vr.svid_hi_v, 2.0);
    }

    #[test]
    fn state_follows_estimated_power() {
        let mut vr = Mbvr::new();
        assert_eq!(vr.state(), MbvrPowerState::Ps0);
        vr.update_estimated_power(10.0); // deep idle
        assert_eq!(vr.state(), MbvrPowerState::Ps2);
        vr.update_estimated_power(30.0); // light load
        assert_eq!(vr.state(), MbvrPowerState::Ps1);
        vr.update_estimated_power(120.0); // TDP
        assert_eq!(vr.state(), MbvrPowerState::Ps0);
    }

    #[test]
    fn hysteresis_prevents_chatter_at_the_threshold() {
        let mut vr = Mbvr::new();
        let (ps1, hyst) = (vr.ps1_below_w, vr.hysteresis_w);
        vr.update_estimated_power(30.0);
        assert_eq!(vr.state(), MbvrPowerState::Ps1);
        // Oscillating just around the PS1 threshold must not flip back.
        vr.update_estimated_power(ps1 + 1.0);
        assert_eq!(vr.state(), MbvrPowerState::Ps1);
        vr.update_estimated_power(ps1 - 1.0);
        assert_eq!(vr.state(), MbvrPowerState::Ps1);
        // Only a clear margin promotes.
        vr.update_estimated_power(ps1 + hyst + 1.0);
        assert_eq!(vr.state(), MbvrPowerState::Ps0);
    }

    #[test]
    fn each_state_wins_in_its_band() {
        let ps0 = in_state(MbvrPowerState::Ps0);
        let ps1 = in_state(MbvrPowerState::Ps1);
        let ps2 = in_state(MbvrPowerState::Ps2);
        // Near idle PS2 is most efficient; mid-load PS1; full-load PS0.
        assert!(ps2.efficiency(8.0) > ps1.efficiency(8.0));
        assert!(ps1.efficiency(8.0) > ps0.efficiency(8.0));
        assert!(ps1.efficiency(30.0) > ps0.efficiency(30.0));
        assert!(ps0.efficiency(120.0) > ps1.efficiency(120.0));
        assert!(ps0.efficiency(120.0) > ps2.efficiency(120.0));
    }

    #[test]
    fn svid_commands_are_range_checked() {
        let mut vr = Mbvr::new();
        vr.svid_set_voltage(1.75);
        assert!((vr.vccin() - 1.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn out_of_range_svid_is_rejected() {
        Mbvr::new().svid_set_voltage(1.2);
    }

    proptest! {
        #[test]
        fn prop_efficiency_physical(p in 0.5f64..200.0, st in 0usize..3) {
            let vr = in_state(
                [MbvrPowerState::Ps0, MbvrPowerState::Ps1, MbvrPowerState::Ps2][st],
            );
            let eta = vr.efficiency(p);
            prop_assert!((0.30..=0.95).contains(&eta));
            prop_assert!(vr.loss_w(p) >= 0.0);
        }

        #[test]
        fn prop_state_machine_never_sticks(powers in proptest::collection::vec(0.0f64..200.0, 1..100)) {
            let mut vr = Mbvr::new();
            for p in powers {
                vr.update_estimated_power(p);
                // Clear full-load always recovers PS0.
            }
            vr.update_estimated_power(150.0);
            prop_assert_eq!(vr.state(), MbvrPowerState::Ps0);
        }
    }
}
