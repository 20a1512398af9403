//! The AVX license / AVX-frequency state machine (paper Section II-F).
//!
//! Heavy 256-bit AVX/FMA streams draw more current: the core signals the
//! PCU for more voltage and slows AVX execution while the FIVR ramps; to
//! stay inside the TDP the clock ceiling drops to the AVX frequency range
//! (AVX base … AVX max-all-core turbo). The PCU returns to the regular
//! operating mode 1 ms after the last AVX instruction completes.
//!
//! Skylake-SP adds a second license level for 512-bit streams
//! (1905.12468 Section V): level 1 caps at the AVX 2.0 frequencies,
//! level 2 at the (lower) AVX-512 frequencies, with a faster ramp and a
//! shorter relax period. How many levels exist and how fast the machine
//! moves comes from the generation's [`hsw_hwspec::LicensePolicy`].

use hsw_hwspec::clock::US;
use hsw_hwspec::{CpuGeneration, SkuSpec};

use crate::pstate::Ns;

/// License state of one core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LicenseState {
    /// Scalar/128-bit operation: regular frequencies apply.
    Normal,
    /// Voltage ramp in progress: AVX instructions execute at reduced
    /// throughput (the paper's "slows the execution of AVX instructions").
    Ramping { until: Ns },
    /// License granted: the level's frequency ceiling applies.
    Active,
}

/// Per-core AVX license tracker.
#[derive(Debug, Clone)]
pub struct AvxLicense {
    state: LicenseState,
    /// Last time heavy SIMD instructions were observed.
    last_avx: Option<Ns>,
    /// License level being ramped to / held (1 = 256-bit, 2 = 512-bit).
    level: u8,
    /// Voltage-ramp time when entering (or widening) the license.
    ramp_us: u32,
    /// Relax period after the last heavy SIMD instruction.
    relax_us: u32,
    /// Highest license level the generation distinguishes.
    max_level: u8,
    /// Execution-throughput factor while the voltage ramps.
    ramp_throughput: f64,
}

impl Default for AvxLicense {
    fn default() -> Self {
        Self::new()
    }
}

impl AvxLicense {
    /// A tracker with the paper system's (Haswell-EP) license timings.
    pub fn new() -> Self {
        Self::for_generation(CpuGeneration::HaswellEp)
    }

    /// A tracker with `generation`'s license timings and level count.
    pub fn for_generation(generation: CpuGeneration) -> Self {
        let policy = generation.policy().license;
        AvxLicense {
            state: LicenseState::Normal,
            last_avx: None,
            level: 0,
            ramp_us: policy.ramp_us,
            relax_us: policy.relax_us,
            // The state machine runs even on pre-AVX-frequency parts (the
            // voltage ramp is physical); only the *ceiling* is gated on the
            // generation actually distinguishing license frequencies.
            max_level: policy.levels.max(1),
            ramp_throughput: policy.ramp_throughput_factor,
        }
    }

    /// Inform the license tracker whether the interval ending at `now`
    /// executed heavy 256-bit AVX work.
    pub fn observe(&mut self, avx_active: bool, now: Ns) {
        self.observe_level(if avx_active { 1 } else { 0 }, now);
    }

    /// Inform the tracker of the widest heavy-SIMD level executed in the
    /// interval ending at `now`: 0 = scalar/light, 1 = heavy 256-bit,
    /// 2 = heavy 512-bit. Levels above the generation's maximum clamp down.
    pub fn observe_level(&mut self, level: u8, now: Ns) {
        let level = level.min(self.max_level);
        if level > 0 {
            self.last_avx = Some(now);
            if self.state == LicenseState::Normal {
                self.level = level;
                self.state = LicenseState::Ramping {
                    until: now + self.ramp_us as Ns * US,
                };
            } else if level > self.level {
                // Widening (e.g. AVX2 → AVX-512): another voltage ramp.
                self.level = level;
                self.state = LicenseState::Ramping {
                    until: now + self.ramp_us as Ns * US,
                };
            }
        }
        match self.state {
            LicenseState::Ramping { until } if now >= until => {
                self.state = LicenseState::Active;
            }
            LicenseState::Active => {
                // Relax after the last heavy instruction (paper: "The PCU
                // returns to regular (non-AVX) operating mode 1 ms after AVX
                // instructions are completed"; 1905.12468 measures ~670 µs
                // on Skylake-SP).
                if let Some(last) = self.last_avx {
                    if now.saturating_sub(last) >= self.relax_us as Ns * US {
                        self.state = LicenseState::Normal;
                        self.level = 0;
                        self.last_avx = None;
                    }
                }
            }
            _ => {}
        }
    }

    pub fn state(&self) -> LicenseState {
        self.state
    }

    /// The license level being ramped to or held (0 when disengaged).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Whether a license frequency ceiling (and the matching power
    /// multiplier) applies.
    pub fn engaged(&self) -> bool {
        !matches!(self.state, LicenseState::Normal)
    }

    /// Execution-throughput factor: reduced while the voltage ramps.
    pub fn throughput_factor(&self) -> f64 {
        match self.state {
            LicenseState::Ramping { .. } => self.ramp_throughput,
            _ => 1.0,
        }
    }

    /// The frequency ceiling in MHz this license state imposes for `active`
    /// active cores; `None` when regular frequencies apply.
    pub fn ceiling_mhz(&self, spec: &SkuSpec, active: usize) -> Option<u32> {
        if !self.engaged() || spec.generation.policy().license.levels == 0 {
            return None;
        }
        Some(spec.freq.license_turbo_mhz(self.level, active))
    }

    /// The guaranteed minimum under AVX load (AVX base frequency).
    pub fn guaranteed_mhz(spec: &SkuSpec) -> u32 {
        spec.freq.avx_base_mhz.unwrap_or(spec.freq.min_mhz)
    }

    /// Whether the license state is stable under a *constant* SIMD input
    /// level: replaying `observe_level(level, _)` at any cadence leaves the
    /// observable state (engaged, level, throughput factor) unchanged.
    /// False while the voltage ramps or while a relax countdown is pending.
    pub fn stable_under_level(&self, level: u8) -> bool {
        let level = level.min(self.max_level);
        match self.state {
            LicenseState::Ramping { .. } => false,
            LicenseState::Normal => level == 0,
            LicenseState::Active => level == self.level,
        }
    }

    /// Binary-input variant of [`Self::stable_under_level`].
    pub fn stable_under(&self, avx_active: bool) -> bool {
        self.stable_under_level(if avx_active { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::{calib, SkuSpec};

    fn sku() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    #[test]
    fn license_engages_via_voltage_ramp() {
        let mut lic = AvxLicense::new();
        lic.observe(true, 0);
        assert!(matches!(lic.state(), LicenseState::Ramping { .. }));
        assert!(lic.throughput_factor() < 1.0, "ramp slows AVX execution");
        lic.observe(true, 30 * US);
        assert_eq!(lic.state(), LicenseState::Active);
        assert_eq!(lic.throughput_factor(), 1.0, "full throughput after ramp");
    }

    #[test]
    fn license_relaxes_1ms_after_last_avx() {
        let mut lic = AvxLicense::new();
        lic.observe(true, 0);
        lic.observe(true, 30 * US);
        assert!(lic.engaged());
        // 0.9 ms of scalar code: still licensed.
        lic.observe(false, 930 * US);
        assert!(lic.engaged());
        // ≥1 ms after the last AVX instruction: back to normal.
        lic.observe(false, 1_040 * US);
        assert!(!lic.engaged());
    }

    #[test]
    fn avx_ceiling_matches_turbo_table() {
        // Section II-F: AVX turbo 2.8–3.1 GHz depending on active cores.
        let spec = sku();
        let mut lic = AvxLicense::new();
        lic.observe(true, 0);
        lic.observe(true, 30 * US);
        assert_eq!(lic.ceiling_mhz(&spec, 1), Some(3100));
        assert_eq!(lic.ceiling_mhz(&spec, 12), Some(2800));
    }

    #[test]
    fn no_ceiling_without_license_or_on_old_generations() {
        let spec = sku();
        let lic = AvxLicense::new();
        assert_eq!(lic.ceiling_mhz(&spec, 12), None);

        let snb = SkuSpec::xeon_e5_2690();
        let mut lic = AvxLicense::new();
        lic.observe(true, 0);
        lic.observe(true, 30 * US);
        assert_eq!(lic.ceiling_mhz(&snb, 8), None, "SNB has no AVX frequencies");
    }

    #[test]
    fn avx_base_is_the_guarantee() {
        assert_eq!(AvxLicense::guaranteed_mhz(&sku()), 2100);
    }

    #[test]
    fn relicensing_after_relax_ramps_again() {
        let mut lic = AvxLicense::new();
        lic.observe(true, 0);
        lic.observe(true, 30 * US);
        lic.observe(false, 1_100 * US);
        assert!(!lic.engaged());
        lic.observe(true, 2_000 * US);
        assert!(matches!(lic.state(), LicenseState::Ramping { .. }));
    }

    #[test]
    fn haswell_clamps_512bit_requests_to_level_1() {
        // Haswell has a single AVX license level: wide requests can't
        // select frequencies the SKU doesn't define.
        let spec = sku();
        let mut lic = AvxLicense::new();
        lic.observe_level(2, 0);
        lic.observe_level(2, 30 * US);
        assert_eq!(lic.level(), 1);
        assert_eq!(lic.ceiling_mhz(&spec, 12), Some(2800));
    }

    #[test]
    fn skylake_level2_selects_avx512_frequencies() {
        let spec = SkuSpec::xeon_platinum_8170();
        let mut lic = AvxLicense::for_generation(CpuGeneration::SkylakeSp);
        lic.observe_level(2, 0);
        lic.observe_level(2, calib::skx::LICENSE_RAMP_US as Ns * US + US);
        assert_eq!(lic.level(), 2);
        assert_eq!(
            lic.ceiling_mhz(&spec, 26),
            Some(spec.freq.avx512_turbo_mhz(26))
        );
    }

    #[test]
    fn widening_from_avx2_to_avx512_ramps_again() {
        let mut lic = AvxLicense::for_generation(CpuGeneration::SkylakeSp);
        lic.observe_level(1, 0);
        lic.observe_level(1, 30 * US);
        assert_eq!(lic.state(), LicenseState::Active);
        assert_eq!(lic.level(), 1);
        lic.observe_level(2, 40 * US);
        assert!(matches!(lic.state(), LicenseState::Ramping { .. }));
        assert_eq!(lic.level(), 2);
        // Narrower input while licensed wide keeps the wide license until
        // the relax period ends.
        lic.observe_level(1, 80 * US);
        assert_eq!(lic.level(), 2);
    }

    #[test]
    fn skylake_relaxes_after_the_measured_670us() {
        let mut lic = AvxLicense::for_generation(CpuGeneration::SkylakeSp);
        lic.observe_level(2, 0);
        lic.observe_level(2, 30 * US);
        assert!(lic.engaged());
        let relax = calib::skx::LICENSE_RELAX_US as Ns;
        lic.observe_level(0, 30 * US + (relax - 10) * US);
        assert!(lic.engaged(), "still inside the relax window");
        lic.observe_level(0, 30 * US + (relax + 10) * US);
        assert!(!lic.engaged());
        assert_eq!(lic.level(), 0);
    }
}
