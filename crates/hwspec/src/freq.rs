//! P-states, frequency tables, turbo and AVX frequency bins.
//!
//! Frequencies are kept in MHz as `u32`; p-states are expressed as bus-ratio
//! multipliers of the 100 MHz BCLK, matching the `IA32_PERF_CTL` encoding.

use serde::{Deserialize, Serialize};

/// MHz per bus-ratio step (100 MHz BCLK on all covered generations).
pub const MHZ_PER_RATIO: u32 = 100;

/// A performance state expressed as a bus ratio (frequency = ratio × 100 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PState(pub u8);

impl PState {
    /// Construct from a frequency in MHz (must be a multiple of 100 MHz).
    pub fn from_mhz(mhz: u32) -> Self {
        debug_assert_eq!(mhz % MHZ_PER_RATIO, 0, "p-states are 100 MHz granular");
        PState((mhz / MHZ_PER_RATIO) as u8)
    }

    /// Frequency in MHz.
    pub fn mhz(self) -> u32 {
        self.0 as u32 * MHZ_PER_RATIO
    }

    /// Frequency in GHz.
    pub fn ghz(self) -> f64 {
        self.mhz() as f64 / 1000.0
    }
}

/// A core-frequency *setting*: either a fixed p-state or turbo mode
/// (the OS requests the turbo ratio; the PCU picks the actual frequency).
///
/// Settings order by speed: Turbo above every fixed p-state, fixed
/// p-states by ratio. The derived order gives exactly that because
/// `Fixed` is declared before `Turbo`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FreqSetting {
    /// A specific selectable p-state.
    Fixed(PState),
    /// Turbo mode: opportunistic frequencies above nominal.
    Turbo,
}

impl FreqSetting {
    pub fn from_mhz(mhz: u32) -> Self {
        FreqSetting::Fixed(PState::from_mhz(mhz))
    }

    /// Label used in result tables ("Turbo", "2.5", ...).
    pub fn label(&self) -> String {
        match self {
            FreqSetting::Turbo => "Turbo".to_string(),
            FreqSetting::Fixed(p) => format!("{:.1}", p.ghz()),
        }
    }
}

/// The full frequency specification of a SKU: selectable p-state range,
/// turbo bins by active core count, and AVX frequency bins
/// (paper Sections II-E/II-F, Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FrequencyTable {
    /// Lowest selectable p-state frequency in MHz (1.2 GHz on the test SKU).
    pub min_mhz: u32,
    /// Nominal ("base") frequency in MHz (2.5 GHz on the test SKU).
    pub base_mhz: u32,
    /// Maximum turbo frequency by number of active cores: index 0 is the
    /// single-core turbo, last entry the all-core turbo. Empty if the SKU has
    /// no turbo.
    pub turbo_by_active_cores_mhz: Vec<u32>,
    /// AVX base frequency (minimal guaranteed frequency under AVX load) in
    /// MHz; `None` for generations without AVX frequencies.
    pub avx_base_mhz: Option<u32>,
    /// AVX turbo frequencies by active core count (paper: 2.8–3.1 GHz
    /// depending on the number of active cores).
    pub avx_turbo_by_active_cores_mhz: Vec<u32>,
    /// AVX-512 (license level 2) base frequency in MHz; `None` before
    /// Skylake-SP (1905.12468 Section II-C).
    pub avx512_base_mhz: Option<u32>,
    /// AVX-512 turbo frequencies by active core count.
    pub avx512_turbo_by_active_cores_mhz: Vec<u32>,
    /// Uncore frequency bounds in MHz.
    pub uncore_min_mhz: u32,
    pub uncore_max_mhz: u32,
}

impl FrequencyTable {
    /// Maximum non-AVX turbo frequency for `active` active cores.
    /// `active == 0` is treated as 1 (a waking core).
    pub fn turbo_mhz(&self, active: usize) -> u32 {
        if self.turbo_by_active_cores_mhz.is_empty() {
            return self.base_mhz;
        }
        let idx = active.max(1).min(self.turbo_by_active_cores_mhz.len()) - 1;
        self.turbo_by_active_cores_mhz[idx]
    }

    /// Maximum AVX turbo frequency for `active` active cores; falls back to
    /// the regular turbo table when the SKU has no AVX bins.
    pub fn avx_turbo_mhz(&self, active: usize) -> u32 {
        if self.avx_turbo_by_active_cores_mhz.is_empty() {
            return self.turbo_mhz(active);
        }
        let idx = active.max(1).min(self.avx_turbo_by_active_cores_mhz.len()) - 1;
        self.avx_turbo_by_active_cores_mhz[idx]
    }

    /// Maximum AVX-512 turbo frequency for `active` active cores; falls
    /// back to the AVX table (and transitively the regular turbo table)
    /// when the SKU has no 512-bit bins.
    pub fn avx512_turbo_mhz(&self, active: usize) -> u32 {
        if self.avx512_turbo_by_active_cores_mhz.is_empty() {
            return self.avx_turbo_mhz(active);
        }
        let idx = active
            .max(1)
            .min(self.avx512_turbo_by_active_cores_mhz.len())
            - 1;
        self.avx512_turbo_by_active_cores_mhz[idx]
    }

    /// Turbo ceiling for a vector-license level: 0 = scalar/128-bit,
    /// 1 = AVX(2), 2 = AVX-512 (1905.12468 Section II-C).
    pub fn license_turbo_mhz(&self, level: u8, active: usize) -> u32 {
        match level {
            0 => self.turbo_mhz(active),
            1 => self.avx_turbo_mhz(active),
            _ => self.avx512_turbo_mhz(active),
        }
    }

    /// Guaranteed base frequency for a vector-license level.
    pub fn license_base_mhz(&self, level: u8) -> u32 {
        match level {
            0 => self.base_mhz,
            1 => self.avx_base_mhz.unwrap_or(self.base_mhz),
            _ => self
                .avx512_base_mhz
                .or(self.avx_base_mhz)
                .unwrap_or(self.base_mhz),
        }
    }

    /// All selectable fixed p-states, highest first (as listed in the
    /// paper's tables: 2.5, 2.4, …, 1.2).
    pub fn selectable_pstates(&self) -> Vec<PState> {
        let mut v = Vec::new();
        let mut mhz = self.base_mhz;
        while mhz >= self.min_mhz {
            v.push(PState::from_mhz(mhz));
            mhz -= MHZ_PER_RATIO;
        }
        v
    }

    /// All settings swept by the paper's tables: Turbo followed by the fixed
    /// p-states, highest first.
    pub fn all_settings(&self) -> Vec<FreqSetting> {
        let mut v = vec![FreqSetting::Turbo];
        v.extend(
            self.selectable_pstates()
                .into_iter()
                .map(FreqSetting::Fixed),
        );
        v
    }

    /// The frequency ceiling granted for a given setting before power limits:
    /// fixed settings cap at their own frequency, turbo at the active-core
    /// turbo bin.
    pub fn ceiling_mhz(&self, setting: FreqSetting, active: usize) -> u32 {
        match setting {
            FreqSetting::Fixed(p) => p.mhz(),
            FreqSetting::Turbo => self.turbo_mhz(active),
        }
    }

    /// Whether a frequency is opportunistic, i.e. above the AVX base
    /// frequency and hence only sustained if power/thermal limits allow
    /// (paper Section II-F: "Every frequency above AVX base, (even the base
    /// frequency) can be considered turbo").
    pub fn is_opportunistic(&self, mhz: u32) -> bool {
        match self.avx_base_mhz {
            Some(avx_base) => mhz > avx_base,
            // Pre-AVX-frequency generations: only above-nominal is turbo.
            None => mhz > self.base_mhz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e5_2680v3_table() -> FrequencyTable {
        crate::sku::SkuSpec::xeon_e5_2680_v3().freq
    }

    #[test]
    fn pstate_mhz_round_trip() {
        for mhz in (1200..=3300).step_by(100) {
            assert_eq!(PState::from_mhz(mhz).mhz(), mhz);
        }
    }

    #[test]
    fn selectable_pstates_match_table2_range() {
        // Table II: selectable p-states 1.2 – 2.5 GHz → 14 states.
        let t = e5_2680v3_table();
        let ps = t.selectable_pstates();
        assert_eq!(ps.len(), 14);
        assert_eq!(ps.first().unwrap().mhz(), 2500);
        assert_eq!(ps.last().unwrap().mhz(), 1200);
    }

    #[test]
    fn settings_order_by_speed_with_turbo_on_top() {
        // The node takes the fastest requested setting with `max`, so
        // swapping the variants' declaration order must fail here.
        let (lo, hi) = (FreqSetting::from_mhz(1200), FreqSetting::from_mhz(2500));
        assert!(lo < hi && hi < FreqSetting::Turbo);
        assert_eq!(lo.max(hi), hi);
        assert_eq!(
            [hi, FreqSetting::Turbo, lo].into_iter().max(),
            Some(FreqSetting::Turbo)
        );
    }

    #[test]
    fn all_settings_is_turbo_plus_pstates() {
        let t = e5_2680v3_table();
        let s = t.all_settings();
        assert_eq!(s.len(), 15);
        assert_eq!(s[0], FreqSetting::Turbo);
        assert_eq!(s[0].label(), "Turbo");
        assert_eq!(s[1].label(), "2.5");
        assert_eq!(s[14].label(), "1.2");
    }

    #[test]
    fn turbo_bins_monotone_nonincreasing_with_active_cores() {
        let t = e5_2680v3_table();
        for a in 1..t.turbo_by_active_cores_mhz.len() {
            assert!(t.turbo_mhz(a) >= t.turbo_mhz(a + 1));
        }
    }

    #[test]
    fn single_core_turbo_is_3300() {
        // Table II: turbo frequency up to 3.3 GHz.
        assert_eq!(e5_2680v3_table().turbo_mhz(1), 3300);
    }

    #[test]
    fn avx_turbo_range_matches_paper() {
        // Section II-F: AVX turbo between 2.8 and 3.1 GHz.
        let t = e5_2680v3_table();
        let bins = &t.avx_turbo_by_active_cores_mhz;
        assert_eq!(*bins.iter().max().unwrap(), 3100);
        assert_eq!(*bins.iter().min().unwrap(), 2800);
    }

    #[test]
    fn everything_above_avx_base_is_opportunistic() {
        let t = e5_2680v3_table();
        assert!(t.is_opportunistic(2200));
        assert!(t.is_opportunistic(2500)); // nominal frequency included!
        assert!(!t.is_opportunistic(2100)); // AVX base itself is guaranteed
        assert!(!t.is_opportunistic(1200));
    }

    #[test]
    fn ceiling_respects_setting() {
        let t = e5_2680v3_table();
        assert_eq!(t.ceiling_mhz(FreqSetting::from_mhz(1800), 12), 1800);
        assert_eq!(t.ceiling_mhz(FreqSetting::Turbo, 1), 3300);
        assert!(t.ceiling_mhz(FreqSetting::Turbo, 12) < 3300);
    }
}
