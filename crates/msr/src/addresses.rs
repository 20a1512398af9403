//! MSR addresses (Intel SDM Vol. 4 numbering for Haswell-EP, CPUID 06_3F).

/// Time-stamp counter; increments at the nominal (invariant TSC) rate.
pub const IA32_TIME_STAMP_COUNTER: u32 = 0x10;

/// Actual-performance clock counter: counts core cycles at the *current*
/// frequency while in C0. Used together with MPERF to compute the effective
/// frequency.
pub const IA32_APERF: u32 = 0xE8;

/// Maximum-performance clock counter: counts at the nominal frequency while
/// in C0.
pub const IA32_MPERF: u32 = 0xE7;

/// P-state status: bits 15:8 hold the current bus ratio.
pub const IA32_PERF_STATUS: u32 = 0x198;

/// P-state control: software writes the target bus ratio to bits 15:8;
/// bit 32 engages turbo disengage on some parts (modeled as reserved here).
pub const IA32_PERF_CTL: u32 = 0x199;

/// Clock modulation (not used by the survey, present for completeness).
pub const IA32_CLOCK_MODULATION: u32 = 0x19A;

/// Thermal status of the core.
pub const IA32_THERM_STATUS: u32 = 0x19C;

/// Misc enable: bit 38 disables turbo globally.
pub const IA32_MISC_ENABLE: u32 = 0x1A0;
pub const MISC_ENABLE_TURBO_DISABLE_BIT: u64 = 1 << 38;

/// Performance and Energy Bias Hint, 4 bits (paper Section II-C).
pub const IA32_ENERGY_PERF_BIAS: u32 = 0x1B0;

/// Fixed-function counter 0: instructions retired (per hardware thread).
pub const IA32_FIXED_CTR0_INST_RETIRED: u32 = 0x309;

/// Fixed-function counter 1: core clock cycles unhalted (per thread, at
/// actual frequency). This is what `PERF_COUNT_HW_CPU_CYCLES` maps to.
pub const IA32_FIXED_CTR1_CPU_CLK_UNHALTED: u32 = 0x30A;

/// Fixed-function counter 2: reference clock cycles unhalted (TSC rate).
pub const IA32_FIXED_CTR2_REF_CYCLES: u32 = 0x30B;

/// RAPL unit register: bits 3:0 power unit, 12:8 energy status unit (ESU),
/// 19:16 time unit.
pub const MSR_RAPL_POWER_UNIT: u32 = 0x606;

/// Package power-limit control (PL1/PL2).
pub const MSR_PKG_POWER_LIMIT: u32 = 0x610;

/// Package energy status: 32-bit wrapping counter of energy units.
pub const MSR_PKG_ENERGY_STATUS: u32 = 0x611;

/// Package performance-limit status/log.
pub const MSR_PKG_PERF_STATUS: u32 = 0x613;

/// Package power info: TDP and min/max power.
pub const MSR_PKG_POWER_INFO: u32 = 0x614;

/// DRAM power limit.
pub const MSR_DRAM_POWER_LIMIT: u32 = 0x618;

/// DRAM energy status: 32-bit wrapping counter. On Haswell-EP the unit is a
/// fixed 15.3 µJ regardless of `MSR_RAPL_POWER_UNIT` (paper Section IV).
pub const MSR_DRAM_ENERGY_STATUS: u32 = 0x619;

/// DRAM performance (throttling) status.
pub const MSR_DRAM_PERF_STATUS: u32 = 0x61B;

/// PP0 (core domain) energy status — *not supported on Haswell-EP*
/// (paper Section IV); reads raise #GP in this model, matching the absence
/// of the domain.
pub const MSR_PP0_ENERGY_STATUS: u32 = 0x639;

/// Uncore ratio limit: bits 6:0 max ratio, 14:8 min ratio. The paper notes
/// the MSR number was not documented at the time (\[16\]); 0x620 is the
/// number later documented for Haswell-EP.
pub const MSR_UNCORE_RATIO_LIMIT: u32 = 0x620;

/// U-box fixed counter control (uncore PMU).
pub const MSR_U_PMON_UCLK_FIXED_CTL: u32 = 0x703;

/// U-box fixed counter: counts uncore clockticks — LIKWID's
/// `UNCORE_CLOCK:UBOXFIX` event (paper Section V-A, footnote 3).
pub const MSR_U_PMON_UCLK_FIXED_CTR: u32 = 0x704;

/// C-state residency counters (package scope).
pub const MSR_PKG_C2_RESIDENCY: u32 = 0x60D;
pub const MSR_PKG_C3_RESIDENCY: u32 = 0x3F8;
pub const MSR_PKG_C6_RESIDENCY: u32 = 0x3F9;

/// C-state residency counters (core scope).
pub const MSR_CORE_C3_RESIDENCY: u32 = 0x3FC;
pub const MSR_CORE_C6_RESIDENCY: u32 = 0x3FD;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rapl_block_is_contiguous_in_the_600s() {
        assert_eq!(MSR_RAPL_POWER_UNIT, 0x606);
        assert_eq!(MSR_PKG_POWER_LIMIT, 0x610);
        assert_eq!(MSR_PKG_ENERGY_STATUS, 0x611);
        assert_eq!(MSR_DRAM_ENERGY_STATUS, 0x619);
    }

    #[test]
    fn perf_ctl_and_status_match_sdm() {
        assert_eq!(IA32_PERF_STATUS, 0x198);
        assert_eq!(IA32_PERF_CTL, 0x199);
        assert_eq!(IA32_ENERGY_PERF_BIAS, 0x1B0);
    }

    /// Every `pub const NAME: u32 = <address>;` line of this file, read
    /// from its source so no constant can be left out of the check below.
    fn named_addresses() -> Vec<(&'static str, u32)> {
        include_str!("addresses.rs")
            .lines()
            .filter_map(|line| {
                let (name, rest) = line.strip_prefix("pub const ")?.split_once(": u32 = ")?;
                let value = rest.split_once(';')?.0.replace('_', "");
                let addr = match value.strip_prefix("0x") {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                Some((
                    name,
                    addr.unwrap_or_else(|e| panic!("{name} = {value}: {e}")),
                ))
            })
            .collect()
    }

    #[test]
    fn addresses_are_unique() {
        let named = named_addresses();
        assert!(
            named.len() >= 20,
            "address table unexpectedly small: {named:?}"
        );
        // Two names for one MSR number is a copy-paste bug.
        let mut by_addr = std::collections::BTreeMap::new();
        for &(name, addr) in &named {
            if let Some(first) = by_addr.insert(addr, name) {
                panic!("`{name}` duplicates MSR address {addr:#x} already named `{first}`");
            }
        }
    }
}
