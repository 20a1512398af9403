//! Bitfield encode/decode helpers for the registers the tools manipulate.

use hsw_hwspec::{EpbClass, PState};

/// Encode a p-state request into `IA32_PERF_CTL` (ratio in bits 15:8).
pub fn encode_perf_ctl(pstate: PState) -> u64 {
    (pstate.0 as u64) << 8
}

/// Decode the requested ratio from `IA32_PERF_CTL`.
pub fn decode_perf_ctl(value: u64) -> PState {
    PState(((value >> 8) & 0xFF) as u8)
}

/// Encode the current ratio into `IA32_PERF_STATUS` (bits 15:8).
pub fn encode_perf_status(pstate: PState) -> u64 {
    (pstate.0 as u64) << 8
}

/// Decode the current ratio from `IA32_PERF_STATUS`.
pub fn decode_perf_status(value: u64) -> PState {
    PState(((value >> 8) & 0xFF) as u8)
}

/// Decode the 4-bit EPB field into its semantic class.
pub fn decode_epb(value: u64) -> EpbClass {
    EpbClass::from_raw((value & 0xF) as u8)
}

/// Encode an EPB class as its canonical raw value.
pub fn encode_epb(class: EpbClass) -> u64 {
    class.canonical_raw() as u64
}

/// Build `MSR_RAPL_POWER_UNIT`: power unit 1/2^pu W, energy status unit
/// 1/2^esu J, time unit 1/2^tu s.
pub fn encode_rapl_power_unit(pu: u8, esu: u8, tu: u8) -> u64 {
    (pu as u64 & 0xF) | ((esu as u64 & 0x1F) << 8) | ((tu as u64 & 0xF) << 16)
}

/// Energy status unit exponent from `MSR_RAPL_POWER_UNIT` (bits 12:8).
pub fn decode_energy_status_unit(value: u64) -> u8 {
    ((value >> 8) & 0x1F) as u8
}

/// Energy unit in joules derived from the ESU exponent.
pub fn energy_unit_joules(esu: u8) -> f64 {
    1.0 / (1u64 << esu) as f64
}

/// Encode the uncore ratio limit MSR: bits 6:0 max ratio, 14:8 min ratio.
pub fn encode_uncore_ratio_limit(min_ratio: u8, max_ratio: u8) -> u64 {
    (max_ratio as u64 & 0x7F) | ((min_ratio as u64 & 0x7F) << 8)
}

/// Decode the uncore ratio limit MSR → (min_ratio, max_ratio).
pub fn decode_uncore_ratio_limit(value: u64) -> (u8, u8) {
    (((value >> 8) & 0x7F) as u8, (value & 0x7F) as u8)
}

/// Encode `MSR_PKG_POWER_LIMIT` PL1: power in units of 1/2^pu W (bits 14:0),
/// enable bit 15, clamp bit 16.
pub fn encode_pkg_power_limit(watts: f64, power_unit_exp: u8, enable: bool) -> u64 {
    let units = (watts * (1u64 << power_unit_exp) as f64).round() as u64 & 0x7FFF;
    units | ((enable as u64) << 15) | (1 << 16)
}

/// Decode PL1 watts from `MSR_PKG_POWER_LIMIT`.
pub fn decode_pkg_power_limit(value: u64, power_unit_exp: u8) -> (f64, bool) {
    let units = value & 0x7FFF;
    let enabled = (value >> 15) & 1 == 1;
    (units as f64 / (1u64 << power_unit_exp) as f64, enabled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perf_ctl_round_trip() {
        for ratio in 12..=33u8 {
            let p = PState(ratio);
            assert_eq!(decode_perf_ctl(encode_perf_ctl(p)), p);
        }
    }

    #[test]
    fn haswell_rapl_units_decode() {
        // Standard Haswell-EP encoding: PU=3 (1/8 W), ESU=14 (61 µJ), TU=10.
        let v = encode_rapl_power_unit(3, 14, 10);
        assert_eq!(decode_energy_status_unit(v), 14);
        let uj = energy_unit_joules(14) * 1e6;
        assert!((uj - hsw_hwspec::calib::PKG_ENERGY_UNIT_UJ).abs() < 1e-9);
    }

    #[test]
    fn dram_fixed_unit_is_esu_16() {
        let uj = energy_unit_joules(16) * 1e6;
        assert!((uj - hsw_hwspec::calib::DRAM_ENERGY_UNIT_UJ).abs() < 1e-9);
    }

    #[test]
    fn uncore_ratio_limit_round_trip() {
        let v = encode_uncore_ratio_limit(12, 30);
        assert_eq!(decode_uncore_ratio_limit(v), (12, 30));
    }

    #[test]
    fn pkg_power_limit_round_trip() {
        let v = encode_pkg_power_limit(120.0, 3, true);
        let (w, en) = decode_pkg_power_limit(v, 3);
        assert!((w - 120.0).abs() < 0.125);
        assert!(en);
    }

    // One round-trip property per encode/decode pair, each sampling the
    // field's whole domain. Decoders must also ignore every bit outside
    // their field (`noise`), so a decode mask or shift that drifts from
    // its encode fails here.
    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        #[test]
        fn prop_perf_ctl_only_uses_bits_15_8(ratio in 0u8..=255, noise in any::<u64>()) {
            let v = encode_perf_ctl(PState(ratio));
            prop_assert_eq!(v & !0xFF00, 0);
            prop_assert_eq!(decode_perf_ctl(v), PState(ratio));
            prop_assert_eq!(decode_perf_ctl(v | (noise & !0xFF00)), PState(ratio));
        }

        #[test]
        fn prop_perf_status_only_uses_bits_15_8(ratio in 0u8..=255, noise in any::<u64>()) {
            let v = encode_perf_status(PState(ratio));
            prop_assert_eq!(v & !0xFF00, 0);
            prop_assert_eq!(decode_perf_status(v), PState(ratio));
            prop_assert_eq!(decode_perf_status(v | (noise & !0xFF00)), PState(ratio));
        }

        #[test]
        fn prop_epb_decode_matches_class_mapping(raw in 0u64..=15) {
            let class = decode_epb(raw);
            match raw {
                0 => prop_assert_eq!(class, EpbClass::Performance),
                1..=7 => prop_assert_eq!(class, EpbClass::Balanced),
                _ => prop_assert_eq!(class, EpbClass::EnergySaving),
            }
        }

        #[test]
        fn prop_epb_class_round_trip(
            class in prop_oneof![
                Just(EpbClass::Performance),
                Just(EpbClass::Balanced),
                Just(EpbClass::EnergySaving),
            ],
            noise in any::<u64>(),
        ) {
            let v = encode_epb(class);
            prop_assert_eq!(v & !0xF, 0);
            prop_assert_eq!(decode_epb(v), class);
            prop_assert_eq!(decode_epb(v | (noise & !0xF)), class);
        }

        #[test]
        fn prop_rapl_power_unit_round_trip(
            pu in 0u8..=0xF,
            esu in 0u8..=0x1F,
            tu in 0u8..=0xF,
            noise in any::<u64>(),
        ) {
            let v = encode_rapl_power_unit(pu, esu, tu);
            // SDM layout: PU bits 3:0, ESU 12:8, TU 19:16, nothing else.
            prop_assert_eq!(v & !0xF_1F0F, 0);
            prop_assert_eq!(v & 0xF, pu as u64);
            prop_assert_eq!((v >> 16) & 0xF, tu as u64);
            prop_assert_eq!(decode_energy_status_unit(v), esu);
            prop_assert_eq!(decode_energy_status_unit(v | (noise & !0x1F00)), esu);
        }

        #[test]
        fn prop_uncore_ratio_round_trip(min in 0u8..=0x7F, max in 0u8..=0x7F, noise in any::<u64>()) {
            let v = encode_uncore_ratio_limit(min, max);
            prop_assert_eq!(v & !0x7F7F, 0);
            prop_assert_eq!(decode_uncore_ratio_limit(v), (min, max));
            prop_assert_eq!(decode_uncore_ratio_limit(v | (noise & !0x7F7F)), (min, max));
        }

        #[test]
        fn prop_power_limit_round_trip(watts in 1.0f64..4000.0) {
            let (w, _) = decode_pkg_power_limit(encode_pkg_power_limit(watts, 3, true), 3);
            prop_assert!((w - watts).abs() <= 0.0626, "w={} watts={}", w, watts);
        }

        #[test]
        fn prop_power_limit_round_trip_at_any_power_unit(
            power_unit_exp in 0u8..=0xF,
            units in 0u64..=0x7FFF,
            enable in any::<bool>(),
            noise in any::<u64>(),
        ) {
            // Any representable PL1 round-trips exactly: `units` steps of
            // 1/2^exp W, the enable bit, and the clamp bit 16 always set.
            let watts = units as f64 / (1u64 << power_unit_exp) as f64;
            let v = encode_pkg_power_limit(watts, power_unit_exp, enable);
            prop_assert_eq!(v, units | ((enable as u64) << 15) | (1 << 16));
            prop_assert_eq!(decode_pkg_power_limit(v, power_unit_exp), (watts, enable));
            prop_assert_eq!(
                decode_pkg_power_limit(v | (noise & !0xFFFF), power_unit_exp),
                (watts, enable)
            );
        }
    }
}
