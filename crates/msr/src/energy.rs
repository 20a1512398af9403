//! RAPL energy counters: 32-bit wrapping accumulators of energy units.

/// A RAPL energy-status counter. Hardware exposes a 32-bit counter of
/// energy units; software must handle wraparound (every ~73 min at 60 W
/// with 61 µJ units: 2³² × 61.035 µJ ≈ 262 kJ). The accumulator keeps sub-unit residue so long simulations
/// do not lose energy to quantization.
#[derive(Debug, Clone)]
pub struct EnergyCounter {
    /// Energy per count in joules.
    unit_j: f64,
    /// Current raw counter value (32-bit wrapping).
    raw: u32,
    /// Accumulated energy not yet reflected in `raw` (0 ≤ residue < unit_j).
    residue_j: f64,
    /// Total energy in joules since construction (for internal checks only —
    /// real hardware does not expose this).
    total_j: f64,
}

impl EnergyCounter {
    pub fn new(unit_j: f64) -> Self {
        assert!(unit_j > 0.0, "energy unit must be positive");
        EnergyCounter {
            unit_j,
            raw: 0,
            residue_j: 0.0,
            total_j: 0.0,
        }
    }

    /// Add `joules` of consumed energy to the counter.
    pub fn add_joules(&mut self, joules: f64) {
        debug_assert!(joules >= 0.0, "energy cannot decrease");
        self.total_j += joules;
        self.residue_j += joules;
        let counts = (self.residue_j / self.unit_j).floor();
        if counts > 0.0 {
            self.residue_j -= counts * self.unit_j;
            self.raw = self.raw.wrapping_add(counts as u64 as u32);
        }
    }

    /// The raw 32-bit register value (what `rdmsr` returns in bits 31:0).
    pub fn raw(&self) -> u32 {
        self.raw
    }

    /// Energy per count in joules.
    pub fn unit_joules(&self) -> f64 {
        self.unit_j
    }

    /// Ground-truth accumulated joules (simulation-internal).
    pub fn total_joules(&self) -> f64 {
        self.total_j
    }

    /// Convert a raw-counter difference (with wraparound) into joules, the
    /// way measurement software does.
    pub fn delta_joules(&self, before: u32, after: u32) -> f64 {
        after.wrapping_sub(before) as f64 * self.unit_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn accumulates_without_losing_energy_to_quantization() {
        let mut c = EnergyCounter::new(61e-6);
        // 10,000 tiny additions of 10 µJ each → 0.1 J total.
        for _ in 0..10_000 {
            c.add_joules(10e-6);
        }
        let measured = c.raw() as f64 * c.unit_joules();
        assert!((measured - 0.1).abs() < 61e-6, "measured {measured}");
        assert!((c.total_joules() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wraparound_delta_is_correct() {
        let mut c = EnergyCounter::new(1.0);
        // Force the counter near the wrap point.
        c.raw = u32::MAX - 5;
        let before = c.raw();
        c.add_joules(10.0);
        let d = c.delta_joules(before, c.raw());
        assert_eq!(d, 10.0);
    }

    #[test]
    #[should_panic]
    fn zero_unit_is_rejected() {
        let _ = EnergyCounter::new(0.0);
    }

    #[test]
    fn single_add_spanning_multiple_wraps_keeps_mod_2_32_semantics() {
        // counts = 5·2^32 + 7 is exactly representable in f64 (< 2^53), so
        // `counts as u64 as u32` must land on exactly counts mod 2^32 = 7.
        // This is the hardware-faithful behavior: the 32-bit register wraps
        // five whole times and ends 7 counts past where it started.
        let mut c = EnergyCounter::new(1.0);
        c.add_joules(5.0 * 4_294_967_296.0 + 7.0);
        assert_eq!(c.raw(), 7);
    }

    #[test]
    fn delta_across_the_wrap_boundary() {
        let c = EnergyCounter::new(61e-6);
        // before near the top, after past the wrap: 10 counts consumed.
        let before = u32::MAX - 4;
        let after = 5u32;
        assert!((c.delta_joules(before, after) - 10.0 * 61e-6).abs() < 1e-12);
        // Degenerate full-period delta reads as zero — the documented
        // limitation of a 32-bit counter, not a bug to paper over.
        assert_eq!(c.delta_joules(42, 42), 0.0);
    }

    #[test]
    fn residue_survives_wraparound() {
        // Half-unit residue present before the wrap must still be there
        // after: wrapping affects `raw` only, never the fractional store.
        let unit = 2.0;
        let mut c = EnergyCounter::new(unit);
        c.raw = u32::MAX;
        c.add_joules(unit * 1.5); // one count (wraps MAX -> 0) + half-unit residue
        assert_eq!(c.raw(), 0);
        c.add_joules(unit * 0.5); // residue completes a second count
        assert_eq!(c.raw(), 1);
    }

    proptest! {
        #[test]
        fn prop_counter_tracks_total_within_one_unit(
            adds in proptest::collection::vec(0.0f64..0.5, 1..200),
            unit_uj in 1.0f64..100.0,
        ) {
            let unit = unit_uj * 1e-6;
            let mut c = EnergyCounter::new(unit);
            let mut total = 0.0;
            for a in adds {
                c.add_joules(a);
                total += a;
            }
            let measured = c.raw() as f64 * unit;
            prop_assert!((measured - total).abs() <= unit + 1e-9,
                "measured {} vs total {}", measured, total);
        }

        #[test]
        fn prop_delta_handles_any_wrap(before in any::<u32>(), steps in 0u32..1_000_000) {
            let c = EnergyCounter::new(15.3e-6);
            let after = before.wrapping_add(steps);
            let d = c.delta_joules(before, after);
            prop_assert!((d - steps as f64 * 15.3e-6).abs() < 1e-9);
        }

        #[test]
        fn prop_forked_counter_crosses_the_wrap_identically(
            start_back in 0u32..1000,
            residue_frac in 0.0f64..0.999,
            adds in proptest::collection::vec(1.0f64..3.0, 1..50),
        ) {
            // A warm-start fork clones the counter mid-flight. Park the
            // original just below the 2^32 boundary with sub-unit residue,
            // fork, feed both the same energy: raw value, wrap-aware delta,
            // residue, and ground-truth total must stay bit-identical —
            // the fractional store is part of the snapshot, not an
            // accumulator quirk that re-zeroes on restore.
            let unit = 61e-6;
            let mut unforked = EnergyCounter::new(unit);
            unforked.raw = u32::MAX - start_back;
            unforked.residue_j = residue_frac * unit;
            let before = unforked.raw();
            let mut fork = unforked.clone();
            for add in &adds {
                unforked.add_joules(*add);
                fork.add_joules(*add);
            }
            // ≥1 J ≈ 16k counts vs ≤1000 counts of headroom: always wraps.
            prop_assert!(unforked.raw() < before, "must cross the boundary");
            prop_assert_eq!(unforked.raw(), fork.raw());
            prop_assert_eq!(
                unforked.delta_joules(before, unforked.raw()).to_bits(),
                fork.delta_joules(before, fork.raw()).to_bits()
            );
            prop_assert_eq!(unforked.residue_j.to_bits(), fork.residue_j.to_bits());
            prop_assert_eq!(unforked.total_joules().to_bits(), fork.total_joules().to_bits());
        }

        #[test]
        fn prop_multi_wrap_adds_match_mod_2_32(
            start in any::<u32>(),
            whole_wraps in 0u64..64,
            extra in 0u64..1_000_000,
        ) {
            // An add worth whole_wraps·2^32 + extra counts must advance the
            // register by exactly extra (mod 2^32), whatever the start value.
            let counts = whole_wraps * (1u64 << 32) + extra;
            let mut c = EnergyCounter::new(1.0);
            c.raw = start;
            c.add_joules(counts as f64);
            prop_assert_eq!(c.raw(), start.wrapping_add(extra as u32));
        }
    }
}
