//! CPU generations and their energy-management properties.
//!
//! The paper contrasts Haswell-EP against Westmere-EP, Sandy Bridge-EP and
//! (for some experiments) Ivy Bridge-EP and the desktop/workstation
//! Haswell-HE part. The cross-generation differences relevant to the paper's
//! experiments reduce to a small set of architectural properties captured
//! here; everything else is parameterized through [`crate::SkuSpec`].

use serde::{Deserialize, Serialize};

use crate::policy::{self, FirmwarePolicy};

/// x86 server processor generations covered by the survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CpuGeneration {
    /// Westmere-EP (e.g. Xeon X5670): fixed uncore clock, modeled RAPL absent
    /// (no RAPL at all; pre-SNB), immediate p-state transitions.
    WestmereEp,
    /// Sandy Bridge-EP (e.g. Xeon E5-2690): uncore clock coupled to the core
    /// clock, *modeled* RAPL (per-workload bias, paper Fig. 2a), immediate
    /// p-state transitions, chip-wide p-state domain.
    SandyBridgeEp,
    /// Ivy Bridge-EP: same energy-management structure as Sandy Bridge-EP.
    IvyBridgeEp,
    /// Haswell-EP (Xeon E5-1600/2600 v3): FIVR, per-core p-states, independent
    /// uncore frequency (UFS), *measured* RAPL, 500 µs p-state opportunity
    /// mechanism, AVX frequencies.
    HaswellEp,
    /// Haswell "HE" (client/workstation): FIVR and measured RAPL, but
    /// immediate p-state transitions (paper Section VI-A) and no per-core
    /// p-state domains.
    HaswellHe,
    /// Skylake-SP (e.g. Xeon Platinum 8170; arXiv 1905.12468): mesh uncore
    /// with its own UFS schedule, HWP autonomous p-states, AVX-512
    /// frequency-license levels, uniform-unit RAPL, mainboard VRs. Not part
    /// of [`CpuGeneration::ALL`] — the survey's cross-generation figures
    /// cover the paper's five parts.
    SkylakeSp,
}

/// How the uncore (L3 ring, IMC frontend) is clocked in a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UncoreClockSource {
    /// A fixed frequency independent of core p-states (Westmere-EP).
    Fixed,
    /// The uncore follows the (chip-wide) core clock (Sandy Bridge-EP,
    /// Ivy Bridge-EP). DRAM bandwidth therefore scales with core frequency.
    CoreCoupled,
    /// An independent domain managed by the PCU: uncore frequency scaling
    /// (Haswell-EP). See paper Sections II-D and V-A.
    Independent,
}

/// Whether RAPL energy counters are backed by a model or by measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RaplMode {
    /// No RAPL interface at all (Westmere-EP).
    Unavailable,
    /// Event-counter-driven *model* of energy consumption; exhibits
    /// per-workload bias (paper Fig. 2a, \[20\]).
    Modeled,
    /// FIVR-based *measurement*; near-perfect correlation with a reference
    /// meter (paper Fig. 2b).
    Measured,
}

/// How p-state change requests are carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PStateTransitionMode {
    /// The request is serviced immediately; only the switching time applies
    /// (pre-Haswell-EP and Haswell-HE; paper Section VI-A).
    Immediate,
    /// Requests latch at the next PCU "opportunity" which recurs with the
    /// period given in microseconds (≈500 µs on Haswell-EP, paper Fig. 4).
    OpportunityWindow { period_us: u32 },
    /// Hardware-managed p-states (HWP, Skylake-SP; 1905.12468 Section
    /// II-D): the PCU grants requests autonomously without an opportunity
    /// clock, paying only the switching time — like
    /// [`PStateTransitionMode::Immediate`] but hardware-initiated.
    HwpAutonomous,
}

impl CpuGeneration {
    /// All generations in chronological order.
    pub const ALL: [CpuGeneration; 5] = [
        CpuGeneration::WestmereEp,
        CpuGeneration::SandyBridgeEp,
        CpuGeneration::IvyBridgeEp,
        CpuGeneration::HaswellEp,
        CpuGeneration::HaswellHe,
    ];

    /// Marketing-style name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            CpuGeneration::WestmereEp => "Westmere-EP",
            CpuGeneration::SandyBridgeEp => "Sandy Bridge-EP",
            CpuGeneration::IvyBridgeEp => "Ivy Bridge-EP",
            CpuGeneration::HaswellEp => "Haswell-EP",
            CpuGeneration::HaswellHe => "Haswell-HE",
            CpuGeneration::SkylakeSp => "Skylake-SP",
        }
    }

    /// The firmware behavior bundle for this generation (see
    /// [`crate::policy`]). Ivy Bridge-EP shares Sandy Bridge-EP's.
    pub fn policy(self) -> &'static FirmwarePolicy {
        match self {
            CpuGeneration::WestmereEp => &policy::WESTMERE_EP,
            CpuGeneration::SandyBridgeEp | CpuGeneration::IvyBridgeEp => &policy::SANDY_BRIDGE_EP,
            CpuGeneration::HaswellEp => &policy::HASWELL_EP,
            CpuGeneration::HaswellHe => &policy::HASWELL_HE,
            CpuGeneration::SkylakeSp => &policy::SKYLAKE_SP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haswell_ep_is_the_only_pcps_generation() {
        for gen in CpuGeneration::ALL {
            assert_eq!(
                gen.policy().pstate.per_core_domains,
                gen == CpuGeneration::HaswellEp
            );
        }
    }

    #[test]
    fn haswell_ep_uses_opportunity_window() {
        match CpuGeneration::HaswellEp.policy().pstate.transition {
            PStateTransitionMode::OpportunityWindow { period_us } => {
                assert_eq!(period_us, 500);
            }
            other => panic!("expected opportunity window, got {other:?}"),
        }
    }

    #[test]
    fn pre_haswell_transitions_are_immediate() {
        for gen in [
            CpuGeneration::WestmereEp,
            CpuGeneration::SandyBridgeEp,
            CpuGeneration::IvyBridgeEp,
            CpuGeneration::HaswellHe,
        ] {
            assert_eq!(
                gen.policy().pstate.transition,
                PStateTransitionMode::Immediate,
                "{}",
                gen.name()
            );
        }
    }

    #[test]
    fn uncore_clock_sources_follow_the_paper() {
        assert_eq!(
            CpuGeneration::WestmereEp.policy().uncore.source,
            UncoreClockSource::Fixed
        );
        assert_eq!(
            CpuGeneration::SandyBridgeEp.policy().uncore.source,
            UncoreClockSource::CoreCoupled
        );
        assert_eq!(
            CpuGeneration::HaswellEp.policy().uncore.source,
            UncoreClockSource::Independent
        );
    }

    #[test]
    fn rapl_modes_follow_the_paper() {
        assert_eq!(
            CpuGeneration::SandyBridgeEp.policy().rapl.mode,
            RaplMode::Modeled
        );
        assert_eq!(
            CpuGeneration::HaswellEp.policy().rapl.mode,
            RaplMode::Measured
        );
        assert_eq!(
            CpuGeneration::WestmereEp.policy().rapl.mode,
            RaplMode::Unavailable
        );
    }

    #[test]
    fn only_haswell_ep_has_avx_frequencies() {
        for gen in CpuGeneration::ALL {
            assert_eq!(
                gen.policy().license.levels >= 1,
                gen == CpuGeneration::HaswellEp
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = CpuGeneration::ALL.iter().map(|g| g.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CpuGeneration::ALL.len());
    }
}
