//! Core and package C-state definitions.

use serde::{Deserialize, Serialize};

/// Core-level idle states as used on the covered generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CoreCState {
    /// Active (executing).
    C0,
    /// Halted; caches coherent, wake is nearly instant.
    C1,
    /// Clock gated; L1/L2 flushed to L3.
    C3,
    /// Power gated; architectural state saved, caches flushed, V ≈ 0.
    C6,
}

impl CoreCState {
    /// All idle states, shallowest first.
    pub const IDLE_STATES: [CoreCState; 3] = [CoreCState::C1, CoreCState::C3, CoreCState::C6];

    /// Whether the core is power gated (drops out of the leakage sum).
    pub fn power_gated(self) -> bool {
        self == CoreCState::C6
    }

    pub fn name(self) -> &'static str {
        match self {
            CoreCState::C0 => "C0",
            CoreCState::C1 => "C1",
            CoreCState::C3 => "C3",
            CoreCState::C6 => "C6",
        }
    }
}

/// Package-level idle states. PC3/PC6 halt the uncore clock
/// (paper Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PkgCState {
    /// At least one core active.
    PC0,
    /// All cores idle but package-level agents still snooping.
    PC2,
    /// Uncore clock halted, L3 retained.
    PC3,
    /// Deepest package sleep.
    PC6,
}

impl PkgCState {
    /// Whether the uncore clock is halted in this state
    /// (paper Section V-A: "the uncore clock is halted when a processor
    /// goes into deep package sleep state (PC-3/PC-6)").
    pub fn uncore_halted(self) -> bool {
        matches!(self, PkgCState::PC3 | PkgCState::PC6)
    }

    pub fn name(self) -> &'static str {
        match self {
            PkgCState::PC0 => "PC0",
            PkgCState::PC2 => "PC2",
            PkgCState::PC3 => "PC3",
            PkgCState::PC6 => "PC6",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_depth_ordering() {
        assert!(CoreCState::C0 < CoreCState::C1);
        assert!(CoreCState::C1 < CoreCState::C3);
        assert!(CoreCState::C3 < CoreCState::C6);
        assert!(PkgCState::PC0 < PkgCState::PC2);
        assert!(PkgCState::PC2 < PkgCState::PC3);
        assert!(PkgCState::PC3 < PkgCState::PC6);
    }

    #[test]
    fn only_c6_power_gates() {
        assert!(CoreCState::C6.power_gated());
        assert!(!CoreCState::C3.power_gated());
        assert!(!CoreCState::C1.power_gated());
        assert!(!CoreCState::C0.power_gated());
    }

    #[test]
    fn uncore_halts_only_in_deep_package_states() {
        assert!(!PkgCState::PC0.uncore_halted());
        assert!(!PkgCState::PC2.uncore_halted());
        assert!(PkgCState::PC3.uncore_halted());
        assert!(PkgCState::PC6.uncore_halted());
    }
}
