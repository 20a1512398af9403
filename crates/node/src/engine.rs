//! Time-advance engine selection and statistics.
//!
//! Both engines subdivide time into the same `tick_us` micro-steps — the
//! Euler integrators (RAPL's limiter EMA, the thermal RC model) are
//! cadence-sensitive, so the step sequence itself is part of the
//! determinism contract. What differs is the *body* executed per step:
//!
//! * [`EngineMode::Fixed`] runs the full model every step — the original
//!   lockstep semantics, kept as an escape hatch and as the reference for
//!   the equivalence tests.
//! * [`EngineMode::Event`] runs the full body only where a discrete event
//!   can fire. Each full tick of a steady socket records a wake horizon:
//!   the next p-state latch or switch completion, and the next periodic
//!   PCU re-solve while the grant reads the limiter average (or was
//!   restored rather than solved). Steps ending before it run a cheap
//!   light body that replays the continuous integrators bit-identically.
//!   Mutator calls, restores and limiter-bucket crossings also force a
//!   full step.

use std::str::FromStr;

/// Which per-step body the simulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Full model every step (the pre-engine lockstep behavior).
    Fixed,
    /// Light-step up to each wake horizon; provably identical results.
    #[default]
    Event,
}

impl EngineMode {
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineMode::Fixed => "fixed",
            EngineMode::Event => "event",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for EngineMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fixed" => Ok(EngineMode::Fixed),
            "event" => Ok(EngineMode::Event),
            other => Err(format!("unknown engine mode '{other}' (fixed|event)")),
        }
    }
}

/// How many steps each body handled — the event engine's effectiveness is
/// `light_steps / (full_steps + light_steps)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub full_steps: u64,
    pub light_steps: u64,
}

impl EngineStats {
    /// Fraction of steps that took the light path.
    pub fn light_fraction(&self) -> f64 {
        let total = self.full_steps + self.light_steps;
        if total == 0 {
            0.0
        } else {
            self.light_steps as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_mode_round_trips_through_strings() {
        for mode in [EngineMode::Fixed, EngineMode::Event] {
            assert_eq!(mode.as_str().parse::<EngineMode>().unwrap(), mode);
        }
        assert!("adaptive".parse::<EngineMode>().is_err());
    }

    #[test]
    fn default_engine_is_event() {
        assert_eq!(EngineMode::default(), EngineMode::Event);
    }

    #[test]
    fn light_fraction_handles_zero_steps() {
        assert_eq!(EngineStats::default().light_fraction(), 0.0);
        let stats = EngineStats {
            full_steps: 1,
            light_steps: 3,
        };
        assert!((stats.light_fraction() - 0.75).abs() < 1e-12);
    }
}
