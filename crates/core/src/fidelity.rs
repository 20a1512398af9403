//! Experiment fidelity: how long to run the simulated measurements.

use serde::{Deserialize, Serialize};

/// Measurement durations for the experiment suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Short runs for tests and CI (seconds of simulated time).
    Quick,
    /// The paper's methodology durations (minutes of simulated time —
    /// run under `--release`).
    Paper,
    /// Surrogate tier: sweep points are answered by the `hsw-analytic`
    /// closed form; a deterministic spot-check sample runs the full
    /// simulator at [`Quick`](Fidelity::Quick) durations (it shares
    /// Quick's [`Durations`], so spot-check bytes match a `quick` run of
    /// the same points). Only experiments that opt in via
    /// [`SurveyExperiment::supports_surrogate`](crate::survey::SurveyExperiment::supports_surrogate)
    /// accept it.
    Analytic,
}

/// The measurement durations of one fidelity tier, as plain data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Durations {
    /// Number of 1 s LIKWID samples for Table IV (paper: 50).
    pub table4_samples: usize,
    /// Sampling interval for Table IV in seconds (paper: 1 s).
    pub table4_interval_s: f64,
    /// Idle AC-power averaging window for Table II (s).
    pub table2_idle_s: f64,
    /// Uncore-frequency measurement duration for Table III (paper: 10 s).
    pub table3_measure_s: f64,
    /// Stress-test recording duration for Table V (paper: 1000 s runs).
    pub table5_run_s: f64,
    /// Maximum-power extraction window for Table V (paper: 60 s).
    pub table5_window_s: f64,
    /// Averaging window per Figure 2 measurement point (paper: 4 s).
    pub fig2_avg_s: f64,
    /// FTaLaT samples per campaign (paper: 1000).
    pub fig3_samples: usize,
    /// Wake-latency handshakes per point.
    pub fig56_iterations: usize,
    /// Package power caps (PL1, W per socket) the cap-and-measure fleet
    /// experiment sweeps; `None` is the uncapped baseline. The E5-2680 v3
    /// TDP is 120 W, so 70 W is a tight cap well inside the throttling
    /// regime.
    pub fleet_caps_w: &'static [Option<f64>],
    /// Per-node settle time before the fleet measurement window (s). Must
    /// cover several PL1 limiter windows (`RAPL_LIMIT_WINDOW_US`, 0.15 s):
    /// a forked fleet member inherits the *golden* chip's converged state
    /// and needs that long to throttle to its own electrical identity.
    pub fleet_settle_s: f64,
    /// Per-node fleet measurement window (s).
    pub fleet_measure_s: f64,
}

/// Short runs for tests and CI.
const QUICK: Durations = Durations {
    table4_samples: 10,
    table4_interval_s: 0.2,
    table2_idle_s: 1.0,
    table3_measure_s: 0.5,
    table5_run_s: 6.0,
    table5_window_s: 4.0,
    fig2_avg_s: 1.0,
    fig3_samples: 120,
    fig56_iterations: 20,
    fleet_caps_w: &[None, Some(70.0)],
    fleet_settle_s: 0.6,
    fleet_measure_s: 0.3,
};

/// The paper's methodology durations.
const PAPER: Durations = Durations {
    table4_samples: 50,
    table4_interval_s: 1.0,
    table2_idle_s: 10.0,
    table3_measure_s: 10.0,
    table5_run_s: 120.0,
    table5_window_s: 60.0,
    fig2_avg_s: 4.0,
    fig3_samples: 1000,
    fig56_iterations: 200,
    fleet_caps_w: &[None, Some(100.0), Some(85.0), Some(70.0)],
    fleet_settle_s: 1.5,
    fleet_measure_s: 2.0,
};

impl Fidelity {
    /// This tier's measurement durations. `Analytic` spot checks run at
    /// Quick durations, so a re-run point is byte-identical to the same
    /// point under `--fidelity quick`.
    pub fn durations(self) -> &'static Durations {
        match self {
            Fidelity::Quick | Fidelity::Analytic => &QUICK,
            Fidelity::Paper => &PAPER,
        }
    }

    /// Nodes per fleet experiment, unless overridden by `--fleet-size`.
    pub fn fleet_size(self) -> usize {
        match self {
            Fidelity::Quick => 32,
            Fidelity::Paper => 256,
            // Surrogate points cost microseconds; default wide.
            Fidelity::Analytic => 65_536,
        }
    }

    /// Stable lowercase label (`quick` / `paper`), the inverse of
    /// [`FromStr`](std::str::FromStr). Used by the survey binary and in
    /// `survey.json`.
    pub fn label(self) -> &'static str {
        match self {
            Fidelity::Quick => "quick",
            Fidelity::Paper => "paper",
            Fidelity::Analytic => "analytic",
        }
    }

    /// Whether sweeps should answer points from the closed-form surrogate.
    pub fn is_analytic(self) -> bool {
        matches!(self, Fidelity::Analytic)
    }
}

impl std::str::FromStr for Fidelity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Ok(Fidelity::Quick),
            "paper" => Ok(Fidelity::Paper),
            "analytic" => Ok(Fidelity::Analytic),
            other => Err(format!(
                "unknown fidelity '{other}' (expected quick|paper|analytic)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fidelity_matches_methodology() {
        let d = Fidelity::Paper.durations();
        assert_eq!(d.table4_samples, 50);
        assert_eq!(d.table4_interval_s, 1.0);
        assert_eq!(d.table3_measure_s, 10.0);
        assert_eq!(d.table5_window_s, 60.0);
        assert_eq!(d.fig2_avg_s, 4.0);
        assert_eq!(d.fig3_samples, 1000);
    }

    #[test]
    fn labels_round_trip_through_fromstr() {
        for f in [Fidelity::Quick, Fidelity::Paper, Fidelity::Analytic] {
            assert_eq!(f.label().parse::<Fidelity>().unwrap(), f);
        }
        assert_eq!("PAPER".parse::<Fidelity>().unwrap(), Fidelity::Paper);
        assert!("fast".parse::<Fidelity>().is_err());
    }

    #[test]
    fn quick_is_strictly_cheaper() {
        let (q, p) = (Fidelity::Quick.durations(), Fidelity::Paper.durations());
        assert!(q.table4_samples < p.table4_samples);
        assert!(q.table5_run_s < p.table5_run_s);
        assert!(q.fig3_samples < p.fig3_samples);
        assert!(Fidelity::Quick.fleet_size() < Fidelity::Paper.fleet_size());
        assert!(q.fleet_caps_w.len() < p.fleet_caps_w.len());
        assert!(q.fleet_measure_s < p.fleet_measure_s);
    }

    #[test]
    fn analytic_spot_checks_run_at_quick_durations() {
        // The spot-check contract: a point re-run at full fidelity under
        // `--fidelity analytic` must be byte-identical to the same point
        // under `--fidelity quick`, so both tiers share one table.
        let (a, q) = (Fidelity::Analytic, Fidelity::Quick);
        assert_eq!(a.durations(), q.durations());
        assert!(a.fleet_size() > Fidelity::Paper.fleet_size());
        assert!(a.is_analytic() && !q.is_analytic());
    }

    #[test]
    fn fleet_cap_lists_start_uncapped_and_tighten() {
        for f in [Fidelity::Quick, Fidelity::Paper, Fidelity::Analytic] {
            let caps = f.durations().fleet_caps_w;
            assert_eq!(caps[0], None, "baseline must be uncapped");
            let tight: Vec<f64> = caps.iter().flatten().copied().collect();
            assert!(tight.windows(2).all(|w| w[0] > w[1]), "caps must tighten");
            assert!(tight.iter().all(|&c| c < 120.0), "caps must bind below TDP");
        }
    }
}
