//! ZES ZIMMER LMG450 power meter model (paper Section III, \[19\]).
//!
//! The real instrument samples voltage and current at a high internal rate
//! and emits calibrated AC power readings at 20 Sa/s with an accuracy of
//! 0.07 % + 0.23 W. We model the reading as the true power plus a slowly
//! varying gain error (within the relative accuracy) plus white noise
//! (within the absolute accuracy). Both error terms are keyed to the
//! simulation instant, so a seeded run reads the same wattage no matter how
//! the engine subdivided the time in between samples.

use hsw_hwspec::calib;
use hsw_hwspec::clock::{DomainNoise, Ns};

/// Salt distinguishing the per-instrument gain draw from sample noise.
const GAIN_SALT: u64 = 0xCAFE;

/// A calibrated 4-channel AC power meter.
#[derive(Debug, Clone)]
pub struct Lmg450 {
    /// Per-instrument gain error, fixed at "calibration" time, within the
    /// relative accuracy band.
    gain: f64,
    /// Keyed white-noise stream for individual readings.
    noise: DomainNoise,
    sample_period_s: f64,
}

impl Lmg450 {
    /// Create a meter whose per-instrument gain and per-sample noise come
    /// from the given keyed stream (one instrument per node).
    pub fn calibrated(noise: DomainNoise) -> Self {
        let rel = calib::LMG450_REL_ACCURACY;
        Lmg450 {
            gain: 1.0 + noise.symmetric(0, GAIN_SALT) * rel,
            noise,
            sample_period_s: 1.0 / calib::LMG450_SAMPLE_RATE_HZ,
        }
    }

    /// An ideal meter (zero gain error, zero noise amplitude would defeat
    /// the accuracy tests, so only the gain is idealized) for deterministic
    /// tests.
    pub fn ideal() -> Self {
        Lmg450 {
            gain: 1.0,
            noise: DomainNoise::new(0, hsw_hwspec::clock::domain::METER),
            sample_period_s: 1.0 / calib::LMG450_SAMPLE_RATE_HZ,
        }
    }

    /// Time between output samples (50 ms at 20 Sa/s).
    pub fn sample_period_s(&self) -> f64 {
        self.sample_period_s
    }

    /// One reading of a true AC power value at simulation instant `t_ns`.
    pub fn sample(&self, true_w: f64, t_ns: Ns) -> f64 {
        let abs = calib::LMG450_ABS_ACCURACY_W;
        // White noise well inside the guaranteed absolute band (the spec is
        // a bound, not a standard deviation).
        let noise = self.noise.symmetric(t_ns, 0) * abs * 0.5;
        true_w * self.gain + noise
    }

    /// Average of consecutive readings over `duration_s` of constant load
    /// starting at `t0_ns` — the paper's measurement primitive ("average
    /// power consumption of a constant load during four seconds", Section IV).
    pub fn average(&self, true_w: f64, duration_s: f64, t0_ns: Ns) -> f64 {
        let n = (duration_s / self.sample_period_s).round().max(1.0) as usize;
        let period_ns = (self.sample_period_s * 1e9) as Ns;
        let sum: f64 = (0..n)
            .map(|k| self.sample(true_w, t0_ns + k as Ns * period_ns))
            .sum();
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::clock::domain;

    fn meter(seed: u64) -> Lmg450 {
        Lmg450::calibrated(DomainNoise::new(seed, domain::METER))
    }

    #[test]
    fn readings_stay_within_accuracy_spec() {
        let meter = meter(7);
        for &p in &[50.0_f64, 261.5, 560.0] {
            for t in 0..200u64 {
                let r = meter.sample(p, t * 50_000_000);
                let bound = p * calib::LMG450_REL_ACCURACY + calib::LMG450_ABS_ACCURACY_W;
                assert!((r - p).abs() <= bound, "reading {r} outside {p} ± {bound}");
            }
        }
    }

    #[test]
    fn four_second_average_is_tighter_than_single_sample() {
        let meter = Lmg450::ideal();
        let avg = meter.average(300.0, 4.0, 0);
        assert!((avg - 300.0).abs() < 0.05, "avg = {avg}");
    }

    #[test]
    fn sample_rate_is_20_per_second() {
        assert!((Lmg450::ideal().sample_period_s() - 0.05).abs() < 1e-12);
        // A 4 s window must be built from 80 samples.
        let n = (4.0 / Lmg450::ideal().sample_period_s()).round() as usize;
        assert_eq!(n, 80);
        let _ = Lmg450::ideal().average(100.0, 4.0, 0);
    }

    #[test]
    fn instrument_gain_is_stable_per_instrument() {
        let meter = meter(3);
        // With noise averaged out, long averages over disjoint windows agree.
        let a = meter.average(500.0, 10.0, 0);
        let b = meter.average(500.0, 10.0, 10_000_000_000);
        assert!((a - b).abs() < 0.1);
    }

    #[test]
    fn readings_are_a_pure_function_of_time() {
        // Two meters built from the same stream agree sample-for-sample —
        // the property that keeps fixed and event stepping byte-identical.
        let a = meter(11);
        let b = meter(11);
        for t in [0u64, 50_000_000, 123_456_789] {
            assert_eq!(a.sample(261.5, t).to_bits(), b.sample(261.5, t).to_bits());
        }
    }
}
