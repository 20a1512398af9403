//! FTaLaT — frequency-transition latency measurement (paper Section VI-A,
//! \[26\]), with the paper's modifications:
//!
//! * frequency changes are verified by reading the hardware cycle counter
//!   (`PERF_COUNT_HW_CPU_CYCLES` = fixed counter 1) over 20 µs busy-wait
//!   windows, because `scaling_cur_freq` is "not a reliable indicator for
//!   an actual frequency switch in hardware";
//! * 1000 measurements per start/target pair;
//! * controlled delay between the detected completion of one transition and
//!   the next request (the four regimes of paper Figure 3).

use hsw_hwspec::PState;
use hsw_msr::{addresses as msra, fields};
use hsw_node::{CpuId, Node};
use rand::Rng;

/// The busy-wait verification window (paper: "a 20 µs busy-wait loop").
pub const VERIFY_WINDOW_US: u64 = 20;

/// When, relative to the previous transition, the next request is issued.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayRegime {
    /// Request at a random time (uniform µs in the given range) after the
    /// last change.
    Random { min_us: u64, max_us: u64 },
    /// Request instantly after the previous change is detected.
    Immediate,
    /// Request a fixed delay after the previous change was detected.
    AfterUs(u64),
}

impl DelayRegime {
    pub fn label(&self) -> String {
        match self {
            DelayRegime::Random { .. } => "random".to_string(),
            DelayRegime::Immediate => "0 µs delay".to_string(),
            DelayRegime::AfterUs(us) => format!("{us} µs delay"),
        }
    }
}

/// One measured transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySample {
    pub from: PState,
    pub to: PState,
    pub latency_us: f64,
}

/// The measurement tool, pinned to one hardware thread (which must be
/// running a busy loop so the cycle counters advance).
pub struct FtaLat {
    pub cpu: CpuId,
}

impl FtaLat {
    pub fn new(cpu: CpuId) -> Self {
        FtaLat { cpu }
    }

    /// Measure the effective frequency over one verification window (GHz).
    fn freq_window(&self, node: &mut Node) -> f64 {
        let c0 = node
            .rdmsr(self.cpu, msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED)
            .unwrap_or(0);
        node.advance_us(VERIFY_WINDOW_US);
        let c1 = node
            .rdmsr(self.cpu, msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED)
            .unwrap_or(0);
        c1.wrapping_sub(c0) as f64 / (VERIFY_WINDOW_US as f64 * 1e3)
    }

    /// Request a transition to `to` and busy-wait until the cycle counter
    /// confirms it; returns the observed latency in µs.
    ///
    /// `timeout_us` bounds the wait (a pathological stall aborts the
    /// sample, as the original tool would re-measure).
    pub fn measure_transition(
        &self,
        node: &mut Node,
        from: PState,
        to: PState,
        timeout_us: u64,
    ) -> Option<LatencySample> {
        let t0 = node.now_ns();
        node.wrmsr(self.cpu, msra::IA32_PERF_CTL, fields::encode_perf_ctl(to))
            .ok()?;
        let threshold = 0.5 * (from.ghz() + to.ghz());
        let rising = to > from;
        let mut waited = 0;
        loop {
            let f = self.freq_window(node);
            let crossed = if rising { f > threshold } else { f < threshold };
            if crossed {
                let elapsed_us = (node.now_ns() - t0) as f64 / 1e3;
                // The change happened somewhere inside the last window; the
                // window midpoint is the unbiased estimate.
                return Some(LatencySample {
                    from,
                    to,
                    latency_us: (elapsed_us - VERIFY_WINDOW_US as f64 / 2.0).max(0.0),
                });
            }
            waited += VERIFY_WINDOW_US;
            if waited > timeout_us {
                return None;
            }
        }
    }

    /// Ensure the core is settled at `p` (request + wait out any pending
    /// opportunity).
    pub fn settle(&self, node: &mut Node, p: PState) {
        node.wrmsr(self.cpu, msra::IA32_PERF_CTL, fields::encode_perf_ctl(p))
            .ok();
        node.advance_us(1_200);
    }

    /// A full campaign: `n` alternating transitions between `a` and `b`
    /// under the given delay regime (paper: 1000 measurements for
    /// 1.2 ↔ 1.3 GHz).
    pub fn campaign<R: Rng>(
        &self,
        node: &mut Node,
        a: PState,
        b: PState,
        regime: DelayRegime,
        n: usize,
        rng: &mut R,
    ) -> Vec<LatencySample> {
        self.settle(node, a);
        let mut cur = a;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let target = if cur == a { b } else { a };
            // Position the request relative to the last detected change.
            match regime {
                DelayRegime::Random { min_us, max_us } => {
                    node.advance_us(rng.gen_range(min_us..=max_us));
                }
                DelayRegime::Immediate => {}
                DelayRegime::AfterUs(us) => node.advance_us(us),
            }
            // OS scheduling and wrmsr overhead jitter of the real tool —
            // without it the 20 µs verify windows phase-lock against the
            // 500 µs opportunity clock.
            node.advance_us(rng.gen_range(0..13));
            if let Some(s) = self.measure_transition(node, cur, target, 3_000) {
                out.push(s);
            }
            cur = target;
        }
        out
    }
}

/// Mean, standard deviation and 99 % confidence half-width (the paper
/// raises FTaLaT's confidence level from 95 % to 99 %).
pub fn stats(samples: &[f64]) -> (f64, f64, f64) {
    let n = samples.len() as f64;
    if samples.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n.max(2.0);
    let sd = var.sqrt();
    // z(99 %) = 2.576
    (mean, sd, 2.576 * sd / n.sqrt())
}

/// Histogram helper for the Figure 3 rendering.
pub fn histogram(samples: &[f64], bin_us: f64, max_us: f64) -> Vec<(f64, usize)> {
    let bins = (max_us / bin_us).ceil() as usize;
    let mut h = vec![0usize; bins];
    for &s in samples {
        let idx = ((s / bin_us) as usize).min(bins - 1);
        h[idx] += 1;
    }
    h.into_iter()
        .enumerate()
        .map(|(i, c)| (i as f64 * bin_us, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_exec::WorkloadProfile;
    use hsw_node::{NodeConfig, Resolution};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn latency_node() -> Node {
        let mut node = NodeConfig::paper_default()
            .session()
            .resolution(Resolution::Latency)
            .build()
            .into_node();
        // The FTaLaT busy loop keeps the measured core in C0.
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.advance_s(0.01);
        node
    }

    fn tool() -> FtaLat {
        FtaLat::new(CpuId::new(0, 0, 0))
    }

    #[test]
    fn random_requests_span_the_figure3_range() {
        let mut node = latency_node();
        let mut rng = SmallRng::seed_from_u64(11);
        let samples = tool().campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            DelayRegime::Random {
                min_us: 3,
                max_us: 991,
            },
            120,
            &mut rng,
        );
        assert!(samples.len() >= 110);
        let lats: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        let lo = lats.iter().cloned().fold(f64::MAX, f64::min);
        let hi = lats.iter().cloned().fold(0.0, f64::max);
        assert!(lo < 80.0, "min {lo}");
        assert!(hi > 420.0, "max {hi}");
        assert!(hi < 560.0, "max {hi}");
    }

    #[test]
    fn immediate_rerequest_costs_a_full_period() {
        let mut node = latency_node();
        let mut rng = SmallRng::seed_from_u64(12);
        let samples = tool().campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            DelayRegime::Immediate,
            40,
            &mut rng,
        );
        let lats: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        let (mean, _, _) = stats(&lats);
        assert!((440.0..=540.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn delay_400us_lands_near_100us() {
        let mut node = latency_node();
        let mut rng = SmallRng::seed_from_u64(13);
        let samples = tool().campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            DelayRegime::AfterUs(400),
            40,
            &mut rng,
        );
        let lats: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        let (mean, _, _) = stats(&lats);
        assert!((60.0..=150.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn delay_500us_is_bimodal() {
        // Paper: "If the delay is in the order of 500 µs, the transition
        // latencies can be split into two different classes".
        let mut node = latency_node();
        let mut rng = SmallRng::seed_from_u64(14);
        let samples = tool().campaign(
            &mut node,
            PState::from_mhz(1200),
            PState::from_mhz(1300),
            // ~460 µs: together with the detection lag (~21 µs switch plus
            // up to one 20 µs verify window) the re-request straddles the
            // next opportunity boundary, splitting the samples in two.
            DelayRegime::AfterUs(460),
            80,
            &mut rng,
        );
        let lats: Vec<f64> = samples.iter().map(|s| s.latency_us).collect();
        let fast = lats.iter().filter(|l| **l < 150.0).count();
        let slow = lats.iter().filter(|l| **l > 350.0).count();
        assert!(fast >= 5, "fast class {fast}");
        assert!(slow >= 5, "slow class {slow}");
        assert!(
            fast + slow >= lats.len() * 8 / 10,
            "distribution must be bimodal: {fast}+{slow}/{}",
            lats.len()
        );
    }

    #[test]
    fn histogram_buckets_cover_all_samples() {
        let h = histogram(&[10.0, 22.0, 510.0, 523.9], 25.0, 525.0);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 4);
    }
}
