//! Figure 4 — the presumed p-state change mechanism (paper Section VI-A).
//!
//! The paper's figure is a schematic: requests latch at ~500 µs
//! "opportunities" driven by external logic (probably the PCU), followed by
//! the switching time. We regenerate it as a *measured timeline*: issue
//! requests at controlled offsets and record when the hardware completes
//! them, demonstrating (a) the quantized opportunity grid, (b) that cores
//! of one socket transition together, and (c) that sockets are independent.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::PState;
use hsw_msr::{addresses as msra, fields};
use hsw_node::{CpuId, NodeConfig, Resolution};
use serde::{Deserialize, Serialize};

use crate::survey::RunCtx;

/// One request → completion record.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TimelineEntry {
    pub socket: usize,
    pub core: usize,
    pub requested_at_us: f64,
    pub completed_at_us: f64,
}

impl TimelineEntry {
    pub fn latency_us(&self) -> f64 {
        self.completed_at_us - self.requested_at_us
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    pub entries: Vec<TimelineEntry>,
    /// Estimated opportunity period from consecutive same-socket
    /// completions (µs).
    pub estimated_period_us: f64,
}

impl std::fmt::Display for Fig4 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 4: p-state opportunity timeline (estimated period {:.0} µs)",
            self.estimated_period_us
        )?;
        for e in &self.entries {
            writeln!(
                f,
                "  S{}C{:<2} request @ {:>9.1} µs -> complete @ {:>9.1} µs (latency {:>6.1} µs)",
                e.socket,
                e.core,
                e.requested_at_us,
                e.completed_at_us,
                e.latency_us()
            )?;
        }
        Ok(())
    }
}

pub fn run(ctx: &RunCtx) -> Fig4 {
    // Deterministic experiment (`seeded() == false`): pinned to the
    // platform default seed regardless of the survey root.
    let mut node = ctx
        .session()
        .seed(NodeConfig::paper_default().seed)
        .resolution(Resolution::Latency)
        .build();
    // Busy threads on two cores per socket so requests have visible effect.
    for s in 0..2 {
        node.run_on_socket(s, &WorkloadProfile::busy_wait(), 2, 1);
    }
    node.advance_s(0.01);

    let mut entries = Vec::new();
    let mut toggle = false;
    // Issue requests at staggered offsets across sockets and cores.
    for round in 0..8u64 {
        let target = PState::from_mhz(if toggle { 1200 } else { 1300 });
        toggle = !toggle;
        for (socket, core, offset_us) in [(0, 0, 0u64), (0, 1, 90), (1, 0, 170)] {
            node.advance_us(offset_us + 40 * round);
            node.wrmsr(
                CpuId::new(socket, core, 0),
                msra::IA32_PERF_CTL,
                fields::encode_perf_ctl(target),
            )
            .unwrap();
        }
        node.advance_us(1_500);
        for s in 0..2 {
            for ev in node.drain_transitions(s) {
                entries.push(TimelineEntry {
                    socket: s,
                    core: ev.core,
                    requested_at_us: ev.requested_at as f64 / 1e3,
                    completed_at_us: ev.completed_at as f64 / 1e3,
                });
            }
        }
    }
    entries.sort_by(|a, b| a.completed_at_us.total_cmp(&b.completed_at_us));

    // Estimate the opportunity period from distinct same-socket completion
    // instants.
    let mut s0: Vec<f64> = entries
        .iter()
        .filter(|e| e.socket == 0)
        .map(|e| e.completed_at_us)
        .collect();
    s0.dedup_by(|a, b| (*a - *b).abs() < 1.0);
    let diffs: Vec<f64> = s0.windows(2).map(|w| w[1] - w[0]).collect();
    let min_gap = diffs
        .iter()
        .cloned()
        .filter(|d| *d > 10.0)
        .fold(f64::MAX, f64::min);

    Fig4 {
        entries,
        estimated_period_us: min_gap,
    }
}

/// Registry adapter. The timeline is fully deterministic (fixed request
/// offsets, default node seed), so the survey seed is not consumed.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }
    fn anchor(&self) -> &'static str {
        "Figure 4"
    }
    fn title(&self) -> &'static str {
        "P-state opportunity timeline"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        out.metric("estimated_period_us", r.estimated_period_us);
        out.metric("timeline_entries", r.entries.len() as f64);
        out.check(
            "opportunity period is about 500 us",
            (r.estimated_period_us - 500.0).abs() < 35.0,
            format!("estimated {:.0} us", r.estimated_period_us),
        );
        out.check(
            "timeline captured enough transitions to estimate the grid",
            r.entries.len() >= 12,
            format!("{} entries", r.entries.len()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn cached() -> &'static Fig4 {
        static CACHE: std::sync::OnceLock<Fig4> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn estimated_period_is_about_500_us() {
        let f = cached();
        assert!(
            (f.estimated_period_us - hsw_hwspec::calib::PSTATE_OPPORTUNITY_PERIOD_US as f64).abs()
                < 30.0,
            "period {:.0} µs",
            f.estimated_period_us
        );
    }

    #[test]
    fn same_socket_requests_complete_together() {
        let f = cached();
        // For every socket-0 core-0 completion, core 1's completion in the
        // same round coincides (when both had pending requests).
        let mut by_time: Vec<(f64, Vec<usize>)> = Vec::new();
        for e in f.entries.iter().filter(|e| e.socket == 0) {
            if let Some(last) = by_time.last_mut() {
                if (last.0 - e.completed_at_us).abs() < 1.0 {
                    last.1.push(e.core);
                    continue;
                }
            }
            by_time.push((e.completed_at_us, vec![e.core]));
        }
        let paired = by_time.iter().filter(|(_, cores)| cores.len() >= 2).count();
        assert!(paired >= 4, "only {paired} simultaneous pairs");
    }

    #[test]
    fn sockets_complete_at_different_instants() {
        let f = cached();
        let t0: Vec<f64> = f
            .entries
            .iter()
            .filter(|e| e.socket == 0)
            .map(|e| e.completed_at_us)
            .collect();
        let t1: Vec<f64> = f
            .entries
            .iter()
            .filter(|e| e.socket == 1)
            .map(|e| e.completed_at_us)
            .collect();
        assert!(!t0.is_empty() && !t1.is_empty());
        let coincident = t1
            .iter()
            .filter(|t| t0.iter().any(|u| (*u - **t).abs() < 1.0))
            .count();
        assert!(
            coincident * 2 < t1.len(),
            "sockets should not share opportunity instants ({coincident}/{})",
            t1.len()
        );
    }

    #[test]
    fn latencies_fit_the_opportunity_model() {
        let f = cached();
        for e in &f.entries {
            let lat = e.latency_us();
            assert!(
                (20.0..=560.0).contains(&lat),
                "latency {lat:.1} outside the mechanism's range"
            );
        }
    }
}
