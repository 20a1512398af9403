//! LIKWID-style performance groups (`likwid-perfctr -g <GROUP>`).
//!
//! The paper drives its measurements through LIKWID's named event groups
//! (e.g. the `UNCORE_CLOCK:UBOXFIX` event of Section V-A footnote 3). This
//! module reproduces that workflow: a group names a set of events plus
//! derived metrics; measuring a group programs/reads the counters over a
//! window and renders the familiar metric table.

use hsw_msr::addresses as msra;
use hsw_node::{CpuId, Node};

use crate::perfctr::energy_counts;

/// The groups the survey uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventGroup {
    /// RAPL package/DRAM power and energy (likwid `ENERGY`).
    Energy,
    /// Core effective clock, CPI (likwid `CLOCK`).
    Clock,
    /// Uncore clock via the U-box fixed counter (likwid `UNCORE_CLOCK`).
    UncoreClock,
    /// Core and package idle-state residencies (likwid `CSTATES`-style).
    CStates,
}

impl EventGroup {
    pub fn name(self) -> &'static str {
        match self {
            EventGroup::Energy => "ENERGY",
            EventGroup::Clock => "CLOCK",
            EventGroup::UncoreClock => "UNCORE_CLOCK",
            EventGroup::CStates => "CSTATES",
        }
    }
}

/// A measured group: derived metrics in likwid's (name, value, unit) form.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    pub group: &'static str,
    pub cpu: CpuId,
    pub duration_s: f64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl GroupReport {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

impl std::fmt::Display for GroupReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Group {} | S{}C{}T{} | {:.2} s",
            self.group, self.cpu.socket, self.cpu.core, self.cpu.thread, self.duration_s
        )?;
        for (name, value, unit) in &self.metrics {
            writeln!(f, "| {name:<28} | {value:>12.4} {unit:<6} |")?;
        }
        Ok(())
    }
}

/// Measure one group over `duration_s` on the given hardware thread.
pub fn measure_group(
    node: &mut Node,
    cpu: CpuId,
    group: EventGroup,
    duration_s: f64,
) -> GroupReport {
    let read = |node: &Node| EVENTS.map(|addr| node.rdmsr(cpu, addr).unwrap_or(0));
    let before = read(node);
    node.advance_s(duration_s);
    let after = read(node);
    group_report(node, cpu, group, duration_s, &before, &after)
}

/// Derive `group`'s metrics from two reads of [`EVENTS`] taken
/// `duration_s` apart. Each counter is subtracted at its register's width:
/// the two RAPL energy-status registers are 32 bits wide (as in
/// `PerfCtr::derive`), the other counters 64.
fn group_report(
    node: &Node,
    cpu: CpuId,
    group: EventGroup,
    duration_s: f64,
    before: &[u64; EVENTS.len()],
    after: &[u64; EVENTS.len()],
) -> GroupReport {
    let d = |i: usize| {
        if i == IDX_PKG || i == IDX_DRAM {
            energy_counts(before[i] as u32, after[i] as u32)
        } else {
            after[i].wrapping_sub(before[i]) as f64
        }
    };

    let dt = duration_s;
    let nominal_ghz = node.config().spec.sku.freq.base_mhz as f64 / 1000.0;
    let mut metrics = Vec::new();
    match group {
        EventGroup::Energy => {
            // The platform's own RAPL units: Skylake-SP's DRAM domain uses
            // the package unit, Haswell's a fixed 15.3 µJ.
            let rapl = node.config().spec.sku.generation.policy().rapl;
            let pkg_j = d(IDX_PKG) * rapl.pkg_energy_unit_uj * 1e-6;
            let dram_j = d(IDX_DRAM) * rapl.dram_energy_unit_uj * 1e-6;
            metrics.push(("Energy PKG".to_string(), pkg_j, "J"));
            metrics.push(("Power PKG".to_string(), pkg_j / dt, "W"));
            metrics.push(("Energy DRAM".to_string(), dram_j, "J"));
            metrics.push(("Power DRAM".to_string(), dram_j / dt, "W"));
        }
        EventGroup::Clock => {
            let aperf = d(IDX_APERF);
            let mperf = d(IDX_MPERF).max(1.0);
            let instr = d(IDX_INSTR).max(1.0);
            let cycles = d(IDX_CYCLES);
            metrics.push((
                "Clock [GHz]".to_string(),
                aperf / mperf * nominal_ghz,
                "GHz",
            ));
            metrics.push(("CPI".to_string(), cycles / instr, ""));
            metrics.push(("Instructions".to_string(), instr, ""));
        }
        EventGroup::UncoreClock => {
            metrics.push((
                "Uncore Clock [GHz]".to_string(),
                d(IDX_UCLK) / (dt * 1e9),
                "GHz",
            ));
        }
        EventGroup::CStates => {
            let wall_ref = dt * nominal_ghz * 1e9;
            metrics.push((
                "Core C3 residency".to_string(),
                d(IDX_C3) / wall_ref * 100.0,
                "%",
            ));
            metrics.push((
                "Core C6 residency".to_string(),
                d(IDX_C6) / wall_ref * 100.0,
                "%",
            ));
            metrics.push((
                "Pkg C6 residency".to_string(),
                d(IDX_PC6) / wall_ref * 100.0,
                "%",
            ));
        }
    }
    GroupReport {
        group: group.name(),
        cpu,
        duration_s,
        metrics,
    }
}

const EVENTS: [u32; 10] = [
    msra::MSR_PKG_ENERGY_STATUS,
    msra::MSR_DRAM_ENERGY_STATUS,
    msra::IA32_APERF,
    msra::IA32_MPERF,
    msra::IA32_FIXED_CTR0_INST_RETIRED,
    msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED,
    msra::MSR_U_PMON_UCLK_FIXED_CTR,
    msra::MSR_CORE_C3_RESIDENCY,
    msra::MSR_CORE_C6_RESIDENCY,
    msra::MSR_PKG_C6_RESIDENCY,
];
const IDX_PKG: usize = 0;
const IDX_DRAM: usize = 1;
const IDX_APERF: usize = 2;
const IDX_MPERF: usize = 3;
const IDX_INSTR: usize = 4;
const IDX_CYCLES: usize = 5;
const IDX_UCLK: usize = 6;
const IDX_C3: usize = 7;
const IDX_C6: usize = 8;
const IDX_PC6: usize = 9;

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_exec::WorkloadProfile;
    use hsw_hwspec::freq::FreqSetting;
    use hsw_node::NodeConfig;

    #[test]
    fn energy_group_reads_tdp_under_firestarter() {
        let mut node = NodeConfig::paper_default().session().build();
        node.run_on_socket(0, &WorkloadProfile::firestarter(), 12, 2);
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.6);
        let r = measure_group(&mut node, CpuId::new(0, 0, 0), EventGroup::Energy, 1.0);
        let pkg = r.metric("Power PKG").unwrap();
        assert!((pkg - 120.0).abs() < 5.0, "pkg = {pkg:.1}");
        assert!(r.metric("Power DRAM").unwrap() > 5.0);
    }

    #[test]
    fn clock_group_shows_throttled_frequency_and_cpi() {
        let mut node = NodeConfig::paper_default().session().build();
        node.run_on_socket(0, &WorkloadProfile::firestarter(), 12, 2);
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.6);
        let r = measure_group(&mut node, CpuId::new(0, 0, 0), EventGroup::Clock, 1.0);
        let ghz = r.metric("Clock [GHz]").unwrap();
        assert!((2.2..2.4).contains(&ghz), "clock {ghz:.3}");
        // Per-thread IPC ≈ 1.55 → CPI ≈ 0.65.
        let cpi = r.metric("CPI").unwrap();
        assert!((0.55..0.75).contains(&cpi), "cpi {cpi:.3}");
    }

    #[test]
    fn uncore_group_reproduces_the_table3_cell() {
        let mut node = NodeConfig::paper_default().session().build();
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.set_setting_all(FreqSetting::from_mhz(2500));
        node.advance_s(0.3);
        let r = measure_group(&mut node, CpuId::new(0, 0, 0), EventGroup::UncoreClock, 1.0);
        let u = r.metric("Uncore Clock [GHz]").unwrap();
        assert!((u - 2.2).abs() < 0.08, "uncore {u:.3}");
    }

    #[test]
    fn cstates_group_shows_deep_idle() {
        let mut node = NodeConfig::paper_default().session().build();
        node.idle_all();
        node.advance_s(0.3);
        let r = measure_group(&mut node, CpuId::new(0, 0, 0), EventGroup::CStates, 1.0);
        assert!(r.metric("Core C6 residency").unwrap() > 95.0);
        assert!(r.metric("Pkg C6 residency").unwrap() > 95.0);
    }

    #[test]
    fn energy_group_subtracts_at_32_bits_across_a_wrap() {
        // A real wrap needs ~2,200 simulated seconds at 120 W, so the two
        // reads are built by hand: the PKG register advances 1000 counts
        // and the DRAM register 100 counts across 2^32.
        let node = NodeConfig::paper_default().session().build();
        let mut before = [0u64; EVENTS.len()];
        let mut after = before;
        (before[IDX_PKG], after[IDX_PKG]) = (u32::MAX as u64 - 499, 500);
        (before[IDX_DRAM], after[IDX_DRAM]) = (u32::MAX as u64 - 49, 50);
        let cpu = CpuId::new(0, 0, 0);
        let r = group_report(&node, cpu, EventGroup::Energy, 1.0, &before, &after);
        let rapl = node.config().spec.sku.generation.policy().rapl;
        let pkg_j = r.metric("Energy PKG").unwrap();
        let dram_j = r.metric("Energy DRAM").unwrap();
        assert!(
            (pkg_j - 1000.0 * rapl.pkg_energy_unit_uj * 1e-6).abs() < 1e-9,
            "{pkg_j} J"
        );
        assert!(
            (dram_j - 100.0 * rapl.dram_energy_unit_uj * 1e-6).abs() < 1e-9,
            "{dram_j} J"
        );
    }

    #[test]
    fn report_renders_likwid_style() {
        let mut node = NodeConfig::paper_default().session().build();
        node.idle_all();
        node.advance_s(0.2);
        let r = measure_group(&mut node, CpuId::new(0, 0, 0), EventGroup::Energy, 0.5);
        let text = r.to_string();
        assert!(text.contains("Group ENERGY"));
        assert!(text.contains("Power PKG"));
    }
}
