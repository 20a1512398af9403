//! Table II — test-system details, including the *measured* idle power
//! (fans at maximum): the one live measurement in the table.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_node::NodeConfig;
use serde::{Deserialize, Serialize};

use crate::report::{watts, Table};
use crate::survey::RunCtx;

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table2 {
    pub table: Table,
    pub idle_power_w: f64,
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table)
    }
}

pub fn run(ctx: &RunCtx) -> Table2 {
    let platform = NodeConfig::paper_default();
    let sku = platform.spec.sku.clone();
    let eet_enabled = platform.eet_enabled;

    // Measure idle AC power the paper's way: idle system, fans at maximum
    // (the node model's constant rest load), LMG450 averaging. This
    // experiment is deterministic (`seeded() == false`), so the session is
    // pinned to the platform default seed regardless of the survey root.
    let mut node = ctx.session().seed(platform.seed).build();
    node.idle_all();
    node.set_setting_all(FreqSetting::Turbo);
    let _ = WorkloadProfile::idle();
    node.advance_s(0.2);
    let idle_power_w = node.measure_ac_average(ctx.fidelity.durations().table2_idle_s);

    let mut t = Table::new("Table II: test system details", vec!["Item", "Value"]);
    t.row(vec!["Processor".to_string(), format!("2x {}", sku.model)]);
    t.row(vec![
        "Frequency range (selectable p-states)".to_string(),
        format!(
            "{:.1} - {:.1} GHz",
            sku.freq.min_mhz as f64 / 1000.0,
            sku.freq.base_mhz as f64 / 1000.0
        ),
    ]);
    t.row(vec![
        "Turbo frequency".to_string(),
        format!("up to {:.1} GHz", sku.freq.turbo_mhz(1) as f64 / 1000.0),
    ]);
    t.row(vec![
        "AVX base frequency".to_string(),
        format!(
            "{:.1} GHz",
            sku.freq.avx_base_mhz.unwrap_or(0) as f64 / 1000.0
        ),
    ]);
    t.row(vec![
        "Energy perf. bias".to_string(),
        "balanced".to_string(),
    ]);
    t.row(vec![
        "Energy-efficient turbo (EET)".to_string(),
        if eet_enabled { "enabled" } else { "disabled" }.to_string(),
    ]);
    t.row(vec![
        "Uncore frequency scaling (UFS)".to_string(),
        "enabled".to_string(),
    ]);
    t.row(vec![
        "Per-core p-states (PCPS)".to_string(),
        "enabled".to_string(),
    ]);
    t.row(vec![
        "Idle power (fan speed set to maximum)".to_string(),
        format!("{} Watt", watts(idle_power_w)),
    ]);
    t.row(vec![
        "Power meter".to_string(),
        "ZES LMG450 (simulated)".to_string(),
    ]);
    t.row(vec!["Accuracy".to_string(), "0.07 % + 0.23 W".to_string()]);

    Table2 {
        table: t,
        idle_power_w,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "table2"
    }
    fn anchor(&self) -> &'static str {
        "Table II"
    }
    fn title(&self) -> &'static str {
        "Test-system details with measured idle power"
    }
    fn seeded(&self) -> bool {
        false
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        out.metric("idle_power_w", r.idle_power_w);
        out.check(
            "idle power matches the paper's 261.5 W",
            (r.idle_power_w - 261.5).abs() < 8.0,
            format!("measured {:.1} W", r.idle_power_w),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_hwspec::calib;
    use hsw_node::EngineMode;

    #[test]
    fn idle_power_reproduces_table2() {
        let t2 = run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default()));
        assert!(
            (t2.idle_power_w - calib::IDLE_NODE_POWER_W).abs() < 6.0,
            "idle = {:.1} W (paper: 261.5 W)",
            t2.idle_power_w
        );
    }

    #[test]
    fn table_lists_the_paper_configuration() {
        let text = run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())).to_string();
        for needle in [
            "E5-2680 v3",
            "1.2 - 2.5 GHz",
            "3.3 GHz",
            "2.1 GHz",
            "balanced",
            "LMG450",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
