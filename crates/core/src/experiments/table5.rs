//! Table V — maximizing power consumption (paper Section VIII).
//!
//! FIRESTARTER 1.2 vs. LINPACK vs. mprime under {2500 MHz, Turbo} × EPB
//! {power, balanced, performance}, Hyper-Threading off; the highest
//! 1-minute average AC power and the measured core frequency over that
//! interval.

use hsw_exec::WorkloadProfile;
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_node::Resolution;
use hsw_tools::{assign_stress_load, measure_stress, StressResult};
use serde::{Deserialize, Serialize};

use crate::report::Table;
use crate::survey::RunCtx;

/// One cell (benchmark × setting × EPB) of Table V.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5Cell {
    pub benchmark: String,
    pub turbo_setting: bool,
    pub epb: String,
    pub power_w: f64,
    pub core_ghz: f64,
    pub power_stddev_w: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table5 {
    pub cells: Vec<Table5Cell>,
    pub power_table: Table,
    pub freq_table: Table,
}

impl Table5 {
    pub fn cell(&self, benchmark: &str, turbo: bool, epb: &str) -> Option<&Table5Cell> {
        self.cells
            .iter()
            .find(|c| c.benchmark == benchmark && c.turbo_setting == turbo && c.epb == epb)
    }
}

impl std::fmt::Display for Table5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n{}", self.power_table, self.freq_table)
    }
}

/// Per-cell node seeds derive from `ctx.seed` via the sweep executor.
pub fn run(ctx: &RunCtx) -> Table5 {
    let benchmarks = WorkloadProfile::table5_benchmarks();
    let configs: Vec<(bool, EpbClass)> = [false, true]
        .into_iter()
        .flat_map(|turbo| {
            EpbClass::TABLE5_ORDER
                .into_iter()
                .map(move |epb| (turbo, epb))
        })
        .collect();

    // Warm-start split, one sweep per benchmark (the salt): workload
    // assignment and the cold-boot bring-up are identical for the six
    // setting × EPB cells of a benchmark, so each cell forks a converged
    // snapshot and only applies its knobs before measuring.
    let cells: Vec<Table5Cell> = benchmarks
        .iter()
        .enumerate()
        .flat_map(|(i, profile)| {
            ctx.sweep_warm_salted(
                i as u64,
                &configs,
                |builder| {
                    let mut session = builder.resolution(Resolution::Custom(100)).build();
                    // Hyper-Threading not active (paper Table V caption).
                    assign_stress_load(&mut session, profile, false);
                    session.advance_s(0.2); // shared bring-up
                    session
                },
                |node, (turbo_setting, epb), _seed| {
                    let setting = if *turbo_setting {
                        FreqSetting::Turbo
                    } else {
                        FreqSetting::from_mhz(2500)
                    };
                    let r: StressResult = measure_stress(
                        node,
                        setting,
                        *epb,
                        true, // turbo mode active (the *setting* selects its use)
                        ctx.fidelity.durations().table5_run_s,
                        ctx.fidelity.durations().table5_window_s,
                    );
                    Table5Cell {
                        benchmark: profile.name.to_string(),
                        turbo_setting: *turbo_setting,
                        epb: epb.short_label().to_string(),
                        power_w: r.max_window_power_w,
                        core_ghz: r.core_ghz,
                        power_stddev_w: r.power_stddev_w,
                    }
                },
            )
        })
        .collect();

    let headers = vec![
        "Benchmark",
        "2500/power",
        "2500/bal",
        "2500/perf",
        "Turbo/power",
        "Turbo/bal",
        "Turbo/perf",
    ];
    let mut power_table = Table::new(
        "Table V: average power over the hottest window in W (HT off)",
        headers.clone(),
    );
    let mut freq_table = Table::new("Table V: measured core frequency in GHz (HT off)", headers);
    for b in &benchmarks {
        let mut prow = vec![b.name.to_string()];
        let mut frow = vec![b.name.to_string()];
        for turbo in [false, true] {
            for epb in EpbClass::TABLE5_ORDER {
                let c = cells
                    .iter()
                    .find(|c| {
                        c.benchmark == b.name
                            && c.turbo_setting == turbo
                            && c.epb == epb.short_label()
                    })
                    .expect("cell");
                prow.push(format!("{:.1}", c.power_w));
                frow.push(format!("{:.2}", c.core_ghz));
            }
        }
        power_table.row(prow);
        freq_table.row(frow);
    }
    Table5 {
        cells,
        power_table,
        freq_table,
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "table5"
    }
    fn anchor(&self) -> &'static str {
        "Table V"
    }
    fn title(&self) -> &'static str {
        "Maximum power: FIRESTARTER / LINPACK / mprime"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let max_power = r.cells.iter().map(|c| c.power_w).fold(0.0f64, f64::max);
        out.metric("max_window_power_w", max_power);
        // Turbo + performance EPB must never draw less than the fixed
        // 2500 MHz setting with power-saving EPB for the same benchmark.
        let monotone = r.cells.iter().all(|lo| {
            r.cells
                .iter()
                .find(|hi| hi.benchmark == lo.benchmark && hi.turbo_setting && hi.epb == "perf")
                .map(|hi| hi.power_w >= lo.power_w - 1.0)
                .unwrap_or(true)
        });
        out.check(
            "Turbo/perf is the hottest configuration per benchmark",
            monotone,
            format!("max window power {max_power:.1} W"),
        );
        out.check(
            "every configuration produced a positive power reading",
            r.cells.iter().all(|c| c.power_w > 0.0),
            format!("{} cells", r.cells.len()),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_hwspec::calib::powercal;
    use hsw_node::EngineMode;

    fn t5() -> &'static Table5 {
        static CACHE: std::sync::OnceLock<Table5> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn firestarter_power_matches_paper_level() {
        let t = t5();
        let c = t.cell("FIRESTARTER", false, "bal").unwrap();
        assert!(
            (c.power_w - powercal::TABLE5_FIRESTARTER_W).abs() < 14.0,
            "FS 2500/bal = {:.1} W (paper {:.1})",
            c.power_w,
            powercal::TABLE5_FIRESTARTER_W
        );
    }

    #[test]
    fn linpack_draws_notably_less_and_runs_slowest() {
        // Paper: "LINPACK causes a notably lower power consumption than the
        // other two benchmarks. It also runs with the lowest frequency."
        let t = t5();
        for turbo in [false, true] {
            let fs = t.cell("FIRESTARTER", turbo, "bal").unwrap();
            let lp = t.cell("LINPACK", turbo, "bal").unwrap();
            let mp = t.cell("mprime", turbo, "bal").unwrap();
            assert!(lp.power_w < fs.power_w, "LINPACK power");
            assert!(lp.power_w < mp.power_w, "LINPACK vs mprime power");
            assert!(lp.core_ghz < fs.core_ghz && lp.core_ghz < mp.core_ghz);
        }
    }

    #[test]
    fn linpack_frequency_near_2_28() {
        let t = t5();
        let lp = t.cell("LINPACK", false, "bal").unwrap();
        assert!(
            (lp.core_ghz - powercal::TABLE5_LINPACK_GHZ).abs() < 0.1,
            "LINPACK at {:.3} GHz (paper {:.2})",
            lp.core_ghz,
            powercal::TABLE5_LINPACK_GHZ
        );
    }

    #[test]
    fn mprime_exceeds_nominal_under_turbo() {
        // Paper: mprime 2.60–2.62 GHz at the Turbo setting.
        let t = t5();
        let mp = t.cell("mprime", true, "bal").unwrap();
        assert!(mp.core_ghz > 2.5, "mprime turbo at {:.3} GHz", mp.core_ghz);
    }

    #[test]
    fn perf_epb_at_2500_enables_turbo_for_mprime() {
        // Paper Table V: mprime 2500/perf runs at 2.59 GHz — above nominal,
        // because EPB=performance keeps turbo active at the base setting.
        let t = t5();
        let perf = t.cell("mprime", false, "perf").unwrap();
        let power = t.cell("mprime", false, "power").unwrap();
        assert!(
            perf.core_ghz > 2.5,
            "mprime 2500/perf at {:.3} GHz",
            perf.core_ghz
        );
        assert!(power.core_ghz <= 2.51);
    }

    #[test]
    fn epb_and_turbo_have_little_power_impact() {
        // Paper: "EPB, turbo mode, and Hyper-Threading settings have very
        // little impact on ... the power consumption."
        let t = t5();
        let powers: Vec<f64> = t
            .cells
            .iter()
            .filter(|c| c.benchmark == "FIRESTARTER")
            .map(|c| c.power_w)
            .collect();
        let min = powers.iter().cloned().fold(f64::MAX, f64::min);
        let max = powers.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 8.0, "FS spread {min:.1}..{max:.1} W");
    }

    #[test]
    fn firestarter_is_most_constant() {
        let t = t5();
        let fs = t.cell("FIRESTARTER", false, "bal").unwrap();
        let mp = t.cell("mprime", false, "bal").unwrap();
        assert!(fs.power_stddev_w < mp.power_stddev_w);
    }
}
