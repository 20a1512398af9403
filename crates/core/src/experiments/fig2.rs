//! Figure 2 — quality of RAPL energy measurements (paper Section IV).
//!
//! Micro-benchmarks (idle, sinus, busy wait, memory, compute, dgemm, sqrt)
//! in different threading configurations; each point is a 4 s average of
//! (a) the LMG450 AC reference and (b) RAPL package + DRAM summed over both
//! sockets. On Sandy Bridge-EP the modeled RAPL shows per-workload bias
//! around a linear fit (Fig. 2a); on Haswell-EP the measured RAPL follows a
//! single quadratic with R² > 0.9998 and residuals below 3 W (Fig. 2b).

use hsw_exec::WorkloadProfile;
use hsw_hwspec::{calib, NodeSpec};
use hsw_msr::addresses as msra;
use hsw_node::{CpuId, Node, Resolution};
use serde::{Deserialize, Serialize};

use crate::stats::{linear_fit, quadratic_fit, Fit};
use crate::survey::RunCtx;
use crate::Table;

/// One measurement point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Point {
    pub workload: String,
    pub threads: usize,
    pub ac_w: f64,
    pub rapl_w: f64,
}

/// One panel (one generation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Panel {
    pub generation: String,
    pub points: Vec<Fig2Point>,
    pub linear: Option<Fit>,
    pub quadratic: Option<Fit>,
    /// Mean residual from the panel fit per workload — the workload bias
    /// visible in Fig. 2a.
    pub workload_bias_w: Vec<(String, f64)>,
}

impl Fig2Panel {
    /// Spread between the most over- and under-estimating workload class.
    /// A panel with no bias data (e.g. the quadratic fit failed) has zero
    /// spread, not `MIN - MAX = -inf`.
    pub fn bias_spread_w(&self) -> f64 {
        let vals: Vec<f64> = self.workload_bias_w.iter().map(|(_, b)| *b).collect();
        if vals.is_empty() {
            return 0.0;
        }
        let lo = vals.iter().cloned().fold(f64::MAX, f64::min);
        let hi = vals.iter().cloned().fold(f64::MIN, f64::max);
        hi - lo
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    pub sandy_bridge: Fig2Panel,
    pub haswell: Fig2Panel,
}

impl std::fmt::Display for Fig2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for panel in [&self.sandy_bridge, &self.haswell] {
            let mut t = Table::new(
                format!("Figure 2: RAPL vs AC on {}", panel.generation),
                vec!["workload", "threads", "AC [W]", "RAPL [W]"],
            );
            for p in &panel.points {
                t.row(vec![
                    p.workload.clone(),
                    p.threads.to_string(),
                    format!("{:.1}", p.ac_w),
                    format!("{:.1}", p.rapl_w),
                ]);
            }
            writeln!(f, "{t}")?;
            if let Some(q) = &panel.quadratic {
                writeln!(
                    f,
                    "  quadratic fit: AC = {:.4}*P^2 + {:.3}*P + {:.1}  (R^2 = {:.5}, max residual {:.2} W)",
                    q.coeffs[2], q.coeffs[1], q.coeffs[0], q.r_squared, q.max_residual
                )?;
            }
            if let Some(l) = &panel.linear {
                writeln!(
                    f,
                    "  linear fit:    AC = {:.3}*P + {:.1}  (R^2 = {:.5})",
                    l.coeffs[1], l.coeffs[0], l.r_squared
                )?;
            }
            writeln!(f, "  workload bias spread: {:.1} W", panel.bias_spread_w())?;
        }
        Ok(())
    }
}

/// Threading configurations: (cores per socket, sockets, threads per core).
fn configs(max_cores: usize) -> Vec<(usize, usize, usize)> {
    vec![
        (1, 1, 1),
        (2, 1, 1),
        (max_cores / 2, 1, 1),
        (max_cores, 1, 1),
        (max_cores, 2, 1),
        (max_cores, 2, 2),
    ]
}

/// Total RAPL power (pkg + DRAM, both sockets) over a window measured via
/// the MSR interface, alongside the AC meter average over the same window.
fn measure_point(node: &mut Node, avg_s: f64) -> (f64, f64) {
    let read = |node: &Node, socket: usize, addr: u32| {
        node.rdmsr(CpuId::new(socket, 0, 0), addr).unwrap_or(0) as u32
    };
    let sockets = node.config().spec.sockets;
    let before: Vec<(u32, u32)> = (0..sockets)
        .map(|s| {
            (
                read(node, s, msra::MSR_PKG_ENERGY_STATUS),
                read(node, s, msra::MSR_DRAM_ENERGY_STATUS),
            )
        })
        .collect();
    let ac = node.measure_ac_average(avg_s);
    let mut joules = 0.0;
    for (s, (p0, d0)) in before.iter().enumerate() {
        let p1 = read(node, s, msra::MSR_PKG_ENERGY_STATUS);
        let d1 = read(node, s, msra::MSR_DRAM_ENERGY_STATUS);
        joules += p1.wrapping_sub(*p0) as f64 * calib::PKG_ENERGY_UNIT_UJ * 1e-6;
        joules += d1.wrapping_sub(*d0) as f64 * calib::DRAM_ENERGY_UNIT_UJ * 1e-6;
    }
    (ac, joules / avg_s)
}

fn run_panel(ctx: &RunCtx, spec: NodeSpec, salt: u64) -> Fig2Panel {
    let generation = spec.sku.generation.name().to_string();
    let max_cores = spec.sku.cores;
    let avg_s = ctx.fidelity.durations().fig2_avg_s;
    let benches = WorkloadProfile::fig2_benchmarks();

    let jobs: Vec<(WorkloadProfile, (usize, usize, usize))> = benches
        .iter()
        .flat_map(|b| {
            let cfgs = if b.kind == hsw_exec::WorkloadKind::Idle {
                vec![(0, 0, 0)]
            } else {
                configs(max_cores)
            };
            cfgs.into_iter().map(move |c| (b.clone(), c))
        })
        .collect();

    // Warm-start split: the idle-settled node is identical for every point
    // of a panel, so it is warmed up once and forked per point; only the
    // workload assignment and its settle remain per point.
    let points: Vec<Fig2Point> = ctx.sweep_warm_salted(
        salt,
        &jobs,
        |builder| {
            let mut session = builder
                .spec(spec.clone())
                .resolution(Resolution::Custom(100))
                .build();
            session.idle_all();
            session.advance_s(0.4); // shared idle settle
            session
        },
        |node, (profile, (cores, sockets, tpc)), _seed| {
            for s in 0..*sockets {
                node.run_on_socket(s, profile, *cores, *tpc);
            }
            node.advance_s(0.4); // per-point settle under the new workload
            let (ac, rapl) = measure_point(node, avg_s);
            Fig2Point {
                workload: profile.name.to_string(),
                threads: cores * sockets * tpc,
                ac_w: ac,
                rapl_w: rapl,
            }
        },
    );

    // Fits: AC as a function of RAPL, as plotted in the paper.
    let xy: Vec<(f64, f64)> = points.iter().map(|p| (p.rapl_w, p.ac_w)).collect();
    let linear = linear_fit(&xy);
    let quadratic = quadratic_fit(&xy);

    // Per-workload mean residual against the panel's quadratic fit.
    let fit = quadratic.as_ref();
    let mut workload_bias_w = Vec::new();
    for b in &benches {
        let residuals: Vec<f64> = points
            .iter()
            .filter(|p| p.workload == b.name)
            .filter_map(|p| fit.map(|f| p.ac_w - f.eval(p.rapl_w)))
            .collect();
        if !residuals.is_empty() {
            workload_bias_w.push((
                b.name.to_string(),
                residuals.iter().sum::<f64>() / residuals.len() as f64,
            ));
        }
    }

    Fig2Panel {
        generation,
        points,
        linear,
        quadratic,
        workload_bias_w,
    }
}

/// Both panels' point seeds derive from `ctx.seed` via the sweep executor.
pub fn run(ctx: &RunCtx) -> Fig2 {
    Fig2 {
        sandy_bridge: run_panel(ctx, NodeSpec::sandy_bridge_node(), 0),
        haswell: run_panel(ctx, NodeSpec::paper_test_node(), 1),
    }
}

/// Registry adapter.
pub struct Experiment;

impl crate::survey::SurveyExperiment for Experiment {
    fn id(&self) -> &'static str {
        "fig2"
    }
    fn anchor(&self) -> &'static str {
        "Figure 2"
    }
    fn title(&self) -> &'static str {
        "RAPL measurement quality vs. AC reference"
    }
    fn run(&self, ctx: &crate::survey::RunCtx) -> crate::survey::ExperimentResult {
        let r = run(ctx);
        let mut out = crate::survey::ExperimentResult::capture(self, ctx, &r);
        let hsw_r2 = r
            .haswell
            .quadratic
            .as_ref()
            .map(|q| q.r_squared)
            .unwrap_or(0.0);
        out.metric("haswell_quadratic_r2", hsw_r2);
        out.metric("snb_bias_spread_w", r.sandy_bridge.bias_spread_w());
        out.metric("hsw_bias_spread_w", r.haswell.bias_spread_w());
        out.check(
            "Haswell RAPL follows a single quadratic (R² > 0.9995)",
            hsw_r2 > 0.9995,
            format!("R² = {hsw_r2:.5}"),
        );
        out.check(
            "Sandy Bridge shows the per-workload bias Haswell lacks",
            r.sandy_bridge.bias_spread_w() > r.haswell.bias_spread_w(),
            format!(
                "bias spread SNB {:.1} W vs HSW {:.1} W",
                r.sandy_bridge.bias_spread_w(),
                r.haswell.bias_spread_w()
            ),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Fidelity;
    use hsw_node::EngineMode;

    fn fig2() -> &'static Fig2 {
        static CACHE: std::sync::OnceLock<Fig2> = std::sync::OnceLock::new();
        CACHE.get_or_init(|| run(&RunCtx::new(Fidelity::Quick, 0, EngineMode::default())))
    }

    #[test]
    fn haswell_quadratic_fit_is_nearly_perfect() {
        // Paper: "an almost perfect correlation ... R² > 0.9998"; residuals
        // "below 3 W".
        let f = fig2();
        let q = f.haswell.quadratic.expect("fit");
        assert!(q.r_squared > 0.9995, "R² = {}", q.r_squared);
        assert!(
            q.max_residual < calib::AC_FIT_MAX_RESIDUAL_W + 1.0,
            "max residual {:.2} W",
            q.max_residual
        );
    }

    #[test]
    fn haswell_fit_recovers_the_published_coefficients() {
        let f = fig2();
        let q = f.haswell.quadratic.expect("fit");
        assert!(
            (q.coeffs[2] - calib::AC_FIT_A2).abs() < 2e-4,
            "{:?}",
            q.coeffs
        );
        assert!(
            (q.coeffs[1] - calib::AC_FIT_A1).abs() < 0.12,
            "{:?}",
            q.coeffs
        );
        assert!(
            (q.coeffs[0] - calib::AC_FIT_A0_W).abs() < 8.0,
            "{:?}",
            q.coeffs
        );
    }

    #[test]
    fn sandy_bridge_shows_workload_bias_haswell_does_not() {
        // The Figure 2a vs 2b contrast.
        let f = fig2();
        let snb = f.sandy_bridge.bias_spread_w();
        let hsw = f.haswell.bias_spread_w();
        assert!(
            snb > 3.0 * hsw.max(0.5),
            "SNB bias spread {snb:.1} W vs HSW {hsw:.1} W"
        );
        assert!(snb > 8.0, "SNB spread {snb:.1} W must be visible");
    }

    #[test]
    fn idle_points_sit_at_the_intercept() {
        let f = fig2();
        let idle = f
            .haswell
            .points
            .iter()
            .find(|p| p.workload == "idle")
            .unwrap();
        assert!(
            (idle.ac_w - calib::IDLE_NODE_POWER_W).abs() < 8.0,
            "idle AC {:.1}",
            idle.ac_w
        );
        assert!(idle.rapl_w < 45.0, "idle RAPL {:.1}", idle.rapl_w);
    }

    #[test]
    fn bias_spread_of_an_empty_panel_is_zero() {
        // Regression: MAX/MIN fold seeds made this -inf when the quadratic
        // fit failed and no workload bias could be computed.
        let empty = Fig2Panel {
            generation: "Haswell-EP".to_string(),
            points: Vec::new(),
            linear: None,
            quadratic: None,
            workload_bias_w: Vec::new(),
        };
        assert_eq!(empty.bias_spread_w(), 0.0);
        assert!(empty.bias_spread_w().is_finite());
    }

    #[test]
    fn panel_covers_all_benchmarks() {
        let f = fig2();
        for b in WorkloadProfile::fig2_benchmarks() {
            assert!(
                f.haswell.points.iter().any(|p| p.workload == b.name),
                "missing {}",
                b.name
            );
        }
    }
}
