//! First-order thermal model of a package.
//!
//! Die temperature follows `dT/dt = (P·R_th − (T − T_amb)) / τ`. The
//! socket reads it out through `IA32_THERM_STATUS` and checks that the
//! test node, fans at maximum, never reaches PROCHOT. Temperature feeds
//! nothing back into power: the paper's "lower sustained turbo
//! frequencies, possibly due to thermal reasons" remark about its first
//! processor is modeled as a power-efficiency difference
//! (`calib::SOCKET_POWER_EFFICIENCY`), not as temperature-dependent
//! leakage.

/// Package thermal parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalParams {
    /// Junction-to-ambient thermal resistance in K/W.
    pub r_th_k_per_w: f64,
    /// Thermal time constant in seconds.
    pub tau_s: f64,
    /// Ambient (inlet) temperature in °C.
    pub t_ambient_c: f64,
    /// Throttle (PROCHOT) temperature in °C.
    pub t_prochot_c: f64,
}

impl ThermalParams {
    /// A 2U server package under strong airflow (the test node runs its
    /// fans at maximum — Table II).
    pub fn server_max_fans() -> Self {
        ThermalParams {
            r_th_k_per_w: 0.28,
            tau_s: 6.0,
            t_ambient_c: 26.0,
            t_prochot_c: 96.0,
        }
    }
}

/// Temperature state of one package.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    pub t_die_c: f64,
    params: ThermalParams,
}

impl ThermalState {
    pub fn new(params: ThermalParams) -> Self {
        ThermalState {
            t_die_c: params.t_ambient_c,
            params,
        }
    }

    /// Advance the RC model by `dt_s` with package power `p_w`.
    pub fn advance(&mut self, dt_s: f64, p_w: f64) {
        let target = self.params.t_ambient_c + p_w * self.params.r_th_k_per_w;
        let alpha = 1.0 - (-dt_s / self.params.tau_s).exp();
        self.t_die_c += alpha * (target - self.t_die_c);
    }

    /// Steady-state temperature at constant power.
    pub fn steady_state_c(&self, p_w: f64) -> f64 {
        self.params.t_ambient_c + p_w * self.params.r_th_k_per_w
    }

    /// Whether the package is at its PROCHOT throttle point.
    pub fn prochot(&self) -> bool {
        self.t_die_c >= self.params.t_prochot_c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn steady_state_is_below_prochot_at_tdp_with_max_fans() {
        // The test node never thermally throttles — TDP (RAPL) is the
        // binding limit, as the paper's Table IV analysis assumes.
        let t = ThermalState::new(ThermalParams::server_max_fans());
        let steady = t.steady_state_c(120.0);
        assert!(
            steady < ThermalParams::server_max_fans().t_prochot_c,
            "steady {steady:.1} °C"
        );
        assert!((55.0..75.0).contains(&steady), "steady {steady:.1} °C");
    }

    #[test]
    fn temperature_converges_exponentially() {
        let mut t = ThermalState::new(ThermalParams::server_max_fans());
        for _ in 0..100 {
            t.advance(0.5, 120.0);
        }
        assert!((t.t_die_c - t.steady_state_c(120.0)).abs() < 0.5);
        // And one time constant reaches ~63 %.
        let mut t2 = ThermalState::new(ThermalParams::server_max_fans());
        t2.advance(6.0, 120.0);
        let frac = (t2.t_die_c - 26.0) / (t2.steady_state_c(120.0) - 26.0);
        assert!((frac - 0.632).abs() < 0.02, "frac {frac:.3}");
    }

    #[test]
    fn worse_heatsink_seating_raises_steady_temperature() {
        // A worse heat-sink seating runs hotter at equal power (no
        // power feedback: see the module doc).
        let good = ThermalState::new(ThermalParams::server_max_fans());
        let worse = ThermalState::new(ThermalParams {
            r_th_k_per_w: 0.34,
            ..ThermalParams::server_max_fans()
        });
        assert!(worse.steady_state_c(120.0) > good.steady_state_c(120.0) + 5.0);
    }

    proptest! {
        #[test]
        fn prop_temperature_bounded_by_ambient_and_steady(
            p in 0.0f64..200.0,
            steps in 1usize..200,
        ) {
            let params = ThermalParams::server_max_fans();
            let mut t = ThermalState::new(params);
            for _ in 0..steps {
                t.advance(0.3, p);
            }
            prop_assert!(t.t_die_c >= params.t_ambient_c - 1e-9);
            prop_assert!(t.t_die_c <= t.steady_state_c(p) + 1e-9);
        }

        #[test]
        fn prop_monotone_in_power(p in 10.0f64..150.0) {
            let params = ThermalParams::server_max_fans();
            let mut a = ThermalState::new(params);
            let mut b = ThermalState::new(params);
            for _ in 0..50 {
                a.advance(0.5, p);
                b.advance(0.5, p + 20.0);
            }
            prop_assert!(b.t_die_c > a.t_die_c);
        }
    }
}
