//! Energy-efficient turbo (paper Section II-E).
//!
//! EET monitors stall cycles and, together with the EPB, limits turbo
//! frequencies that do not buy performance. The stall data is only polled
//! sporadically — the patent lists a 1 ms period — so workloads whose
//! character changes at an unfavorable rate get mispredicted, which is the
//! paper's caveat ("EET may impair performance and energy efficiency of
//! workloads that change their characteristics at an unfavorable rate").

use hsw_hwspec::clock::US;
use hsw_hwspec::{calib, EpbClass, SkuSpec};

use crate::pstate::Ns;

/// Stall fraction above which turbo stops paying off and EET caps the grant.
pub const EET_STALL_CAP_THRESHOLD: f64 = 0.60;

/// The per-socket EET controller.
#[derive(Debug, Clone)]
pub struct EetController {
    enabled: bool,
    /// Stall fraction sampled at the last poll (stale up to 1 ms).
    sampled_stall: f64,
    next_poll: Ns,
}

impl EetController {
    pub fn new(enabled: bool) -> Self {
        EetController {
            enabled,
            sampled_stall: 0.0,
            next_poll: 0,
        }
    }

    /// Advance to `now`, polling the *instantaneous* stall fraction only at
    /// the 1 ms boundaries — the sporadic sampling the paper criticizes.
    pub fn tick(&mut self, now: Ns, instantaneous_stall: f64) {
        while self.next_poll <= now {
            self.sampled_stall = instantaneous_stall;
            self.next_poll += calib::EET_POLL_PERIOD_US as Ns * US;
        }
    }

    /// The stall estimate EET currently acts on (possibly stale).
    pub fn sampled_stall(&self) -> f64 {
        self.sampled_stall
    }

    /// The turbo ceiling EET allows, given the unconstrained ceiling.
    ///
    /// With EPB `performance` (or EET disabled) the grant is untouched.
    /// Otherwise a stall-dominated workload is capped at the base frequency
    /// — turbo would burn power without performance.
    pub fn limit_mhz(&self, spec: &SkuSpec, epb: EpbClass, unconstrained_mhz: u32) -> u32 {
        if !self.enabled || epb == EpbClass::Performance {
            return unconstrained_mhz;
        }
        if self.sampled_stall > EET_STALL_CAP_THRESHOLD {
            unconstrained_mhz.min(spec.freq.base_mhz)
        } else {
            unconstrained_mhz
        }
    }

    /// The next poll boundary (the only instant this controller acts).
    pub fn next_poll(&self) -> Ns {
        self.next_poll
    }

    /// Whether a poll at the given stall level would change the sampled
    /// state — i.e. whether replaying this controller over a constant
    /// workload can alter anything downstream.
    pub fn settled_at(&self, instantaneous_stall: f64) -> bool {
        let before = self.sampled_stall > EET_STALL_CAP_THRESHOLD;
        let after = instantaneous_stall > EET_STALL_CAP_THRESHOLD;
        before == after
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::SkuSpec;

    fn sku() -> SkuSpec {
        SkuSpec::xeon_e5_2680_v3()
    }

    #[test]
    fn stall_dominated_turbo_is_capped_at_base() {
        let mut eet = EetController::new(true);
        eet.tick(0, 0.85);
        assert_eq!(eet.limit_mhz(&sku(), EpbClass::Balanced, 2900), 2500);
    }

    #[test]
    fn compute_bound_turbo_is_untouched() {
        let mut eet = EetController::new(true);
        eet.tick(0, 0.05);
        assert_eq!(eet.limit_mhz(&sku(), EpbClass::Balanced, 2900), 2900);
    }

    #[test]
    fn performance_epb_disables_the_cap() {
        let mut eet = EetController::new(true);
        eet.tick(0, 0.9);
        assert_eq!(eet.limit_mhz(&sku(), EpbClass::Performance, 2900), 2900);
    }

    #[test]
    fn disabled_eet_never_caps() {
        let mut eet = EetController::new(false);
        eet.tick(0, 0.9);
        assert_eq!(eet.limit_mhz(&sku(), EpbClass::EnergySaving, 2900), 2900);
    }

    #[test]
    fn sporadic_polling_acts_on_stale_data() {
        // A workload flipping phase between polls is mispredicted — the
        // paper's "unfavorable rate" remark.
        let mut eet = EetController::new(true);
        eet.tick(0, 0.9); // poll sees a stalled phase
                          // The workload turns compute-bound right after the poll …
        eet.tick(400 * US, 0.05); // no poll boundary crossed: stale 0.9
        assert!(
            eet.limit_mhz(&sku(), EpbClass::Balanced, 2900) == 2500,
            "EET still caps based on the stale stalled sample"
        );
        // … and only the next 1 ms poll corrects it.
        eet.tick(1_000 * US, 0.05);
        assert_eq!(eet.limit_mhz(&sku(), EpbClass::Balanced, 2900), 2900);
    }
}
