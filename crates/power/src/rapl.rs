//! RAPL engines: measured (Haswell-EP) vs. modeled (Sandy Bridge-EP) energy
//! accounting, and the DRAM mode 0 / mode 1 distinction (paper Section IV).

use hsw_hwspec::{calib, CpuGeneration, RaplMode};
use hsw_msr::EnergyCounter;

// `calib` stays imported for the limiter window, which is not
// generation-varying firmware policy.

/// DRAM RAPL operating mode. Haswell-EP only supports mode 1; selecting
/// mode 0 in the BIOS "will result in unspecified behavior" — modeled here
/// as energy scaled by the (wrong) package energy unit, producing the
/// "unreasonable high values for DRAM power consumption" the paper warns
/// about when using the SDM's unit instead of the datasheet's 15.3 µJ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramRaplMode {
    Mode0,
    Mode1,
}

/// Per-workload-class bias of the *modeled* RAPL implementation
/// (Sandy Bridge-EP, paper Fig. 2a): the event-counter model over- or
/// under-estimates depending on what the workload exercises.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelBias {
    /// Multiplicative error of the package model.
    pub gain: f64,
    /// Additive error in W.
    pub offset_w: f64,
}

impl ModelBias {
    pub const NONE: ModelBias = ModelBias {
        gain: 1.0,
        offset_w: 0.0,
    };
}

/// The RAPL machinery of one socket.
#[derive(Debug, Clone)]
pub struct RaplEngine {
    mode: RaplMode,
    dram_mode: DramRaplMode,
    pkg: EnergyCounter,
    dram: EnergyCounter,
    /// Running average of package power over the limiter window, used by the
    /// PCU's TDP enforcement (exponentially weighted).
    avg_pkg_w: f64,
    /// Relative noise amplitude of the measured (FIVR/IMON) readout,
    /// from the generation's [`hsw_hwspec::RaplPolicy`].
    measured_noise_frac: f64,
    /// Relative noise amplitude of the modeled readout.
    modeled_noise_frac: f64,
    /// Package-unit / DRAM-unit ratio, the mode-0 misreading factor.
    mode0_unit_ratio: f64,
}

impl RaplEngine {
    pub fn new(generation: CpuGeneration, dram_mode: DramRaplMode) -> Self {
        let policy = generation.policy().rapl;
        RaplEngine {
            mode: policy.mode,
            dram_mode,
            pkg: EnergyCounter::new(policy.pkg_energy_unit_uj * 1e-6),
            dram: EnergyCounter::new(policy.dram_energy_unit_uj * 1e-6),
            avg_pkg_w: 0.0,
            measured_noise_frac: policy.measured_noise_frac,
            modeled_noise_frac: policy.modeled_noise_frac,
            mode0_unit_ratio: policy.pkg_energy_unit_uj / policy.dram_energy_unit_uj,
        }
    }

    pub fn mode(&self) -> RaplMode {
        self.mode
    }

    pub fn dram_mode(&self) -> DramRaplMode {
        self.dram_mode
    }

    /// Advance the engine by `dt_s` with the given true component powers.
    /// `bias` is the modeled-RAPL workload bias (ignored by measured RAPL).
    /// `noise` is a uniform draw in [-1, 1] — keyed by the caller to the
    /// simulation instant, not to how many times `advance` ran, so fixed-tick
    /// and event stepping accumulate identical error sequences. Measured RAPL
    /// scales it to its sub-percent quantization/measurement band.
    ///
    /// `trim_gain` is the chip's metering calibration relative to the
    /// nominal datasheet unit (`PowerCoeffs::rapl_trim_gain`, 1.0 on the
    /// reference chip). Counts accumulate scaled by it while readers keep
    /// converting with the nominal unit, so both the reported power *and*
    /// the limiter's enforcement see the trimmed value — exactly how a
    /// miscalibrated unit behaves under a power cap. It is configuration,
    /// not engine state, so a clone of a golden chip's engine advanced by a
    /// varied chip meters with the varied chip's own trim.
    pub fn advance(
        &mut self,
        dt_s: f64,
        true_pkg_w: f64,
        true_dram_w: f64,
        bias: ModelBias,
        noise: f64,
        trim_gain: f64,
    ) {
        let (pkg_w, dram_w) = match self.mode {
            RaplMode::Unavailable => (0.0, 0.0),
            RaplMode::Measured => {
                // FIVR/IMON-based measurement: sub-percent white error.
                let e = 1.0 + noise * self.measured_noise_frac;
                (true_pkg_w * e, true_dram_w * e)
            }
            RaplMode::Modeled => {
                // Event-driven model: systematic per-workload bias plus a
                // little model noise.
                let e = 1.0 + noise * self.modeled_noise_frac;
                (
                    (true_pkg_w * bias.gain + bias.offset_w) * e,
                    true_dram_w * bias.gain * e,
                )
            }
        };
        let dram_w = match self.dram_mode {
            DramRaplMode::Mode1 => dram_w,
            // Mode 0: counts are produced as if the energy unit were the
            // package ESU (61 µJ) while the register is read with the fixed
            // 15.3 µJ DRAM unit → readings ≈ 4× too high. Unity where the
            // generation uses a uniform unit (Skylake-SP).
            DramRaplMode::Mode0 => dram_w * self.mode0_unit_ratio,
        };
        self.pkg.add_joules((pkg_w * trim_gain * dt_s).max(0.0));
        self.dram.add_joules((dram_w * trim_gain * dt_s).max(0.0));
        // Power-limiter running average (~1 s time constant). PL1 compares
        // the *metered* energy against TDP, so the per-chip trim feeds the
        // enforcement too: a chip reading high throttles correspondingly
        // early.
        let window_s = calib::RAPL_LIMIT_WINDOW_US as f64 * 1e-6;
        let alpha = (dt_s / window_s).min(1.0);
        self.avg_pkg_w += alpha * (true_pkg_w * trim_gain - self.avg_pkg_w);
    }

    /// Raw 32-bit `MSR_PKG_ENERGY_STATUS` value.
    pub fn pkg_raw(&self) -> u32 {
        self.pkg.raw()
    }

    /// Raw 32-bit `MSR_DRAM_ENERGY_STATUS` value.
    pub fn dram_raw(&self) -> u32 {
        self.dram.raw()
    }

    /// Ground-truth accumulated package energy (simulation-internal).
    pub fn pkg_total_joules(&self) -> f64 {
        self.pkg.total_joules()
    }

    /// The limiter's running-average package power (what PL1 compares
    /// against TDP).
    pub fn running_avg_pkg_w(&self) -> f64 {
        self.avg_pkg_w
    }

    /// Interpret a pair of raw package readings as joules.
    pub fn pkg_delta_joules(&self, before: u32, after: u32) -> f64 {
        self.pkg.delta_joules(before, after)
    }

    /// Interpret a pair of raw DRAM readings as joules (mode-1 unit).
    pub fn dram_delta_joules(&self, before: u32, after: u32) -> f64 {
        self.dram.delta_joules(before, after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::clock::{domain, DomainNoise, Ns};

    fn run_engine(
        generation: CpuGeneration,
        dram_mode: DramRaplMode,
        pkg_w: f64,
        dram_w: f64,
        bias: ModelBias,
        secs: f64,
    ) -> (f64, f64) {
        let noise = DomainNoise::new(42, domain::RAPL);
        let mut eng = RaplEngine::new(generation, dram_mode);
        let (p0, d0) = (eng.pkg_raw(), eng.dram_raw());
        let dt = 0.001;
        let steps = (secs / dt) as usize;
        for i in 0..steps {
            eng.advance(
                dt,
                pkg_w,
                dram_w,
                bias,
                noise.symmetric(i as Ns * 1_000_000, 0),
                1.0,
            );
        }
        (
            eng.pkg_delta_joules(p0, eng.pkg_raw()) / secs,
            eng.dram_delta_joules(d0, eng.dram_raw()) / secs,
        )
    }

    #[test]
    fn haswell_policy_reproduces_the_calibration_units() {
        // Satellite regression pins: the policy-driven constructor carries
        // the exact pre-refactor calibration values.
        let eng = RaplEngine::new(CpuGeneration::HaswellEp, DramRaplMode::Mode1);
        assert_eq!(eng.mode(), RaplMode::Measured);
        assert_eq!(eng.measured_noise_frac, 0.004);
        assert_eq!(eng.modeled_noise_frac, 0.01);
        assert_eq!(
            eng.mode0_unit_ratio.to_bits(),
            (calib::PKG_ENERGY_UNIT_UJ / calib::DRAM_ENERGY_UNIT_UJ).to_bits()
        );
    }

    #[test]
    fn skylake_uses_one_uniform_energy_unit() {
        // 1905.12468 Section II-E: Skylake-SP reads the DRAM domain with the
        // same ESU as the package, so "mode 0" no longer misreads.
        let policy = CpuGeneration::SkylakeSp.policy().rapl;
        assert_eq!(policy.pkg_energy_unit_uj, policy.dram_energy_unit_uj);
        let eng = RaplEngine::new(CpuGeneration::SkylakeSp, DramRaplMode::Mode0);
        assert_eq!(eng.mode0_unit_ratio, 1.0);
        assert_eq!(eng.mode(), RaplMode::Measured);
    }

    #[test]
    fn measured_rapl_tracks_true_power_closely() {
        let (pkg, dram) = run_engine(
            CpuGeneration::HaswellEp,
            DramRaplMode::Mode1,
            120.0,
            20.0,
            ModelBias::NONE,
            4.0,
        );
        assert!((pkg - 120.0).abs() < 0.5, "pkg = {pkg}");
        assert!((dram - 20.0).abs() < 0.2, "dram = {dram}");
    }

    #[test]
    fn modeled_rapl_carries_workload_bias() {
        let bias = ModelBias {
            gain: 0.85,
            offset_w: -5.0,
        };
        let (pkg, _) = run_engine(
            CpuGeneration::SandyBridgeEp,
            DramRaplMode::Mode1,
            120.0,
            20.0,
            bias,
            4.0,
        );
        assert!((pkg - (120.0 * 0.85 - 5.0)).abs() < 1.5, "pkg = {pkg}");
    }

    #[test]
    fn dram_mode0_reads_unreasonably_high() {
        // Paper Section IV: using the SDM's (package) energy unit for the
        // DRAM domain "would result in unreasonable high values".
        let (_, dram0) = run_engine(
            CpuGeneration::HaswellEp,
            DramRaplMode::Mode0,
            120.0,
            20.0,
            ModelBias::NONE,
            2.0,
        );
        let ratio = dram0 / 20.0;
        assert!((3.5..4.5).contains(&ratio), "mode0 ratio = {ratio}");
    }

    #[test]
    fn westmere_counters_never_move() {
        let (pkg, dram) = run_engine(
            CpuGeneration::WestmereEp,
            DramRaplMode::Mode1,
            100.0,
            20.0,
            ModelBias::NONE,
            1.0,
        );
        assert_eq!(pkg, 0.0);
        assert_eq!(dram, 0.0);
    }

    #[test]
    fn running_average_settles_to_true_power() {
        let noise = DomainNoise::new(1, domain::RAPL);
        let mut eng = RaplEngine::new(CpuGeneration::HaswellEp, DramRaplMode::Mode1);
        for i in 0..5000 {
            eng.advance(
                0.001,
                130.0,
                10.0,
                ModelBias::NONE,
                noise.symmetric(i, 0),
                1.0,
            );
        }
        assert!((eng.running_avg_pkg_w() - 130.0).abs() < 2.0);
    }

    #[test]
    fn restored_fork_crosses_the_pkg_wrap_identically() {
        // Warm-start fork path: the clone a snapshot takes must carry the
        // package counter's raw value *and* its sub-unit residue across, so
        // a fork taken just below the 2^32 boundary wraps at exactly the
        // same instant as the uninterrupted engine.
        let period_j = 4_294_967_296.0 * calib::PKG_ENERGY_UNIT_UJ * 1e-6;
        let mut unforked = RaplEngine::new(CpuGeneration::HaswellEp, DramRaplMode::Mode1);
        // Park ~50 J below the wrap. Zero noise makes the placement exact.
        unforked.advance(1.0, period_j - 50.0, 0.0, ModelBias::NONE, 0.0, 1.0);
        let before = unforked.pkg_raw();
        assert!(before > u32::MAX - 1_000_000, "parked below the boundary");

        let mut fork = unforked.clone();

        // 7 kJ over one simulated second crosses the boundary in both.
        let noise = DomainNoise::new(3, domain::RAPL);
        for i in 0..100 {
            let n = noise.symmetric(i as Ns * 10_000_000, 0);
            unforked.advance(0.01, 7000.0, 0.0, ModelBias::NONE, n, 1.0);
            fork.advance(0.01, 7000.0, 0.0, ModelBias::NONE, n, 1.0);
        }
        assert!(unforked.pkg_raw() < before, "must wrap");
        assert_eq!(unforked.pkg_raw(), fork.pkg_raw());
        assert_eq!(
            unforked.pkg_total_joules().to_bits(),
            fork.pkg_total_joules().to_bits()
        );
        let d = unforked.pkg_delta_joules(before, unforked.pkg_raw());
        assert_eq!(d, fork.pkg_delta_joules(before, fork.pkg_raw()));
        // Wrap-aware delta still reads the consumed energy (±0.4% meter).
        assert!((d - 7000.0).abs() < 100.0, "d = {d}");
    }

    #[test]
    fn counters_survive_wraparound_measurement() {
        // 32-bit DRAM counter at 15.3 µJ wraps every ~65 kJ; a long window
        // at high power must still difference correctly.
        let noise = DomainNoise::new(9, domain::RAPL);
        let mut eng = RaplEngine::new(CpuGeneration::HaswellEp, DramRaplMode::Mode1);
        let before = eng.dram_raw();
        // 70 kJ in one step chain (7 kW·10 s equivalent).
        for i in 0..100 {
            eng.advance(
                0.1,
                0.0,
                7000.0,
                ModelBias::NONE,
                noise.symmetric(i, 0),
                1.0,
            );
        }
        let d = eng.dram_delta_joules(before, eng.dram_raw());
        // The wrap loses exactly one full counter period of 65.536 kJ.
        assert!((d - (70_000.0 - 65_536.0)).abs() < 400.0, "d = {d}");
    }
}
