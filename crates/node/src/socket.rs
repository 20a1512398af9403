//! One simulated processor package.
//!
//! The socket exposes two step paths. The **full tick** runs every model
//! stage — p-state engine, workload aggregation, AVX licenses, EET, the PCU
//! equilibrium solve, c-states, DRAM, power, thermal, RAPL and the counter
//! plane. The **light tick** is the event engine's fast path: it replays
//! only the periodic controllers whose outcome cannot change (EET polls,
//! AVX relax checks, the p-state opportunity clock, the PCU timer) and the
//! continuous integrators (thermal, RAPL), fed the cached outputs of the
//! last full tick. It is valid up to the **wake horizon** that full tick
//! recorded: the next p-state latch or switch completion, plus the next
//! periodic PCU re-solve while the grant reads the limiter average (or was
//! restored rather than solved here). Both ticks end in one shared
//! integrator tail, and the light tick's controller replay performs the
//! *identical* floating-point operations in the identical order, so a span
//! stepped lightly ends in bit-identical state to the same span stepped
//! fully — the property the `--engine fixed|event` equivalence tests pin
//! down.
//!
//! ## Snapshot layout and the SoA core plane
//!
//! Everything a tick can change lives in one [`SocketState`], so a
//! snapshot is `state.clone()` and [`Socket::restore`] copies it back whole
//! with `clone_from`: every restore is a full one, and a new tick field is
//! captured by construction once it is a field of the state. Its
//! components ([`MsrBank`], [`PStateEngine`], the per-core SoA plane
//! [`CorePlanes`], RAPL, thermal) are `Clone` and captured whole, with the
//! generation constants they were built from, so a restore asserts that
//! the image shares the socket's generation and DRAM mode. Configuration
//! stays on the socket: the spec is read at each step, so a fleet chip
//! that restores a golden image keeps its own leakage, turbo bins and RAPL
//! trim (`RaplEngine::advance` takes the trim from the spec). The restore
//! tests in `node.rs` anchor it: a restored or re-armed node's snapshot
//! equals its source, the next step is a full one and rewrites the thermal
//! readout, and a restored chip meters with its own trim.

use std::sync::Arc;

use hsw_cstates::{fill_core_states, resolve_package_state, CoreCState, PkgCState};
use hsw_exec::{DutyCycle, WorkloadProfile};
use hsw_hwspec::clock::{domain, DomainNoise};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, PState, SkuSpec};
use hsw_msr::{addresses as msra, fields, MsrBank};
use hsw_pcu::{
    AvxLicense, EetController, PStateEngine, PcuController, PcuGrant, PcuInputs, TransitionEvent,
    TransitionLog,
};
use hsw_power::{
    dram_power_w, package_power_w, CoreElecState, DramRaplMode, ModelBias, RaplEngine,
    ThermalParams, ThermalState,
};

/// Nanoseconds.
pub type Ns = u64;
const US: Ns = 1_000;

/// The snapshot planes a fork copies, one bit each: the MSR bank, the
/// p-state/PCU engine, RAPL, the core planes, the counter plane,
/// thermal, the transition log and the workload table. Every restore
/// copies all eight, so [`PlaneMask::ALL`] is the only value. It exists for
/// the benchmark tracer's `fork_path` probe, which counts the planes each
/// fork copies, and goes when that probe does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneMask(u16);

impl PlaneMask {
    pub const ALL: PlaneMask = PlaneMask(0xFF);

    pub fn bits(self) -> u16 {
        self.0
    }
}

/// Per-tick result handed to the node for aggregation.
#[derive(Debug, Clone, Copy, Default)]
pub struct SocketTick {
    pub pkg_w: f64,
    pub dram_w: f64,
    pub dram_bw_gbs: f64,
}

/// Counting rates of the MSR counter plane. Between the full ticks that
/// change them the rates are constant, so elapsed time accumulates as a
/// pending span and flushes in one `rate × span` step. Both engine modes
/// flush at identical instants with identical spans — the MSR residue
/// arithmetic is order-sensitive, so this is what keeps counters
/// bit-identical across `--engine fixed|event`.
#[derive(Debug, Clone, PartialEq)]
struct CounterRates {
    uncore_ghz: f64,
    threads: Vec<ThreadRates>,
    core_cstates: Vec<CoreCState>,
    pkg_cstate: PkgCState,
}

impl CounterRates {
    fn empty() -> Self {
        CounterRates {
            uncore_ghz: 0.0,
            threads: Vec::new(),
            core_cstates: Vec::new(),
            pkg_cstate: PkgCState::PC6,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct ThreadRates {
    c0: bool,
    fc_ghz: f64,
    /// `None` when no workload is assigned (the counter is never touched,
    /// matching the per-tick accumulation it replaces).
    instret_per_ns: Option<f64>,
}

/// Inputs and outputs of the last full tick, replayed by light ticks. It
/// belongs to the socket, not to its state: a restore resets it.
#[derive(Debug, Clone)]
struct QuietCache {
    tick: SocketTick,
    eet_input: f64,
    bias: ModelBias,
    /// The limiter-average bucket of the last PCU key; a light phase must
    /// end (wake) on the step where the live average leaves it.
    avg_bucket: u64,
    /// The digital thermal readout last stored to `IA32_THERM_STATUS`;
    /// `u64::MAX` while the bank may hold another (a new or restored one).
    therm_readout: u64,
    /// The wake horizon: the earliest instant at which a discrete event
    /// can fire. A step ending at or after it runs the full tick. 0 (wake
    /// at once) unless the last full tick found the socket steady under
    /// the event engine; every mutator and restore resets it.
    wake_at: Ns,
}

impl QuietCache {
    fn new() -> Self {
        QuietCache {
            tick: SocketTick::default(),
            eet_input: 0.0,
            bias: ModelBias::NONE,
            avg_bucket: 0,
            therm_readout: u64::MAX,
            wake_at: 0,
        }
    }
}

/// The PCU inputs whose change forces a re-solve ahead of the periodic
/// one, compared field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PcuKey {
    /// The limiter's running average in 2 W buckets, so the solver re-runs
    /// as the average migrates (fine steps during bursts, none in steady
    /// state).
    avg_bucket: u64,
    setting: FreqSetting,
    active: usize,
    epb: EpbClass,
    turbo_enabled: bool,
    avx_level: u8,
    /// Mean duty in 5 % buckets.
    duty_bucket: u64,
    /// EET's sampled stall in whole percent.
    stall_pct: u64,
    /// The raw `MSR_UNCORE_RATIO_LIMIT` window the grant is clamped to.
    uncore_limit: u64,
}

/// The per-core hot state as a structure of arrays: `Socket::tick`'s
/// per-core stages walk these as contiguous slices instead of chasing one
/// struct per core. `busy`/`smt`/`lead` are caches derived from the
/// thread-indexed workload table, maintained at assignment time
/// (`CorePlanes::sync_core`) so the hot loops never re-scan the threads
/// of a core; a snapshot clones them with the workload table they derive
/// from.
#[derive(Debug, Clone)]
pub struct CorePlanes {
    /// Requested frequency setting per core (the OS view).
    requested: Vec<FreqSetting>,
    /// Effective core frequency in MHz (ground truth).
    mhz: Vec<f64>,
    /// Current c-state per core.
    cstates: Vec<CoreCState>,
    /// AVX license state machine per core.
    avx: Vec<AvxLicense>,
    /// The AVX stream input observed by the last full tick (the light
    /// tick's replay input).
    avx_input: Vec<bool>,
    /// Whether any thread of the core has a workload.
    busy: Vec<bool>,
    /// Whether ≥ 2 threads of the core have workloads.
    smt: Vec<bool>,
    /// Index of the core's first busy hardware thread (`usize::MAX` when
    /// idle) — the thread whose profile speaks for the core.
    lead: Vec<usize>,
}

impl CorePlanes {
    fn new(spec: &SkuSpec) -> Self {
        let cores = spec.cores;
        CorePlanes {
            requested: vec![FreqSetting::Turbo; cores],
            mhz: vec![spec.freq.min_mhz as f64; cores],
            cstates: vec![CoreCState::C6; cores],
            avx: vec![AvxLicense::for_generation(spec.generation); cores],
            avx_input: vec![false; cores],
            busy: vec![false; cores],
            smt: vec![false; cores],
            lead: vec![usize::MAX; cores],
        }
    }

    fn len(&self) -> usize {
        self.mhz.len()
    }

    /// Recompute one core's `busy`/`smt`/`lead` cache from the workload
    /// table (called at assignment time, never in the tick hot path).
    fn sync_core(&mut self, core: usize, threads: &[Option<WorkloadProfile>], tpc: usize) {
        let base = core * tpc;
        let mut n = 0usize;
        let mut lead = usize::MAX;
        for (t, w) in threads[base..base + tpc].iter().enumerate() {
            if w.is_some() {
                if lead == usize::MAX {
                    lead = base + t;
                }
                n += 1;
            }
        }
        self.busy[core] = n > 0;
        self.smt[core] = n >= 2;
        self.lead[core] = lead;
    }

    /// The profile of `core`'s lead thread; `None` when the core is idle.
    fn lead_profile<'t>(
        &self,
        core: usize,
        threads: &'t [Option<WorkloadProfile>],
    ) -> Option<&'t WorkloadProfile> {
        threads.get(self.lead[core])?.as_ref()
    }
}

/// Reused per-tick buffers, so the steady-state tick allocates nothing.
struct TickScratch {
    /// Per-core duty factor of this tick (0 for idle cores).
    duty: Vec<f64>,
    /// Per-core electrical state fed to the power model.
    elec: Vec<CoreElecState>,
    /// Profile groups for the DRAM demand model: (first core of the group,
    /// cores in group, summed duty).
    groups: Vec<(usize, usize, f64)>,
    /// The rate set being assembled this tick, swapped into place when it
    /// differs from the active one.
    next_rates: CounterRates,
}

impl TickScratch {
    fn new() -> Self {
        TickScratch {
            duty: Vec::new(),
            elec: Vec::new(),
            groups: Vec::new(),
            next_rates: CounterRates::empty(),
        }
    }
}

/// One processor package with its PCU, MSRs, RAPL, and c-state machinery.
pub struct Socket {
    pub id: usize,
    spec: Arc<SkuSpec>,
    power_mult: f64,
    eet_enabled: bool,
    /// Everything a tick can change: what a snapshot captures.
    state: SocketState,
    /// Keyed noise streams: draws are pure functions of the simulation
    /// instant, never of how many times the engine stepped.
    noise_pstate: DomainNoise,
    noise_rapl: DomainNoise,
    /// What light ticks replay, and up to which wake horizon (see
    /// [`Socket::light_tick`]).
    cached: QuietCache,
    /// Whether the grant came from a restore instead of this chip's own
    /// solve. A fleet chip restores a golden snapshot under a varied spec,
    /// so its first periodic re-solve is on the wake horizon.
    grant_restored: bool,
    /// Reused per-tick buffers.
    scratch: TickScratch,
}

/// A [`Socket`]'s tick state, and so its snapshot: everything a tick can
/// change, including the counter plane's pending span, so a restored
/// socket continues bit-identically under either engine mode. Identity and
/// configuration (`id`, `spec`, `power_mult`, `eet_enabled`), the keyed
/// noise streams and the event engine's replay cache stay on the socket:
/// the first step after a restore is always a full one.
#[derive(Debug, Clone)]
pub struct SocketState {
    msr: MsrBank,
    pstate: PStateEngine,
    eet: EetController,
    rapl: RaplEngine,
    /// Per-core hot state, structure-of-arrays (see [`CorePlanes`]).
    cores: CorePlanes,
    /// Workload per hardware thread.
    threads: Vec<Option<WorkloadProfile>>,
    pkg_cstate: PkgCState,
    /// Granted operating point (updated at the PCU cadence).
    grant: PcuGrant,
    next_pcu: Ns,
    /// The PCU inputs at the last solve (event-driven re-solve); `None`
    /// until the first one.
    last_pcu_key: Option<PcuKey>,
    uncore_mhz: f64,
    thermal: ThermalState,
    transition_log: TransitionLog,
    rates: Option<CounterRates>,
    pending_ns: Ns,
}

impl Socket {
    /// Build socket `id` of a node, at time 0.
    ///
    /// # Panics
    ///
    /// If `spec.power.rapl_trim_gain` is not positive.
    pub fn new(
        id: usize,
        spec: SkuSpec,
        power_mult: f64,
        dram_mode: DramRaplMode,
        eet_enabled: bool,
        pcu_phase_ns: Ns,
        seed: u64,
    ) -> Self {
        assert!(
            spec.power.rapl_trim_gain > 0.0,
            "RAPL trim gain must be positive"
        );
        let threads = spec.hw_threads();
        let cores = spec.cores;
        let base = PState::from_mhz(spec.freq.base_mhz);
        let mut msr = MsrBank::new(spec.generation, threads);
        // The firmware default EPB is balanced (paper Table II).
        for t in 0..threads {
            msr.store(
                t,
                msra::IA32_ENERGY_PERF_BIAS,
                fields::encode_epb(EpbClass::Balanced),
            );
            msr.store(t, msra::IA32_PERF_CTL, fields::encode_perf_ctl(base));
        }
        let socket_seed = Self::socket_seed(seed, id);
        Socket {
            id,
            power_mult,
            eet_enabled,
            state: SocketState {
                msr,
                pstate: PStateEngine::new(spec.generation, cores, base, pcu_phase_ns),
                eet: EetController::new(eet_enabled),
                rapl: RaplEngine::new(spec.generation, dram_mode),
                cores: CorePlanes::new(&spec),
                threads: vec![None; threads],
                pkg_cstate: PkgCState::PC6,
                grant: PcuGrant {
                    core_mhz: spec.freq.min_mhz as f64,
                    uncore_mhz: spec.freq.uncore_min_mhz as f64,
                    power_w: 0.0,
                    power_limited: false,
                },
                next_pcu: pcu_phase_ns,
                last_pcu_key: None,
                uncore_mhz: spec.freq.uncore_min_mhz as f64,
                thermal: ThermalState::new(ThermalParams::server_max_fans()),
                transition_log: TransitionLog::new(),
                rates: None,
                pending_ns: 0,
            },
            noise_pstate: DomainNoise::new(socket_seed, domain::PSTATE),
            noise_rapl: DomainNoise::new(socket_seed, domain::RAPL),
            cached: QuietCache::new(),
            grant_restored: false,
            spec: Arc::new(spec),
            scratch: TickScratch::new(),
        }
    }

    /// Per-socket noise key: golden-ratio mix so socket 0 and 1 draw
    /// independent streams from the same node seed.
    fn socket_seed(seed: u64, id: usize) -> u64 {
        seed ^ (id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Re-derive the keyed noise streams from a new node seed — the
    /// warm-start fork's re-seed path. Draws are keyed by instant, so the
    /// streams diverge only from the fork instant on.
    pub(crate) fn reseed(&mut self, seed: u64) {
        let socket_seed = Self::socket_seed(seed, self.id);
        self.noise_pstate = DomainNoise::new(socket_seed, domain::PSTATE);
        self.noise_rapl = DomainNoise::new(socket_seed, domain::RAPL);
    }

    pub fn spec(&self) -> &SkuSpec {
        &self.spec
    }

    /// The MSR bank (read-only view; the model reads and the `rdmsr`
    /// surface go through here).
    pub fn msr(&self) -> &MsrBank {
        &self.state.msr
    }

    /// Mutable MSR bank access — the *only* way to write the bank from
    /// outside the socket, so every external store forces the next step to
    /// be a full one (a write may steer the model).
    pub(crate) fn msr_mut(&mut self) -> &mut MsrBank {
        self.cached.wake_at = 0;
        &mut self.state.msr
    }

    /// The p-state engine's next opportunity instant (lets a test issue a
    /// request exactly on one).
    #[cfg(test)]
    pub(crate) fn next_opportunity(&self) -> Ns {
        self.state.pstate.next_opportunity()
    }

    /// The planes the next fork copies back: all of them, since every
    /// restore is a full one. It exists for the benchmark tracer's
    /// `fork_path` probe and goes when that probe does.
    pub fn dirty_planes(&self) -> PlaneMask {
        PlaneMask::ALL
    }

    /// The PCU's re-evaluation cadence, from the generation's firmware
    /// policy (500 µs on every surveyed part).
    fn pcu_period_ns(&self) -> Ns {
        self.spec.generation.policy().pstate.pcu_eval_period_us as Ns * US
    }

    /// Capture this socket's tick state (see [`SocketState`]).
    pub fn snapshot(&self) -> SocketState {
        self.state.clone()
    }

    /// Reinstate a previously captured state. Its identity, spec (the RAPL
    /// trim included) and noise streams are left untouched. The grant is
    /// now `snap`'s, and the next step must be a full one, which also
    /// rewrites the thermal readout the image's bank holds.
    ///
    /// # Panics
    ///
    /// If `snap` was captured on a socket of another geometry, generation
    /// or DRAM RAPL mode: the state carries the MSR geometry, the p-state
    /// policy and the RAPL mode derived from them.
    pub fn restore(&mut self, snap: &SocketState) {
        assert_eq!(
            self.state.cores.len(),
            snap.cores.len(),
            "snapshot geometry mismatch"
        );
        assert_eq!(
            (self.state.msr.generation(), self.state.rapl.dram_mode()),
            (snap.msr.generation(), snap.rapl.dram_mode()),
            "snapshot generation or DRAM RAPL mode mismatch"
        );
        self.state.clone_from(snap);
        self.cached = QuietCache::new();
        self.grant_restored = true;
    }

    /// Assign (or clear) a workload on a hardware thread.
    pub fn set_thread(&mut self, core: usize, thread: usize, w: Option<WorkloadProfile>) {
        let tpc = self.spec.threads_per_core;
        let idx = core * tpc + thread;
        self.state.threads[idx] = w;
        self.state.cores.sync_core(core, &self.state.threads, tpc);
        self.cached.wake_at = 0;
    }

    /// OS request: set the frequency setting of one core.
    pub fn set_core_setting(&mut self, core: usize, setting: FreqSetting, now: Ns) {
        self.cached.wake_at = 0;
        self.state.cores.requested[core] = setting;
        let target = match setting {
            FreqSetting::Fixed(p) => p,
            FreqSetting::Turbo => PState::from_mhz(self.spec.freq.base_mhz),
        };
        self.state.pstate.request(core, target, now);
        for t in 0..self.spec.threads_per_core {
            self.state.msr.store(
                core * self.spec.threads_per_core + t,
                msra::IA32_PERF_CTL,
                fields::encode_perf_ctl(target),
            );
        }
    }

    /// A `wrmsr` to `IA32_PERF_CTL` from a tool: translate into a p-state
    /// request (per-core domain on Haswell-EP).
    pub fn perf_ctl_written(&mut self, thread: usize, value: u64, now: Ns) {
        self.cached.wake_at = 0;
        let core = thread / self.spec.threads_per_core;
        let target = fields::decode_perf_ctl(value);
        self.state.cores.requested[core] = FreqSetting::Fixed(target);
        self.state.pstate.request(core, target, now);
    }

    /// EPB class currently programmed (core 0's thread 0 — the paper
    /// programs all cores alike).
    pub fn epb(&self) -> EpbClass {
        fields::decode_epb(
            self.state
                .msr
                .read(0, msra::IA32_ENERGY_PERF_BIAS)
                .unwrap_or(0),
        )
    }

    /// Whether turbo is enabled (inverted `IA32_MISC_ENABLE\[38\]`).
    pub fn turbo_enabled(&self) -> bool {
        let v = self
            .state
            .msr
            .read_package(msra::IA32_MISC_ENABLE)
            .unwrap_or(0);
        v & msra::MISC_ENABLE_TURBO_DISABLE_BIT == 0
    }

    fn active_cores(&self) -> usize {
        self.state.cores.busy.iter().filter(|&&b| b).count()
    }

    /// The dominant profile across busy threads (first found) — used for
    /// socket-scope aggregates that have no per-core meaning (the modeled
    /// RAPL bias class).
    fn dominant_profile(&self) -> Option<&WorkloadProfile> {
        self.state.threads.iter().flatten().next()
    }

    /// The transition-engine-gated setting of one core: a fixed request
    /// only takes effect once the p-state engine has switched (the ~500 µs
    /// opportunity mechanism).
    fn gated_setting(&self, core: usize) -> FreqSetting {
        match self.state.cores.requested[core] {
            FreqSetting::Turbo => FreqSetting::Turbo,
            FreqSetting::Fixed(_) => FreqSetting::Fixed(self.state.pstate.current(core)),
        }
    }

    /// The fastest (gated) setting among busy cores (Turbo dominates).
    fn fastest_setting(&self) -> FreqSetting {
        (0..self.spec.cores)
            .filter(|&c| self.state.cores.busy[c])
            .map(|c| self.gated_setting(c))
            .max()
            .unwrap_or(FreqSetting::Fixed(PState::from_mhz(
                self.spec.freq.base_mhz,
            )))
    }

    /// Advance this socket by `dt` ending at `now` (the full model). With
    /// `track_quiescence` (the event engine), the tick additionally records
    /// whether, and up to which wake horizon, subsequent steps may take the
    /// light path.
    pub fn tick(
        &mut self,
        now: Ns,
        dt: Ns,
        t_s: f64,
        other_socket_active: bool,
        fastest_setting_in_system: Option<FreqSetting>,
        track_quiescence: bool,
    ) -> SocketTick {
        let dt_s = dt as f64 * 1e-9;
        let spec = Arc::clone(&self.spec);
        let spec: &SkuSpec = &spec;
        let tpc = spec.threads_per_core;

        // 1. P-state engine (transition latencies). Events append straight
        //    into the bounded log — no per-tick intermediate Vec.
        self.state.pstate.tick(now, &self.noise_pstate);
        self.state
            .pstate
            .drain_events_into_log(&mut self.state.transition_log);

        // 2. Workload aggregation — heterogeneous per core: each core
        //    contributes its own profile's duty, activity, stalls and AVX
        //    stream; socket-scope aggregates are derived from those. The
        //    modeled-RAPL bias class (socket scope) is sampled here too so
        //    no profile needs cloning.
        let active = self.active_cores();
        let bias = self
            .dominant_profile()
            .map(|p| ModelBias {
                gain: p.snb_rapl_bias.0,
                offset_w: p.snb_rapl_bias.1,
            })
            .unwrap_or(ModelBias::NONE);
        let mut duty_sum = 0.0;
        let mut activity_sum = 0.0;
        let mut stall = 0.0f64;
        let mut all_const_duty = true;
        let smt_any = self.state.cores.smt.iter().any(|&s| s);
        self.scratch.duty.clear();
        for c in 0..spec.cores {
            let mut duty_c = 0.0;
            if let Some(p) = self.state.cores.lead_profile(c, &self.state.threads) {
                let d = p.duty.factor_at(t_s);
                duty_c = d;
                duty_sum += d;
                activity_sum += p.activity(self.state.cores.smt[c]) * d;
                // Stalls drive UFS up: the hungriest core dominates.
                stall = stall.max(p.stall_fraction);
                if !matches!(p.duty, DutyCycle::Constant) {
                    all_const_duty = false;
                }
            }
            self.scratch.duty.push(duty_c);
        }
        let duty = if active > 0 {
            duty_sum / active as f64
        } else {
            0.0
        };

        // 3. AVX licenses (per core, driven by its own instruction stream).
        for c in 0..spec.cores {
            let avx_stream = self
                .state
                .cores
                .lead_profile(c, &self.state.threads)
                .is_some_and(|p| p.avx_heavy);
            let on = self.state.cores.busy[c] && avx_stream;
            self.state.cores.avx_input[c] = on;
            self.state.cores.avx[c].observe(on, now);
        }
        let avx_level = (0..spec.cores)
            .filter(|c| self.state.cores.busy[*c])
            .map(|c| self.state.cores.avx[c].level())
            .max()
            .unwrap_or(0);

        // 4. EET (1 ms sporadic stall polling).
        let eet_input = stall * duty.min(1.0);
        self.state.eet.tick(now, eet_input);

        // 5. PCU equilibrium: re-solved at the 500 µs cadence (power drift)
        //    and immediately whenever an input changes — e.g. a p-state
        //    opportunity completing a transition.
        let setting = fastest_setting_in_system
            .filter(|_| active == 0)
            .unwrap_or_else(|| self.fastest_setting());
        let epb = self.epb();
        let avg_bucket = (self.state.rapl.running_avg_pkg_w() / 2.0) as u64;
        let key = PcuKey {
            avg_bucket,
            setting,
            active,
            epb,
            turbo_enabled: self.turbo_enabled(),
            avx_level,
            duty_bucket: (duty * 20.0).round() as u64,
            stall_pct: (self.state.eet.sampled_stall() * 100.0) as u64,
            uncore_limit: self
                .state
                .msr
                .read_package(msra::MSR_UNCORE_RATIO_LIMIT)
                .unwrap_or(0),
        };
        let eet_limit = if self.eet_enabled {
            self.state
                .eet
                .limit_mhz(spec, epb, spec.freq.turbo_mhz(active.max(1)))
        } else {
            u32::MAX
        };
        let activity = if active > 0 {
            activity_sum / active as f64
        } else {
            0.0
        };
        let inputs = PcuInputs {
            spec,
            socket_power_mult: self.power_mult,
            setting,
            epb,
            turbo_enabled: self.turbo_enabled(),
            active_cores: active,
            gated_idle_cores: (0..spec.cores)
                .filter(|c| {
                    !self.state.cores.busy[*c] && self.state.cores.cstates[*c].power_gated()
                })
                .count(),
            activity,
            avx_level,
            stall_fraction: stall,
            eet_limit_mhz: eet_limit,
            avg_pkg_w: self.state.rapl.running_avg_pkg_w(),
        };
        if self.state.last_pcu_key != Some(key) || self.state.next_pcu <= now {
            self.state.last_pcu_key = Some(key);
            self.state.next_pcu = now + self.pcu_period_ns();
            self.state.grant = PcuController::solve(&inputs);
            self.grant_restored = false;
            // Software-imposed uncore bounds (paper Section II-D: "it can
            // be specified via the MSR UNCORE_RATIO_LIMIT"): clamp the UFS
            // grant to the programmed window.
            if key.uncore_limit != 0 {
                let (min_ratio, max_ratio) = fields::decode_uncore_ratio_limit(key.uncore_limit);
                let lo = (min_ratio as f64 * 100.0).max(spec.freq.uncore_min_mhz as f64);
                let hi = (max_ratio as f64 * 100.0)
                    .min(spec.freq.uncore_max_mhz as f64)
                    .max(lo);
                self.state.grant.uncore_mhz = self.state.grant.uncore_mhz.clamp(lo, hi);
            }
        }

        // 6. Effective frequencies: the PCU grant, clamped per core by its
        //    own (transition-latency-gated) p-state for fixed settings.
        for c in 0..spec.cores {
            if !self.state.cores.busy[c] {
                self.state.cores.mhz[c] = spec.freq.min_mhz as f64;
                continue;
            }
            let own_cap = match self.state.cores.requested[c] {
                FreqSetting::Turbo => f64::INFINITY,
                // EPB=performance keeps turbo active at the base-frequency
                // setting (paper Section II-C) — the fixed-p-state clamp
                // must not override the PCU's turbo grant in that case.
                FreqSetting::Fixed(p)
                    if p.mhz() == spec.freq.base_mhz
                        && self.epb() == EpbClass::Performance
                        && self.turbo_enabled() =>
                {
                    f64::INFINITY
                }
                FreqSetting::Fixed(_) => self.state.pstate.current(c).mhz() as f64,
            };
            self.state.cores.mhz[c] = self.state.grant.core_mhz.min(own_cap);
        }

        // 7. C-states: busy cores in C0; idle cores deep-idle via the
        //    governor (long predicted idle); package state needs the whole
        //    system idle (paper Section V-A).
        fill_core_states(
            &spec.acpi,
            &self.state.cores.busy,
            1_000_000,
            &mut self.state.cores.cstates,
        );
        self.state.pkg_cstate =
            resolve_package_state(&self.state.cores.cstates, other_socket_active);
        let uncore_mhz = if self.state.pkg_cstate.uncore_halted() {
            0.0
        } else {
            self.state.grant.uncore_mhz
        };
        self.state.uncore_mhz = uncore_mhz;

        // 8. DRAM traffic: per-core demand summed across profiles, capped
        //    by the bandwidth model at the current clocks. Bandwidth-bound
        //    cores saturate the channels at ~8 cores (paper Fig. 8);
        //    compute-bound traffic scales with the number of busy cores.
        let sat = hsw_hwspec::calib::bandwidth::DRAM_SATURATION_CORES as f64;
        // Group busy cores by profile: `dram_gbs_full_socket` is the demand
        // of a fully loaded socket, so a group's demand saturates (at that
        // value) once it spans ~8 cores for bandwidth-bound profiles, and
        // scales linearly with cores otherwise.
        let threads = &self.state.threads;
        let cores = &self.state.cores;
        let groups = &mut self.scratch.groups;
        groups.clear();
        for c in 0..spec.cores {
            let Some(p) = cores.lead_profile(c, threads) else {
                continue;
            };
            let d = self.scratch.duty[c];
            let mut found = false;
            for g in groups.iter_mut() {
                if cores
                    .lead_profile(g.0, threads)
                    .is_some_and(|q| q.name == p.name)
                {
                    g.1 += 1;
                    g.2 += d;
                    found = true;
                    break;
                }
            }
            if !found {
                groups.push((c, 1, d));
            }
        }
        let mut demand = 0.0;
        for &(core, n, duty_total) in groups.iter() {
            let Some(p) = cores.lead_profile(core, threads) else {
                continue;
            };
            let avg_duty = duty_total / n as f64;
            let scale = if p.stall_fraction > hsw_hwspec::calib::UFS_STALL_THRESHOLD {
                (n as f64 / sat).min(1.0)
            } else {
                n as f64 / spec.cores as f64
            };
            demand += p.dram_gbs_full_socket * scale * avg_duty;
        }
        let dram_bw = if active > 0 {
            let cap = hsw_memhier::dram_read_bandwidth_gbs(
                spec,
                active,
                if smt_any { 2 } else { 1 },
                self.state.grant.core_mhz / 1000.0,
                (uncore_mhz / 1000.0).max(1.2),
            );
            demand.min(cap)
        } else {
            0.0
        };

        // 9. Power.
        self.scratch.elec.clear();
        for c in 0..spec.cores {
            if self.state.cores.busy[c] {
                let smt = self.state.cores.smt[c];
                let act = self
                    .state
                    .cores
                    .lead_profile(c, &self.state.threads)
                    .map(|p| p.activity(smt) * self.scratch.duty[c])
                    .unwrap_or(0.0)
                    * self.state.cores.avx[c].throughput_factor().max(0.5);
                self.scratch.elec.push(CoreElecState {
                    mhz: self.state.cores.mhz[c].round() as u32,
                    activity: act,
                    license_level: self.state.cores.avx[c].level(),
                    power_gated: false,
                });
            } else if self.state.cores.cstates[c].power_gated() {
                self.scratch.elec.push(CoreElecState::gated());
            } else {
                self.scratch.elec.push(CoreElecState {
                    mhz: spec.freq.min_mhz,
                    activity: 0.0,
                    license_level: 0,
                    power_gated: false,
                });
            }
        }
        let pkg = package_power_w(
            spec,
            self.power_mult,
            &self.scratch.elec,
            uncore_mhz.round() as u32,
        );
        let mut pkg_w = pkg.total_w();
        // OS housekeeping: idle cores keep waking briefly (timer ticks), and
        // a nominally halted uncore still clocks part of the time — this is
        // what keeps the paper's idle node at 261.5 W AC (Table II).
        let idle_frac = (spec.cores - active) as f64 / spec.cores as f64;
        pkg_w += hsw_hwspec::calib::IDLE_PKG_HOUSEKEEPING_W * idle_frac;
        if self.state.pkg_cstate.uncore_halted() {
            let floor = spec.freq.uncore_min_mhz;
            let residual = package_power_w(spec, self.power_mult, &[], floor).uncore_w;
            pkg_w += residual * hsw_hwspec::calib::IDLE_UNCORE_RESIDENCY;
        }
        let dram_w = dram_power_w(spec, dram_bw);

        // 10–11. Thermal and RAPL integrate this tick's power.
        self.integrate(now, dt_s, pkg_w, dram_w, bias);

        // 12. Counter plane: refresh the rate set, flushing the pending
        //     span under the old rates first if anything changed. The next
        //     rate set is assembled in the scratch buffer and swapped in,
        //     so the steady-state tick allocates nothing.
        self.state.msr.store_package(
            msra::MSR_PKG_ENERGY_STATUS,
            self.state.rapl.pkg_raw() as u64,
        );
        self.state.msr.store_package(
            msra::MSR_DRAM_ENERGY_STATUS,
            self.state.rapl.dram_raw() as u64,
        );
        let fu_ghz = (uncore_mhz / 1000.0).max(0.1);
        self.scratch.next_rates.uncore_ghz = uncore_mhz / 1000.0;
        self.scratch.next_rates.threads.clear();
        for c in 0..spec.cores {
            let fc_ghz = self.state.cores.mhz[c] / 1000.0;
            let c0 = self.state.cores.cstates[c] == CoreCState::C0;
            for t in 0..tpc {
                let idx = c * tpc + t;
                let instret_per_ns = self.state.threads[idx].as_ref().map(|p| {
                    p.ipc(self.state.cores.smt[c], fc_ghz, fu_ghz)
                        * self.state.cores.avx[c].throughput_factor()
                        * fc_ghz
                        * duty.max(0.0)
                });
                self.scratch.next_rates.threads.push(ThreadRates {
                    c0,
                    fc_ghz,
                    instret_per_ns,
                });
                let ratio = PState((self.state.cores.mhz[c] / 100.0).round() as u8);
                self.state.msr.store(
                    idx,
                    msra::IA32_PERF_STATUS,
                    fields::encode_perf_status(ratio),
                );
            }
        }
        self.scratch.next_rates.core_cstates.clear();
        self.scratch
            .next_rates
            .core_cstates
            .extend_from_slice(&self.state.cores.cstates);
        self.scratch.next_rates.pkg_cstate = self.state.pkg_cstate;
        if self.state.rates.as_ref() != Some(&self.scratch.next_rates) {
            self.flush_counters();
            match &mut self.state.rates {
                Some(r) => std::mem::swap(r, &mut self.scratch.next_rates),
                None => self.state.rates = Some(self.scratch.next_rates.clone()),
            }
        }
        self.state.pending_ns += dt;

        let out = SocketTick {
            pkg_w,
            dram_w,
            dram_bw_gbs: dram_bw,
        };

        // 13. Wake horizon: with a steady workload, AVX licences and EET
        //     sample, this tick's outputs hold until a discrete event
        //     fires — a p-state latch or switch completion, or the periodic
        //     re-solve when it can move the grant (the grant reads the
        //     limiter's running average, or is a restored one this chip
        //     has not solved itself). Between those instants the full tick
        //     would reproduce exactly what the light tick replays.
        self.cached.tick = out;
        self.cached.eet_input = eet_input;
        self.cached.bias = bias;
        self.cached.avg_bucket = avg_bucket;
        let steady = track_quiescence
            && all_const_duty
            && (0..spec.cores)
                .all(|c| self.state.cores.avx[c].stable_under(self.state.cores.avx_input[c]))
            && self.state.eet.sampled_stall().to_bits() == eet_input.to_bits();
        self.cached.wake_at = if !steady {
            0
        } else if self.grant_restored || !PcuController::avg_insensitive(&inputs) {
            self.state
                .pstate
                .next_event()
                .unwrap_or(Ns::MAX)
                .min(self.state.next_pcu)
        } else {
            self.state.pstate.next_event().unwrap_or(Ns::MAX)
        };

        out
    }

    /// Pre-step wake test for a step ending at `end`: must it be a full
    /// tick? Yes once `end` reaches the wake horizon, or when the limiter's
    /// running average has crossed the 2 W bucket hashed into the PCU key:
    /// the full tick re-solves on exactly that step, so its body (and key
    /// bookkeeping) must run.
    pub fn light_wake(&self, end: Ns) -> bool {
        end >= self.cached.wake_at
            || (self.state.rapl.running_avg_pkg_w() / 2.0) as u64 != self.cached.avg_bucket
    }

    /// Light step, valid before the wake horizon: replays only the
    /// periodic controllers whose outcome is provably unchanged (EET poll,
    /// AVX relax, the p-state opportunity clock, PCU timer) and the
    /// continuous integrators (thermal and RAPL), using the inputs cached by
    /// the last full tick. The integrators run through the same
    /// `integrate` tail as the full tick, so the state after the span is
    /// bit-identical no matter which path stepped it.
    pub fn light_tick(&mut self, now: Ns, dt: Ns) -> SocketTick {
        debug_assert!(
            now < self.cached.wake_at,
            "light_tick past the wake horizon"
        );
        let dt_s = dt as f64 * 1e-9;
        self.state
            .pstate
            .pass_opportunities(now, &self.noise_pstate);
        for c in 0..self.spec.cores {
            let on = self.state.cores.avx_input[c];
            self.state.cores.avx[c].observe(on, now);
        }
        self.state.eet.tick(now, self.cached.eet_input);
        if self.state.next_pcu <= now {
            // Before the horizon, a due re-solve is one that reproduces
            // this chip's own avg-independent grant from unchanged inputs:
            // only the schedule advances (the fixed engine's bookkeeping).
            self.state.next_pcu = now + self.pcu_period_ns();
        }
        let out = self.cached.tick;
        self.integrate(now, dt_s, out.pkg_w, out.dram_w, self.cached.bias);
        self.state.pending_ns += dt;
        out
    }

    /// The continuous integrators both step bodies end with, so a light
    /// step advances them exactly as a full one does. Thermal state
    /// integrates (observability: the test node's maximum fans keep TDP,
    /// not PROCHOT, the binding limit), its digital readout is stored to
    /// `IA32_THERM_STATUS` when it changes, and RAPL meters the interval
    /// (modeled bias on pre-Haswell generations) with an error draw keyed
    /// to the interval's end instant.
    fn integrate(&mut self, now: Ns, dt_s: f64, pkg_w: f64, dram_w: f64, bias: ModelBias) {
        self.state.thermal.advance(dt_s, pkg_w);
        debug_assert!(
            !self.state.thermal.prochot(),
            "max-fan node must not PROCHOT"
        );
        let readout = (96.0 - self.state.thermal.t_die_c).clamp(0.0, 127.0) as u64;
        if readout != self.cached.therm_readout {
            self.cached.therm_readout = readout;
            for t in 0..self.spec.hw_threads() {
                self.state
                    .msr
                    .store(t, msra::IA32_THERM_STATUS, readout << 16);
            }
        }
        self.state.rapl.advance(
            dt_s,
            pkg_w,
            dram_w,
            bias,
            self.noise_rapl.symmetric(now, 0),
            self.spec.power.rapl_trim_gain,
        );
    }

    /// Apply the pending counter span under the current rates and refresh
    /// the energy-status mirrors. Called on rate changes and at the end of
    /// every `Node::advance_us`, so software reads between advances always
    /// see current counters.
    pub(crate) fn flush_counters(&mut self) {
        let span = std::mem::replace(&mut self.state.pending_ns, 0) as f64;
        let Some(rates) = self.state.rates.take() else {
            return;
        };
        if span > 0.0 {
            let nominal_ghz = self.spec.freq.base_mhz as f64 / 1000.0;
            let tpc = self.spec.threads_per_core;
            self.state
                .msr
                .accumulate(0, msra::MSR_U_PMON_UCLK_FIXED_CTR, rates.uncore_ghz * span);
            for (idx, t) in rates.threads.iter().enumerate() {
                self.state
                    .msr
                    .accumulate(idx, msra::IA32_TIME_STAMP_COUNTER, nominal_ghz * span);
                if t.c0 {
                    self.state
                        .msr
                        .accumulate(idx, msra::IA32_APERF, t.fc_ghz * span);
                    self.state
                        .msr
                        .accumulate(idx, msra::IA32_MPERF, nominal_ghz * span);
                    self.state.msr.accumulate(
                        idx,
                        msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED,
                        t.fc_ghz * span,
                    );
                    self.state.msr.accumulate(
                        idx,
                        msra::IA32_FIXED_CTR2_REF_CYCLES,
                        nominal_ghz * span,
                    );
                    if let Some(r) = t.instret_per_ns {
                        self.state.msr.accumulate(
                            idx,
                            msra::IA32_FIXED_CTR0_INST_RETIRED,
                            r * span,
                        );
                    }
                }
            }
            for (c, cs) in rates.core_cstates.iter().enumerate() {
                if *cs == CoreCState::C3 {
                    self.state.msr.accumulate(
                        c * tpc,
                        msra::MSR_CORE_C3_RESIDENCY,
                        nominal_ghz * span,
                    );
                }
                if *cs == CoreCState::C6 {
                    self.state.msr.accumulate(
                        c * tpc,
                        msra::MSR_CORE_C6_RESIDENCY,
                        nominal_ghz * span,
                    );
                }
            }
            if rates.pkg_cstate == PkgCState::PC3 {
                self.state
                    .msr
                    .accumulate(0, msra::MSR_PKG_C3_RESIDENCY, nominal_ghz * span);
            }
            if rates.pkg_cstate == PkgCState::PC6 {
                self.state
                    .msr
                    .accumulate(0, msra::MSR_PKG_C6_RESIDENCY, nominal_ghz * span);
            }
            self.state.msr.store_package(
                msra::MSR_PKG_ENERGY_STATUS,
                self.state.rapl.pkg_raw() as u64,
            );
            self.state.msr.store_package(
                msra::MSR_DRAM_ENERGY_STATUS,
                self.state.rapl.dram_raw() as u64,
            );
        }
        self.state.rates = Some(rates);
    }

    // --- Ground-truth accessors (simulation-internal; tests and traces) ---

    pub fn true_core_mhz(&self, core: usize) -> f64 {
        self.state.cores.mhz[core]
    }

    pub fn true_uncore_mhz(&self) -> f64 {
        self.state.uncore_mhz
    }

    pub fn grant(&self) -> PcuGrant {
        self.state.grant
    }

    pub fn package_cstate(&self) -> PkgCState {
        self.state.pkg_cstate
    }

    pub fn core_cstate(&self, core: usize) -> CoreCState {
        self.state.cores.cstates[core]
    }

    pub fn any_core_active(&self) -> bool {
        self.active_cores() > 0
    }

    pub fn requested_setting(&self, core: usize) -> FreqSetting {
        self.state.cores.requested[core]
    }

    pub fn drain_transitions(&mut self) -> Vec<TransitionEvent> {
        self.state.transition_log.drain()
    }

    pub fn rapl(&self) -> &RaplEngine {
        &self.state.rapl
    }

    /// Die temperature in °C (ground truth; software reads the digital
    /// readout in `IA32_THERM_STATUS`).
    pub fn die_temperature_c(&self) -> f64 {
        self.state.thermal.t_die_c
    }
}
