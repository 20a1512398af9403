//! One simulated processor package.
//!
//! The socket exposes two step paths. The **full tick** runs every model
//! stage — p-state engine, workload aggregation, AVX licenses, EET, the PCU
//! equilibrium solve, c-states, DRAM, power, thermal, RAPL and the counter
//! plane. The **light tick** is the event engine's fast path: it replays
//! only the continuous integrators (RAPL, thermal, MBVR), the periodic
//! controllers whose outcome cannot change (EET polls, AVX relax checks,
//! the p-state opportunity clock, the PCU timer) and the cached outputs of
//! the last full tick. It is valid up to the **wake horizon** that full
//! tick recorded: the next p-state latch or switch completion, plus the
//! next periodic PCU re-solve while the grant reads the limiter average
//! (or was restored rather than solved here). The light tick performs the
//! *identical* floating-point operations in the identical order, so a span
//! stepped lightly ends in bit-identical state to the same span stepped
//! fully — the property the `--engine fixed|event` equivalence tests pin
//! down.
//!
//! ## Dirty planes and the SoA core plane
//!
//! Snapshot state is partitioned into **planes** ([`PlaneMask`]): the MSR
//! bank, the p-state/PCU engine, RAPL, the per-core SoA plane
//! ([`CorePlanes`]), the counter plane, thermal/VR, the transition log and
//! the workload plane. Every mutation choke point marks the planes it
//! touches in a bitmask, and [`Socket::restore_planes`] copies back only
//! the marked planes — the warm-start fork fast path
//! (`Node::fork_from`) rides on this to re-arm a scratch node in a small
//! fraction of a full restore. Correctness is anchored two ways: the
//! randomized fork/restore equivalence tests in `node.rs`, and the
//! hsw-lint M4 rule, which flattens the plane images and verifies every
//! socket field is still captured somewhere in the snapshot.

use std::sync::Arc;

use hsw_cstates::{fill_core_states, resolve_package_state, CoreCState, PkgCState};
use hsw_exec::{DutyCycle, WorkloadProfile};
use hsw_hwspec::clock::{domain, DomainNoise};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::{EpbClass, PState, SkuSpec};
use hsw_msr::{addresses as msra, fields, MsrBank, MsrBankSnapshot, MsrError};
use hsw_pcu::{
    AvxLicense, EetController, PStateEngine, PStateEngineSnapshot, PcuController, PcuGrant,
    PcuInputs, TransitionEvent, TransitionLog,
};
use hsw_power::{
    dram_power_w, package_power_w, CoreElecState, DramRaplMode, Mbvr, MbvrPowerState, ModelBias,
    RaplEngine, ThermalParams, ThermalState,
};

/// Nanoseconds.
pub type Ns = u64;
const US: Ns = 1_000;

/// A set of snapshot planes — the unit of dirty tracking and partial
/// restore. A plane groups fields that the same mutation choke points
/// touch, so the mask stays honest with a handful of `|=` sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlaneMask(u16);

impl PlaneMask {
    pub const NONE: PlaneMask = PlaneMask(0);
    /// The MSR bank (per-thread and package registers, counters included).
    pub const MSR: PlaneMask = PlaneMask(1 << 0);
    /// P-state engine, EET, the PCU grant/schedule and the uncore clock.
    pub const PSTATE: PlaneMask = PlaneMask(1 << 1);
    /// RAPL accumulators and the limiter's running average.
    pub const RAPL: PlaneMask = PlaneMask(1 << 2);
    /// The per-core SoA plane: requested settings, effective MHz,
    /// c-states, AVX licenses and their cached inputs.
    pub const CORES: PlaneMask = PlaneMask(1 << 3);
    /// Counter-plane bookkeeping: package c-state, rate set, pending span.
    pub const COUNTER: PlaneMask = PlaneMask(1 << 4);
    /// Thermal integrator and the mainboard VR state machine.
    pub const THERMAL: PlaneMask = PlaneMask(1 << 5);
    /// The bounded p-state transition log.
    pub const LOG: PlaneMask = PlaneMask(1 << 6);
    /// Workload assignments.
    pub const WORK: PlaneMask = PlaneMask(1 << 7);
    pub const ALL: PlaneMask = PlaneMask(0xFF);

    pub const fn union(self, other: PlaneMask) -> PlaneMask {
        PlaneMask(self.0 | other.0)
    }

    pub fn contains(self, other: PlaneMask) -> bool {
        self.0 & other.0 == other.0
    }

    pub fn intersects(self, other: PlaneMask) -> bool {
        self.0 & other.0 != 0
    }

    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    pub fn bits(self) -> u16 {
        self.0
    }
}

impl std::ops::BitOr for PlaneMask {
    type Output = PlaneMask;
    fn bitor(self, rhs: PlaneMask) -> PlaneMask {
        self.union(rhs)
    }
}

impl std::ops::BitOrAssign for PlaneMask {
    fn bitor_assign(&mut self, rhs: PlaneMask) {
        self.0 |= rhs.0;
    }
}

/// Planes a full tick always touches (the transition log is added only
/// when an event actually lands).
const TICK_PLANES: PlaneMask = PlaneMask::MSR
    .union(PlaneMask::PSTATE)
    .union(PlaneMask::RAPL)
    .union(PlaneMask::CORES)
    .union(PlaneMask::COUNTER)
    .union(PlaneMask::THERMAL)
    .union(PlaneMask::WORK);

/// Planes a light tick touches (the MSR bank is added only when the
/// thermal readout crosses a digitization step).
const LIGHT_TICK_PLANES: PlaneMask = PlaneMask::PSTATE
    .union(PlaneMask::RAPL)
    .union(PlaneMask::CORES)
    .union(PlaneMask::COUNTER)
    .union(PlaneMask::THERMAL)
    .union(PlaneMask::WORK);

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

/// Inputs and outputs of the last full tick, replayed by light ticks.
#[derive(Debug, Clone)]
struct QuietCache {
    tick: SocketTick,
    eet_input: f64,
    bias: ModelBias,
    /// The limiter-average bucket of the last PCU key; a light phase must
    /// end (wake) on the step where the live average leaves it.
    avg_bucket: u64,
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
            therm_readout: 0,
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
}

/// The per-core hot state as a structure of arrays: `Socket::tick`'s
/// per-core stages walk these as contiguous slices instead of chasing one
/// struct per core. `busy`/`smt`/`lead` are caches derived from the
/// thread-indexed workload table, maintained at assignment time
/// ([`CorePlanes::sync_core`]) so the hot loops never re-scan the threads
/// of a core.
#[derive(Debug)]
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
    // snap:skip(cache derived from the workload plane, resynced by the WORK-plane restore)
    busy: Vec<bool>,
    /// Whether ≥ 2 threads of the core have workloads.
    // snap:skip(cache derived from the workload plane, resynced by the WORK-plane restore)
    smt: Vec<bool>,
    /// Index of the core's first busy hardware thread (`usize::MAX` when
    /// idle) — the thread whose profile speaks for the core.
    // snap:skip(cache derived from the workload plane, resynced by the WORK-plane restore)
    lead: Vec<usize>,
}

/// Plain-data image of the [`CorePlanes`] snapshot fields. The
/// `busy`/`smt`/`lead` caches are derived from the workload plane and
/// resynced on restore.
#[derive(Debug, Clone)]
pub struct CorePlanesSnapshot {
    requested: Vec<FreqSetting>,
    mhz: Vec<f64>,
    cstates: Vec<CoreCState>,
    avx: Vec<AvxLicense>,
    avx_input: Vec<bool>,
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

    fn sync_from_threads(&mut self, threads: &[Option<WorkloadProfile>], tpc: usize) {
        for c in 0..self.len() {
            self.sync_core(c, threads, tpc);
        }
    }

    fn snapshot(&self) -> CorePlanesSnapshot {
        CorePlanesSnapshot {
            requested: self.requested.clone(),
            mhz: self.mhz.clone(),
            cstates: self.cstates.clone(),
            avx: self.avx.clone(),
            avx_input: self.avx_input.clone(),
        }
    }

    /// Restore the snapshot fields; the derived caches are resynced by the
    /// WORK-plane restore (they are functions of the workload table).
    fn restore(&mut self, snap: &CorePlanesSnapshot) {
        self.requested.clone_from(&snap.requested);
        self.mhz.clone_from(&snap.mhz);
        self.cstates.clone_from(&snap.cstates);
        self.avx.clone_from(&snap.avx);
        self.avx_input.clone_from(&snap.avx_input);
    }
}

/// Reused per-tick buffers, so the steady-state tick allocates nothing.
struct TickScratch {
    /// Per-core duty factor of this tick (0 for idle cores).
    duty: Vec<f64>,
    /// Per-core electrical state fed to the power model.
    elec: Vec<CoreElecState>,
    /// Profile groups for the DRAM demand model: (lead thread index,
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
    // snap:skip(identity constant, rebuilt by Socket::new)
    pub id: usize,
    // snap:skip(configuration constant, rebuilt by Socket::new)
    spec: Arc<SkuSpec>,
    // snap:skip(configuration constant, rebuilt by Socket::new)
    power_mult: f64,
    // snap:skip(configuration constant, rebuilt by Socket::new)
    eet_enabled: bool,
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
    mbvr: Mbvr,
    transition_log: TransitionLog,
    /// Keyed noise streams: draws are pure functions of the simulation
    /// instant, never of how many times the engine stepped.
    // snap:skip(seed-derived, keyed by instant not step count — rebuilt by Socket::new)
    noise_pstate: DomainNoise,
    // snap:skip(seed-derived, keyed by instant not step count — rebuilt by Socket::new)
    noise_rapl: DomainNoise,
    /// What light ticks replay, and up to which wake horizon (see
    /// [`Socket::light_tick`]).
    // snap:skip(event-engine cache, rewritten by the full step that follows every restore)
    cached: QuietCache,
    /// Whether the grant came from a restore instead of this chip's own
    /// solve. A fleet chip restores a golden snapshot under a varied spec,
    /// so its first periodic re-solve is on the wake horizon.
    // snap:skip(provenance of the grant, not simulator state)
    grant_restored: bool,
    rates: Option<CounterRates>,
    pending_ns: Ns,
    /// Planes mutated since the last (full or partial) restore — what a
    /// dirty-plane fork must copy back to return to the restored snapshot.
    // snap:skip(fork bookkeeping relative to the last restored snapshot, not simulator state)
    dirty: PlaneMask,
    /// Reused per-tick buffers.
    // snap:skip(per-tick scratch, rebuilt from socket state every tick)
    scratch: TickScratch,
}

/// Plain-data image of a [`Socket`]'s mutable state, partitioned into the
/// restore planes of [`PlaneMask`]. Identity and configuration (`id`,
/// `spec`, `power_mult`, `eet_enabled`) and the keyed noise streams are
/// re-established by the constructor; everything a tick can change is
/// captured here, including the counter plane's pending span, so a
/// restored socket continues bit-identically under either engine mode. The
/// event engine's replay cache is not: the first step after a restore is
/// always a full one.
#[derive(Debug, Clone)]
pub struct SocketSnapshot {
    msr: MsrBankSnapshot,
    pstate: PStatePlaneImage,
    rapl: RaplEngine,
    cores: CorePlanesSnapshot,
    counters: CounterPlaneImage,
    thermal: ThermalPlaneImage,
    transition_log: TransitionLog,
    work: WorkPlaneImage,
}

/// The [`PlaneMask::PSTATE`] plane: transition engine, EET, the PCU
/// grant/schedule and the uncore clock — everything the equilibrium solve
/// and its gating move together.
#[derive(Debug, Clone)]
pub struct PStatePlaneImage {
    pstate: PStateEngineSnapshot,
    eet: EetController,
    grant: PcuGrant,
    next_pcu: Ns,
    last_pcu_key: Option<PcuKey>,
    uncore_mhz: f64,
}

/// The [`PlaneMask::COUNTER`] plane: package c-state, the active rate set
/// and the pending flush span.
#[derive(Debug, Clone)]
pub struct CounterPlaneImage {
    pkg_cstate: PkgCState,
    rates: Option<CounterRates>,
    pending_ns: Ns,
}

/// The [`PlaneMask::THERMAL`] plane: die-thermal integrator and the
/// mainboard VR state machine.
#[derive(Debug, Clone)]
pub struct ThermalPlaneImage {
    thermal: ThermalState,
    mbvr: Mbvr,
}

/// The [`PlaneMask::WORK`] plane: workload assignments.
#[derive(Debug, Clone)]
pub struct WorkPlaneImage {
    threads: Vec<Option<WorkloadProfile>>,
}

impl Socket {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        spec: SkuSpec,
        power_mult: f64,
        dram_mode: DramRaplMode,
        eet_enabled: bool,
        pcu_phase_ns: Ns,
        seed: u64,
    ) -> Self {
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
            pstate: PStateEngine::new(spec.generation, cores, base, pcu_phase_ns),
            eet: EetController::new(eet_enabled),
            rapl: RaplEngine::new(spec.generation, dram_mode)
                .with_unit_trim(spec.power.rapl_trim_gain),
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
            mbvr: Mbvr::for_generation(spec.generation),
            msr,
            noise_pstate: DomainNoise::new(socket_seed, domain::PSTATE),
            noise_rapl: DomainNoise::new(socket_seed, domain::RAPL),
            cached: QuietCache::new(),
            grant_restored: false,
            rates: None,
            pending_ns: 0,
            spec: Arc::new(spec),
            transition_log: TransitionLog::new(),
            // A fresh socket is not synced with any snapshot yet.
            dirty: PlaneMask::ALL,
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
        &self.msr
    }

    /// Mutable MSR bank access — the *only* way to write the bank from
    /// outside the socket, so every external store marks the MSR plane and
    /// forces the next step to be a full one (a write may steer the model).
    pub(crate) fn msr_mut(&mut self) -> &mut MsrBank {
        self.dirty |= PlaneMask::MSR;
        self.cached.wake_at = 0;
        &mut self.msr
    }

    /// Test-only escape hatch that deliberately does NOT mark the MSR
    /// plane: used by the forgot-to-mark-dirty regression test to prove
    /// the tracking is load-bearing (an unmarked mutation makes the
    /// dirty-plane fork diverge from a full restore).
    #[cfg(test)]
    pub(crate) fn msr_mut_unmarked(&mut self) -> &mut MsrBank {
        &mut self.msr
    }

    /// The p-state engine's next opportunity instant (lets a test issue a
    /// request exactly on one).
    #[cfg(test)]
    pub(crate) fn next_opportunity(&self) -> Ns {
        self.pstate.next_opportunity()
    }

    /// Planes mutated since the last restore.
    pub fn dirty_planes(&self) -> PlaneMask {
        self.dirty
    }

    /// Conservative escape hatch for raw `&mut Socket` access: assume
    /// everything may be mutated.
    pub(crate) fn mark_all_dirty(&mut self) {
        self.dirty = PlaneMask::ALL;
    }

    /// Plane-scoped raw access: the caller declares up front which planes
    /// it will touch, and the next fork restores only those instead of the
    /// ALL that [`Node::socket_mut`](crate::Node::socket_mut) assumes.
    /// Mutating state outside `planes` through the returned reference
    /// breaks the fork contract the same way a forgotten `mark_dirty`
    /// would — declare generously when unsure.
    pub fn planes_mut(&mut self, planes: PlaneMask) -> &mut Socket {
        self.dirty |= planes;
        self.cached.wake_at = 0;
        self
    }

    /// Store an MSR through the bank's gate checks, the per-thread
    /// equivalent of [`Node::wrmsr`](crate::Node::wrmsr) for callers that
    /// already hold a socket borrow (e.g. via [`Socket::planes_mut`]).
    /// Routes through the marking choke point, so the MSR plane is dirtied
    /// whether or not the caller declared it.
    pub fn msr_store(&mut self, thread: usize, addr: u32, value: u64) -> Result<(), MsrError> {
        self.msr_mut().write(thread, addr, value)
    }

    /// The PCU's re-evaluation cadence, from the generation's firmware
    /// policy (500 µs on every surveyed part).
    fn pcu_period_ns(&self) -> Ns {
        self.spec.generation.policy().pstate().pcu_eval_period_us as Ns * US
    }

    /// Capture this socket's mutable state as plain data.
    pub fn snapshot(&self) -> SocketSnapshot {
        SocketSnapshot {
            msr: self.msr.snapshot(),
            pstate: PStatePlaneImage {
                pstate: self.pstate.snapshot(),
                eet: self.eet.clone(),
                grant: self.grant,
                next_pcu: self.next_pcu,
                last_pcu_key: self.last_pcu_key,
                uncore_mhz: self.uncore_mhz,
            },
            rapl: self.rapl.clone(),
            cores: self.cores.snapshot(),
            counters: CounterPlaneImage {
                pkg_cstate: self.pkg_cstate,
                rates: self.rates.clone(),
                pending_ns: self.pending_ns,
            },
            thermal: ThermalPlaneImage {
                thermal: self.thermal,
                mbvr: self.mbvr.clone(),
            },
            transition_log: self.transition_log.clone(),
            work: WorkPlaneImage {
                threads: self.threads.clone(),
            },
        }
    }

    /// Reinstate a previously captured state. The socket must have the
    /// geometry it was snapshotted with; its identity, spec and noise
    /// streams are left untouched (they are seed/config-derived).
    pub fn restore(&mut self, snap: &SocketSnapshot) {
        self.restore_planes(snap, PlaneMask::ALL);
    }

    /// Copy back only the selected planes from `snap` and clear their
    /// dirty bits. Sound exactly when every plane *not* selected is
    /// bit-identical between the socket and `snap` — the invariant the
    /// dirty mask maintains for a scratch node cycling against one warm
    /// image (`Node::fork_from`). Either way the grant is now `snap`'s,
    /// and the next step must be a full one.
    pub fn restore_planes(&mut self, snap: &SocketSnapshot, planes: PlaneMask) {
        assert_eq!(
            self.cores.len(),
            snap.cores.mhz.len(),
            "snapshot geometry mismatch"
        );
        if planes.intersects(PlaneMask::MSR) {
            self.msr.restore(&snap.msr);
        }
        if planes.intersects(PlaneMask::PSTATE) {
            self.pstate.restore(&snap.pstate.pstate);
            self.eet = snap.pstate.eet.clone();
            self.grant = snap.pstate.grant;
            self.next_pcu = snap.pstate.next_pcu;
            self.last_pcu_key = snap.pstate.last_pcu_key;
            self.uncore_mhz = snap.pstate.uncore_mhz;
        }
        if planes.intersects(PlaneMask::RAPL) {
            // Counters and limiter average are dynamic state; the chip's
            // metering trim is calibration and stays as constructed, so a
            // varied fleet chip restoring a golden snapshot keeps its own
            // trim.
            self.rapl.restore_from(&snap.rapl);
        }
        if planes.intersects(PlaneMask::CORES) {
            self.cores.restore(&snap.cores);
        }
        if planes.intersects(PlaneMask::COUNTER) {
            self.pkg_cstate = snap.counters.pkg_cstate;
            self.rates.clone_from(&snap.counters.rates);
            self.pending_ns = snap.counters.pending_ns;
        }
        if planes.intersects(PlaneMask::THERMAL) {
            self.thermal = snap.thermal.thermal;
            self.mbvr = snap.thermal.mbvr.clone();
        }
        if planes.intersects(PlaneMask::LOG) {
            self.transition_log.clone_from(&snap.transition_log);
        }
        if planes.intersects(PlaneMask::WORK) {
            self.threads.clone_from(&snap.work.threads);
            let tpc = self.spec.threads_per_core;
            self.cores.sync_from_threads(&self.threads, tpc);
        }
        self.cached.wake_at = 0;
        self.grant_restored = true;
        self.dirty = PlaneMask(self.dirty.bits() & !planes.bits());
    }

    /// Assign (or clear) a workload on a hardware thread.
    pub fn set_thread(&mut self, core: usize, thread: usize, w: Option<WorkloadProfile>) {
        let tpc = self.spec.threads_per_core;
        let idx = core * tpc + thread;
        self.threads[idx] = w;
        self.cores.sync_core(core, &self.threads, tpc);
        self.cached.wake_at = 0;
        self.dirty |= PlaneMask::WORK;
    }

    /// OS request: set the frequency setting of one core.
    pub fn set_core_setting(&mut self, core: usize, setting: FreqSetting, now: Ns) {
        self.cached.wake_at = 0;
        self.dirty |= PlaneMask::CORES | PlaneMask::PSTATE | PlaneMask::MSR | PlaneMask::WORK;
        self.cores.requested[core] = setting;
        let target = match setting {
            FreqSetting::Fixed(p) => p,
            FreqSetting::Turbo => PState::from_mhz(self.spec.freq.base_mhz),
        };
        self.pstate.request(core, target, now);
        for t in 0..self.spec.threads_per_core {
            self.msr.store(
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
        self.dirty |= PlaneMask::CORES | PlaneMask::PSTATE | PlaneMask::WORK;
        let core = thread / self.spec.threads_per_core;
        let target = fields::decode_perf_ctl(value);
        self.cores.requested[core] = FreqSetting::Fixed(target);
        self.pstate.request(core, target, now);
    }

    /// EPB class currently programmed (core 0's thread 0 — the paper
    /// programs all cores alike).
    pub fn epb(&self) -> EpbClass {
        fields::decode_epb(self.msr.read(0, msra::IA32_ENERGY_PERF_BIAS).unwrap_or(0))
    }

    /// Whether turbo is enabled (inverted `IA32_MISC_ENABLE\[38\]`).
    pub fn turbo_enabled(&self) -> bool {
        let v = self.msr.read_package(msra::IA32_MISC_ENABLE).unwrap_or(0);
        v & msra::MISC_ENABLE_TURBO_DISABLE_BIT == 0
    }

    fn active_cores(&self) -> usize {
        self.cores.busy.iter().filter(|&&b| b).count()
    }

    /// The dominant profile across busy threads (first found) — used for
    /// socket-scope aggregates that have no per-core meaning (the modeled
    /// RAPL bias class).
    fn dominant_profile(&self) -> Option<&WorkloadProfile> {
        self.threads.iter().flatten().next()
    }

    /// The transition-engine-gated setting of one core: a fixed request
    /// only takes effect once the p-state engine has switched (the ~500 µs
    /// opportunity mechanism).
    fn gated_setting(&self, core: usize) -> FreqSetting {
        match self.cores.requested[core] {
            FreqSetting::Turbo => FreqSetting::Turbo,
            FreqSetting::Fixed(_) => FreqSetting::Fixed(self.pstate.current(core)),
        }
    }

    /// The fastest (gated) setting among busy cores (Turbo dominates).
    fn fastest_setting(&self) -> FreqSetting {
        let mut best: Option<FreqSetting> = None;
        for c in 0..self.spec.cores {
            if !self.cores.busy[c] {
                continue;
            }
            let s = self.gated_setting(c);
            best = Some(match (best, s) {
                (None, s) => s,
                (Some(FreqSetting::Turbo), _) | (_, FreqSetting::Turbo) => FreqSetting::Turbo,
                (Some(FreqSetting::Fixed(a)), FreqSetting::Fixed(b)) => {
                    FreqSetting::Fixed(a.max(b))
                }
            });
        }
        best.unwrap_or(FreqSetting::Fixed(PState::from_mhz(
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
        self.dirty |= TICK_PLANES;

        // 1. P-state engine (transition latencies). Events append straight
        //    into the bounded log — no per-tick intermediate Vec — and the
        //    LOG plane only dirties when something actually landed.
        let log_recorded = self.transition_log.recorded();
        self.pstate.tick(now, &self.noise_pstate);
        self.pstate.drain_events_into_log(&mut self.transition_log);
        if self.transition_log.recorded() != log_recorded {
            self.dirty |= PlaneMask::LOG;
        }

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
        let smt_any = self.cores.smt.iter().any(|&s| s);
        self.scratch.duty.clear();
        for c in 0..spec.cores {
            let lead = self.cores.lead[c];
            let mut duty_c = 0.0;
            if lead != usize::MAX {
                // lint:allow(P1): lead != usize::MAX implies the thread slot is occupied
                let p = self.threads[lead].as_ref().expect("lead cache stale");
                let d = p.duty.factor_at(t_s);
                duty_c = d;
                duty_sum += d;
                activity_sum += p.activity(self.cores.smt[c]) * d;
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
            let lead = self.cores.lead[c];
            let avx_stream = if lead == usize::MAX {
                false
            } else {
                self.threads[lead].as_ref().map(|p| p.avx_heavy) == Some(true)
            };
            let on = self.cores.busy[c] && avx_stream;
            self.cores.avx_input[c] = on;
            self.cores.avx[c].observe(on, now);
        }
        let avx_level = (0..spec.cores)
            .filter(|c| self.cores.busy[*c])
            .map(|c| self.cores.avx[c].level())
            .max()
            .unwrap_or(0);

        // 4. EET (1 ms sporadic stall polling).
        let eet_input = stall * duty.min(1.0);
        self.eet.tick(now, eet_input);

        // 5. PCU equilibrium: re-solved at the 500 µs cadence (power drift)
        //    and immediately whenever an input changes — e.g. a p-state
        //    opportunity completing a transition.
        let setting = fastest_setting_in_system
            .filter(|_| active == 0)
            .unwrap_or_else(|| self.fastest_setting());
        let epb = self.epb();
        let avg_bucket = (self.rapl.running_avg_pkg_w() / 2.0) as u64;
        let key = PcuKey {
            avg_bucket,
            setting,
            active,
            epb,
            turbo_enabled: self.turbo_enabled(),
            avx_level,
            duty_bucket: (duty * 20.0).round() as u64,
            stall_pct: (self.eet.sampled_stall() * 100.0) as u64,
        };
        let eet_limit = if self.eet_enabled {
            self.eet
                .limit_mhz(spec, epb, spec.freq.turbo_mhz(active.max(1)))
        } else {
            u32::MAX
        };
        let _ = smt_any;
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
                .filter(|c| !self.cores.busy[*c] && self.cores.cstates[*c].power_gated())
                .count(),
            activity,
            avx_level,
            stall_fraction: stall,
            eet_limit_mhz: eet_limit,
            avg_pkg_w: self.rapl.running_avg_pkg_w(),
        };
        if self.last_pcu_key != Some(key) || self.next_pcu <= now {
            self.last_pcu_key = Some(key);
            self.next_pcu = now + self.pcu_period_ns();
            self.grant = PcuController::solve(&inputs);
            self.grant_restored = false;
            // Software-imposed uncore bounds (paper Section II-D: "it can
            // be specified via the MSR UNCORE_RATIO_LIMIT"): clamp the UFS
            // grant to the programmed window.
            if let Ok(v) = self.msr.read_package(msra::MSR_UNCORE_RATIO_LIMIT) {
                if v != 0 {
                    let (min_ratio, max_ratio) = fields::decode_uncore_ratio_limit(v);
                    let lo = (min_ratio as f64 * 100.0).max(spec.freq.uncore_min_mhz as f64);
                    let hi = (max_ratio as f64 * 100.0)
                        .min(spec.freq.uncore_max_mhz as f64)
                        .max(lo);
                    self.grant.uncore_mhz = self.grant.uncore_mhz.clamp(lo, hi);
                }
            }
        }

        // 6. Effective frequencies: the PCU grant, clamped per core by its
        //    own (transition-latency-gated) p-state for fixed settings.
        for c in 0..spec.cores {
            if !self.cores.busy[c] {
                self.cores.mhz[c] = spec.freq.min_mhz as f64;
                continue;
            }
            let own_cap = match self.cores.requested[c] {
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
                FreqSetting::Fixed(_) => self.pstate.current(c).mhz() as f64,
            };
            self.cores.mhz[c] = self.grant.core_mhz.min(own_cap);
        }

        // 7. C-states: busy cores in C0; idle cores deep-idle via the
        //    governor (long predicted idle); package state needs the whole
        //    system idle (paper Section V-A).
        fill_core_states(
            &spec.acpi,
            &self.cores.busy,
            1_000_000,
            &mut self.cores.cstates,
        );
        self.pkg_cstate = resolve_package_state(&self.cores.cstates, other_socket_active);
        let uncore_mhz = if self.pkg_cstate.uncore_halted() {
            0.0
        } else {
            self.grant.uncore_mhz
        };
        self.uncore_mhz = uncore_mhz;

        // 8. DRAM traffic: per-core demand summed across profiles, capped
        //    by the bandwidth model at the current clocks. Bandwidth-bound
        //    cores saturate the channels at ~8 cores (paper Fig. 8);
        //    compute-bound traffic scales with the number of busy cores.
        let sat = hsw_hwspec::calib::bandwidth::DRAM_SATURATION_CORES as f64;
        // Group busy cores by profile: `dram_gbs_full_socket` is the demand
        // of a fully loaded socket, so a group's demand saturates (at that
        // value) once it spans ~8 cores for bandwidth-bound profiles, and
        // scales linearly with cores otherwise.
        let threads = &self.threads;
        let groups = &mut self.scratch.groups;
        groups.clear();
        for c in 0..spec.cores {
            let lead = self.cores.lead[c];
            if lead == usize::MAX {
                continue;
            }
            // lint:allow(P1): lead != usize::MAX implies the thread slot is occupied
            let name = threads[lead].as_ref().expect("lead cache stale").name;
            let d = self.scratch.duty[c];
            let mut found = false;
            for g in groups.iter_mut() {
                // lint:allow(P1): group entries are leads already unwrapped in this loop
                if threads[g.0].as_ref().expect("lead cache stale").name == name {
                    g.1 += 1;
                    g.2 += d;
                    found = true;
                    break;
                }
            }
            if !found {
                groups.push((lead, 1, d));
            }
        }
        let mut demand = 0.0;
        for (lead, n, duty_total) in groups.iter() {
            // lint:allow(P1): group leads come from the same lead cache checked above
            let p = threads[*lead].as_ref().expect("lead cache stale");
            let avg_duty = duty_total / *n as f64;
            let scale = if p.stall_fraction > hsw_hwspec::calib::UFS_STALL_THRESHOLD {
                (*n as f64 / sat).min(1.0)
            } else {
                *n as f64 / spec.cores as f64
            };
            demand += p.dram_gbs_full_socket * scale * avg_duty;
        }
        let dram_bw = if active > 0 {
            let cap = hsw_memhier::dram_read_bandwidth_gbs(
                spec,
                active,
                if smt_any { 2 } else { 1 },
                self.grant.core_mhz / 1000.0,
                (uncore_mhz / 1000.0).max(1.2),
            );
            demand.min(cap)
        } else {
            0.0
        };

        // 9. Power.
        self.scratch.elec.clear();
        for c in 0..spec.cores {
            if self.cores.busy[c] {
                let smt = self.cores.smt[c];
                let lead = self.cores.lead[c];
                let act = self.threads[lead]
                    .as_ref()
                    .map(|p| p.activity(smt) * self.scratch.duty[c])
                    .unwrap_or(0.0)
                    * self.cores.avx[c].throughput_factor().max(0.5);
                self.scratch.elec.push(CoreElecState {
                    mhz: self.cores.mhz[c].round() as u32,
                    activity: act,
                    license_level: self.cores.avx[c].level(),
                    power_gated: false,
                });
            } else if self.cores.cstates[c].power_gated() {
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
        if self.pkg_cstate.uncore_halted() {
            let floor = spec.freq.uncore_min_mhz;
            let residual = package_power_w(spec, self.power_mult, &[], floor).uncore_w;
            pkg_w += residual * hsw_hwspec::calib::IDLE_UNCORE_RESIDENCY;
        }
        let dram_w = dram_power_w(spec, dram_bw);

        // 10. MBVR power state follows the estimated package draw
        //     (paper Section II-B) and thermal state integrates
        //     (observability: the test node's maximum fans keep TDP, not
        //     PROCHOT, the binding limit).
        self.mbvr.update_estimated_power(pkg_w);
        self.thermal.advance(dt_s, pkg_w);
        debug_assert!(!self.thermal.prochot(), "max-fan node must not PROCHOT");
        let readout = (96.0 - self.thermal.t_die_c).clamp(0.0, 127.0) as u64;
        self.cached.therm_readout = readout;
        for t in 0..spec.hw_threads() {
            self.msr.store(t, msra::IA32_THERM_STATUS, readout << 16);
        }

        // 11. RAPL (modeled bias on pre-Haswell generations). The error
        //     draw is keyed to the interval's end instant.
        self.rapl
            .advance(dt_s, pkg_w, dram_w, bias, self.noise_rapl.symmetric(now, 0));

        // 12. Counter plane: refresh the rate set, flushing the pending
        //     span under the old rates first if anything changed. The next
        //     rate set is assembled in the scratch buffer and swapped in,
        //     so the steady-state tick allocates nothing.
        self.msr
            .store_package(msra::MSR_PKG_ENERGY_STATUS, self.rapl.pkg_raw() as u64);
        self.msr
            .store_package(msra::MSR_DRAM_ENERGY_STATUS, self.rapl.dram_raw() as u64);
        let fu_ghz = (uncore_mhz / 1000.0).max(0.1);
        self.scratch.next_rates.uncore_ghz = uncore_mhz / 1000.0;
        self.scratch.next_rates.threads.clear();
        for c in 0..spec.cores {
            let fc_ghz = self.cores.mhz[c] / 1000.0;
            let c0 = self.cores.cstates[c] == CoreCState::C0;
            for t in 0..tpc {
                let idx = c * tpc + t;
                let instret_per_ns = self.threads[idx].as_ref().map(|p| {
                    p.ipc(self.cores.smt[c], fc_ghz, fu_ghz)
                        * self.cores.avx[c].throughput_factor()
                        * fc_ghz
                        * duty.max(0.0)
                });
                self.scratch.next_rates.threads.push(ThreadRates {
                    c0,
                    fc_ghz,
                    instret_per_ns,
                });
                let ratio = PState((self.cores.mhz[c] / 100.0).round() as u8);
                self.msr.store(
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
            .extend_from_slice(&self.cores.cstates);
        self.scratch.next_rates.pkg_cstate = self.pkg_cstate;
        if self.rates.as_ref() != Some(&self.scratch.next_rates) {
            self.flush_counters();
            match &mut self.rates {
                Some(r) => std::mem::swap(r, &mut self.scratch.next_rates),
                None => self.rates = Some(self.scratch.next_rates.clone()),
            }
        }
        self.pending_ns += dt;

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
            && (0..spec.cores).all(|c| self.cores.avx[c].stable_under(self.cores.avx_input[c]))
            && self.eet.sampled_stall().to_bits() == eet_input.to_bits();
        self.cached.wake_at = if !steady {
            0
        } else if self.grant_restored || !PcuController::avg_insensitive(&inputs) {
            self.pstate
                .next_event()
                .unwrap_or(Ns::MAX)
                .min(self.next_pcu)
        } else {
            self.pstate.next_event().unwrap_or(Ns::MAX)
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
            || (self.rapl.running_avg_pkg_w() / 2.0) as u64 != self.cached.avg_bucket
    }

    /// Light step, valid before the wake horizon: replays only the
    /// continuous integrators (RAPL, thermal, MBVR) and the periodic
    /// controllers whose outcome is provably unchanged (EET poll, AVX
    /// relax, the p-state opportunity clock, PCU timer), using the inputs
    /// cached by the last full tick. Floating-point operations and their
    /// order match the full tick exactly, so the state after the span is
    /// bit-identical no matter which path stepped it.
    pub fn light_tick(&mut self, now: Ns, dt: Ns) -> SocketTick {
        debug_assert!(
            now < self.cached.wake_at,
            "light_tick past the wake horizon"
        );
        let dt_s = dt as f64 * 1e-9;
        self.dirty |= LIGHT_TICK_PLANES;
        self.pstate.pass_opportunities(now, &self.noise_pstate);
        for c in 0..self.spec.cores {
            let on = self.cores.avx_input[c];
            self.cores.avx[c].observe(on, now);
        }
        self.eet.tick(now, self.cached.eet_input);
        if self.next_pcu <= now {
            // Before the horizon, a due re-solve is one that reproduces
            // this chip's own avg-independent grant from unchanged inputs:
            // only the schedule advances (the fixed engine's bookkeeping).
            self.next_pcu = now + self.pcu_period_ns();
        }
        let out = self.cached.tick;
        self.mbvr.update_estimated_power(out.pkg_w);
        self.thermal.advance(dt_s, out.pkg_w);
        debug_assert!(!self.thermal.prochot(), "max-fan node must not PROCHOT");
        let readout = (96.0 - self.thermal.t_die_c).clamp(0.0, 127.0) as u64;
        if readout != self.cached.therm_readout {
            self.cached.therm_readout = readout;
            self.dirty |= PlaneMask::MSR;
            for t in 0..self.spec.hw_threads() {
                self.msr.store(t, msra::IA32_THERM_STATUS, readout << 16);
            }
        }
        self.rapl.advance(
            dt_s,
            out.pkg_w,
            out.dram_w,
            self.cached.bias,
            self.noise_rapl.symmetric(now, 0),
        );
        self.pending_ns += dt;
        out
    }

    /// Apply the pending counter span under the current rates and refresh
    /// the energy-status mirrors. Called on rate changes and at the end of
    /// every `Node::advance_us`, so software reads between advances always
    /// see current counters.
    pub(crate) fn flush_counters(&mut self) {
        let span = std::mem::replace(&mut self.pending_ns, 0) as f64;
        self.dirty |= PlaneMask::COUNTER;
        let Some(rates) = self.rates.take() else {
            return;
        };
        if span > 0.0 {
            self.dirty |= PlaneMask::MSR;
            let nominal_ghz = self.spec.freq.base_mhz as f64 / 1000.0;
            let tpc = self.spec.threads_per_core;
            self.msr
                .accumulate(0, msra::MSR_U_PMON_UCLK_FIXED_CTR, rates.uncore_ghz * span);
            for (idx, t) in rates.threads.iter().enumerate() {
                self.msr
                    .accumulate(idx, msra::IA32_TIME_STAMP_COUNTER, nominal_ghz * span);
                if t.c0 {
                    self.msr.accumulate(idx, msra::IA32_APERF, t.fc_ghz * span);
                    self.msr
                        .accumulate(idx, msra::IA32_MPERF, nominal_ghz * span);
                    self.msr.accumulate(
                        idx,
                        msra::IA32_FIXED_CTR1_CPU_CLK_UNHALTED,
                        t.fc_ghz * span,
                    );
                    self.msr
                        .accumulate(idx, msra::IA32_FIXED_CTR2_REF_CYCLES, nominal_ghz * span);
                    if let Some(r) = t.instret_per_ns {
                        self.msr
                            .accumulate(idx, msra::IA32_FIXED_CTR0_INST_RETIRED, r * span);
                    }
                }
            }
            for (c, cs) in rates.core_cstates.iter().enumerate() {
                if *cs == CoreCState::C3 {
                    self.msr
                        .accumulate(c * tpc, msra::MSR_CORE_C3_RESIDENCY, nominal_ghz * span);
                }
                if *cs == CoreCState::C6 {
                    self.msr
                        .accumulate(c * tpc, msra::MSR_CORE_C6_RESIDENCY, nominal_ghz * span);
                }
            }
            if rates.pkg_cstate == PkgCState::PC3 {
                self.msr
                    .accumulate(0, msra::MSR_PKG_C3_RESIDENCY, nominal_ghz * span);
            }
            if rates.pkg_cstate == PkgCState::PC6 {
                self.msr
                    .accumulate(0, msra::MSR_PKG_C6_RESIDENCY, nominal_ghz * span);
            }
            self.msr
                .store_package(msra::MSR_PKG_ENERGY_STATUS, self.rapl.pkg_raw() as u64);
            self.msr
                .store_package(msra::MSR_DRAM_ENERGY_STATUS, self.rapl.dram_raw() as u64);
        }
        self.rates = Some(rates);
    }

    // --- Ground-truth accessors (simulation-internal; tests and traces) ---

    pub fn true_core_mhz(&self, core: usize) -> f64 {
        self.cores.mhz[core]
    }

    pub fn true_uncore_mhz(&self) -> f64 {
        self.uncore_mhz
    }

    pub fn grant(&self) -> PcuGrant {
        self.grant
    }

    pub fn package_cstate(&self) -> PkgCState {
        self.pkg_cstate
    }

    pub fn core_cstate(&self, core: usize) -> CoreCState {
        self.cores.cstates[core]
    }

    pub fn any_core_active(&self) -> bool {
        self.active_cores() > 0
    }

    pub fn requested_setting(&self, core: usize) -> FreqSetting {
        self.cores.requested[core]
    }

    pub fn drain_transitions(&mut self) -> Vec<TransitionEvent> {
        self.dirty |= PlaneMask::LOG;
        self.transition_log.drain()
    }

    /// Transition events currently retained (bounded; see
    /// [`hsw_pcu::TRANSITION_LOG_CAP`]).
    pub fn transition_log_len(&self) -> usize {
        self.transition_log.len()
    }

    pub fn rapl(&self) -> &RaplEngine {
        &self.rapl
    }

    /// Die temperature in °C (ground truth; software reads the digital
    /// readout in `IA32_THERM_STATUS`).
    pub fn die_temperature_c(&self) -> f64 {
        self.thermal.t_die_c
    }

    /// The mainboard VR's current power state (paper Section II-B).
    pub fn mbvr_state(&self) -> MbvrPowerState {
        self.mbvr.state()
    }
}
