//! The node: two sockets, shared electrical path, and the OS/tool surface.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hsw_exec::WorkloadProfile;
use hsw_hwspec::clock::{domain, DomainNoise};
use hsw_hwspec::freq::FreqSetting;
use hsw_hwspec::EpbClass;
use hsw_msr::{addresses as msra, MsrError};
use hsw_pcu::TransitionEvent;
use hsw_power::{Lmg450, NodePowerModel};

use crate::config::{CpuId, NodeConfig};
use crate::engine::{EngineMode, EngineStats};
use crate::socket::{Ns, Socket, SocketState, SocketTick};

/// The simulated compute node (paper Table II).
pub struct Node {
    cfg: NodeConfig,
    time_ns: Ns,
    sockets: Vec<Socket>,
    power_model: NodePowerModel,
    meter: Lmg450,
    last: Vec<SocketTick>,
    stats: EngineStats,
    /// Optional shared ledger credited with this node's simulated time on
    /// drop (the survey's simulated-time accounting).
    time_ledger: Option<Arc<AtomicU64>>,
    /// Scratch: per-socket activity flags, reused across steps so the hot
    /// loop never allocates.
    actives: Vec<bool>,
}

/// Plain-data image of an entire [`Node`]'s mutable simulator state —
/// sockets (PCU, MBVR, MSR bank, RAPL accumulators, c-state and counter
/// planes, thermal, transition log), the per-socket tick outputs, the
/// engine's step statistics, and the simulation clock itself. The event
/// engine's replay cache is not captured: the first step after a restore
/// is always a full one, which rebuilds it for the restoring node's own
/// spec.
///
/// Restoring a snapshot into a freshly constructed node continues
/// bit-identically to the uninterrupted run because every noise stream is
/// keyed by (seed, domain, sim-time), never by step count: the snapshot
/// carries `time_ns`, the constructor re-derives the streams from the
/// (possibly different) seed, and all subsequent draws depend only on
/// *when* they happen.
#[derive(Debug, Clone)]
pub struct NodeSnapshot {
    time_ns: Ns,
    sockets: Vec<SocketState>,
    last: Vec<SocketTick>,
    stats: EngineStats,
}

impl Node {
    /// Build a node from its description, at time 0.
    ///
    /// # Panics
    ///
    /// If `cfg.tick_us` is 0.
    pub fn new(cfg: NodeConfig) -> Self {
        assert!(cfg.tick_us >= 1, "tick must be at least 1 µs");
        let meter = Lmg450::calibrated(DomainNoise::new(cfg.seed, domain::METER));
        let mut sockets = Vec::with_capacity(cfg.spec.sockets);
        for s in 0..cfg.spec.sockets {
            // Independent PCU phases per socket (paper Section VI-A).
            let phase = (s as Ns) * 237_000;
            sockets.push(Socket::new(
                s,
                cfg.spec.sku.clone(),
                cfg.spec.socket_power_mult.get(s).copied().unwrap_or(1.0),
                cfg.dram_rapl_mode,
                cfg.eet_enabled,
                phase,
                cfg.seed,
            ));
        }
        let power_model = NodePowerModel::new(cfg.spec.clone());
        let last = vec![SocketTick::default(); cfg.spec.sockets];
        Node {
            cfg,
            time_ns: 0,
            sockets,
            power_model,
            meter,
            last,
            stats: EngineStats::default(),
            time_ledger: None,
            actives: Vec::new(),
        }
    }

    /// Capture the entire simulator state as plain data (see
    /// [`NodeSnapshot`]).
    pub fn snapshot(&self) -> NodeSnapshot {
        let Node {
            // Configuration, supplied to Node::new by the forking caller.
            cfg: _,
            time_ns,
            sockets,
            // Stateless map from RAPL power to AC power, rebuilt from spec.
            power_model: _,
            // Seed-derived, samples are keyed by instant: rebuilt by Node::new.
            meter: _,
            last,
            stats,
            // Host-side accounting handle, attached per node by the executor.
            time_ledger: _,
            // Per-step scratch, rebuilt from socket state every step.
            actives: _,
        } = self;
        NodeSnapshot {
            time_ns: *time_ns,
            sockets: sockets.iter().map(Socket::snapshot).collect(),
            last: last.clone(),
            stats: *stats,
        }
    }

    /// Reinstate a previously captured state, including the simulation
    /// clock. The node must share the snapshotted geometry, generation and
    /// DRAM mode: the image carries the constants derived from them (MSR
    /// geometry, p-state policy, RAPL mode). Every fork builds its node
    /// from the `NodeConfig` the image was settled under, or from that
    /// config with a varied spec of the same generation. Its config
    /// (leakage, turbo bins and RAPL trim included), seed-derived noise
    /// streams and meter are kept as constructed — this is what lets a
    /// warm-start fork re-seed a restored node, and a varied fleet chip
    /// keep its own calibration.
    pub fn restore(&mut self, snap: &NodeSnapshot) {
        assert_eq!(
            self.sockets.len(),
            snap.sockets.len(),
            "snapshot geometry mismatch"
        );
        self.time_ns = snap.time_ns;
        for (socket, s) in self.sockets.iter_mut().zip(&snap.sockets) {
            socket.restore(s);
        }
        self.last.clone_from(&snap.last);
        self.stats = snap.stats;
    }

    /// Re-key every noise stream (meter, per-socket p-state and RAPL
    /// draws) to a new seed. Draws are keyed by (seed, domain, sim-time),
    /// so streams diverge only from the re-seed instant on; a no-op when
    /// the seed is unchanged.
    pub fn reseed(&mut self, seed: u64) {
        if self.cfg.seed == seed {
            return;
        }
        self.cfg.seed = seed;
        self.meter = Lmg450::calibrated(DomainNoise::new(seed, domain::METER));
        for s in &mut self.sockets {
            s.reseed(seed);
        }
    }

    /// Re-arm this node as a fork of `snap` under `seed`: `reseed(seed)`,
    /// then `restore(snap)`. It exists for the benchmark tracer's
    /// `fork_path` probe and goes when that probe does.
    pub fn fork_from(&mut self, snap: &NodeSnapshot, seed: u64) {
        self.reseed(seed);
        self.restore(snap);
    }

    pub fn config(&self) -> &NodeConfig {
        &self.cfg
    }

    pub fn now_ns(&self) -> Ns {
        self.time_ns
    }

    pub fn now_s(&self) -> f64 {
        self.time_ns as f64 * 1e-9
    }

    pub fn sockets(&self) -> &[Socket] {
        &self.sockets
    }

    /// Step counters of the time-advance engine.
    pub fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    /// Credit this node's total simulated time to `ledger` when it drops.
    pub fn set_time_ledger(&mut self, ledger: Arc<AtomicU64>) {
        self.time_ledger = Some(ledger);
    }

    // --- Workload and OS control surface ---

    /// Assign a workload to one hardware thread (`None` idles it).
    ///
    /// # Panics
    ///
    /// If `cpu` is not a hardware thread of this node.
    pub fn assign(&mut self, cpu: CpuId, w: Option<WorkloadProfile>) {
        let Ok((socket, _)) = self.locate(cpu) else {
            panic!("assign: {cpu:?} is not a hardware thread of this node");
        };
        self.sockets[socket].set_thread(cpu.core, cpu.thread, w);
    }

    /// Run `profile` on the first `cores` cores of a socket with
    /// `threads_per_core` threads each, and idle the socket's other
    /// threads.
    ///
    /// # Panics
    ///
    /// If `socket` is not a socket of this node, or `cores` or
    /// `threads_per_core` exceeds what one socket has.
    pub fn run_on_socket(
        &mut self,
        socket: usize,
        profile: &WorkloadProfile,
        cores: usize,
        threads_per_core: usize,
    ) {
        let (sockets, n_cores) = (self.sockets.len(), self.cfg.spec.sku.cores);
        let tpc = self.cfg.spec.sku.threads_per_core;
        assert!(
            socket < sockets && cores <= n_cores && threads_per_core <= tpc,
            "run_on_socket: {cores} cores × {threads_per_core} threads on socket {socket} \
             do not fit this node's {sockets} sockets × {n_cores} cores × {tpc} threads"
        );
        for c in 0..n_cores {
            for t in 0..tpc {
                let w = (c < cores && t < threads_per_core).then(|| profile.clone());
                self.sockets[socket].set_thread(c, t, w);
            }
        }
    }

    /// Idle the whole node.
    pub fn idle_all(&mut self) {
        for s in 0..self.sockets.len() {
            self.run_on_socket(s, &WorkloadProfile::idle(), 0, 0);
        }
    }

    /// Set the frequency setting on every core of every socket (the
    /// cpufreq/userspace-governor equivalent).
    pub fn set_setting_all(&mut self, setting: FreqSetting) {
        let now = self.time_ns;
        for s in &mut self.sockets {
            for c in 0..s.spec().cores {
                s.set_core_setting(c, setting, now);
            }
        }
    }

    /// Set the frequency setting of one core.
    ///
    /// # Panics
    ///
    /// If `socket` or `core` is outside this node's geometry.
    pub fn set_setting(&mut self, socket: usize, core: usize, setting: FreqSetting) {
        let (sockets, cores) = (self.sockets.len(), self.cfg.spec.sku.cores);
        assert!(
            socket < sockets && core < cores,
            "set_setting: core {core} of socket {socket} is not a core of this node's \
             {sockets} sockets × {cores} cores"
        );
        let now = self.time_ns;
        self.sockets[socket].set_core_setting(core, setting, now);
    }

    /// Program the EPB on all hardware threads (paper Section II-C).
    pub fn set_epb_all(&mut self, epb: EpbClass) {
        for s in &mut self.sockets {
            for t in 0..s.spec().hw_threads() {
                s.msr_mut()
                    .store(t, msra::IA32_ENERGY_PERF_BIAS, epb.canonical_raw() as u64);
            }
        }
    }

    /// Enable/disable turbo via `IA32_MISC_ENABLE\[38\]`.
    pub fn set_turbo(&mut self, enabled: bool) {
        for s in &mut self.sockets {
            let mut v = s.msr().read_package(msra::IA32_MISC_ENABLE).unwrap_or(0);
            if enabled {
                v &= !msra::MISC_ENABLE_TURBO_DISABLE_BIT;
            } else {
                v |= msra::MISC_ENABLE_TURBO_DISABLE_BIT;
            }
            s.msr_mut().store_package(msra::IA32_MISC_ENABLE, v);
        }
    }

    // --- MSR surface for the measurement tools ---

    /// The socket of `cpu` and its thread index within that socket's MSR
    /// bank. A coordinate outside the node's geometry is
    /// `MsrError::NoSuchThread` with `cpu`'s flat index, never another
    /// CPU.
    fn locate(&self, cpu: CpuId) -> Result<(usize, usize), MsrError> {
        let (cores, tpc) = (self.cfg.spec.sku.cores, self.cfg.spec.sku.threads_per_core);
        if cpu.socket < self.sockets.len() && cpu.core < cores && cpu.thread < tpc {
            Ok((cpu.socket, cpu.core * tpc + cpu.thread))
        } else {
            Err(MsrError::NoSuchThread(cpu.flat(cores, tpc)))
        }
    }

    /// Read an MSR of one hardware thread (`rdmsr`).
    ///
    /// # Errors
    ///
    /// `MsrError::NoSuchThread` if `cpu` is not a hardware thread of this
    /// node; otherwise as the socket's MSR bank.
    pub fn rdmsr(&self, cpu: CpuId, addr: u32) -> Result<u64, MsrError> {
        let (socket, thread) = self.locate(cpu)?;
        self.sockets[socket].msr().read(thread, addr)
    }

    /// Write an MSR of one hardware thread (`wrmsr`).
    ///
    /// # Errors
    ///
    /// `MsrError::NoSuchThread` if `cpu` is not a hardware thread of this
    /// node; otherwise as the socket's MSR bank.
    pub fn wrmsr(&mut self, cpu: CpuId, addr: u32, value: u64) -> Result<(), MsrError> {
        let (socket, thread) = self.locate(cpu)?;
        let now = self.time_ns;
        let socket = &mut self.sockets[socket];
        // A write may steer the model (EPB, turbo disengage, uncore
        // limits, p-state requests): `msr_mut` forces a full next step.
        socket.msr_mut().write(thread, addr, value)?;
        if addr == msra::IA32_PERF_CTL {
            socket.perf_ctl_written(thread, value, now);
        }
        Ok(())
    }

    // --- Simulation ---

    /// Advance the simulation by `us` microseconds. Counters flush at the
    /// end of every advance, so MSR reads between advances always see
    /// current values (in either engine mode).
    pub fn advance_us(&mut self, us: u64) {
        let tick = self.cfg.tick_us;
        let mut remaining = us;
        while remaining > 0 {
            let step = tick.min(remaining);
            self.step(step * 1_000);
            remaining -= step;
        }
        for s in &mut self.sockets {
            s.flush_counters();
        }
    }

    /// Advance by seconds, rounded to the nearest microsecond.
    ///
    /// # Panics
    ///
    /// If `s` is NaN or negative, or more than `u64::MAX` microseconds.
    pub fn advance_s(&mut self, s: f64) {
        let us = s * 1e6;
        assert!(
            (0.0..=u64::MAX as f64).contains(&us),
            "advance_s: {s} s is not a duration of 0 to u64::MAX µs"
        );
        self.advance_us(us.round() as u64);
    }

    fn step(&mut self, dt: Ns) {
        let event = self.cfg.engine == EngineMode::Event;
        self.time_ns += dt;
        let now = self.time_ns;
        if event && !self.sockets.iter().any(|s| s.light_wake(now)) {
            // No discrete event fires before this step's end: replay only
            // the continuous integrators. State evolves bit-identically to
            // a full step.
            for (i, socket) in self.sockets.iter_mut().enumerate() {
                self.last[i] = socket.light_tick(now, dt);
            }
            self.stats.light_steps += 1;
            return;
        }
        let t_s = self.now_s();
        self.actives.clear();
        self.actives
            .extend(self.sockets.iter().map(|s| s.any_core_active()));
        // The fastest setting among active cores anywhere in the system
        // drives the passive socket's uncore (paper Table III).
        let fastest = self
            .sockets
            .iter()
            .filter(|s| s.any_core_active())
            .map(|s| {
                (0..s.spec().cores)
                    .map(|c| s.requested_setting(c))
                    .fold(FreqSetting::from_mhz(1200), Ord::max)
            })
            .max();
        for (i, socket) in self.sockets.iter_mut().enumerate() {
            let other_active = self.actives.iter().enumerate().any(|(j, a)| j != i && *a);
            self.last[i] = socket.tick(now, dt, t_s, other_active, fastest, event);
        }
        self.stats.full_steps += 1;
    }

    // --- Power ground truth and metering ---

    /// True total RAPL-domain power right now (packages + DRAM, W).
    pub fn true_rapl_power_w(&self) -> f64 {
        self.last.iter().map(|t| t.pkg_w + t.dram_w).sum()
    }

    /// True package power of one socket (W).
    pub fn true_pkg_power_w(&self, socket: usize) -> f64 {
        self.last[socket].pkg_w
    }

    /// True DRAM power of one socket (W).
    pub fn true_dram_power_w(&self, socket: usize) -> f64 {
        self.last[socket].dram_w
    }

    /// Current DRAM read bandwidth of one socket (GB/s).
    pub fn dram_bandwidth_gbs(&self, socket: usize) -> f64 {
        self.last[socket].dram_bw_gbs
    }

    /// True AC power of the node right now (W).
    pub fn true_ac_power_w(&self) -> f64 {
        self.power_model.ac_power_w(self.true_rapl_power_w())
    }

    /// Advance while sampling the LMG450 at its 20 Sa/s rate; returns the
    /// average AC reading over the window — the paper's measurement
    /// primitive (Section IV: 4 s constant-load averages).
    pub fn measure_ac_average(&mut self, duration_s: f64) -> f64 {
        let period_us = (self.meter.sample_period_s() * 1e6) as u64;
        let n = ((duration_s * 1e6) as u64 / period_us).max(1);
        let mut sum = 0.0;
        for _ in 0..n {
            self.advance_us(period_us);
            let truth = self.true_ac_power_w();
            sum += self.meter.sample(truth, self.time_ns);
        }
        sum / n as f64
    }

    /// Advance while recording per-sample AC readings (for max-window
    /// extraction in the Table V experiment).
    pub fn record_ac_trace(&mut self, duration_s: f64) -> Vec<f64> {
        let period_us = (self.meter.sample_period_s() * 1e6) as u64;
        let n = ((duration_s * 1e6) as u64 / period_us).max(1);
        let mut out = Vec::with_capacity(n as usize);
        for _ in 0..n {
            self.advance_us(period_us);
            let truth = self.true_ac_power_w();
            out.push(self.meter.sample(truth, self.time_ns));
        }
        out
    }

    /// Drain p-state transition events of one socket.
    pub fn drain_transitions(&mut self, socket: usize) -> Vec<TransitionEvent> {
        self.sockets[socket].drain_transitions()
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        if let Some(ledger) = &self.time_ledger {
            ledger.fetch_add(self.time_ns, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::calib;
    use hsw_msr::fields;

    fn idle_node() -> Node {
        let mut node = Node::new(NodeConfig::paper_default());
        node.idle_all();
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.2); // settle
        node
    }

    #[test]
    #[should_panic(expected = "is not a duration")]
    fn advance_s_rejects_nan() {
        Node::new(NodeConfig::paper_default()).advance_s(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "is not a duration")]
    fn advance_s_rejects_a_negative_duration() {
        Node::new(NodeConfig::paper_default()).advance_s(-1.0);
    }

    #[test]
    #[should_panic(expected = "is not a duration")]
    fn advance_s_rejects_a_duration_past_u64_microseconds() {
        Node::new(NodeConfig::paper_default()).advance_s(1e300);
    }

    #[test]
    #[should_panic(expected = "tick must be at least 1 µs")]
    fn a_zero_tick_config_is_rejected() {
        let _ = Node::new(NodeConfig {
            tick_us: 0,
            ..NodeConfig::paper_default()
        });
    }

    #[test]
    fn msr_access_past_a_core_or_thread_is_no_such_thread() {
        // A flat `core·tpc + thread` index would alias (0, 0, 2) to core
        // 1's first thread and (0, 12, 0) to socket 1.
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &hsw_exec::WorkloadProfile::busy_wait(), 12, 2);
        node.advance_us(1_000);
        for cpu in [CpuId::new(0, 0, 2), CpuId::new(0, 12, 0)] {
            assert!(
                matches!(
                    node.rdmsr(cpu, msra::IA32_APERF),
                    Err(MsrError::NoSuchThread(_))
                ),
                "rdmsr {cpu:?}"
            );
            assert!(
                matches!(
                    node.wrmsr(cpu, msra::IA32_ENERGY_PERF_BIAS, 0),
                    Err(MsrError::NoSuchThread(_))
                ),
                "wrmsr {cpu:?}"
            );
        }
    }

    #[test]
    fn msr_access_on_a_missing_socket_is_no_such_thread() {
        let mut node = Node::new(NodeConfig::paper_default());
        for (cpu, flat) in [
            (CpuId::new(2, 0, 0), 48),
            (CpuId::new(usize::MAX, 0, 0), usize::MAX),
        ] {
            assert_eq!(
                node.rdmsr(cpu, msra::IA32_APERF),
                Err(MsrError::NoSuchThread(flat))
            );
            assert_eq!(
                node.wrmsr(cpu, msra::IA32_ENERGY_PERF_BIAS, 0),
                Err(MsrError::NoSuchThread(flat))
            );
        }
    }

    #[test]
    #[should_panic(expected = "is not a hardware thread of this node")]
    fn assign_past_the_threads_of_a_core_panics() {
        Node::new(NodeConfig::paper_default()).assign(
            CpuId::new(0, 0, 2),
            Some(hsw_exec::WorkloadProfile::busy_wait()),
        );
    }

    #[test]
    #[should_panic(
        expected = "set_setting: core 12 of socket 0 is not a core of this node's \
                    2 sockets × 12 cores"
    )]
    fn set_setting_past_the_cores_of_a_socket_panics() {
        Node::new(NodeConfig::paper_default()).set_setting(0, 12, FreqSetting::Turbo);
    }

    #[test]
    #[should_panic(
        expected = "run_on_socket: 12 cores × 2 threads on socket 2 do not fit \
                    this node's 2 sockets × 12 cores × 2 threads"
    )]
    fn run_on_a_missing_socket_panics() {
        let busy = hsw_exec::WorkloadProfile::busy_wait();
        Node::new(NodeConfig::paper_default()).run_on_socket(2, &busy, 12, 2);
    }

    #[test]
    #[should_panic(
        expected = "run_on_socket: 40 cores × 5 threads on socket 0 do not fit \
                    this node's 2 sockets × 12 cores × 2 threads"
    )]
    fn run_on_more_cores_and_threads_than_a_socket_has_panics() {
        let busy = hsw_exec::WorkloadProfile::busy_wait();
        Node::new(NodeConfig::paper_default()).run_on_socket(0, &busy, 40, 5);
    }

    #[test]
    fn idle_node_power_matches_table2() {
        // Table II: idle power 261.5 W (fans at maximum).
        let mut node = idle_node();
        let ac = node.measure_ac_average(2.0);
        assert!(
            (ac - calib::IDLE_NODE_POWER_W).abs() < 6.0,
            "idle AC = {ac:.1} W"
        );
    }

    #[test]
    fn idle_packages_reach_pc6_and_halt_uncore() {
        let node = idle_node();
        for s in node.sockets() {
            assert_eq!(s.package_cstate().name(), "PC6");
            assert_eq!(s.true_uncore_mhz(), 0.0, "uncore halted in PC6");
        }
    }

    #[test]
    fn single_active_core_blocks_remote_package_sleep() {
        // Paper Section V-A: deep package states "are not used when there is
        // still any core active in the system—even if this core is located
        // on the other processor."
        let mut node = idle_node();
        node.assign(
            CpuId::new(0, 0, 0),
            Some(hsw_exec::WorkloadProfile::busy_wait()),
        );
        node.advance_s(0.1);
        assert_eq!(node.sockets()[0].package_cstate().name(), "PC0");
        assert_eq!(node.sockets()[1].package_cstate().name(), "PC2");
        assert!(node.sockets()[1].true_uncore_mhz() > 0.0);
    }

    #[test]
    fn firestarter_pegs_both_sockets_at_tdp() {
        let mut node = Node::new(NodeConfig::paper_default());
        let fs = hsw_exec::WorkloadProfile::firestarter();
        for s in 0..2 {
            node.run_on_socket(s, &fs, 12, 2);
        }
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(1.0);
        for s in 0..2 {
            let p = node.true_pkg_power_w(s);
            assert!((p - 120.0).abs() < 3.0, "socket {s}: {p:.1} W");
        }
        // Measured core frequency in the Table IV band.
        let f0 = node.sockets()[0].true_core_mhz(0) / 1000.0;
        assert!((2.2..=2.4).contains(&f0), "core = {f0:.3} GHz");
    }

    #[test]
    fn firestarter_node_ac_power_matches_table5() {
        let mut node = Node::new(NodeConfig::paper_default());
        let fs = hsw_exec::WorkloadProfile::firestarter();
        for s in 0..2 {
            node.run_on_socket(s, &fs, 12, 1); // Table V: HT not active
        }
        node.set_setting_all(FreqSetting::from_mhz(2500));
        node.advance_s(0.5);
        let ac = node.measure_ac_average(2.0);
        assert!(
            (ac - calib::powercal::TABLE5_FIRESTARTER_W).abs() < 12.0,
            "FIRESTARTER AC = {ac:.1} W"
        );
    }

    #[test]
    fn perf_ctl_write_changes_frequency_with_latency() {
        let mut node = Node::new(NodeConfig::paper_default().with_tick_us(5));
        node.run_on_socket(0, &hsw_exec::WorkloadProfile::busy_wait(), 1, 1);
        node.set_setting(0, 0, FreqSetting::from_mhz(1200));
        node.advance_s(0.05);
        let cpu = CpuId::new(0, 0, 0);
        let perf_status_mhz = |node: &Node| {
            let v = node.rdmsr(cpu, msra::IA32_PERF_STATUS).unwrap();
            fields::decode_perf_status(v).mhz()
        };
        node.wrmsr(
            cpu,
            msra::IA32_PERF_CTL,
            fields::encode_perf_ctl(hsw_hwspec::PState::from_mhz(1300)),
        )
        .unwrap();
        // PERF_STATUS reports the effective ratio, not the request: well
        // inside the opportunity window it still reads the old p-state.
        node.advance_us(4);
        assert_eq!(
            perf_status_mhz(&node),
            1200,
            "PERF_STATUS must lag the request"
        );
        node.advance_us(4_996);
        node.advance_us(600); // PCU tick granularity
        let events = node.drain_transitions(0);
        let ev = events
            .iter()
            .find(|e| e.to == hsw_hwspec::PState::from_mhz(1300))
            .expect("transition must complete");
        let lat = ev.latency_us();
        assert!(
            (21.0..=530.0).contains(&lat),
            "transition latency {lat} µs out of the Fig. 3 range"
        );
        assert_eq!(perf_status_mhz(&node), 1300, "PERF_STATUS after the switch");
    }

    #[test]
    fn aperf_mperf_ratio_reflects_throttling() {
        let mut node = Node::new(NodeConfig::paper_default());
        let fs = hsw_exec::WorkloadProfile::firestarter();
        node.run_on_socket(0, &fs, 12, 2);
        node.set_setting_all(FreqSetting::from_mhz(2500));
        node.advance_s(0.5);
        let cpu = CpuId::new(0, 0, 0);
        let a0 = node.rdmsr(cpu, msra::IA32_APERF).unwrap();
        let m0 = node.rdmsr(cpu, msra::IA32_MPERF).unwrap();
        node.advance_s(1.0);
        let a1 = node.rdmsr(cpu, msra::IA32_APERF).unwrap();
        let m1 = node.rdmsr(cpu, msra::IA32_MPERF).unwrap();
        let eff_ghz = (a1 - a0) as f64 / (m1 - m0) as f64 * 2.5;
        assert!(
            (2.2..2.45).contains(&eff_ghz),
            "effective frequency {eff_ghz:.3} GHz must show TDP throttling"
        );
    }

    #[test]
    fn rapl_msr_tracks_true_energy() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &hsw_exec::WorkloadProfile::compute(), 12, 2);
        node.advance_s(0.2);
        let cpu = CpuId::new(0, 0, 0);
        let raw0 = node.rdmsr(cpu, msra::MSR_PKG_ENERGY_STATUS).unwrap() as u32;
        node.advance_s(2.0);
        let raw1 = node.rdmsr(cpu, msra::MSR_PKG_ENERGY_STATUS).unwrap() as u32;
        let joules = raw1.wrapping_sub(raw0) as f64 * calib::PKG_ENERGY_UNIT_UJ * 1e-6;
        let watts = joules / 2.0;
        let truth = node.true_pkg_power_w(0);
        assert!(
            (watts - truth).abs() < truth * 0.03 + 1.0,
            "RAPL {watts:.1} W vs truth {truth:.1} W"
        );
    }

    #[test]
    fn uncore_counter_runs_at_uncore_clock() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &hsw_exec::WorkloadProfile::busy_wait(), 1, 1);
        node.set_setting_all(FreqSetting::from_mhz(2500));
        node.advance_s(0.5);
        let cpu = CpuId::new(0, 0, 0);
        let uncore_ghz = |node: &mut Node, window_s: f64| {
            let u0 = node.rdmsr(cpu, msra::MSR_U_PMON_UCLK_FIXED_CTR).unwrap();
            node.advance_s(window_s);
            let u1 = node.rdmsr(cpu, msra::MSR_U_PMON_UCLK_FIXED_CTR).unwrap();
            (u1 - u0) as f64 / 1e9 / window_s
        };
        // Table III: 2.2 GHz uncore at the 2.5 GHz setting.
        let ghz = uncore_ghz(&mut node, 1.0);
        assert!((ghz - 2.2).abs() < 0.08, "uncore = {ghz:.3} GHz");

        // MSR_UNCORE_RATIO_LIMIT clamps the UFS grant to its window: a
        // max ratio below the schedule caps it, a min ratio above it
        // raises the floor.
        let limited_ghz = |node: &mut Node, min_ratio: u8, max_ratio: u8| {
            let v = fields::encode_uncore_ratio_limit(min_ratio, max_ratio);
            node.wrmsr(cpu, msra::MSR_UNCORE_RATIO_LIMIT, v).unwrap();
            node.advance_s(0.2);
            uncore_ghz(node, 0.4)
        };
        let capped = limited_ghz(&mut node, 12, 15);
        assert!(
            (capped - 1.5).abs() < 0.08,
            "max ratio 15: uncore = {capped:.3} GHz"
        );
        let floored = limited_ghz(&mut node, 28, 30);
        assert!(floored > 2.7, "min ratio 28: uncore = {floored:.3} GHz");
    }

    #[test]
    fn sinus_workload_modulates_power() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &hsw_exec::WorkloadProfile::sinus(), 12, 2);
        node.advance_s(0.3);
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        for _ in 0..40 {
            node.advance_us(50_000);
            let p = node.true_pkg_power_w(0);
            lo = lo.min(p);
            hi = hi.max(p);
        }
        assert!(hi - lo > 15.0, "sinus swing {lo:.1}..{hi:.1} W too small");
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::session::Resolution;
    use hsw_exec::WorkloadProfile;
    use hsw_msr::fields;

    /// Drive one node through a representative scenario: settle idle, run a
    /// fixed-frequency load, poke an MSR, then idle again.
    fn scenario(mut node: Node) -> Node {
        node.idle_all();
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.3);
        node.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
        node.set_setting_all(FreqSetting::from_mhz(2000));
        node.advance_s(0.4);
        node.set_epb_all(EpbClass::EnergySaving);
        node.advance_s(0.2);
        node.idle_all();
        node.advance_s(0.3);
        node
    }

    fn fingerprint(node: &mut Node) -> Vec<u64> {
        let mut out = Vec::new();
        for s in 0..2 {
            out.push(node.true_pkg_power_w(s).to_bits());
            out.push(node.true_dram_power_w(s).to_bits());
            out.push(node.sockets()[s].rapl().running_avg_pkg_w().to_bits());
            out.push(node.sockets()[s].die_temperature_c().to_bits());
            for addr in [
                msra::MSR_PKG_ENERGY_STATUS,
                msra::MSR_DRAM_ENERGY_STATUS,
                msra::MSR_U_PMON_UCLK_FIXED_CTR,
                msra::MSR_PKG_C6_RESIDENCY,
            ] {
                out.push(node.rdmsr(CpuId::new(s, 0, 0), addr).unwrap());
            }
            for addr in [
                msra::IA32_TIME_STAMP_COUNTER,
                msra::IA32_APERF,
                msra::IA32_MPERF,
                msra::IA32_FIXED_CTR0_INST_RETIRED,
                msra::MSR_CORE_C6_RESIDENCY,
                msra::IA32_THERM_STATUS,
            ] {
                out.push(node.rdmsr(CpuId::new(s, 3, 0), addr).unwrap());
            }
        }
        out.push(node.measure_ac_average(0.5).to_bits());
        out.push(node.now_ns());
        out
    }

    /// FIRESTARTER on both sockets at turbo: the grant reads the limiter
    /// average, so only the periodic re-solves are on the wake horizon.
    fn firestarter_at_tdp(mut node: Node) -> Node {
        let fs = WorkloadProfile::firestarter();
        for s in 0..2 {
            node.run_on_socket(s, &fs, 12, 2);
        }
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.6);
        node
    }

    /// FTaLaT-style `PERF_CTL` request windows: each request waits for the
    /// next opportunity, then for its switch to complete.
    fn perf_ctl_windows(mut node: Node) -> Node {
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.set_setting_all(FreqSetting::from_mhz(1200));
        node.advance_s(0.01);
        let cpu = CpuId::new(0, 0, 0);
        for k in 0..12u32 {
            let mhz = if k % 2 == 0 { 1300 } else { 1200 };
            let ctl = fields::encode_perf_ctl(hsw_hwspec::PState::from_mhz(mhz));
            node.wrmsr(cpu, msra::IA32_PERF_CTL, ctl).unwrap();
            node.advance_us(700 + 90 * u64::from(k));
        }
        node
    }

    /// A request issued exactly on an opportunity instant that a light
    /// step has just passed: it must wait for the next opportunity, as
    /// under the fixed engine. A fixed-engine twin locates the instant.
    fn request_on_a_passed_opportunity(mut node: Node) -> Node {
        let settle = |n: &mut Node| {
            n.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
            n.set_setting_all(FreqSetting::from_mhz(1200));
            n.advance_s(0.02);
        };
        let mut twin = Node::new(node.config().clone().with_engine(EngineMode::Fixed));
        settle(&mut twin);
        settle(&mut node);
        let opp_us = twin.sockets[0].next_opportunity() / 1_000;
        node.advance_us(opp_us - 1 - node.now_ns() / 1_000);
        let light = node.engine_stats().light_steps;
        node.advance_us(1);
        if node.config().engine == EngineMode::Event {
            assert_eq!(
                node.engine_stats().light_steps,
                light + 1,
                "last step is light"
            );
        }
        let ctl = fields::encode_perf_ctl(hsw_hwspec::PState::from_mhz(1500));
        node.wrmsr(CpuId::new(0, 0, 0), msra::IA32_PERF_CTL, ctl)
            .unwrap();
        node.advance_us(1_500);
        node
    }

    /// An uncore ratio-limit write on a settled socket that no power
    /// limit binds: the clamp must land at the next full step under
    /// either engine, not wait for a PCU input to drift.
    fn uncore_limit_on_a_settled_socket(mut node: Node) -> Node {
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.set_setting_all(FreqSetting::from_mhz(2500));
        node.advance_s(0.5);
        let v = fields::encode_uncore_ratio_limit(12, 15);
        node.wrmsr(CpuId::new(0, 0, 0), msra::MSR_UNCORE_RATIO_LIMIT, v)
            .unwrap();
        node.advance_s(0.2);
        node
    }

    /// A settled snapshot restored into a chip with another spec: the
    /// restored grant and step outputs are the golden chip's, not its own.
    fn restore_into_a_varied_chip(node: Node) -> Node {
        let cfg = node.config().clone();
        let mut golden = Node::new(cfg.clone());
        golden.run_on_socket(0, &WorkloadProfile::compute(), 6, 1);
        golden.set_setting_all(FreqSetting::Turbo);
        golden.advance_s(0.3);
        let varied = hsw_fleet::ChipVariation {
            leak_scale: 1.3,
            vcorner_v: 0.02,
            turbo_offset_mhz: -100,
            rapl_gain: 1.01,
        };
        let mut member = Node::new(cfg.with_spec(varied.apply(&node.config().spec)));
        member.restore(&golden.snapshot());
        member.advance_s(0.3);
        member
    }

    /// A named scenario, its node configuration and its driver.
    type Scenario = (&'static str, NodeConfig, fn(Node) -> Node);

    #[test]
    fn fixed_and_event_engines_are_bit_identical() {
        let scenarios: [Scenario; 6] = [
            ("mixed", NodeConfig::paper_default(), scenario),
            (
                "firestarter at TDP",
                NodeConfig::paper_default().with_tick_us(Resolution::Coarse.tick_us()),
                firestarter_at_tdp,
            ),
            (
                "PERF_CTL windows",
                NodeConfig::paper_default().with_tick_us(Resolution::Latency.tick_us()),
                perf_ctl_windows,
            ),
            (
                "request on a passed opportunity",
                NodeConfig::paper_default().with_tick_us(1),
                request_on_a_passed_opportunity,
            ),
            (
                "uncore limit on a settled socket",
                NodeConfig::paper_default(),
                uncore_limit_on_a_settled_socket,
            ),
            (
                "restore into a varied chip",
                NodeConfig::paper_default(),
                restore_into_a_varied_chip,
            ),
        ];
        for (name, cfg, drive) in scenarios {
            let mut fixed = drive(Node::new(cfg.clone().with_engine(EngineMode::Fixed)));
            let mut event = drive(Node::new(cfg.with_engine(EngineMode::Event)));
            assert!(
                event.engine_stats().light_steps > 0,
                "{name}: event engine never took the light path"
            );
            for s in 0..2 {
                assert_eq!(
                    fixed.drain_transitions(s),
                    event.drain_transitions(s),
                    "{name}: socket {s} transitions"
                );
            }
            assert_eq!(fingerprint(&mut fixed), fingerprint(&mut event), "{name}");
        }
    }

    #[test]
    fn event_engine_coalesces_idle_spans() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.idle_all();
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(2.0);
        let stats = node.engine_stats();
        assert!(
            stats.light_fraction() > 0.5,
            "idle node must step mostly lightly, got {:.2} ({} full / {} light)",
            stats.light_fraction(),
            stats.full_steps,
            stats.light_steps
        );
    }

    #[test]
    fn mutators_invalidate_quiescence() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.idle_all();
        node.advance_s(0.5);
        let full_before = node.engine_stats().full_steps;
        // A workload change must force at least one full step.
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        node.advance_us(40);
        assert!(node.engine_stats().full_steps > full_before);
    }

    #[test]
    fn snapshot_restore_continues_bit_identically() {
        // snapshot → restore into a fresh same-seed node → advance must
        // equal the uninterrupted advance, in both engine modes.
        for engine in [EngineMode::Fixed, EngineMode::Event] {
            let mut a = Node::new(NodeConfig::paper_default().with_engine(engine));
            a.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
            a.set_setting_all(FreqSetting::from_mhz(2000));
            a.advance_s(0.3);
            let snap = a.snapshot();

            let mut b = Node::new(NodeConfig::paper_default().with_engine(engine));
            b.restore(&snap);
            assert_eq!(b.now_ns(), a.now_ns());
            a.advance_s(0.4);
            b.advance_s(0.4);
            assert_eq!(
                fingerprint(&mut a),
                fingerprint(&mut b),
                "engine {engine:?}"
            );
        }
    }

    #[test]
    fn snapshot_fork_with_new_seed_diverges_only_in_noise() {
        // A fork that re-seeds keeps the captured state (counters, clock)
        // but draws its own noise stream from the fork instant on.
        let mut warm = Node::new(NodeConfig::paper_default());
        warm.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
        warm.advance_s(0.2);
        let snap = warm.snapshot();

        let mut fork = Node::new(NodeConfig::paper_default().with_seed(999));
        fork.restore(&snap);
        assert_eq!(fork.now_ns(), warm.now_ns());
        let a = warm.measure_ac_average(0.3);
        let b = fork.measure_ac_average(0.3);
        assert_ne!(a.to_bits(), b.to_bits(), "meter noise must re-key");
        assert!((a - b).abs() < 5.0, "same state, only noise differs");
    }

    #[test]
    fn snapshot_fork_carries_rapl_wrap_state_through_the_node() {
        // End-to-end wrap check for the warm-start fork path: a grossly
        // trimmed chip (gain 5000) meters hundreds of kW, so the 32-bit
        // package counter (61 µJ unit, ~262 kJ period) wraps within a
        // couple of simulated seconds. Fork via NodeSnapshot before the
        // wrap; the fork and the uninterrupted node must cross the 2^32
        // boundary at the same instant and read the same MSR delta.
        use hsw_hwspec::calib;
        let mut cfg = NodeConfig::paper_default();
        cfg.spec.sku.power.rapl_trim_gain = 5000.0;
        let mut unforked = Node::new(cfg.clone());
        unforked.run_on_socket(0, &WorkloadProfile::compute(), 12, 2);
        unforked.advance_s(0.3);
        let cpu = CpuId::new(0, 0, 0);
        let raw0 = unforked.rdmsr(cpu, msra::MSR_PKG_ENERGY_STATUS).unwrap() as u32;
        let total0 = unforked.sockets()[0].rapl().pkg_total_joules();
        let snap = unforked.snapshot();

        let mut fork = Node::new(cfg);
        fork.restore(&snap);
        unforked.advance_s(2.0);
        fork.advance_s(2.0);

        let raw_a = unforked.rdmsr(cpu, msra::MSR_PKG_ENERGY_STATUS).unwrap() as u32;
        let raw_b = fork.rdmsr(cpu, msra::MSR_PKG_ENERGY_STATUS).unwrap() as u32;
        assert_eq!(raw_a, raw_b, "fork diverged across the wrap");
        let total_a = unforked.sockets()[0].rapl().pkg_total_joules();
        let total_b = fork.sockets()[0].rapl().pkg_total_joules();
        assert_eq!(total_a.to_bits(), total_b.to_bits());

        // The run must actually have wrapped, and the wrap-aware MSR delta
        // must equal the metered energy modulo whole counter periods.
        let period_j = 4_294_967_296.0 * calib::PKG_ENERGY_UNIT_UJ * 1e-6;
        let metered_j = total_a - total0;
        let wraps = (metered_j / period_j).floor();
        assert!(wraps >= 1.0, "no wrap: {metered_j:.0} J < {period_j:.0} J");
        let delta_j = raw_a.wrapping_sub(raw0) as f64 * calib::PKG_ENERGY_UNIT_UJ * 1e-6;
        assert!(
            (delta_j - (metered_j - wraps * period_j)).abs() < 1.0,
            "delta {delta_j:.1} J vs metered {metered_j:.1} J ({wraps} wraps)"
        );
    }

    #[test]
    fn a_restored_chip_meters_with_its_own_rapl_trim() {
        // The trim is configuration, read from the spec at every RAPL
        // advance, so two chips restoring one golden image meter the same
        // true power each with its own calibration. Busy-wait gets no
        // stall boost, so the grant does not read the limiter average the
        // trim scales.
        let cfg = NodeConfig::paper_default();
        let mut golden = Node::new(cfg.clone());
        golden.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        golden.advance_s(0.3);
        let snap = golden.snapshot();
        let run = |gain: f64| {
            let mut chip = cfg.clone();
            chip.spec.sku.power.rapl_trim_gain = gain;
            let mut node = Node::new(chip);
            node.restore(&snap);
            let e0 = node.sockets()[0].rapl().pkg_total_joules();
            node.advance_s(0.2);
            let e1 = node.sockets()[0].rapl().pkg_total_joules();
            (node.true_pkg_power_w(0), e1 - e0)
        };
        let (p_ref, e_ref) = run(1.0);
        let (p_trim, e_trim) = run(1.05);
        assert_eq!(p_ref.to_bits(), p_trim.to_bits(), "true package power");
        let ratio = e_trim / e_ref;
        assert!(
            (ratio / 1.05 - 1.0).abs() < 1e-9,
            "metered energy ratio {ratio} is not the 1.05 trim"
        );
    }

    #[test]
    fn restore_and_fork_reproduce_the_snapshot_and_step_fully_next() {
        // A restore lands whole: a fresh node restored from a settled,
        // loaded image and a node that ran something else re-armed by
        // `fork_from` both snapshot back to the image.
        let cfg = NodeConfig::paper_default();
        let mut src = Node::new(cfg.clone());
        src.run_on_socket(0, &WorkloadProfile::compute(), 8, 2);
        src.set_setting_all(FreqSetting::from_mhz(2000));
        src.advance_s(0.3);
        let snap = src.snapshot();
        let image = format!("{snap:?}");

        let mut fresh = Node::new(cfg.clone().with_seed(11));
        fresh.restore(&snap);
        assert_eq!(format!("{:?}", fresh.snapshot()), image, "fresh restore");

        let mut reused = Node::new(cfg.clone().with_seed(12));
        let fs = WorkloadProfile::firestarter();
        reused.run_on_socket(1, &fs, 12, 2);
        reused.set_epb_all(EpbClass::Performance);
        reused.advance_s(0.2);
        reused.fork_from(&snap, 13);
        assert_eq!(format!("{:?}", reused.snapshot()), image, "fork_from");

        // Re-armed to its own image from a few steps back, the source's
        // replay cache reaches past the restored instant: the first step
        // after the fork must still be a full one.
        let tick = cfg.tick_us;
        let light = src.engine_stats().light_steps;
        src.advance_us(5 * tick);
        assert!(
            src.engine_stats().light_steps > light,
            "settled span must step lightly"
        );
        src.fork_from(&snap, cfg.seed);
        let full = src.engine_stats().full_steps;
        src.advance_us(tick);
        assert_eq!(src.engine_stats().full_steps, full + 1);
    }

    #[test]
    fn time_ledger_credits_simulated_time_on_drop() {
        let ledger = Arc::new(AtomicU64::new(0));
        {
            let mut node = Node::new(NodeConfig::paper_default());
            node.set_time_ledger(ledger.clone());
            node.advance_s(0.25);
        }
        assert_eq!(ledger.load(Ordering::Relaxed), 250_000_000);
    }

    mod snapshot_props {
        use super::*;
        use proptest::prelude::*;

        /// One random software-visible MSR write, kept within the encodings
        /// the tools themselves produce (the gate's writable surface).
        fn apply_write(node: &mut Node, socket: usize, core: usize, which: u8, v: u16) {
            let cpu = CpuId::new(socket, core, 0);
            let r = match which % 4 {
                0 => {
                    let p = hsw_hwspec::PState::from_mhz(1200 + u32::from(v % 14) * 100);
                    node.wrmsr(cpu, msra::IA32_PERF_CTL, fields::encode_perf_ctl(p))
                }
                1 => node.wrmsr(cpu, msra::IA32_ENERGY_PERF_BIAS, u64::from(v % 16)),
                2 => node.wrmsr(cpu, msra::IA32_CLOCK_MODULATION, u64::from(v % 32)),
                _ => {
                    let min = 12 + (v % 8) as u8;
                    let max = min + (v % 10) as u8;
                    node.wrmsr(
                        cpu,
                        msra::MSR_UNCORE_RATIO_LIMIT,
                        fields::encode_uncore_ratio_limit(min, max),
                    )
                }
            };
            r.expect("writable MSR");
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]
            #[test]
            fn prop_round_trip_survives_random_gated_msr_writes(
                writes in proptest::collection::vec(
                    (0usize..2, 0usize..12, any::<u8>(), any::<u16>()),
                    1..10,
                ),
                event_engine in any::<bool>(),
            ) {
                let engine = if event_engine {
                    EngineMode::Event
                } else {
                    EngineMode::Fixed
                };
                let mut a = Node::new(NodeConfig::paper_default().with_engine(engine));
                a.run_on_socket(0, &WorkloadProfile::busy_wait(), 4, 1);
                a.advance_s(0.05);
                for (s, c, which, v) in &writes {
                    apply_write(&mut a, *s, *c, *which, *v);
                }
                a.advance_s(0.05);
                let snap = a.snapshot();

                let mut b = Node::new(NodeConfig::paper_default().with_engine(engine));
                b.restore(&snap);
                a.advance_s(0.15);
                b.advance_s(0.15);
                prop_assert_eq!(fingerprint(&mut a), fingerprint(&mut b));
            }
        }
    }

    mod fork_props {
        use super::*;
        use proptest::prelude::*;

        fn warm_image() -> (NodeSnapshot, NodeConfig) {
            let cfg = NodeConfig::paper_default();
            let mut node = Node::new(cfg.clone());
            node.run_on_socket(0, &WorkloadProfile::compute(), 8, 1);
            node.set_setting_all(FreqSetting::from_mhz(2200));
            node.advance_s(0.2);
            (node.snapshot(), cfg)
        }

        /// One step of a randomized mutation program over the node's
        /// mutators: workload assignment, p-state requests, MSR stores
        /// (EPB, turbo, `PERF_CTL`, the uncore ratio limit), the
        /// transition log, and plain time advance.
        fn mutate(node: &mut Node, op: u8, v: u16) {
            let cpu = CpuId::new(usize::from(v % 2), usize::from(v / 2 % 12), 0);
            match op % 8 {
                0 => node.set_setting_all(FreqSetting::from_mhz(1200 + u32::from(v % 14) * 100)),
                1 => node.run_on_socket(
                    usize::from(v % 2),
                    &WorkloadProfile::busy_wait(),
                    usize::from(v % 13),
                    1,
                ),
                2 => node.set_epb_all(if v.is_multiple_of(2) {
                    EpbClass::Performance
                } else {
                    EpbClass::EnergySaving
                }),
                3 => node.set_turbo(v.is_multiple_of(2)),
                4 => node.advance_us(500 + u64::from(v % 2000)),
                5 => {
                    let _ = node.drain_transitions(usize::from(v % 2));
                }
                6 => {
                    let p = hsw_hwspec::PState::from_mhz(1200 + u32::from(v % 14) * 100);
                    node.wrmsr(cpu, msra::IA32_PERF_CTL, fields::encode_perf_ctl(p))
                        .expect("writable MSR");
                }
                _ => {
                    let min = 12 + (v % 8) as u8;
                    let max = min + (v % 10) as u8;
                    let limit = fields::encode_uncore_ratio_limit(min, max);
                    node.wrmsr(cpu, msra::MSR_UNCORE_RATIO_LIMIT, limit)
                        .expect("writable MSR");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]
            #[test]
            fn prop_reused_fork_equals_a_fresh_restore(
                programs in proptest::collection::vec(
                    proptest::collection::vec((any::<u8>(), any::<u16>()), 0..6),
                    1..4,
                ),
                seed_base in any::<u32>(),
            ) {
                // A node re-armed by `fork_from` against one warm image
                // must stay bit-identical to a fresh node restoring the
                // same image, whatever the previous point mutated
                // (including the fingerprint's own measurement advance).
                let (snap, cfg) = warm_image();
                let mut scratch = Node::new(cfg.clone());
                scratch.restore(&snap);
                for (k, prog) in programs.iter().enumerate() {
                    let seed = u64::from(seed_base) + k as u64 + 1;
                    scratch.fork_from(&snap, seed);
                    let mut fresh = Node::new(cfg.clone().with_seed(seed));
                    fresh.restore(&snap);
                    for (op, v) in prog {
                        mutate(&mut scratch, *op, *v);
                        mutate(&mut fresh, *op, *v);
                    }
                    scratch.advance_s(0.05);
                    fresh.advance_s(0.05);
                    prop_assert_eq!(
                        fingerprint(&mut scratch),
                        fingerprint(&mut fresh),
                        "fork {k} diverged"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod mbvr_tests {
    use super::*;
    use hsw_power::MbvrPowerState;

    #[test]
    fn mbvr_sheds_phases_at_idle_and_restores_under_load() {
        // Paper Section II-B: the MBVR's three power states are "activated
        // by the processor according to the estimated power consumption".
        let mut node = Node::new(NodeConfig::paper_default());
        node.idle_all();
        node.advance_s(0.3);
        assert_eq!(node.sockets()[0].mbvr_state(), MbvrPowerState::Ps2);

        let fs = hsw_exec::WorkloadProfile::firestarter();
        node.run_on_socket(0, &fs, 12, 2);
        node.advance_s(0.3);
        assert_eq!(node.sockets()[0].mbvr_state(), MbvrPowerState::Ps0);
        // The other socket stays idle and keeps its light-load state.
        assert_ne!(node.sockets()[1].mbvr_state(), MbvrPowerState::Ps0);
    }
}

#[cfg(test)]
mod pl2_tests {
    use super::*;
    use hsw_exec::WorkloadProfile;

    #[test]
    fn workload_onset_bursts_at_pl2_then_settles_to_pl1() {
        // Two-level RAPL: a fresh FIRESTARTER start may exceed TDP for a
        // short burst (PL2) until the running average catches up, then the
        // sustained limit clamps it to 120 W — the transient the paper's
        // steady-state medians deliberately exclude.
        let mut node = Node::new(NodeConfig::paper_default());
        node.idle_all();
        node.advance_s(0.3);
        let fs = WorkloadProfile::firestarter();
        node.run_on_socket(0, &fs, 12, 2);
        node.set_setting_all(hsw_hwspec::freq::FreqSetting::Turbo);
        // Within the first ~50 ms the package may run above TDP.
        node.advance_s(0.05);
        let burst = node.true_pkg_power_w(0);
        assert!(
            burst > 121.0,
            "expected a PL2 burst above TDP, got {burst:.1} W"
        );
        assert!(burst < 120.0 * 1.25, "burst {burst:.1} W beyond PL2");
        // After a second the limiter has clamped to the sustained budget.
        node.advance_s(1.0);
        let settled = node.true_pkg_power_w(0);
        assert!((settled - 120.0).abs() < 3.0, "settled at {settled:.1} W");
    }
}
