//! Node configuration and CPU addressing.

use hsw_hwspec::NodeSpec;
use hsw_power::DramRaplMode;

use crate::engine::EngineMode;

/// A machine under test and its simulation settings: the one description
/// that nodes, sessions ([`NodeConfig::session`]) and the survey's
/// platforms ([`crate::PlatformKind::config`]) are built from.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    pub spec: NodeSpec,
    /// BIOS DRAM RAPL mode (paper Section IV: only mode 1 is supported on
    /// Haswell-EP; mode 0 yields unspecified behavior).
    pub dram_rapl_mode: DramRaplMode,
    /// Energy-efficient turbo enabled (Table II: enabled).
    pub eet_enabled: bool,
    /// Simulation step in µs, at least 1 ([`crate::Node::new`] panics on
    /// 0). 20 µs suffices for power/frequency work; latency experiments
    /// use 1 µs.
    pub tick_us: u64,
    /// Noise seed (all simulation noise is keyed to the instant, so a seed
    /// fully determines a run in either engine mode).
    pub seed: u64,
    /// Time-advance engine (see [`EngineMode`]); both modes produce
    /// bit-identical results, `Event` skips model work no event needs.
    pub engine: EngineMode,
}

impl NodeConfig {
    /// The paper's test system with default simulation settings.
    pub fn paper_default() -> Self {
        NodeConfig {
            spec: NodeSpec::paper_test_node(),
            dram_rapl_mode: DramRaplMode::Mode1,
            eet_enabled: true,
            tick_us: 20,
            seed: 0x4A57_0001,
            engine: EngineMode::default(),
        }
    }

    /// The follow-up survey's Skylake-SP test system (1905.12468
    /// Section III): two Xeon Platinum 8170, mesh uncore, HWP p-states.
    /// Same session machinery, different [`hsw_hwspec::FirmwarePolicy`].
    pub fn skylake_sp() -> Self {
        NodeConfig {
            spec: NodeSpec::skylake_sp_node(),
            dram_rapl_mode: DramRaplMode::Mode1,
            eet_enabled: true,
            tick_us: 20,
            seed: 0x534B_0001,
            engine: EngineMode::default(),
        }
    }

    /// Fine-grained time resolution for transition-latency experiments.
    ///
    /// # Panics
    ///
    /// If `tick_us` is 0.
    pub fn with_tick_us(mut self, tick_us: u64) -> Self {
        assert!(tick_us >= 1, "tick must be at least 1 µs");
        self.tick_us = tick_us;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_spec(mut self, spec: NodeSpec) -> Self {
        self.spec = spec;
        self
    }

    pub fn with_dram_mode(mut self, mode: DramRaplMode) -> Self {
        self.dram_rapl_mode = mode;
        self
    }

    pub fn with_eet(mut self, enabled: bool) -> Self {
        self.eet_enabled = enabled;
        self
    }

    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }
}

/// Addressing of one hardware thread: (socket, core, thread).
///
/// The flat numbering is socket-major, then core, then SMT sibling —
/// `cpu = socket·cores·tpc + core·tpc + thread`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CpuId {
    pub socket: usize,
    pub core: usize,
    pub thread: usize,
}

impl CpuId {
    pub fn new(socket: usize, core: usize, thread: usize) -> Self {
        CpuId {
            socket,
            core,
            thread,
        }
    }

    /// Flat index given the SKU geometry. It saturates at `usize::MAX`
    /// rather than overflow on an id far outside the geometry.
    pub fn flat(&self, cores_per_socket: usize, threads_per_core: usize) -> usize {
        self.socket
            .saturating_mul(cores_per_socket * threads_per_core)
            .saturating_add(self.core.saturating_mul(threads_per_core))
            .saturating_add(self.thread)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_round_trip() {
        // Walked socket-major, then core, then thread, the paper geometry
        // numbers one-to-one onto 0..48.
        let mut flats = Vec::new();
        for socket in 0..2 {
            for core in 0..12 {
                for thread in 0..2 {
                    flats.push(CpuId::new(socket, core, thread).flat(12, 2));
                }
            }
        }
        assert_eq!(flats, (0..48).collect::<Vec<_>>());
    }

    #[test]
    fn paper_default_matches_table2() {
        let cfg = NodeConfig::paper_default();
        assert_eq!(cfg.spec.sockets, 2);
        assert_eq!(cfg.spec.sku.cores, 12);
        assert!(cfg.eet_enabled);
        assert_eq!(cfg.dram_rapl_mode, DramRaplMode::Mode1);
    }

    #[test]
    #[should_panic(expected = "tick must be at least 1 µs")]
    fn zero_tick_rejected() {
        let _ = NodeConfig::paper_default().with_tick_us(0);
    }
}
