//! The session layer: declarative wiring for experiments.
//!
//! Every experiment used to hand-assemble its node as
//! `Node::new(NodeConfig::paper_default().with_seed(..).with_tick_us(..))`,
//! scattering seed derivation and tick choices across sixteen modules. A
//! [`NodeConfig`] describes the machine under test once (spec, DRAM RAPL
//! mode, EET, tick, engine, root seed); [`NodeConfig::session`] then starts a
//! [`SessionBuilder`] that builds concrete simulation sessions from it —
//! an explicit seed per sweep point (which the survey's sweep executor
//! derives), a named [`Resolution`] class instead of magic tick numbers,
//! and optional telemetry sinks such as the survey's simulated-time
//! ledger. A [`Session`] dereferences to [`Node`], so the whole existing
//! node surface works unchanged.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hsw_hwspec::NodeSpec;

use crate::config::NodeConfig;
use crate::node::Node;

/// Simulation time resolution class. The tick is the micro-step both
/// engines subdivide time into; it bounds how sharply transitions resolve,
/// so latency experiments need finer classes than power averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resolution {
    /// 2 µs — p-state/c-state transition latency measurements (Fig. 3/4).
    Latency,
    /// 5 µs — fine-grained counter work.
    Fine,
    /// 20 µs — the default for power and frequency experiments.
    Standard,
    /// 50 µs — multi-second steady-state sweeps (Table IV/V).
    Coarse,
    /// Explicit tick in µs.
    Custom(u64),
}

impl Resolution {
    pub fn tick_us(&self) -> u64 {
        match self {
            Resolution::Latency => 2,
            Resolution::Fine => 5,
            Resolution::Standard => 20,
            Resolution::Coarse => 50,
            Resolution::Custom(us) => *us,
        }
    }
}

/// Which surveyed machine a run models: the selection the `survey`
/// binary's `--platform` flag makes once, before any experiment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlatformKind {
    /// The paper's Haswell-EP node (Table II).
    #[default]
    Haswell,
    /// The follow-up survey's Skylake-SP node (arXiv 1905.12468).
    SkylakeSp,
}

impl PlatformKind {
    pub const ALL: [PlatformKind; 2] = [PlatformKind::Haswell, PlatformKind::SkylakeSp];

    /// The CLI spelling (`--platform <name>`).
    pub fn name(&self) -> &'static str {
        match self {
            PlatformKind::Haswell => "haswell",
            PlatformKind::SkylakeSp => "skylake-sp",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<PlatformKind> {
        PlatformKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The machine description this kind selects.
    pub fn config(&self) -> NodeConfig {
        match self {
            PlatformKind::Haswell => NodeConfig::paper_default(),
            PlatformKind::SkylakeSp => NodeConfig::skylake_sp(),
        }
    }
}

impl std::fmt::Display for PlatformKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl NodeConfig {
    /// Start describing one simulation session on this machine.
    pub fn session(&self) -> SessionBuilder {
        SessionBuilder {
            cfg: self.clone(),
            time_ledger: None,
        }
    }
}

/// Builder for one simulation session.
#[derive(Debug, Clone)]
pub struct SessionBuilder {
    cfg: NodeConfig,
    time_ledger: Option<Arc<AtomicU64>>,
}

impl SessionBuilder {
    /// Use an explicit seed for this session.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Select the time-resolution class.
    ///
    /// # Panics
    ///
    /// If the class's tick is 0 µs (`Resolution::Custom(0)`), as
    /// [`NodeConfig::with_tick_us`] does.
    pub fn resolution(mut self, r: Resolution) -> Self {
        self.cfg = self.cfg.with_tick_us(r.tick_us());
        self
    }

    /// Override the node spec for this session (SKU extrapolation).
    pub fn spec(mut self, spec: NodeSpec) -> Self {
        self.cfg.spec = spec;
        self
    }

    /// Attach a telemetry sink: the node's total simulated time is credited
    /// to `ledger` when the session drops (the survey's per-experiment
    /// simulated-time accounting).
    pub fn time_ledger(mut self, ledger: Arc<AtomicU64>) -> Self {
        self.time_ledger = Some(ledger);
        self
    }

    /// Materialize the session.
    pub fn build(self) -> Session {
        let mut node = Node::new(self.cfg);
        if let Some(ledger) = self.time_ledger {
            node.set_time_ledger(ledger);
        }
        Session { node }
    }
}

/// A running simulation session. Dereferences to [`Node`], so the full
/// node surface (workload assignment, MSRs, advance, metering) applies.
pub struct Session {
    node: Node,
}

impl Session {
    pub fn into_node(self) -> Node {
        self.node
    }
}

impl std::ops::Deref for Session {
    type Target = Node;

    fn deref(&self) -> &Node {
        &self.node
    }
}

impl std::ops::DerefMut for Session {
    fn deref_mut(&mut self) -> &mut Node {
        &mut self.node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn platform_kind_round_trips_its_cli_name() {
        for kind in PlatformKind::ALL {
            assert_eq!(PlatformKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PlatformKind::parse("broadwell"), None);
        assert_eq!(PlatformKind::default(), PlatformKind::Haswell);
    }

    #[test]
    fn skylake_platform_runs_a_session() {
        // The SKX node (2× 26-core mesh) must drive through the same
        // session machinery as the paper node.
        let platform = PlatformKind::SkylakeSp.config();
        assert_eq!(
            platform.spec.sku.generation,
            hsw_hwspec::CpuGeneration::SkylakeSp
        );
        let mut s = platform.session().resolution(Resolution::Coarse).build();
        s.idle_all();
        s.advance_s(0.02);
        assert!(s.now_s() > 0.019);
    }

    #[test]
    fn resolution_classes_map_to_documented_ticks() {
        assert_eq!(Resolution::Latency.tick_us(), 2);
        assert_eq!(Resolution::Fine.tick_us(), 5);
        assert_eq!(Resolution::Standard.tick_us(), 20);
        assert_eq!(Resolution::Coarse.tick_us(), 50);
        assert_eq!(Resolution::Custom(7).tick_us(), 7);
        assert_eq!(Resolution::Custom(0).tick_us(), 0);
    }

    #[test]
    #[should_panic(expected = "tick must be at least 1 µs")]
    fn a_zero_custom_tick_is_rejected() {
        let _ = NodeConfig::paper_default()
            .session()
            .resolution(Resolution::Custom(0));
    }

    #[test]
    fn session_derefs_to_a_working_node() {
        let mut s = NodeConfig::paper_default()
            .session()
            .resolution(Resolution::Coarse)
            .build();
        s.idle_all();
        s.advance_s(0.05);
        assert!(s.now_s() > 0.049);
        assert_eq!(s.config().tick_us, 50);
    }

    #[test]
    fn time_ledger_sink_accumulates_across_sessions() {
        let ledger = Arc::new(AtomicU64::new(0));
        for seed in 0..2u64 {
            let mut s = NodeConfig::paper_default()
                .session()
                .seed(seed)
                .time_ledger(ledger.clone())
                .build();
            s.advance_us(1_000);
        }
        assert_eq!(ledger.load(Ordering::Relaxed), 2_000_000);
    }

    #[test]
    fn time_ledger_is_exact_under_concurrent_session_drops() {
        // Sweep workers drop their sessions from pool threads; the ledger
        // credit on drop must not lose updates under contention.
        let ledger = Arc::new(AtomicU64::new(0));
        let platform = NodeConfig::paper_default();
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let ledger = ledger.clone();
                let platform = &platform;
                scope.spawn(move || {
                    for i in 0..8u64 {
                        let mut s = platform
                            .session()
                            .seed(worker * 100 + i)
                            .resolution(Resolution::Coarse)
                            .time_ledger(ledger.clone())
                            .build();
                        s.advance_us(500);
                    }
                });
            }
        });
        assert_eq!(ledger.load(Ordering::Relaxed), 4 * 8 * 500_000);
    }
}
