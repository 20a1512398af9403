//! The experiment registry and concurrent survey runner.
//!
//! Every table/figure module exposes an [`SurveyExperiment`] adapter; the
//! registry enumerates them in paper order and [`run_survey`] fans them
//! out across worker threads. Determinism contract: each experiment's RNG
//! seed is derived from the root seed and the experiment id only
//! ([`experiment_seed`]), never from scheduling, so the same `--seed`
//! yields bit-identical results for any `--jobs` value. Wall-clock
//! timings are reported separately ([`SurveyRun::timings_s`]) and are
//! deliberately excluded from the JSON document.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hsw_fleet::{ChipVariation, VariationModel};
pub use hsw_hwspec::mix_seed;
use hsw_node::{EngineMode, Node, NodeConfig, NodeSnapshot, PlatformKind, SessionBuilder};
use rayon::prelude::*;
use serde::{Serialize, Value};

use crate::experiments;
use crate::report::Table;
use crate::Fidelity;

// ---------------------------------------------------------------------------
// Seed schedule
//
// One sweep base seed feeds three independent streams. Each stream that
// enumerates small integers lives under its *own* sub-base, derived from the
// sweep base with a stream-specific salt, so the streams can never collide
// for any sweep size or fleet size:
//
//   point k  : mix_seed(base, k)                          (k = 0, 1, 2, …)
//   warmup   : mix_seed(mix_seed(base, WARMUP_SALT), WARMUP_SALT)
//   node id  : mix_seed(mix_seed(base, NODE_SALT), id)    (id = 0, 1, 2, …)
//
// A single shared namespace would be a trap: `mix_seed(base, k)` and a
// hypothetical `mix_seed(base, node_id)` coincide exactly when `k ==
// node_id`, seeding two *different* simulations identically (see the
// `node_stream_fix_*` regression tests, which construct that collision).
// ---------------------------------------------------------------------------

/// Stream salt of the shared-warmup sub-base. Any large fixed constant
/// works; this one spells "WARMUP".
const WARMUP_SALT: u64 = 0x5741_524D_5550_9E37;

/// Stream salt of the fleet node-id sub-base ("NODEIDS").
const NODE_SALT: u64 = 0x4E4F_4445_4944_537F;

/// Stream salt of the surrogate spot-check sub-base ("SPOTCHK"). Like the
/// other stream salts it gives the spot-check draws their own namespace,
/// so the sample can never alias a point seed or node seed.
pub const SPOTCHECK_SALT: u64 = 0x5350_4F54_4348_4B7F;

/// Points/nodes of one surrogate sweep that re-run the full simulator.
pub const SPOTCHECK_K: usize = 2;

/// The deterministic spot-check sample of a surrogate sweep: `k` distinct
/// indices in `0..n`, in draw order, from the spot-check sub-base
/// `mix_seed(base, SPOTCHECK_SALT)`. A pure function of `(base, n, k)` —
/// never of scheduling — so the sample is byte-identical at any `--jobs`
/// value and pool width. Keep `k` small (the distinctness scan is O(k)
/// per draw); the executors use [`SPOTCHECK_K`].
pub fn spotcheck_ids(base: u64, n: usize, k: usize) -> Vec<usize> {
    let sub = mix_seed(base, SPOTCHECK_SALT);
    let mut ids: Vec<usize> = Vec::with_capacity(k.min(n));
    let mut draw = 0u64;
    while ids.len() < k.min(n) {
        let id = (mix_seed(sub, draw) % n as u64) as usize;
        if !ids.contains(&id) {
            ids.push(id);
        }
        draw += 1;
    }
    ids
}

/// Relative error of a surrogate value against the full simulator's
/// (absolute error when the simulator reads exactly zero).
pub fn rel_err(surrogate: f64, full: f64) -> f64 {
    if full == 0.0 {
        surrogate.abs()
    } else {
        ((surrogate - full) / full).abs()
    }
}

/// One surrogate sweep answer: the closed-form value, plus the full
/// simulator's answer when the point was in the spot-check sample.
#[derive(Debug, Clone)]
pub struct Surrogate<R> {
    pub value: R,
    pub checked: Option<R>,
}

/// The warmup session's seed for a sweep base (its own sub-base, outside
/// both the point-index and node-id streams).
fn warmup_seed(base: u64) -> u64 {
    mix_seed(mix_seed(base, WARMUP_SALT), WARMUP_SALT)
}

/// Fleet node `id`'s seed for a sweep base: drawn from the node-id
/// sub-base, so it coincides with no point seed `mix_seed(base, k)` even
/// when `id == k`.
pub fn node_seed(base: u64, id: u64) -> u64 {
    mix_seed(mix_seed(base, NODE_SALT), id)
}

/// Everything an experiment gets from the runner.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub fidelity: Fidelity,
    /// Per-experiment seed, already derived from the survey root seed and
    /// the experiment id. Fully deterministic experiments ignore it.
    pub seed: u64,
    /// Time-advance engine every session of this experiment runs under.
    pub engine: EngineMode,
    /// Simulated-time ledger: every session built through [`RunCtx::session`]
    /// credits its total simulated nanoseconds here on drop.
    sim_ns: Arc<AtomicU64>,
    /// Sweep points executed through any sweep entry point (the
    /// scoreboard's `pts` column).
    points: Arc<AtomicU64>,
    /// Warm-start mode: `true` runs each sweep's warmup once and forks
    /// every point from the converged snapshot; `false` re-runs the warmup
    /// per point. Both paths execute the identical fork code under the
    /// identical seed schedule, so results are byte-identical — only wall
    /// clock differs.
    warm_start: bool,
    /// Sweep points served from a shared warm-start snapshot instead of a
    /// re-run warmup (the scoreboard's `reuse` column).
    reuses: Arc<AtomicU64>,
    /// Sweep points answered by the closed-form surrogate instead of the
    /// simulator (the scoreboard's `sur` column).
    surrogate_hits: Arc<AtomicU64>,
    /// Surrogate points re-run through the full simulator as spot checks
    /// (the scoreboard's `chk` column).
    spot_checks: Arc<AtomicU64>,
    /// `--fleet-size` override for the fleet experiments; `None` leaves the
    /// size to the fidelity preset ([`Fidelity::fleet_size`]).
    pub fleet_size: Option<usize>,
    /// Which surveyed machine [`RunCtx::platform`] models (`--platform`).
    pub platform_kind: PlatformKind,
}

impl RunCtx {
    pub fn new(fidelity: Fidelity, seed: u64, engine: EngineMode) -> Self {
        RunCtx {
            fidelity,
            seed,
            engine,
            sim_ns: Arc::new(AtomicU64::new(0)),
            points: Arc::new(AtomicU64::new(0)),
            warm_start: true,
            reuses: Arc::new(AtomicU64::new(0)),
            surrogate_hits: Arc::new(AtomicU64::new(0)),
            spot_checks: Arc::new(AtomicU64::new(0)),
            fleet_size: None,
            platform_kind: PlatformKind::Haswell,
        }
    }

    /// Select the machine under test (`--platform`). Default: the paper's
    /// Haswell node.
    pub fn with_platform(mut self, kind: PlatformKind) -> Self {
        self.platform_kind = kind;
        self
    }

    /// Select cold (`false`) or warm (`true`, the default) settles in the
    /// sweep executor. Results are identical either way.
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Override the fleet size the fleet experiments simulate (`--fleet-size`).
    pub fn with_fleet_size(mut self, fleet_size: Option<usize>) -> Self {
        self.fleet_size = fleet_size;
        self
    }

    /// Nodes per fleet experiment: the `--fleet-size` override if given,
    /// else the fidelity preset.
    pub fn fleet_size(&self) -> usize {
        self.fleet_size.unwrap_or(self.fidelity.fleet_size())
    }

    /// The raw `--fleet-size` override, for experiments that substitute
    /// their own per-fidelity scale defaults (the analytic-scale sweep).
    pub fn fleet_size_override(&self) -> Option<usize> {
        self.fleet_size
    }

    /// The selected machine under this experiment's seed and engine.
    pub fn platform(&self) -> NodeConfig {
        self.platform_kind
            .config()
            .with_seed(self.seed)
            .with_engine(self.engine)
    }

    /// Start a session on [`RunCtx::platform`], wired to the simulated-time
    /// ledger. A sweep point seeds it with the seed the executor hands the
    /// point ([`RunCtx::sweep`]), or with sub-seeds `mix_seed(seed, j)` of
    /// that seed.
    pub fn session(&self) -> SessionBuilder {
        self.platform().session().time_ledger(self.sim_ns.clone())
    }

    /// Total simulated seconds advanced by sessions dropped so far.
    pub fn sim_time_s(&self) -> f64 {
        self.sim_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Sweep points executed so far through the sweep executor.
    pub fn sweep_points(&self) -> u64 {
        self.points.load(Ordering::Relaxed)
    }

    /// Sweep points served from a shared warm-start snapshot so far.
    pub fn snapshot_reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Sweep points answered by the closed-form surrogate so far.
    pub fn surrogate_hits(&self) -> u64 {
        self.surrogate_hits.load(Ordering::Relaxed)
    }

    /// Surrogate points re-run through the full simulator so far.
    pub fn spot_checks(&self) -> u64 {
        self.spot_checks.load(Ordering::Relaxed)
    }

    /// Fan `points` through the worker pool with this experiment's seed as
    /// the derivation base: point `k` runs as `f(&points[k],
    /// mix_seed(self.seed, k))` and results come back in point order.
    ///
    /// The seed depends on the sweep geometry only, never on scheduling,
    /// and it is the only seed the point should derive from: a point that
    /// runs several sessions seeds them `mix_seed(seed, j)`. Combined with
    /// the pool's index-ordered collection this keeps results
    /// byte-identical for any pool size (`RAYON_NUM_THREADS`) and any
    /// `--jobs` value; only wall clock changes.
    pub fn sweep<P, R, F>(&self, points: &[P], f: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        F: Fn(&P, u64) -> R + Send + Sync,
    {
        simulated(self.execute(
            self.seed,
            points.len(),
            Source::Points,
            Prep::Given(()),
            |_, d| f(&points[d.k], d.seed),
            None,
        ))
    }

    /// Warm-start sweep: amortize a shared settle phase across all points.
    ///
    /// `warmup` receives a session builder (already seeded from the warmup
    /// sub-base — see the seed-schedule note — and *not* wired to the time ledger) and
    /// drives the node to its converged pre-point state. `point` receives a
    /// fork of that state under the point seed `mix_seed(base, k)`, plus
    /// the point itself and the point seed.
    ///
    /// With warm start on, `warmup` runs once and every point forks the one
    /// snapshot; with it off, `warmup` re-runs per point. Either way each
    /// fork is a fresh `Node` built under the point seed and fully restored
    /// from the image. [`hsw_node`]'s noise is keyed by (seed, domain,
    /// sim-time) rather than step count, so results are byte-identical by
    /// construction; only wall clock differs.
    ///
    /// Contract for `warmup`: configure the builder freely (spec,
    /// resolution, EET, …) but never call [`SessionBuilder::seed`] — the
    /// executor owns the seed schedule.
    pub fn sweep_warm<P, R, W, F>(&self, points: &[P], warmup: W, point: F) -> Vec<R>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
    {
        simulated(self.node_sweep(
            self.seed,
            points.len(),
            Source::Points,
            warmup,
            |node, d| point(node, &points[d.k], d.seed),
            None,
        ))
    }

    /// Like [`RunCtx::sweep_warm`] for experiments that run several warm
    /// sweeps: `salt` separates the seed streams (panel index, benchmark
    /// id, …).
    pub fn sweep_warm_salted<P, R, W, F>(
        &self,
        salt: u64,
        points: &[P],
        warmup: W,
        point: F,
    ) -> Vec<R>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
    {
        simulated(self.node_sweep(
            mix_seed(self.seed, salt),
            points.len(),
            Source::Points,
            warmup,
            |node, d| point(node, &points[d.k], d.seed),
            None,
        ))
    }

    /// Warm-start sweep for analytic experiments: amortize a deterministic
    /// shared precomputation instead of a simulated settle. `prep` builds
    /// the shared value — once under warm start, per point under cold — and
    /// `point` consumes a clone of it. Because `prep` takes no seed and is
    /// deterministic, results are mode-independent by construction.
    pub fn sweep_warm_shared<S, P, R, W, F>(&self, points: &[P], prep: W, point: F) -> Vec<R>
    where
        S: Clone + Send + Sync,
        P: Sync,
        R: Send,
        W: Fn() -> S + Send + Sync,
        F: Fn(S, &P, u64) -> R + Send + Sync,
    {
        simulated(self.execute(
            self.seed,
            points.len(),
            Source::Points,
            Prep::Settle(&prep),
            |shared: &S, d| point(shared.clone(), &points[d.k], d.seed),
            None,
        ))
    }

    /// Surrogate sweep: answer every point from the closed form, then
    /// re-run a deterministic [`SPOTCHECK_K`]-point sample through the full
    /// simulator's warm path and attach those answers for divergence
    /// accounting.
    ///
    /// `warmup`/`point` are exactly [`RunCtx::sweep_warm`]'s callbacks;
    /// `surrogate` answers a point from the closed form under the same
    /// point seed. The spot-checked points run under the *original* point
    /// seeds `mix_seed(base, k)` and the index-independent warmup seed, so
    /// each checked answer is byte-identical to point `k` of a full
    /// `sweep_warm` sweep — at any `--jobs`/pool width, warm or cold.
    pub fn sweep_surrogate<P, R, W, F, S>(
        &self,
        points: &[P],
        warmup: W,
        point: F,
        surrogate: S,
    ) -> Vec<Surrogate<R>>
    where
        P: Sync,
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &P, u64) -> R + Send + Sync,
        S: Fn(&P, u64) -> R + Send + Sync,
    {
        self.node_sweep(
            self.seed,
            points.len(),
            Source::Points,
            warmup,
            |node, d| point(node, &points[d.k], d.seed),
            Some(&|d: &Draw| surrogate(&points[d.k], d.seed)),
        )
    }

    /// Fleet surrogate sweep: answer every manufactured member from the
    /// closed form, then re-run a deterministic [`SPOTCHECK_K`]-member
    /// sample through the full simulator and attach those answers.
    ///
    /// `warmup`/`member` are exactly [`RunCtx::sweep_fleet`]'s callbacks;
    /// `surrogate` answers member `(variation, id, seed)` from the closed
    /// form (the variation is the same `ChipVariation::sample` draw the
    /// simulator path applies, so a chip's analytic identity is its
    /// simulated identity). Spot-checked members run under their original
    /// node seeds `node_seed(base, id)` and the shared warm image — the
    /// identical fork construction as `sweep_fleet` — so each checked
    /// answer is byte-identical to member `id` of a full-fidelity fleet at
    /// any `--jobs`/pool width.
    pub fn sweep_fleet_surrogate<R, W, F, S>(
        &self,
        fleet_size: usize,
        model: &VariationModel,
        warmup: W,
        member: F,
        surrogate: S,
    ) -> Vec<Surrogate<R>>
    where
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &ChipVariation, usize, u64) -> R + Send + Sync,
        S: Fn(&ChipVariation, usize, u64) -> R + Send + Sync,
    {
        self.node_sweep(
            self.seed,
            fleet_size,
            Source::Fleet(model),
            warmup,
            |node, d| member(node, d.chip(), d.k, d.seed),
            Some(&|d: &Draw| surrogate(d.chip(), d.k, d.seed)),
        )
    }

    /// Fleet sweep: warm one *golden* node, then fork it into `fleet_size`
    /// manufactured variants and run `member` on each.
    ///
    /// `warmup` drives the reference chip (nominal spec unless the builder
    /// overrides it — a package power cap set via [`SessionBuilder::spec`]
    /// is inherited by every member) to its converged state, exactly like
    /// [`RunCtx::sweep_warm`]. Node `id` then forks as its own chip:
    ///
    /// * seed `node_seed(base, id)` — the node-id sub-base, collision-free
    ///   against point and warmup streams (see the seed-schedule note);
    /// * spec `ChipVariation::sample(model, seed).apply(warmup spec)` — the
    ///   per-chip manufacturing draw, a pure function of the node seed;
    /// * state restored from the golden snapshot, clock included, so every
    ///   member continues from the same converged instant.
    ///
    /// `member` receives `(node, &variation, id, seed)`. Results come back
    /// in node-id order; byte-identical for any pool width and `--jobs`
    /// (warm and cold modes run the identical fork construction).
    pub fn sweep_fleet<R, W, F>(
        &self,
        fleet_size: usize,
        model: &VariationModel,
        warmup: W,
        member: F,
    ) -> Vec<R>
    where
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &ChipVariation, usize, u64) -> R + Send + Sync,
    {
        simulated(self.node_sweep(
            self.seed,
            fleet_size,
            Source::Fleet(model),
            warmup,
            |node, d| member(node, d.chip(), d.k, d.seed),
            None,
        ))
    }

    /// The sweep executor every entry point runs through. Index `k` of
    /// `0..n` draws its seed (and, in a fleet, its chip) from `source`
    /// under `base`. Without a `closed_form`, every index runs `full` and
    /// that is its `value`. With one, every index is answered from the
    /// closed form and only the [`spotcheck_ids`] sample also runs `full`,
    /// as `checked`. `full` gets the value `prep` shares. This is the one
    /// place that branches on warm start and counts `pts`/`reuse`/`sur`/
    /// `chk`; a sweep that simulates nothing never runs its settle.
    fn execute<S, R>(
        &self,
        base: u64,
        n: usize,
        source: Source<'_>,
        prep: Prep<'_, S>,
        full: impl Fn(&S, &Draw) -> R + Send + Sync,
        closed_form: Option<&(dyn Fn(&Draw) -> R + Sync)>,
    ) -> Vec<Surrogate<R>>
    where
        S: Sync,
        R: Send,
    {
        let surrogate = closed_form.map(|answer| (answer, spotcheck_ids(base, n, SPOTCHECK_K)));
        let full_runs = surrogate.as_ref().map_or(n, |(_, checked)| checked.len());
        self.points.fetch_add(n as u64, Ordering::Relaxed);
        if surrogate.is_some() {
            self.surrogate_hits.fetch_add(n as u64, Ordering::Relaxed);
            self.spot_checks
                .fetch_add(full_runs as u64, Ordering::Relaxed);
        }
        if full_runs == 0 {
            return Vec::new();
        }
        // Warm start settles once and shares the result, every simulated
        // point counting as a reuse; cold start settles once per point.
        let prep = match prep {
            Prep::Settle(settle) if self.warm_start => {
                self.reuses.fetch_add(full_runs as u64, Ordering::Relaxed);
                Prep::Given(settle())
            }
            prep => prep,
        };
        let run = |d: &Draw| match &prep {
            Prep::Given(shared) => full(shared, d),
            Prep::Settle(settle) => full(&settle(), d),
        };
        // The rayon shim parallelizes slices, not ranges.
        let ids: Vec<usize> = (0..n).collect();
        ids.par_iter()
            .map(|&k| {
                let d = source.draw(base, k);
                match &surrogate {
                    None => Surrogate {
                        value: run(&d),
                        checked: None,
                    },
                    Some((answer, checked)) => Surrogate {
                        value: answer(&d),
                        checked: checked.contains(&k).then(|| run(&d)),
                    },
                }
            })
            .collect()
    }

    /// [`RunCtx::execute`] with every simulated point on its own node.
    /// `warmup` settles the shared image under the warmup seed. Each point
    /// then runs `point` on a fresh node built under its own seed (and a
    /// fleet member's varied spec) and fully restored from the image, and
    /// credits that node's final clock to the time ledger.
    fn node_sweep<R, W, F>(
        &self,
        base: u64,
        n: usize,
        source: Source<'_>,
        warmup: W,
        point: F,
        closed_form: Option<&(dyn Fn(&Draw) -> R + Sync)>,
    ) -> Vec<Surrogate<R>>
    where
        R: Send,
        W: Fn(SessionBuilder) -> Node + Send + Sync,
        F: Fn(&mut Node, &Draw) -> R + Send + Sync,
    {
        // The warmup session is deliberately unledgered: warm mode runs it
        // once, cold mode once per point, and `sim_time_s` must not depend
        // on the mode. Each point's node clock starts at the warmup's end,
        // so crediting it accounts for warmup + point time in both modes.
        let settle = || {
            let builder = self.platform().session().seed(warmup_seed(base));
            let node = warmup(builder);
            WarmImage {
                snap: node.snapshot(),
                cfg: node.config().clone(),
            }
        };
        let fork = |img: &WarmImage, d: &Draw| {
            let mut cfg = img.cfg.clone().with_seed(d.seed);
            if let Some(chip) = &d.chip {
                cfg = cfg.with_spec(chip.apply(&img.cfg.spec));
            }
            let mut node = Node::new(cfg);
            node.restore(&img.snap);
            let r = point(&mut node, d);
            self.sim_ns.fetch_add(node.now_ns(), Ordering::Relaxed);
            r
        };
        self.execute(base, n, source, Prep::Settle(&settle), fork, closed_form)
    }
}

/// Where index `k` of a sweep draws its seed: point `k` of a sweep, or
/// member `k` of a fleet manufactured from a variation model.
#[derive(Clone, Copy)]
enum Source<'a> {
    Points,
    Fleet(&'a VariationModel),
}

impl Source<'_> {
    /// Point `k` runs under `mix_seed(base, k)`; fleet member `k` under
    /// `node_seed(base, k)`, as the chip that seed samples from the model.
    fn draw(self, base: u64, k: usize) -> Draw {
        match self {
            Source::Points => Draw {
                k,
                seed: mix_seed(base, k as u64),
                chip: None,
            },
            Source::Fleet(model) => {
                let seed = node_seed(base, k as u64);
                Draw {
                    k,
                    seed,
                    chip: Some(ChipVariation::sample(model, seed)),
                }
            }
        }
    }
}

/// One index of a sweep as the executor hands it to its callbacks.
struct Draw {
    k: usize,
    seed: u64,
    /// The manufactured chip of a fleet member; `None` for a sweep point.
    chip: Option<ChipVariation>,
}

impl Draw {
    /// A fleet member's chip. Only fleet callbacks call this, and every
    /// [`Source::Fleet`] draw carries one.
    fn chip(&self) -> &ChipVariation {
        self.chip
            .as_ref()
            .expect("every fleet draw carries its chip")
    }
}

/// What the simulated points of one sweep share.
enum Prep<'a, S> {
    /// A value that needs no settle: nothing is rebuilt or counted as a
    /// reuse.
    Given(S),
    /// A settle built once under warm start, once per point under cold.
    Settle(&'a (dyn Fn() -> S + Sync)),
}

/// The converged pre-point state one warm sweep forks from: the warmup
/// node's snapshot plus the config to rebuild an identical node around it.
struct WarmImage {
    snap: NodeSnapshot,
    cfg: NodeConfig,
}

/// The answers of a sweep without a closed form: each point's full run.
fn simulated<R>(answers: Vec<Surrogate<R>>) -> Vec<R> {
    answers.into_iter().map(|a| a.value).collect()
}

/// Worker threads in the pool the sweep executor fans points across.
pub fn pool_threads() -> usize {
    rayon::current_num_threads()
}

/// One fidelity check: a paper claim the result either reproduces or not.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

/// What one experiment hands back to the runner.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub id: &'static str,
    /// Where in the paper this comes from ("Table III", "Section VI-B", …).
    pub anchor: &'static str,
    pub title: &'static str,
    /// The seed the experiment ran with (0 for deterministic experiments).
    pub seed: u64,
    /// The paper-style text rendering (the module's `Display`).
    pub text: String,
    /// Key scalar metrics, in declaration order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Fidelity checks against the paper's claims.
    pub checks: Vec<Check>,
    /// The full result structure, serialized.
    pub artifact: Value,
}

impl ExperimentResult {
    /// Capture an experiment's result structure: text via `Display`,
    /// artifact via `Serialize`.
    pub fn capture<T: Serialize + std::fmt::Display>(
        exp: &dyn SurveyExperiment,
        ctx: &RunCtx,
        result: &T,
    ) -> ExperimentResult {
        ExperimentResult {
            id: exp.id(),
            anchor: exp.anchor(),
            title: exp.title(),
            seed: if exp.seeded() { ctx.seed } else { 0 },
            text: result.to_string(),
            metrics: Vec::new(),
            checks: Vec::new(),
            artifact: result.to_value(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) -> &mut Self {
        self.metrics.push((name, value));
        self
    }

    pub fn check(&mut self, name: &str, passed: bool, detail: String) -> &mut Self {
        self.checks.push(Check {
            name: name.to_string(),
            passed,
            detail,
        });
        self
    }

    pub fn checks_passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// This experiment's section of the text report: a banner naming it,
    /// its paper-style text, and one line per check. Deterministic.
    pub fn render(&self) -> String {
        let mut out = format!(
            "================================================================\n\
             {} — {} [{}]\n\
             ================================================================\n\
             {}\n",
            self.anchor, self.title, self.id, self.text
        );
        for c in &self.checks {
            out.push_str(&format!(
                "  [{}] {}: {}\n",
                crate::report::pass_fail(c.passed),
                c.name,
                c.detail
            ));
        }
        out.push('\n');
        out
    }
}

/// A registry entry: one paper table/figure reproduction.
pub trait SurveyExperiment: Send + Sync {
    /// Stable identifier (the module name).
    fn id(&self) -> &'static str;
    /// Paper anchor ("Table III", "Figure 7", "Section VI-B", …).
    fn anchor(&self) -> &'static str;
    /// One-line description.
    fn title(&self) -> &'static str;
    /// Whether the experiment consumes the per-experiment seed. Purely
    /// analytic experiments return false and always produce identical
    /// output.
    fn seeded(&self) -> bool {
        true
    }
    /// Whether this experiment can run under `--fidelity analytic`: its
    /// sweeps answer from the closed-form surrogate with simulator spot
    /// checks. Experiments opt in; the runner rejects an analytic survey
    /// that selects any experiment still at the default.
    fn supports_surrogate(&self) -> bool {
        false
    }
    fn run(&self, ctx: &RunCtx) -> ExperimentResult;
}

/// Derive the seed for one experiment from the survey root seed: FNV-1a
/// over the id, folded into the root and whitened by [`mix_seed`]. Depends
/// on `(survey_seed, id)` only — never on scheduling order or thread count.
pub fn experiment_seed(survey_seed: u64, id: &str) -> u64 {
    mix_seed(survey_seed ^ fnv1a(id), 0)
}

/// 64-bit FNV-1a hash of an experiment id.
fn fnv1a(id: &str) -> u64 {
    id.bytes().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// The experiments a platform runs. Haswell: the paper's 16 experiments
/// in paper order, then the fleet-scale follow-ups (Schuchart et al.) and
/// the analytic tier's two. Skylake-SP: the follow-up survey's
/// reproductions (1905.12468) plus the two analytic experiments.
pub fn registry_for(platform: PlatformKind) -> Vec<Box<dyn SurveyExperiment>> {
    match platform {
        PlatformKind::Haswell => vec![
            Box::new(experiments::fig1::Experiment),
            Box::new(experiments::section2c_epb::Experiment),
            Box::new(experiments::table1::Experiment),
            Box::new(experiments::table2::Experiment),
            Box::new(experiments::table3::Experiment),
            Box::new(experiments::fig2::Experiment),
            Box::new(experiments::table4::Experiment),
            Box::new(experiments::table5::Experiment),
            Box::new(experiments::fig3::Experiment),
            Box::new(experiments::fig4::Experiment),
            Box::new(experiments::fig56::Experiment),
            Box::new(experiments::section6b_governor::Experiment),
            Box::new(experiments::fig7::Experiment),
            Box::new(experiments::fig8::Experiment),
            Box::new(experiments::section8::Experiment),
            Box::new(experiments::sku_extrapolation::Experiment),
            Box::new(experiments::fleet_cap_spread::Experiment),
            Box::new(experiments::fleet_straggler::Experiment),
            Box::new(experiments::analytic_accuracy::Experiment),
            Box::new(experiments::fleet_analytic_scale::Experiment),
        ],
        PlatformKind::SkylakeSp => vec![
            Box::new(experiments::skx_license_table::Experiment),
            Box::new(experiments::skx_ufs_mesh::Experiment),
            Box::new(experiments::analytic_accuracy::Experiment),
            Box::new(experiments::fleet_analytic_scale::Experiment),
        ],
    }
}

/// Runner configuration.
#[derive(Debug, Clone)]
pub struct SurveyConfig {
    pub fidelity: Fidelity,
    /// Root seed; per-experiment seeds derive from it and the id.
    pub seed: u64,
    /// Worker threads (clamped to 1..=#experiments).
    pub jobs: usize,
    /// Run only these ids (registry order is kept); `None` = all.
    pub only: Option<Vec<String>>,
    /// Time-advance engine for every experiment session. Both modes are
    /// bit-identical; `Fixed` is the escape hatch for validating `Event`.
    pub engine: EngineMode,
    /// Warm-start snapshot forking for sweep settle phases: `true` settles
    /// once per sweep, `false` once per point. Both settings are
    /// bit-identical; `false` is the reference the warm path is validated
    /// against.
    pub warm_start: bool,
    /// Nodes per fleet experiment (`--fleet-size`); `None` uses the
    /// fidelity preset.
    pub fleet_size: Option<usize>,
    /// Which surveyed machine to model; selects the experiment registry.
    pub platform: PlatformKind,
}

impl Default for SurveyConfig {
    fn default() -> Self {
        SurveyConfig {
            fidelity: Fidelity::Quick,
            seed: 42,
            jobs: 1,
            only: None,
            engine: EngineMode::default(),
            warm_start: true,
            fleet_size: None,
            platform: PlatformKind::Haswell,
        }
    }
}

/// A completed survey.
#[derive(Debug, Clone)]
pub struct SurveyRun {
    pub fidelity: Fidelity,
    pub seed: u64,
    pub engine: EngineMode,
    pub platform: PlatformKind,
    /// Results in registry order, independent of scheduling.
    pub results: Vec<ExperimentResult>,
    /// Wall-clock seconds per experiment, parallel to `results`. Kept out
    /// of the JSON document so it stays byte-identical across runs.
    pub timings_s: Vec<f64>,
    /// Simulated seconds per experiment, parallel to `results`. Fully
    /// deterministic (a function of fidelity only), so it does go into
    /// the JSON document.
    pub sim_times_s: Vec<f64>,
    /// Sweep points each experiment fanned through the pool, parallel to
    /// `results`. Deterministic, but a harness detail rather than a paper
    /// result — scoreboard only, never in the JSON document.
    pub sweep_points: Vec<u64>,
    /// Sweep points each experiment served from a shared warm-start
    /// snapshot, parallel to `results`. Zero under `--warm-start off`.
    /// Like `sweep_points`: scoreboard only, never in the JSON document.
    pub snapshot_reuses: Vec<u64>,
    /// Sweep points each experiment answered from the closed-form
    /// surrogate, parallel to `results`. Zero outside `--fidelity
    /// analytic`. Scoreboard only, never in the JSON document.
    pub surrogate_hits: Vec<u64>,
    /// Surrogate points each experiment re-ran through the full simulator
    /// as spot checks, parallel to `results`. Scoreboard only.
    pub spot_checks: Vec<u64>,
}

/// Run the survey: fan the selected experiments across `jobs` worker
/// threads. Returns results in registry order. Fails on unknown `only`
/// ids.
pub fn run_survey(cfg: &SurveyConfig) -> Result<SurveyRun, String> {
    let all = registry_for(cfg.platform);
    let selected: Vec<Box<dyn SurveyExperiment>> = match &cfg.only {
        None => all,
        Some(ids) => {
            let known: Vec<&str> = all.iter().map(|e| e.id()).collect();
            if let Some(bad) = ids.iter().find(|id| !known.contains(&id.as_str())) {
                return Err(format!(
                    "unknown experiment id `{bad}` (known: {})",
                    known.join(", ")
                ));
            }
            all.into_iter()
                .filter(|e| ids.iter().any(|id| id == e.id()))
                .collect()
        }
    };
    if selected.is_empty() {
        return Err("no experiments selected".to_string());
    }
    if cfg.fidelity.is_analytic() {
        let refusing: Vec<&str> = selected
            .iter()
            .filter(|e| !e.supports_surrogate())
            .map(|e| e.id())
            .collect();
        if !refusing.is_empty() {
            let capable: Vec<&str> = registry_for(cfg.platform)
                .iter()
                .filter(|e| e.supports_surrogate())
                .map(|e| e.id())
                .collect();
            return Err(format!(
                "--fidelity analytic: no surrogate support in {}; select \
                 surrogate-capable experiments with --only (on this \
                 platform: {})",
                refusing.join(", "),
                capable.join(", ")
            ));
        }
    }

    /// One worker's slot: (result, wall seconds, simulated seconds, points,
    /// snapshot reuses, surrogate hits, spot checks).
    type Slot = (ExperimentResult, f64, f64, u64, u64, u64, u64);

    let jobs = cfg.jobs.clamp(1, selected.len());
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new((0..selected.len()).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= selected.len() {
                    break;
                }
                let exp = &selected[i];
                let ctx = RunCtx::new(
                    cfg.fidelity,
                    experiment_seed(cfg.seed, exp.id()),
                    cfg.engine,
                )
                .with_warm_start(cfg.warm_start)
                .with_fleet_size(cfg.fleet_size)
                .with_platform(cfg.platform);
                #[expect(
                    clippy::disallowed_methods,
                    reason = "wall time feeds the stderr scoreboard only, never survey.json"
                )]
                let t0 = Instant::now();
                let result = exp.run(&ctx);
                let wall_s = t0.elapsed().as_secs_f64();
                slots.lock().unwrap()[i] = Some((
                    result,
                    wall_s,
                    ctx.sim_time_s(),
                    ctx.sweep_points(),
                    ctx.snapshot_reuses(),
                    ctx.surrogate_hits(),
                    ctx.spot_checks(),
                ));
            });
        }
    });

    let mut results = Vec::with_capacity(selected.len());
    let mut timings_s = Vec::with_capacity(selected.len());
    let mut sim_times_s = Vec::with_capacity(selected.len());
    let mut sweep_points = Vec::with_capacity(selected.len());
    let mut snapshot_reuses = Vec::with_capacity(selected.len());
    let mut surrogate_hits = Vec::with_capacity(selected.len());
    let mut spot_checks = Vec::with_capacity(selected.len());
    for slot in slots.into_inner().unwrap() {
        let (r, wall, sim, pts, reuses, sur, chk) = slot.expect("worker left a slot unfilled");
        results.push(r);
        timings_s.push(wall);
        sim_times_s.push(sim);
        sweep_points.push(pts);
        snapshot_reuses.push(reuses);
        surrogate_hits.push(sur);
        spot_checks.push(chk);
    }
    Ok(SurveyRun {
        fidelity: cfg.fidelity,
        seed: cfg.seed,
        engine: cfg.engine,
        platform: cfg.platform,
        results,
        timings_s,
        sim_times_s,
        sweep_points,
        snapshot_reuses,
        surrogate_hits,
        spot_checks,
    })
}

impl SurveyRun {
    /// The deterministic JSON document (the content of `survey.json`).
    /// Contains no wall-clock data and no engine tag: identical
    /// `(--fidelity, --seed, --only)` → identical bytes, for any `--jobs`
    /// value and either `--engine` mode. Simulated time per experiment IS
    /// included — it is a pure function of the fidelity.
    pub fn to_json_value(&self) -> Value {
        let experiments: Vec<Value> = self
            .results
            .iter()
            .zip(&self.sim_times_s)
            .map(|(r, sim_s)| {
                Value::Object(vec![
                    ("id".to_string(), Value::Str(r.id.to_string())),
                    ("anchor".to_string(), Value::Str(r.anchor.to_string())),
                    ("title".to_string(), Value::Str(r.title.to_string())),
                    ("seed".to_string(), Value::UInt(r.seed)),
                    ("sim_time_s".to_string(), Value::Float(*sim_s)),
                    (
                        "metrics".to_string(),
                        Value::Object(
                            r.metrics
                                .iter()
                                .map(|(k, v)| (k.to_string(), Value::Float(*v)))
                                .collect(),
                        ),
                    ),
                    ("checks".to_string(), r.checks.to_value()),
                    ("artifact".to_string(), r.artifact.clone()),
                ])
            })
            .collect();
        let (passed, total) = self.tally();
        Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("haswell-survey/v1".to_string()),
            ),
            (
                "paper".to_string(),
                Value::Str(
                    match self.platform {
                        PlatformKind::Haswell => {
                            "An Energy Efficiency Feature Survey of the Intel Haswell Processor"
                        }
                        PlatformKind::SkylakeSp => {
                            "An Energy Efficiency Feature Survey of the \
                             Intel Skylake SP Processor"
                        }
                    }
                    .to_string(),
                ),
            ),
            ("seed".to_string(), Value::UInt(self.seed)),
            ("fidelity".to_string(), self.fidelity.to_value()),
            (
                "summary".to_string(),
                Value::Object(vec![
                    (
                        "experiments".to_string(),
                        Value::UInt(self.results.len() as u64),
                    ),
                    ("checks_total".to_string(), Value::UInt(total as u64)),
                    ("checks_passed".to_string(), Value::UInt(passed as u64)),
                ]),
            ),
            ("experiments".to_string(), Value::Array(experiments)),
        ])
    }

    /// Pretty-printed deterministic JSON.
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(&self.to_json_value())
            .expect("survey JSON serialization cannot fail");
        s.push('\n');
        s
    }

    /// Per-experiment check scoreboard as a paper-style [`Table`], with
    /// wall-clock and simulated time plus the sweep points each experiment
    /// fanned through the `pool_threads()`-wide worker pool. Wall time and
    /// pool width live here (and on stderr) only — never in the JSON
    /// document.
    pub fn scoreboard(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Survey scoreboard: paper fidelity checks per experiment \
                 (sweep pool: {} threads)",
                pool_threads()
            ),
            vec![
                "experiment",
                "anchor",
                "checks",
                "status",
                "pts",
                "reuse",
                "sur",
                "chk",
                "wall s",
                "sim s",
            ],
        );
        for ((((((r, wall_s), sim_s), pts), reuse), sur), chk) in self
            .results
            .iter()
            .zip(&self.timings_s)
            .zip(&self.sim_times_s)
            .zip(&self.sweep_points)
            .zip(&self.snapshot_reuses)
            .zip(&self.surrogate_hits)
            .zip(&self.spot_checks)
        {
            let passed = r.checks.iter().filter(|c| c.passed).count();
            t.row(vec![
                r.id.to_string(),
                r.anchor.to_string(),
                format!("{passed}/{}", r.checks.len()),
                crate::report::pass_fail(r.checks_passed()).to_string(),
                pts.to_string(),
                reuse.to_string(),
                sur.to_string(),
                chk.to_string(),
                format!("{wall_s:.2}"),
                format!("{sim_s:.2}"),
            ]);
        }
        t
    }

    /// The human-readable survey report: each experiment's
    /// [`ExperimentResult::render`], the check scoreboard, and the
    /// [`summary`](SurveyRun::summary) line.
    pub fn text_report(&self) -> String {
        let mut out: String = self.results.iter().map(ExperimentResult::render).collect();
        out.push_str(&format!("{}\n", self.scoreboard()));
        out.push_str(&self.summary());
        out
    }

    /// Checks passed and checks run, over every experiment.
    fn tally(&self) -> (usize, usize) {
        let total = self.results.iter().map(|r| r.checks.len()).sum();
        let passed = self
            .results
            .iter()
            .map(|r| r.checks.iter().filter(|c| c.passed).count())
            .sum();
        (passed, total)
    }

    /// One line: experiments run and checks passed.
    pub fn summary(&self) -> String {
        let (passed, total) = self.tally();
        format!(
            "survey: {} experiments, {passed}/{total} checks passed\n",
            self.results.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_hold_22_unique_ids_across_platforms() {
        let mut ids: Vec<&str> = Vec::new();
        for kind in PlatformKind::ALL {
            ids.extend(registry_for(kind).iter().map(|e| e.id()));
        }
        assert_eq!(
            ids.len(),
            24,
            "20 Haswell + 4 Skylake-SP (the two analytic experiments \
             register on both platforms)"
        );
        assert_eq!(
            registry_for(PlatformKind::Haswell).len(),
            20,
            "the paper set plus extensions"
        );
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 22, "duplicate ids: {ids:?}");
    }

    /// The collision the node-id sub-base exists to prevent: in a single
    /// shared namespace, node id `i` and point index `k` seed identically
    /// whenever `i == k` — two different simulations, one RNG stream.
    #[test]
    fn node_stream_fix_closes_the_shared_namespace_collision() {
        let base = experiment_seed(42, "fleet_cap_spread");
        for i in 0..64u64 {
            // The trap (old scheme): guaranteed collision at i == k.
            assert_eq!(mix_seed(base, i), mix_seed(base, i));
            // The fix: the node stream never meets the point stream …
            for k in 0..64u64 {
                assert_ne!(
                    node_seed(base, i),
                    mix_seed(base, k),
                    "node {i} collides with point {k}"
                );
            }
            // … nor the warmup stream.
            assert_ne!(node_seed(base, i), warmup_seed(base));
        }
    }

    /// All three streams of one sweep base are pairwise distinct over dense
    /// low index ranges, for several bases.
    #[test]
    fn node_stream_fix_keeps_streams_pairwise_distinct() {
        for root in [0u64, 1, 42, 0xDEAD_BEEF] {
            let base = experiment_seed(root, "fleet_straggler");
            let mut seen = std::collections::BTreeSet::new();
            assert!(seen.insert(warmup_seed(base)));
            for idx in 0..512u64 {
                assert!(seen.insert(mix_seed(base, idx)), "point {idx} collided");
                assert!(seen.insert(node_seed(base, idx)), "node {idx} collided");
            }
        }
    }

    #[test]
    fn experiment_seeds_depend_on_root_and_id() {
        // Pinned: a change to the formula moves every seeded experiment's
        // bytes in `survey.json`.
        assert_eq!(experiment_seed(42, "fig3"), 0x37FC_152D_FFDE_DBB1);
        assert_eq!(experiment_seed(1, "fig3"), experiment_seed(1, "fig3"));
        assert_ne!(experiment_seed(1, "fig3"), experiment_seed(2, "fig3"));
        assert_ne!(experiment_seed(1, "fig3"), experiment_seed(1, "fig56"));
    }

    /// The warmup every probe settles: 2 ms of an idle node.
    fn settle(builder: SessionBuilder) -> Node {
        let mut session = builder.build();
        session.advance_s(0.002);
        session
    }

    /// Package 0's true power after 1 ms more, as bits.
    fn measure(node: &mut Node) -> u64 {
        node.advance_s(0.001);
        node.true_pkg_power_w(0).to_bits()
    }

    fn point(node: &mut Node, p: &u64, seed: u64) -> (u64, u64, u64) {
        (*p, seed, measure(node))
    }

    fn point_closed_form(p: &u64, seed: u64) -> (u64, u64, u64) {
        (*p, seed, 0)
    }

    fn member(
        node: &mut Node,
        var: &ChipVariation,
        id: usize,
        seed: u64,
    ) -> (usize, u64, u64, u64) {
        (id, seed, var.leak_scale.to_bits(), measure(node))
    }

    fn member_closed_form(var: &ChipVariation, id: usize, seed: u64) -> (usize, u64, u64, u64) {
        (id, seed, var.leak_scale.to_bits(), 0)
    }

    /// One entry point on a fresh context: its results, its simulated time
    /// (as bits), the scoreboard counters `[pts, reuse, sur, chk]` and how
    /// many times its warmup (or shared prep) ran.
    fn probe_entry(entry: &str, warm: bool, n: usize) -> (String, u64, [u64; 4], usize) {
        let ctx = RunCtx::new(Fidelity::Quick, 7, EngineMode::default()).with_warm_start(warm);
        let warmups = AtomicUsize::new(0);
        let warmup = |builder: SessionBuilder| {
            warmups.fetch_add(1, Ordering::Relaxed);
            settle(builder)
        };
        let points: Vec<u64> = (10..10 + n as u64).collect();
        let model = VariationModel::paper_fleet();
        let out = match entry {
            "sweep" => format!("{:?}", ctx.sweep(&points, |p, seed| (*p, seed))),
            "sweep_warm" => format!("{:?}", ctx.sweep_warm(&points, warmup, point)),
            "sweep_warm_salted" => {
                format!("{:?}", ctx.sweep_warm_salted(5, &points, warmup, point))
            }
            "sweep_warm_shared" => format!(
                "{:?}",
                ctx.sweep_warm_shared(
                    &points,
                    || {
                        warmups.fetch_add(1, Ordering::Relaxed);
                        100u64
                    },
                    |shared, p, seed| (shared + p, seed)
                )
            ),
            "sweep_surrogate" => format!(
                "{:?}",
                ctx.sweep_surrogate(&points, warmup, point, point_closed_form)
            ),
            "sweep_fleet" => format!("{:?}", ctx.sweep_fleet(n, &model, warmup, member)),
            "sweep_fleet_surrogate" => format!(
                "{:?}",
                ctx.sweep_fleet_surrogate(n, &model, warmup, member, member_closed_form)
            ),
            other => panic!("unknown entry point {other}"),
        };
        let counters = [
            ctx.sweep_points(),
            ctx.snapshot_reuses(),
            ctx.surrogate_hits(),
            ctx.spot_checks(),
        ];
        (
            out,
            ctx.sim_time_s().to_bits(),
            counters,
            warmups.into_inner(),
        )
    }

    /// Every sweep entry point, warm and cold, over three points (or fleet
    /// members) and over none: results and simulated time agree across the
    /// two modes, the scoreboard counters take exact values, and the warmup
    /// runs once warm, once per simulated point cold, and never for an
    /// empty sweep.
    #[test]
    fn entry_points_pin_counters_and_agree_warm_and_cold() {
        // (entry, [pts, reuse, sur, chk] warm, the same cold, settles a
        // cold run makes, whether its points run on a node).
        let table = [
            ("sweep", [3, 0, 0, 0], [3, 0, 0, 0], 0, false),
            ("sweep_warm", [3, 3, 0, 0], [3, 0, 0, 0], 3, true),
            ("sweep_warm_salted", [3, 3, 0, 0], [3, 0, 0, 0], 3, true),
            ("sweep_warm_shared", [3, 3, 0, 0], [3, 0, 0, 0], 3, false),
            ("sweep_surrogate", [3, 2, 3, 2], [3, 0, 3, 2], 2, true),
            ("sweep_fleet", [3, 3, 0, 0], [3, 0, 0, 0], 3, true),
            ("sweep_fleet_surrogate", [3, 2, 3, 2], [3, 0, 3, 2], 2, true),
        ];
        for (entry, warm_counters, cold_counters, settles, on_node) in table {
            let warm = probe_entry(entry, true, 3);
            let cold = probe_entry(entry, false, 3);
            assert_eq!(warm.0, cold.0, "{entry}: results differ warm vs cold");
            assert_eq!(warm.1, cold.1, "{entry}: sim time differs warm vs cold");
            assert_eq!(f64::from_bits(warm.1) > 0.0, on_node, "{entry}: sim time");
            assert_eq!(warm.2, warm_counters, "{entry}: warm counters");
            assert_eq!(cold.2, cold_counters, "{entry}: cold counters");
            assert_eq!(warm.3, usize::from(settles > 0), "{entry}: warm warmups");
            assert_eq!(cold.3, settles, "{entry}: cold warmups");
            for mode in [true, false] {
                let (out, sim_bits, counters, warmups) = probe_entry(entry, mode, 0);
                assert_eq!(out, "[]", "{entry}: empty sweep results");
                assert_eq!(sim_bits, 0f64.to_bits(), "{entry}: empty sweep sim time");
                assert_eq!(counters, [0; 4], "{entry}: empty sweep counters");
                assert_eq!(warmups, 0, "{entry}: empty sweep ran its warmup");
            }
        }
    }

    /// A spot check runs its index on the full simulator under the index's
    /// own seed and the shared warm image, so its answer is bit-identical
    /// to that index of the full sweep. Five indices make the two-index
    /// sample a strict subset.
    #[test]
    fn spot_checks_equal_the_full_sweep_at_their_index() {
        fn assert_checks_match<R: PartialEq + std::fmt::Debug>(
            full: &[R],
            answers: &[Surrogate<R>],
        ) {
            let sample = spotcheck_ids(7, full.len(), SPOTCHECK_K);
            assert_eq!(sample.len(), SPOTCHECK_K);
            assert_eq!(answers.len(), full.len());
            for (k, (full, answer)) in full.iter().zip(answers).enumerate() {
                let expected = sample.contains(&k).then_some(full);
                assert_eq!(answer.checked.as_ref(), expected, "index {k}");
            }
        }
        let ctx = || RunCtx::new(Fidelity::Quick, 7, EngineMode::default());
        let points: Vec<u64> = (10..15).collect();
        assert_checks_match(
            &ctx().sweep_warm(&points, settle, point),
            &ctx().sweep_surrogate(&points, settle, point, point_closed_form),
        );
        let model = VariationModel::paper_fleet();
        assert_checks_match(
            &ctx().sweep_fleet(points.len(), &model, settle, member),
            &ctx().sweep_fleet_surrogate(points.len(), &model, settle, member, member_closed_form),
        );
    }

    #[test]
    fn unknown_only_id_is_rejected() {
        let cfg = SurveyConfig {
            only: Some(vec!["tableX".to_string()]),
            ..SurveyConfig::default()
        };
        let err = run_survey(&cfg).unwrap_err();
        assert!(err.contains("tableX"), "{err}");
    }
}
