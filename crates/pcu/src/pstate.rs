//! The p-state transition engine (paper Section VI-A, Figures 3 and 4).
//!
//! On Haswell-EP, software p-state requests (writes to `IA32_PERF_CTL`) are
//! *not* carried out immediately: the PCU latches pending requests at
//! "opportunities" that recur roughly every 500 µs, then performs the FIVR
//! voltage/frequency switch (~21 µs). All cores of a socket transition at
//! the same opportunity; the opportunity clocks of different sockets are
//! independent. Earlier generations (and Haswell-HE) service requests
//! immediately, paying only the switching time.

use hsw_hwspec::clock::{DomainNoise, US};
use hsw_hwspec::{CpuGeneration, PState, PStateTransitionMode};

/// Simulation time in nanoseconds (re-exported engine-wide clock unit).
pub use hsw_hwspec::clock::Ns;

/// A completed transition, for tracing/experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionEvent {
    pub core: usize,
    pub from: PState,
    pub to: PState,
    /// When the request was made (wrmsr time).
    pub requested_at: Ns,
    /// When the new frequency became effective.
    pub completed_at: Ns,
}

impl TransitionEvent {
    /// The latency FTaLaT-style tools observe, in µs.
    pub fn latency_us(&self) -> f64 {
        (self.completed_at - self.requested_at) as f64 / 1000.0
    }
}

/// Capacity of a [`TransitionLog`]: events beyond this many between drains
/// displace the oldest. Far above what any experiment accumulates between
/// drains (fig4 drains every round), so in practice nothing is ever lost —
/// the cap exists so a long undrained settle phase cannot make snapshot
/// and restore cost grow without bound.
pub const TRANSITION_LOG_CAP: usize = 4096;

/// Bounded log of completed p-state transitions: a drop-oldest ring so the
/// memory held — and therefore the cost of snapshotting or restoring the
/// log — stays flat no matter how long a settle phase runs between drains.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransitionLog {
    events: std::collections::VecDeque<TransitionEvent>,
}

impl TransitionLog {
    pub fn new() -> Self {
        TransitionLog::default()
    }

    /// Append one event, displacing the oldest once at capacity.
    pub fn record(&mut self, ev: TransitionEvent) {
        if self.events.len() == TRANSITION_LOG_CAP {
            self.events.pop_front();
        }
        self.events.push_back(ev);
    }

    /// Take the retained events in arrival order.
    pub fn drain(&mut self) -> Vec<TransitionEvent> {
        self.events.drain(..).collect()
    }

    /// Events currently retained (≤ [`TRANSITION_LOG_CAP`]).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &TransitionEvent> {
        self.events.iter()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRequest {
    target: PState,
    requested_at: Ns,
}

/// The p-state machinery of one socket.
#[derive(Debug)]
pub struct PStateEngine {
    mode: PStateTransitionMode,
    per_core_domains: bool,
    switching_time_ns: Ns,
    opportunity_jitter_us: i64,
    /// Current p-state per core.
    current: Vec<PState>,
    /// In-flight switch per core: (target, completes_at, requested_at).
    switching: Vec<Option<(PState, Ns, Ns)>>,
    pending: Vec<Option<PendingRequest>>,
    /// Next opportunity instant (opportunity mode only).
    next_opportunity: Ns,
    /// Completed transitions since the last drain.
    events: Vec<TransitionEvent>,
}

/// Plain-data image of a [`PStateEngine`]'s mutable state. The transition
/// mode and domain granularity are generation constants re-established by
/// the constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct PStateEngineSnapshot {
    current: Vec<PState>,
    switching: Vec<Option<(PState, Ns, Ns)>>,
    pending: Vec<Option<PendingRequest>>,
    next_opportunity: Ns,
    events: Vec<TransitionEvent>,
}

impl PStateEngine {
    /// `phase_ns` staggers the socket's opportunity clock — sockets run
    /// independent PCUs (paper Section VI-A).
    pub fn new(generation: CpuGeneration, cores: usize, initial: PState, phase_ns: Ns) -> Self {
        let policy = generation.policy().pstate();
        let mode = policy.transition;
        // Without an opportunity window there is no clock to walk: the
        // instant never comes due.
        let next_opportunity = match mode {
            PStateTransitionMode::OpportunityWindow { period_us } => {
                phase_ns % (period_us as Ns * US)
            }
            PStateTransitionMode::Immediate | PStateTransitionMode::HwpAutonomous => Ns::MAX,
        };
        PStateEngine {
            mode,
            per_core_domains: policy.per_core_domains,
            switching_time_ns: policy.switching_time_us as Ns * US,
            opportunity_jitter_us: policy.opportunity_jitter_us as i64,
            current: vec![initial; cores],
            switching: vec![None; cores],
            pending: vec![None; cores],
            next_opportunity,
            events: Vec::new(),
        }
    }

    /// Software writes `IA32_PERF_CTL` on `core` at time `now`.
    ///
    /// In a chip-wide domain (pre-Haswell-EP) the request applies to all
    /// cores; with PCPS only to the requesting core.
    pub fn request(&mut self, core: usize, target: PState, now: Ns) {
        let cores: Vec<usize> = if self.per_core_domains {
            vec![core]
        } else {
            (0..self.current.len()).collect()
        };
        for c in cores {
            if self.current[c] == target && self.pending[c].is_none() && self.switching[c].is_none()
            {
                continue; // no-op request
            }
            self.pending[c] = Some(PendingRequest {
                target,
                requested_at: now,
            });
            // HWP's autonomous engine also grants at request time: the
            // package control loop has no 500 µs latch window, only the
            // (much shorter) domain switch itself.
            if matches!(
                self.mode,
                PStateTransitionMode::Immediate | PStateTransitionMode::HwpAutonomous
            ) {
                self.begin_switch(c, now);
            }
        }
    }

    fn begin_switch(&mut self, core: usize, now: Ns) {
        if let Some(req) = self.pending[core].take() {
            let completes = now + self.switching_time_ns;
            self.switching[core] = Some((req.target, completes, req.requested_at));
        }
    }

    /// Advance the engine to time `now`. `noise` drives the opportunity-period
    /// jitter, keyed by each opportunity instant so the walk is the same no
    /// matter how sparsely the engine is ticked. Completed transitions are
    /// queued for [`Self::drain_events`].
    pub fn tick(&mut self, now: Ns, noise: &DomainNoise) {
        self.pass_opportunities(now, noise);
        // Complete in-flight switches.
        for c in 0..self.current.len() {
            if let Some((target, completes, requested_at)) = self.switching[c] {
                if completes <= now {
                    let from = self.current[c];
                    self.current[c] = target;
                    self.switching[c] = None;
                    self.events.push(TransitionEvent {
                        core: c,
                        from,
                        to: target,
                        requested_at,
                        completed_at: completes,
                    });
                }
            }
        }
    }

    /// Latch waiting requests at every opportunity up to `now` and walk
    /// the opportunity clock past it. Costs one compare until an
    /// opportunity is due, so the event engine's light step calls it alone:
    /// no request waits during a light step (the latch is on the wake
    /// horizon), so it only keeps the clock where a full tick would have
    /// it. A stale clock would let a request made exactly on a passed
    /// opportunity instant latch there, one period early.
    pub fn pass_opportunities(&mut self, now: Ns, noise: &DomainNoise) {
        if self.next_opportunity > now {
            return;
        }
        let PStateTransitionMode::OpportunityWindow { period_us } = self.mode else {
            return;
        };
        while self.next_opportunity <= now {
            let opp = self.next_opportunity;
            for c in 0..self.current.len() {
                // All cores of the socket latch at the same opportunity
                // (the paper's parallel-core measurement). An opportunity
                // can only latch requests that already existed then —
                // relevant when the engine is ticked sparsely.
                let eligible = self.pending[c]
                    .map(|r| r.requested_at <= opp)
                    .unwrap_or(false);
                if eligible && self.switching[c].is_none() {
                    self.begin_switch(c, opp);
                }
            }
            let jitter_us = self.opportunity_jitter_us;
            let jitter = noise.range_i64(opp, 0, -jitter_us, jitter_us);
            let period = (period_us as i64 + jitter).max(1) as Ns * US;
            self.next_opportunity = opp + period;
        }
    }

    /// Current (granted) p-state of a core.
    pub fn current(&self, core: usize) -> PState {
        self.current[core]
    }

    /// Whether any request or switch is outstanding for the core.
    pub fn in_flight(&self, core: usize) -> bool {
        self.pending[core].is_some() || self.switching[core].is_some()
    }

    /// Take the accumulated transition events.
    pub fn drain_events(&mut self) -> Vec<TransitionEvent> {
        std::mem::take(&mut self.events)
    }

    /// Append the accumulated transition events onto `out` without
    /// allocating an intermediate `Vec` (hot-path variant of
    /// [`Self::drain_events`]).
    pub fn drain_events_into(&mut self, out: &mut Vec<TransitionEvent>) {
        out.append(&mut self.events);
    }

    /// Move the accumulated transition events into a bounded
    /// [`TransitionLog`] (the socket's per-tick path: no intermediate
    /// allocation, and the destination cannot grow without bound).
    pub fn drain_events_into_log(&mut self, log: &mut TransitionLog) {
        for ev in self.events.drain(..) {
            log.record(ev);
        }
    }

    /// Capture the engine's mutable state as plain data.
    pub fn snapshot(&self) -> PStateEngineSnapshot {
        let PStateEngine {
            // Generation and policy constants, rebuilt by PStateEngine::new.
            mode: _,
            per_core_domains: _,
            switching_time_ns: _,
            opportunity_jitter_us: _,
            current,
            switching,
            pending,
            next_opportunity,
            events,
        } = self;
        PStateEngineSnapshot {
            current: current.clone(),
            switching: switching.clone(),
            pending: pending.clone(),
            next_opportunity: *next_opportunity,
            events: events.clone(),
        }
    }

    /// Reinstate a previously captured state. The engine must have the same
    /// core count it was snapshotted with.
    pub fn restore(&mut self, snap: &PStateEngineSnapshot) {
        assert_eq!(
            self.current.len(),
            snap.current.len(),
            "snapshot geometry mismatch"
        );
        self.current.clone_from(&snap.current);
        self.switching.clone_from(&snap.switching);
        self.pending.clone_from(&snap.pending);
        self.next_opportunity = snap.next_opportunity;
        self.events.clone_from(&snap.events);
    }

    /// The next opportunity instant (for tracing Figure 4's timeline).
    pub fn next_opportunity(&self) -> Ns {
        self.next_opportunity
    }

    /// Earliest instant at which the engine changes state on its own:
    /// the soonest in-flight completion, or — with requests waiting — the
    /// next latch opportunity. `None` when neither is outstanding (the
    /// opportunity clock alone changes nothing observable).
    pub fn next_event(&self) -> Option<Ns> {
        let completion = self
            .switching
            .iter()
            .filter_map(|s| s.map(|(_, completes, _)| completes))
            .min();
        let latch = if self.pending.iter().any(Option::is_some) {
            match self.mode {
                PStateTransitionMode::OpportunityWindow { .. } => Some(self.next_opportunity),
                // Switch already began at request time in both modes.
                PStateTransitionMode::Immediate | PStateTransitionMode::HwpAutonomous => None,
            }
        } else {
            None
        };
        match (completion, latch) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsw_hwspec::calib;
    use hsw_hwspec::clock::domain;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const HSW: CpuGeneration = CpuGeneration::HaswellEp;

    fn noise() -> DomainNoise {
        DomainNoise::new(1, domain::PSTATE)
    }

    fn engine(gen: CpuGeneration) -> PStateEngine {
        PStateEngine::new(gen, 12, PState::from_mhz(1200), 0)
    }

    fn run_until(e: &mut PStateEngine, noise: &DomainNoise, from: Ns, to: Ns) {
        let mut t = from;
        while t <= to {
            e.tick(t, noise);
            t += US; // 1 µs steps
        }
    }

    /// Measure one request→completion latency in µs.
    fn measure(e: &mut PStateEngine, noise: &DomainNoise, t_req: Ns) -> f64 {
        let target = if e.current(0) == PState::from_mhz(1200) {
            PState::from_mhz(1300)
        } else {
            PState::from_mhz(1200)
        };
        e.request(0, target, t_req);
        let mut t = t_req;
        loop {
            e.tick(t, noise);
            if let Some(ev) = e.drain_events().into_iter().find(|ev| ev.core == 0) {
                return ev.latency_us();
            }
            t += US;
        }
    }

    #[test]
    fn snapshot_mid_flight_round_trips() {
        // Snapshot with a pending request and an in-flight switch, restore
        // into a fresh engine, then advance both: the keyed jitter makes the
        // continuation depend only on (state, time), so they stay identical.
        let n = noise();
        let mut e = engine(HSW);
        run_until(&mut e, &n, 0, 2_000 * US);
        e.request(0, PState::from_mhz(2500), 2_050 * US);
        e.request(5, PState::from_mhz(1300), 2_100 * US);
        run_until(&mut e, &n, 2_050 * US, 2_400 * US);
        let snap = e.snapshot();

        let mut f = engine(HSW);
        f.restore(&snap);
        run_until(&mut e, &n, 2_401 * US, 4_000 * US);
        run_until(&mut f, &n, 2_401 * US, 4_000 * US);
        assert_eq!(e.snapshot(), f.snapshot());
        assert_eq!(e.drain_events(), f.drain_events());
    }

    #[test]
    fn drain_events_into_matches_drain_events() {
        let n = noise();
        let mut a = engine(HSW);
        let mut b = engine(HSW);
        for e in [&mut a, &mut b] {
            e.request(1, PState::from_mhz(2500), 100 * US);
            run_until(e, &n, 0, 1_500 * US);
        }
        let mut out = vec![];
        a.drain_events_into(&mut out);
        assert_eq!(out, b.drain_events());
        assert!(a.drain_events().is_empty(), "drain_into must clear events");
    }

    #[test]
    fn drain_events_into_log_matches_drain_events() {
        // The bounded log reports the same events in the same order as the
        // unbounded drain for any realistic (below-capacity) volume — the
        // fig4-style event reporting is unchanged by the ring.
        let n = noise();
        let mut a = engine(HSW);
        let mut b = engine(HSW);
        for e in [&mut a, &mut b] {
            e.request(1, PState::from_mhz(2500), 100 * US);
            e.request(7, PState::from_mhz(1300), 250 * US);
            run_until(e, &n, 0, 1_500 * US);
        }
        let mut log = TransitionLog::new();
        a.drain_events_into_log(&mut log);
        let via_log = log.drain();
        assert!(!via_log.is_empty(), "scenario must produce events");
        assert_eq!(via_log, b.drain_events());
        assert!(a.drain_events().is_empty(), "drain_into_log must clear");
    }

    #[test]
    fn transition_log_drops_oldest_beyond_capacity() {
        let mut log = TransitionLog::new();
        let ev = |i: u64| TransitionEvent {
            core: 0,
            from: PState::from_mhz(1200),
            to: PState::from_mhz(1300),
            requested_at: i,
            completed_at: i + 21,
        };
        let total = TRANSITION_LOG_CAP as u64 + 100;
        for i in 0..total {
            log.record(ev(i));
        }
        assert_eq!(log.len(), TRANSITION_LOG_CAP);
        let kept = log.drain();
        assert_eq!(kept.first().unwrap().requested_at, 100);
        assert_eq!(kept.last().unwrap().requested_at, total - 1);
        assert!(log.is_empty());
    }

    #[test]
    fn sparse_and_dense_ticking_agree() {
        // The keyed jitter makes catch-up path-independent: ticking every
        // microsecond and ticking once per millisecond walk the same
        // opportunity-clock sequence.
        let n = noise();
        let mut dense = engine(HSW);
        let mut sparse = engine(HSW);
        run_until(&mut dense, &n, 0, 50_000 * US);
        let mut t = 0;
        while t <= 50_000 * US {
            sparse.tick(t, &n);
            t += 1_000 * US;
        }
        sparse.tick(50_000 * US, &n);
        assert_eq!(dense.next_opportunity(), sparse.next_opportunity());
    }

    #[test]
    fn latency_bounds_match_figure3() {
        // Random request times → latencies between ~21 µs and ~524 µs.
        let mut rng = SmallRng::seed_from_u64(1);
        let n = noise();
        let mut e = engine(HSW);
        run_until(&mut e, &n, 0, 10_000 * US);
        let mut lo = f64::MAX;
        let mut hi: f64 = 0.0;
        let mut t = 10_000 * US;
        for _ in 0..300 {
            t += US * rng.gen_range(1..997); // random offset vs. the 500 µs clock
            let lat = measure(&mut e, &n, t);
            lo = lo.min(lat);
            hi = hi.max(lat);
            t += 2_000 * US;
        }
        assert!((20.0..=40.0).contains(&lo), "min latency {lo}");
        assert!((480.0..=530.0).contains(&hi), "max latency {hi}");
    }

    #[test]
    fn request_right_after_change_takes_a_full_period() {
        // Figure 3: "Requesting a frequency transition instantly after a
        // frequency change has been detected leads to around 500 µs".
        let n = noise();
        let mut e = engine(HSW);
        let mut t = 0;
        for _ in 0..50 {
            // Wait for a change to complete, then request immediately.
            let lat = measure(&mut e, &n, t + US);
            t += (lat as Ns + 2) * US;
            let lat2 = measure(&mut e, &n, t);
            assert!(
                (470.0..=540.0).contains(&lat2),
                "instant re-request latency {lat2}"
            );
            t += (lat2 as Ns + 7) * US;
        }
    }

    #[test]
    fn request_400us_after_change_takes_about_100us() {
        let n = noise();
        let mut e = engine(HSW);
        let mut t = 1_000 * US;
        let mut lats = Vec::new();
        for _ in 0..50 {
            let lat = measure(&mut e, &n, t);
            t += (lat as Ns) * US; // change completed here
            t += 400 * US - calib::PSTATE_SWITCHING_TIME_US as Ns * US;
            let lat2 = measure(&mut e, &n, t);
            lats.push(lat2);
            t += 1_700 * US + (t % 13) * US;
        }
        let median = {
            lats.sort_by(f64::total_cmp);
            lats[lats.len() / 2]
        };
        assert!(
            (70.0..=140.0).contains(&median),
            "400 µs-delay median latency {median}"
        );
    }

    #[test]
    fn same_socket_cores_transition_at_the_same_opportunity() {
        // Paper Section VI-A: "cores on the same processor change their
        // frequency at the same time".
        let n = noise();
        let mut e = engine(HSW);
        run_until(&mut e, &n, 0, 3_000 * US);
        e.drain_events();
        e.request(2, PState::from_mhz(1300), 3_100 * US);
        e.request(9, PState::from_mhz(1400), 3_250 * US);
        run_until(&mut e, &n, 3_100 * US, 5_000 * US);
        let events = e.drain_events();
        let e2 = events.iter().find(|ev| ev.core == 2).expect("core 2");
        let e9 = events.iter().find(|ev| ev.core == 9).expect("core 9");
        assert_eq!(
            e2.completed_at, e9.completed_at,
            "same-socket transitions must coincide"
        );
    }

    #[test]
    fn different_sockets_transition_independently() {
        let n = noise();
        let mut s0 = PStateEngine::new(HSW, 12, PState::from_mhz(1200), 0);
        let mut s1 = PStateEngine::new(HSW, 12, PState::from_mhz(1200), 237 * US);
        run_until(&mut s0, &n, 0, 3_000 * US);
        run_until(&mut s1, &n, 0, 3_000 * US);
        s0.drain_events();
        s1.drain_events();
        s0.request(0, PState::from_mhz(1300), 3_050 * US);
        s1.request(0, PState::from_mhz(1300), 3_050 * US);
        run_until(&mut s0, &n, 3_050 * US, 5_000 * US);
        run_until(&mut s1, &n, 3_050 * US, 5_000 * US);
        let t0 = s0.drain_events()[0].completed_at;
        let t1 = s1.drain_events()[0].completed_at;
        assert_ne!(t0, t1, "socket phase offsets must decouple transitions");
    }

    #[test]
    fn pre_haswell_transitions_are_immediate() {
        // Paper Section VI-A: "on previous processors (including
        // Haswell-HE), p-state transition requests are always carried out
        // immediately (requiring only the switching time)."
        for gen in [CpuGeneration::SandyBridgeEp, CpuGeneration::HaswellHe] {
            let n = noise();
            let mut e = PStateEngine::new(gen, 8, PState::from_mhz(1200), 0);
            for t_req in [123 * US, 7_777 * US, 31_415 * US] {
                let lat = measure(&mut e, &n, t_req);
                assert!(
                    (lat - calib::PSTATE_SWITCHING_TIME_US as f64).abs() < 1.5,
                    "{}: latency {lat}",
                    gen.name()
                );
            }
        }
    }

    #[test]
    fn skylake_hwp_grants_within_the_fast_switching_time() {
        // 1905.12468 Section IV: Skylake-SP frequency transitions complete
        // in tens of microseconds with no 500 µs opportunity window.
        let n = noise();
        let mut e = PStateEngine::new(CpuGeneration::SkylakeSp, 8, PState::from_mhz(1200), 0);
        let skx_us = calib::skx::PSTATE_SWITCHING_TIME_US as f64;
        for t_req in [123 * US, 7_777 * US, 31_415 * US] {
            let lat = measure(&mut e, &n, t_req);
            assert!((lat - skx_us).abs() < 1.5, "latency {lat}");
        }
    }

    #[test]
    fn skylake_pstates_are_per_core() {
        let n = noise();
        let mut e = PStateEngine::new(CpuGeneration::SkylakeSp, 8, PState::from_mhz(1200), 0);
        e.request(3, PState::from_mhz(2100), 0);
        run_until(&mut e, &n, 0, 100 * US);
        assert_eq!(e.current(3), PState::from_mhz(2100));
        for c in (0..8).filter(|c| *c != 3) {
            assert_eq!(e.current(c), PState::from_mhz(1200), "core {c}");
        }
    }

    #[test]
    fn chip_wide_domain_moves_all_cores_before_haswell_ep() {
        let n = noise();
        let mut e = PStateEngine::new(CpuGeneration::SandyBridgeEp, 8, PState::from_mhz(1200), 0);
        e.request(3, PState::from_mhz(2500), 1000 * US);
        run_until(&mut e, &n, 1000 * US, 1100 * US);
        for c in 0..8 {
            assert_eq!(e.current(c), PState::from_mhz(2500), "core {c}");
        }
    }

    #[test]
    fn pcps_moves_only_the_requested_core() {
        let n = noise();
        let mut e = engine(HSW);
        e.request(3, PState::from_mhz(2500), 0);
        run_until(&mut e, &n, 0, 1_000 * US);
        assert_eq!(e.current(3), PState::from_mhz(2500));
        for c in (0..12).filter(|c| *c != 3) {
            assert_eq!(e.current(c), PState::from_mhz(1200), "core {c}");
        }
    }

    #[test]
    fn acpi_claim_of_10us_is_inapplicable_on_haswell_ep() {
        // Paper: "the ACPI tables report an estimated 10 µs ... not
        // supported by the measurements".
        let mut rng = SmallRng::seed_from_u64(9);
        let n = noise();
        let mut e = engine(HSW);
        run_until(&mut e, &n, 0, 2_000 * US);
        let mut all_above = true;
        let mut t = 2_000 * US;
        for _ in 0..40 {
            t += US * rng.gen_range(1..991);
            let lat = measure(&mut e, &n, t);
            all_above &= lat > calib::ACPI_PSTATE_LATENCY_US as f64;
            t += 1_500 * US;
        }
        assert!(all_above, "every measured latency must exceed 10 µs");
    }
}
