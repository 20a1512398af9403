//! Ground-truth telemetry recording: periodic snapshots of the node state
//! into a time-series trace, exportable as CSV — the simulator-side
//! equivalent of the paper's measurement logs (and the raw material for
//! replotting its figures).

use crate::node::Node;

/// One telemetry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub t_s: f64,
    /// Per-socket package power (W).
    pub pkg_w: Vec<f64>,
    /// Per-socket DRAM power (W).
    pub dram_w: Vec<f64>,
    /// Per-socket uncore frequency (GHz; 0 when halted).
    pub uncore_ghz: Vec<f64>,
    /// Core-0 frequency per socket (GHz) — the paper samples one core per
    /// processor.
    pub core0_ghz: Vec<f64>,
    /// Per-socket package c-state name.
    pub pkg_cstate: Vec<&'static str>,
    /// Node AC power (W).
    pub ac_w: f64,
}

/// A recorded trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    pub snapshots: Vec<Snapshot>,
}

impl Trace {
    /// Record a trace: advance the node for `total_s`, snapshotting every
    /// `interval_s`. The full window is always covered: when `total_s` is
    /// not an integer multiple of `interval_s`, a final shorter step takes
    /// the trace exactly to `total_s` (the old `round()` cadence silently
    /// over- or under-ran the window by up to half an interval).
    pub fn record(node: &mut Node, total_s: f64, interval_s: f64) -> Trace {
        assert!(interval_s > 0.0, "record: interval must be positive");
        // Tolerate float ratios like 0.5/0.05 = 10.000000000000002.
        let full = ((total_s / interval_s) + 1e-9).floor().max(0.0) as usize;
        let remainder_s = total_s - full as f64 * interval_s;
        let tail = remainder_s > interval_s * 1e-6;
        let mut snapshots = Vec::with_capacity(full + tail as usize);
        for step in 0..full + tail as usize {
            let dt = if step < full { interval_s } else { remainder_s };
            node.advance_s(dt);
            let sockets = node.sockets();
            snapshots.push(Snapshot {
                t_s: node.now_s(),
                pkg_w: (0..sockets.len())
                    .map(|s| node.true_pkg_power_w(s))
                    .collect(),
                dram_w: (0..sockets.len())
                    .map(|s| node.true_dram_power_w(s))
                    .collect(),
                uncore_ghz: sockets
                    .iter()
                    .map(|s| s.true_uncore_mhz() / 1000.0)
                    .collect(),
                core0_ghz: sockets
                    .iter()
                    .map(|s| s.true_core_mhz(0) / 1000.0)
                    .collect(),
                pkg_cstate: sockets.iter().map(|s| s.package_cstate().name()).collect(),
                ac_w: node.true_ac_power_w(),
            });
        }
        Trace { snapshots }
    }

    /// Render as CSV (one row per snapshot).
    pub fn to_csv(&self) -> String {
        let sockets = self.snapshots.first().map(|s| s.pkg_w.len()).unwrap_or(0);
        let mut out = String::from("t_s");
        for s in 0..sockets {
            out.push_str(&format!(
                ",pkg{s}_w,dram{s}_w,uncore{s}_ghz,core{s}0_ghz,pc{s}"
            ));
        }
        out.push_str(",ac_w\n");
        for snap in &self.snapshots {
            out.push_str(&format!("{:.6}", snap.t_s));
            for s in 0..sockets {
                out.push_str(&format!(
                    ",{:.3},{:.3},{:.3},{:.3},{}",
                    snap.pkg_w[s],
                    snap.dram_w[s],
                    snap.uncore_ghz[s],
                    snap.core0_ghz[s],
                    snap.pkg_cstate[s]
                ));
            }
            out.push_str(&format!(",{:.3}\n", snap.ac_w));
        }
        out
    }

    /// Column statistics helper: (min, mean, max) of a per-snapshot value.
    ///
    /// A NaN in any snapshot yields `(NaN, NaN, NaN)`: `f64::min`/`f64::max`
    /// skip NaN operands, so the old fold silently dropped corrupt samples
    /// from min/max while the mean went NaN — an inconsistent triple that
    /// let bad sensor values pass range assertions.
    pub fn stats(&self, f: impl Fn(&Snapshot) -> f64) -> (f64, f64, f64) {
        if self.snapshots.is_empty() {
            return (f64::NAN, f64::NAN, f64::NAN);
        }
        let vals: Vec<f64> = self.snapshots.iter().map(f).collect();
        if vals.iter().any(|v| v.is_nan()) {
            return (f64::NAN, f64::NAN, f64::NAN);
        }
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        (min, mean, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NodeConfig;
    use crate::engine::EngineMode;
    use hsw_exec::WorkloadProfile;
    use hsw_hwspec::freq::FreqSetting;

    #[test]
    fn trace_records_the_expected_cadence() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &WorkloadProfile::compute(), 4, 1);
        let trace = Trace::record(&mut node, 0.5, 0.05);
        assert_eq!(trace.snapshots.len(), 10);
        let dt = trace.snapshots[1].t_s - trace.snapshots[0].t_s;
        assert!((dt - 0.05).abs() < 1e-6);
    }

    #[test]
    fn trace_covers_non_divisible_windows() {
        // 0.25 s at 0.1 s intervals: two full steps plus a 0.05 s tail.
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &WorkloadProfile::compute(), 4, 1);
        let start = node.now_s();
        let trace = Trace::record(&mut node, 0.25, 0.1);
        assert_eq!(trace.snapshots.len(), 3);
        let times: Vec<f64> = trace.snapshots.iter().map(|s| s.t_s - start).collect();
        for (got, want) in times.iter().zip([0.1, 0.2, 0.25]) {
            assert!((got - want).abs() < 1e-9, "times {times:?}");
        }
        assert!(
            (node.now_s() - start - 0.25).abs() < 1e-9,
            "window not fully covered"
        );
    }

    #[test]
    fn trace_shorter_than_one_interval_still_covers_the_window() {
        let mut node = Node::new(NodeConfig::paper_default());
        let start = node.now_s();
        let trace = Trace::record(&mut node, 0.03, 0.05);
        assert_eq!(trace.snapshots.len(), 1);
        assert!((node.now_s() - start - 0.03).abs() < 1e-9);
    }

    #[test]
    fn stats_propagates_nan_instead_of_dropping_it() {
        let mut node = Node::new(NodeConfig::paper_default());
        let mut trace = Trace::record(&mut node, 0.2, 0.05);
        let (min, mean, max) = trace.stats(|s| s.ac_w);
        assert!(min.is_finite() && mean.is_finite() && max.is_finite());
        // Corrupt one sample: every statistic must go NaN, not just mean.
        trace.snapshots[1].ac_w = f64::NAN;
        let (min, mean, max) = trace.stats(|s| s.ac_w);
        assert!(min.is_nan() && mean.is_nan() && max.is_nan());
    }

    #[test]
    fn csv_has_one_row_per_snapshot_and_stable_columns() {
        let mut node = Node::new(NodeConfig::paper_default());
        node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
        let trace = Trace::record(&mut node, 0.2, 0.05);
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + trace.snapshots.len());
        let cols = lines[0].split(',').count();
        for l in &lines[1..] {
            assert_eq!(l.split(',').count(), cols, "ragged row: {l}");
        }
        assert!(lines[0].starts_with("t_s,pkg0_w"));
    }

    #[test]
    fn trace_cadence_is_exact_under_the_event_engine() {
        // Coalesced advances must not skid snapshot instants: the event
        // engine may skip micro-step bodies inside one `advance_s`, but
        // every `Trace::record` boundary is still an exact stop.
        let mut node = NodeConfig::paper_default()
            .with_engine(EngineMode::Event)
            .session()
            .seed(21)
            .build()
            .into_node();
        node.idle_all(); // idle node: maximal coalescing opportunity
        let start = node.now_s();
        let trace = Trace::record(&mut node, 0.25, 0.1);
        assert_eq!(trace.snapshots.len(), 3);
        let times: Vec<f64> = trace.snapshots.iter().map(|s| s.t_s - start).collect();
        for (got, want) in times.iter().zip([0.1, 0.2, 0.25]) {
            assert!((got - want).abs() < 1e-9, "times {times:?}");
        }
    }

    #[test]
    fn traces_agree_bit_for_bit_across_engines() {
        let run = |engine| {
            let mut node = NodeConfig::paper_default()
                .with_engine(engine)
                .session()
                .seed(22)
                .build()
                .into_node();
            node.run_on_socket(0, &WorkloadProfile::busy_wait(), 1, 1);
            node.set_setting_all(FreqSetting::from_mhz(2000));
            node.advance_s(0.05);
            Trace::record(&mut node, 0.35, 0.1)
        };
        let fixed = run(EngineMode::Fixed);
        let event = run(EngineMode::Event);
        assert_eq!(fixed, event, "engine choice altered recorded telemetry");
    }

    #[test]
    fn firestarter_trace_shows_tdp_plateau() {
        let mut node = Node::new(NodeConfig::paper_default());
        let fs = WorkloadProfile::firestarter();
        for s in 0..2 {
            node.run_on_socket(s, &fs, 12, 2);
        }
        node.set_setting_all(FreqSetting::Turbo);
        node.advance_s(0.5);
        let trace = Trace::record(&mut node, 1.0, 0.1);
        let (min, mean, max) = trace.stats(|s| s.pkg_w[0]);
        assert!((mean - 120.0).abs() < 3.0, "mean {mean:.1}");
        assert!(max - min < 5.0, "plateau spread {:.1}", max - min);
    }
}
