//! # hsw-tools — re-implementations of the paper's measurement tools
//!
//! Each tool interacts with the simulated node through the same interfaces
//! the real tools use on real hardware (MSR reads/writes, cycle counters,
//! the AC power meter):
//!
//! * [`perfctr`]: LIKWID-style counter sampling — TSC/APERF/MPERF, fixed
//!   counters, the U-box uncore clock counter (`UNCORE_CLOCK:UBOXFIX`,
//!   paper Section V-A footnote 3) and RAPL energy deltas.
//! * [`groups`]: LIKWID's named event groups (ENERGY, CLOCK, UNCORE_CLOCK,
//!   CSTATES) measured over a window and rendered as a metric table.
//! * [`ftalat`]: the modified FTaLaT of paper Section VI-A — frequency
//!   verification via hardware cycle counters (not `scaling_cur_freq`),
//!   1000-sample campaigns, controlled delay after the previous transition.
//! * [`cstate_lat`]: the waker/wakee idle-latency tool of \[27\] — local,
//!   remote-active and remote-idle scenarios across the frequency range.
//! * [`stress`]: the Table V harness — run a stress test, record the meter,
//!   extract the 1-minute maximum-average window and the measured core
//!   frequency.

pub mod cstate_lat;
pub mod ftalat;
pub mod groups;
pub mod perfctr;
pub mod stress;

pub use cstate_lat::{measure_wake_latency_us, CStateLatencyPoint};
pub use ftalat::{DelayRegime, FtaLat, LatencySample};
pub use groups::{measure_group, EventGroup, GroupReport};
pub use perfctr::{CounterSample, Derived, PerfCtr};
pub use stress::{assign_stress_load, measure_stress, run_stress, StressResult};
