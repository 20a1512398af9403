//! # hsw-exec — instruction streams, pipeline throughput, and workloads
//!
//! Three layers:
//!
//! * [`isa`]: a small µop-level instruction representation with
//!   per-generation port maps (Haswell's 8 ports incl. dual FMA, Sandy
//!   Bridge's 6 ports), enough to express the kernels the paper uses.
//! * [`pipeline`]: a port-binding throughput model — frontend width, 16 B
//!   fetch windows, µop-cache capacity, greedy port assignment, memory-stall
//!   accounting with an SMT stall-hiding factor. It validates paper
//!   Table I's FLOPS/cycle, the AVX-add port asymmetry, and Section VIII's
//!   FIRESTARTER IPC (3.1 with Hyper-Threading, 2.8 without).
//! * [`firestarter`] and [`workloads`]: the FIRESTARTER kernel generator
//!   (instruction groups per memory level at the paper's published mix) and
//!   the aggregate workload profiles (idle, sinus, busy-wait, memory,
//!   compute, dgemm, sqrt, FIRESTARTER, LINPACK, mprime) whose activity,
//!   AVX usage, stall fraction and IPC models drive the node simulator.

#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod encoding;
pub mod firestarter;
pub mod isa;
pub mod kernels;
pub mod pipeline;
pub mod workloads;

pub use firestarter::FirestarterKernel;
pub use isa::{Instr, MemLevel, PortMap};
pub use pipeline::{throughput, Bottleneck, ThroughputResult};
pub use workloads::{DutyCycle, IpcModel, WorkloadKind, WorkloadProfile};
