//! # brisk-core
//!
//! The BriskStream system facade: the piece a user actually touches.
//!
//! Submitting a topology runs the paper's full pipeline:
//!
//! 1. **Model instantiation** — operator specifications (`Te`, `M`, `N`)
//!    come with the topology's cost profiles; [`profiler`] can regenerate
//!    them, either synthetically (the Figure 3 CDFs) or by timing the real
//!    Rust operators in isolation on pre-computed sample input, exactly the
//!    paper's profiling methodology.
//! 2. **RLAS optimization** — iterative scaling + branch-and-bound placement
//!    against the machine's NUMA matrices.
//! 3. **Execution** — either *simulated* on the virtual machine (the
//!    measurement substrate for paper-scale experiments, and the only
//!    place the machine's remote-fetch costs are charged) or *threaded* on
//!    this host via the real engine, which runs the plan at the host's own
//!    speed and uses its placement only to decide which edges fuse.
//!
//! ```
//! use brisk_core::BriskStream;
//! use brisk_numa::Machine;
//!
//! let machine = Machine::server_a().restrict_sockets(2);
//! let topology = brisk_core::profiler::demo_pipeline();
//! let mut system = BriskStream::new(machine);
//! let report = system.submit(&topology).expect("feasible plan");
//! assert!(report.predicted_throughput > 0.0);
//! ```

pub mod profiler;
pub mod system;

pub use system::{BriskStream, PlanError, PlanReport};
