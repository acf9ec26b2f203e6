//! # cbs-core
//!
//! Facade and experiment harness for the reproduction of *Arnold & Grove,
//! "Collecting and Exploiting High-Accuracy Call Graph Profiles in
//! Virtual Machines"* (CGO 2005).
//!
//! The workspace implements the paper's full stack from scratch:
//!
//! * [`bytecode`] — a JVM-like stack ISA with classes, vtables and
//!   call-site identities;
//! * [`vm`] — a cycle-accurate simulated VM with yieldpoints, a jittered
//!   timer, and profiler hooks (Jikes RVM and J9 hosting flavors);
//! * [`dcg`] — dynamic call graphs, the overlap accuracy metric, calling
//!   context trees;
//! * [`profiler`] — **counter-based sampling** (the contribution) plus
//!   every baseline: timer sampling, PC sampling, exhaustive counting,
//!   code-patching bursts;
//! * [`opt`] / [`inliner`] — a real optimizer and inlining transform with
//!   the paper's three inliner policies;
//! * [`adaptive`] — a full adaptive optimization system;
//! * [`profiled`] — fleet-scale profile collection: a binary wire
//!   codec, a decaying aggregation service, and its TCP server/client;
//! * [`store`] — the durable profile store: write-ahead log,
//!   checkpoints, and bit-identical crash recovery for the server;
//! * [`workloads`] — the 13-benchmark synthetic suite and adversarial
//!   programs;
//! * [`experiments`] — functions regenerating **every table and figure**
//!   of the evaluation.
//!
//! ## Quick start
//!
//! ```
//! use cbs_core::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a workload, attach the paper's sampler, measure accuracy.
//! let program = Benchmark::Jess.build(InputSize::Small)?;
//! let measurement = measure(
//!     &program,
//!     VmConfig::default(),
//!     vec![Box::new(CounterBasedSampler::new(CbsConfig::new(3, 16)))],
//! )?;
//! let cbs = &measurement.outcomes[0];
//! assert!(cbs.accuracy > 0.0 && cbs.accuracy <= 100.0);
//! assert!(cbs.overhead_pct < 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
mod measure;
pub mod parallel;
mod render;

pub use measure::{measure, Measurement, ProfilerOutcome};
pub use parallel::{run_cells, Parallelism};
pub use render::{f1, f2, TextTable};

pub use cbs_adaptive as adaptive;
pub use cbs_bytecode as bytecode;
pub use cbs_dcg as dcg;
pub use cbs_inliner as inliner;
pub use cbs_opt as opt;
pub use cbs_profiled as profiled;
pub use cbs_profiler as profiler;
pub use cbs_store as store;
pub use cbs_telemetry as telemetry;
pub use cbs_vm as vm;
pub use cbs_workloads as workloads;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use crate::measure::{measure, Measurement, ProfilerOutcome};
    pub use crate::parallel::{run_cells, Parallelism};
    pub use cbs_adaptive::{AdaptiveConfig, AdaptiveSystem};
    pub use cbs_bytecode::{Program, ProgramBuilder};
    pub use cbs_dcg::{accuracy, overlap, CallEdge, DynamicCallGraph};
    pub use cbs_inliner::{
        inline_program, InlineBudget, J9Policy, NewLinearPolicy, OldJikesPolicy, TrivialOnlyPolicy,
    };
    pub use cbs_profiler::{
        CallGraphProfiler, CbsConfig, CodePatchingProfiler, CounterBasedSampler,
        ExhaustiveProfiler, MultiProfiler, PcSampler, SkipPolicy, TimerSampler,
    };
    pub use cbs_vm::{Vm, VmConfig, VmFlavor};
    pub use cbs_workloads::{Benchmark, InputSize};
}
