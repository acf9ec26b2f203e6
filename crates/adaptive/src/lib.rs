//! # cbs-adaptive
//!
//! A Jikes-RVM-style adaptive optimization system for the Arnold–Grove
//! CGO'05 reproduction.
//!
//! The paper's accuracy experiments deliberately run *JIT-only* (a fixed
//! optimization level) because an adaptive system makes profile accuracy
//! hard to compare; its *performance* experiments, however, live inside
//! exactly this feedback loop. This crate provides that loop:
//!
//! * [`HotMethodSampler`] — timer-based "where is time spent" sampling
//!   (the correct use of a time trigger, per §3.3);
//! * [`OptLevel`] — the baseline/O1/O2 recompilation ladder;
//! * [`AdaptiveSystem`] — run → sample → promote → recompile iterations,
//!   where O2 applies profile-directed inlining using the continuously
//!   collected (and decayed) CBS call graph.
//!
//! A VM that inlines from a pulled fleet plan instead of its local DCG
//! needs no controller: it calls `cbs_inliner::apply_plan` and runs the
//! result, as the `fleet-optimize` experiment in `cbs-core` does.
//!
//! ## Example
//!
//! ```no_run
//! use cbs_adaptive::{AdaptiveConfig, AdaptiveSystem};
//! use cbs_workloads::Benchmark;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Benchmark::Jess.build(cbs_workloads::InputSize::Small)?;
//! let mut system = AdaptiveSystem::new(program, AdaptiveConfig::default());
//! let first = system.run_iteration()?.exec.cycles;
//! for _ in 0..5 {
//!     system.run_iteration()?;
//! }
//! let steady = system.run_iteration()?.exec.cycles;
//! assert!(steady <= first);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod controller;
mod levels;
mod sampler;

pub use controller::{AdaptiveConfig, AdaptiveSystem, IterationReport};
pub use levels::OptLevel;
pub use sampler::HotMethodSampler;
