//! # cbs-profiler
//!
//! The call-graph profiling mechanisms of the Arnold–Grove CGO'05
//! reproduction: the paper's contribution and every baseline it is
//! evaluated against.
//!
//! | Type | Paper section | Mechanism |
//! |------|--------------|-----------|
//! | [`CounterBasedSampler`] | §4 | **The contribution**: timer-opened windows, every `stride`-th invocation sampled, `samples_per_tick` samples per window |
//! | [`TimerSampler`] | §3.3 | Jikes RVM default: one sample at the first yieldpoint after each tick |
//! | [`PcSampler`] | §3.3 | Whaley-style asynchronous stack observation |
//! | [`ExhaustiveProfiler`] | §3.1 | Perfect counts (ground truth), or costed "PIC counter" instrumentation |
//! | [`CodePatchingProfiler`] | §3.2 | Suganuma-style warmup-then-burst listeners |
//! | [`MultiProfiler`] | §4, harness | The one fan-out: a whole configuration grid on one run, each profiler on the VM's timer or replaying its own |
//!
//! All profilers implement [`CallGraphProfiler`]: they accumulate a
//! [`DynamicCallGraph`](cbs_dcg::DynamicCallGraph) and account for their
//! own simulated overhead in [`ProfilingCosts`] millicycles, so overhead
//! percentages are exact and independent per profiler.
//!
//! ## Example
//!
//! ```
//! use cbs_bytecode::ProgramBuilder;
//! use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler};
//! use cbs_vm::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let cls = b.add_class("C", 0);
//! let f = b.function("f", cls, 0, 0, |c| { c.const_(1).ret(); })?;
//! let main = b.function("main", cls, 0, 1, |c| {
//!     c.counted_loop(0, 200_000, |c| { c.call(f).pop(); });
//!     c.const_(0).ret();
//! })?;
//! b.set_entry(main);
//! let program = b.build()?;
//!
//! let mut cbs = CounterBasedSampler::new(CbsConfig::new(3, 16));
//! let report = Vm::new(&program, VmConfig::default()).run_with(&mut cbs)?;
//! assert!(cbs.samples_taken() > 0);
//! let overhead_pct = 100.0 * cbs.overhead_cycles() as f64 / report.cycles as f64;
//! assert!(overhead_pct < 1.0, "CBS stays under 1% overhead");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cbs;
mod costs;
mod exhaustive;
mod hardware;
pub mod metrics;
mod multi;
mod patching;
mod pc;
mod timer;
mod traits;

pub use cbs::{CbsConfig, CounterBasedSampler, SkipPolicy};
pub use costs::{OverheadMeter, ProfilingCosts};
pub use exhaustive::{ExhaustiveCctProfiler, ExhaustiveMode, ExhaustiveProfiler};
pub use hardware::{HardwareConfig, HardwareSampler};
pub use metrics::CbsMetrics;
pub use multi::MultiProfiler;
pub use patching::{CodePatchingProfiler, PatchingConfig};
pub use pc::PcSampler;
pub use timer::TimerSampler;
pub use traits::CallGraphProfiler;
