//! # cbs-vm
//!
//! A cycle-accurate simulated virtual machine — the substrate that hosts
//! the call-graph profilers of the Arnold–Grove CGO'05 reproduction.
//!
//! The VM interprets [`cbs_bytecode`] programs on a virtual clock: every
//! instruction charges [`CostModel`] cycles, a simulated timer fires at a
//! configurable frequency (default 100 Hz, matching the 10 ms Linux
//! granularity the paper cites), and each event a production VM's hosting
//! mechanism could observe is reported to an attached [`Profiler`]:
//!
//! * [`Profiler::on_tick`] — timer interrupts (with the current stack, so
//!   PC-samplers can record the top frame);
//! * [`Profiler::on_entry`] — method entries (prologue yieldpoints /
//!   method-entry checks), carrying the dynamic [`CallEdge`] and a
//!   walkable [`StackSlice`];
//! * [`Profiler::on_exit`] — method exits (epilogue yieldpoints; delivered
//!   only by the [`VmFlavor::Jikes`] hosting flavor).
//!
//! Entries and exits are delivered only while [`Profiler::armed`] says
//! the profiler could act on them, so an idle sampler costs the
//! interpreter one flag test per call.
//!
//! Profilers account for their own *simulated* overhead; the VM's base
//! cycle count is profiler-independent. That separation is what lets the
//! experiment harness attach dozens of sampler configurations to a single
//! deterministic run.
//!
//! [`CallEdge`]: cbs_dcg::CallEdge
//!
//! ## Example
//!
//! ```
//! use cbs_bytecode::ProgramBuilder;
//! use cbs_vm::{Vm, VmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let cls = b.add_class("Main", 0);
//! let main = b.function("main", cls, 0, 0, |c| {
//!     c.const_(21).const_(2).mul().ret();
//! })?;
//! b.set_entry(main);
//! let program = b.build()?;
//!
//! let report = Vm::new(&program, VmConfig::default()).run_unprofiled()?;
//! assert_eq!(report.return_values[0], cbs_vm::Value::Int(42));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod cost;
mod decode;
mod error;
mod events;
mod frame;
mod interp;
pub mod metrics;
mod report;
mod value;

pub use config::{TickSchedule, VmConfig, VmFlavor};
pub use cost::CostModel;
pub use error::VmError;
pub use events::{CallEvent, FrameInfo, NullProfiler, Profiler, StackSlice, ThreadId, ROOT_SITE};
pub use frame::Frame;
pub use interp::Vm;
pub use metrics::VmMetrics;
pub use report::ExecReport;
pub use value::{Heap, ObjRef, Value};
