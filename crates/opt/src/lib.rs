//! # cbs-opt
//!
//! Basic-block optimizer passes for the Arnold–Grove CGO'05 reproduction.
//!
//! Inlining pays off in two ways: it removes call/dispatch overhead
//! directly, and it enlarges the scope of downstream optimizations. This
//! crate provides those downstream optimizations — constant folding,
//! peephole simplification, jump threading, unreachable-code removal,
//! liveness-based dead-store elimination and nop removal — run to a
//! fixpoint by [`Optimizer`]. The argument-marshalling code the inliner
//! splices in (`store L; load L; …`) genuinely disappears under these
//! passes, so measured inlining speedups are computed, not asserted.
//!
//! ## Example
//!
//! ```
//! use cbs_bytecode::{Op, ProgramBuilder};
//! use cbs_opt::Optimizer;
//!
//! # fn main() -> Result<(), cbs_bytecode::BuildError> {
//! let mut b = ProgramBuilder::new();
//! let cls = b.add_class("C", 0);
//! let main = b.function("main", cls, 0, 0, |c| {
//!     c.const_(6).const_(7).mul().ret();
//! })?;
//! b.set_entry(main);
//! let mut program = b.build()?;
//!
//! Optimizer::new().optimize_method(&mut program, main);
//! assert_eq!(program.method(main).code(), &[Op::Const(42), Op::Return]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cfg;
mod editor;
mod flow;
mod liveness;
mod passes;
mod pipeline;

pub use pipeline::{OptStats, Optimizer};
