//! # cbs-inliner
//!
//! Profile-directed inlining for the Arnold–Grove CGO'05 reproduction:
//! a real bytecode inlining transform plus the three inliner policies the
//! paper compares.
//!
//! * [`transform`](mod@crate): [`apply_decision`] splices callee bodies
//!   into callers — direct, devirtualized, or behind class-test guard
//!   chains whose fallthrough re-executes the original virtual call with
//!   its original [`CallSiteId`](cbs_bytecode::CallSiteId);
//! * [`InlinePolicy`] implementations: [`TrivialOnlyPolicy`] (the JIT-only
//!   baseline), [`OldJikesPolicy`] (hot/cold cliff at 1%),
//!   [`NewLinearPolicy`] (the paper's linear weight→threshold function and
//!   40% rule), [`J9Policy`] (aggressive static heuristics with dynamic
//!   cold-suppression);
//! * [`inline_program`] — the plan/apply/optimize pipeline, with growth
//!   budgets and bounded transitive rounds; [`plan_round`] and
//!   [`apply_round`] are its two steps, for callers that inline one
//!   method at a time;
//! * [`build_plan`] / [`apply_plan`] — fleet plans: the 40% rule runs
//!   server-side against a *pooled* profile and ships per-site decisions
//!   ([`InlinePlan`]) that VMs replay through the same planner and
//!   rounds loop, with the plan in place of the local call graph;
//! * [`CompileTimeModel`] — makes the compile-time effect of inlining
//!   decisions measurable (J9's dynamic heuristics cut compile time ~9%).
//!
//! ## Example
//!
//! ```
//! use cbs_bytecode::ProgramBuilder;
//! use cbs_inliner::{inline_program, InlineBudget, NewLinearPolicy};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = ProgramBuilder::new();
//! let cls = b.add_class("C", 0);
//! let inc = b.function("inc", cls, 1, 0, |c| {
//!     c.load(0).const_(1).add().ret();
//! })?;
//! let main = b.function("main", cls, 0, 0, |c| {
//!     c.const_(41).call(inc).ret();
//! })?;
//! b.set_entry(main);
//! let mut program = b.build()?;
//!
//! let report = inline_program(
//!     &mut program,
//!     None, // no profile: static heuristics only
//!     &NewLinearPolicy::default(),
//!     &InlineBudget::default(),
//!     true,
//! );
//! assert_eq!(report.direct_inlines, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compile;
mod plan;
mod planner;
mod policies;
mod policy;
mod transform;

pub use compile::CompileTimeModel;
pub use plan::{apply_plan, build_plan, InlinePlan, PlanEntry, PlanKind};
pub use planner::{apply_round, inline_program, plan_round, InlineReport, TRIVIAL_SIZE};
pub use policies::{J9Policy, NewLinearPolicy, OldJikesPolicy, TrivialOnlyPolicy};
pub use policy::{DirectContext, InlineBudget, InlinePolicy, VirtualContext, VirtualTarget};
pub use transform::{apply_decision, InlineDecision, InlineError, InlineKind};
