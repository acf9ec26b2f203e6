//! # cbs-dcg
//!
//! Dynamic call graph representations and accuracy metrics for the
//! Arnold–Grove CGO'05 reproduction.
//!
//! * [`CallEdge`] — the `(caller, call site, callee)` triple of §2;
//! * [`DynamicCallGraph`] — weighted multigraph with merge/decay and the
//!   per-site receiver distributions the 40% inlining rule consumes;
//! * [`overlap`]/[`accuracy`] — the paper's §6.2 profile-similarity metric;
//! * [`CallingContextTree`] — the context-sensitive extension mentioned in
//!   §1/§7.
//!
//! ## Example
//!
//! ```
//! use cbs_bytecode::{CallSiteId, MethodId};
//! use cbs_dcg::{CallEdge, DynamicCallGraph, accuracy};
//!
//! let edge = CallEdge::new(MethodId::new(0), CallSiteId::new(0), MethodId::new(1));
//! let mut perfect = DynamicCallGraph::new();
//! perfect.record(edge, 1_000_000.0); // exhaustive counts
//! let mut sampled = DynamicCallGraph::new();
//! sampled.record(edge, 37.0); // sparse samples, same shape
//! assert!((accuracy(&sampled, &perfect) - 100.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cct;
pub mod dot;
mod edge;
mod graph;
mod hash;
mod overlap;
pub mod serialize;
pub mod stats;

pub use cct::{overlap_cct, CallingContextTree, CctNodeId, ContextStep};
pub use edge::CallEdge;
pub use graph::{coalesce_increments, DynamicCallGraph, SPLIT_READ_MIN_EDGES};
pub use overlap::{accuracy, overlap};
