//! The complete static call graph (§2): the oracle `dcg_invariants`
//! holds every profiler's dynamic call graph to.
//!
//! "A dynamic call graph … contains only those edges that are observed at
//! runtime; therefore the edges of a DCG are a subgraph of the complete
//! static call graph." This module builds that complete graph from a
//! program — direct edges from `call` instructions, and one edge per
//! statically possible target of each `callvirt` slot — and checks the
//! containment invariant.

use cbs_bytecode::{Op, Program};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use std::collections::HashSet;

/// The complete static call graph of a program.
#[derive(Debug)]
pub(crate) struct StaticCallGraph {
    edges: HashSet<CallEdge>,
}

impl StaticCallGraph {
    /// Builds the static call graph: every `call` contributes its edge,
    /// every `callvirt` contributes one edge per class implementing its
    /// slot.
    pub(crate) fn build(program: &Program) -> Self {
        let mut edges = HashSet::new();
        for method in program.methods() {
            for (_, site, op) in method.call_instructions() {
                match *op {
                    Op::Call { target, .. } => {
                        edges.insert(CallEdge::new(method.id(), site, target));
                    }
                    Op::CallVirtual { slot, .. } => {
                        for target in program.virtual_targets(slot) {
                            edges.insert(CallEdge::new(method.id(), site, target));
                        }
                    }
                    _ => {}
                }
            }
        }
        Self { edges }
    }

    /// Whether the static graph admits `edge`.
    pub(crate) fn contains(&self, edge: &CallEdge) -> bool {
        self.edges.contains(edge)
    }

    /// Number of static edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` for a program with no call instructions.
    pub(crate) fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Checks §2's containment invariant, returning the first offending
    /// dynamic edge if any.
    pub(crate) fn violation<'a>(&self, dcg: &'a DynamicCallGraph) -> Option<&'a CallEdge> {
        dcg.iter().map(|(e, _)| e).find(|e| !self.contains(e))
    }

    /// Fraction of static edges the dynamic graph observed (coverage).
    pub(crate) fn coverage(&self, dcg: &DynamicCallGraph) -> f64 {
        if self.edges.is_empty() {
            return 0.0;
        }
        let seen = self.edges.iter().filter(|e| dcg.weight(e) > 0.0).count();
        seen as f64 / self.edges.len() as f64
    }
}

mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId, ProgramBuilder, VirtualSlot};

    fn program_with_virtual() -> Program {
        let mut b = ProgramBuilder::new();
        let base = b.add_class("Base", 0);
        let f = b
            .function("Base.f", base, 1, 0, |c| {
                c.const_(1).ret();
            })
            .unwrap();
        b.set_vtable(base, VirtualSlot::new(0), f);
        let sub = b.add_subclass("Sub", base, 0);
        let g = b
            .function("Sub.f", sub, 1, 0, |c| {
                c.const_(2).ret();
            })
            .unwrap();
        b.set_vtable(sub, VirtualSlot::new(0), g);
        let helper = b
            .function("helper", base, 0, 0, |c| {
                c.const_(3).ret();
            })
            .unwrap();
        let main = b
            .function("main", base, 0, 0, |c| {
                c.call(helper).pop();
                c.new_object(sub).call_virtual(VirtualSlot::new(0), 1).ret();
            })
            .unwrap();
        b.set_entry(main);
        b.build().unwrap()
    }

    #[test]
    fn virtual_sites_contribute_all_targets() {
        let p = program_with_virtual();
        let scg = StaticCallGraph::build(&p);
        // helper edge + 2 possible virtual targets.
        assert_eq!(scg.num_edges(), 3);
        assert!(!scg.is_empty());
    }

    #[test]
    fn dynamic_graph_is_contained() {
        let p = program_with_virtual();
        let scg = StaticCallGraph::build(&p);
        let mut dcg = DynamicCallGraph::new();
        // The actually-executed edges: main->helper and main->Sub.f.
        let main_method = p.method_by_name("main").unwrap();
        let main = main_method.id();
        let helper = p.method_by_name("helper").unwrap().id();
        let subf = p.method_by_name("Sub.f").unwrap().id();
        let sites: Vec<CallSiteId> = main_method.call_instructions().map(|(_, s, _)| s).collect();
        dcg.record(CallEdge::new(main, sites[0], helper), 1.0);
        dcg.record(CallEdge::new(main, sites[1], subf), 1.0);
        assert!(scg.violation(&dcg).is_none());
        assert!((scg.coverage(&dcg) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bogus_edge_is_a_violation() {
        let p = program_with_virtual();
        let scg = StaticCallGraph::build(&p);
        let mut dcg = DynamicCallGraph::new();
        dcg.record(
            CallEdge::new(MethodId::new(0), CallSiteId::new(99), MethodId::new(1)),
            1.0,
        );
        assert!(scg.violation(&dcg).is_some());
        assert_eq!(scg.coverage(&dcg), 0.0);
    }
}
