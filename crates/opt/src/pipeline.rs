//! The pass pipeline.

use crate::editor::CodeEditor;
use crate::flow::{JumpThreading, UnreachableCodeElimination};
use crate::liveness::LivenessDse;
use crate::passes::{ConstantFolding, NopElimination, Pass, Peephole};
use cbs_bytecode::{verify, MethodId, Program};
use std::collections::BTreeMap;

/// Statistics from an optimization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Rewrites applied per pass name.
    pub rewrites_by_pass: BTreeMap<&'static str, usize>,
    /// Fixpoint iterations performed.
    pub iterations: usize,
}

impl OptStats {
    /// Merges another run's statistics into this one.
    pub fn merge(&mut self, other: &OptStats) {
        for (name, n) in &other.rewrites_by_pass {
            *self.rewrites_by_pass.entry(name).or_insert(0) += n;
        }
        self.iterations = self.iterations.max(other.iterations);
    }
}

/// A fixpoint pass pipeline over method bodies.
///
/// The default pipeline runs constant folding, peephole simplification,
/// jump threading, unreachable-code removal, liveness-based dead-store
/// elimination and nop removal until nothing changes (bounded by an
/// iteration cap).
#[derive(Debug)]
pub struct Optimizer {
    passes: Vec<Box<dyn Pass>>,
    max_iterations: usize,
}

impl Default for Optimizer {
    fn default() -> Self {
        Self {
            passes: vec![
                Box::new(ConstantFolding),
                Box::new(Peephole),
                Box::new(JumpThreading),
                Box::new(UnreachableCodeElimination),
                Box::new(LivenessDse),
                Box::new(NopElimination),
            ],
            max_iterations: 16,
        }
    }
}

impl Optimizer {
    /// Creates the default pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Optimizes one method in place, re-verifying it afterwards.
    ///
    /// # Panics
    ///
    /// Panics if a pass produced unverifiable code — that is a bug in the
    /// pass, never in the input.
    pub fn optimize_method(&self, program: &mut Program, id: MethodId) -> OptStats {
        let mut stats = OptStats::default();
        for iteration in 1..=self.max_iterations {
            stats.iterations = iteration;
            let mut changed = false;
            for pass in &self.passes {
                let mut editor = CodeEditor::new(program.method(id).code());
                let n = pass.apply(&mut editor);
                if editor.changed() {
                    changed = true;
                    *stats.rewrites_by_pass.entry(pass.name()).or_insert(0) += n;
                    program.replace_method(id, editor.finish());
                }
            }
            if !changed {
                break;
            }
        }
        if let Err(e) = verify::verify_method(program, id) {
            panic!("optimizer produced unverifiable code for {id}: {e}");
        }
        stats
    }

    /// Optimizes every method of the program.
    pub fn optimize_program(&self, program: &mut Program) -> OptStats {
        let mut stats = OptStats::default();
        for i in 0..program.num_methods() {
            let s = self.optimize_method(program, MethodId::new(i as u32));
            stats.merge(&s);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{Op, ProgramBuilder};

    fn total_rewrites(stats: &OptStats) -> usize {
        stats.rewrites_by_pass.values().sum()
    }

    fn one_method_program(
        build: impl FnOnce(&mut cbs_bytecode::CodeBuilder<'_>),
    ) -> (Program, MethodId) {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 1);
        let main = b.function("main", cls, 0, 4, build).unwrap();
        b.set_entry(main);
        (b.build().unwrap(), main)
    }

    #[test]
    fn pipeline_reaches_fixpoint_on_getter_pattern() {
        // The shape the inliner produces for an inlined trivial getter:
        //   new C; store L; load L; getfield 0; return
        // must collapse to: new C; getfield 0; return
        let (mut p, main) = one_method_program(|c| {
            c.new_object(cbs_bytecode::ClassId::new(0))
                .store(1)
                .load(1)
                .get_field(0)
                .ret();
        });
        let stats = Optimizer::new().optimize_method(&mut p, main);
        assert!(total_rewrites(&stats) >= 2, "stats: {stats:?}");
        assert_eq!(
            p.method(main).code(),
            &[
                Op::New(cbs_bytecode::ClassId::new(0)),
                Op::GetField(0),
                Op::Return
            ]
        );
    }

    #[test]
    fn cascading_folds() {
        // ((2+3)*4) == 20 folds to a single constant.
        let (mut p, main) = one_method_program(|c| {
            c.const_(2).const_(3).add().const_(4).mul().ret();
        });
        Optimizer::new().optimize_method(&mut p, main);
        assert_eq!(p.method(main).code(), &[Op::Const(20), Op::Return]);
    }

    #[test]
    fn loops_are_preserved() {
        let (mut p, main) = one_method_program(|c| {
            c.counted_loop(0, 10, |c| {
                c.load(1).const_(1).add().store(1);
            });
            c.load(1).ret();
        });
        let before: Vec<Op> = p.method(main).code().to_vec();
        Optimizer::new().optimize_method(&mut p, main);
        // The loop body is already minimal; semantics must be unchanged.
        let after = p.method(main).code();
        assert!(after.len() <= before.len());
        // Execution still yields 10 (checked in integration tests with a
        // VM; here we just re-verify structure).
        assert!(after.iter().any(|op| matches!(op, Op::Jump(_))));
    }

    #[test]
    fn optimize_program_covers_all_methods() {
        let mut b = ProgramBuilder::new();
        let cls = b.add_class("C", 0);
        let f = b
            .function("f", cls, 0, 0, |c| {
                c.const_(1).const_(2).add().ret();
            })
            .unwrap();
        let main = b
            .function("main", cls, 0, 0, |c| {
                c.const_(3).const_(4).add().pop().call(f).ret();
            })
            .unwrap();
        b.set_entry(main);
        let mut p = b.build().unwrap();
        let stats = Optimizer::new().optimize_program(&mut p);
        assert_eq!(p.method(f).code(), &[Op::Const(3), Op::Return]);
        assert!(total_rewrites(&stats) >= 3);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = OptStats::default();
        a.rewrites_by_pass.insert("peephole", 2);
        a.iterations = 1;
        let mut b = OptStats::default();
        b.rewrites_by_pass.insert("peephole", 3);
        b.rewrites_by_pass.insert("constant-folding", 1);
        b.iterations = 4;
        a.merge(&b);
        assert_eq!(a.rewrites_by_pass["peephole"], 5);
        assert_eq!(total_rewrites(&a), 6);
        assert_eq!(a.iterations, 4);
    }
}
