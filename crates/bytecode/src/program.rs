//! Whole-program container.

use crate::class::Class;
use crate::ids::{ClassId, MethodId};
use crate::method::Method;
use crate::op::Op;

/// A complete executable program: classes, methods and an entry method.
///
/// Programs are immutable once built except through
/// [`Program::replace_method`], used by the optimizer and inliner, which
/// must be followed by re-verification ([`crate::verify::verify`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    classes: Vec<Class>,
    methods: Vec<Method>,
    entry: MethodId,
    /// Total number of distinct call sites the builder allocated.
    next_site: u32,
}

impl Program {
    /// Assembles a program from parts. Prefer
    /// [`ProgramBuilder`](crate::ProgramBuilder).
    pub fn from_parts(
        classes: Vec<Class>,
        methods: Vec<Method>,
        entry: MethodId,
        next_site: u32,
    ) -> Self {
        Self {
            classes,
            methods,
            entry,
            next_site,
        }
    }

    /// All classes, indexed by [`ClassId`].
    pub fn classes(&self) -> &[Class] {
        &self.classes
    }

    /// All methods, indexed by [`MethodId`].
    pub fn methods(&self) -> &[Method] {
        &self.methods
    }

    /// The entry method executed by the VM.
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Looks up a method.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated for this program.
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.index()]
    }

    /// Mutable method lookup for transformation passes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated for this program.
    pub fn method_mut(&mut self, id: MethodId) -> &mut Method {
        &mut self.methods[id.index()]
    }

    /// Looks up a class.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not allocated for this program.
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.index()]
    }

    /// Looks up a method by name, if present.
    pub fn method_by_name(&self, name: &str) -> Option<&Method> {
        self.methods.iter().find(|m| m.name() == name)
    }

    /// Number of methods.
    pub fn num_methods(&self) -> usize {
        self.methods.len()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Total modeled bytecode size in bytes (Table 1's "Size" column is
    /// this quantity restricted to *executed* methods, which the VM
    /// reports).
    pub fn total_size_bytes(&self) -> u64 {
        self.methods.iter().map(|m| u64::from(m.size_bytes())).sum()
    }

    /// Number of distinct call sites allocated so far.
    pub fn num_call_sites(&self) -> u32 {
        self.next_site
    }

    /// Replaces a method body wholesale (optimizer / inliner output).
    pub fn replace_method(&mut self, id: MethodId, code: Vec<Op>) {
        self.methods[id.index()].set_code(code);
    }

    /// The set of classes whose vtable maps `slot` to each method — i.e. the
    /// static possible targets of a virtual dispatch through `slot`.
    pub fn virtual_targets(&self, slot: crate::ids::VirtualSlot) -> Vec<MethodId> {
        let mut targets: Vec<MethodId> = self
            .classes
            .iter()
            .filter_map(|c| c.resolve(slot))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{CallSiteId, VirtualSlot};

    fn tiny_program() -> Program {
        let main = Method::new(
            MethodId::new(0),
            "main",
            ClassId::new(0),
            0,
            0,
            vec![
                Op::Call {
                    site: CallSiteId::new(0),
                    target: MethodId::new(1),
                },
                Op::Return,
            ],
        );
        let callee = Method::new(
            MethodId::new(1),
            "f",
            ClassId::new(0),
            0,
            0,
            vec![Op::Const(7), Op::Return],
        );
        let class = Class::new(ClassId::new(0), "Main", None, 0, vec![MethodId::new(1)]);
        Program::from_parts(vec![class], vec![main, callee], MethodId::new(0), 1)
    }

    #[test]
    fn lookup_and_counts() {
        let p = tiny_program();
        assert_eq!(p.num_methods(), 2);
        assert_eq!(p.num_classes(), 1);
        assert_eq!(p.entry(), MethodId::new(0));
        assert_eq!(p.method(MethodId::new(1)).name(), "f");
        assert_eq!(p.method_by_name("main").unwrap().id(), MethodId::new(0));
        assert!(p.method_by_name("missing").is_none());
    }

    #[test]
    fn virtual_targets_dedup() {
        let p = tiny_program();
        assert_eq!(
            p.virtual_targets(VirtualSlot::new(0)),
            vec![MethodId::new(1)]
        );
        assert!(p.virtual_targets(VirtualSlot::new(9)).is_empty());
    }

    #[test]
    fn replace_method_swaps_the_body() {
        let mut p = tiny_program();
        let id = MethodId::new(1);
        p.replace_method(id, vec![Op::Const(2), Op::Return]);
        assert_eq!(p.method(id).code()[0], Op::Const(2));
    }

    #[test]
    fn total_size_sums_methods() {
        let p = tiny_program();
        let expected: u64 = p.methods().iter().map(|m| u64::from(m.size_bytes())).sum();
        assert_eq!(p.total_size_bytes(), expected);
    }
}
