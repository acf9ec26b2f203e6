//! Inlining policy interface and budgets.

use cbs_bytecode::MethodId;
use std::fmt;

/// Everything a policy may consult about a direct (or statically
/// monomorphic virtual) call site.
#[derive(Debug, Clone, Copy)]
pub struct DirectContext {
    /// The callee under consideration.
    pub callee: MethodId,
    /// Callee body size in bytecode bytes.
    pub callee_size: u32,
    /// Whether the callee is trivial (leaf no larger than a calling
    /// sequence).
    pub callee_is_trivial: bool,
    /// Current caller size in bytecode bytes.
    pub caller_size: u32,
    /// This site's share of total profile weight, in percent. Zero when
    /// unprofiled or the site never appeared in the profile.
    pub site_weight_pct: f64,
    /// Whether a profile was supplied at all (distinguishes "cold in the
    /// profile" from "no profile available").
    pub profiled: bool,
}

/// One candidate target at a polymorphic virtual site.
#[derive(Debug, Clone, Copy)]
pub struct VirtualTarget {
    /// The implementation method.
    pub callee: MethodId,
    /// Callee body size in bytecode bytes.
    pub callee_size: u32,
    /// This target's fraction of the site's observed receiver
    /// distribution, in `[0, 1]`.
    pub fraction: f64,
}

/// Everything a policy may consult about a polymorphic virtual site.
#[derive(Debug, Clone)]
pub struct VirtualContext {
    /// Observed targets, sorted by descending fraction.
    pub targets: Vec<VirtualTarget>,
    /// The site's share of total profile weight, in percent.
    pub site_weight_pct: f64,
    /// Current caller size in bytecode bytes.
    pub caller_size: u32,
    /// Whether a profile was supplied at all.
    pub profiled: bool,
}

/// An inlining policy: the per-site decision logic that distinguishes the
/// paper's inliners.
///
/// `Sync`, so that [`build_plan`](crate::build_plan) can consult one
/// policy from the two threads that plan a large graph's halves.
pub trait InlinePolicy: fmt::Debug + Sync {
    /// Policy name for reports.
    fn name(&self) -> String;

    /// Whether to inline a direct (or guard-free devirtualized) callee.
    fn should_inline_direct(&self, ctx: &DirectContext) -> bool;

    /// Which targets of a polymorphic virtual site to guard-inline, in
    /// guard order. Empty means leave the dispatch alone.
    fn guarded_targets(&self, ctx: &VirtualContext) -> Vec<MethodId>;

    /// The least receiver fraction [`guarded_targets`] can pick: every
    /// target it returns has `fraction >= guard_floor()`, and the
    /// targets below the floor never change its answer.
    ///
    /// A fleet plan ([`build_plan`](crate::build_plan)) shows the policy
    /// only a site's receivers at or above this floor, still heaviest
    /// first — the prefix of the full list it would otherwise sort. The
    /// default, 0, shows every receiver.
    ///
    /// [`guarded_targets`]: Self::guarded_targets
    fn guard_floor(&self) -> f64 {
        0.0
    }
}

/// Global limits every planner run respects, independent of policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineBudget {
    /// A caller may not grow beyond this size in bytecode bytes.
    pub max_caller_size: u32,
    /// Bytes of inlined code a caller may absorb per planning round.
    /// This is the scarce resource the planner allocates hottest-first:
    /// a biased profile spends it on the wrong sites.
    pub max_caller_growth: u32,
    /// Bodies larger than this are never inlined regardless of policy
    /// (the paper's "maximum allowable size" bound that avoids
    /// degradations from inlining truly massive methods).
    pub max_inlined_body: u32,
    /// Planning rounds (bounds transitive inlining depth).
    pub rounds: u32,
    /// Maximum guard-chain length at one virtual site.
    pub max_guards: usize,
}

impl Default for InlineBudget {
    fn default() -> Self {
        Self {
            max_caller_size: 1600,
            max_caller_growth: 160,
            max_inlined_body: 400,
            rounds: 3,
            max_guards: 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_bounded() {
        let b = InlineBudget::default();
        assert!(b.max_inlined_body < b.max_caller_size);
        assert!(b.rounds >= 1);
        assert!(b.max_guards >= 1);
    }
}
