//! The paper's inlining policies.
//!
//! * [`TrivialOnlyPolicy`] — the JIT-only baseline configuration (§6.2):
//!   only methods smaller than a calling sequence are inlined, so all
//!   other calls remain profileable.
//! * [`OldJikesPolicy`] — the pre-existing Jikes RVM profile-directed
//!   inliner (§5.1): profile data is consulted only to classify an edge as
//!   *hot* (≥1% of total DCG weight); hot edges get a bigger size
//!   threshold, everything else is ignored.
//! * [`NewLinearPolicy`] — the paper's new inliner: the size threshold is
//!   a bounded *linear function* of edge weight (no hot/cold cliff), and
//!   only receivers covering more than 40% of a polymorphic site's
//!   distribution are guard-inlined.
//! * [`J9Policy`] — J9's inliner (§5.2): aggressive static heuristics;
//!   optional dynamic heuristics that *suppress* inlining at cold sites
//!   and raise thresholds at hot sites.

use crate::policy::{DirectContext, InlinePolicy, VirtualContext};
use cbs_bytecode::MethodId;

/// Baseline: inline only trivial methods.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrivialOnlyPolicy;

impl InlinePolicy for TrivialOnlyPolicy {
    fn name(&self) -> String {
        "trivial-only".to_owned()
    }

    fn should_inline_direct(&self, ctx: &DirectContext) -> bool {
        ctx.callee_is_trivial
    }

    fn guarded_targets(&self, _ctx: &VirtualContext) -> Vec<MethodId> {
        Vec::new()
    }

    fn guard_floor(&self) -> f64 {
        f64::INFINITY
    }
}

/// The old Jikes RVM profile-directed inliner: a sharp hot/cold cliff.
#[derive(Debug, Clone, Copy)]
pub struct OldJikesPolicy {
    /// Edge share (percent of total DCG weight) above which an edge is
    /// "hot".
    pub hot_edge_pct: f64,
    /// Static size threshold for unprofiled/cold sites.
    pub static_size: u32,
    /// Raised size threshold for hot sites.
    pub hot_size: u32,
    /// Minimum receiver fraction for guarded inlining at a hot virtual
    /// site (the old inliner was conservative: near-monomorphic only).
    pub mono_fraction: f64,
}

impl Default for OldJikesPolicy {
    fn default() -> Self {
        Self {
            hot_edge_pct: 1.0,
            static_size: 16,
            hot_size: 90,
            mono_fraction: 0.9,
        }
    }
}

impl InlinePolicy for OldJikesPolicy {
    fn name(&self) -> String {
        "old-jikes".to_owned()
    }

    fn should_inline_direct(&self, ctx: &DirectContext) -> bool {
        if ctx.callee_is_trivial || ctx.callee_size <= self.static_size {
            return true;
        }
        // Profile data for non-hot edges is completely ignored.
        ctx.profiled && ctx.site_weight_pct >= self.hot_edge_pct && ctx.callee_size <= self.hot_size
    }

    fn guarded_targets(&self, ctx: &VirtualContext) -> Vec<MethodId> {
        if !ctx.profiled || ctx.site_weight_pct < self.hot_edge_pct {
            return Vec::new();
        }
        ctx.targets
            .first()
            .filter(|t| t.fraction >= self.mono_fraction && t.callee_size <= self.hot_size)
            .map(|t| vec![t.callee])
            .unwrap_or_default()
    }

    fn guard_floor(&self) -> f64 {
        self.mono_fraction
    }
}

/// The paper's new inliner: linear weight→threshold function and the 40%
/// distribution rule.
#[derive(Debug, Clone, Copy)]
pub struct NewLinearPolicy {
    /// Threshold at zero weight (also the static threshold for
    /// unprofiled sites).
    pub base_size: u32,
    /// Threshold growth per percent of edge weight.
    pub bytes_per_pct: f64,
    /// Hard cap — "bounded by a maximum allowable size to avoid observed
    /// performance degradations when inlining truly massive methods".
    pub max_size: u32,
    /// Minimum share of a site's receiver distribution for a callee to be
    /// considered for guarded inlining (the 40% rule).
    pub guard_fraction: f64,
    /// Maximum guarded targets per site.
    pub max_guards: usize,
}

impl Default for NewLinearPolicy {
    fn default() -> Self {
        Self {
            base_size: 20,
            bytes_per_pct: 60.0,
            max_size: 90,
            guard_fraction: 0.4,
            max_guards: 2,
        }
    }
}

impl NewLinearPolicy {
    /// The size threshold for a site of the given weight share: the
    /// hotter a call site is, the larger the callee it may inline.
    pub fn threshold(&self, site_weight_pct: f64) -> u32 {
        let t = f64::from(self.base_size) + self.bytes_per_pct * site_weight_pct.max(0.0);
        (t as u32).min(self.max_size)
    }
}

impl InlinePolicy for NewLinearPolicy {
    fn name(&self) -> String {
        "new-linear".to_owned()
    }

    fn should_inline_direct(&self, ctx: &DirectContext) -> bool {
        ctx.callee_is_trivial || ctx.callee_size <= self.threshold(ctx.site_weight_pct)
    }

    fn guarded_targets(&self, ctx: &VirtualContext) -> Vec<MethodId> {
        if !ctx.profiled {
            return Vec::new();
        }
        let threshold = self.threshold(ctx.site_weight_pct);
        ctx.targets
            .iter()
            .filter(|t| t.fraction > self.guard_fraction && t.callee_size <= threshold)
            .take(self.max_guards)
            .map(|t| t.callee)
            .collect()
    }

    fn guard_floor(&self) -> f64 {
        self.guard_fraction
    }
}

/// J9's inliner: aggressive static heuristics with optional dynamic
/// overrides.
#[derive(Debug, Clone, Copy)]
pub struct J9Policy {
    /// Aggressive static size threshold.
    pub static_size: u32,
    /// Whether dynamic (profile-driven) heuristics are active.
    pub dynamic: bool,
    /// Sites below this weight share are *cold*: the static heuristics
    /// are overridden and inlining is not performed (trivial methods
    /// excepted).
    pub cold_pct: f64,
    /// Sites at or above this weight share are *hot*: thresholds are
    /// raised.
    pub hot_pct: f64,
    /// Multiplier applied to `static_size` at hot sites.
    pub hot_boost: f64,
    /// The 40% rule for guarded inlining (dynamic mode only).
    pub guard_fraction: f64,
    /// Maximum guarded targets per site.
    pub max_guards: usize,
}

impl Default for J9Policy {
    fn default() -> Self {
        Self {
            static_size: 80,
            dynamic: true,
            cold_pct: 0.004,
            hot_pct: 0.25,
            hot_boost: 1.75,
            guard_fraction: 0.4,
            max_guards: 1,
        }
    }
}

impl J9Policy {
    /// The static-heuristics-only variant (the baseline of Figure 5,
    /// right).
    pub fn static_only() -> Self {
        Self {
            dynamic: false,
            ..Self::default()
        }
    }

    fn dynamic_threshold(&self, site_weight_pct: f64) -> Option<u32> {
        if site_weight_pct < self.cold_pct {
            // Cold: the static heuristics are overridden and inlining is
            // not performed (trivial methods are handled before this).
            None
        } else if site_weight_pct >= self.hot_pct {
            Some((f64::from(self.static_size) * self.hot_boost) as u32)
        } else {
            Some(self.static_size)
        }
    }
}

impl InlinePolicy for J9Policy {
    fn name(&self) -> String {
        if self.dynamic {
            "j9-dynamic".to_owned()
        } else {
            "j9-static".to_owned()
        }
    }

    fn should_inline_direct(&self, ctx: &DirectContext) -> bool {
        if ctx.callee_is_trivial {
            return true;
        }
        if !(self.dynamic && ctx.profiled) {
            return ctx.callee_size <= self.static_size;
        }
        match self.dynamic_threshold(ctx.site_weight_pct) {
            Some(threshold) => ctx.callee_size <= threshold,
            None => false, // cold: static heuristics overridden
        }
    }

    fn guarded_targets(&self, ctx: &VirtualContext) -> Vec<MethodId> {
        if !(self.dynamic && ctx.profiled) {
            // Static heuristics alone cannot predict receivers.
            return Vec::new();
        }
        // Guarded inlining duplicates code behind a test; J9 pays that
        // price only where the profile says the dispatch is warm enough.
        if ctx.site_weight_pct < self.hot_pct / 2.0 {
            return Vec::new();
        }
        let Some(threshold) = self.dynamic_threshold(ctx.site_weight_pct) else {
            return Vec::new();
        };
        ctx.targets
            .iter()
            .filter(|t| t.fraction > self.guard_fraction && t.callee_size <= threshold)
            .take(self.max_guards)
            .map(|t| t.callee)
            .collect()
    }

    fn guard_floor(&self) -> f64 {
        self.guard_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::VirtualTarget;
    use cbs_prng::prop::run_cases;
    use cbs_prng::SmallRng;

    fn direct(size: u32, pct: f64, profiled: bool) -> DirectContext {
        DirectContext {
            callee: MethodId::new(1),
            callee_size: size,
            callee_is_trivial: false,
            caller_size: 100,
            site_weight_pct: pct,
            profiled,
        }
    }

    fn virt(targets: &[(u32, f64, u32)], pct: f64, profiled: bool) -> VirtualContext {
        VirtualContext {
            targets: targets
                .iter()
                .map(|&(m, fraction, size)| VirtualTarget {
                    callee: MethodId::new(m),
                    callee_size: size,
                    fraction,
                })
                .collect(),
            site_weight_pct: pct,
            caller_size: 100,
            profiled,
        }
    }

    #[test]
    fn trivial_only_ignores_profiles() {
        let p = TrivialOnlyPolicy;
        assert!(!p.should_inline_direct(&direct(50, 99.0, true)));
        let mut ctx = direct(5, 0.0, false);
        ctx.callee_is_trivial = true;
        assert!(p.should_inline_direct(&ctx));
        assert!(p
            .guarded_targets(&virt(&[(1, 1.0, 5)], 50.0, true))
            .is_empty());
    }

    #[test]
    fn old_jikes_has_a_hot_cliff() {
        let p = OldJikesPolicy::default();
        // An 80-byte callee at a 0.9% site: ignored (below the 1% cliff).
        assert!(!p.should_inline_direct(&direct(80, 0.9, true)));
        // Same callee at 1.0%: inlined.
        assert!(p.should_inline_direct(&direct(80, 1.0, true)));
        // Small methods inline statically regardless.
        assert!(p.should_inline_direct(&direct(10, 0.0, true)));
    }

    #[test]
    fn old_jikes_guards_only_near_monomorphic_hot_sites() {
        let p = OldJikesPolicy::default();
        assert!(
            p.guarded_targets(&virt(&[(1, 0.95, 50), (2, 0.05, 50)], 2.0, true))
                .len()
                == 1
        );
        // 60/40 split: ignored even though hot.
        assert!(p
            .guarded_targets(&virt(&[(1, 0.6, 50), (2, 0.4, 50)], 2.0, true))
            .is_empty());
        // Cold site: ignored.
        assert!(p
            .guarded_targets(&virt(&[(1, 1.0, 50)], 0.5, true))
            .is_empty());
    }

    #[test]
    fn new_linear_threshold_grows_and_caps() {
        let p = NewLinearPolicy::default();
        assert_eq!(p.threshold(0.0), 20);
        assert!(p.threshold(1.0) > p.threshold(0.2));
        assert_eq!(p.threshold(1e9), p.max_size);
    }

    #[test]
    fn new_linear_has_no_cliff() {
        let p = NewLinearPolicy::default();
        // An 85-byte callee at a barely-warm 1.1% site inlines under the
        // (saturating) linear function: min(90, 20 + 60×1.1) = 86 …
        assert!(p.should_inline_direct(&direct(85, 1.1, true)));
        // … but the old inliner would have needed the full 1% hotness for
        // anything above its 16-byte static threshold; at 0.9% the new
        // inliner still uses what profile data it has (20 + 60×0.9 = 74).
        assert!(p.should_inline_direct(&direct(74, 0.9, true)));
        assert!(!p.should_inline_direct(&direct(75, 0.9, true)));
    }

    #[test]
    fn new_linear_applies_40pct_rule() {
        let p = NewLinearPolicy::default();
        let picked = p.guarded_targets(&virt(
            &[(1, 0.55, 20), (2, 0.41, 20), (3, 0.04, 20)],
            5.0,
            true,
        ));
        assert_eq!(picked, vec![MethodId::new(1), MethodId::new(2)]);
        // Exactly 40% is not *more than* 40%.
        let picked = p.guarded_targets(&virt(&[(1, 0.40, 20)], 5.0, true));
        assert!(picked.is_empty());
    }

    #[test]
    fn j9_static_mode_is_aggressive_and_profile_blind() {
        let p = J9Policy::static_only();
        assert!(p.should_inline_direct(&direct(80, 0.0, false)));
        assert!(!p.should_inline_direct(&direct(81, 99.0, true)));
        assert!(p
            .guarded_targets(&virt(&[(1, 1.0, 10)], 50.0, true))
            .is_empty());
    }

    #[test]
    fn j9_dynamic_suppresses_cold_sites() {
        let p = J9Policy::default();
        // Statically inlinable, but the profile says cold: suppressed.
        assert!(!p.should_inline_direct(&direct(50, 0.0, true)));
        // Same size, warm: allowed.
        assert!(p.should_inline_direct(&direct(50, 0.1, true)));
        // Hot: threshold boosted (80 × 1.75 = 140).
        assert!(p.should_inline_direct(&direct(130, 1.0, true)));
        assert!(!p.should_inline_direct(&direct(200, 1.0, true)));
    }

    #[test]
    fn j9_dynamic_without_profile_falls_back_to_static() {
        let p = J9Policy::default();
        assert!(p.should_inline_direct(&direct(80, 0.0, false)));
    }

    /// One of the four policies with random fields: floors at 0, at or
    /// above 1 and between, guard limits 0–3, thresholds that let sites
    /// through and ones that do not.
    fn random_policy(rng: &mut SmallRng) -> Box<dyn InlinePolicy> {
        let fraction = |rng: &mut SmallRng| match rng.gen_range(0..4u32) {
            0 => 0.0,
            1 => 1.0 + f64::from(rng.gen_range(0..2u32)) * 0.5,
            2 => 0.4,
            _ => rng.gen_f64(),
        };
        let size = |rng: &mut SmallRng| rng.gen_range(0..120u32);
        let pct = |rng: &mut SmallRng| f64::from(rng.gen_range(0..40u32)) / 10.0;
        match rng.gen_range(0..4u32) {
            0 => Box::new(TrivialOnlyPolicy),
            1 => Box::new(OldJikesPolicy {
                hot_edge_pct: pct(rng),
                static_size: size(rng),
                hot_size: size(rng),
                mono_fraction: fraction(rng),
            }),
            2 => Box::new(NewLinearPolicy {
                base_size: size(rng),
                bytes_per_pct: f64::from(rng.gen_range(0..80u32)),
                max_size: size(rng),
                guard_fraction: fraction(rng),
                max_guards: rng.gen_range(0..4usize),
            }),
            _ => Box::new(J9Policy {
                static_size: size(rng),
                dynamic: rng.gen_range(0..4u32) != 0,
                cold_pct: pct(rng) / 4.0,
                hot_pct: pct(rng),
                hot_boost: 1.0 + rng.gen_f64(),
                guard_fraction: fraction(rng),
                max_guards: rng.gen_range(0..4usize),
            }),
        }
    }

    /// The contract a fleet plan relies on: a policy shown only the
    /// targets at or above its `guard_floor` picks what it picks from
    /// the whole heaviest-first list.
    #[test]
    fn every_policy_picks_the_same_from_its_guard_floor_prefix() {
        run_cases("guard_floor_prefix", 2000, |rng| {
            let policy = random_policy(rng);
            // Small integral weights: equal weights, and fractions
            // exactly at 0.4 or 0.5, come up often.
            let n = rng.gen_range(0..7u32);
            let mut weights: Vec<(u32, f64)> = (0..n)
                .map(|m| (m, f64::from(rng.gen_range(1..6u32))))
                .collect();
            weights.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            let total: f64 = weights.iter().map(|&(_, w)| w).sum();
            let targets: Vec<(u32, f64, u32)> = weights
                .iter()
                .map(|&(m, w)| (m, w / total, rng.gen_range(0..150u32)))
                .collect();
            let full = virt(
                &targets,
                f64::from(rng.gen_range(0..50u32)) / 10.0,
                rng.gen_bool(0.9),
            );
            let floor = policy.guard_floor();
            let mut prefix = full.clone();
            prefix.targets.retain(|t| t.fraction >= floor);
            let callees = |ctx: &VirtualContext| -> Vec<MethodId> {
                ctx.targets.iter().map(|t| t.callee).collect()
            };
            assert_eq!(
                callees(&prefix)[..],
                callees(&full)[..prefix.targets.len()],
                "{policy:?}: the kept targets are not a prefix"
            );
            assert_eq!(
                policy.guarded_targets(&full),
                policy.guarded_targets(&prefix),
                "{policy:?} on {targets:?}"
            );
        });
    }
}
