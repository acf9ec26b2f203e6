//! Deterministic synthetic-program generation.
//!
//! Given a [`WorkloadSpec`], produces a verified [`Program`] whose
//! *dynamic call stream* has the properties the spec asks for: a driver
//! loop dispatches mid-tier methods organized into exponentially rarer
//! frequency tiers (long-tailed edge weights) and sequential phases;
//! mid methods interleave straight-line work with direct calls, chained
//! mid calls, and virtual calls whose receiver alternates between a
//! dominant and a rare class; leaf methods range from trivial getters to
//! loopy numeric kernels.
//!
//! Generation is seeded and uses no hash-ordered iteration, so the same
//! spec always yields the identical program.

use crate::spec::WorkloadSpec;
use cbs_bytecode::{
    BuildError, ClassId, CodeBuilder, MethodId, Program, ProgramBuilder, VirtualSlot,
};
use cbs_prng::SmallRng;

/// The single vtable slot every dispatch family implements.
const SLOT: VirtualSlot = VirtualSlot::new(0);

/// Coarse cycle constants used only to derive an iteration count from
/// `target_seconds`; they mirror the magnitudes of
/// `cbs_vm::CostModel::default()` without creating a dependency.
mod est {
    pub(super) const WORK_UNIT: f64 = 4.0; // load+const+op+store
    pub(super) const CALL: f64 = 22.0; // call + return + arg traffic
    pub(super) const VCALL: f64 = 34.0; // dispatch + diamond
    pub(super) const CLOCK_HZ: f64 = 10_000_000.0;
}

/// Builds the program described by `spec`.
///
/// # Errors
///
/// Returns a [`BuildError`] if the generated program fails verification
/// (a generator bug, not a caller error).
///
/// # Panics
///
/// Panics when the spec is internally inconsistent (e.g. too few call
/// sites to reach every generated method); specs constructed through
/// [`Benchmark`](crate::Benchmark) are always consistent.
pub fn build(spec: &WorkloadSpec) -> Result<Program, BuildError> {
    let mut rng = SmallRng::seed_from_u64(spec.seed);
    let mut b = ProgramBuilder::new();

    let families = spec.families.max(1);
    let virtual_leaves = 2 * families;
    assert!(
        spec.num_methods > virtual_leaves + 2,
        "{}: num_methods too small for {} families",
        spec.name,
        families
    );
    let rest = spec.num_methods - 1 - virtual_leaves;
    let num_mids = (f64::from(rest) * 0.45).ceil().max(1.0) as u32;
    let num_direct_leaves = rest - num_mids;
    let fanout = spec.fanout.max(2);
    let total_sites = num_mids * fanout;
    assert!(
        total_sites >= num_direct_leaves + families,
        "{}: not enough call sites ({total_sites}) to cover {} leaves + {} families",
        spec.name,
        num_direct_leaves,
        families
    );

    // --- Classes ------------------------------------------------------
    // The context object carries two receiver fields per family:
    // field 2f = rare (base) instance, 2f+1 = dominant (sub) instance.
    let ctx_cls = b.add_class(format!("{}.Ctx", spec.name), (2 * families) as u16);
    let mut fams: Vec<(ClassId, ClassId)> = Vec::with_capacity(families as usize);
    for f in 0..families {
        let base = b.add_class(format!("{}.F{f}", spec.name), 2);
        let sub = b.add_subclass(format!("{}.F{f}Sub", spec.name), base, 0);
        fams.push((base, sub));
    }

    // --- Virtual leaf methods ------------------------------------------
    for (f, &(base, sub)) in fams.iter().enumerate() {
        let trivial_base = f % 4 == 0;
        let base_impl = b.function(format!("{}.F{f}.virt", spec.name), base, 1, 2, |c| {
            if trivial_base {
                c.load(0).get_field(0).ret();
            } else {
                emit_virtual_leaf_body(c, spec, &mut rng);
            }
        })?;
        b.set_vtable(base, SLOT, base_impl);
        let sub_impl = b.function(format!("{}.F{f}Sub.virt", spec.name), sub, 1, 2, |c| {
            emit_virtual_leaf_body(c, spec, &mut rng)
        })?;
        b.set_vtable(sub, SLOT, sub_impl);
    }

    // --- Direct leaf methods -------------------------------------------
    let mut direct_leaves: Vec<MethodId> = Vec::with_capacity(num_direct_leaves as usize);
    for l in 0..num_direct_leaves {
        let id = b.function(format!("{}.leaf{l}", spec.name), ctx_cls, 1, 2, |c| {
            emit_direct_leaf_body(c, spec, &mut rng)
        })?;
        direct_leaves.push(id);
    }

    // --- Mid-tier methods ----------------------------------------------
    // Declared first so call sites can chain forward.
    let mids: Vec<MethodId> = (0..num_mids)
        .map(|j| b.declare(format!("{}.mid{j}", spec.name), ctx_cls, 2))
        .collect();
    let mut site_counter: u32 = 0;
    let mut vsite_counter: u32 = 0;
    for (j, &mid) in mids.iter().enumerate() {
        // Snapshot per-site choices before the closure (the closure
        // cannot borrow rng twice).
        let mut site_plans = Vec::with_capacity(fanout as usize);
        for s in 0..fanout {
            let chain_ok = s == 0 && (j + 1) < mids.len() && rng.gen_bool(spec.chain_fraction);
            let plan = if chain_ok {
                SitePlan::Chain(mids[rng.gen_range(j + 1..mids.len())])
            } else if site_counter < num_direct_leaves {
                // Coverage phase: every direct leaf gets at least one
                // site.
                let t = direct_leaves[site_counter as usize];
                site_counter += 1;
                SitePlan::Direct(t)
            } else if rng.gen_bool(spec.polymorphic_fraction) || vsite_counter < families {
                let fam = if vsite_counter < families {
                    vsite_counter % families
                } else {
                    // Hot-biased family selection.
                    rng.gen_range(0..families.max(1))
                };
                vsite_counter += 1;
                SitePlan::Virtual(fam)
            } else {
                // Hot-biased leaf selection: square the uniform draw so
                // low-index leaves dominate.
                let u: f64 = rng.gen_f64();
                let idx = ((u * u) * f64::from(num_direct_leaves)) as u32;
                SitePlan::Direct(direct_leaves[idx.min(num_direct_leaves - 1) as usize])
            };
            site_plans.push(plan);
        }
        let work_seeds: Vec<i64> = (0..fanout).map(|_| rng.gen_range(1..1000)).collect();
        let has_io = (j as u32) < spec.io_sites;
        // Error-path callees: statically present call sites that never
        // execute (real methods are full of such cold branches). Static
        // inlining heuristics bloat compiled code with them; profile-aware
        // heuristics skip them at zero runtime cost.
        let error_leaves: [MethodId; 2] = [
            direct_leaves[rng.gen_range(0..direct_leaves.len())],
            direct_leaves[rng.gen_range(0..direct_leaves.len())],
        ];
        b.define(mid, 2, |c| {
            // locals: 0 = ctx, 1 = i, 2 = acc, 3 = scratch
            if has_io {
                c.io(spec.io_cost).pop();
            }
            for (s, plan) in site_plans.iter().enumerate() {
                emit_work_units(c, spec.work_per_call, 2, work_seeds[s]);
                match plan {
                    SitePlan::Chain(target) => {
                        c.load(0).load(1).call(*target);
                    }
                    SitePlan::Direct(target) => {
                        c.load(1).call(*target);
                    }
                    SitePlan::Virtual(fam) => {
                        emit_receiver_diamond(c, *fam, spec.receiver_mask);
                        c.call_virtual(SLOT, 1);
                    }
                }
                c.load(2).add().store(2);
            }
            // Never-taken error paths (the driver never passes this
            // sentinel): `if (i == SENTINEL) acc = handle_error(i);`
            for &err in &error_leaves {
                let skip = c.label();
                c.load(1).const_(i64::MIN + 7).cmp_eq().jump_if_zero(skip);
                c.load(1).call(err).store(2);
                c.bind(skip);
            }
            c.load(2).ret();
        })?;
    }

    // --- Driver ----------------------------------------------------------
    // Mids are dealt round-robin to phases; within a phase, tier t
    // (running every 2^t iterations) receives a 2^t-proportional share so
    // the hot tier is small and the cold tail is wide.
    let phases = spec.phases.max(1);
    let tiers = spec.tiers.max(1);
    let mut phase_tier_mids: Vec<Vec<Vec<MethodId>>> =
        vec![vec![Vec::new(); tiers as usize]; phases as usize];
    for (j, &mid) in mids.iter().enumerate() {
        let phase = (j as u32) % phases;
        let within = (j as u32) / phases;
        let per_phase = num_mids.div_ceil(phases).max(1);
        let tier = share_tier(within, per_phase, tiers);
        phase_tier_mids[phase as usize][tier as usize].push(mid);
    }

    let iters_per_phase = derive_iterations(spec, &phase_tier_mids, num_mids, fanout);
    let main = b.declare(format!("{}.main", spec.name), ctx_cls, 0);
    b.define(main, 4, |c| {
        // locals: 0 = loop counter, 1 = ctx, 2 = acc
        c.new_object(ctx_cls).store(1);
        for (f, &(base, sub)) in fams.iter().enumerate() {
            let f = f as u16;
            c.load(1).new_object(base).put_field(2 * f);
            c.load(1).new_object(sub).put_field(2 * f + 1);
        }
        let hot_repeat = spec.hot_repeat.max(1);
        for phase in &phase_tier_mids {
            c.counted_loop(0, iters_per_phase as i64, |c| {
                for (t, tier_mids) in phase.iter().enumerate() {
                    if tier_mids.is_empty() {
                        continue;
                    }
                    let mask = (1i64 << t) - 1;
                    let skip = c.label();
                    if mask > 0 {
                        c.load(0).const_(mask).band().jump_if_non_zero(skip);
                    }
                    let emit_calls = |c: &mut CodeBuilder<'_>| {
                        for &mid in tier_mids {
                            c.load(1).load(0).call(mid);
                            c.load(2).add().store(2);
                        }
                    };
                    if t == 0 && hot_repeat > 1 {
                        // Re-execute the hottest tier through an inner
                        // loop so its call *sites* (and thus edges) gain
                        // weight without multiplying static sites.
                        c.counted_loop(3, i64::from(hot_repeat), emit_calls);
                    } else {
                        emit_calls(c);
                    }
                    c.bind(skip);
                }
            });
        }
        c.load(2).ret();
    })?;
    b.set_entry(main);
    b.build()
}

#[derive(Debug, Clone, Copy)]
enum SitePlan {
    Direct(MethodId),
    Chain(MethodId),
    Virtual(u32),
}

/// Emits `n` work units (load/const/op/store quads) on `slot`.
fn emit_work_units(c: &mut CodeBuilder<'_>, n: u32, slot: u16, seed: i64) {
    for u in 0..n {
        let k = seed.wrapping_mul(i64::from(u) + 3) & 0xffff;
        c.load(slot);
        c.const_(k | 1);
        match u % 4 {
            0 => c.add(),
            1 => c.bxor(),
            2 => c.mul(),
            _ => c.sub(),
        };
        c.store(slot);
    }
}

/// Emits the receiver-selection diamond for a virtual site on family
/// `fam`: the dominant (sub) instance unless `i & mask == 0`.
fn emit_receiver_diamond(c: &mut CodeBuilder<'_>, fam: u32, mask: i64) {
    let fam = fam as u16;
    if mask <= 0 {
        // Monomorphic in practice: always the dominant receiver.
        c.load(0).get_field(2 * fam + 1);
        return;
    }
    let rare = c.label();
    let done = c.label();
    c.load(1).const_(mask).band().jump_if_zero(rare);
    c.load(0).get_field(2 * fam + 1).jump(done);
    c.bind(rare).load(0).get_field(2 * fam);
    c.bind(done);
}

/// Body of a non-trivial virtual leaf: field traffic plus arithmetic,
/// optionally wrapped in a numeric inner loop.
fn emit_virtual_leaf_body(c: &mut CodeBuilder<'_>, spec: &WorkloadSpec, rng: &mut SmallRng) {
    // locals: 0 = receiver, 1 = acc, 2 = loop counter
    let work = rng.gen_range(spec.leaf_work.0..=spec.leaf_work.1);
    let seed = rng.gen_range(1..1000);
    c.load(0).get_field(0).store(1);
    if spec.leaf_loop > 0 {
        c.counted_loop(2, i64::from(spec.leaf_loop), |c| {
            emit_work_units(c, work, 1, seed);
        });
    } else {
        emit_work_units(c, work, 1, seed);
    }
    c.load(0).load(1).put_field(1);
    c.load(1).ret();
}

/// Body of a direct leaf: arithmetic on the integer argument, wrapped in
/// the same numeric inner loop as virtual leaves when the spec asks for
/// one (compress/mpegaudio-style kernels).
fn emit_direct_leaf_body(c: &mut CodeBuilder<'_>, spec: &WorkloadSpec, rng: &mut SmallRng) {
    // locals: 0 = arg, 1 = acc, 2 = loop counter
    let work = rng.gen_range(spec.leaf_work.0..=spec.leaf_work.1);
    let seed = rng.gen_range(1..1000);
    c.load(0).store(1);
    if spec.leaf_loop > 0 {
        c.counted_loop(2, i64::from(spec.leaf_loop), |c| {
            emit_work_units(c, work, 1, seed);
        });
    } else {
        emit_work_units(c, work, 1, seed);
    }
    c.load(1).ret();
}

/// Per-tier population growth factor. Tier `t` runs every `2^t`
/// iterations and holds `MID_GROWTH^t` more methods than tier 0, so each
/// tier's *total* runtime weight decays by `MID_GROWTH/2 = 0.7` per tier:
/// most methods are cold, and cold methods are collectively cold too (the
/// 90/10 rule real profiles follow).
const MID_GROWTH: f64 = 1.2;

/// Assigns index `within` (of `per_phase` mids) to a tier such that tier
/// `t` holds a share proportional to `MID_GROWTH^t`.
fn share_tier(within: u32, per_phase: u32, tiers: u32) -> u32 {
    let total_shares: f64 = (0..tiers).map(|t| MID_GROWTH.powi(t as i32)).sum();
    let position = f64::from(within) / f64::from(per_phase.max(1)) * total_shares;
    let mut cumulative = 0.0;
    for t in 0..tiers {
        cumulative += MID_GROWTH.powi(t as i32);
        if position < cumulative {
            return t;
        }
    }
    tiers - 1
}

/// Derives the per-phase iteration count from the target duration and a
/// coarse per-iteration cost estimate.
fn derive_iterations(
    spec: &WorkloadSpec,
    phase_tier_mids: &[Vec<Vec<MethodId>>],
    num_mids: u32,
    fanout: u32,
) -> u64 {
    let leaf_avg = f64::from(spec.leaf_work.0 + spec.leaf_work.1) / 2.0;
    let leaf_cost = est::CALL
        + leaf_avg * est::WORK_UNIT * f64::from(spec.leaf_loop.max(1))
        + 7.0 * f64::from(spec.leaf_loop) // inner-loop bookkeeping
        + 8.0;
    let io_per_mid = if num_mids > 0 {
        f64::from(spec.io_sites) / f64::from(num_mids) * f64::from(spec.io_cost) * 100.0
    } else {
        0.0
    };
    let mid_base = f64::from(fanout)
        * (f64::from(spec.work_per_call) * est::WORK_UNIT
            + spec.polymorphic_fraction * est::VCALL
            + (1.0 - spec.polymorphic_fraction) * est::CALL
            + leaf_cost)
        + io_per_mid;
    let chain = spec.chain_fraction.clamp(0.0, 0.9);
    let mid_cost = mid_base / (1.0 - chain);

    // Average per-iteration cost of one phase: tier t fires every 2^t
    // iterations.
    let phases = phase_tier_mids.len() as f64;
    let mut per_iter = 0.0;
    for phase in phase_tier_mids {
        for (t, tier_mids) in phase.iter().enumerate() {
            let repeat = if t == 0 {
                f64::from(spec.hot_repeat.max(1))
            } else {
                1.0
            };
            per_iter += repeat * tier_mids.len() as f64 * mid_cost / f64::from(1u32 << t);
        }
    }
    per_iter /= phases; // each iteration runs one phase's dispatch
    per_iter += 30.0; // loop bookkeeping

    // Measured calibration: the analytic estimate above undershoots the
    // interpreter's actual per-iteration cost (tier dispatch, receiver
    // diamonds, accumulator folds) by a near-constant factor across the
    // suite.
    per_iter *= 0.70;

    let total_iters = (spec.target_seconds * est::CLOCK_HZ / per_iter.max(1.0)).ceil() as u64;
    let min_iters = 1u64 << spec.tiers.max(1); // every tier must fire
    (total_iters / phase_tier_mids.len() as u64).max(min_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn small_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test".into(),
            seed: 7,
            num_methods: 60,
            families: 4,
            fanout: 3,
            polymorphic_fraction: 0.5,
            receiver_mask: 7,
            work_per_call: 5,
            leaf_loop: 0,
            leaf_work: (2, 6),
            tiers: 3,
            hot_repeat: 2,
            phases: 2,
            chain_fraction: 0.3,
            io_sites: 1,
            io_cost: 5,
            target_seconds: 0.02,
        }
    }

    #[test]
    fn generates_requested_method_count() {
        let p = build(&small_spec()).unwrap();
        assert_eq!(p.num_methods() as u32, small_spec().num_methods);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build(&small_spec()).unwrap();
        let b = build(&small_spec()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut spec = small_spec();
        spec.seed = 8;
        let a = build(&small_spec()).unwrap();
        let b = build(&spec).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn share_tier_is_monotonic_and_bounded() {
        for within in 0..100 {
            let t = share_tier(within, 100, 4);
            assert!(t < 4);
            if within > 0 {
                assert!(t >= share_tier(within - 1, 100, 4));
            }
        }
        // Hot tier much smaller than cold tier.
        let hot = (0..100).filter(|&w| share_tier(w, 100, 4) == 0).count();
        let cold = (0..100).filter(|&w| share_tier(w, 100, 4) == 3).count();
        assert!(hot < cold);
    }

    #[test]
    fn scaled_spec_runs_longer() {
        let spec = small_spec();
        let base = derive_iterations(&spec, &[vec![vec![MethodId::new(0)]]], 1, 2);
        let big = derive_iterations(&spec.scaled(4.0), &[vec![vec![MethodId::new(0)]]], 1, 2);
        assert!(big > base * 2);
    }
}
