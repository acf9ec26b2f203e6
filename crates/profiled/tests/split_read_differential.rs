//! The two-core read path against frozen serial copies of the loops it
//! replaced: `DcgCodec::encode_snapshot`, `build_plan` and the
//! aggregator's served snapshot and plan must be bit-identical to one
//! pass over the whole ascending edge order, on graphs on either side
//! of `SPLIT_READ_MIN_EDGES` and at every cut the halves make hard.
//!
//! `oracle` below is the serial encoder and plan builder as they were
//! before the split, kept verbatim apart from the paths and visibility
//! a separate test crate needs, and with a byte-at-a-time LEB128 writer
//! (the same bytes as the codec's word-at-a-time one). Its plan builder
//! sorts every site's whole receiver list and shows it all to the
//! policy, so it also holds `build_plan`'s guard-floor candidate
//! selection to the full sort, under all four policies.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph, SPLIT_READ_MIN_EDGES};
use cbs_inliner::{
    build_plan, InlinePlan, InlinePolicy, J9Policy, NewLinearPolicy, OldJikesPolicy,
    TrivialOnlyPolicy,
};
use cbs_prng::prop::case_seed;
use cbs_prng::SmallRng;
use cbs_profiled::{AggregatorConfig, DcgCodec, DcgFrame, FrameKind, ShardedAggregator};

mod oracle {
    use super::*;
    use cbs_inliner::{PlanEntry, PlanKind, VirtualContext, VirtualTarget};

    fn key_of(e: &CallEdge) -> u128 {
        (u128::from(u32::from(e.caller)) << 64)
            | (u128::from(u32::from(e.site)) << 32)
            | u128::from(u32::from(e.callee))
    }

    fn put_varint(out: &mut Vec<u8>, mut v: u128) {
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn integral_weight(w: f64) -> Option<u64> {
        if w >= 0.0 && w < (1u64 << 62) as f64 {
            let m = w as u64;
            if m as f64 == w {
                return Some(m);
            }
        }
        None
    }

    fn put_weight(out: &mut Vec<u8>, w: f64) {
        match integral_weight(w) {
            Some(m) => put_varint(out, u128::from(m) << 1),
            None => {
                put_varint(out, 1);
                out.extend_from_slice(&w.to_bits().to_le_bytes());
            }
        }
    }

    /// The serial snapshot encoder: one pass, header count patched when
    /// zero-weight edges drop out.
    pub(crate) fn encode_snapshot(graph: &DynamicCallGraph) -> Vec<u8> {
        let records = graph.iter().filter(|&(_, w)| w > 0.0).map(|(e, w)| (*e, w));
        let max_count = graph.num_edges();
        let mut out = Vec::with_capacity(8 + max_count * 8);
        out.extend_from_slice(&cbs_profiled::codec::MAGIC);
        out.push(cbs_profiled::codec::VERSION);
        out.push(0);
        let count_at = out.len();
        put_varint(&mut out, max_count as u128);
        let count_end = out.len();
        let mut count = 0usize;
        let mut prev: Option<u128> = None;
        for (e, w) in records {
            let key = key_of(&e);
            let step = match prev {
                None => key,
                Some(p) => key - p,
            };
            prev = Some(key);
            put_varint(&mut out, step);
            put_weight(&mut out, w);
            count += 1;
        }
        if count != max_count {
            let mut varint = Vec::new();
            put_varint(&mut varint, count as u128);
            out.splice(count_at..count_end, varint);
        }
        out
    }

    /// The serial plan builder: one loop over every site.
    pub(crate) fn build_plan(
        graph: &DynamicCallGraph,
        policy: &dyn InlinePolicy,
        generation: u64,
    ) -> InlinePlan {
        let total_weight = graph.total_weight();
        let mut entries = Vec::new();
        let mut edges = graph.iter().filter(|&(_, w)| w > 0.0).peekable();
        let mut dist: Vec<u128> = Vec::new();
        let target = |key: u128| {
            (
                MethodId::new(key as u32),
                f64::from_bits(!((key >> 32) as u64)),
            )
        };
        let mut ctx = VirtualContext {
            targets: Vec::new(),
            site_weight_pct: 0.0,
            caller_size: 0,
            profiled: true,
        };
        while let Some(&(first, _)) = edges.peek() {
            let (caller, site) = (first.caller, first.site);
            dist.clear();
            while let Some((e, w)) = edges.next_if(|(e, _)| e.caller == caller && e.site == site) {
                dist.push(u128::from(!w.to_bits()) << 32 | u128::from(u32::from(e.callee)));
            }
            let site_weight: f64 = dist.iter().map(|&key| target(key).1).sum();
            dist.sort_unstable();
            let kind = if dist.len() == 1 {
                PlanKind::Direct {
                    callee: target(dist[0]).0,
                }
            } else {
                ctx.targets.clear();
                ctx.targets.extend(dist.iter().map(|&key| {
                    let (callee, w) = target(key);
                    VirtualTarget {
                        callee,
                        callee_size: 0,
                        fraction: w / site_weight,
                    }
                }));
                ctx.site_weight_pct = if total_weight > 0.0 {
                    100.0 * site_weight / total_weight
                } else {
                    0.0
                };
                let chosen = policy.guarded_targets(&ctx);
                let weight_of = |m: MethodId| {
                    dist.iter()
                        .map(|&key| target(key))
                        .find(|&(c, _)| c == m)
                        .map_or(0.0, |(_, w)| w)
                };
                match chosen.len() {
                    0 => continue,
                    1 => PlanKind::Devirtualize {
                        callee: chosen[0],
                        weight: weight_of(chosen[0]),
                    },
                    _ => PlanKind::Guarded {
                        targets: chosen.into_iter().map(|m| (m, weight_of(m))).collect(),
                    },
                }
            };
            entries.push(PlanEntry {
                caller,
                site,
                site_weight,
                kind,
            });
        }
        InlinePlan {
            generation,
            total_weight,
            entries,
        }
    }
}

fn edge(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// A weight that one decay by 0.5 turns into zero (the smallest
/// subnormal halves to a tie that rounds to even, 0).
const DECAYS_TO_ZERO: f64 = 5e-324;

/// A graph of `edges` (ascending, each with its weight before decay),
/// decayed once by 0.5: `DECAYS_TO_ZERO` weights become zero-weight
/// edges, integral weights stay integral and `x.5` weights turn
/// fractional.
fn decayed(edges: &[(CallEdge, f64)]) -> DynamicCallGraph {
    let mut g: DynamicCallGraph = edges.iter().copied().collect();
    g.decay(0.5, 0.0);
    g
}

/// Whether this host splits a graph that has a site boundary.
fn splits(g: &DynamicCallGraph) -> bool {
    g.num_edges() >= SPLIT_READ_MIN_EDGES
        && std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2
}

/// A guard fraction at 0, at or above 1, exactly 0.4 or 0.5, or
/// anywhere between.
fn random_fraction(rng: &mut SmallRng) -> f64 {
    match rng.gen_range(0..5u32) {
        0 => 0.0,
        1 => 1.0 + f64::from(rng.gen_range(0..3u32)) * 0.25,
        2 => 0.4,
        3 => 0.5,
        _ => rng.gen_f64(),
    }
}

/// Every policy at its defaults, J9 without its dynamic heuristics, and
/// random variants of the three that guard. The random ones take hot
/// and cold limits at or near 0, so that the small sites of a large
/// graph reach their guard rules.
fn policies(rng: &mut SmallRng) -> Vec<Box<dyn InlinePolicy>> {
    let mut out: Vec<Box<dyn InlinePolicy>> = vec![
        Box::new(NewLinearPolicy::default()),
        Box::new(OldJikesPolicy::default()),
        Box::new(J9Policy::default()),
        Box::new(J9Policy::static_only()),
        Box::new(TrivialOnlyPolicy),
    ];
    for _ in 0..2 {
        out.push(Box::new(NewLinearPolicy {
            guard_fraction: random_fraction(rng),
            max_guards: rng.gen_range(0..4usize),
            ..NewLinearPolicy::default()
        }));
        out.push(Box::new(OldJikesPolicy {
            hot_edge_pct: f64::from(rng.gen_range(0..2u32)) * 1e-4,
            mono_fraction: random_fraction(rng),
            ..OldJikesPolicy::default()
        }));
        out.push(Box::new(J9Policy {
            dynamic: true,
            cold_pct: 0.0,
            hot_pct: f64::from(rng.gen_range(0..2u32)) * 1e-4,
            guard_fraction: random_fraction(rng),
            max_guards: rng.gen_range(0..4usize),
            ..J9Policy::default()
        }));
    }
    out
}

/// Holds every read of `edges` to the serial oracle: the snapshot, its
/// re-encode, the plan under every policy of [`policies`], and the
/// aggregator's served snapshot and plan after the same records and one
/// decay epoch.
fn check(label: &str, edges: &[(CallEdge, f64)]) {
    let g = decayed(edges);
    let policy = NewLinearPolicy::default();

    let snapshot = DcgCodec::encode_snapshot(&g);
    let want = oracle::encode_snapshot(&g);
    assert!(
        snapshot == want,
        "{label}: snapshot bytes differ from one pass"
    );
    let reencoded = DcgCodec::encode_snapshot(
        &DcgCodec::decode_snapshot(&snapshot).expect("a served snapshot decodes"),
    );
    assert!(reencoded == snapshot, "{label}: re-encode differs");

    for policy in policies(&mut SmallRng::seed_from_u64(case_seed(label, 0))) {
        let plan = build_plan(&g, policy.as_ref(), 7);
        let want_plan = oracle::build_plan(&g, policy.as_ref(), 7);
        assert!(
            plan == want_plan,
            "{label}: plan under {policy:?} differs from one pass"
        );
        assert!(
            DcgCodec::encode_plan(&plan) == DcgCodec::encode_plan(&want_plan),
            "{label}: plan bytes under {policy:?} differ"
        );
    }

    let agg = ShardedAggregator::new(AggregatorConfig {
        decay_factor: 0.5,
        min_weight: 0.0,
    });
    agg.ingest(&DcgFrame {
        kind: FrameKind::Delta,
        edges: edges.to_vec(),
    });
    agg.advance_epoch();
    assert!(
        *agg.encoded_snapshot() == want,
        "{label}: served snapshot differs"
    );
    let served = DcgCodec::decode_plan(&agg.encoded_plan()).expect("a served plan decodes");
    let want_served = oracle::build_plan(&g, &policy, agg.generation());
    assert!(
        *agg.encoded_plan() == DcgCodec::encode_plan(&want_served),
        "{label}: served plan differs"
    );
    assert_eq!(served.entries.len(), want_served.entries.len());
}

/// `n` edges, one per site (every position a site boundary), callers
/// and sites dense, integral weights.
fn one_per_site(n: usize) -> Vec<(CallEdge, f64)> {
    (0..n as u32)
        .map(|i| (edge(i / 8, i % 8, i % 5), f64::from(1 + i % 9)))
        .collect()
}

/// Random site runs of 1–`max_run` callees, with integral, fractional
/// (the raw-`f64` tag) and decaying-to-zero weights mixed.
fn random_runs(rng: &mut SmallRng, n: usize, max_run: u32) -> Vec<(CallEdge, f64)> {
    let mut out = Vec::with_capacity(n);
    let (mut caller, mut site) = (0u32, 0u32);
    while out.len() < n {
        let run = rng.gen_range(1..max_run + 1);
        let mut callee = rng.gen_range(0..4u32);
        for _ in 0..run {
            if out.len() == n {
                break;
            }
            let w = match rng.gen_range(0..10u32) {
                0 => DECAYS_TO_ZERO,
                1..=3 => f64::from(rng.gen_range(1..1000u32)) + 0.5,
                _ => f64::from(2 * rng.gen_range(1..1000u32)),
            };
            out.push((edge(caller, site, callee), w));
            callee += rng.gen_range(1..50u32);
        }
        if rng.gen_range(0..4u32) == 0 {
            caller += rng.gen_range(1..3u32);
            site = rng.gen_range(0..3u32);
        } else {
            site += 1;
        }
    }
    out
}

#[test]
fn graphs_either_side_of_the_threshold_read_as_one_pass() {
    let mut rng = SmallRng::seed_from_u64(0x5EED_5917);
    for n in [
        SPLIT_READ_MIN_EDGES - 1,
        SPLIT_READ_MIN_EDGES,
        SPLIT_READ_MIN_EDGES + 1,
        3 * SPLIT_READ_MIN_EDGES + 7,
    ] {
        let g = decayed(&one_per_site(n));
        assert_eq!(g.read_cut().is_some(), splits(&g), "n = {n}");
        check(&format!("one per site, n = {n}"), &one_per_site(n));
        for max_run in [3, 40] {
            let edges = random_runs(&mut rng, n, max_run);
            check(&format!("random runs ≤ {max_run}, n = {n}"), &edges);
        }
    }
}

#[test]
fn the_cut_never_falls_inside_a_site_run() {
    let mut rng = SmallRng::seed_from_u64(77);
    for _ in 0..8 {
        let g = decayed(&random_runs(&mut rng, SPLIT_READ_MIN_EDGES + 999, 64));
        let order: Vec<CallEdge> = g.iter().map(|(e, _)| *e).collect();
        if let Some(cut) = g.read_cut() {
            let (a, b) = (order[cut - 1], order[cut]);
            assert!(
                (a.caller, a.site) != (b.caller, b.site),
                "cut {cut} inside a run"
            );
        }
    }
}

#[test]
fn a_site_run_straddling_the_midpoint_moves_the_cut_past_it() {
    let n = 2 * SPLIT_READ_MIN_EDGES;
    let (start, len) = (n / 2 - 600, 1001);
    let edges: Vec<(CallEdge, f64)> = (0..n as u32)
        .map(|i| {
            let i = i as usize;
            let e = if i < start {
                edge(1, i as u32, 3)
            } else if i < start + len {
                edge(2, 0, i as u32)
            } else {
                edge(3, i as u32, 3)
            };
            (e, 1.0 + (i % 7) as f64 * 2.0)
        })
        .collect();
    let g = decayed(&edges);
    if splits(&g) {
        assert_eq!(
            g.read_cut(),
            Some(start + len),
            "first boundary after the middle"
        );
    }
    check("straddling run", &edges);
}

#[test]
fn one_site_holding_every_edge_is_read_whole() {
    let n = SPLIT_READ_MIN_EDGES + 100;
    let edges: Vec<(CallEdge, f64)> = (0..n as u32)
        .map(|i| (edge(9, 4, i), f64::from(2 + 2 * (i % 13))))
        .collect();
    assert_eq!(decayed(&edges).read_cut(), None, "no boundary, no cut");
    check("one site", &edges);
}

#[test]
fn a_site_boundary_only_before_the_middle_is_still_a_cut() {
    let n = SPLIT_READ_MIN_EDGES + 100;
    let edges: Vec<(CallEdge, f64)> = (0..n as u32)
        .map(|i| match i {
            0..=9 => (edge(1, 0, i), 4.0),
            _ => (edge(1, 1, i), 6.0),
        })
        .collect();
    let g = decayed(&edges);
    if splits(&g) {
        assert_eq!(g.read_cut(), Some(10));
    }
    check("boundary before the middle", &edges);
}

#[test]
fn zero_weight_records_at_the_cut_keep_steps_and_count() {
    let n = 2 * SPLIT_READ_MIN_EDGES;
    let mid = n / 2;
    let g = decayed(&one_per_site(n));
    if splits(&g) {
        assert_eq!(g.read_cut(), Some(mid), "every position is a boundary");
    }
    let zeroed = |range: std::ops::Range<usize>| {
        let mut edges = one_per_site(n);
        for rec in &mut edges[range] {
            rec.1 = DECAYS_TO_ZERO;
        }
        edges
    };
    check("zeros ending the first half", &zeroed(mid - 5..mid));
    check("zeros opening the second half", &zeroed(mid..mid + 5));
    check("zeros on both sides of the cut", &zeroed(mid - 3..mid + 3));
    check("zeros filling the first half", &zeroed(0..mid));
    check("zeros filling the second half", &zeroed(mid..n));
    check("zeros everywhere", &zeroed(0..n));
    // Enough zeros that the count's varint is a byte shorter than the
    // edge count's (2^14 needs 3 bytes, what remains 2).
    check("count shrinks a byte", &zeroed(mid - 10..mid + 10));
}

#[test]
fn fractional_weights_take_the_raw_tag_in_both_halves() {
    let n = SPLIT_READ_MIN_EDGES + 4_321;
    let edges: Vec<(CallEdge, f64)> = (0..n as u32)
        .map(|i| (edge(i / 3, i % 3, 7), f64::from(i) + 0.5))
        .collect();
    let g = decayed(&edges);
    assert!(g.iter().all(|(_, w)| w.fract() != 0.0));
    check("fractional", &edges);
}

#[test]
fn a_caller_change_at_the_cut_writes_a_ten_byte_step() {
    let n = 2 * SPLIT_READ_MIN_EDGES;
    let mid = n / 2;
    // Caller 5's sites 0..mid, then caller 6's sites 0..: the step at
    // the cut is 2^64 less (mid - 1)·2^32, ten LEB128 bytes.
    let edges: Vec<(CallEdge, f64)> = (0..n)
        .map(|i| {
            let (caller, site) = if i < mid { (5, i) } else { (6, i - mid) };
            (edge(caller, site as u32, 1), 2.0)
        })
        .collect();
    let g = decayed(&edges);
    if splits(&g) {
        assert_eq!(g.read_cut(), Some(mid));
    }
    check("caller change at the cut", &edges);
    // Header (count 2^15: 3 bytes), the first key absolute (67 bits: 10
    // bytes), n - 2 site steps of 2^32 (5 bytes), the 10-byte caller
    // step, and one byte per weight (1.0).
    let bytes = DcgCodec::encode_snapshot(&g);
    assert_eq!(bytes.len(), 4 + 2 + 3 + 10 + (n - 2) * 5 + 10 + n);
}

/// Sites whose receivers tie: every site's receivers hold one weight
/// (ties broken by callee), or split it so that fractions land exactly
/// on the 0.4 and 0.5 floors or on 0.9.
fn tied_sites(n: usize) -> Vec<(CallEdge, f64)> {
    const SHAPES: [&[f64]; 8] = [
        &[6.0],
        &[4.0, 4.0],
        &[2.0, 2.0, 2.0],
        &[2.0, 2.0, 2.0, 2.0, 2.0],
        &[4.0, 4.0, 2.0],
        &[2.0, 4.0, 4.0],
        &[18.0, 2.0],
        &[2.0, 18.0],
    ];
    let mut out = Vec::with_capacity(n);
    let mut site = 0u32;
    while out.len() < n {
        let shape = SHAPES[site as usize % SHAPES.len()];
        for (callee, &w) in (3u32..).step_by(5).zip(shape) {
            if out.len() < n {
                out.push((
                    edge(site / 64, site % 64, callee),
                    w * f64::from(1 + site % 3),
                ));
            }
        }
        site += 1;
    }
    out
}

#[test]
fn tied_receivers_plan_as_the_full_sort_under_every_policy() {
    for n in [40, SPLIT_READ_MIN_EDGES + 17] {
        check(&format!("tied sites, n = {n}"), &tied_sites(n));
    }
}

#[test]
fn the_empty_graph_reads_as_one_pass() {
    check("empty", &[]);
    let g = DynamicCallGraph::new();
    assert_eq!(g.read_cut(), None);
    assert!(build_plan(&g, &NewLinearPolicy::default(), 0).is_empty());
}
