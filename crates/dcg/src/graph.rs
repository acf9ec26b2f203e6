//! The weighted dynamic call graph.

use crate::edge::CallEdge;
use crate::hash::EdgeHashBuilder;
use cbs_bytecode::{CallSiteId, MethodId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A dynamic call graph: observed call edges with sample weights.
///
/// Weights are `f64` so the graph can represent exact counts (exhaustive
/// profiling), sample counts (sampling profilers) and decayed weights
/// (continuous profiling) uniformly.
///
/// # Weight contract
///
/// Only *positive, finite* weights are stored. Recording a zero,
/// negative, infinite or NaN weight is a silent no-op in every build
/// profile — callers that want to reject such weights must validate
/// before calling [`record`](Self::record). (Historically debug builds
/// asserted while release builds accepted; the behavior is now uniform.)
///
/// # Storage layout and determinism
///
/// Edges live in an indexed store tuned for the profiling hot path: a
/// hash map interns each edge to a dense slot, and weights live in a flat
/// `Vec<f64>`, so the per-sample cost of [`record_sample`] is one hash
/// lookup and one add — no tree rebalancing, no ordered insertion.
///
/// Determinism is preserved by the *sorted-at-boundary invariant*: a
/// permutation of the slots in ascending edge order is maintained on
/// (rare) first-insertions — eagerly for single records, amortized for
/// bulk ingestion ([`record_all_deferred`] defers it entirely until
/// [`seal`], which always produces the same unique permutation) — and
/// **every** iteration and floating-point reduction — [`iter`],
/// [`merge`], totals, per-method and per-site sums — walks edges in
/// that order. Iteration order is therefore the edge
/// order, exactly as with the previous `BTreeMap` store: every reduction
/// over a graph visits edges identically on every run and on every shard
/// of a parallel experiment, which is what keeps the sharded experiment
/// runner's output bit-identical to the serial path.
///
/// [`record_sample`]: Self::record_sample
/// [`iter`]: Self::iter
/// [`merge`]: Self::merge
/// [`record_all_deferred`]: Self::record_all_deferred
/// [`seal`]: Self::seal
#[derive(Debug, Clone, Default)]
pub struct DynamicCallGraph {
    /// Edge → dense slot. Keyed by a fast deterministic hasher: the map
    /// is a pure index whose iteration order is never observed (all
    /// walks go through `sorted`), so swapping SipHash out cannot
    /// change any output bit.
    index: HashMap<CallEdge, u32, EdgeHashBuilder>,
    /// Slot → edge, in first-observation order.
    edges: Vec<CallEdge>,
    /// Slot → accumulated weight (parallel to `edges`).
    weights: Vec<f64>,
    /// Slots in ascending edge order (the sorted-at-boundary invariant).
    sorted: Vec<u32>,
    /// Freshly interned slots not yet merged into `sorted` — the
    /// unsealed tail of a deferred bulk ingest (see [`seal`](Self::seal)).
    /// Empty whenever the graph is read.
    pending: Vec<u32>,
    /// Slot → weight as of the last [`drain_delta`](Self::drain_delta)
    /// call (lazily grown; empty until the first drain).
    flushed: Vec<f64>,
    total: f64,
}

impl DynamicCallGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `edges` distinct edges, so
    /// a producer that knows its size up front (a decoder, a merge)
    /// fills the store without rehashing or regrowing.
    pub fn with_capacity(edges: usize) -> Self {
        Self {
            index: HashMap::with_capacity_and_hasher(edges, EdgeHashBuilder),
            edges: Vec::with_capacity(edges),
            weights: Vec::with_capacity(edges),
            sorted: Vec::with_capacity(edges),
            ..Self::default()
        }
    }

    /// Adds `weight` to `edge`'s slot, interning a new slot if needed.
    /// Does not touch `total`; callers keep it consistent.
    fn bump(&mut self, edge: CallEdge, weight: f64) {
        match self.index.entry(edge) {
            Entry::Occupied(slot) => self.weights[*slot.get() as usize] += weight,
            Entry::Vacant(v) => {
                let slot = self.edges.len() as u32;
                v.insert(slot);
                // Producers that already walk edges in ascending order
                // (decoders, merges) only ever append to the permutation.
                let append = self
                    .sorted
                    .last()
                    .is_none_or(|&last| self.edges[last as usize] < edge);
                self.edges.push(edge);
                self.weights.push(weight);
                if append {
                    self.sorted.push(slot);
                } else {
                    let edges = &self.edges;
                    let pos = self.sorted.partition_point(|&s| edges[s as usize] < edge);
                    self.sorted.insert(pos, slot);
                }
            }
        }
    }

    /// [`bump`](Self::bump) with the sorted-permutation maintenance
    /// deferred: freshly interned slots go onto `self.pending` instead
    /// of being spliced into `sorted` one by one; [`seal`](Self::seal)
    /// restores the invariant once per batch (or once per *many*
    /// batches — the profile server seals a shard only when it is about
    /// to be read). A deferred ingest of `k` new edges costs `O(k)`
    /// hash inserts now plus one `O(n + k log k)` seal later, instead
    /// of the `O(n·k)` of `k` eager vector splices.
    fn bump_deferred(&mut self, edge: CallEdge, weight: f64) {
        match self.index.entry(edge) {
            Entry::Occupied(slot) => self.weights[*slot.get() as usize] += weight,
            Entry::Vacant(v) => {
                let slot = self.edges.len() as u32;
                v.insert(slot);
                self.edges.push(edge);
                self.weights.push(weight);
                self.pending.push(slot);
            }
        }
    }

    /// Returns `true` when the sorted-at-boundary invariant currently
    /// holds (no deferred slots outstanding). Reads that walk the
    /// sorted permutation require a sealed graph.
    pub fn is_sealed(&self) -> bool {
        self.pending.is_empty()
    }

    /// Restores the sorted-at-boundary invariant after deferred bulk
    /// ingestion ([`record_all_deferred`](Self::record_all_deferred)):
    /// merges the pending slots into the sorted permutation. Edges are
    /// unique per slot (pending slots are freshly interned, so no
    /// pending edge equals an existing one), so the result is the
    /// *unique* ascending-edge permutation — identical to having
    /// spliced each slot in eagerly, no matter how the ingestion was
    /// batched. Idempotent and O(1) when already sealed.
    pub fn seal(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        // Materialize packed comparison keys once (`pending` holds
        // slots in interning order, so this reads `edges` forward) —
        // sorting gathered 12-byte edges through a key closure would
        // re-load a random slot per comparison.
        let mut keyed: Vec<(u128, u32)> = pending
            .iter()
            .map(|&s| (self.edges[s as usize].sort_key(), s))
            .collect();
        keyed.sort_unstable();
        let old = &self.sorted;
        let edges = &self.edges;
        let k = keyed.len();
        let n = old.len();
        let mut merged = Vec::with_capacity(n + k);
        if n > 0 && k * (n.ilog2() as usize + 1) < n {
            // Few new edges, large permutation: gallop. Each pending
            // slot's position is found by binary search and the run of
            // old slots before it is bulk-copied — `O(k log n)` gathered
            // comparisons plus one memcpy of the permutation.
            let mut i = 0;
            for &(key, slot) in &keyed {
                let run = old[i..].partition_point(|&s| edges[s as usize].sort_key() < key);
                merged.extend_from_slice(&old[i..i + run]);
                merged.push(slot);
                i += run;
            }
            merged.extend_from_slice(&old[i..]);
        } else {
            // Comparable sizes: element-wise linear merge, `O(n + k)`.
            let (mut i, mut j) = (0, 0);
            while i < n && j < k {
                if edges[old[i] as usize].sort_key() < keyed[j].0 {
                    merged.push(old[i]);
                    i += 1;
                } else {
                    merged.push(keyed[j].1);
                    j += 1;
                }
            }
            merged.extend_from_slice(&old[i..]);
            merged.extend(keyed[j..].iter().map(|&(_, s)| s));
        }
        self.sorted = merged;
    }

    /// Records `weight` additional observations of `edge`.
    ///
    /// Non-positive and non-finite weights are ignored (see the type-level
    /// weight contract); this holds identically in debug and release
    /// builds.
    pub fn record(&mut self, edge: CallEdge, weight: f64) {
        if weight <= 0.0 || !weight.is_finite() {
            return;
        }
        self.bump(edge, weight);
        self.total += weight;
    }

    /// Records a single observation of `edge`.
    pub fn record_sample(&mut self, edge: CallEdge) {
        self.record(edge, 1.0);
    }

    /// Records one observation of every edge in `edges`, in order.
    ///
    /// Equivalent to calling [`record_sample`](Self::record_sample) per
    /// edge; this is the flush half of a buffer-then-flush sampling
    /// profiler (CBS buffers a window's samples and flushes them here
    /// when the window closes). Because unit weights are exactly
    /// representable, the resulting graph — including the exact
    /// floating-point total — depends only on the multiset of edges, not
    /// on how the batch was split.
    pub fn record_batch(&mut self, edges: &[CallEdge]) {
        for &edge in edges {
            self.bump_deferred(edge, 1.0);
        }
        self.seal();
        self.total += edges.len() as f64;
    }

    /// Records a batch of weighted `(edge, weight)` observations in
    /// order — the bulk entry point of the fleet profile server's
    /// ingest path.
    ///
    /// Exactly equivalent to calling [`record`](Self::record) per
    /// record: the same invalid weights are ignored and the same
    /// floating-point additions happen in the same order, so the
    /// resulting graph — weights, iteration order, and the exact
    /// running total — is bit-identical. The difference is purely
    /// mechanical: the sorted permutation is rebuilt once per batch
    /// instead of once per newly observed edge, keeping bulk ingestion
    /// linear in the batch instead of quadratic in new edges. In the
    /// steady state (no new edges) this path performs no allocation.
    pub fn record_all(&mut self, records: &[(CallEdge, f64)]) {
        self.record_all_deferred(records);
        self.seal();
    }

    /// [`record_all`](Self::record_all) without the final
    /// [`seal`](Self::seal): weights (and the running total) are fully
    /// applied and point lookups ([`weight`](Self::weight)) see them,
    /// but the sorted permutation is left stale until the caller seals.
    ///
    /// This is the aggregator's write-side fast path: a shard absorbing
    /// thousands of frames between snapshot pulls pays for permutation
    /// maintenance once per *pull* instead of once per frame. Every
    /// ordered read (iteration, merge, drain, totals recomputation)
    /// requires a sealed graph — debug builds assert it.
    pub fn record_all_deferred(&mut self, records: &[(CallEdge, f64)]) {
        for &(edge, weight) in records {
            if weight <= 0.0 || !weight.is_finite() {
                continue;
            }
            self.bump_deferred(edge, weight);
            self.total += weight;
        }
    }

    /// Absolute weight of `edge` (0 if absent).
    pub fn weight(&self, edge: &CallEdge) -> f64 {
        self.index
            .get(edge)
            .map_or(0.0, |&slot| self.weights[slot as usize])
    }

    /// `edge`'s share of the total weight, in **percent** (0–100).
    ///
    /// This is the `Weight(e, DCG)` quantity of the paper's overlap metric.
    pub fn weight_percent(&self, edge: &CallEdge) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            100.0 * self.weight(edge) / self.total
        }
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` when no edge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates over `(edge, weight)` pairs in ascending edge order.
    ///
    /// Requires a sealed graph (the default everywhere except between a
    /// [`record_all_deferred`](Self::record_all_deferred) and its
    /// [`seal`](Self::seal); debug builds assert).
    pub fn iter(&self) -> impl Iterator<Item = (&CallEdge, f64)> + '_ {
        debug_assert!(
            self.is_sealed(),
            "ordered read of an unsealed graph: call seal() after record_all_deferred()"
        );
        self.sorted
            .iter()
            .map(move |&s| (&self.edges[s as usize], self.weights[s as usize]))
    }

    /// All edges sorted by descending weight (ties broken by edge order,
    /// so the result is deterministic).
    pub fn edges_by_weight(&self) -> Vec<(CallEdge, f64)> {
        let mut v: Vec<(CallEdge, f64)> = self.iter().map(|(e, w)| (*e, w)).collect();
        v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }

    /// The `n` heaviest edges.
    pub fn top_edges(&self, n: usize) -> Vec<(CallEdge, f64)> {
        let mut v = self.edges_by_weight();
        v.truncate(n);
        v
    }

    /// Edges whose share of total weight is at least `percent` (the old
    /// Jikes inliner's "hot edge" query, with `percent = 1.0`).
    pub fn hot_edges(&self, percent: f64) -> Vec<(CallEdge, f64)> {
        self.edges_by_weight()
            .into_iter()
            .filter(|(e, _)| self.weight_percent(e) >= percent)
            .collect()
    }

    /// Merges another graph's observations into this one.
    ///
    /// Edges are visited in edge order and the total is recomputed from
    /// the merged weights afterwards, so the result — including the exact
    /// floating-point total — depends only on the *multiset* of merged
    /// graphs, not on incidental iteration state. For integer-valued
    /// weights (every sampling and exhaustive profiler records unit
    /// samples) merging is exactly commutative and associative.
    pub fn merge(&mut self, other: &DynamicCallGraph) {
        debug_assert!(other.is_sealed(), "merge source must be sealed");
        for (&e, w) in other
            .sorted
            .iter()
            .map(|&s| (&other.edges[s as usize], other.weights[s as usize]))
        {
            if w > 0.0 {
                self.bump_deferred(e, w);
            }
        }
        self.seal();
        self.recompute_total();
    }

    /// Merges every graph of `shards` into one, in iteration order.
    ///
    /// This is the deterministic reduction step of the parallel
    /// experiment runner and of the profile server's snapshot rebuild:
    /// shards are always passed in stable order, so the merged graph
    /// (weights *and* total) is identical to what the serial path would
    /// have accumulated.
    ///
    /// Bit-identical to folding [`merge`](Self::merge) over `shards`
    /// from an empty graph, but done as one k-way merge of the inputs'
    /// sorted permutations: each output edge is met once, in ascending
    /// order, its weight summed over the inputs holding it in input
    /// order, so the result is built append-only into pre-sized storage.
    pub fn merge_all<'a>(shards: impl IntoIterator<Item = &'a DynamicCallGraph>) -> Self {
        /// Past every real key (keys are 96-bit): an exhausted input.
        const EXHAUSTED: u128 = u128::MAX;
        let inputs: Vec<&DynamicCallGraph> = shards.into_iter().collect();
        debug_assert!(
            inputs.iter().all(|g| g.is_sealed()),
            "merge sources must be sealed"
        );
        let head = |g: &DynamicCallGraph, pos: usize| {
            g.sorted
                .get(pos)
                .map_or(EXHAUSTED, |&s| g.edges[s as usize].sort_key())
        };
        let mut out = Self::with_capacity(inputs.iter().map(|g| g.num_edges()).sum());
        let mut pos = vec![0usize; inputs.len()];
        let mut heads: Vec<u128> = inputs.iter().map(|g| head(g, 0)).collect();
        loop {
            let min = heads.iter().copied().min().unwrap_or(EXHAUSTED);
            if min == EXHAUSTED {
                break;
            }
            let mut merged: Option<(CallEdge, f64)> = None;
            for (i, g) in inputs.iter().enumerate() {
                if heads[i] != min {
                    continue;
                }
                let slot = g.sorted[pos[i]] as usize;
                let w = g.weights[slot];
                if w > 0.0 {
                    merged = Some((g.edges[slot], merged.map_or(w, |(_, sum)| sum + w)));
                }
                pos[i] += 1;
                heads[i] = head(g, pos[i]);
            }
            if let Some((edge, w)) = merged {
                out.bump(edge, w);
            }
        }
        out.recompute_total();
        out
    }

    /// Recomputes `total` as the edge-ordered sum of stored weights.
    ///
    /// Keeps the `weight_percent` denominator consistent with the stored
    /// weights after bulk operations, so `overlap(g, g) == 100` holds for
    /// merged graphs to within one rounding step per edge.
    fn recompute_total(&mut self) {
        debug_assert!(self.is_sealed(), "recompute_total needs the sorted order");
        // `Sum<f64>` folds from `-0.0` (the IEEE additive identity), so
        // an empty sum is `-0.0` while a fresh graph's field default is
        // `+0.0`. Adding `+0.0` canonicalizes `-0.0` to `+0.0` and is a
        // bitwise no-op for every other value stored weights can sum to,
        // keeping empty graphs bit-identical however they were produced.
        self.total = self
            .sorted
            .iter()
            .map(|&s| self.weights[s as usize])
            .sum::<f64>()
            + 0.0;
    }

    /// Drains the weight growth since the previous drain, in ascending
    /// edge order.
    ///
    /// Returns `(edge, current_weight - weight_at_last_drain)` for every
    /// edge that gained weight, and marks the current weights as flushed.
    /// The first drain therefore returns the whole graph (a *snapshot* in
    /// the `cbs-profiled` wire format); later drains return only the
    /// increments (*delta* frames). All returned deltas are positive and
    /// finite, so replaying them through [`record`](Self::record) on any
    /// other graph reconstructs this graph's growth exactly: unit samples
    /// sum to exactly representable values, and an arbitrary weight `w`
    /// splits across drains as `w1 + (w - w1)` which
    /// [`record`](Self::record)'s additions re-sum bit-identically.
    ///
    /// Weight *loss* between drains (only possible via [`decay`]) is not
    /// emitted — the flushed mark is silently lowered instead. Decay is an
    /// aggregator-side operation in the profile service; clients that
    /// stream their graphs out must not decay locally.
    ///
    /// [`decay`]: Self::decay
    pub fn drain_delta(&mut self) -> Vec<(CallEdge, f64)> {
        self.seal();
        self.flushed.resize(self.weights.len(), 0.0);
        let mut out = Vec::new();
        for &s in &self.sorted {
            let slot = s as usize;
            let cur = self.weights[slot];
            if cur > self.flushed[slot] {
                out.push((self.edges[slot], cur - self.flushed[slot]));
            }
            self.flushed[slot] = cur;
        }
        out
    }

    /// Multiplies every weight by `factor` (exponential decay for
    /// continuous profiling). Edges whose weight falls below `min_weight`
    /// are dropped.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `factor` is negative or non-finite.
    pub fn decay(&mut self, factor: f64, min_weight: f64) {
        debug_assert!(factor.is_finite() && factor >= 0.0);
        self.seal();
        for w in &mut self.weights {
            *w *= factor;
        }
        if self.weights.iter().any(|w| *w < min_weight) {
            // Rare path: rebuild the store around the surviving edges,
            // preserving first-observation order. Flushed marks travel
            // with their edge through the slot reshuffle.
            let survivors: Vec<(CallEdge, f64, f64)> = self
                .edges
                .iter()
                .zip(&self.weights)
                .enumerate()
                .filter(|(_, (_, &w))| w >= min_weight)
                .map(|(slot, (&e, &w))| (e, w, self.flushed.get(slot).copied().unwrap_or(0.0)))
                .collect();
            let had_flushed = !self.flushed.is_empty();
            self.index.clear();
            self.edges.clear();
            self.weights.clear();
            self.sorted.clear();
            self.flushed.clear();
            for (e, w, f) in survivors {
                self.bump_deferred(e, w);
                if had_flushed {
                    self.flushed.push(f);
                }
            }
            self.seal();
        }
        self.recompute_total();
    }

    /// Total weight flowing out of `caller`.
    pub fn outgoing_weight(&self, caller: MethodId) -> f64 {
        self.iter()
            .filter(|(e, _)| e.caller == caller)
            .map(|(_, w)| w)
            .sum()
    }

    /// Total weight flowing into `callee` (its sampled invocation
    /// frequency).
    pub fn incoming_weight(&self, callee: MethodId) -> f64 {
        self.iter()
            .filter(|(e, _)| e.callee == callee)
            .map(|(_, w)| w)
            .sum()
    }

    /// The distribution of callees observed at one call site, as
    /// `(callee, weight)` sorted by descending weight.
    ///
    /// This is the input to the paper's 40% guarded-inlining rule.
    pub fn site_distribution(&self, site: CallSiteId) -> Vec<(MethodId, f64)> {
        let mut per_callee: HashMap<MethodId, f64> = HashMap::new();
        for (e, w) in self.iter() {
            if e.site == site {
                *per_callee.entry(e.callee).or_insert(0.0) += w;
            }
        }
        let mut v: Vec<(MethodId, f64)> = per_callee.into_iter().collect();
        v.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        v
    }

    /// Weight observed at one call site across all callees.
    pub fn site_weight(&self, site: CallSiteId) -> f64 {
        self.iter()
            .filter(|(e, _)| e.site == site)
            .map(|(_, w)| w)
            .sum()
    }

    /// All distinct call sites with positive weight.
    pub fn sites(&self) -> Vec<CallSiteId> {
        let mut v: Vec<CallSiteId> = self.edges.iter().map(|e| e.site).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Merges two increment batches (as produced by
/// [`DynamicCallGraph::drain_delta`]) into one canonical batch: edges
/// ascending, duplicates summed, non-positive and non-finite increments
/// dropped per the graph weight contract.
///
/// This is the requeue/coalescing primitive of the resilient profile
/// transport: two delta flushes that could not be shipped are merged
/// into a single equivalent flush. Duplicate weights are summed in
/// input order (`a` before `b`, each in its own order), so coalescing
/// is bit-deterministic; for the integral sample counts every profiler
/// in this workspace emits, it is also exactly lossless — replaying the
/// merged batch through [`DynamicCallGraph::record`] yields the same
/// graph as replaying the two originals in order.
pub fn coalesce_increments(a: &[(CallEdge, f64)], b: &[(CallEdge, f64)]) -> Vec<(CallEdge, f64)> {
    let mut records: Vec<(CallEdge, f64)> = a
        .iter()
        .chain(b)
        .filter(|(_, w)| w.is_finite() && *w > 0.0)
        .copied()
        .collect();
    // Stable sort: duplicates keep their input order, so the summation
    // below always adds in the same order.
    records.sort_by_key(|r| r.0);
    records.dedup_by(|later, first| {
        if later.0 == first.0 {
            first.1 += later.1;
            true
        } else {
            false
        }
    });
    records
}

/// Graphs compare as (edge → weight) maps plus the running total, so
/// equality is independent of first-observation order — the same
/// semantics the previous ordered-map store had.
impl PartialEq for DynamicCallGraph {
    fn eq(&self, other: &Self) -> bool {
        self.total == other.total
            && self.edges.len() == other.edges.len()
            && self.iter().eq(other.iter())
    }
}

impl FromIterator<(CallEdge, f64)> for DynamicCallGraph {
    fn from_iter<T: IntoIterator<Item = (CallEdge, f64)>>(iter: T) -> Self {
        let mut g = DynamicCallGraph::new();
        for (e, w) in iter {
            g.record(e, w);
        }
        g
    }
}

impl Extend<(CallEdge, f64)> for DynamicCallGraph {
    fn extend<T: IntoIterator<Item = (CallEdge, f64)>>(&mut self, iter: T) {
        for (e, w) in iter {
            self.record(e, w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(caller: u32, site: u32, callee: u32) -> CallEdge {
        CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(site),
            MethodId::new(callee),
        )
    }

    #[test]
    fn record_accumulates() {
        let mut g = DynamicCallGraph::new();
        g.record_sample(e(0, 0, 1));
        g.record(e(0, 0, 1), 2.0);
        assert_eq!(g.weight(&e(0, 0, 1)), 3.0);
        assert_eq!(g.total_weight(), 3.0);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn zero_weight_is_noop() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 0.0);
        assert!(g.is_empty());
    }

    #[test]
    fn non_positive_and_non_finite_weights_ignored_uniformly() {
        // The documented contract: bad weights are silent no-ops in every
        // build profile (debug builds used to assert; release builds
        // silently accepted — now both ignore).
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), -1.0);
        g.record(e(0, 0, 1), f64::NAN);
        g.record(e(0, 0, 1), f64::INFINITY);
        g.record(e(0, 0, 1), f64::NEG_INFINITY);
        assert!(g.is_empty());
        assert_eq!(g.total_weight(), 0.0);
        // A good weight still lands, and bad ones never perturb totals.
        g.record(e(0, 0, 1), 2.0);
        g.record(e(0, 0, 1), -3.0);
        assert_eq!(g.weight(&e(0, 0, 1)), 2.0);
        assert_eq!(g.total_weight(), 2.0);
    }

    #[test]
    fn record_batch_matches_per_sample_recording() {
        let edges = [e(1, 0, 2), e(0, 0, 1), e(1, 0, 2), e(2, 1, 0)];
        let mut batched = DynamicCallGraph::new();
        batched.record_batch(&edges);
        let mut single = DynamicCallGraph::new();
        for &edge in &edges {
            single.record_sample(edge);
        }
        assert_eq!(batched, single);
        assert_eq!(batched.total_weight(), 4.0);
        // Splitting the batch does not change anything either.
        let mut split = DynamicCallGraph::new();
        split.record_batch(&edges[..1]);
        split.record_batch(&edges[1..]);
        split.record_batch(&[]);
        assert_eq!(split, single);
    }

    #[test]
    fn record_all_is_bit_identical_to_per_record_recording() {
        // Interleaves new edges, repeats, invalid weights, and
        // non-integral weights so both the deferred-permutation path and
        // the weight contract are exercised.
        let records: Vec<(CallEdge, f64)> = (0..200u32)
            .map(|i| {
                let w = match i % 5 {
                    0 => f64::from(i) + 0.25,
                    1 => -1.0,     // ignored
                    2 => f64::NAN, // ignored
                    _ => f64::from(i % 13 + 1),
                };
                (e(i % 17, i % 7, i % 11), w)
            })
            .collect();
        let mut batched = DynamicCallGraph::new();
        batched.record_all(&records);
        let mut single = DynamicCallGraph::new();
        for &(edge, w) in &records {
            single.record(edge, w);
        }
        assert_eq!(batched, single);
        assert_eq!(
            batched.total_weight().to_bits(),
            single.total_weight().to_bits()
        );
        let batched_iter: Vec<(CallEdge, u64)> =
            batched.iter().map(|(e, w)| (*e, w.to_bits())).collect();
        let single_iter: Vec<(CallEdge, u64)> =
            single.iter().map(|(e, w)| (*e, w.to_bits())).collect();
        assert_eq!(batched_iter, single_iter, "iteration order and weight bits");
        // Splitting the batch arbitrarily changes nothing either.
        let mut split = DynamicCallGraph::new();
        split.record_all(&records[..37]);
        split.record_all(&records[37..]);
        split.record_all(&[]);
        assert_eq!(
            split.total_weight().to_bits(),
            single.total_weight().to_bits()
        );
        assert_eq!(split, single);
    }

    #[test]
    fn deferred_permutation_merge_keeps_iter_sorted_after_bulk_ops() {
        // Descending-key batches force merge_pending to interleave new
        // slots ahead of existing ones.
        let mut g = DynamicCallGraph::new();
        g.record_all(&[(e(9, 0, 0), 1.0), (e(5, 0, 0), 2.0)]);
        g.record_all(&[(e(7, 0, 0), 3.0), (e(1, 0, 0), 4.0), (e(5, 0, 0), 1.0)]);
        g.record_batch(&[e(3, 0, 0), e(0, 0, 0)]);
        let order: Vec<CallEdge> = g.iter().map(|(edge, _)| *edge).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.weight(&e(5, 0, 0)), 3.0);
        assert_eq!(g.total_weight(), 13.0);
    }

    #[test]
    fn weight_percent_normalizes() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 3.0);
        g.record(e(0, 1, 2), 1.0);
        assert!((g.weight_percent(&e(0, 0, 1)) - 75.0).abs() < 1e-12);
        assert!((g.weight_percent(&e(0, 1, 2)) - 25.0).abs() < 1e-12);
        assert_eq!(g.weight_percent(&e(9, 9, 9)), 0.0);
    }

    #[test]
    fn empty_graph_percent_is_zero() {
        let g = DynamicCallGraph::new();
        assert_eq!(g.weight_percent(&e(0, 0, 1)), 0.0);
    }

    #[test]
    fn edges_by_weight_is_sorted_and_deterministic() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 1.0);
        g.record(e(0, 1, 2), 5.0);
        g.record(e(1, 2, 3), 1.0);
        let v = g.edges_by_weight();
        assert_eq!(v[0].0, e(0, 1, 2));
        // Ties broken by edge order.
        assert_eq!(v[1].0, e(0, 0, 1));
        assert_eq!(v[2].0, e(1, 2, 3));
        assert_eq!(g.top_edges(1).len(), 1);
    }

    #[test]
    fn hot_edges_threshold() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 99.0);
        g.record(e(0, 1, 2), 1.0);
        let hot = g.hot_edges(1.0);
        assert_eq!(hot.len(), 2);
        let hot = g.hot_edges(2.0);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].0, e(0, 0, 1));
    }

    #[test]
    fn merge_sums_weights() {
        let mut a = DynamicCallGraph::new();
        a.record(e(0, 0, 1), 1.0);
        let mut b = DynamicCallGraph::new();
        b.record(e(0, 0, 1), 2.0);
        b.record(e(1, 1, 2), 4.0);
        a.merge(&b);
        assert_eq!(a.weight(&e(0, 0, 1)), 3.0);
        assert_eq!(a.weight(&e(1, 1, 2)), 4.0);
        assert_eq!(a.total_weight(), 7.0);
    }

    #[test]
    fn merge_all_equals_sequential_merges() {
        let shards: Vec<DynamicCallGraph> = (0..4)
            .map(|i| {
                let mut g = DynamicCallGraph::new();
                g.record(e(i, 0, 1), f64::from(i + 1));
                g.record(e(0, 0, 1), 2.0);
                g
            })
            .collect();
        let merged = DynamicCallGraph::merge_all(&shards);
        let mut seq = DynamicCallGraph::new();
        for s in &shards {
            seq.merge(s);
        }
        assert_eq!(merged, seq);
        assert_eq!(merged.total_weight(), seq.total_weight());
    }

    #[test]
    fn merge_is_commutative_and_associative_for_integer_weights() {
        let mk = |edges: &[(u32, u32, u32, f64)]| {
            let mut g = DynamicCallGraph::new();
            for &(c, s, t, w) in edges {
                g.record(e(c, s, t), w);
            }
            g
        };
        let a = mk(&[(0, 0, 1, 3.0), (1, 1, 2, 7.0)]);
        let b = mk(&[(0, 0, 1, 2.0), (2, 2, 3, 5.0)]);
        let c = mk(&[(1, 1, 2, 1.0), (0, 0, 1, 4.0)]);

        let abc = DynamicCallGraph::merge_all([&a, &b, &c]);
        let cba = DynamicCallGraph::merge_all([&c, &b, &a]);
        assert_eq!(abc, cba, "merge order must not matter");

        let ab_then_c = {
            let mut x = DynamicCallGraph::merge_all([&a, &b]);
            x.merge(&c);
            x
        };
        let a_then_bc = {
            let mut x = a.clone();
            x.merge(&DynamicCallGraph::merge_all([&b, &c]));
            x
        };
        assert_eq!(ab_then_c, a_then_bc, "merge grouping must not matter");
        assert_eq!(abc.total_weight(), 22.0);
    }

    #[test]
    fn iteration_is_edge_ordered() {
        let mut g = DynamicCallGraph::new();
        g.record(e(2, 0, 0), 1.0);
        g.record(e(0, 1, 0), 1.0);
        g.record(e(0, 0, 1), 1.0);
        let order: Vec<CallEdge> = g.iter().map(|(edge, _)| *edge).collect();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(order, sorted, "iter() must be deterministic edge order");
    }

    #[test]
    fn equality_ignores_observation_order() {
        let mut a = DynamicCallGraph::new();
        a.record(e(2, 0, 0), 1.0);
        a.record(e(0, 0, 1), 2.0);
        let mut b = DynamicCallGraph::new();
        b.record(e(0, 0, 1), 2.0);
        b.record(e(2, 0, 0), 1.0);
        assert_eq!(a, b, "first-observation order must not affect equality");
        b.record(e(2, 0, 0), 0.5);
        assert_ne!(a, b);
    }

    #[test]
    fn decay_scales_and_prunes() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 10.0);
        g.record(e(0, 1, 2), 0.5);
        g.decay(0.5, 0.5);
        assert_eq!(g.weight(&e(0, 0, 1)), 5.0);
        assert_eq!(g.weight(&e(0, 1, 2)), 0.0, "pruned below min weight");
        assert_eq!(g.num_edges(), 1);
        assert!((g.total_weight() - 5.0).abs() < 1e-12);
        // Pruned edges can be re-observed afresh.
        g.record(e(0, 1, 2), 2.0);
        assert_eq!(g.weight(&e(0, 1, 2)), 2.0);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn drain_delta_first_drain_is_a_snapshot() {
        let mut g = DynamicCallGraph::new();
        g.record(e(1, 0, 2), 3.0);
        g.record(e(0, 0, 1), 1.0);
        let d = g.drain_delta();
        // Full graph, ascending edge order.
        assert_eq!(d, vec![(e(0, 0, 1), 1.0), (e(1, 0, 2), 3.0)]);
        // Nothing changed since: empty delta.
        assert!(g.drain_delta().is_empty());
    }

    #[test]
    fn drain_delta_emits_only_growth() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 2.0);
        g.drain_delta();
        g.record(e(0, 0, 1), 0.5);
        g.record(e(2, 1, 3), 4.0);
        let d = g.drain_delta();
        assert_eq!(d, vec![(e(0, 0, 1), 0.5), (e(2, 1, 3), 4.0)]);
        assert!(g.drain_delta().is_empty());
    }

    #[test]
    fn drain_delta_replay_reconstructs_growth_exactly() {
        let mut src = DynamicCallGraph::new();
        let mut dst = DynamicCallGraph::new();
        for round in 0..5u32 {
            for i in 0..20u32 {
                src.record(e(i % 7, i % 3, i % 5), f64::from(round * i + 1) * 0.25);
            }
            for (edge, dw) in src.drain_delta() {
                dst.record(edge, dw);
            }
        }
        assert_eq!(src, dst, "replayed deltas must rebuild the source graph");
        assert_eq!(src.total_weight().to_bits(), dst.total_weight().to_bits());
    }

    #[test]
    fn drain_delta_survives_decay_rebuild() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 8.0);
        g.record(e(1, 1, 2), 0.5);
        g.drain_delta();
        // Prune e(1,1,2); slots are rebuilt, flushed marks must follow
        // their edges (and be lowered to the decayed weights).
        g.decay(0.5, 0.5);
        assert_eq!(g.num_edges(), 1);
        // No growth since the drain: decay loss is not emitted.
        assert!(g.drain_delta().is_empty());
        g.record(e(0, 0, 1), 1.0);
        g.record(e(1, 1, 2), 2.0);
        let d = g.drain_delta();
        assert_eq!(d, vec![(e(0, 0, 1), 1.0), (e(1, 1, 2), 2.0)]);
    }

    #[test]
    fn recomputed_empty_total_is_canonical_positive_zero() {
        // merge/decay recompute the total via `Sum<f64>`, whose identity
        // is `-0.0`; the canonicalization keeps empty graphs bitwise
        // identical to a fresh graph however they were reached.
        let empty_merged = DynamicCallGraph::merge_all([&DynamicCallGraph::new()]);
        assert_eq!(empty_merged.total_weight().to_bits(), 0.0f64.to_bits());
        let mut decayed_empty = DynamicCallGraph::new();
        decayed_empty.record(e(0, 0, 1), 1.0);
        decayed_empty.decay(0.0, 0.5);
        assert!(decayed_empty.is_empty());
        assert_eq!(decayed_empty.total_weight().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn coalesce_increments_is_lossless_and_canonical() {
        let a = vec![(e(1, 0, 2), 2.0), (e(0, 0, 1), 1.0)];
        let b = vec![
            (e(1, 0, 2), 3.0),
            (e(2, 1, 3), 4.0),
            (e(9, 9, 9), f64::NAN), // dropped per weight contract
            (e(9, 9, 9), -1.0),     // dropped
        ];
        let merged = coalesce_increments(&a, &b);
        assert_eq!(
            merged,
            vec![(e(0, 0, 1), 1.0), (e(1, 0, 2), 5.0), (e(2, 1, 3), 4.0)]
        );
        // Replaying the merged batch equals replaying both originals.
        let mut direct = DynamicCallGraph::new();
        for &(edge, w) in a.iter().chain(&b) {
            direct.record(edge, w);
        }
        let mut via_merged = DynamicCallGraph::new();
        for &(edge, w) in &merged {
            via_merged.record(edge, w);
        }
        assert_eq!(direct, via_merged);
        // Coalescing a single batch canonicalizes it.
        assert_eq!(
            coalesce_increments(&a, &[]),
            vec![(e(0, 0, 1), 1.0), (e(1, 0, 2), 2.0)]
        );
    }

    #[test]
    fn incoming_outgoing() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 1.0);
        g.record(e(0, 1, 2), 2.0);
        g.record(e(2, 2, 1), 4.0);
        assert_eq!(g.outgoing_weight(MethodId::new(0)), 3.0);
        assert_eq!(g.incoming_weight(MethodId::new(1)), 5.0);
        assert_eq!(g.incoming_weight(MethodId::new(9)), 0.0);
    }

    #[test]
    fn site_distribution_sorts_by_weight() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 5, 1), 1.0);
        g.record(e(0, 5, 2), 9.0);
        g.record(e(0, 6, 3), 100.0);
        let d = g.site_distribution(CallSiteId::new(5));
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], (MethodId::new(2), 9.0));
        assert_eq!(g.site_weight(CallSiteId::new(5)), 10.0);
        assert_eq!(g.sites(), vec![CallSiteId::new(5), CallSiteId::new(6)]);
    }

    #[test]
    fn from_iterator_and_extend() {
        let g: DynamicCallGraph = vec![(e(0, 0, 1), 2.0), (e(0, 0, 1), 3.0)]
            .into_iter()
            .collect();
        assert_eq!(g.weight(&e(0, 0, 1)), 5.0);
        let mut g2 = DynamicCallGraph::new();
        g2.extend(g.iter().map(|(e, w)| (*e, w)));
        assert_eq!(g2.total_weight(), 5.0);
    }
}
