//! The sharded, decaying, fleet-wide profile aggregator.
//!
//! Frames from many VM instances are folded into `N` shard graphs,
//! hash-partitioned by **caller** so every edge of a method — and hence
//! every call site's whole receiver distribution — lives in exactly one
//! shard. Ingestion from concurrent connections therefore contends only
//! on the shards a frame actually touches, and the merge behind a pull
//! only interleaves disjoint sorted runs.
//!
//! Freshness is a *virtual epoch clock*: [`advance_epoch`] only bumps an
//! atomic counter; each shard applies one multiplicative decay pass per
//! elapsed epoch lazily the next time it is locked. The catch-up is one
//! `decay(factor)` **per epoch** rather than a single
//! `decay(factor.powi(k))`: sequential single multiplies produce the
//! same bit pattern no matter how the elapsed epochs are grouped across
//! catch-ups, which is what lets a crash-recovered aggregator (whose
//! catch-up points differ from the original run's) reproduce weights
//! bit-for-bit.
//!
//! Consistency: [`merged_snapshot`] locks all shards (in index order —
//! every multi-shard path uses that order, so there is no lock-order
//! inversion), brings each to the current epoch, and merges in shard
//! order. The result is a true cut: it contains exactly the frames
//! ingested before the lock sweep completed, and two snapshots of the
//! same ingestion history are bit-identical.
//!
//! [`advance_epoch`]: ShardedAggregator::advance_epoch
//! [`merged_snapshot`]: ShardedAggregator::merged_snapshot

use crate::codec::{CodecError, DcgCodec, DcgFrame, FrameKind};
use crate::metrics::ProfiledMetrics;
use cbs_bytecode::MethodId;
use cbs_dcg::{CallEdge, DynamicCallGraph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Reusable scratch for partitioning a frame's records into per-shard
/// buckets.
///
/// One instance per connection (or per ingesting thread) makes the
/// steady-state ingest path allocation-free: the bucket `Vec`s are
/// cleared — not dropped — between frames, so after the first few
/// frames their capacity plateaus and every subsequent partition only
/// writes into retained storage.
#[derive(Debug, Default)]
pub struct IngestScratch {
    buckets: Vec<Vec<(CallEdge, f64)>>,
}

impl IngestScratch {
    /// Creates an empty scratch; buckets are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures one (empty) bucket per shard, retaining capacity.
    fn reset(&mut self, shards: usize) {
        self.buckets.resize_with(shards, Vec::new);
        for b in &mut self.buckets {
            b.clear();
        }
    }
}

/// Tuning for a [`ShardedAggregator`].
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// Number of shards (`0` is treated as `1`).
    pub shards: usize,
    /// Per-epoch multiplicative decay (`1.0` disables decay).
    pub decay_factor: f64,
    /// Edges whose decayed weight falls below this are dropped.
    pub min_weight: f64,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            decay_factor: 1.0,
            min_weight: 0.0,
        }
    }
}

impl AggregatorConfig {
    /// Config with `shards` shards and decay disabled.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }
}

/// One shard: a graph plus the epoch its decay has been applied up to.
#[derive(Debug, Default)]
struct Shard {
    graph: DynamicCallGraph,
    epoch: u64,
}

/// A merged snapshot (graph + its canonical encoding) stamped with the
/// generation it was built from.
///
/// The stamp is read *before* the shard sweep that builds the snapshot,
/// while mutators bump the generation *after* applying their records —
/// so a cached entry can only be stamped older than the data it holds,
/// never newer. A stale stamp therefore forces at worst a redundant
/// rebuild of identical bytes; it can never serve data older than its
/// generation.
#[derive(Debug)]
struct SnapshotCache {
    generation: u64,
    graph: Arc<DynamicCallGraph>,
    encoded: Arc<Vec<u8>>,
}

/// The encoded fleet inlining plan stamped with the generation it was
/// built from; same freshness argument as [`SnapshotCache`].
#[derive(Debug)]
struct PlanCache {
    generation: u64,
    encoded: Arc<Vec<u8>>,
}

/// Counters describing an aggregator's ingestion history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Frames ingested (snapshots + deltas).
    pub frames: u64,
    /// Edge records applied across all frames.
    pub records: u64,
    /// Current epoch.
    pub epoch: u64,
    /// Distinct edges currently held, per shard (index order).
    pub shard_edges: Vec<usize>,
}

impl AggregatorStats {
    /// Distinct edges across all shards.
    pub fn total_edges(&self) -> usize {
        self.shard_edges.iter().sum()
    }
}

/// A concurrent, sharded, epoch-decayed profile aggregator.
///
/// All methods take `&self`; the type is `Sync` and is shared across
/// server connection threads behind an `Arc`.
#[derive(Debug)]
pub struct ShardedAggregator {
    shards: Vec<Mutex<Shard>>,
    epoch: AtomicU64,
    frames: AtomicU64,
    records: AtomicU64,
    /// Bumped after every state change that can alter the merged
    /// snapshot (record-applying ingest, epoch advance). The snapshot
    /// cache compares its stamp against this to decide hit vs rebuild.
    generation: AtomicU64,
    cache: Mutex<Option<SnapshotCache>>,
    plan_cache: Mutex<Option<PlanCache>>,
    decay_factor: f64,
    min_weight: f64,
}

impl ShardedAggregator {
    /// Creates an empty aggregator.
    pub fn new(config: AggregatorConfig) -> Self {
        let n = config.shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            epoch: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            records: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            cache: Mutex::new(None),
            plan_cache: Mutex::new(None),
            decay_factor: config.decay_factor,
            min_weight: config.min_weight,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard an edge belongs to. Partitioning is by caller, mixed
    /// through SplitMix64's finalizer so dense `MethodId`s spread evenly
    /// over any shard count.
    pub fn shard_of(&self, caller: MethodId) -> usize {
        let mut z = u64::from(u32::from(caller)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z % self.shards.len() as u64) as usize
    }

    /// Locks `shard` and brings its decay up to the current epoch.
    fn locked_current(&self, shard: usize) -> MutexGuard<'_, Shard> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut guard = self.shards[shard].lock().expect("shard lock");
        Self::catch_up(&mut guard, epoch, self.decay_factor, self.min_weight);
        guard
    }

    /// Applies the lazy decay catch-up to one locked shard (shared by
    /// [`locked_current`](Self::locked_current) and
    /// [`merged_snapshot`](Self::merged_snapshot)).
    fn catch_up(guard: &mut Shard, epoch: u64, decay_factor: f64, min_weight: f64) {
        if guard.epoch < epoch {
            if decay_factor != 1.0 {
                let m = ProfiledMetrics::get();
                let before = guard.graph.num_edges();
                // One multiply per elapsed epoch, never a pre-folded
                // power: `(w·f)·f` and `w·(f·f)` differ in their last
                // rounding bit, so folding would make the weights
                // depend on *when* catch-ups happened (e.g. on pull
                // timing) — and crash recovery, whose catch-up points
                // differ from the original run's, could then never be
                // bit-identical. Pruning per pass matches eager
                // per-epoch decay exactly.
                for _ in guard.epoch..epoch {
                    guard.graph.decay(decay_factor, min_weight);
                }
                m.agg_decay_catchups.inc();
                m.agg_pruned_edges
                    .add(before.saturating_sub(guard.graph.num_edges()) as u64);
            }
            guard.epoch = epoch;
        }
    }

    /// Folds a decoded frame into the shards.
    ///
    /// Snapshot and delta frames are both *additive*: a snapshot is a
    /// VM's first flush, deltas are its subsequent growth, so the
    /// aggregate over a fleet is simply the sum of everything pushed
    /// (then decayed by the epoch clock). The records are partitioned
    /// into per-shard buckets in **one pass**; each bucket preserves the
    /// input (edge-sorted) order of its shard's records, so repeated
    /// ingestion histories stay bit-identical.
    pub fn ingest(&self, frame: &DcgFrame) {
        let mut scratch = IngestScratch::new();
        scratch.reset(self.shards.len());
        for &(e, w) in &frame.edges {
            scratch.buckets[self.shard_of(e.caller)].push((e, w));
        }
        self.apply_partitioned(&mut scratch);
    }

    /// Decodes an encoded frame *streamingly* into the shards: records
    /// fold straight into the partitioning scratch as they are decoded,
    /// with no intermediate `Vec<(CallEdge, f64)>`.
    ///
    /// All-or-nothing: the frame is fully validated before any shard is
    /// touched, so a malformed frame applies nothing. Returns the frame
    /// kind and the number of records applied.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] the eager [`DcgCodec::decode`] would return for
    /// the same bytes (the two paths accept and reject identical inputs).
    pub fn ingest_frame_bytes(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), CodecError> {
        let (kind, count) = self.partition_frame(bytes, scratch)?;
        self.apply_partitioned(scratch);
        Ok((kind, count))
    }

    /// Decodes and partitions an encoded frame into `scratch`'s
    /// per-shard buckets without touching any shard — the validation
    /// half of [`ingest_frame_bytes`](Self::ingest_frame_bytes).
    ///
    /// Accepts and rejects exactly the inputs [`DcgCodec::decode`]
    /// does, and a frame that partitions cleanly always applies. The
    /// durable store splits its write path on this boundary: partition
    /// *before* journaling (with concurrent appenders a bad frame can
    /// no longer be truncated back off the log, so it must prove itself
    /// first), then fold the already-decoded buckets in under the apply
    /// turnstile — one decode per record instead of a validation pass
    /// plus a decode pass.
    pub fn partition_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), CodecError> {
        let iter = DcgCodec::records(bytes)?;
        let kind = iter.kind();
        scratch.reset(self.shards.len());
        let single = self.shards.len() == 1;
        let mut count = 0usize;
        for rec in iter {
            let (e, w) = rec?;
            let shard = if single { 0 } else { self.shard_of(e.caller) };
            scratch.buckets[shard].push((e, w));
            count += 1;
        }
        Ok((kind, count))
    }

    /// Folds buckets previously filled by
    /// [`partition_frame`](Self::partition_frame) into the shards and
    /// does the per-frame bookkeeping. Returns the record count
    /// applied (the partition's count: the buckets drain into the
    /// shards exactly as filled).
    ///
    /// Each touched shard is locked once, in index order. Records are
    /// applied *deferred*: weights land immediately, but the shard's
    /// sorted permutation is left stale until the next snapshot rebuild
    /// seals it. A shard absorbing thousands of frames between pulls
    /// therefore pays for permutation maintenance once per pull, not
    /// per frame.
    pub fn apply_partitioned(&self, scratch: &mut IngestScratch) -> usize {
        let count = scratch.buckets.iter().map(Vec::len).sum();
        for (shard, bucket) in scratch.buckets.iter_mut().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let mut guard = self.locked_current(shard);
            guard.graph.record_all_deferred(bucket);
            bucket.clear();
        }
        let m = ProfiledMetrics::get();
        self.frames.fetch_add(1, Ordering::Relaxed);
        m.agg_frames.inc();
        self.records.fetch_add(count as u64, Ordering::Relaxed);
        m.agg_records.add(count as u64);
        if count > 0 {
            self.generation.fetch_add(1, Ordering::Release);
        }
        count
    }

    /// Advances the virtual epoch clock by one, returning the new epoch.
    ///
    /// O(1): shards decay lazily on their next lock. Invalidates the
    /// snapshot cache (the next snapshot must re-run decay catch-up).
    pub fn advance_epoch(&self) -> u64 {
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.generation.fetch_add(1, Ordering::Release);
        epoch
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current snapshot generation (bumps on record-applying ingest
    /// and on [`advance_epoch`](Self::advance_epoch)).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Restores the epoch clock after recovery: sets the global epoch
    /// **and** stamps every shard as already decayed through it, so no
    /// catch-up decay fires for the restored span.
    ///
    /// A checkpoint snapshot is captured post-catch-up — its weights
    /// already reflect every decay through its epoch. Re-ingesting it
    /// into a fresh aggregator (epoch 0) and then calling
    /// `restore_clock(epoch)` therefore reproduces the checkpointed
    /// shard state exactly; decaying again would double-apply.
    ///
    /// Recovery-only: callers must be the sole owner (no concurrent
    /// ingest), as during `ProfileStore::open`.
    pub fn restore_clock(&self, epoch: u64) {
        for shard in &self.shards {
            shard.lock().expect("shard lock").epoch = epoch;
        }
        self.epoch.store(epoch, Ordering::Release);
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// Restores the frame/record counters after recovery, so
    /// `OP_STATS` continues the pre-crash sequence instead of counting
    /// the checkpoint snapshot as one giant frame.
    ///
    /// Recovery-only, like [`restore_clock`](Self::restore_clock).
    pub fn restore_counters(&self, frames: u64, records: u64) {
        self.frames.store(frames, Ordering::Relaxed);
        self.records.store(records, Ordering::Relaxed);
    }

    /// Builds a merged snapshot from the live shards: all shards locked
    /// (index order), decayed to the current epoch, sealed, and merged in
    /// one pass over their sorted runs.
    ///
    /// Caller-partitioning means every edge lives in exactly one shard,
    /// so the merge only interleaves disjoint runs; the merged graph —
    /// including its canonically re-summed total — does not depend on
    /// the shard count.
    fn rebuild_merged(&self) -> DynamicCallGraph {
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut guards: Vec<MutexGuard<'_, Shard>> = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let mut guard = shard.lock().expect("shard lock");
            Self::catch_up(&mut guard, epoch, self.decay_factor, self.min_weight);
            // Seal the deferred ingest tail: this is the read boundary
            // where the per-frame permutation debt is settled at once.
            guard.graph.seal();
            guards.push(guard);
        }
        DynamicCallGraph::merge_all(guards.iter().map(|g| &g.graph))
    }

    /// The cached `(graph, encoded)` pair for the current generation,
    /// rebuilding on a cold or stale cache.
    ///
    /// The generation stamp is read under the cache lock *before* the
    /// shard sweep; mutators bump it *after* applying. A concurrent push
    /// can therefore make a just-built entry carry data newer than its
    /// stamp (forcing one redundant rebuild later) but never older — a
    /// cache hit is always at least as fresh as the generation it
    /// matched. Holding the cache lock across the rebuild also
    /// serializes concurrent pullers onto one rebuild instead of N.
    fn cached_snapshot(&self) -> (Arc<DynamicCallGraph>, Arc<Vec<u8>>) {
        let m = ProfiledMetrics::get();
        let mut cache = self.cache.lock().expect("snapshot cache lock");
        let generation = self.generation.load(Ordering::Acquire);
        if let Some(c) = cache.as_ref() {
            if c.generation == generation {
                m.agg_cache_hits.inc();
                return (Arc::clone(&c.graph), Arc::clone(&c.encoded));
            }
            m.agg_cache_invalidations.inc();
        }
        m.agg_cache_misses.inc();
        let graph = Arc::new(self.rebuild_merged());
        let encoded = Arc::new(DcgCodec::encode_snapshot(&graph));
        *cache = Some(SnapshotCache {
            generation,
            graph: Arc::clone(&graph),
            encoded: Arc::clone(&encoded),
        });
        (graph, encoded)
    }

    /// A consistent fleet-wide snapshot, shared from the
    /// generation-stamped cache (rebuilt only after ingest or an epoch
    /// advance). The graph is bit-identical to locking all shards and
    /// merging them in shard order.
    pub fn merged_snapshot(&self) -> Arc<DynamicCallGraph> {
        self.cached_snapshot().0
    }

    /// The canonical [`DcgCodec::encode_snapshot`] bytes of the merged
    /// snapshot, shared from the cache — the server's `OP_PULL` /
    /// `OP_PULL_CHUNK` fast path: repeated pulls of an unchanged
    /// aggregate are O(1), re-serving the same encoded buffer.
    pub fn encoded_snapshot(&self) -> Arc<Vec<u8>> {
        self.cached_snapshot().1
    }

    /// The canonical [`DcgCodec::encode_plan`] bytes of the fleet
    /// inlining plan — [`cbs_inliner::build_plan`] with the paper's
    /// [`NewLinearPolicy`](cbs_inliner::NewLinearPolicy) run against the
    /// merged snapshot, stamped with the snapshot generation.
    ///
    /// Cached under the same generation discipline as
    /// [`encoded_snapshot`](Self::encoded_snapshot): an unchanged
    /// aggregate serves the identical buffer (so `OP_PLAN` answers are
    /// bit-identical), and the cache invalidates exactly when pulls do.
    pub fn encoded_plan(&self) -> Arc<Vec<u8>> {
        let m = ProfiledMetrics::get();
        let mut cache = self.plan_cache.lock().expect("plan cache lock");
        let generation = self.generation.load(Ordering::Acquire);
        if let Some(c) = cache.as_ref() {
            if c.generation == generation {
                m.plan_cache_hits.inc();
                return Arc::clone(&c.encoded);
            }
            m.plan_cache_invalidations.inc();
        }
        m.plan_cache_misses.inc();
        let graph = self.merged_snapshot();
        let plan =
            cbs_inliner::build_plan(&graph, &cbs_inliner::NewLinearPolicy::default(), generation);
        m.plan_builds.inc();
        m.plan_decisions.add(plan.entries.len() as u64);
        let encoded = Arc::new(DcgCodec::encode_plan(&plan));
        *cache = Some(PlanCache {
            generation,
            encoded: Arc::clone(&encoded),
        });
        encoded
    }

    /// Ingestion counters and per-shard sizes.
    pub fn stats(&self) -> AggregatorStats {
        AggregatorStats {
            frames: self.frames.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            epoch: self.epoch(),
            shard_edges: self
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock").graph.num_edges())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::CallSiteId;

    fn e(caller: u32, site: u32, callee: u32) -> CallEdge {
        CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(site),
            MethodId::new(callee),
        )
    }

    fn graph(entries: &[(CallEdge, f64)]) -> DynamicCallGraph {
        entries.iter().copied().collect()
    }

    fn delta(edges: &[(CallEdge, f64)]) -> DcgFrame {
        DcgFrame {
            kind: FrameKind::Delta,
            edges: edges.to_vec(),
        }
    }

    #[test]
    fn sharded_merge_equals_direct_merge_for_any_shard_count() {
        let a = graph(&[(e(0, 0, 1), 3.0), (e(7, 1, 2), 1.0), (e(93, 2, 3), 4.0)]);
        let b = graph(&[(e(0, 0, 1), 2.0), (e(41, 3, 5), 8.0)]);
        let expected = DynamicCallGraph::merge_all([&a, &b]);
        for shards in [1, 2, 4, 8, 13] {
            let agg = ShardedAggregator::new(AggregatorConfig::with_shards(shards));
            agg.ingest(&DcgCodec::decode(&DcgCodec::encode_snapshot(&a)).unwrap());
            agg.ingest(&DcgCodec::decode(&DcgCodec::encode_snapshot(&b)).unwrap());
            let merged = agg.merged_snapshot();
            assert_eq!(*merged, expected, "shards={shards}");
            assert_eq!(agg.stats().frames, 2);
            assert_eq!(agg.stats().records, 5);
            assert_eq!(agg.stats().total_edges(), merged.num_edges());
        }
    }

    #[test]
    fn caller_partitioning_keeps_sites_whole() {
        let agg = ShardedAggregator::new(AggregatorConfig::with_shards(8));
        // Virtual site 4 in caller 2 dispatches to three receivers.
        agg.ingest(&delta(&[
            (e(2, 4, 10), 50.0),
            (e(2, 4, 11), 45.0),
            (e(2, 4, 12), 5.0),
            (e(3, 9, 10), 100.0),
        ]));
        let merged = agg.merged_snapshot();
        let dist = merged.site_distribution(CallSiteId::new(4));
        assert_eq!(dist.len(), 3);
        assert_eq!(dist[0], (MethodId::new(10), 50.0));
        // 40%-rule shares are exact per-site fractions.
        let total: f64 = dist.iter().map(|(_, w)| w).sum();
        assert!((dist[0].1 / total - 0.5).abs() < 1e-12);
        assert_eq!(merged.outgoing_weight(MethodId::new(2)), 100.0);
        // All of caller 2's edges share one shard.
        let s = agg.shard_of(MethodId::new(2));
        let shard_sizes = agg.stats().shard_edges;
        assert!(shard_sizes[s] >= 3);
    }

    #[test]
    fn lazy_epoch_decay_matches_eager_per_epoch_decay() {
        let cfg = AggregatorConfig {
            shards: 4,
            decay_factor: 0.5,
            min_weight: 0.0,
        };
        let agg = ShardedAggregator::new(cfg);
        agg.ingest(&delta(&[(e(0, 0, 1), 16.0), (e(9, 1, 2), 4.0)]));
        // Three epochs pass without the shards being touched.
        agg.advance_epoch();
        agg.advance_epoch();
        agg.advance_epoch();
        let merged = agg.merged_snapshot();
        assert!(
            (merged.weight(&e(0, 0, 1)) - 2.0).abs() < 1e-12,
            "16 × 0.5³"
        );
        assert!((merged.weight(&e(9, 1, 2)) - 0.5).abs() < 1e-12);
        // Fresh weight lands undecayed after the catch-up.
        agg.ingest(&delta(&[(e(0, 0, 1), 1.0)]));
        assert!((agg.merged_snapshot().weight(&e(0, 0, 1)) - 3.0).abs() < 1e-12);
        assert_eq!(agg.epoch(), 3);
    }

    /// Decay catch-up must be grouping-invariant at the bit level: a
    /// shard that sleeps through k epochs and catches up once must end
    /// with weights bit-identical to one that was brought current after
    /// every single epoch. (A folded `powi(k)` catch-up fails this —
    /// `(w·f)·f != w·(f·f)` in the last rounding bit — which would make
    /// recovered state depend on pre-crash pull timing.)
    #[test]
    fn decay_catch_up_is_bit_invariant_across_groupings() {
        let cfg = AggregatorConfig {
            shards: 4,
            decay_factor: 0.9,
            min_weight: 0.0,
        };
        let records: Vec<(CallEdge, f64)> = (0..64u32)
            .map(|i| (e(i % 7, i % 3, i % 5), 0.1 + f64::from(i) / 3.0))
            .collect();
        let lazy = ShardedAggregator::new(cfg);
        lazy.ingest(&delta(&records));
        let eager = ShardedAggregator::new(cfg);
        eager.ingest(&delta(&records));
        for _ in 0..5 {
            lazy.advance_epoch();
            eager.advance_epoch();
            // Forcing a snapshot brings every shard current each epoch.
            let _ = eager.encoded_snapshot();
        }
        assert_eq!(
            *lazy.encoded_snapshot(),
            *eager.encoded_snapshot(),
            "one 5-epoch catch-up must be bit-identical to 5 single-epoch ones"
        );
    }

    /// Restoring a checkpoint must not re-apply decay: re-ingesting a
    /// post-catch-up snapshot and stamping the clock reproduces the
    /// original bytes, and decay resumes identically afterwards.
    #[test]
    fn restore_clock_resumes_without_double_decay() {
        let cfg = AggregatorConfig {
            shards: 4,
            decay_factor: 0.5,
            min_weight: 0.0,
        };
        let original = ShardedAggregator::new(cfg);
        original.ingest(&delta(&[(e(0, 0, 1), 16.0), (e(9, 1, 2), 5.5)]));
        original.advance_epoch();
        original.advance_epoch();
        let snapshot = original.encoded_snapshot();

        let restored = ShardedAggregator::new(cfg);
        let mut scratch = IngestScratch::new();
        restored
            .ingest_frame_bytes(&snapshot, &mut scratch)
            .expect("checkpoint snapshot ingests");
        restored.restore_clock(original.epoch());
        restored.restore_counters(2, 2);
        assert_eq!(restored.epoch(), 2);
        assert_eq!(
            *restored.encoded_snapshot(),
            *snapshot,
            "restore must not decay the checkpointed weights again"
        );
        // And the clock keeps ticking in lockstep.
        original.advance_epoch();
        restored.advance_epoch();
        assert_eq!(*restored.encoded_snapshot(), *original.encoded_snapshot());
    }

    #[test]
    fn decay_prunes_below_min_weight() {
        let cfg = AggregatorConfig {
            shards: 2,
            decay_factor: 0.1,
            min_weight: 0.5,
        };
        let agg = ShardedAggregator::new(cfg);
        agg.ingest(&delta(&[(e(0, 0, 1), 100.0), (e(1, 1, 2), 1.0)]));
        agg.advance_epoch();
        let merged = agg.merged_snapshot();
        assert_eq!(merged.num_edges(), 1, "light edge pruned: {merged:?}");
        assert!((merged.weight(&e(0, 0, 1)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_ingestion_converges_to_the_same_multiset() {
        use std::sync::Arc;
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
        let frames: Vec<Vec<(CallEdge, f64)>> = (0..16u32)
            .map(|i| {
                (0..50u32)
                    .map(|j| (e(j % 11, j % 5, (i + j) % 7), 1.0))
                    .collect()
            })
            .collect();
        // Expected: same records ingested serially.
        let serial = ShardedAggregator::new(AggregatorConfig::with_shards(4));
        for f in &frames {
            serial.ingest(&delta(f));
        }
        let expected = serial.merged_snapshot();

        std::thread::scope(|scope| {
            for chunk in frames.chunks(4) {
                let agg = Arc::clone(&agg);
                scope.spawn(move || {
                    for f in chunk {
                        agg.ingest(&delta(f));
                    }
                });
            }
        });
        // Unit weights: addition is exact, so any interleaving converges
        // to the identical graph.
        assert_eq!(agg.merged_snapshot(), expected);
    }

    #[test]
    fn streaming_ingest_is_bit_identical_to_decoded_ingest() {
        for shards in [1, 4, 8] {
            let mut g = DynamicCallGraph::new();
            for i in 0..200u32 {
                g.record(e(i % 23, i % 7, i % 11), 0.25 + f64::from(i));
            }
            let bytes = DcgCodec::encode_snapshot(&g);

            let decoded = ShardedAggregator::new(AggregatorConfig::with_shards(shards));
            decoded.ingest(&DcgCodec::decode(&bytes).unwrap());
            let streamed = ShardedAggregator::new(AggregatorConfig::with_shards(shards));
            let mut scratch = IngestScratch::new();
            let (kind, n) = streamed.ingest_frame_bytes(&bytes, &mut scratch).unwrap();
            assert_eq!(kind, crate::codec::FrameKind::Snapshot);
            assert_eq!(n, g.num_edges());
            assert_eq!(streamed.stats(), decoded.stats(), "shards={shards}");
            let a = streamed.merged_snapshot();
            let b = decoded.merged_snapshot();
            assert_eq!(a, b, "shards={shards}");
            assert_eq!(
                DcgCodec::encode_snapshot(&a),
                DcgCodec::encode_snapshot(&b),
                "encodings must match byte-for-byte (shards={shards})"
            );
        }
    }

    #[test]
    fn bad_frame_applies_nothing() {
        let agg = ShardedAggregator::new(AggregatorConfig::with_shards(4));
        let mut g = DynamicCallGraph::new();
        g.record(e(1, 2, 3), 5.0);
        g.record(e(4, 5, 6), 7.0);
        let mut bytes = DcgCodec::encode_snapshot(&g);
        bytes.push(0xff); // trailing byte: frame must be rejected whole
        let mut scratch = IngestScratch::new();
        let err = agg.ingest_frame_bytes(&bytes, &mut scratch).unwrap_err();
        assert_eq!(err, crate::codec::CodecError::TrailingBytes);
        let stats = agg.stats();
        assert_eq!((stats.frames, stats.records), (0, 0));
        assert!(agg.merged_snapshot().is_empty());
        assert_eq!(
            agg.generation(),
            0,
            "failed ingest must not bump generation"
        );
    }

    #[test]
    fn snapshot_cache_hits_until_invalidated() {
        use std::sync::Arc;
        let agg = ShardedAggregator::new(AggregatorConfig::with_shards(4));
        agg.ingest(&delta(&[(e(0, 0, 1), 2.0), (e(9, 1, 2), 3.0)]));

        let first = agg.encoded_snapshot();
        let again = agg.encoded_snapshot();
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeated pulls must share the cached encoding"
        );
        let g1 = agg.merged_snapshot();
        let g2 = agg.merged_snapshot();
        assert!(Arc::ptr_eq(&g1, &g2));

        // Ingest invalidates: the next pull re-encodes and sees new data.
        agg.ingest(&delta(&[(e(0, 0, 1), 1.0)]));
        let after_push = agg.encoded_snapshot();
        assert!(!Arc::ptr_eq(&first, &after_push), "push must invalidate");
        assert_eq!(
            DcgCodec::decode_snapshot(&after_push)
                .unwrap()
                .weight(&e(0, 0, 1)),
            3.0
        );

        // advance_epoch invalidates even with decay disabled.
        let before_epoch = agg.encoded_snapshot();
        agg.advance_epoch();
        let after_epoch = agg.encoded_snapshot();
        assert!(
            !Arc::ptr_eq(&before_epoch, &after_epoch),
            "advance_epoch must invalidate the cached encoding"
        );
        assert_eq!(*before_epoch, *after_epoch, "decay 1.0: same bytes rebuilt");
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let agg = ShardedAggregator::new(AggregatorConfig::with_shards(0));
        assert_eq!(agg.num_shards(), 1);
        agg.ingest(&delta(&[(e(0, 0, 1), 1.0)]));
        assert_eq!(agg.merged_snapshot().num_edges(), 1);
    }
}
