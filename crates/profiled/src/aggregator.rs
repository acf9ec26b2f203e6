//! The decaying, fleet-wide profile aggregator.
//!
//! Frames from many VM instances are folded into **one** graph under
//! one lock. Decoding happens outside it ([`partition_frame`]), so the
//! lock covers only the weight adds. Finer locks would buy nothing:
//! sequenced pushes and every durable push are serialized before they
//! reach the aggregate (the in-memory journal's dedup mutex, the
//! durable store's apply turnstile), and every pull reads the whole
//! aggregate anyway (DESIGN §9.2 has the measurements). The type keeps
//! its `ShardedAggregator` name for its callers.
//!
//! Freshness is a *virtual epoch clock*: [`advance_epoch`] only bumps an
//! atomic counter; the aggregate applies one multiplicative decay pass
//! per elapsed epoch lazily the next time it is locked. The catch-up is
//! one `decay(factor)` **per epoch** rather than a single
//! `decay(factor.powi(k))`: sequential single multiplies produce the
//! same bit pattern no matter how the elapsed epochs are grouped across
//! catch-ups, which is what lets a crash-recovered aggregator (whose
//! catch-up points differ from the original run's) reproduce weights
//! bit-for-bit.
//!
//! Consistency: a read locks the aggregate, brings it to the current
//! epoch, seals it, lays its slots out in edge order, re-sums its total
//! in that order, and encodes it or builds the plan from it without
//! copying the aggregate. A large aggregate is encoded or planned as
//! two halves on two cores, cut between call sites
//! ([`DynamicCallGraph::read_halves`]) and joined into the bytes one
//! pass writes. The settle stays on one core: its total is an
//! edge-ordered `f64` sum, and summing halves would change its bits.
//! The result is a true
//! cut: it contains exactly the frames ingested before the lock was
//! taken, and two reads of the same ingestion history are bit-identical
//! — the bytes of [`DynamicCallGraph::merge_all`] of the aggregate.
//!
//! [`partition_frame`]: ShardedAggregator::partition_frame
//! [`advance_epoch`]: ShardedAggregator::advance_epoch

use crate::codec::{CodecError, DcgCodec, DcgFrame, FrameKind};
use crate::metrics::ProfiledMetrics;
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{build_plan, NewLinearPolicy};
use cbs_telemetry::Counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Reusable scratch holding one frame's decoded records between
/// [`ShardedAggregator::partition_frame`] and
/// [`ShardedAggregator::apply_partitioned`].
///
/// One instance per connection (or per ingesting thread) makes the
/// steady-state ingest path allocation-free: the record `Vec` is
/// cleared — not dropped — between frames, so after the first few
/// frames its capacity plateaus.
#[derive(Debug, Default)]
pub struct IngestScratch {
    records: Vec<(CallEdge, f64)>,
}

impl IngestScratch {
    /// Creates an empty scratch; it grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Tuning for a [`ShardedAggregator`].
#[derive(Debug, Clone, Copy)]
pub struct AggregatorConfig {
    /// Per-epoch multiplicative decay in `[0, 1]` (`1.0` disables
    /// decay).
    pub decay_factor: f64,
    /// Edges whose decayed weight falls below this (finite,
    /// non-negative) floor are dropped.
    pub min_weight: f64,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        Self {
            decay_factor: 1.0,
            min_weight: 0.0,
        }
    }
}

impl AggregatorConfig {
    /// The default config. The shard count is accepted and ignored: the
    /// aggregate is one graph, and this spelling survives only for
    /// callers that still pass one.
    pub fn with_shards(_shards: usize) -> Self {
        Self::default()
    }

    /// Rejects a config whose weights would leave the finite, positive
    /// range: an infinite or NaN product passes the encoder's `w > 0`
    /// filter and is then served and checkpointed as bytes no decoder
    /// accepts, and a negative factor flips every weight's sign each
    /// epoch. The error names the command-line flag that sets the
    /// field.
    ///
    /// # Errors
    ///
    /// A message naming `--decay` for a non-finite `decay_factor` or one
    /// outside `[0, 1]`, or `--min-weight` for a non-finite or negative
    /// `min_weight`.
    pub fn check(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.decay_factor) {
            return Err(format!(
                "--decay must be a finite factor in [0, 1], got {}",
                self.decay_factor
            ));
        }
        if !(self.min_weight.is_finite() && self.min_weight >= 0.0) {
            return Err(format!(
                "--min-weight must be finite and non-negative, got {}",
                self.min_weight
            ));
        }
        Ok(())
    }
}

/// The aggregate: one graph, the epoch its decay has been applied up
/// to, and whether it is settled: nothing applied or decayed since its
/// last [`DynamicCallGraph::settle`].
#[derive(Debug, Default)]
struct Aggregate {
    graph: DynamicCallGraph,
    epoch: u64,
    settled: bool,
}

/// Encoded read bytes (a snapshot or a plan) stamped with the
/// generation they were built from.
///
/// The stamp is read *before* the aggregate is locked to build the
/// bytes, while mutators bump the generation *after* applying their
/// records — so a cached entry can only be stamped older than the data
/// it holds, never newer. A stale stamp therefore forces at worst a
/// redundant rebuild of identical bytes; it can never serve data older
/// than its generation.
#[derive(Debug)]
struct StampedBytes {
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
    /// Distinct edges currently held.
    pub edges: usize,
}

/// A concurrent, epoch-decayed profile aggregator.
///
/// All methods take `&self`; the type is `Sync` and is shared across
/// server connection threads behind an `Arc`.
#[derive(Debug)]
pub struct ShardedAggregator {
    aggregate: Mutex<Aggregate>,
    epoch: AtomicU64,
    frames: AtomicU64,
    records: AtomicU64,
    /// Bumped after every state change that can alter the served
    /// bytes (record-applying ingest, epoch advance). Both caches
    /// compare their stamp against this to decide hit vs rebuild.
    generation: AtomicU64,
    cache: Mutex<Option<StampedBytes>>,
    plan_cache: Mutex<Option<StampedBytes>>,
    decay_factor: f64,
    min_weight: f64,
}

impl ShardedAggregator {
    /// Creates an empty aggregator.
    pub fn new(config: AggregatorConfig) -> Self {
        Self {
            aggregate: Mutex::new(Aggregate::default()),
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

    /// Locks the aggregate and brings its decay up to the current epoch.
    fn locked_current(&self) -> MutexGuard<'_, Aggregate> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let mut guard = self.aggregate.lock().expect("aggregate lock");
        if guard.epoch < epoch {
            if self.decay_factor != 1.0 {
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
                    guard.graph.decay(self.decay_factor, self.min_weight);
                }
                guard.settled = false;
                m.agg_decay_catchups.inc();
                m.agg_pruned_edges
                    .add(before.saturating_sub(guard.graph.num_edges()) as u64);
            }
            guard.epoch = epoch;
        }
        guard
    }

    /// Folds a decoded frame into the aggregate.
    ///
    /// Snapshot and delta frames are both *additive*: a snapshot is a
    /// VM's first flush, deltas are its subsequent growth, so the
    /// aggregate over a fleet is simply the sum of everything pushed
    /// (then decayed by the epoch clock). Records apply in frame
    /// (edge-sorted) order, so repeated ingestion histories stay
    /// bit-identical.
    pub fn ingest(&self, frame: &DcgFrame) {
        self.apply(&frame.edges);
    }

    /// Decodes an encoded frame and folds it into the aggregate.
    ///
    /// All-or-nothing: the frame is fully validated before the
    /// aggregate is touched, so a malformed frame applies nothing.
    /// Returns the frame kind and the number of records applied.
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

    /// Decodes an encoded frame into `scratch` without touching the
    /// aggregate — the validation half of
    /// [`ingest_frame_bytes`](Self::ingest_frame_bytes).
    ///
    /// Accepts and rejects exactly the inputs [`DcgCodec::decode`]
    /// does, and a frame that decodes cleanly always applies. The
    /// durable store splits its write path on this boundary: decode
    /// *before* journaling (with concurrent appenders a bad frame can
    /// no longer be truncated back off the log, so it must prove itself
    /// first), then fold the already-decoded records in under the apply
    /// turnstile — one decode per record instead of a validation pass
    /// plus a decode pass.
    pub fn partition_frame(
        &self,
        bytes: &[u8],
        scratch: &mut IngestScratch,
    ) -> Result<(FrameKind, usize), CodecError> {
        let iter = DcgCodec::records(bytes)?;
        let kind = iter.kind();
        scratch.records.clear();
        iter.for_each_record(|edge, weight| scratch.records.push((edge, weight)))?;
        Ok((kind, scratch.records.len()))
    }

    /// Folds records previously decoded by
    /// [`partition_frame`](Self::partition_frame) into the aggregate and
    /// does the per-frame bookkeeping. Returns the record count applied
    /// (the partition's count) and leaves `scratch` empty.
    pub fn apply_partitioned(&self, scratch: &mut IngestScratch) -> usize {
        let count = self.apply(&scratch.records);
        scratch.records.clear();
        count
    }

    /// Applies one frame's records *deferred*: weights land immediately,
    /// but the graph's sorted permutation is left stale until the next
    /// snapshot rebuild seals it. An aggregate absorbing thousands of
    /// frames between pulls therefore pays for permutation maintenance
    /// once per pull, not per frame.
    fn apply(&self, records: &[(CallEdge, f64)]) -> usize {
        let count = records.len();
        if count > 0 {
            let mut guard = self.locked_current();
            guard.graph.record_all_deferred(records);
            guard.settled = false;
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
    /// O(1): the aggregate decays lazily on its next lock. Invalidates
    /// the snapshot cache (the next snapshot must re-run decay
    /// catch-up).
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
    /// **and** stamps the aggregate as already decayed through it, so no
    /// catch-up decay fires for the restored span.
    ///
    /// A checkpoint snapshot is captured post-catch-up — its weights
    /// already reflect every decay through its epoch. Re-ingesting it
    /// into a fresh aggregator (epoch 0) and then calling
    /// `restore_clock(epoch)` therefore reproduces the checkpointed
    /// state exactly; decaying again would double-apply.
    ///
    /// Recovery-only: callers must be the sole owner (no concurrent
    /// ingest), as during `ProfileStore::open`.
    pub fn restore_clock(&self, epoch: u64) {
        self.aggregate.lock().expect("aggregate lock").epoch = epoch;
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

    /// The bytes `cache` holds for the current generation; on a cold or
    /// stale cache, `build` makes them from the live aggregate, locked,
    /// decayed to the current epoch and settled
    /// ([`DynamicCallGraph::settle`]): sealed — the read boundary where
    /// the deferred ingest tail's permutation debt is paid at once —
    /// with its slots laid out in edge order, so the encode or plan
    /// build walks memory front to back, and with its total re-summed
    /// in edge order, whatever order the records arrived in. A graph
    /// nothing has touched since its last settle is not settled again:
    /// a pull right after a plan of the same data, or a plan right after
    /// its pull, skips the permutation scan and the re-sum.
    ///
    /// The generation stamp is read under the cache lock *before* the
    /// aggregate is locked; mutators bump it *after* applying. A
    /// concurrent push can therefore make a just-built entry carry data
    /// newer than its stamp (forcing one redundant rebuild later) but
    /// never older — a cache hit is always at least as fresh as the
    /// generation it matched. Holding the cache lock across the rebuild
    /// also serializes concurrent readers onto one rebuild instead of N.
    fn cached(
        &self,
        cache: &Mutex<Option<StampedBytes>>,
        [hits, invalidations, misses]: [&Counter; 3],
        build: impl FnOnce(&DynamicCallGraph, u64) -> Vec<u8>,
    ) -> Arc<Vec<u8>> {
        let mut cache = cache.lock().expect("cache lock");
        let generation = self.generation.load(Ordering::Acquire);
        if let Some(c) = cache.as_ref() {
            if c.generation == generation {
                hits.inc();
                return Arc::clone(&c.encoded);
            }
            invalidations.inc();
        }
        misses.inc();
        let mut guard = self.locked_current();
        if !guard.settled {
            guard.graph.settle();
            guard.settled = true;
        }
        let encoded = Arc::new(build(&guard.graph, generation));
        drop(guard);
        *cache = Some(StampedBytes {
            generation,
            encoded: Arc::clone(&encoded),
        });
        encoded
    }

    /// [`encoded_snapshot`](Self::encoded_snapshot) decoded: exactly the
    /// graph a client pulls. Panics if the aggregate holds an infinite
    /// weight (a sum that overflowed), which no decoder accepts.
    pub fn merged_snapshot(&self) -> DynamicCallGraph {
        DcgCodec::decode_snapshot(&self.encoded_snapshot()).expect("a served snapshot decodes")
    }

    /// The canonical [`DcgCodec::encode_snapshot`] bytes of the
    /// aggregate, shared from the cache — the server's `OP_PULL` /
    /// `OP_PULL_CHUNK` fast path: repeated pulls of an unchanged
    /// aggregate are O(1), re-serving the same encoded buffer.
    pub fn encoded_snapshot(&self) -> Arc<Vec<u8>> {
        let m = ProfiledMetrics::get();
        let counters = [
            &m.agg_cache_hits,
            &m.agg_cache_invalidations,
            &m.agg_cache_misses,
        ];
        self.cached(&self.cache, counters, |graph, _| {
            DcgCodec::encode_snapshot(graph)
        })
    }

    /// The canonical [`DcgCodec::encode_plan`] bytes of the fleet
    /// inlining plan — [`build_plan`] with the paper's
    /// [`NewLinearPolicy`] run against the aggregate, stamped with its
    /// generation.
    ///
    /// Cached under the same generation discipline as
    /// [`encoded_snapshot`](Self::encoded_snapshot), in a cache of its
    /// own: an unchanged aggregate serves the identical buffer (so
    /// `OP_PLAN` answers are bit-identical), the cache invalidates
    /// exactly when pulls do, and a plan miss encodes no snapshot.
    pub fn encoded_plan(&self) -> Arc<Vec<u8>> {
        let m = ProfiledMetrics::get();
        let counters = [
            &m.plan_cache_hits,
            &m.plan_cache_invalidations,
            &m.plan_cache_misses,
        ];
        self.cached(&self.plan_cache, counters, |graph, generation| {
            let plan = build_plan(graph, &NewLinearPolicy::default(), generation);
            m.plan_builds.inc();
            m.plan_decisions.add(plan.entries.len() as u64);
            DcgCodec::encode_plan(&plan)
        })
    }

    /// Ingestion counters and the aggregate's size.
    pub fn stats(&self) -> AggregatorStats {
        AggregatorStats {
            frames: self.frames.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            epoch: self.epoch(),
            edges: self
                .aggregate
                .lock()
                .expect("aggregate lock")
                .graph
                .num_edges(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_bytecode::{CallSiteId, MethodId};

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

    fn decaying(decay_factor: f64, min_weight: f64) -> AggregatorConfig {
        AggregatorConfig {
            decay_factor,
            min_weight,
        }
    }

    #[test]
    fn aggregate_equals_direct_merge() {
        let a = graph(&[(e(0, 0, 1), 3.0), (e(7, 1, 2), 1.0), (e(93, 2, 3), 4.0)]);
        let b = graph(&[(e(0, 0, 1), 2.0), (e(41, 3, 5), 8.0)]);
        let expected = DynamicCallGraph::merge_all([&a, &b]);
        let agg = ShardedAggregator::new(AggregatorConfig::default());
        agg.ingest(&DcgCodec::decode(&DcgCodec::encode_snapshot(&a)).unwrap());
        agg.ingest(&DcgCodec::decode(&DcgCodec::encode_snapshot(&b)).unwrap());
        let merged = agg.merged_snapshot();
        assert_eq!(merged, expected);
        assert_eq!(agg.stats().frames, 2);
        assert_eq!(agg.stats().records, 5);
        assert_eq!(agg.stats().edges, merged.num_edges());
    }

    #[test]
    fn lazy_epoch_decay_matches_eager_per_epoch_decay() {
        let agg = ShardedAggregator::new(decaying(0.5, 0.0));
        agg.ingest(&delta(&[(e(0, 0, 1), 16.0), (e(9, 1, 2), 4.0)]));
        // Three epochs pass without the aggregate being touched.
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

    /// Decay catch-up must be grouping-invariant at the bit level: an
    /// aggregate that sleeps through k epochs and catches up once must
    /// end with weights bit-identical to one that was brought current
    /// after every single epoch. (A folded `powi(k)` catch-up fails this
    /// — `(w·f)·f != w·(f·f)` in the last rounding bit — which would
    /// make recovered state depend on pre-crash pull timing.)
    #[test]
    fn decay_catch_up_is_bit_invariant_across_groupings() {
        let cfg = decaying(0.9, 0.0);
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
            // Forcing a snapshot brings the aggregate current each epoch.
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
        let cfg = decaying(0.5, 0.0);
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
        let agg = ShardedAggregator::new(decaying(0.1, 0.5));
        agg.ingest(&delta(&[(e(0, 0, 1), 100.0), (e(1, 1, 2), 1.0)]));
        agg.advance_epoch();
        let merged = agg.merged_snapshot();
        assert_eq!(merged.num_edges(), 1, "light edge pruned: {merged:?}");
        assert!((merged.weight(&e(0, 0, 1)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_ingestion_converges_to_the_same_multiset() {
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
        let frames: Vec<Vec<(CallEdge, f64)>> = (0..16u32)
            .map(|i| {
                (0..50u32)
                    .map(|j| (e(j % 11, j % 5, (i + j) % 7), 1.0))
                    .collect()
            })
            .collect();
        // Expected: same records ingested serially.
        let serial = ShardedAggregator::new(AggregatorConfig::default());
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
        let mut g = DynamicCallGraph::new();
        for i in 0..200u32 {
            g.record(e(i % 23, i % 7, i % 11), 0.25 + f64::from(i));
        }
        let bytes = DcgCodec::encode_snapshot(&g);

        let decoded = ShardedAggregator::new(AggregatorConfig::default());
        decoded.ingest(&DcgCodec::decode(&bytes).unwrap());
        let streamed = ShardedAggregator::new(AggregatorConfig::default());
        let mut scratch = IngestScratch::new();
        let (kind, n) = streamed.ingest_frame_bytes(&bytes, &mut scratch).unwrap();
        assert_eq!(kind, crate::codec::FrameKind::Snapshot);
        assert_eq!(n, g.num_edges());
        assert_eq!(streamed.stats(), decoded.stats());
        let a = streamed.merged_snapshot();
        let b = decoded.merged_snapshot();
        assert_eq!(a, b);
        assert_eq!(
            DcgCodec::encode_snapshot(&a),
            DcgCodec::encode_snapshot(&b),
            "encodings must match byte-for-byte"
        );
    }

    #[test]
    fn bad_frame_applies_nothing() {
        let agg = ShardedAggregator::new(AggregatorConfig::default());
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

    /// Reads that skip a settle (a pull right after a plan of the same
    /// data, a plan right after its pull) serve the bytes a fresh
    /// aggregate fed the same pushes and epochs serves, and every push
    /// or decayed epoch in between is settled into them.
    #[test]
    fn interleaved_reads_serve_what_a_fresh_aggregate_serves() {
        let cfg = decaying(0.5, 0.3);
        let live = ShardedAggregator::new(cfg);
        let mut history: Vec<Option<Vec<(CallEdge, f64)>>> = Vec::new();
        for step in 0..24u32 {
            if step % 5 == 4 {
                live.advance_epoch();
                history.push(None);
            } else {
                // Fresh edges land behind the sealed ones, so the graph
                // needs a new layout; repeated ones only change weights.
                let records: Vec<(CallEdge, f64)> = (0..6u32)
                    .map(|i| {
                        let k = step * 6 + i;
                        (e(k % 5, k % 3, (k * 7) % 11), 0.25 + f64::from(k % 4))
                    })
                    .collect();
                live.ingest(&delta(&records));
                history.push(Some(records));
            }
            // Alternate which read comes first, and read twice.
            let (snapshot, plan) = if step % 2 == 0 {
                let plan = live.encoded_plan();
                (live.encoded_snapshot(), plan)
            } else {
                (live.encoded_snapshot(), live.encoded_plan())
            };
            let fresh = ShardedAggregator::new(cfg);
            for h in &history {
                match h {
                    Some(records) => fresh.ingest(&delta(records)),
                    None => {
                        fresh.advance_epoch();
                    }
                }
            }
            assert_eq!(
                *snapshot,
                *fresh.encoded_snapshot(),
                "step {step}: snapshot"
            );
            assert_eq!(*plan, *fresh.encoded_plan(), "step {step}: plan");
            assert_eq!(*live.encoded_plan(), *plan, "step {step}: plan re-read");
        }
    }

    #[test]
    fn snapshot_cache_hits_until_invalidated() {
        let agg = ShardedAggregator::new(AggregatorConfig::default());
        agg.ingest(&delta(&[(e(0, 0, 1), 2.0), (e(9, 1, 2), 3.0)]));

        let first = agg.encoded_snapshot();
        let again = agg.encoded_snapshot();
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeated pulls must share the cached encoding"
        );
        // A plan pull has a cache of its own and leaves this one alone.
        let _ = agg.encoded_plan();
        assert!(Arc::ptr_eq(&first, &agg.encoded_snapshot()));

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
}
