//! The seeded input generator: a bounded, skewed edge universe and the
//! delta frames drawn from it.
//!
//! Everything the daemon sees is bytes produced here from `--seed`.
//! Weights are integral, so every sum the aggregator forms is exact in
//! `f64` and independent of arrival order: the final aggregate can be
//! checked against a reference folded locally in any order, and a
//! bounded universe means the aggregate reaches a steady size instead
//! of growing for the length of the run.

use cbs_core::bytecode::{CallSiteId, MethodId};
use cbs_core::dcg::{CallEdge, DynamicCallGraph};
use cbs_core::profiled::DcgCodec;
use std::collections::HashSet;

/// SplitMix64 (the same generator `crates/bench` uses for its
/// synthetic profiles).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is immaterial here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// `size` distinct edges shaped like a real CBS profile: seven eighths
/// of the callers in a hot core of 512 methods, the rest in a long cold
/// tail, 16 sites per caller, 4096 callees.
pub fn universe(rng: &mut SplitMix64, size: usize) -> Vec<CallEdge> {
    let mut seen = HashSet::with_capacity(size);
    let mut edges = Vec::with_capacity(size);
    while edges.len() < size {
        let r = rng.next_u64();
        let caller = if r % 8 < 7 {
            (r >> 3) % 512
        } else {
            (r >> 3) % 100_000
        } as u32;
        let edge = CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(((r >> 24) % 16) as u32),
            MethodId::new(((r >> 32) % 4096) as u32),
        );
        if seen.insert(edge) {
            edges.push(edge);
        }
    }
    edges
}

/// One generated delta frame: its records (distinct edges, ascending,
/// as `drain_delta` emits them) and their wire encoding.
#[derive(Debug, Clone)]
pub struct Frame {
    pub records: Vec<(CallEdge, f64)>,
    pub bytes: Vec<u8>,
}

impl Frame {
    fn new(mut records: Vec<(CallEdge, f64)>) -> Self {
        records.sort_unstable_by_key(|r| r.0);
        let bytes = DcgCodec::encode_delta(&records);
        Self { records, bytes }
    }

    pub fn total_weight(&self) -> f64 {
        self.records.iter().map(|r| r.1).sum()
    }
}

/// `count` delta frames of `records` distinct edges each, drawn from
/// `universe` with a skew toward its low indices (the smaller of two
/// uniform draws), weights integral in `1..=1000`.
pub fn skewed_frames(
    rng: &mut SplitMix64,
    universe: &[CallEdge],
    count: usize,
    records: usize,
) -> Vec<Frame> {
    assert!(records <= universe.len(), "a frame holds distinct edges");
    let n = universe.len() as u64;
    (0..count)
        .map(|_| {
            let mut chosen = HashSet::with_capacity(records);
            let mut out = Vec::with_capacity(records);
            while out.len() < records {
                let i = rng.below(n).min(rng.below(n)) as usize;
                if chosen.insert(i) {
                    out.push((universe[i], (1 + rng.below(1000)) as f64));
                }
            }
            Frame::new(out)
        })
        .collect()
}

/// The whole universe cut into frames of at most `records` edges (the
/// preload of `serve-mixed`: every edge exactly once).
pub fn covering_frames(rng: &mut SplitMix64, universe: &[CallEdge], records: usize) -> Vec<Frame> {
    universe
        .chunks(records)
        .map(|chunk| {
            Frame::new(
                chunk
                    .iter()
                    .map(|&e| (e, (1 + rng.below(1000)) as f64))
                    .collect(),
            )
        })
        .collect()
}

/// The reference aggregate: `frames[i]` applied `acks[i]` times.
/// Exact because weights are integral (see the module docs).
pub fn reference_graph<'a>(
    applied: impl IntoIterator<Item = (&'a Frame, u64)>,
) -> DynamicCallGraph {
    let mut g = DynamicCallGraph::new();
    for (frame, acks) in applied {
        if acks > 0 {
            let scaled: Vec<(CallEdge, f64)> = frame
                .records
                .iter()
                .map(|&(e, w)| (e, w * acks as f64))
                .collect();
            g.record_all(&scaled);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_for(seed: u64) -> Vec<Frame> {
        let mut rng = SplitMix64::new(seed);
        let u = universe(&mut rng, 2_000);
        skewed_frames(&mut rng, &u, 8, 300)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (a, b, c) = (frames_for(7), frames_for(7), frames_for(8));
        let bytes = |f: &[Frame]| f.iter().map(|x| x.bytes.clone()).collect::<Vec<_>>();
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
    }

    #[test]
    fn frames_hold_distinct_ascending_edges_with_integral_weights() {
        for f in frames_for(1) {
            assert_eq!(f.records.len(), 300);
            assert!(f.records.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(f
                .records
                .iter()
                .all(|&(_, w)| w.fract() == 0.0 && (1.0..=1000.0).contains(&w)));
            let decoded = DcgCodec::decode(&f.bytes).expect("own encoding decodes");
            assert_eq!(decoded.edges, f.records);
        }
    }

    #[test]
    fn universe_is_distinct_and_covering_frames_cover_it_once() {
        let mut rng = SplitMix64::new(3);
        let u = universe(&mut rng, 5_000);
        assert_eq!(u.iter().collect::<HashSet<_>>().len(), 5_000);
        let frames = covering_frames(&mut rng, &u, 1_024);
        assert_eq!(frames.len(), 5);
        let g = reference_graph(frames.iter().map(|f| (f, 1)));
        assert_eq!(g.num_edges(), 5_000);
    }

    #[test]
    fn reference_equals_folding_each_ack_in_any_order() {
        let frames = frames_for(11);
        let acks = [3u64, 0, 1, 2, 5, 1, 0, 4];
        let reference = reference_graph(frames.iter().zip(acks));
        let mut folded = DynamicCallGraph::new();
        // Interleaved, highest frame first: a different order on purpose.
        for round in 0..5 {
            for (f, &n) in frames.iter().zip(&acks).rev() {
                if round < n {
                    folded.record_all(&f.records);
                }
            }
        }
        assert_eq!(reference, folded);
    }
}
