//! The compact binary profile format (`DcgCodec`).
//!
//! A *frame* carries one flush of a dynamic call graph:
//!
//! ```text
//! frame    := magic "CBSP" | version u8 (=1) | kind u8 | varint(n) | n × record
//! record   := varint(key step) | weight
//! weight   := varint(2·m)            -- non-negative integral weight m
//!           | varint(1) | f64-bits   -- 8 raw little-endian bytes otherwise
//! ```
//!
//! Edge identity is packed into a 96-bit key
//! `caller·2⁶⁴ + site·2³² + callee`; records are sorted in ascending key
//! order (exactly [`DynamicCallGraph::iter`] order) and each record
//! stores the *difference* from the previous key — the first record
//! stores its key absolutely. Because keys strictly increase, every
//! subsequent step is ≥ 1, and dense id spaces (the common case: dense
//! `MethodId`/`CallSiteId` from one program) compress to 1–2 byte steps.
//! Varints are LEB128 (7 data bits per byte, little-endian groups).
//!
//! Two frame kinds exist. A **snapshot** carries absolute weights of a
//! whole graph; a **delta** carries only the positive weight *increments*
//! since the producer's previous flush (see
//! [`DynamicCallGraph::drain_delta`]). Both are additive for a consumer
//! that started from the producer's first flush, which is what lets the
//! aggregator treat every frame as "add these weights".
//!
//! Round-trip guarantee: decoding reproduces every edge weight
//! **bit-exactly**. The rebuilt graph's running total is accumulated in
//! canonical (ascending-edge) order, which is bit-identical to the total
//! of any merged or drained graph — i.e. of every graph this crate
//! actually ships (the aggregator's merged snapshots, `drain_delta`
//! output). Only a graph whose local observation history happened to sum
//! fractional weights in a different order can differ, and then only in
//! the final rounding bit of the derived total, never in an edge weight.
//!
//! Decoding is strict: unknown magic/version/kind, truncated input,
//! overlong varints, non-finite or non-positive weights, duplicate or
//! unsorted keys, keys exceeding 96 bits, and trailing bytes are all
//! distinct [`CodecError`]s — a server can reject any malformed frame
//! without trusting the sender.
//!
//! ## Plan frames (`CBSI`)
//!
//! The fleet daemon also serves *inlining plans* — the output of
//! [`cbs_inliner::build_plan`] run against the merged snapshot — in
//! their own frame format, sharing the varint/weight primitives:
//!
//! ```text
//! plan     := magic "CBSI" | version u8 (=1) | varint(generation)
//!           | tweight | varint(n) | n × entry
//! entry    := varint(site-key step) | weight | kind u8 | payload
//! payload  := varint(callee)                          -- 0 direct
//!           | varint(callee) | weight                 -- 1 devirtualize
//!           | varint(t) | t × (varint(callee) | weight) -- 2 guarded
//! ```
//!
//! Site keys pack `caller·2³² + site` into 64 bits, delta-encoded in
//! strictly ascending order like edge keys. `tweight` is the source
//! graph's total weight and, uniquely, may be zero (an empty
//! aggregate); every other weight is positive. Encoding a plan and
//! decoding it back is bit-exact, so a generation-cached encoded plan
//! is byte-identical across serves.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{InlinePlan, PlanEntry, PlanKind};
use std::error::Error;
use std::fmt;

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"CBSP";
/// Current (only) format version.
pub const VERSION: u8 = 1;
/// Magic bytes opening every inlining-plan frame.
pub const PLAN_MAGIC: [u8; 4] = *b"CBSI";
/// Current (only) plan format version.
pub const PLAN_VERSION: u8 = 1;

/// Plan-entry kind bytes on the wire.
const PLAN_KIND_DIRECT: u8 = 0;
const PLAN_KIND_DEVIRTUALIZE: u8 = 1;
const PLAN_KIND_GUARDED: u8 = 2;

/// What a frame's weights mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Absolute weights of a producer's whole graph (its first flush).
    Snapshot,
    /// Positive weight increments since the producer's previous flush.
    Delta,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Snapshot => 0,
            FrameKind::Delta => 1,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(FrameKind::Snapshot),
            1 => Some(FrameKind::Delta),
            _ => None,
        }
    }
}

/// One decoded frame: the kind plus `(edge, weight)` records in
/// ascending edge order.
#[derive(Debug, Clone, PartialEq)]
pub struct DcgFrame {
    /// Snapshot or delta.
    pub kind: FrameKind,
    /// Records in ascending edge order; weights are positive and finite.
    pub edges: Vec<(CallEdge, f64)>,
}

/// A failure to decode a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// The input ended mid-frame.
    Truncated,
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// An edge key exceeded 96 bits.
    KeyOverflow,
    /// Keys were duplicated or out of order.
    UnsortedKeys,
    /// A weight was non-positive, non-finite, or used a reserved tag.
    BadWeight,
    /// Bytes remained after the last declared record.
    TrailingBytes,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a CBSP frame (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported CBSP version {v}"),
            CodecError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::VarintOverflow => write!(f, "varint wider than 96 bits"),
            CodecError::KeyOverflow => write!(f, "edge key exceeds 96 bits"),
            CodecError::UnsortedKeys => write!(f, "edge keys duplicated or out of order"),
            CodecError::BadWeight => write!(f, "weight not positive and finite"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after last record"),
        }
    }
}

impl Error for CodecError {}

/// Packs an edge into its 96-bit wire key.
fn key_of(e: &CallEdge) -> u128 {
    (u128::from(u32::from(e.caller)) << 64)
        | (u128::from(u32::from(e.site)) << 32)
        | u128::from(u32::from(e.callee))
}

/// Unpacks a wire key (must fit in 96 bits).
fn edge_of(key: u128) -> Result<CallEdge, CodecError> {
    if key >> 96 != 0 {
        return Err(CodecError::KeyOverflow);
    }
    Ok(CallEdge::new(
        MethodId::new((key >> 64) as u32),
        CallSiteId::new((key >> 32) as u32),
        MethodId::new(key as u32),
    ))
}

/// Appends a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Cursor over an encoded frame.
#[derive(Debug)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or(CodecError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(CodecError::Truncated)?;
        self.pos = end;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u128, CodecError> {
        let mut v: u128 = 0;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            // Nothing on the wire is wider than a 96-bit key (15 LEB128
            // groups reach 105 bits — comfortably inside u128, so the
            // accumulate below cannot overflow before this cap fires).
            if shift > 98 {
                return Err(CodecError::VarintOverflow);
            }
            v |= u128::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Weights that compress to a varint: non-negative integers below 2⁶²
/// whose `f64` representation is exact.
fn integral_weight(w: f64) -> Option<u64> {
    if w >= 0.0 && w < (1u64 << 62) as f64 && w.fract() == 0.0 {
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

fn read_weight_raw(r: &mut Reader<'_>) -> Result<f64, CodecError> {
    let tag = r.varint()?;
    if tag & 1 == 0 {
        let m = u64::try_from(tag >> 1).map_err(|_| CodecError::BadWeight)?;
        Ok(m as f64)
    } else if tag == 1 {
        let bytes: [u8; 8] = r.take(8)?.try_into().expect("take(8) returns 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    } else {
        Err(CodecError::BadWeight)
    }
}

fn read_weight(r: &mut Reader<'_>) -> Result<f64, CodecError> {
    let w = read_weight_raw(r)?;
    if !w.is_finite() || w <= 0.0 {
        return Err(CodecError::BadWeight);
    }
    Ok(w)
}

/// Like [`read_weight`] but admits zero — used only for a plan's total
/// weight, which is legitimately 0 for an empty aggregate.
fn read_weight_nonneg(r: &mut Reader<'_>) -> Result<f64, CodecError> {
    let w = read_weight_raw(r)?;
    if !w.is_finite() || w < 0.0 {
        return Err(CodecError::BadWeight);
    }
    Ok(w)
}

/// A streaming cursor over one encoded frame's records, created by
/// [`DcgCodec::records`].
///
/// Yields `Result<(CallEdge, f64), CodecError>` in ascending edge
/// order, applying exactly the validation [`DcgCodec::decode`] does —
/// including the trailing-bytes check, which surfaces as a final `Err`
/// after the last declared record. The first error fuses the iterator
/// (subsequent `next` calls return `None`), so a consumer folding
/// records into an aggregate must drain the iterator and abort on any
/// `Err` without applying partial results.
///
/// This is the server's decode-into-aggregate fast path: frames fold
/// straight into shard buckets without materializing an intermediate
/// record vector.
#[derive(Debug)]
pub struct RecordIter<'a> {
    r: Reader<'a>,
    kind: FrameKind,
    remaining: usize,
    prev: Option<u128>,
    fused: bool,
}

impl RecordIter<'_> {
    /// The frame kind declared in the header.
    pub fn kind(&self) -> FrameKind {
        self.kind
    }

    /// Records not yet yielded (the header count before iteration).
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// `true` when no records remain.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }

    fn read_record(&mut self) -> Result<(CallEdge, f64), CodecError> {
        let step = self.r.varint()?;
        let key = match self.prev {
            None => step,
            Some(p) => {
                if step == 0 {
                    return Err(CodecError::UnsortedKeys);
                }
                p.checked_add(step).ok_or(CodecError::KeyOverflow)?
            }
        };
        self.prev = Some(key);
        let edge = edge_of(key)?;
        let weight = read_weight(&mut self.r)?;
        Ok((edge, weight))
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Result<(CallEdge, f64), CodecError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fused {
            return None;
        }
        if self.remaining == 0 {
            if !self.r.done() {
                self.fused = true;
                return Some(Err(CodecError::TrailingBytes));
            }
            return None;
        }
        self.remaining -= 1;
        let rec = self.read_record();
        if rec.is_err() {
            self.fused = true;
        }
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.fused {
            (0, Some(0))
        } else {
            // +1 for the potential trailing-bytes error item.
            (self.remaining, Some(self.remaining + 1))
        }
    }
}

/// Encoder/decoder for the binary profile format.
///
/// Stateless; all methods are associated functions. See the
/// [module docs](self) for the wire layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct DcgCodec;

impl DcgCodec {
    /// Encodes a whole graph as a snapshot frame.
    ///
    /// Records are emitted in the graph's (ascending-edge) iteration
    /// order; weights round-trip bit-exactly.
    pub fn encode_snapshot(graph: &DynamicCallGraph) -> Vec<u8> {
        Self::encode_records(
            FrameKind::Snapshot,
            graph.iter().map(|(e, w)| (*e, w)),
            graph.num_edges(),
        )
    }

    /// Encodes weight increments (e.g. from
    /// [`DynamicCallGraph::drain_delta`]) as a delta frame.
    ///
    /// Records are sorted by edge; duplicate edges are coalesced by
    /// summing. Non-positive and non-finite increments are skipped, per
    /// the graph's weight contract.
    pub fn encode_delta(increments: &[(CallEdge, f64)]) -> Vec<u8> {
        let mut records: Vec<(CallEdge, f64)> = increments
            .iter()
            .filter(|(_, w)| w.is_finite() && *w > 0.0)
            .copied()
            .collect();
        // Stable sort: duplicate edges keep their input order, so the
        // coalescing additions below are bit-deterministic.
        records.sort_by_key(|r| r.0);
        records.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 += later.1;
                true
            } else {
                false
            }
        });
        let n = records.len();
        Self::encode_records(FrameKind::Delta, records.into_iter(), n)
    }

    fn encode_records(
        kind: FrameKind,
        records: impl Iterator<Item = (CallEdge, f64)>,
        count: usize,
    ) -> Vec<u8> {
        // ~3 bytes/record for dense ids and small integral weights.
        let mut out = Vec::with_capacity(8 + count * 8);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(kind.to_byte());
        put_varint(&mut out, count as u128);
        let mut prev: Option<u128> = None;
        for (e, w) in records {
            let key = key_of(&e);
            let step = match prev {
                None => key,
                Some(p) => {
                    debug_assert!(key > p, "records must be in ascending edge order");
                    key - p
                }
            };
            prev = Some(key);
            put_varint(&mut out, step);
            put_weight(&mut out, w);
        }
        out
    }

    /// Parses a frame header and returns a streaming cursor over its
    /// records, validating each one lazily as it is yielded.
    ///
    /// This is the allocation-free path: the header checks (magic,
    /// version, kind, hostile record count) run eagerly, while record
    /// validation happens per [`RecordIter::next`] call. [`Self::decode`]
    /// is this plus collecting into a `Vec`, so the two paths accept and
    /// reject exactly the same inputs.
    ///
    /// # Errors
    ///
    /// Any malformed header yields a [`CodecError`]; malformed records
    /// surface as `Err` items from the returned iterator.
    pub fn records(bytes: &[u8]) -> Result<RecordIter<'_>, CodecError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.byte()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = r.byte()?;
        let kind = FrameKind::from_byte(kind).ok_or(CodecError::BadKind(kind))?;
        let count = usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
        // A record is ≥ 2 bytes; a count promising more than the input
        // holds is rejected before allocating.
        if count > bytes.len() / 2 {
            return Err(CodecError::Truncated);
        }
        Ok(RecordIter {
            r,
            kind,
            remaining: count,
            prev: None,
            fused: false,
        })
    }

    /// Decodes a frame.
    ///
    /// # Errors
    ///
    /// Any malformed input yields a [`CodecError`]; no partial frame is
    /// ever returned.
    pub fn decode(bytes: &[u8]) -> Result<DcgFrame, CodecError> {
        let iter = Self::records(bytes)?;
        let kind = iter.kind();
        let mut edges = Vec::with_capacity(iter.len());
        for rec in iter {
            edges.push(rec?);
        }
        Ok(DcgFrame { kind, edges })
    }

    /// Validates an encoded frame without materializing it: drains the
    /// streaming record iterator and returns the frame kind and record
    /// count. Accepts and rejects exactly the inputs [`decode`] does —
    /// this is the cheap pre-check the dedup path ("bad frame beats
    /// duplicate") and the write-ahead log (journal only what will
    /// apply) rely on.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] [`decode`] would return for the same bytes.
    ///
    /// [`decode`]: Self::decode
    pub fn validate(bytes: &[u8]) -> Result<(FrameKind, usize), CodecError> {
        let iter = Self::records(bytes)?;
        let kind = iter.kind();
        let mut count = 0usize;
        for rec in iter {
            rec?;
            count += 1;
        }
        Ok((kind, count))
    }

    /// Decodes a frame and requires it to be a snapshot, returning the
    /// reconstructed graph.
    ///
    /// The kind is checked from the header, before any record is
    /// decoded; records then stream straight into a graph sized from
    /// the header count. The codec has already proved the keys strictly
    /// ascending, so every record appends.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadKind`] if the frame is a delta (whatever its
    /// body holds), plus any decode error.
    pub fn decode_snapshot(bytes: &[u8]) -> Result<DynamicCallGraph, CodecError> {
        let iter = Self::records(bytes)?;
        if iter.kind() != FrameKind::Snapshot {
            return Err(CodecError::BadKind(iter.kind().to_byte()));
        }
        let mut graph = DynamicCallGraph::with_capacity(iter.len());
        for rec in iter {
            let (edge, weight) = rec?;
            graph.record(edge, weight);
        }
        Ok(graph)
    }

    /// Encodes a fleet inlining plan as a `CBSI` frame.
    ///
    /// Entries must be sorted by `(caller, site)` with no duplicates —
    /// exactly what [`cbs_inliner::build_plan`] produces. Weights
    /// round-trip bit-exactly, so the same plan always encodes to the
    /// same bytes.
    pub fn encode_plan(plan: &InlinePlan) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + plan.entries.len() * 8);
        out.extend_from_slice(&PLAN_MAGIC);
        out.push(PLAN_VERSION);
        put_varint(&mut out, u128::from(plan.generation));
        put_weight(&mut out, plan.total_weight);
        put_varint(&mut out, plan.entries.len() as u128);
        let mut prev: Option<u64> = None;
        for e in &plan.entries {
            let key = (u64::from(u32::from(e.caller)) << 32) | u64::from(u32::from(e.site));
            let step = match prev {
                None => key,
                Some(p) => {
                    debug_assert!(key > p, "plan entries must be sorted by (caller, site)");
                    key - p
                }
            };
            prev = Some(key);
            put_varint(&mut out, u128::from(step));
            put_weight(&mut out, e.site_weight);
            match &e.kind {
                PlanKind::Direct { callee } => {
                    out.push(PLAN_KIND_DIRECT);
                    put_varint(&mut out, u128::from(u32::from(*callee)));
                }
                PlanKind::Devirtualize { callee, weight } => {
                    out.push(PLAN_KIND_DEVIRTUALIZE);
                    put_varint(&mut out, u128::from(u32::from(*callee)));
                    put_weight(&mut out, *weight);
                }
                PlanKind::Guarded { targets } => {
                    out.push(PLAN_KIND_GUARDED);
                    put_varint(&mut out, targets.len() as u128);
                    for (m, w) in targets {
                        put_varint(&mut out, u128::from(u32::from(*m)));
                        put_weight(&mut out, *w);
                    }
                }
            }
        }
        out
    }

    /// Decodes a `CBSI` plan frame.
    ///
    /// Validation is as strict as frame decoding: bad magic/version,
    /// truncation, overlong varints, ids beyond 32 bits, unsorted or
    /// duplicate `(caller, site)` keys, non-positive weights (a zero
    /// *total* is allowed), unknown kind bytes and trailing bytes are
    /// all rejected; no partial plan is ever returned.
    ///
    /// # Errors
    ///
    /// The [`CodecError`] describing the first malformed byte sequence.
    pub fn decode_plan(bytes: &[u8]) -> Result<InlinePlan, CodecError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != PLAN_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.byte()?;
        if version != PLAN_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let generation = u64::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
        let total_weight = read_weight_nonneg(&mut r)?;
        let count = usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
        // An entry is ≥ 4 bytes (step, weight, kind, payload); reject a
        // hostile count before allocating.
        if count > bytes.len() / 4 {
            return Err(CodecError::Truncated);
        }
        let read_id = |r: &mut Reader<'_>| -> Result<u32, CodecError> {
            u32::try_from(r.varint()?).map_err(|_| CodecError::KeyOverflow)
        };
        let mut entries = Vec::with_capacity(count);
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            let step = r.varint()?;
            let key = match prev {
                None => u64::try_from(step).map_err(|_| CodecError::KeyOverflow)?,
                Some(p) => {
                    if step == 0 {
                        return Err(CodecError::UnsortedKeys);
                    }
                    let step = u64::try_from(step).map_err(|_| CodecError::KeyOverflow)?;
                    p.checked_add(step).ok_or(CodecError::KeyOverflow)?
                }
            };
            prev = Some(key);
            let caller = MethodId::new((key >> 32) as u32);
            let site = CallSiteId::new(key as u32);
            let site_weight = read_weight(&mut r)?;
            let kind = match r.byte()? {
                PLAN_KIND_DIRECT => PlanKind::Direct {
                    callee: MethodId::new(read_id(&mut r)?),
                },
                PLAN_KIND_DEVIRTUALIZE => PlanKind::Devirtualize {
                    callee: MethodId::new(read_id(&mut r)?),
                    weight: read_weight(&mut r)?,
                },
                PLAN_KIND_GUARDED => {
                    let n = usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
                    // A guard target is ≥ 2 bytes.
                    if n > bytes.len() / 2 {
                        return Err(CodecError::Truncated);
                    }
                    let mut targets = Vec::with_capacity(n);
                    for _ in 0..n {
                        let m = MethodId::new(read_id(&mut r)?);
                        let w = read_weight(&mut r)?;
                        targets.push((m, w));
                    }
                    PlanKind::Guarded { targets }
                }
                other => return Err(CodecError::BadKind(other)),
            };
            entries.push(PlanEntry {
                caller,
                site,
                site_weight,
                kind,
            });
        }
        if !r.done() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(InlinePlan {
            generation,
            total_weight,
            entries,
        })
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
    fn empty_graph_round_trips() {
        let g = DynamicCallGraph::new();
        let bytes = DcgCodec::encode_snapshot(&g);
        assert_eq!(bytes.len(), 7, "magic + version + kind + count");
        let frame = DcgCodec::decode(&bytes).unwrap();
        assert_eq!(frame.kind, FrameKind::Snapshot);
        assert!(frame.edges.is_empty());
        assert_eq!(DcgCodec::decode_snapshot(&bytes).unwrap(), g);
    }

    #[test]
    fn single_edge_round_trips() {
        let mut g = DynamicCallGraph::new();
        g.record(e(3, 1, 4), 1.5);
        let back = DcgCodec::decode_snapshot(&DcgCodec::encode_snapshot(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.weight(&e(3, 1, 4)).to_bits(), 1.5f64.to_bits());
    }

    #[test]
    fn dense_ids_and_integral_weights_compress() {
        // 100 edges within one caller, unit-ish weights: ~3 bytes/record.
        let mut g = DynamicCallGraph::new();
        for i in 0..100u32 {
            g.record(e(1, i, i + 1), f64::from(i + 1));
        }
        let bytes = DcgCodec::encode_snapshot(&g);
        assert!(
            bytes.len() < 7 + 100 * 8,
            "delta+varint must beat fixed-width: {} bytes",
            bytes.len()
        );
        assert_eq!(DcgCodec::decode_snapshot(&bytes).unwrap(), g);
    }

    #[test]
    fn varint_boundary_edge_ids_round_trip() {
        // Ids straddling every 7-bit varint group boundary, including
        // >2^21 (the 3→4 byte step) and the u32 extremes.
        let ids = [
            0u32,
            1,
            (1 << 7) - 1,
            1 << 7,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            (1 << 21) + 12345,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX - 1,
            u32::MAX,
        ];
        let mut g = DynamicCallGraph::new();
        for &c in &ids {
            for &s in &ids {
                g.record(e(c, s, c ^ s), 2.0);
            }
        }
        let back = DcgCodec::decode_snapshot(&DcgCodec::encode_snapshot(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.num_edges(), g.num_edges());
    }

    #[test]
    fn non_integral_and_extreme_weights_are_bit_exact() {
        let weights = [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            (1u64 << 53) as f64 + 2.0, // integral but above the varint-exact band? still exact
            ((1u64 << 62) as f64) * 4.0, // too large for the integral tag
            1e-300,
        ];
        let mut g = DynamicCallGraph::new();
        for (i, &w) in weights.iter().enumerate() {
            g.record(e(i as u32, 0, 1), w);
        }
        let back = DcgCodec::decode_snapshot(&DcgCodec::encode_snapshot(&g)).unwrap();
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(
                back.weight(&e(i as u32, 0, 1)).to_bits(),
                w.to_bits(),
                "weight {w} must round-trip bit-exactly"
            );
        }
    }

    #[test]
    fn delta_frames_sort_and_coalesce() {
        let incs = vec![
            (e(2, 0, 1), 1.0),
            (e(0, 0, 1), 0.5),
            (e(2, 0, 1), 2.0),
            (e(1, 1, 1), f64::NAN), // dropped per weight contract
            (e(1, 1, 1), -3.0),     // dropped
        ];
        let frame = DcgCodec::decode(&DcgCodec::encode_delta(&incs)).unwrap();
        assert_eq!(frame.kind, FrameKind::Delta);
        assert_eq!(frame.edges, vec![(e(0, 0, 1), 0.5), (e(2, 0, 1), 3.0)]);
    }

    #[test]
    fn truncated_frames_rejected_at_every_byte() {
        let mut g = DynamicCallGraph::new();
        g.record(e(5, 6, 7), 0.125); // raw-weight path: 8-byte payload
        g.record(e(1000000, 2, 3), 9.0);
        let bytes = DcgCodec::encode_snapshot(&g);
        for cut in 0..bytes.len() {
            let err = DcgCodec::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated),
                "cut at {cut}: got {err:?}"
            );
        }
        assert!(DcgCodec::decode(&bytes).is_ok());
    }

    #[test]
    fn malformed_headers_rejected() {
        assert_eq!(DcgCodec::decode(b"XXXXxxx"), Err(CodecError::BadMagic));
        let mut bytes = DcgCodec::encode_snapshot(&DynamicCallGraph::new());
        bytes[4] = 9;
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::BadVersion(9)));
        bytes[4] = VERSION;
        bytes[5] = 7;
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::BadKind(7)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut g = DynamicCallGraph::new();
        g.record(e(0, 0, 1), 1.0);
        let mut bytes = DcgCodec::encode_snapshot(&g);
        bytes.push(0);
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::TrailingBytes));
    }

    /// Regression: `decode_snapshot` used to decode a whole delta frame
    /// into a `Vec` before refusing it. The kind is a header fact, so a
    /// delta answers `BadKind` even when its body would not decode.
    #[test]
    fn decode_snapshot_refuses_a_delta_from_its_header() {
        let delta = DcgCodec::encode_delta(&[(e(0, 0, 1), 1.0), (e(2, 0, 1), 0.125)]);
        let refused = Err(CodecError::BadKind(FrameKind::Delta.to_byte()));
        assert_eq!(DcgCodec::decode_snapshot(&delta), refused);
        let cut = &delta[..delta.len() - 1];
        assert_eq!(DcgCodec::decode(cut), Err(CodecError::Truncated));
        assert_eq!(DcgCodec::decode_snapshot(cut), refused);
        let mut trailing = delta.clone();
        trailing.push(0);
        assert_eq!(DcgCodec::decode(&trailing), Err(CodecError::TrailingBytes));
        assert_eq!(DcgCodec::decode_snapshot(&trailing), refused);
    }

    #[test]
    fn zero_step_and_bad_weights_rejected() {
        // Hand-build: header, count=2, key 5, weight 1, step 0 (duplicate).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        bytes.push(2); // count
        bytes.push(5); // first key
        bytes.push(2); // weight 1 (tag 2 = integral 1)
        bytes.push(0); // zero step: duplicate key
        bytes.push(2);
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::UnsortedKeys));

        // Integral weight 0 is non-positive.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        bytes.push(1);
        bytes.push(5);
        bytes.push(0); // weight tag 0 → 0.0
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::BadWeight));

        // Raw weight NaN rejected.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        bytes.push(1);
        bytes.push(5);
        bytes.push(1); // raw tag
        bytes.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::BadWeight));
    }

    #[test]
    fn overlong_varint_and_key_overflow_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        bytes.push(1);
        // 15 continuation bytes: wider than any valid key.
        bytes.extend_from_slice(&[0xff; 15]);
        bytes.push(0x01);
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::VarintOverflow));

        // A 97-bit key fits the varint cap but overflows the key space.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        bytes.push(1);
        put_varint(&mut bytes, 1u128 << 96);
        bytes.push(2);
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::KeyOverflow));
    }

    #[test]
    fn streaming_records_match_decode_on_valid_frames() {
        let mut g = DynamicCallGraph::new();
        for i in 0..50u32 {
            g.record(e(i % 7, i, i + 1), 0.5 + f64::from(i));
        }
        let bytes = DcgCodec::encode_snapshot(&g);
        let frame = DcgCodec::decode(&bytes).unwrap();
        let iter = DcgCodec::records(&bytes).unwrap();
        assert_eq!(iter.kind(), frame.kind);
        assert_eq!(iter.len(), frame.edges.len());
        assert!(!iter.is_empty());
        let streamed: Vec<(CallEdge, f64)> = iter.map(|r| r.unwrap()).collect();
        assert_eq!(streamed, frame.edges);
    }

    #[test]
    fn streaming_records_error_parity_with_decode() {
        // Every truncation of a real frame and a set of malformed bodies
        // must fail the streaming path with the same error decode gives,
        // and the iterator must fuse after the first error.
        let mut g = DynamicCallGraph::new();
        g.record(e(5, 6, 7), 0.125);
        g.record(e(1000000, 2, 3), 9.0);
        let good = DcgCodec::encode_snapshot(&g);

        let mut cases: Vec<Vec<u8>> = (0..good.len()).map(|cut| good[..cut].to_vec()).collect();
        let mut trailing = good.clone();
        trailing.push(0);
        cases.push(trailing);
        let mut zero_step = Vec::new();
        zero_step.extend_from_slice(&MAGIC);
        zero_step.extend_from_slice(&[VERSION, 0, 2, 5, 2, 0, 2]);
        cases.push(zero_step);
        let mut bad_weight = Vec::new();
        bad_weight.extend_from_slice(&MAGIC);
        bad_weight.extend_from_slice(&[VERSION, 0, 1, 5, 0]);
        cases.push(bad_weight);
        let mut key_overflow = Vec::new();
        key_overflow.extend_from_slice(&MAGIC);
        key_overflow.extend_from_slice(&[VERSION, 0, 1]);
        put_varint(&mut key_overflow, 1u128 << 96);
        key_overflow.push(2);
        cases.push(key_overflow);

        for bytes in &cases {
            let want = DcgCodec::decode(bytes).unwrap_err();
            let got = match DcgCodec::records(bytes) {
                Err(e) => e,
                Ok(mut iter) => {
                    let first_err = loop {
                        match iter.next() {
                            Some(Err(e)) => break e,
                            Some(Ok(_)) => continue,
                            None => panic!("streaming accepted a frame decode rejects"),
                        }
                    };
                    assert!(iter.next().is_none(), "iterator must fuse after an error");
                    first_err
                }
            };
            assert_eq!(got, want, "error parity for {bytes:?}");
        }
    }

    #[test]
    fn hostile_count_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(VERSION);
        bytes.push(0);
        // Claims ~2^35 records with an empty body.
        put_varint(&mut bytes, 1u128 << 35);
        assert_eq!(DcgCodec::decode(&bytes), Err(CodecError::Truncated));
    }

    fn sample_plan() -> InlinePlan {
        InlinePlan {
            generation: 42,
            total_weight: 1234.5,
            entries: vec![
                PlanEntry {
                    caller: MethodId::new(0),
                    site: CallSiteId::new(3),
                    site_weight: 50.0,
                    kind: PlanKind::Direct {
                        callee: MethodId::new(7),
                    },
                },
                PlanEntry {
                    caller: MethodId::new(1),
                    site: CallSiteId::new(0),
                    site_weight: 100.25,
                    kind: PlanKind::Devirtualize {
                        callee: MethodId::new(9),
                        weight: 90.25,
                    },
                },
                PlanEntry {
                    caller: MethodId::new(1),
                    site: CallSiteId::new(5),
                    site_weight: 80.0,
                    kind: PlanKind::Guarded {
                        targets: vec![(MethodId::new(2), 44.0), (MethodId::new(4), 36.0)],
                    },
                },
            ],
        }
    }

    #[test]
    fn plan_round_trips_bit_exactly() {
        let plan = sample_plan();
        let bytes = DcgCodec::encode_plan(&plan);
        assert_eq!(&bytes[..4], b"CBSI");
        let back = DcgCodec::decode_plan(&bytes).unwrap();
        assert_eq!(back, plan);
        // Deterministic encoding: same plan, same bytes.
        assert_eq!(bytes, DcgCodec::encode_plan(&back));
    }

    #[test]
    fn empty_plan_with_zero_total_round_trips() {
        let plan = InlinePlan {
            generation: 0,
            total_weight: 0.0,
            entries: Vec::new(),
        };
        let bytes = DcgCodec::encode_plan(&plan);
        assert_eq!(DcgCodec::decode_plan(&bytes).unwrap(), plan);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        let good = DcgCodec::encode_plan(&sample_plan());

        // Wrong magic (a CBSP frame is not a plan).
        let snapshot = DcgCodec::encode_snapshot(&DynamicCallGraph::new());
        assert_eq!(DcgCodec::decode_plan(&snapshot), Err(CodecError::BadMagic));

        // Bad version.
        let mut bad = good.clone();
        bad[4] = 9;
        assert_eq!(DcgCodec::decode_plan(&bad), Err(CodecError::BadVersion(9)));

        // Truncated mid-entry.
        assert_eq!(
            DcgCodec::decode_plan(&good[..good.len() - 1]),
            Err(CodecError::Truncated)
        );

        // Trailing bytes after the last entry.
        let mut long = good.clone();
        long.push(0);
        assert_eq!(DcgCodec::decode_plan(&long), Err(CodecError::TrailingBytes));

        // Duplicate (caller, site) keys: zero step.
        let mut dup = Vec::new();
        dup.extend_from_slice(&PLAN_MAGIC);
        dup.push(PLAN_VERSION);
        put_varint(&mut dup, 1); // generation
        put_weight(&mut dup, 10.0); // total
        put_varint(&mut dup, 2); // two entries
        for step in [5u128, 0u128] {
            put_varint(&mut dup, step);
            put_weight(&mut dup, 1.0);
            dup.push(PLAN_KIND_DIRECT);
            put_varint(&mut dup, 1);
        }
        assert_eq!(DcgCodec::decode_plan(&dup), Err(CodecError::UnsortedKeys));

        // Unknown kind byte.
        let mut bad_kind = Vec::new();
        bad_kind.extend_from_slice(&PLAN_MAGIC);
        bad_kind.push(PLAN_VERSION);
        put_varint(&mut bad_kind, 1);
        put_weight(&mut bad_kind, 10.0);
        put_varint(&mut bad_kind, 1);
        put_varint(&mut bad_kind, 5);
        put_weight(&mut bad_kind, 1.0);
        bad_kind.push(3);
        put_varint(&mut bad_kind, 1);
        assert_eq!(
            DcgCodec::decode_plan(&bad_kind),
            Err(CodecError::BadKind(3))
        );

        // Hostile entry count with an empty body.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&PLAN_MAGIC);
        hostile.push(PLAN_VERSION);
        put_varint(&mut hostile, 1);
        put_weight(&mut hostile, 10.0);
        put_varint(&mut hostile, 1u128 << 35);
        assert_eq!(DcgCodec::decode_plan(&hostile), Err(CodecError::Truncated));

        // Zero site weight is invalid (only the total may be zero).
        let mut zero_w = Vec::new();
        zero_w.extend_from_slice(&PLAN_MAGIC);
        zero_w.push(PLAN_VERSION);
        put_varint(&mut zero_w, 1);
        put_weight(&mut zero_w, 10.0);
        put_varint(&mut zero_w, 1);
        put_varint(&mut zero_w, 5);
        put_weight(&mut zero_w, 0.0);
        zero_w.push(PLAN_KIND_DIRECT);
        put_varint(&mut zero_w, 1);
        assert_eq!(DcgCodec::decode_plan(&zero_w), Err(CodecError::BadWeight));
    }
}
