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
//! ## One decoder
//!
//! Every decode runs on one varint reader. Where eight or more bytes
//! remain, it checks the bounds once, reads the eight bytes as one
//! little-endian word, finds the value's last byte as the first clear
//! continuation bit and packs up to eight 7-bit groups (56 bits) without
//! a branch per byte. A record's key step and weight tag are read as a
//! pair: one word holds both when the step stays within a caller, and
//! two words hold a ten-byte step that crosses callers with its tag; the
//! second value's end is the next clear continuation bit. Any other
//! value continues from its ninth byte, and one in the last bytes of the
//! input from its first, one bounds-checked byte at a time into a
//! `u128`; that tail also enforces the 15-byte cap. An even weight tag
//! holds an integer, finite and positive exactly when it is not zero,
//! so only a raw `f64` weight is classified as a float.
//!
//! Records are read by one function, which [`RecordIter`]'s `next`
//! calls for a caller that wants one `Result` per record, and which a
//! crate-private loop calls with the cursor's state in locals for
//! [`DcgCodec::decode`], [`DcgCodec::decode_snapshot`] (appending each
//! record to the graph, which checks and sums it as it appends: one
//! pass) and the server's `partition_frame`.
//! `tests/decoder_differential.rs` holds all four entry points and
//! [`DcgCodec::decode_plan`] to a frozen copy of the byte-at-a-time
//! decoder, and `tests/one_pass_decode_differential.rs` to a frozen copy
//! of the two-pass decoder this one replaced, bit for bit and error for
//! error. The encoder writes a varint eight groups at a time, as 8-byte
//! stores.
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

/// A frame's header, its record count written for `max_count`
/// records ([`patch_count`] corrects it if fewer come). The buffer has
/// room for `max_count` records of ~8 bytes.
fn frame_header(kind: FrameKind, max_count: usize) -> Vec<u8> {
    // ~3 bytes/record for dense ids and small integral weights.
    let mut out = Vec::with_capacity(8 + max_count * 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind.to_byte());
    put_varint(&mut out, max_count as u128);
    out
}

/// Rewrites the record count of a frame whose header
/// [`frame_header`] wrote for `max_count` records when `count` came.
fn patch_count(mut out: Vec<u8>, count: usize, max_count: usize) -> Vec<u8> {
    if count != max_count {
        let count_at = MAGIC.len() + 2;
        let mut max = Vec::new();
        put_varint(&mut max, max_count as u128);
        let mut varint = Vec::new();
        put_varint(&mut varint, count as u128);
        out.splice(count_at..count_at + max.len(), varint);
    }
    out
}

/// The keys and length of a run of records [`put_records`] wrote.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// The run's first key, `None` for an empty run.
    first: Option<u128>,
    /// The run's last key, `None` for an empty run.
    last: Option<u128>,
    /// Records written.
    count: usize,
}

/// Writes records, whose keys must ascend strictly, as key steps and
/// weights. With `lead`, the first record's step is its key (a frame's
/// first record); without, it is left out, for a caller that writes it
/// once it knows the key before the run.
fn put_records(
    out: &mut Vec<u8>,
    records: impl Iterator<Item = (CallEdge, f64)>,
    lead: bool,
) -> Run {
    let mut run = Run {
        first: None,
        last: None,
        count: 0,
    };
    for (e, w) in records {
        let key = key_of(&e);
        match run.last {
            None => {
                run.first = Some(key);
                if lead {
                    put_varint(out, key);
                }
            }
            Some(p) => {
                debug_assert!(key > p, "records must be in ascending edge order");
                put_varint(out, key - p);
            }
        }
        run.last = Some(key);
        put_weight(out, w);
        run.count += 1;
    }
    run
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

/// The LEB128 continuation bit of every byte of a word.
const CONTINUATION: u64 = 0x8080_8080_8080_8080;

/// Packs the 7-bit groups held in a word's eight bytes (little-endian,
/// continuation bits ignored) into one 56-bit value.
fn pack_groups(word: u64) -> u64 {
    let x = word & !CONTINUATION;
    let x = ((x & 0x7f00_7f00_7f00_7f00) >> 1) | (x & 0x007f_007f_007f_007f);
    let x = ((x & 0x3fff_0000_3fff_0000) >> 2) | (x & 0x0000_3fff_0000_3fff);
    ((x & 0x0fff_ffff_0000_0000) >> 4) | (x & 0x0000_0000_0fff_ffff)
}

/// The inverse of [`pack_groups`]: spreads a value below 2⁵⁶ into one
/// 7-bit group per byte.
fn spread_groups(v: u64) -> u64 {
    let x = ((v & 0x00ff_ffff_f000_0000) << 4) | (v & 0x0000_0000_0fff_ffff);
    let x = ((x & 0x0fff_c000_0fff_c000) << 2) | (x & 0x0000_3fff_0000_3fff);
    ((x & 0x3f80_3f80_3f80_3f80) << 1) | (x & 0x007f_007f_007f_007f)
}

/// Two varints that end in one little-endian `word`, whose clear
/// continuation bits are `ends`: the groups up to the first end, those
/// from there to the second, and the bytes both take. `None` if the
/// word ends fewer than two values.
#[inline(always)]
fn split_pair(word: u64, ends: u64) -> Option<(u64, u64, usize)> {
    let second = ends & ends.wrapping_sub(1);
    if second == 0 {
        return None;
    }
    // Bit 7 of each value's last byte; the first is at most bit 55.
    let (first, last) = (ends.trailing_zeros(), second.trailing_zeros());
    let a = pack_groups(word & (u64::MAX >> (63 - first)));
    let b = pack_groups((word & (u64::MAX >> (63 - last))) >> (first + 1));
    Some((a, b, (last / 8 + 1) as usize))
}

/// Appends a LEB128 varint, eight groups to a word: every full 56 bits
/// are one 8-byte store with all continuation bits set, and the last
/// (below 2⁵⁶) one 8-byte store of which its length is kept.
fn put_varint(out: &mut Vec<u8>, mut v: u128) {
    const LOW_56: u128 = (1 << 56) - 1;
    while v > LOW_56 {
        let groups = spread_groups((v & LOW_56) as u64);
        out.extend_from_slice(&(groups | CONTINUATION).to_le_bytes());
        v >>= 56;
    }
    let v = v as u64;
    let len = (70 - (v | 1).leading_zeros()) / 7;
    let continued = CONTINUATION & ((1u64 << (8 * (len - 1))) - 1);
    let at = out.len();
    out.extend_from_slice(&(spread_groups(v) | continued).to_le_bytes());
    out.truncate(at + len as usize);
}

/// Cursor over an encoded frame: the one reader every decode path
/// runs on.
#[derive(Debug, Clone, Copy)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take<const N: usize>(&mut self) -> Result<&'a [u8; N], CodecError> {
        let bytes = self.buf[self.pos..]
            .first_chunk::<N>()
            .ok_or(CodecError::Truncated)?;
        self.pos += N;
        Ok(bytes)
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// One LEB128 varint. With 8 or more bytes left, the bounds are
    /// checked once: the next eight bytes are read as one word, whose
    /// first clear continuation bit ends a value of up to 56 bits, packed
    /// without a branch per byte. A longer value goes on from its ninth
    /// byte, and one near the end of the input from its first, byte by
    /// byte in `u128` through [`varint_tail`](Self::varint_tail).
    #[inline(always)]
    fn varint(&mut self) -> Result<u128, CodecError> {
        let pos = self.pos;
        let Some(bytes) = self.buf[pos..].first_chunk::<8>() else {
            return self.varint_tail(pos, 0, 0);
        };
        let word = u64::from_le_bytes(*bytes);
        let ends = !word & CONTINUATION;
        if ends == 0 {
            return self.varint_tail(pos + 8, u128::from(pack_groups(word)), 56);
        }
        // Bit 7 of the value's last byte.
        let last = ends.trailing_zeros();
        self.pos = pos + (last / 8 + 1) as usize;
        Ok(u128::from(pack_groups(word & (u64::MAX >> (63 - last)))))
    }

    /// Continues a varint at `pos` with `v` holding its first `shift`
    /// bits, one bounds-checked byte at a time.
    fn varint_tail(
        &mut self,
        mut pos: usize,
        mut v: u128,
        mut shift: u32,
    ) -> Result<u128, CodecError> {
        loop {
            let b = *self.buf.get(pos).ok_or(CodecError::Truncated)?;
            pos += 1;
            // Nothing on the wire is wider than a 96-bit key (15 LEB128
            // groups reach 105 bits — comfortably inside u128, so the
            // accumulate below cannot overflow before this cap fires).
            if shift > 98 {
                return Err(CodecError::VarintOverflow);
            }
            v |= u128::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                self.pos = pos;
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// The next two varints — a record's key step and weight tag, or a
    /// guard's callee and weight tag — read together when the second
    /// ends in the word where the first does: either the next eight
    /// bytes hold both (a step within a caller), or they hold the
    /// first's first eight groups and the eight after them hold the rest
    /// of it and all of the second (a ten-byte step that crosses
    /// callers). The second value ends at the first clear continuation
    /// bit after the first's. `None`, with nothing read, for any other
    /// shape or when fewer bytes are left than the shape reads.
    #[inline(always)]
    fn pair(&mut self) -> Option<(u128, u64)> {
        let pos = self.pos;
        let word = u64::from_le_bytes(*self.buf[pos..].first_chunk::<8>()?);
        let ends = !word & CONTINUATION;
        if ends != 0 {
            let (a, b, len) = split_pair(word, ends)?;
            self.pos = pos + len;
            return Some((u128::from(a), b));
        }
        // The first value ends in the next word's first seven bytes, its
        // 9th to 15th: one that ends in the 8th leaves the second no room,
        // so a 16th group, past the cap, is left to the one-at-a-time
        // path to report.
        let next = u64::from_le_bytes(*self.buf[pos + 8..].first_chunk::<8>()?);
        let (high, b, len) = split_pair(next, !next & CONTINUATION)?;
        self.pos = pos + 8 + len;
        Some((u128::from(pack_groups(word)) | u128::from(high) << 56, b))
    }

    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Weights that compress to a varint: non-negative integers below 2⁶²
/// whose `f64` representation is exact.
///
/// In that range `w as u64` truncates toward zero, so the round trip
/// `m as f64 == w` holds exactly when `w` is integral; no `fract()` is
/// needed (on x86-64 without SSE4.1 it is a libm call per record).
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

/// The weight a read `tag` opens (the raw `f64` after it, if any),
/// positive and finite, or zero as well with `allow_zero`. An even tag
/// holds an integer, which is finite and is positive exactly when it is
/// not zero, so only a raw weight is classified as a float.
#[inline(always)]
fn weight_of_tag(r: &mut Reader<'_>, tag: u128, allow_zero: bool) -> Result<f64, CodecError> {
    if tag & 1 == 0 {
        let m = u64::try_from(tag >> 1).map_err(|_| CodecError::BadWeight)?;
        if m == 0 && !allow_zero {
            return Err(CodecError::BadWeight);
        }
        Ok(m as f64)
    } else if tag == 1 {
        let w = f64::from_bits(u64::from_le_bytes(*r.take::<8>()?));
        if !w.is_finite() || w < 0.0 || (w == 0.0 && !allow_zero) {
            return Err(CodecError::BadWeight);
        }
        Ok(w)
    } else {
        Err(CodecError::BadWeight)
    }
}

/// A positive, finite weight.
#[inline]
fn read_weight(r: &mut Reader<'_>) -> Result<f64, CodecError> {
    let tag = r.varint()?;
    weight_of_tag(r, tag, false)
}

/// Like [`read_weight`] but admits zero — used only for a plan's total
/// weight, which is legitimately 0 for an empty aggregate.
fn read_weight_nonneg(r: &mut Reader<'_>) -> Result<f64, CodecError> {
    let tag = r.varint()?;
    weight_of_tag(r, tag, true)
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
/// The crate's own decoders (and the server's decode into the
/// connection's reused ingest scratch) drive the same per-record read
/// through a loop that yields no `Option<Result<..>>` per record.
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

    /// Feeds every remaining record to `sink` in order, then checks for
    /// trailing bytes, stopping at the first error: the loop
    /// [`DcgCodec::decode`], [`DcgCodec::decode_snapshot`] and the
    /// server's `partition_frame` run. It reads records exactly as
    /// [`next`](Iterator::next) does, without an `Option<Result<..>>`
    /// per record.
    pub(crate) fn for_each_record(
        self,
        mut sink: impl FnMut(CallEdge, f64),
    ) -> Result<(), CodecError> {
        // The cursor's state lives in locals here, not behind `&mut self`.
        let (mut r, mut prev) = (self.r, self.prev);
        for _ in 0..self.remaining {
            let (edge, weight) = read_record(&mut r, &mut prev)?;
            sink(edge, weight);
        }
        if !r.done() {
            return Err(CodecError::TrailingBytes);
        }
        Ok(())
    }
}

/// Reads one record: its key step from `prev` (the previous record's
/// key, `None` before the first), then its weight. The step and weight
/// tag are read as a [`Reader::pair`] when they fit; either way the key
/// is checked before the weight, so the errors come in the order the
/// bytes do.
#[inline(always)]
fn read_record(r: &mut Reader<'_>, prev: &mut Option<u128>) -> Result<(CallEdge, f64), CodecError> {
    if let Some((step, tag)) = r.pair() {
        let edge = next_edge(prev, step)?;
        return Ok((edge, weight_of_tag(r, u128::from(tag), false)?));
    }
    // The long path reads a copy of the cursor, so the cursor does not
    // escape to memory for the short path's sake.
    let (mut long, mut long_prev) = (*r, *prev);
    let record = read_long_record(&mut long, &mut long_prev);
    (*r, *prev) = (long, long_prev);
    record
}

/// [`read_record`] for a record whose step and tag are not a
/// [`Reader::pair`]: each is read on its own.
#[inline(never)]
fn read_long_record(
    r: &mut Reader<'_>,
    prev: &mut Option<u128>,
) -> Result<(CallEdge, f64), CodecError> {
    let edge = next_edge(prev, r.varint()?)?;
    Ok((edge, read_weight(r)?))
}

/// The edge `step` above `prev` (or at `step`, for a frame's first
/// record), which becomes the new `prev`.
#[inline]
fn next_edge(prev: &mut Option<u128>, step: u128) -> Result<CallEdge, CodecError> {
    let key = match *prev {
        None => step,
        Some(p) => {
            if step == 0 {
                return Err(CodecError::UnsortedKeys);
            }
            p.checked_add(step).ok_or(CodecError::KeyOverflow)?
        }
    };
    *prev = Some(key);
    edge_of(key)
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
        let rec = read_record(&mut self.r, &mut self.prev);
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
    /// order; weights round-trip bit-exactly. Edges decayed to weight
    /// zero, which no decoder accepts, are left out of records and count.
    ///
    /// One pass over the graph, in the halves
    /// [`DynamicCallGraph::read_halves`] cuts: the first is written
    /// straight into the frame while the second, on another core, is
    /// written to a buffer of its own with its first key step left out.
    /// The join writes that step from the first half's last *emitted*
    /// key (the frame's first key is absolute, a step from 0) and
    /// appends the buffer, so the frame is byte for byte the one a
    /// single pass writes.
    pub fn encode_snapshot(graph: &DynamicCallGraph) -> Vec<u8> {
        let positive = |range| {
            graph
                .iter_range(range)
                .filter(|&(_, w)| w > 0.0)
                .map(|(e, w)| (*e, w))
        };
        let max_count = graph.num_edges();
        let mut out = frame_header(FrameKind::Snapshot, max_count);
        let (head, tail) = graph.read_halves(
            |range| put_records(&mut out, positive(range), true),
            |range| {
                let mut body = Vec::with_capacity(range.len() * 8);
                (put_records(&mut body, positive(range), false), body)
            },
        );
        let mut count = head.count;
        if let Some((run, body)) = tail {
            if let Some(first) = run.first {
                put_varint(&mut out, first - head.last.unwrap_or(0));
                out.extend_from_slice(&body);
                count += run.count;
            }
        }
        patch_count(out, count, max_count)
    }

    /// Encodes weight increments (e.g. from
    /// [`DynamicCallGraph::drain_delta`]) as a delta frame.
    ///
    /// Records are sorted by edge; duplicate edges are coalesced by
    /// summing. Non-positive and non-finite increments are skipped, per
    /// the graph's weight contract. Increments that already ascend
    /// strictly with positive, finite weights — what `drain_delta` and
    /// [`cbs_dcg::coalesce_increments`] return — are encoded as they
    /// are, with no copy.
    pub fn encode_delta(increments: &[(CallEdge, f64)]) -> Vec<u8> {
        let canonical = increments.windows(2).all(|p| p[0].0 < p[1].0)
            && increments.iter().all(|(_, w)| w.is_finite() && *w > 0.0);
        if canonical {
            return Self::encode_records(
                FrameKind::Delta,
                increments.iter().copied(),
                increments.len(),
            );
        }
        let records = cbs_dcg::coalesce_increments(increments, &[]);
        let n = records.len();
        Self::encode_records(FrameKind::Delta, records.into_iter(), n)
    }

    /// Encodes `count` records, which must ascend strictly.
    fn encode_records(
        kind: FrameKind,
        records: impl Iterator<Item = (CallEdge, f64)>,
        count: usize,
    ) -> Vec<u8> {
        let mut out = frame_header(kind, count);
        let run = put_records(&mut out, records, true);
        debug_assert_eq!(run.count, count, "the header count is the record count");
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
        if *r.take::<4>()? != MAGIC {
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
        iter.for_each_record(|edge, weight| edges.push((edge, weight)))?;
        Ok(DcgFrame { kind, edges })
    }

    /// Decodes a frame and requires it to be a snapshot, returning the
    /// reconstructed graph.
    ///
    /// The kind is checked from the header, before any record is
    /// decoded; each record is then appended to a graph sized from the
    /// header count ([`DynamicCallGraph::append_ascending`]), which
    /// checks its own order and weight and adds to the total as it
    /// appends: one pass over the records, none over the graph.
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
        iter.for_each_record(|edge, weight| graph.append_ascending(edge, weight))?;
        Ok(graph)
    }

    /// Encodes a fleet inlining plan as a `CBSI` frame.
    ///
    /// Entries must be sorted by `(caller, site)` with no duplicates —
    /// exactly what [`cbs_inliner::build_plan`] produces. Weights
    /// round-trip bit-exactly, so the same plan always encodes to the
    /// same bytes.
    pub fn encode_plan(plan: &InlinePlan) -> Vec<u8> {
        // 10 B an entry: a 25 117-entry plan of a 200 000-edge aggregate
        // encodes to 9.6 B an entry (key step, site weight, kind byte,
        // callee), so the buffer is written without regrowing.
        let mut out = Vec::with_capacity(16 + plan.entries.len() * 10);
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
        if *r.take::<4>()? != PLAN_MAGIC {
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
        // A guard target is a callee id and its weight, read as a
        // `Reader::pair` when they are one; the id is checked first.
        let read_target = |r: &mut Reader<'_>| -> Result<(MethodId, f64), CodecError> {
            if let Some((id, tag)) = r.pair() {
                let id = u32::try_from(id).map_err(|_| CodecError::KeyOverflow)?;
                return Ok((MethodId::new(id), weight_of_tag(r, u128::from(tag), false)?));
            }
            let id = read_id(r)?;
            Ok((MethodId::new(id), read_weight(r)?))
        };
        let mut entries = Vec::with_capacity(count);
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            // The key step and site weight, as a record's.
            let (step, tag) = match r.pair() {
                Some((step, tag)) => (step, Some(u128::from(tag))),
                None => (r.varint()?, None),
            };
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
            let site_weight = match tag {
                Some(tag) => weight_of_tag(&mut r, tag, false)?,
                None => read_weight(&mut r)?,
            };
            let kind = match r.byte()? {
                PLAN_KIND_DIRECT => PlanKind::Direct {
                    callee: MethodId::new(read_id(&mut r)?),
                },
                PLAN_KIND_DEVIRTUALIZE => {
                    let (callee, weight) = read_target(&mut r)?;
                    PlanKind::Devirtualize { callee, weight }
                }
                PLAN_KIND_GUARDED => {
                    let n = usize::try_from(r.varint()?).map_err(|_| CodecError::VarintOverflow)?;
                    // A guard target is ≥ 2 bytes.
                    if n > bytes.len() / 2 {
                        return Err(CodecError::Truncated);
                    }
                    let mut targets = Vec::with_capacity(n);
                    for _ in 0..n {
                        targets.push(read_target(&mut r)?);
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
    fn integral_weight_matches_the_fract_check() {
        fn with_fract(w: f64) -> Option<u64> {
            if w >= 0.0 && w < (1u64 << 62) as f64 && w.fract() == 0.0 {
                let m = w as u64;
                if m as f64 == w {
                    return Some(m);
                }
            }
            None
        }
        let two_62 = (1u64 << 62) as f64;
        let two_53 = (1u64 << 53) as f64;
        let edges = [
            0.0,
            -0.0,
            0.5,
            1e-300,
            two_53 - 1.0,
            two_53,
            two_53 + 2.0,
            f64::from_bits(two_62.to_bits() - 1),
            two_62,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = cbs_prng::SmallRng::seed_from_u64(0x1D7E_6A15);
        let random = (0..10_000).map(|_| f64::from_bits(rng.next_u64()));
        for w in edges.into_iter().chain(random) {
            assert_eq!(
                integral_weight(w),
                with_fract(w),
                "weight {w:e} ({:#x})",
                w.to_bits()
            );
        }
    }

    /// The LEB128 writer before the one-word store.
    fn put_varint_bytewise(out: &mut Vec<u8>, mut v: u128) {
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

    #[test]
    fn word_varint_writer_matches_the_bytewise_one() {
        let mut rng = cbs_prng::SmallRng::seed_from_u64(0x001E_B128);
        let edges = (0..128).flat_map(|k| {
            let p = 1u128 << k;
            [p - 1, p, p + 1]
        });
        let random = (0..10_000).map(|_| {
            let v = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
            v >> rng.gen_range(0..128u32)
        });
        for v in edges.chain([u128::MAX]).chain(random) {
            let (mut word, mut bytewise) = (vec![0xaa], vec![0xaa]);
            put_varint(&mut word, v);
            put_varint_bytewise(&mut bytewise, v);
            assert_eq!(word, bytewise, "{v:#x}");
            if v >> 105 == 0 {
                let mut r = Reader { buf: &word, pos: 1 };
                assert_eq!(r.varint(), Ok(v), "{v:#x} reads back");
                assert!(r.done());
            }
        }
    }

    /// Random increments: unsorted, canonical (ascending, distinct,
    /// positive and finite — the one-pass path), ascending with a repeat,
    /// or canonical but for one weight the contract drops. Every input
    /// encodes to the bytes of its coalesced form.
    #[test]
    fn encode_delta_matches_the_coalescing_path_on_every_input() {
        cbs_prng::prop::run_cases("encode_delta_one_pass", 256, |rng| {
            let mut incs: Vec<(CallEdge, f64)> = (0..rng.gen_range(0..60usize))
                .map(|_| {
                    let edge = e(
                        rng.gen_range(0..6u32),
                        rng.gen_range(0..4u32),
                        rng.gen_range(0..=u32::MAX) >> rng.gen_range(0..32u32),
                    );
                    let w = match rng.gen_range(0..12u32) {
                        0 => 0.0,
                        1 => -1.0,
                        2 => f64::NAN,
                        3 => f64::INFINITY,
                        4 => rng.gen_f64() + f64::MIN_POSITIVE,
                        _ => f64::from(rng.gen_range(1..5000u32)),
                    };
                    (edge, w)
                })
                .collect();
            match rng.gen_range(0..4u32) {
                0 => {}
                1 => incs = cbs_dcg::coalesce_increments(&incs, &[]),
                // Ascending but with repeats: the one-pass path must
                // refuse it.
                2 => {
                    incs.retain(|(_, w)| w.is_finite() && *w > 0.0);
                    incs.sort_by_key(|r| r.0);
                    if let Some(&first) = incs.first() {
                        incs.insert(0, first);
                    }
                }
                // Canonical but for one weight the contract drops.
                _ => {
                    incs = cbs_dcg::coalesce_increments(&incs, &[]);
                    if !incs.is_empty() {
                        let i = rng.gen_range(0..incs.len());
                        incs[i].1 = [0.0, -2.0, f64::NAN, f64::INFINITY][i % 4];
                    }
                }
            }
            let coalesced = cbs_dcg::coalesce_increments(&incs, &[]);
            let want = DcgCodec::encode_records(
                FrameKind::Delta,
                coalesced.iter().copied(),
                coalesced.len(),
            );
            let bytes = DcgCodec::encode_delta(&incs);
            assert_eq!(bytes, want, "{incs:?}");
            let frame = DcgCodec::decode(&bytes).expect("own encoding decodes");
            assert_eq!(frame.edges.len(), coalesced.len());
        });
    }

    /// Zero-weight edges leave the header count short of the edge count;
    /// when the count then needs fewer varint bytes the frame shifts, and
    /// the bytes are those of the graph without those edges.
    #[test]
    fn snapshot_count_is_patched_when_zero_weights_drop_out() {
        for (edges, zeroed) in [(130u32, 5u32), (128, 1), (200, 0), (16_384, 2)] {
            let mut g = DynamicCallGraph::new();
            for i in 0..edges {
                // 5e-324 halves to zero; 1.0 halves to 0.5.
                g.record(e(i, 0, 1), if i < zeroed { 5e-324 } else { 1.0 });
            }
            g.decay(0.5, 0.0);
            let bytes = DcgCodec::encode_snapshot(&g);
            assert_eq!(
                bytes,
                DcgCodec::encode_snapshot(&DynamicCallGraph::merge_all([&g])),
                "{edges} edges, {zeroed} at zero"
            );
            let back = DcgCodec::decode_snapshot(&bytes).expect("own encoding decodes");
            assert_eq!(back.num_edges(), (edges - zeroed) as usize);
        }
    }

    #[test]
    fn snapshot_round_trip_of_10k_edges_answers_point_lookups() {
        let mut rng = cbs_prng::SmallRng::seed_from_u64(10_000);
        let mut g = DynamicCallGraph::new();
        while g.num_edges() < 10_000 {
            let edge = e(
                rng.gen_range(0..500u32),
                rng.gen_range(0..40u32),
                rng.gen_range(0..500u32),
            );
            // Quarter steps: half the weights take the raw-bits tag, and
            // every sum stays exact, so the record-order total matches
            // the decoder's edge-order one.
            g.record(edge, f64::from(rng.gen_range(1..400u32)) * 0.25);
        }
        let back = DcgCodec::decode_snapshot(&DcgCodec::encode_snapshot(&g)).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.total_weight().to_bits(), g.total_weight().to_bits());
        for (edge, w) in g.iter() {
            assert_eq!(back.weight(edge).to_bits(), w.to_bits());
        }
        assert_eq!(back.weight(&e(u32::MAX, 0, 0)), 0.0);
        assert_eq!(back.weight(&e(0, 99, 0)), 0.0);
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
