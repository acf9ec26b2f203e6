//! The one-pass decoders against a frozen copy of the two-pass decoder
//! they replaced: on random snapshot, delta and plan frames, valid or
//! not, `DcgCodec::decode_snapshot`, `decode`, `records` and
//! `decode_plan` must return what it returned — the same edges, weight
//! bits, total bits and iteration order, or the same `CodecError`.
//!
//! `oracle` below is that decoder, kept verbatim apart from the paths
//! and visibility a separate test crate needs: a word-at-a-time varint
//! reader whose values past eight bytes go on one byte at a time, a
//! weight read that classifies every weight as a float, and a snapshot
//! decode that fills an edge and a weight vector and then hands both to
//! `DynamicCallGraph::from_ascending`, which walked them a second time
//! to check them and sum the total. That constructor is gone; its pass
//! is kept here as `from_ascending`, which checks and sums as it did and
//! builds the graph by `record`ing each pair (bit for bit the graph it
//! built, as its own contract said), and asserts the two totals agree.
//!
//! The frames come from a generator that writes raw bytes, so they
//! reach what no encoder writes: key steps of every LEB128 length from
//! 1 to 15 bytes (overlong spellings included) and keys around 2⁹⁶;
//! integral weights of mantissa 0, 1, 2⁶² and above and tags wider than
//! `u64`; raw weights that are NaN, ±inf, −0, +0, subnormal or negative;
//! zero steps, reserved tags, wrong counts, truncation and trailing
//! bytes.

use cbs_bytecode::{CallSiteId, MethodId};
use cbs_dcg::{CallEdge, DynamicCallGraph};
use cbs_inliner::{InlinePlan, PlanEntry, PlanKind};
use cbs_prng::SmallRng;
use cbs_profiled::codec::{MAGIC, PLAN_MAGIC, PLAN_VERSION, VERSION};
use cbs_profiled::{CodecError, DcgCodec, DcgFrame, FrameKind};

mod oracle {
    use super::*;

    const PLAN_KIND_DIRECT: u8 = 0;
    const PLAN_KIND_DEVIRTUALIZE: u8 = 1;
    const PLAN_KIND_GUARDED: u8 = 2;

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Snapshot),
            1 => Some(FrameKind::Delta),
            _ => None,
        }
    }

    fn to_byte(kind: FrameKind) -> u8 {
        match kind {
            FrameKind::Snapshot => 0,
            FrameKind::Delta => 1,
        }
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

    /// Cursor over an encoded frame: the one reader every decode path
    /// runs on.
    #[derive(Debug)]
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
        #[inline]
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

        fn done(&self) -> bool {
            self.pos == self.buf.len()
        }
    }

    fn read_weight_raw(r: &mut Reader<'_>) -> Result<f64, CodecError> {
        let tag = r.varint()?;
        if tag & 1 == 0 {
            let m = u64::try_from(tag >> 1).map_err(|_| CodecError::BadWeight)?;
            Ok(m as f64)
        } else if tag == 1 {
            Ok(f64::from_bits(u64::from_le_bytes(*r.take::<8>()?)))
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

    #[derive(Debug)]
    pub(crate) struct RecordIter<'a> {
        r: Reader<'a>,
        kind: FrameKind,
        remaining: usize,
        prev: Option<u128>,
        fused: bool,
    }

    impl RecordIter<'_> {
        pub(crate) fn kind(&self) -> FrameKind {
            self.kind
        }

        pub(crate) fn len(&self) -> usize {
            self.remaining
        }

        /// Feeds every remaining record to `sink` in order, then checks for
        /// trailing bytes, stopping at the first error.
        fn for_each_record(self, mut sink: impl FnMut(CallEdge, f64)) -> Result<(), CodecError> {
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
    /// key, `None` before the first), then its weight.
    #[inline]
    fn read_record(
        r: &mut Reader<'_>,
        prev: &mut Option<u128>,
    ) -> Result<(CallEdge, f64), CodecError> {
        let step = r.varint()?;
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
        let edge = edge_of(key)?;
        let weight = read_weight(r)?;
        Ok((edge, weight))
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
    }

    pub(crate) fn records(bytes: &[u8]) -> Result<RecordIter<'_>, CodecError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if *r.take::<4>()? != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.byte()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = r.byte()?;
        let kind = from_byte(kind).ok_or(CodecError::BadKind(kind))?;
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

    pub(crate) fn decode(bytes: &[u8]) -> Result<DcgFrame, CodecError> {
        let iter = records(bytes)?;
        let kind = iter.kind();
        let mut edges = Vec::with_capacity(iter.len());
        iter.for_each_record(|edge, weight| edges.push((edge, weight)))?;
        Ok(DcgFrame { kind, edges })
    }

    pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<DynamicCallGraph, CodecError> {
        let iter = records(bytes)?;
        if iter.kind() != FrameKind::Snapshot {
            return Err(CodecError::BadKind(to_byte(iter.kind())));
        }
        let mut edges = Vec::with_capacity(iter.len());
        let mut weights = Vec::with_capacity(iter.len());
        iter.for_each_record(|edge, weight| {
            edges.push(edge);
            weights.push(weight);
        })?;
        Ok(from_ascending(edges, weights))
    }

    /// `DynamicCallGraph::from_ascending`'s pass: checks the vectors and
    /// sums the total in edge order from `+0.0`, then builds the graph
    /// by recording each pair, which must come to the same total.
    fn from_ascending(edges: Vec<CallEdge>, weights: Vec<f64>) -> DynamicCallGraph {
        assert_eq!(edges.len(), weights.len(), "one weight per edge");
        let mut total = 0.0;
        let mut valid = true;
        // Below every 96-bit key.
        let mut prev = -1i128;
        for (edge, &w) in edges.iter().zip(&weights) {
            let key = ((u128::from(u32::from(edge.caller)) << 64)
                | (u128::from(u32::from(edge.site)) << 32)
                | u128::from(u32::from(edge.callee))) as i128;
            valid &= (key > prev) & w.is_finite() & (w > 0.0);
            prev = key;
            total += w;
        }
        assert!(
            valid,
            "from_ascending needs strictly ascending edges and positive, finite weights"
        );
        let mut graph = DynamicCallGraph::with_capacity(edges.len());
        for (&edge, &w) in edges.iter().zip(&weights) {
            graph.record(edge, w);
        }
        assert_eq!(
            graph.total_weight().to_bits(),
            total.to_bits(),
            "recording the pairs sums what from_ascending summed"
        );
        graph
    }

    pub(crate) fn decode_plan(bytes: &[u8]) -> Result<InlinePlan, CodecError> {
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

/// A record list with its weights as bits, so equality is bitwise.
fn record_bits(records: &[(CallEdge, f64)]) -> Vec<(CallEdge, u64)> {
    records.iter().map(|&(e, w)| (e, w.to_bits())).collect()
}

/// A graph as everything a reader sees of it: its edges in iteration
/// order with their weight bits, its total's bits and each edge's
/// point lookup.
fn graph_bits(g: &DynamicCallGraph) -> (Vec<(CallEdge, u64)>, u64) {
    let records: Vec<(CallEdge, f64)> = g.iter().map(|(e, w)| (*e, w)).collect();
    for &(e, w) in &records {
        assert_eq!(g.weight(&e).to_bits(), w.to_bits(), "lookup of {e:?}");
    }
    (record_bits(&records), g.total_weight().to_bits())
}

/// A plan flattened to its ids and weight bits.
fn plan_bits(p: &InlinePlan) -> Vec<u64> {
    let mut out = vec![
        p.generation,
        p.total_weight.to_bits(),
        p.entries.len() as u64,
    ];
    for entry in &p.entries {
        out.extend([
            u64::from(u32::from(entry.caller)),
            u64::from(u32::from(entry.site)),
            entry.site_weight.to_bits(),
        ]);
        match &entry.kind {
            PlanKind::Direct { callee } => out.extend([0, u64::from(u32::from(*callee))]),
            PlanKind::Devirtualize { callee, weight } => {
                out.extend([1, u64::from(u32::from(*callee)), weight.to_bits()]);
            }
            PlanKind::Guarded { targets } => {
                out.extend([2, targets.len() as u64]);
                for (m, w) in targets {
                    out.extend([u64::from(u32::from(*m)), w.to_bits()]);
                }
            }
        }
    }
    out
}

type Items = Vec<Result<(CallEdge, u64), CodecError>>;

fn items(iter: impl Iterator<Item = Result<(CallEdge, f64), CodecError>>) -> Items {
    iter.map(|rec| rec.map(|(e, w)| (e, w.to_bits()))).collect()
}

/// What the two decoders made of the random inputs, so a run can show
/// it reached both outcomes of every kind.
#[derive(Debug, Default)]
struct Tally {
    snapshots_ok: usize,
    plans_ok: usize,
    errors: Vec<CodecError>,
}

impl Tally {
    fn saw(&mut self, result: Result<(), CodecError>) {
        if let Err(e) = result {
            if !self.errors.contains(&e) {
                self.errors.push(e);
            }
        }
    }
}

/// Holds every frame entry point to the oracle on one input.
fn check(bytes: &[u8], tally: &mut Tally) {
    let got = DcgCodec::decode_snapshot(bytes).map(|g| graph_bits(&g));
    let want = oracle::decode_snapshot(bytes).map(|g| graph_bits(&g));
    assert_eq!(got, want, "decode_snapshot of {bytes:02x?}");
    tally.snapshots_ok += usize::from(got.is_ok());
    tally.saw(got.map(drop));

    let got = DcgCodec::decode(bytes).map(|f| (f.kind, record_bits(&f.edges)));
    let want = oracle::decode(bytes).map(|f| (f.kind, record_bits(&f.edges)));
    assert_eq!(got, want, "decode of {bytes:02x?}");

    let got = DcgCodec::records(bytes).map(|iter| (iter.kind(), iter.len(), items(iter)));
    let want = oracle::records(bytes).map(|iter| (iter.kind(), iter.len(), items(iter)));
    assert_eq!(got, want, "records of {bytes:02x?}");

    let got = DcgCodec::decode_plan(bytes).map(|p| plan_bits(&p));
    let want = oracle::decode_plan(bytes).map(|p| plan_bits(&p));
    assert_eq!(got, want, "decode_plan of {bytes:02x?}");
    tally.plans_ok += usize::from(got.is_ok());
    tally.saw(got.map(drop));
}

/// LEB128 of `v`, padded with continuation groups of zero to `len`
/// bytes when it is shorter (an overlong spelling of the same value).
fn put_varint(out: &mut Vec<u8>, mut v: u128, len: usize) {
    let start = out.len();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    while out.len() - start < len {
        *out.last_mut().expect("at least one byte") |= 0x80;
        out.push(0);
    }
}

/// A value whose shortest LEB128 spelling is `len` bytes (1 to 15).
fn value_of_len(rng: &mut SmallRng, len: u32) -> u128 {
    let lo = if len == 1 {
        0
    } else {
        1u128 << (7 * (len - 1))
    };
    let span = (1u128 << (7 * len)) - lo;
    let r = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    lo + r % span
}

/// The length classes of a key step: mostly the served mix (1, 2, 5
/// and 10 bytes), then every other length up to the 15-byte cap.
fn step_len(rng: &mut SmallRng) -> u32 {
    match rng.gen_range(0..10u32) {
        0..=2 => 1,
        3..=4 => 2,
        5 => 5,
        6 => 10,
        _ => rng.gen_range(1..=15u32),
    }
}

/// Appends a weight: an integral tag (mostly small, sometimes 1, 2⁶²,
/// 2⁶³ or `u64::MAX`) or a raw positive `f64`; one time in ten unless
/// `clean`, a mantissa of 0, a tag wider than `u64`, a raw weight that
/// is NaN, ±inf, ±0 or negative, or a reserved odd tag instead.
fn put_weight(out: &mut Vec<u8>, rng: &mut SmallRng, clean: bool) {
    let class = if clean || rng.gen_bool(0.9) {
        rng.gen_range(0..16u32)
    } else {
        rng.gen_range(16..24u32)
    };
    let integral = |m: u128, out: &mut Vec<u8>, rng: &mut SmallRng| {
        let pad = if rng.gen_bool(0.1) {
            rng.gen_range(1..=12usize)
        } else {
            0
        };
        put_varint(out, m << 1, pad);
    };
    let raw = |w: f64, out: &mut Vec<u8>| {
        put_varint(out, 1, 0);
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    };
    match class {
        0..=9 => put_varint(out, u128::from(rng.gen_range(1..=4000u64)) << 1, 0),
        10 => {
            let m = [1, 1 << 62, (1 << 62) + 1, 1 << 63, u64::MAX][rng.gen_range(0..5usize)];
            integral(u128::from(m), out, rng);
        }
        11..=15 => {
            let w = match rng.gen_range(0..5u32) {
                0 => f64::from_bits(rng.gen_range(1..(1u64 << 52))),
                1 => f64::MIN_POSITIVE,
                2 => f64::MAX,
                _ => rng.gen_f64() * 1e6 + 0.5,
            };
            raw(w, out);
        }
        16 => integral(0, out, rng),
        17 => integral(
            u128::from(u64::MAX) + 1 + u128::from(rng.next_u64()),
            out,
            rng,
        ),
        18..=21 => {
            let w = match rng.gen_range(0..7u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => 0.0,
                5 => -(1.0 + rng.gen_f64()),
                _ => f64::from_bits(rng.next_u64()),
            };
            raw(w, out);
        }
        _ => put_varint(out, u128::from(rng.gen_range(1..64u64)) * 2 + 1, 0),
    }
}

/// Random frame bodies end as they are, cut short, or with bytes after
/// the last record.
fn finish(mut bytes: Vec<u8>, rng: &mut SmallRng) -> Vec<u8> {
    match rng.gen_range(0..8u32) {
        0 if !bytes.is_empty() => {
            let cut = rng.gen_range(0..bytes.len());
            bytes.truncate(cut);
        }
        1 => {
            for _ in 0..rng.gen_range(1..=9usize) {
                bytes.push(rng.gen_range(0..256u32) as u8);
            }
        }
        _ => {}
    }
    bytes
}

/// A random snapshot (mostly) or delta frame of up to 40 records.
fn random_frame(rng: &mut SmallRng) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.push(VERSION);
    out.push(if rng.gen_bool(0.85) { 0 } else { 1 });
    let n = rng.gen_range(0..=40usize);
    let declared = match rng.gen_range(0..10u32) {
        0 => n + 1,
        1 => n.saturating_sub(1),
        _ => n,
    };
    put_varint(&mut out, declared as u128, 0);
    let near_top = rng.gen_bool(0.15);
    let clean = rng.gen_bool(0.6);
    for i in 0..n {
        let step = if i == 0 && near_top {
            // A first key just under 2⁹⁶, so the next steps cross it.
            (1u128 << 96) - u128::from(rng.gen_range(1..=3000u64))
        } else if i > 0 && rng.gen_bool(0.01) {
            0
        } else {
            let len = step_len(rng);
            value_of_len(rng, len)
        };
        let pad = if rng.gen_bool(0.05) {
            rng.gen_range(1..=16usize)
        } else {
            0
        };
        put_varint(&mut out, step, pad);
        put_weight(&mut out, rng, clean);
    }
    finish(out, rng)
}

/// A random plan frame of up to 16 entries.
fn random_plan(rng: &mut SmallRng) -> Vec<u8> {
    let mut out = PLAN_MAGIC.to_vec();
    out.push(PLAN_VERSION);
    put_varint(
        &mut out,
        u128::from(rng.next_u64() >> rng.gen_range(0..64u32)),
        0,
    );
    if rng.gen_bool(0.2) {
        put_varint(&mut out, 0, 0);
    } else {
        put_weight(&mut out, rng, false);
    }
    let clean = rng.gen_bool(0.6);
    let n = rng.gen_range(0..=16usize);
    put_varint(&mut out, n as u128, 0);
    let id = |rng: &mut SmallRng| -> u128 {
        if rng.gen_bool(0.03) {
            u128::from(u32::MAX) + 1 + u128::from(rng.gen_range(0..1000u64))
        } else {
            let len = rng.gen_range(1..=5u32);
            value_of_len(rng, len) & u128::from(u32::MAX)
        }
    };
    for i in 0..n {
        let step = if i > 0 && rng.gen_bool(0.02) {
            0
        } else {
            let len = rng.gen_range(1..=11u32);
            value_of_len(rng, len)
        };
        put_varint(&mut out, step, 0);
        put_weight(&mut out, rng, clean);
        let kind = match rng.gen_range(0..20u32) {
            0 => rng.gen_range(3..256u32) as u8,
            k => (k % 3) as u8,
        };
        out.push(kind);
        match kind {
            0 => put_varint(&mut out, id(rng), 0),
            1 => {
                put_varint(&mut out, id(rng), 0);
                put_weight(&mut out, rng, clean);
            }
            2 => {
                let t = rng.gen_range(0..=4usize);
                put_varint(&mut out, t as u128, 0);
                for _ in 0..t {
                    put_varint(&mut out, id(rng), 0);
                    put_weight(&mut out, rng, clean);
                }
            }
            _ => {}
        }
    }
    finish(out, rng)
}

#[test]
fn random_frames_decode_as_the_two_pass_decoder_did() {
    let mut rng = SmallRng::seed_from_u64(0x0E_9A55);
    let mut tally = Tally::default();
    for _ in 0..20_000 {
        let frame = random_frame(&mut rng);
        check(&frame, &mut tally);
    }
    for _ in 0..20_000 {
        let plan = random_plan(&mut rng);
        check(&plan, &mut tally);
    }
    // The inputs reached every outcome, accepted and refused.
    assert!(tally.snapshots_ok > 1_000, "{tally:?}");
    assert!(tally.plans_ok > 500, "{tally:?}");
    for error in [
        CodecError::Truncated,
        CodecError::VarintOverflow,
        CodecError::KeyOverflow,
        CodecError::UnsortedKeys,
        CodecError::BadWeight,
        CodecError::TrailingBytes,
        CodecError::BadKind(1),
    ] {
        assert!(
            tally.errors.contains(&error),
            "never saw {error:?}: {tally:?}"
        );
    }
}

#[test]
fn valid_frames_of_every_step_length_decode_as_the_two_pass_decoder_did() {
    // Ascending keys whose steps take every LEB128 length, with
    // integral and fractional weights, as a snapshot and a delta.
    let mut rng = SmallRng::seed_from_u64(0x5_7E95);
    let mut tally = Tally::default();
    for round in 0..200 {
        let mut records = Vec::new();
        let mut key = 0u128;
        for _ in 0..rng.gen_range(1..=60usize) {
            let len = 1 + (round + records.len() as u32) % 14;
            let step = value_of_len(&mut rng, len).max(1);
            let Some(next) = key.checked_add(step).filter(|k| k >> 96 == 0) else {
                break;
            };
            key = next;
            let w = if rng.gen_bool(0.8) {
                rng.gen_range(1..=5000u64) as f64
            } else {
                rng.gen_f64() + f64::from(round)
            };
            let edge = CallEdge::new(
                MethodId::new((key >> 64) as u32),
                CallSiteId::new((key >> 32) as u32),
                MethodId::new(key as u32),
            );
            records.push((edge, w));
        }
        let graph: DynamicCallGraph = records.iter().copied().collect();
        let snapshot = DcgCodec::encode_snapshot(&graph);
        check(&snapshot, &mut tally);
        check(&DcgCodec::encode_delta(&records), &mut tally);
        for cut in [1, 7, 8, 9, 15, 16, 17] {
            if cut < snapshot.len() {
                check(&snapshot[..snapshot.len() - cut], &mut tally);
            }
        }
    }
    assert!(tally.snapshots_ok >= 200, "{tally:?}");
}
