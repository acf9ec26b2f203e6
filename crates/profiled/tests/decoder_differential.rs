//! The wire decoder against a frozen copy of the byte-at-a-time decoder
//! it replaced: every input, valid or not, must decode to the same value
//! bit for bit, or fail with the same `CodecError`.
//!
//! `oracle` below is that earlier decoder, kept verbatim apart from the
//! paths and visibility a separate test crate needs: a `Reader` that
//! takes one byte at a time through a bounds-checked slice and
//! accumulates every varint in `u128`, a `RecordIter` yielding one
//! `Result` per record, and a snapshot decode that `record`s each pair
//! into a graph.

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
    }

    pub(crate) fn records(bytes: &[u8]) -> Result<RecordIter<'_>, CodecError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
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
        for rec in iter {
            edges.push(rec?);
        }
        Ok(DcgFrame { kind, edges })
    }

    pub(crate) fn decode_snapshot(bytes: &[u8]) -> Result<DynamicCallGraph, CodecError> {
        let iter = records(bytes)?;
        if iter.kind() != FrameKind::Snapshot {
            return Err(CodecError::BadKind(1));
        }
        let mut graph = DynamicCallGraph::with_capacity(iter.len());
        for rec in iter {
            let (edge, weight) = rec?;
            graph.record(edge, weight);
        }
        Ok(graph)
    }

    pub(crate) fn decode_plan(bytes: &[u8]) -> Result<InlinePlan, CodecError> {
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

fn e(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        MethodId::new(caller),
        CallSiteId::new(site),
        MethodId::new(callee),
    )
}

/// A record list with its weights as bits, so equality is bitwise.
fn record_bits(records: &[(CallEdge, f64)]) -> Vec<(CallEdge, u64)> {
    records.iter().map(|&(e, w)| (e, w.to_bits())).collect()
}

/// A graph as everything a reader sees of it, weights and total as bits.
fn graph_bits(g: &DynamicCallGraph) -> (Vec<(CallEdge, u64)>, u64) {
    let records: Vec<(CallEdge, f64)> = g.iter().map(|(e, w)| (*e, w)).collect();
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

/// Every item a cursor yields until it fuses, weights as bits.
type Items = Vec<Result<(CallEdge, u64), CodecError>>;

fn items(iter: impl Iterator<Item = Result<(CallEdge, f64), CodecError>>) -> Items {
    iter.map(|rec| rec.map(|(e, w)| (e, w.to_bits()))).collect()
}

/// Holds all four decode entry points to the oracle on one input.
fn check(bytes: &[u8]) {
    let got = DcgCodec::records(bytes).map(|iter| (iter.kind(), iter.len(), items(iter)));
    let want = oracle::records(bytes).map(|iter| (iter.kind(), iter.len(), items(iter)));
    assert_eq!(got, want, "records of {bytes:02x?}");

    let got = DcgCodec::decode(bytes).map(|f| (f.kind, record_bits(&f.edges)));
    let want = oracle::decode(bytes).map(|f| (f.kind, record_bits(&f.edges)));
    assert_eq!(got, want, "decode of {bytes:02x?}");

    let got = DcgCodec::decode_snapshot(bytes).map(|g| graph_bits(&g));
    let want = oracle::decode_snapshot(bytes).map(|g| graph_bits(&g));
    assert_eq!(got, want, "decode_snapshot of {bytes:02x?}");

    let got = DcgCodec::decode_plan(bytes).map(|p| plan_bits(&p));
    let want = oracle::decode_plan(bytes).map(|p| plan_bits(&p));
    assert_eq!(got, want, "decode_plan of {bytes:02x?}");
}

/// `bytes`, each prefix of it, and each one-byte XOR of it with 0x80,
/// 0x7f and 0xff.
fn check_mutations(bytes: &[u8]) {
    check(bytes);
    for cut in 0..bytes.len() {
        check(&bytes[..cut]);
    }
    let mut flipped = bytes.to_vec();
    for i in 0..bytes.len() {
        for mask in [0x80u8, 0x7f, 0xff] {
            flipped[i] ^= mask;
            check(&flipped);
            flipped[i] ^= mask;
        }
    }
}

fn graph_of(records: &[(CallEdge, f64)]) -> DynamicCallGraph {
    records.iter().copied().collect()
}

/// Valid frames: dense ids, sparse ids, keys using all 96 bits, and
/// fractional weights, as snapshots and deltas.
fn valid_frames() -> Vec<Vec<u8>> {
    let dense: Vec<(CallEdge, f64)> = (0..12u32)
        .map(|i| (e(i / 4, i % 4, i), f64::from(i + 1)))
        .collect();
    let sparse = vec![
        (e(3, 70_000, 9), 2.0),
        (e(1 << 20, 5, 1 << 27), 300.0),
        (e(1 << 29, 1 << 30, 7), 1.0),
    ];
    let wide = vec![
        (e(u32::MAX, u32::MAX, u32::MAX), 5.0),
        (e(u32::MAX - 1, 0, 0), 1.0),
        (e(1 << 31, 1 << 31, 1 << 31), 2.0),
        (e(0, 0, 0), (1u64 << 61) as f64),
    ];
    let fractional = vec![
        (e(0, 1, 2), 0.125),
        (e(0, 1, 3), 1.0 / 3.0),
        (e(2, 0, 1), f64::MIN_POSITIVE),
        (e(5, 5, 5), 1e300),
        (e(6, 0, 0), ((1u64 << 62) as f64) * 2.0),
    ];
    let mut frames = Vec::new();
    for records in [&dense, &sparse, &wide, &fractional] {
        frames.push(DcgCodec::encode_snapshot(&graph_of(records)));
        frames.push(DcgCodec::encode_delta(records));
    }
    frames.push(DcgCodec::encode_snapshot(&DynamicCallGraph::new()));
    frames
}

fn valid_plans() -> Vec<Vec<u8>> {
    let plan = InlinePlan {
        generation: 1 << 40,
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
                    callee: MethodId::new(u32::MAX),
                    weight: 90.25,
                },
            },
            PlanEntry {
                caller: MethodId::new(u32::MAX),
                site: CallSiteId::new(u32::MAX),
                site_weight: 80.0,
                kind: PlanKind::Guarded {
                    targets: vec![(MethodId::new(2), 44.0), (MethodId::new(1 << 30), 0.5)],
                },
            },
        ],
    };
    let empty = InlinePlan {
        generation: 0,
        total_weight: 0.0,
        entries: Vec::new(),
    };
    vec![DcgCodec::encode_plan(&plan), DcgCodec::encode_plan(&empty)]
}

#[test]
fn valid_frames_and_every_cut_and_flip_decode_as_before() {
    for bytes in valid_frames().iter().chain(&valid_plans()) {
        check_mutations(bytes);
    }
}

/// LEB128 of `v` padded to `len` bytes with continuation groups of zero
/// (an overlong but well-formed spelling of the same value).
fn varint_padded(mut v: u128, len: usize) -> Vec<u8> {
    let mut out = Vec::new();
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
    while out.len() < len {
        *out.last_mut().expect("at least one byte") |= 0x80;
        out.push(0);
    }
    out
}

/// Varints 9 to 16 bytes long whose values sit around 2⁶³, 2⁶⁴, 2⁹⁶,
/// 2⁹⁸ and 2¹⁰⁵, plus runs of continuation bytes with no end.
fn hostile_varints() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for bits in [63u32, 64, 96, 98, 105] {
        let base = 1u128 << bits;
        for v in [base.wrapping_sub(1), base, base + 1] {
            let natural = varint_padded(v, 0).len();
            for len in natural.max(9)..=16 {
                out.push(varint_padded(v, len));
            }
        }
    }
    for len in 9..=16 {
        out.push(vec![0xff; len]);
        out.push(vec![0x80; len]);
    }
    out
}

#[test]
fn hostile_varints_in_every_field_decode_as_before() {
    let header = |kind: u8| {
        let mut h = MAGIC.to_vec();
        h.extend([VERSION, kind]);
        h
    };
    let plan_header = || {
        let mut h = PLAN_MAGIC.to_vec();
        h.push(PLAN_VERSION);
        h
    };
    // A valid record and plan entry to follow the hostile field, so a
    // value the decoder accepts has something after it.
    let tail = [0x02u8, 0x05, 0x02, 0x80, 0x80, 0x02, 0x02, 0x00, 0x01];
    for v in hostile_varints() {
        let mut inputs: Vec<Vec<u8>> = Vec::new();
        for kind in [0u8, 1] {
            // As the record count, the first key, a later key step and a
            // weight tag.
            inputs.push([header(kind), v.clone(), tail.to_vec()].concat());
            inputs.push([header(kind), vec![1], v.clone(), vec![2]].concat());
            inputs.push([header(kind), vec![2, 5, 2], v.clone(), vec![2]].concat());
            inputs.push([header(kind), vec![1, 5], v.clone(), tail.to_vec()].concat());
        }
        // As a plan's generation, total weight tag, entry count, key
        // step, site weight tag, callee id, guard count and guard id.
        let p = plan_header();
        inputs.push([p.clone(), v.clone(), vec![0, 0]].concat());
        inputs.push([p.clone(), vec![1], v.clone(), vec![0]].concat());
        inputs.push([p.clone(), vec![1, 2], v.clone(), tail.to_vec()].concat());
        inputs.push([p.clone(), vec![1, 2, 1], v.clone(), vec![2, 0, 1]].concat());
        inputs.push(
            [
                p.clone(),
                vec![1, 2, 2, 5, 2, 0, 1, 3],
                v.clone(),
                vec![2, 0, 1],
            ]
            .concat(),
        );
        inputs.push([p.clone(), vec![1, 2, 1, 5], v.clone(), vec![0, 1]].concat());
        inputs.push([p.clone(), vec![1, 2, 1, 5, 2, 0], v.clone()].concat());
        inputs.push([p.clone(), vec![1, 2, 1, 5, 2, 2], v.clone(), vec![1, 2]].concat());
        inputs.push([p.clone(), vec![1, 2, 1, 5, 2, 2, 1], v.clone(), vec![2]].concat());
        for input in &inputs {
            check(input);
            for cut in 0..input.len() {
                check(&input[..cut]);
            }
        }
    }
}

#[test]
fn random_bodies_behind_valid_headers_decode_as_before() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_C0DE);
    for _ in 0..10_000 {
        let mut bytes = if rng.gen_bool(0.5) {
            let mut h = MAGIC.to_vec();
            h.extend([
                VERSION,
                rng.gen_range(0..2u32) as u8,
                rng.gen_range(0..8u32) as u8,
            ]);
            h
        } else {
            let mut h = PLAN_MAGIC.to_vec();
            h.extend([
                PLAN_VERSION,
                rng.gen_range(0..4u32) as u8,
                0,
                rng.gen_range(0..6u32) as u8,
            ]);
            h
        };
        // Mostly small bytes, so bodies often parse for a while, with
        // continuation-heavy and raw-weight stretches mixed in.
        for _ in 0..rng.gen_range(0..48usize) {
            let b = match rng.gen_range(0..4u32) {
                0 => rng.gen_range(0..256u32),
                1 => rng.gen_range(0x80..256u32),
                _ => rng.gen_range(0..8u32),
            };
            bytes.push(b as u8);
        }
        check(&bytes);
    }
}
