//! The traced pass's in-process half: the same generated inputs
//! replayed through each layer's public functions, in the order the
//! server calls them, with a span around every call.
//!
//! Layers are measured from outside (public Rust API only); spans
//! *inside* the daemon are a later change. Each replay reports the
//! median over whole passes of the frame pool; the first pass of a
//! stateful layer interns the pool's edges and is discarded, so the
//! numbers describe the steady state the timed window runs in.

use crate::daemon::TempDir;
use crate::gen::Frame;
use crate::run::{median_secs, try_median_secs, Ctx, Error, Outcome};
use crate::stats;
use crate::trace::Tracer;
use cbs_core::dcg::DynamicCallGraph;
use cbs_core::profiled::{
    AggregatorConfig, DcgCodec, IngestScratch, MemJournal, ProfileJournal, ShardedAggregator,
};
use cbs_core::store::wal::{encode_seq_frame, SegmentWriter};
use cbs_core::store::{FsyncPolicy, ProfileStore, StoreConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The daemon's shard count in every workload.
pub const SHARDS: usize = 4;

fn aggregator() -> Arc<ShardedAggregator> {
    Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(
        SHARDS,
    )))
}

fn records_in(frames: &[Frame]) -> f64 {
    frames.iter().map(|f| f.records.len()).sum::<usize>() as f64
}

/// codec, aggregator, journal and telemetry on the ingest path.
pub fn ingest_path(frames: &[Frame], budget: Duration, tracer: &mut Tracer, out: &mut Outcome) {
    let each = budget / 5;
    let records = records_in(frames);
    let wire_bytes: usize = frames.iter().map(|f| f.bytes.len()).sum();
    out.set("codec.wire_bytes_per_record", wire_bytes as f64 / records);

    let encode = median_secs(each, 3, |_| {
        let t = Instant::now();
        for (i, f) in frames.iter().enumerate() {
            tracer.span("codec.encode_delta", i as u64, || {
                black_box(DcgCodec::encode_delta(black_box(&f.records)));
            });
        }
        t.elapsed()
    });
    out.set("codec.encode_ns_per_record", encode * 1e9 / records);

    let decode = median_secs(each, 3, |_| {
        let t = Instant::now();
        for (i, f) in frames.iter().enumerate() {
            tracer.span("codec.records", i as u64, || {
                let iter = DcgCodec::records(black_box(&f.bytes)).expect("own encoding");
                for rec in iter {
                    black_box(rec.expect("own encoding"));
                }
            });
        }
        t.elapsed()
    });
    out.set("codec.decode_ns_per_record", decode * 1e9 / records);

    // partition then apply, per frame, as the journal does; the two
    // halves are timed separately inside one pass.
    let agg = aggregator();
    let mut scratch = IngestScratch::new();
    let (mut partition, mut apply) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let mut pass = 0;
    while pass < 4 || started.elapsed() < each {
        let (mut p, mut a) = (Duration::ZERO, Duration::ZERO);
        for (i, f) in frames.iter().enumerate() {
            let t = Instant::now();
            tracer.span("aggregator.partition_frame", i as u64, || {
                agg.partition_frame(&f.bytes, &mut scratch)
                    .expect("own encoding");
            });
            p += t.elapsed();
            let t = Instant::now();
            tracer.span("aggregator.apply_partitioned", i as u64, || {
                black_box(agg.apply_partitioned(&mut scratch));
            });
            a += t.elapsed();
        }
        if pass > 0 {
            partition.push(p.as_secs_f64());
            apply.push(a.as_secs_f64());
        }
        pass += 1;
    }
    out.set(
        "aggregator.partition_ns_per_record",
        stats::median(&partition) * 1e9 / records,
    );
    out.set(
        "aggregator.apply_ns_per_record",
        stats::median(&apply) * 1e9 / records,
    );

    let journal = MemJournal::new(aggregator());
    let mut seq = 0u64;
    let mut ingest_pass = |tracer: &mut Tracer| {
        let t = Instant::now();
        for f in frames {
            seq += 1;
            tracer.span("journal.mem.ingest_sequenced", seq, || {
                journal
                    .ingest_sequenced(1, seq, &f.bytes, &mut scratch)
                    .expect("own encoding");
            });
        }
        t.elapsed()
    };
    ingest_pass(tracer);
    let mem = median_secs(each, 3, |_| ingest_pass(tracer));
    out.set("journal.mem_ingest_ns_per_record", mem * 1e9 / records);

    // Telemetry on against off, in paired back-to-back passes so host
    // drift hits both alike. The switch is process-global; it is put
    // back on whatever happens to the numbers.
    let registry = cbs_core::telemetry::global();
    let mut untraced = Tracer::disabled();
    let mut ratios = Vec::new();
    let started = Instant::now();
    while ratios.len() < 5 || started.elapsed() < each {
        registry.set_enabled(false);
        let off = ingest_pass(&mut untraced).as_secs_f64();
        registry.set_enabled(true);
        let on = ingest_pass(&mut untraced).as_secs_f64();
        ratios.push(on / off);
    }
    out.set(
        "telemetry.overhead_pct",
        (stats::median(&ratios) - 1.0) * 100.0,
    );
}

fn store_config(fsync: FsyncPolicy) -> StoreConfig {
    StoreConfig {
        fsync,
        checkpoint_every: 0,
        ..StoreConfig::default()
    }
}

/// store and wal: the durable write path, checkpointing and replay.
pub fn store_path(
    ctx: &Ctx,
    frames: &[Frame],
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), Error> {
    let each = budget / 6;
    let records = records_in(frames);
    let mut scratch = IngestScratch::new();
    let mut seq = 0u64;

    // fsync never: WAL append + apply, no sync on the path. The first
    // pass interns the pool's edges and is not counted.
    let dir = TempDir::new(&ctx.out, "layer-never")?;
    let store = ProfileStore::open(dir.path(), aggregator(), store_config(FsyncPolicy::Never))?;
    let mut never_pass = |tracer: &mut Tracer| -> Result<Duration, Error> {
        let t = Instant::now();
        for f in frames {
            seq += 1;
            let id = tracer.begin("store.ingest_sequenced(never)", seq);
            store.ingest_sequenced(1, seq, &f.bytes, &mut scratch)?;
            tracer.end(id);
        }
        Ok(t.elapsed())
    };
    never_pass(tracer)?;
    let never = try_median_secs(each, 3, |_| never_pass(tracer))?;
    out.set("store.ingest_never_ns_per_record", never * 1e9 / records);

    // A checkpoint of the loaded aggregate; one frame in between so
    // each checkpoint has something new to subsume.
    let checkpoint = try_median_secs(each, 3, |_| {
        seq += 1;
        store.ingest_sequenced(1, seq, &frames[0].bytes, &mut scratch)?;
        let t = Instant::now();
        let id = tracer.begin("store.checkpoint_now", seq);
        store.checkpoint_now()?;
        tracer.end(id);
        Ok(t.elapsed())
    })?;
    out.set("store.checkpoint_ms", checkpoint * 1e3);
    drop(store);

    // fsync always, one pusher: every ack pays a whole sync.
    let dir = TempDir::new(&ctx.out, "layer-always")?;
    let store = ProfileStore::open(dir.path(), aggregator(), store_config(FsyncPolicy::Always))?;
    let always = try_median_secs(each, 20, |i| {
        let t = Instant::now();
        let id = tracer.begin("store.ingest_sequenced(always)", i as u64);
        store.ingest_sequenced(
            1,
            i as u64 + 1,
            &frames[i % frames.len()].bytes,
            &mut scratch,
        )?;
        tracer.end(id);
        Ok(t.elapsed())
    })?;
    out.set("store.ingest_always_us_per_frame", always * 1e6);
    drop(store);

    // The segment writer alone: append cost per byte, then sync cost.
    let dir = TempDir::new(&ctx.out, "layer-wal")?;
    let payloads: Vec<Vec<u8>> = frames
        .iter()
        .enumerate()
        .map(|(i, f)| encode_seq_frame(1, i as u64 + 1, &f.bytes))
        .collect();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();
    let mut segment = 0u64;
    let append = median_secs(each, 3, |_| {
        segment += 1;
        let mut w = SegmentWriter::create(dir.path(), segment).expect("segment creates");
        let t = Instant::now();
        for (i, p) in payloads.iter().enumerate() {
            tracer.span("wal.append", i as u64, || {
                w.append(p).expect("appends");
            });
        }
        let took = t.elapsed();
        let _ = std::fs::remove_file(w.path());
        took
    });
    out.set(
        "wal.append_ns_per_byte",
        append * 1e9 / payload_bytes as f64,
    );

    segment += 1;
    let mut w = SegmentWriter::create(dir.path(), segment)?;
    let mut next = 0usize;
    let sync = median_secs(each, 10, |i| {
        w.append(&payloads[next]).expect("appends");
        next = (next + 1) % payloads.len();
        let t = Instant::now();
        tracer.span("wal.sync", i as u64, || w.sync().expect("syncs"));
        t.elapsed()
    });
    out.set("wal.sync_us", sync * 1e6);
    drop(w);

    // Replay: open a directory whose WAL holds a few passes of the pool.
    let dir = TempDir::new(&ctx.out, "layer-replay")?;
    let passes = ctx.sized(8, 1);
    {
        let store = ProfileStore::open(dir.path(), aggregator(), store_config(FsyncPolicy::Never))?;
        let mut seq = 0u64;
        for _ in 0..passes {
            for f in frames {
                seq += 1;
                store.ingest_sequenced(1, seq, &f.bytes, &mut scratch)?;
            }
        }
    }
    let replayed = records * passes as f64;
    let open = try_median_secs(each, 3, |i| {
        let t = Instant::now();
        let id = tracer.begin("store.open(replay)", i as u64);
        let store = ProfileStore::open(dir.path(), aggregator(), store_config(FsyncPolicy::Never))?;
        tracer.end(id);
        let took = t.elapsed();
        out.check(
            store.recovery_report().replayed_records as f64 == replayed,
            || "store.open replayed a different record count than was journaled".to_owned(),
        );
        Ok(took)
    })?;
    out.set("store.replay_records_per_s", replayed / open);
    Ok(())
}

/// aggregator read side, codec decode and dcg seal on a preloaded
/// aggregate, with `deltas` arriving between reads.
pub fn serve_path(
    preload: &[Frame],
    deltas: &[Frame],
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) {
    let each = budget / 6;
    let agg = aggregator();
    let mut scratch = IngestScratch::new();
    for f in preload {
        agg.ingest_frame_bytes(&f.bytes, &mut scratch)
            .expect("own encoding");
    }
    let mut next = 0usize;
    let mut push_one = |agg: &ShardedAggregator| {
        agg.ingest_frame_bytes(&deltas[next].bytes, &mut scratch)
            .expect("own encoding");
        next = (next + 1) % deltas.len();
    };

    // A delta invalidates both caches; the snapshot is rebuilt first,
    // so the plan build that follows is the plan layer alone.
    let (mut rebuild, mut plan_build) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let (mut snapshot, mut plan) = (agg.encoded_snapshot(), agg.encoded_plan());
    while rebuild.len() < 3 || started.elapsed() < each * 2 {
        push_one(&agg);
        let i = rebuild.len() as u64;
        let t = Instant::now();
        snapshot = tracer.span("aggregator.encoded_snapshot(rebuild)", i, || {
            agg.encoded_snapshot()
        });
        rebuild.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        plan = tracer.span("aggregator.encoded_plan(build)", i, || agg.encoded_plan());
        plan_build.push(t.elapsed().as_secs_f64());
    }
    out.set(
        "aggregator.snapshot_rebuild_ms",
        stats::median(&rebuild) * 1e3,
    );
    out.set("aggregator.plan_build_ms", stats::median(&plan_build) * 1e3);

    // Cache hits are tens of nanoseconds: time them in blocks.
    const BLOCK: u32 = 1_000;
    let cached = median_secs(each / 2, 5, |i| {
        let t = Instant::now();
        tracer.span(
            "aggregator.encoded_snapshot(cached) x1000",
            i as u64,
            || {
                for _ in 0..BLOCK {
                    black_box(agg.encoded_snapshot());
                }
            },
        );
        t.elapsed()
    });
    out.set(
        "aggregator.snapshot_cached_ns",
        cached * 1e9 / f64::from(BLOCK),
    );
    let cached = median_secs(each / 2, 5, |i| {
        let t = Instant::now();
        tracer.span("aggregator.encoded_plan(cached) x1000", i as u64, || {
            for _ in 0..BLOCK {
                black_box(agg.encoded_plan());
            }
        });
        t.elapsed()
    });
    out.set("aggregator.plan_cached_ns", cached * 1e9 / f64::from(BLOCK));

    let decode = median_secs(each, 3, |i| {
        let t = Instant::now();
        tracer.span("codec.decode_snapshot", i as u64, || {
            black_box(DcgCodec::decode_snapshot(&snapshot).expect("served bytes decode"));
        });
        t.elapsed()
    });
    out.set("codec.decode_snapshot_ms", decode * 1e3);
    let decode = median_secs(each / 2, 5, |i| {
        let t = Instant::now();
        tracer.span("codec.decode_plan", i as u64, || {
            black_box(DcgCodec::decode_plan(&plan).expect("served bytes decode"));
        });
        t.elapsed()
    });
    out.set("codec.decode_plan_us", decode * 1e6);

    // The seal a shard owes at the read boundary after a bulk ingest:
    // the whole preload recorded deferred, then sealed once.
    let seal = median_secs(each, 3, |i| {
        let mut g = DynamicCallGraph::new();
        for f in preload {
            g.record_all_deferred(&f.records);
        }
        let t = Instant::now();
        tracer.span("dcg.seal", i as u64, || g.seal());
        let took = t.elapsed();
        black_box(g.num_edges());
        took
    });
    out.set("dcg.seal_ms", seal * 1e3);
}
