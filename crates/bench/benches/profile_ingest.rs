//! Profile-ingestion throughput: edge records per wall-second through
//! the binary codec and the aggregator.
//!
//! A synthetic 50k-edge call graph (deterministic SplitMix64 ids and
//! integral weights, shaped like a real CBS profile: dense low method
//! ids, a long cold tail) is cut into 64 delta frames. The bench
//! measures
//!
//! * `codec/encode` and `codec/decode` — the wire format alone;
//! * `codec/decode_snapshot` — a pulled snapshot frame streamed back
//!   into a graph (what every `pull` costs the client after the wire);
//! * `aggregate/serial` — one thread folding every decoded frame into
//!   an aggregator via `ShardedAggregator::ingest`;
//! * `aggregate/streaming` — the server's path: encoded frames decode
//!   into a pooled scratch and fold into the aggregate via
//!   `ingest_frame_bytes` (`partition_frame` → `apply_partitioned`);
//! * `aggregate/threads=4` — four pusher threads splitting the decoded
//!   frames (`ingest` again) over the aggregate's one lock;
//! * `pull/rebuild` — `encoded_snapshot` after `advance_epoch` just
//!   invalidated the cache, i.e. the lock-encode cost (nothing was
//!   applied, so the settled aggregate is not settled again);
//! * `pull/cached` — `encoded_snapshot` against a warm
//!   generation-stamped cache (the repeated-`OP_PULL` fast path, O(1)
//!   per request);
//! * `plan/build` — a cold `OP_PLAN`: `encoded_plan` after
//!   `advance_epoch` just invalidated the cache, i.e. lock,
//!   `build_plan` (the 40% rule over every call site) off the live
//!   aggregate, and `encode_plan`; timed interleaved with
//!   `pull/rebuild`;
//! * `codec/encode_snapshot` and `codec/decode_plan` — the codec's
//!   halves of the read path alone: encoding the settled aggregate (as
//!   a pull decodes it) and decoding its served plan;
//! * `wal/append` — the durable-store write path (WAL append then
//!   apply, fsync off — the async-fsync configuration whose cost must
//!   stay within 2× of `aggregate/streaming`);
//! * `wal/append_concurrent` — four pusher threads through one
//!   `fsync always` store: an ack that queues behind another's sync is
//!   covered by the next one;
//! * `wal/append_single_lock` — the identical workload and store
//!   configuration serialized behind one external lock, so every push
//!   convoys and syncs a batch of one: the monolithic-lock write path
//!   this store replaced, the baseline the concurrent configuration
//!   must beat (gated in `scripts/verify.sh`);
//! * `recovery/replay` — `ProfileStore::open` replaying a WAL of 32
//!   passes over the 64 frames (~16 MB) into a fresh aggregator, the
//!   same directory every iteration.
//!
//! `scripts/verify.sh` gates four ratios of these configs:
//! `codec/decode_snapshot` over `codec/decode`, `wal/append` over
//! `aggregate/streaming`, `plan/build` over `pull/rebuild`, and
//! `wal/append_single_lock` over `wal/append_concurrent`. The two
//! configs of each ratio are timed
//! interleaved — every iteration runs both back to back, in an order
//! that alternates — and the artifact commits the median of the
//! per-iteration ratios under `median_ratios`, so host drift between
//! the two configs does not land in the ratio.
//!
//! Emits `BENCH_ingest.json` at the repo root (skipped in smoke mode,
//! like every other bench artifact).

use cbs_bench::{smoke_mode, BenchGroup, BenchResult};
use cbs_core::bytecode::{CallSiteId, MethodId};
use cbs_core::dcg::CallEdge;
use cbs_core::profiled::{
    AggregatorConfig, DcgCodec, DcgFrame, IngestScratch, ProfileJournal, ShardedAggregator,
};
use cbs_core::store::{FsyncPolicy, ProfileStore, StoreConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const EDGES: usize = 50_000;
const FRAMES: usize = 64;
const PUSHERS: usize = 4;
/// Passes over the frames the `recovery/replay` WAL holds (~16 MB).
const REPLAY_ROUNDS: usize = 32;
/// Iterations of the interleaved `pull/rebuild` and `plan/build` pair:
/// at 20, the median ratio of one build spread by ±0.2 between runs.
const READ_PAIR_ITERS: u32 = 201;
/// Iterations of the interleaved `codec/encode_served_mix`,
/// `codec/decode_served_mix` and `codec/decode_short_steps` (each about
/// a millisecond).
const SERVED_MIX_ITERS: u32 = 401;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic profile-shaped record stream: most callers in a hot
/// core, weights on the codec's integral fast path.
fn synthetic_records() -> Vec<(CallEdge, f64)> {
    let mut state = 0xC0FFEE;
    (0..EDGES)
        .map(|_| {
            let r = splitmix(&mut state);
            let caller = if r % 8 < 7 {
                (r >> 3) % 512
            } else {
                (r >> 3) % 100_000
            } as u32;
            let site = ((r >> 24) % 16) as u32;
            let callee = ((r >> 32) % 4096) as u32;
            let weight = (1 + (r >> 48) % 1000) as f64;
            (
                CallEdge::new(
                    MethodId::new(caller),
                    CallSiteId::new(site),
                    MethodId::new(callee),
                ),
                weight,
            )
        })
        .collect()
}

/// 50 000 distinct edges in ascending order, with integral weights
/// whose tags take one or two bytes, as an aggregate's do. With
/// `cold_tail`, their key steps have the mix of the snapshot
/// `serve-mixed` serves (its 200 000-edge universe: seven eighths of the
/// callers in a hot core of 512, the rest over 100 000, 16 sites, 4 096
/// callees) at a quarter of its size — a hot core of 128 callers and a
/// cold tail over 25 000: about 42% of the steps are 1 byte, 42% 2
/// bytes, 5% 5 bytes (a new site) and 11% 10 bytes (a new caller).
/// Without, every caller is in the hot core and a tenth of a percent of
/// the steps are 10 bytes.
fn served_mix_records(cold_tail: bool) -> Vec<(CallEdge, f64)> {
    let mut state = 0x5E_27ED;
    let mut edges = std::collections::BTreeSet::new();
    while edges.len() < EDGES {
        let r = splitmix(&mut state);
        let caller = if r % 8 < 7 || !cold_tail {
            (r >> 3) % 128
        } else {
            (r >> 3) % 25_000
        } as u32;
        edges.insert(CallEdge::new(
            MethodId::new(caller),
            CallSiteId::new(((r >> 24) % 16) as u32),
            MethodId::new(((r >> 32) % 4096) as u32),
        ));
    }
    edges
        .into_iter()
        .map(|e| (e, (1 + splitmix(&mut state) % 4000) as f64))
        .collect()
}

/// The share of key steps of each LEB128 length (index = bytes) in
/// ascending `records`, counting the first key as a step from zero.
fn step_mix(records: &[(CallEdge, f64)]) -> [f64; 16] {
    let key = |e: &CallEdge| {
        (u128::from(u32::from(e.caller)) << 64)
            | (u128::from(u32::from(e.site)) << 32)
            | u128::from(u32::from(e.callee))
    };
    let mut counts = [0usize; 16];
    let mut prev = 0;
    for (e, _) in records {
        let step: u128 = key(e) - prev;
        prev = key(e);
        counts[(128 - (step | 1).leading_zeros()).div_ceil(7) as usize] += 1;
    }
    counts.map(|c| c as f64 / records.len() as f64)
}

/// A unique scratch directory per call (the workspace has no tempfile
/// dependency); callers remove it when done.
fn scratch_dir(label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cbs-bench-{label}-{}-{n}", std::process::id()))
}

/// Records-per-second at the median iteration time.
fn rate(records: usize, r: &BenchResult) -> f64 {
    records as f64 / r.median().as_secs_f64()
}

fn json_entry(name: &str, records: usize, r: &BenchResult) -> String {
    format!(
        "    {{ \"config\": \"{name}\", \"median_ns\": {}, \"records_per_sec\": {:.1} }}",
        r.median().as_nanos(),
        rate(records, r)
    )
}

/// The median per-iteration ratio of two configs timed interleaved.
fn ratio_entry(numerator: &str, r: &BenchResult, denominator: &str, base: &BenchResult) -> String {
    format!(
        "    {{ \"numerator\": \"{numerator}\", \"denominator\": \"{denominator}\", \
         \"median\": {:.4} }}",
        r.median_ratio(base)
    )
}

/// Times two configs interleaved; returns their results in order.
fn pair<'a>(
    group: &mut BenchGroup,
    a: (&'a str, &'a mut dyn FnMut()),
    b: (&'a str, &'a mut dyn FnMut()),
) -> (BenchResult, BenchResult) {
    let [a, b] =
        <[BenchResult; 2]>::try_from(group.bench_interleaved(&mut [a, b])).expect("two results");
    (a, b)
}

/// Pushes `frames` through a fresh store in a scratch directory with
/// fsync off and no checkpoints: WAL append then apply, per frame.
fn wal_append(frames: &[Vec<u8>]) -> u64 {
    let dir = scratch_dir("wal-append");
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let store = ProfileStore::open(&dir, agg, lazy_store()).expect("open store");
    let mut scratch = IngestScratch::new();
    for frame in frames {
        store
            .ingest_frame(frame, &mut scratch)
            .expect("own encoding ingests");
    }
    let records = store.aggregator().stats().records;
    drop(store);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    records
}

/// The store configuration of `wal/append` and `recovery/replay`: fsync
/// off (the async-durability configuration) and checkpoints disabled,
/// so the measurement is the steady-state append and apply.
fn lazy_store() -> StoreConfig {
    StoreConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0,
        ..StoreConfig::default()
    }
}

/// Pushes `frames` from [`PUSHERS`] threads through one `fsync always`
/// store. With `one_at_a_time`, every push holds one external lock, so
/// each reaches the committer alone and syncs a batch of one.
fn durable_pushers(frames: &[Vec<u8>], one_at_a_time: bool) -> u64 {
    let dir = scratch_dir(if one_at_a_time {
        "wal-lock"
    } else {
        "wal-conc"
    });
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let config = StoreConfig {
        fsync: FsyncPolicy::Always,
        checkpoint_every: 0,
        ..StoreConfig::default()
    };
    let store = ProfileStore::open(&dir, agg, config).expect("open store");
    let big_lock = Mutex::new(());
    std::thread::scope(|scope| {
        for chunk in frames.chunks(frames.len().div_ceil(PUSHERS)) {
            let (store, big_lock) = (&store, &big_lock);
            scope.spawn(move || {
                let mut scratch = IngestScratch::new();
                for frame in chunk {
                    let _guard = one_at_a_time.then(|| big_lock.lock().expect("no poison"));
                    store.ingest_frame(frame, &mut scratch).expect("ingests");
                }
            });
        }
    });
    let records = store.aggregator().stats().records;
    drop(store);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    records
}

fn main() {
    let records = synthetic_records();
    let frames: Vec<Vec<u8>> = records
        .chunks(records.len().div_ceil(FRAMES))
        .map(DcgCodec::encode_delta)
        .collect();
    let decoded: Vec<DcgFrame> = frames
        .iter()
        .map(|f| DcgCodec::decode(f).expect("own encoding decodes"))
        .collect();
    let wire_bytes: usize = frames.iter().map(Vec::len).sum();
    eprintln!(
        "profile_ingest: {EDGES} records, {FRAMES} frames, {wire_bytes} wire bytes \
         ({:.2} B/record)",
        wire_bytes as f64 / EDGES as f64
    );

    let mut group = BenchGroup::new("profile_ingest", 20);
    let mut entries = Vec::new();
    let mut ratios = Vec::new();

    let encode = group
        .bench("codec/encode", || {
            records
                .chunks(records.len().div_ceil(FRAMES))
                .map(DcgCodec::encode_delta)
                .map(|f| f.len())
                .sum::<usize>()
        })
        .clone();
    entries.push(json_entry("codec/encode", EDGES, &encode));

    // A fully loaded aggregator for the read path, and its snapshot as a
    // client pulls it.
    let loaded = ShardedAggregator::new(AggregatorConfig::default());
    {
        let mut scratch = IngestScratch::new();
        for frame in &frames {
            loaded
                .ingest_frame_bytes(frame, &mut scratch)
                .expect("own encoding ingests");
        }
    }
    let snapshot_edges = loaded.stats().edges;
    let encoded = loaded.encoded_snapshot();

    // Gated: a pulled snapshot decodes into a graph within 1.5x of
    // decoding the same records into plain frames.
    let (decode, decode_snapshot) = pair(
        &mut group,
        ("codec/decode", &mut || {
            for f in &frames {
                black_box(DcgCodec::decode(f).expect("valid").edges.len());
            }
        }),
        ("codec/decode_snapshot", &mut || {
            black_box(
                DcgCodec::decode_snapshot(&encoded)
                    .expect("own encoding decodes")
                    .num_edges(),
            );
        }),
    );
    entries.push(json_entry("codec/decode", EDGES, &decode));
    ratios.push(ratio_entry(
        "codec/decode_snapshot",
        &decode_snapshot,
        "codec/decode",
        &decode,
    ));

    // Gated: the record reader every decode shares. Records with the
    // served snapshot's key-step mix, cut into 64 ascending runs, are
    // encoded and decoded, and decoded again with the cold tail's
    // callers folded into the hot core, which leaves the steps within a
    // caller and takes out the ten-byte ones. The three are timed
    // interleaved; `verify.sh` gates the decode over the encode, which
    // shares none of the reader, and the served mix over the short
    // steps, which differ only in how many records the reader's
    // ten-byte path reads.
    let served = served_mix_records(true);
    let short = served_mix_records(false);
    let (mix, short_mix) = (step_mix(&served), step_mix(&short));
    eprintln!(
        "profile_ingest: key steps of 1/2/5/10 bytes: served mix {:.3}/{:.3}/{:.3}/{:.3}, \
         short steps {:.3}/{:.3}/{:.3}/{:.3}",
        mix[1], mix[2], mix[5], mix[10], short_mix[1], short_mix[2], short_mix[5], short_mix[10]
    );
    assert!(
        (0.35..0.5).contains(&mix[1])
            && (0.35..0.5).contains(&mix[2])
            && (0.03..0.07).contains(&mix[5])
            && (0.08..0.15).contains(&mix[10])
            && short_mix[10] < 0.01,
        "the served-mix records keep the served snapshot's key-step mix: {mix:?}, {short_mix:?}"
    );
    let run = EDGES.div_ceil(FRAMES);
    let frames_of = |records: &[(CallEdge, f64)]| -> Vec<Vec<u8>> {
        records.chunks(run).map(DcgCodec::encode_delta).collect()
    };
    let (served_frames, short_frames) = (frames_of(&served), frames_of(&short));
    let decode_all = |frames: &[Vec<u8>]| {
        for f in frames {
            black_box(DcgCodec::decode(f).expect("valid").edges.len());
        }
    };
    let [encode_served, decode_served, decode_short] = <[BenchResult; 3]>::try_from(
        BenchGroup::new("profile_ingest", SERVED_MIX_ITERS).bench_interleaved(&mut [
            ("codec/encode_served_mix", &mut || {
                black_box(frames_of(&served).len());
            }),
            ("codec/decode_served_mix", &mut || {
                decode_all(&served_frames)
            }),
            ("codec/decode_short_steps", &mut || {
                decode_all(&short_frames)
            }),
        ]),
    )
    .expect("three results");
    entries.push(json_entry("codec/encode_served_mix", EDGES, &encode_served));
    entries.push(json_entry("codec/decode_served_mix", EDGES, &decode_served));
    entries.push(json_entry("codec/decode_short_steps", EDGES, &decode_short));
    ratios.push(ratio_entry(
        "codec/decode_served_mix",
        &decode_served,
        "codec/encode_served_mix",
        &encode_served,
    ));
    ratios.push(ratio_entry(
        "codec/decode_served_mix",
        &decode_served,
        "codec/decode_short_steps",
        &decode_short,
    ));

    let serial = group
        .bench("aggregate/serial", || {
            let agg = ShardedAggregator::new(AggregatorConfig::default());
            for frame in &decoded {
                agg.ingest(frame);
            }
            agg.stats().records
        })
        .clone();
    entries.push(json_entry("aggregate/serial", EDGES, &serial));

    // Gated: the durable write path (WAL append then apply, fsync off)
    // within 2x of the same frames through the in-memory streaming path.
    let (streaming, wal_append) = pair(
        &mut group,
        ("aggregate/streaming", &mut || {
            let agg = ShardedAggregator::new(AggregatorConfig::default());
            let mut scratch = IngestScratch::new();
            for frame in &frames {
                agg.ingest_frame_bytes(frame, &mut scratch)
                    .expect("own encoding ingests");
            }
            black_box(agg.stats().records);
        }),
        ("wal/append", &mut || {
            black_box(wal_append(&frames));
        }),
    );
    entries.push(json_entry("aggregate/streaming", EDGES, &streaming));
    ratios.push(ratio_entry(
        "wal/append",
        &wal_append,
        "aggregate/streaming",
        &streaming,
    ));

    let threaded = group
        .bench(&format!("aggregate/threads={PUSHERS}"), || {
            let agg = ShardedAggregator::new(AggregatorConfig::default());
            std::thread::scope(|scope| {
                let agg = &agg;
                for chunk in decoded.chunks(decoded.len().div_ceil(PUSHERS)) {
                    scope.spawn(move || {
                        for frame in chunk {
                            agg.ingest(frame);
                        }
                    });
                }
            });
            agg.stats().records
        })
        .clone();
    entries.push(json_entry(
        &format!("aggregate/threads={PUSHERS}"),
        EDGES,
        &threaded,
    ));

    // Pull-side costs against the loaded aggregator: `pull/rebuild`
    // pays the lock-encode path every iteration (decay is 1.0, so the
    // epoch advance changes no weight — it only invalidates the cache,
    // and the settled aggregate is not settled again); `plan/build` is
    // the same invalidate-then-read on the plan cache. The two are timed
    // interleaved, in a group of their own with `READ_PAIR_ITERS`
    // iterations (each is about a millisecond), and their ratio is
    // gated: both walk the same settled graph, so what the plan adds is
    // its per-site work.
    let (rebuild, plan_build) = pair(
        &mut BenchGroup::new("profile_ingest", READ_PAIR_ITERS),
        ("pull/rebuild", &mut || {
            loaded.advance_epoch();
            black_box(loaded.encoded_snapshot().len());
        }),
        ("plan/build", &mut || {
            loaded.advance_epoch();
            black_box(loaded.encoded_plan().len());
        }),
    );
    entries.push(json_entry("pull/rebuild", snapshot_edges, &rebuild));
    ratios.push(ratio_entry(
        "plan/build",
        &plan_build,
        "pull/rebuild",
        &rebuild,
    ));
    // `pull/cached` measures the steady-state hit path repeated
    // `OP_PULL`s ride.
    let cached = group
        .bench("pull/cached", || loaded.encoded_snapshot().len())
        .clone();
    entries.push(json_entry("pull/cached", snapshot_edges, &cached));
    entries.push(json_entry("plan/build", snapshot_edges, &plan_build));
    // The codec's halves of the read path alone.
    let settled = loaded.merged_snapshot();
    let encode_snapshot = group
        .bench("codec/encode_snapshot", || {
            DcgCodec::encode_snapshot(&settled).len()
        })
        .clone();
    entries.push(json_entry(
        "codec/encode_snapshot",
        snapshot_edges,
        &encode_snapshot,
    ));
    let plan = loaded.encoded_plan();
    let decode_plan = group
        .bench("codec/decode_plan", || {
            DcgCodec::decode_plan(&plan)
                .expect("own encoding decodes")
                .entries
                .len()
        })
        .clone();
    entries.push(json_entry(
        "codec/decode_plan",
        snapshot_edges,
        &decode_plan,
    ));
    entries.push(json_entry(
        "codec/decode_snapshot",
        snapshot_edges,
        &decode_snapshot,
    ));
    entries.push(json_entry("wal/append", EDGES, &wal_append));

    // Gated: concurrent durable ingest beats the same pushes serialized.
    // The records are re-cut into 1024 small frames (per-ack fsync
    // dominates, as in a fleet where pushes are small next to the sync)
    // and pushed by four threads through one `fsync always` store. The
    // baseline serializes the identical workload behind one external
    // lock, so every push convoys and syncs alone — the monolithic-lock
    // write path this store replaced.
    let durable_frames: Vec<Vec<u8>> = records
        .chunks(records.len().div_ceil(16 * FRAMES))
        .map(DcgCodec::encode_delta)
        .collect();
    let (concurrent, single_lock) = pair(
        &mut group,
        ("wal/append_concurrent", &mut || {
            black_box(durable_pushers(&durable_frames, false));
        }),
        ("wal/append_single_lock", &mut || {
            black_box(durable_pushers(&durable_frames, true));
        }),
    );
    entries.push(json_entry("wal/append_concurrent", EDGES, &concurrent));
    entries.push(json_entry("wal/append_single_lock", EDGES, &single_lock));
    ratios.push(ratio_entry(
        "wal/append_single_lock",
        &single_lock,
        "wal/append_concurrent",
        &concurrent,
    ));

    // Recovery: every iteration opens the same directory, whose WAL
    // holds `REPLAY_ROUNDS` passes over every frame, and replays it into
    // a fresh aggregator. An open also starts a segment for the store's
    // own appends; the untimed setup deletes it, so each open lists the
    // same segments and the WAL is large enough that replay, not open's
    // fixed costs (lock, segment create, fsyncs), dominates.
    let replay_dir = scratch_dir("recovery-replay");
    {
        let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
        let store = ProfileStore::open(&replay_dir, agg, lazy_store()).expect("open store");
        let mut scratch = IngestScratch::new();
        for frame in frames.iter().cycle().take(REPLAY_ROUNDS * FRAMES) {
            store
                .ingest_frame(frame, &mut scratch)
                .expect("own encoding ingests");
        }
    }
    let wal_files = |dir: &PathBuf| -> Vec<(std::ffi::OsString, u64)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .expect("list the replay dir")
            .map(|entry| {
                let entry = entry.expect("a directory entry");
                (entry.file_name(), entry.metadata().expect("stat").len())
            })
            .collect();
        files.sort();
        files
    };
    let pristine = wal_files(&replay_dir);
    let restore = || {
        for (name, _) in wal_files(&replay_dir) {
            if !pristine.iter().any(|(kept, _)| *kept == name) {
                std::fs::remove_file(replay_dir.join(name)).expect("remove a new segment");
            }
        }
        assert_eq!(
            wal_files(&replay_dir),
            pristine,
            "every open sees one directory"
        );
    };
    let replay = group
        .bench_with_setup("recovery/replay", restore, |()| {
            let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
            let store = ProfileStore::open(&replay_dir, agg, lazy_store()).expect("recovery opens");
            assert_eq!(
                store.recovery_report().replayed_frames,
                (REPLAY_ROUNDS * FRAMES) as u64,
                "every frame replays"
            );
            store
        })
        .clone();
    entries.push(json_entry(
        "recovery/replay",
        REPLAY_ROUNDS * EDGES,
        &replay,
    ));
    std::fs::remove_dir_all(&replay_dir).expect("remove scratch dir");

    if smoke_mode() {
        eprintln!("profile_ingest: smoke mode, skipping BENCH_ingest.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"profile_ingest\",\n  \"records\": {EDGES},\n  \"frames\": {FRAMES},\n  \
         \"wire_bytes\": {wire_bytes},\n  \"configs\": [\n{}\n  ],\n  \"median_ratios\": [\n{}\n  ]\n}}\n",
        entries.join(",\n"),
        ratios.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ingest.json");
    std::fs::write(path, json).expect("write BENCH_ingest.json");
    eprintln!("profile_ingest: wrote BENCH_ingest.json");
}
