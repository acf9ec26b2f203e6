//! Offline profile tooling: compare, characterize, convert and ship
//! serialized dynamic call graphs (the `cbs-dcg v1` text format and the
//! `cbs-profiled` binary wire format).
//!
//! ```text
//! dcgtool collect <benchmark> <small|large> <out.dcg> [stride samples]
//! dcgtool collect-all <dir> [--jobs <n|auto>] [stride samples]
//! dcgtool merge   <out.dcg> <in.dcg>...   # deterministic shard merge
//! dcgtool compare <a.dcg> <b.dcg>         # overlap percentage
//! dcgtool shape   <a.dcg>                 # distribution statistics
//! dcgtool dot     <a.dcg> [max_edges]     # DOT digraph on stdout
//! dcgtool convert <in> <out> [--to text|binary]  # text v1 <-> binary
//! dcgtool push    <host:port> <profile>...       # send to a profiled server
//! dcgtool pull    <host:port> <out>              # fetch merged fleet profile
//! dcgtool plan    <host:port>                    # fetch + render fleet inlining plan
//! dcgtool stats   <host:port>                    # ingestion + dedup counters
//! dcgtool metrics <host:port>                    # telemetry text exposition
//! dcgtool store inspect <dir>                    # durable-store summary
//! dcgtool store compact <dir> [--decay <f64>] [--min-weight <f64>]
//!                                                # checkpoint + truncate WAL
//! ```
//!
//! `collect-all` profiles the whole suite (small inputs), sharding
//! benchmarks across `--jobs` worker threads; the written profiles are
//! identical for every jobs value.
//!
//! `convert`/`push`/`pull` accept either format on input (binary frames
//! are sniffed by their `CBSP` magic); `convert` picks the output format
//! from the extension (`.dcgb` → binary) unless `--to` overrides it.
//!
//! `push`/`pull` take resilient-transport flags; any of them switches
//! from the plain one-connection client to the reconnecting
//! [`ResilientClient`] (exactly-once sequenced pushes, chunked pulls):
//!
//! ```text
//! --retries <n>      attempts per operation before giving up (default 16)
//! --backoff-ms <n>   base reconnect backoff, doubling per retry (default 25)
//! --seed <u64>       backoff-jitter seed (default 0x5EED)
//! --faults <seed>    route the connection through the deterministic
//!                    fault injector seeded here (testing/demos)
//! --fault-rate <f>   injected fault probability per exchange (default 0.25)
//! ```

use cbs_core::dcg::{dot, overlap, serialize, stats, DynamicCallGraph};
use cbs_core::parallel::{run_cells, Parallelism};
use cbs_core::prelude::*;
use cbs_core::profiled::{
    AggregatorConfig, DcgCodec, FaultSchedule, NetConfig, ProfileClient, ResilientClient,
    RetryPolicy, ShardedAggregator,
};
use cbs_core::store::{inspect, ProfileStore, StoreConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dcgtool: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<DynamicCallGraph, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(serialize::from_text(&text)?)
}

/// Loads a profile in either format, sniffing binary frames by magic.
fn load_any(path: &str) -> Result<DynamicCallGraph, Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path)?;
    if bytes.starts_with(b"CBSP") {
        let frame = DcgCodec::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        Ok(frame.edges.into_iter().collect())
    } else {
        Ok(serialize::from_text(std::str::from_utf8(&bytes).map_err(
            |_| format!("{path}: neither CBSP binary nor UTF-8 text"),
        )?)?)
    }
}

/// Output format of `convert`.
#[derive(PartialEq)]
enum Format {
    Text,
    Binary,
}

fn format_for(path: &str, explicit: Option<&str>) -> Result<Format, Box<dyn std::error::Error>> {
    match explicit {
        Some("text") => Ok(Format::Text),
        Some("binary") => Ok(Format::Binary),
        Some(other) => Err(format!("--to must be `text` or `binary`, got `{other}`").into()),
        None if path.ends_with(".dcgb") => Ok(Format::Binary),
        None => Ok(Format::Text),
    }
}

fn collect_one(
    bench: Benchmark,
    size: InputSize,
    stride: u32,
    samples: u32,
) -> Result<(DynamicCallGraph, f64, f64), Box<dyn std::error::Error + Send + Sync>> {
    let program = bench.build(size)?;
    let mut m = measure(
        &program,
        VmConfig::default(),
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(
            stride, samples,
        )))],
    )?;
    let o = m.outcomes.remove(0);
    Ok((o.dcg, o.accuracy, o.overhead_pct))
}

/// Resilient-transport options shared by `push` and `pull`. Passing any
/// of them opts into the reconnecting client.
struct TransportOpts {
    retries: Option<u32>,
    backoff_ms: Option<u64>,
    seed: Option<u64>,
    faults: Option<u64>,
    fault_rate: f64,
}

impl TransportOpts {
    fn resilient(&self) -> bool {
        self.retries.is_some()
            || self.backoff_ms.is_some()
            || self.seed.is_some()
            || self.faults.is_some()
    }

    fn policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.retries.unwrap_or(16).max(1),
            base_backoff: Duration::from_millis(self.backoff_ms.unwrap_or(25)),
            seed: self.seed.unwrap_or(0x5EED),
            ..RetryPolicy::default()
        }
    }
}

/// Splits `--retries/--backoff-ms/--seed/--faults/--fault-rate` out of
/// `args`, returning the remaining positional arguments.
fn split_transport_flags(
    args: &[String],
) -> Result<(Vec<&String>, TransportOpts), Box<dyn std::error::Error>> {
    let mut opts = TransportOpts {
        retries: None,
        backoff_ms: None,
        seed: None,
        faults: None,
        fault_rate: 0.25,
    };
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> Result<&String, Box<dyn std::error::Error>> {
            it.next()
                .ok_or_else(|| format!("{flag} requires a value").into())
        };
        match a.as_str() {
            "--retries" => opts.retries = Some(value("--retries")?.parse()?),
            "--backoff-ms" => opts.backoff_ms = Some(value("--backoff-ms")?.parse()?),
            "--seed" => opts.seed = Some(value("--seed")?.parse()?),
            "--faults" => opts.faults = Some(value("--faults")?.parse()?),
            "--fault-rate" => opts.fault_rate = value("--fault-rate")?.parse()?,
            _ => positional.push(a),
        }
    }
    Ok((positional, opts))
}

/// Pushes each profile's edges as an exactly-once sequenced delta
/// through the resilient client, then reports delivery stats.
fn resilient_push<S: std::io::Read + std::io::Write>(
    client: &mut ResilientClient<S>,
    paths: &[&String],
) -> Result<(), Box<dyn std::error::Error>> {
    for path in paths {
        let g = load_any(path)?;
        client.push_delta(g.iter().map(|(e, w)| (*e, w)).collect())?;
        eprintln!("pushed {path}");
    }
    client.flush()?;
    eprintln!("{}", client.stats_text()?.trim_end());
    let s = client.stats();
    eprintln!(
        "transport: connects={} reconnects={} retries={} duplicates={}",
        s.connects, s.reconnects, s.retries, s.duplicates
    );
    Ok(())
}

/// Pulls the merged snapshot through the resilient client (paged, so
/// snapshots beyond the frame limit still arrive) and writes it out.
fn resilient_pull<S: std::io::Read + std::io::Write>(
    client: &mut ResilientClient<S>,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let (merged, pages) = client.pull()?;
    match format_for(out, None)? {
        Format::Text => std::fs::write(out, serialize::to_text(&merged))?,
        Format::Binary => std::fs::write(out, DcgCodec::encode_snapshot(&merged))?,
    }
    let s = client.stats();
    eprintln!(
        "wrote {out}: {} edges, total weight {}, {pages} page(s); \
         transport: reconnects={} retries={}",
        merged.num_edges(),
        merged.total_weight(),
        s.reconnects,
        s.retries
    );
    Ok(())
}

fn run(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("collect") => {
            let bench_name = args.get(1).ok_or("collect needs a benchmark name")?;
            let size = match args.get(2).map(String::as_str) {
                Some("small") => InputSize::Small,
                Some("large") => InputSize::Large,
                _ => return Err("size must be `small` or `large`".into()),
            };
            let out = args.get(3).ok_or("collect needs an output path")?;
            let stride = args.get(4).map_or(Ok(3), |s| s.parse())?;
            let samples = args.get(5).map_or(Ok(16), |s| s.parse())?;
            let bench = Benchmark::all()
                .into_iter()
                .find(|b| b.name() == bench_name)
                .ok_or_else(|| format!("unknown benchmark `{bench_name}`"))?;
            let (dcg, accuracy, overhead) = collect_one(bench, size, stride, samples)
                .map_err(|e| -> Box<dyn std::error::Error> { e })?;
            std::fs::write(out, serialize::to_text(&dcg))?;
            eprintln!(
                "wrote {out}: {} edges, accuracy {accuracy:.1}%, overhead {overhead:.3}%",
                dcg.num_edges(),
            );
            Ok(())
        }
        Some("collect-all") => {
            let dir = args.get(1).ok_or("collect-all needs an output directory")?;
            let mut jobs = Parallelism::SERIAL;
            let mut rest: Vec<&String> = Vec::new();
            let mut it = args[2..].iter();
            while let Some(a) = it.next() {
                if a == "--jobs" || a == "-j" {
                    jobs = it
                        .next()
                        .ok_or("--jobs requires a positive integer or `auto`")?
                        .parse()?;
                } else {
                    rest.push(a);
                }
            }
            let stride: u32 = rest.first().map_or(Ok(3), |s| s.parse())?;
            let samples: u32 = rest.get(1).map_or(Ok(16), |s| s.parse())?;
            std::fs::create_dir_all(dir)?;
            let profiles = run_cells(Benchmark::all().to_vec(), jobs, |bench| {
                collect_one(bench, InputSize::Small, stride, samples)
                    .map(|(dcg, accuracy, _)| (bench, dcg, accuracy))
            })
            .map_err(|e| e.to_string())?;
            for (bench, dcg, accuracy) in profiles {
                let path = format!("{dir}/{}.dcg", bench.name());
                std::fs::write(&path, serialize::to_text(&dcg))?;
                eprintln!(
                    "wrote {path}: {} edges, accuracy {accuracy:.1}%",
                    dcg.num_edges()
                );
            }
            Ok(())
        }
        Some("merge") => {
            let out = args.get(1).ok_or("merge needs an output path")?;
            if args.len() < 3 {
                return Err("merge needs at least one input profile".into());
            }
            let shards = args[2..]
                .iter()
                .map(|p| load(p))
                .collect::<Result<Vec<_>, _>>()?;
            let merged = DynamicCallGraph::merge_all(&shards);
            std::fs::write(out, serialize::to_text(&merged))?;
            eprintln!(
                "wrote {out}: {} edges from {} shards, total weight {}",
                merged.num_edges(),
                shards.len(),
                merged.total_weight()
            );
            Ok(())
        }
        Some("compare") => {
            let a = load(args.get(1).ok_or("compare needs two paths")?)?;
            let b = load(args.get(2).ok_or("compare needs two paths")?)?;
            println!("{:.2}", overlap(&a, &b));
            Ok(())
        }
        Some("shape") => {
            let g = load(args.get(1).ok_or("shape needs a path")?)?;
            let s = stats::shape(&g);
            println!(
                "edges={} top_decile_share={:.3} edges_for_90pct={} gini={:.3}",
                s.edges, s.top_decile_share, s.edges_for_90pct, s.gini
            );
            Ok(())
        }
        Some("dot") => {
            let g = load(args.get(1).ok_or("dot needs a path")?)?;
            let max_edges = args.get(2).map_or(Ok(64), |s| s.parse())?;
            print!(
                "{}",
                dot::to_dot(
                    &g,
                    None,
                    &dot::DotOptions {
                        max_edges,
                        ..Default::default()
                    }
                )
            );
            Ok(())
        }
        Some("convert") => {
            let input = args.get(1).ok_or("convert needs an input path")?;
            let out = args.get(2).ok_or("convert needs an output path")?;
            let explicit = match args.get(3).map(String::as_str) {
                Some("--to") => Some(
                    args.get(4)
                        .ok_or("--to requires `text` or `binary`")?
                        .as_str(),
                ),
                Some(other) => return Err(format!("unknown flag `{other}`").into()),
                None => None,
            };
            let g = load_any(input)?;
            match format_for(out, explicit)? {
                Format::Text => std::fs::write(out, serialize::to_text(&g))?,
                Format::Binary => std::fs::write(out, DcgCodec::encode_snapshot(&g))?,
            }
            eprintln!("wrote {out}: {} edges", g.num_edges());
            Ok(())
        }
        Some("push") => {
            let (positional, opts) = split_transport_flags(&args[1..])?;
            let addr = positional.first().ok_or("push needs a server address")?;
            let paths = &positional[1..];
            if paths.is_empty() {
                return Err("push needs at least one profile".into());
            }
            if let Some(fault_seed) = opts.faults {
                let schedule = FaultSchedule::seeded(fault_seed, opts.fault_rate).shared();
                let mut client = ResilientClient::connect_faulty(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    fault_seed,
                    schedule,
                );
                resilient_push(&mut client, paths)
            } else if opts.resilient() {
                let mut client = ResilientClient::connect_tcp(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    opts.seed.unwrap_or(0x5EED),
                );
                resilient_push(&mut client, paths)
            } else {
                let mut client = ProfileClient::connect(addr.as_str(), NetConfig::default())?;
                for path in paths {
                    // Binary files are pushed verbatim (preserving
                    // snapshot vs delta kind); text profiles go up as
                    // snapshots.
                    let bytes = std::fs::read(path)?;
                    if bytes.starts_with(b"CBSP") {
                        client.push_frame(&bytes)?;
                    } else {
                        client.push_snapshot(&load(path)?)?;
                    }
                    eprintln!("pushed {path}");
                }
                eprintln!("{}", client.stats_text()?.trim_end());
                Ok(())
            }
        }
        Some("stats") => {
            let addr = args.get(1).ok_or("stats needs a server address")?;
            let mut client = ProfileClient::connect(addr.as_str(), NetConfig::default())?;
            let text = client.stats_text()?;
            print!("{text}");
            // v2 servers report the dedup-table size and the epoch; call
            // out epoch drift hints for humans scanning the output.
            let field = |key: &str| {
                text.lines()
                    .find_map(|l| l.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
            };
            if field("stats_version").is_none() {
                eprintln!("note: v1 server (no dedup/epoch drift fields)");
            }
            Ok(())
        }
        Some("metrics") => {
            let (positional, opts) = split_transport_flags(&args[1..])?;
            let addr = positional.first().ok_or("metrics needs a server address")?;
            let text = if opts.resilient() {
                let mut client = ResilientClient::connect_tcp(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    opts.seed.unwrap_or(0x5EED),
                );
                client.metrics_text()?
            } else {
                let mut client = ProfileClient::connect(addr.as_str(), NetConfig::default())?;
                client.metrics_text()?
            };
            print!("{text}");
            Ok(())
        }
        Some("pull") => {
            let (positional, opts) = split_transport_flags(&args[1..])?;
            let addr = positional.first().ok_or("pull needs a server address")?;
            let out = positional.get(1).ok_or("pull needs an output path")?;
            if let Some(fault_seed) = opts.faults {
                let schedule = FaultSchedule::seeded(fault_seed, opts.fault_rate).shared();
                let mut client = ResilientClient::connect_faulty(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    fault_seed,
                    schedule,
                );
                resilient_pull(&mut client, out)
            } else if opts.resilient() {
                let mut client = ResilientClient::connect_tcp(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    opts.seed.unwrap_or(0x5EED),
                );
                resilient_pull(&mut client, out)
            } else {
                let mut client = ProfileClient::connect(addr.as_str(), NetConfig::default())?;
                let merged = client.pull()?;
                match format_for(out, None)? {
                    Format::Text => std::fs::write(out, serialize::to_text(&merged))?,
                    Format::Binary => std::fs::write(out, DcgCodec::encode_snapshot(&merged))?,
                }
                eprintln!(
                    "wrote {out}: {} edges, total weight {}",
                    merged.num_edges(),
                    merged.total_weight()
                );
                Ok(())
            }
        }
        Some("plan") => {
            let (positional, opts) = split_transport_flags(&args[1..])?;
            let addr = positional.first().ok_or("plan needs a server address")?;
            // The fleet plan: NewLinearPolicy + the 40% rule run
            // server-side against the merged snapshot. Rendered as the
            // deterministic `cbs-inline-plan v1` text format.
            let plan = if opts.resilient() {
                let mut client = ResilientClient::connect_tcp(
                    addr.as_str(),
                    NetConfig::default(),
                    opts.policy(),
                    opts.seed.unwrap_or(0x5EED),
                );
                client.pull_plan()?
            } else {
                let mut client = ProfileClient::connect(addr.as_str(), NetConfig::default())?;
                client.pull_plan()?
            };
            print!("{}", plan.render());
            Ok(())
        }
        Some("store") => run_store(&args[1..]),
        _ => Err(
            "usage: dcgtool collect|collect-all|merge|compare|shape|dot|convert|push|pull|plan|stats|metrics|store …"
                .into(),
        ),
    }
}

/// The `store inspect|compact` subcommands: offline views and
/// maintenance of a `--data-dir` directory (run them against a stopped
/// server — the store is single-writer).
fn run_store(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    match args.first().map(String::as_str) {
        Some("inspect") => {
            let dir = args.get(1).ok_or("store inspect needs a directory")?;
            let report = inspect(std::path::Path::new(dir))?;
            match &report.checkpoint {
                Some(c) => println!(
                    "checkpoint: epoch={} frames={} records={} dedup_clients={} \
                     snapshot_bytes={} wal_seq={}",
                    c.epoch, c.frames, c.records, c.dedup_clients, c.snapshot_bytes, c.wal_seq
                ),
                None => println!("checkpoint: none"),
            }
            for s in &report.segments {
                println!(
                    "segment {:#018x}: log_bytes={} reserve_bytes={} frames={} seq_frames={} \
                     epochs={}{}",
                    s.seq,
                    s.log_bytes,
                    s.reserve_bytes,
                    s.frames,
                    s.seq_frames,
                    s.epochs,
                    if s.corrupt {
                        format!(" CORRUPT-TAIL torn_bytes={}", s.torn_bytes)
                    } else {
                        String::new()
                    }
                );
            }
            println!(
                "tail: {} frame(s) across {} segment(s) would replay on open",
                report.tail_frames(),
                report.segments.len()
            );
            Ok(())
        }
        Some("compact") => {
            let mut agg_config = AggregatorConfig::default();
            let mut dir: Option<&String> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut value = |flag: &str| -> Result<&String, Box<dyn std::error::Error>> {
                    it.next()
                        .ok_or_else(|| format!("{flag} requires a value").into())
                };
                match a.as_str() {
                    "--decay" => agg_config.decay_factor = value("--decay")?.parse()?,
                    "--min-weight" => agg_config.min_weight = value("--min-weight")?.parse()?,
                    _ if dir.is_none() => dir = Some(a),
                    other => return Err(format!("unknown flag `{other}`").into()),
                }
            }
            let dir = dir.ok_or("store compact needs a directory")?;
            // Recover the directory (replaying the WAL tail), then
            // checkpoint: the subsumed segments are deleted and the next
            // open replays nothing. The decay settings must match the
            // server's so the checkpointed snapshot is the bytes the
            // server would serve.
            agg_config.check()?;
            let aggregator = Arc::new(ShardedAggregator::new(agg_config));
            let store = ProfileStore::open(dir.as_str(), aggregator, StoreConfig::default())?;
            let r = store.recovery_report().clone();
            store.checkpoint_now()?;
            let stats = store.aggregator().stats();
            eprintln!(
                "compacted {dir}: replayed {} frame(s), checkpoint at epoch {} \
                 ({} frames, {} records)",
                r.replayed_frames, stats.epoch, stats.frames, stats.records
            );
            if r.truncated_tail {
                eprintln!("note: a torn WAL tail was truncated during recovery");
            }
            Ok(())
        }
        _ => Err("usage: dcgtool store inspect|compact <dir> …".into()),
    }
}
