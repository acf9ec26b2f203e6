//! The profile-ingestion daemon: serves a [`ShardedAggregator`] over
//! TCP for a fleet of VMs, optionally backed by the durable store.
//!
//! ```text
//! profiled [--addr <host:port>] [--decay <f64>] [--min-weight <f64>]
//!          [--max-frame-bytes <n>] [--max-inflight <n>]
//!          [--dedup-cap <n>]
//!          [--data-dir <dir>] [--checkpoint-every <frames>]
//!          [--fsync always|never]
//! ```
//!
//! Binds `--addr` (default `127.0.0.1:0`, an OS-assigned port), prints
//! one line `listening <addr>` on stdout so scripts can discover the
//! port, then serves until killed. Push profiles with `dcgtool push`,
//! read the merged fleet profile back with `dcgtool pull`.
//!
//! `--decay` (per-epoch factor in `[0, 1]`) and `--min-weight` (finite,
//! non-negative pruning floor) are range-checked before anything is
//! bound or recovered. `--shards <n>` is accepted and ignored: the
//! aggregate is one graph under one lock.
//!
//! With `--data-dir`, every accepted push is appended to a write-ahead
//! log before it is acknowledged and the directory is recovered on
//! startup — a `recovered ...` line (printed before `listening`)
//! reports what came back, ending with the WAL bytes replayed
//! (`wal_bytes=`) and the wall time opening the store took
//! (`replay_ms=`). `--fsync` picks the durability/throughput
//! trade (`always` syncs before every ack, `never` leaves it to the
//! OS); `--checkpoint-every` bounds replay time by checkpointing after
//! that many applied frames. Under `--fsync always` a push that arrives
//! while another's fsync is in flight is acknowledged by the next one.
//!
//! [`ShardedAggregator`]: cbs_core::profiled::ShardedAggregator

use cbs_core::profiled::{
    serve_with, AggregatorConfig, MemJournal, NetConfig, ProfileJournal, ShardedAggregator,
};
use cbs_core::store::{FsyncPolicy, ProfileStore, StoreConfig};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("profiled: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut addr = "127.0.0.1:0".to_owned();
    let mut agg_config = AggregatorConfig::default();
    let mut net_config = NetConfig::default();
    let mut store_config = StoreConfig::default();
    let mut data_dir: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match a.as_str() {
            "--addr" => addr = value("--addr")?,
            "--shards" => {
                value("--shards")?;
            }
            "--decay" => agg_config.decay_factor = value("--decay")?.parse()?,
            "--min-weight" => agg_config.min_weight = value("--min-weight")?.parse()?,
            "--max-frame-bytes" => {
                net_config.max_frame_bytes = value("--max-frame-bytes")?.parse()?
            }
            "--max-inflight" => net_config.max_inflight = value("--max-inflight")?.parse()?,
            "--dedup-cap" => store_config.dedup_capacity = value("--dedup-cap")?.parse()?,
            "--data-dir" => data_dir = Some(value("--data-dir")?),
            "--checkpoint-every" => {
                store_config.checkpoint_every = value("--checkpoint-every")?.parse()?
            }
            "--fsync" => store_config.fsync = value("--fsync")?.parse::<FsyncPolicy>()?,
            "--help" | "-h" => {
                eprintln!(
                    "usage: profiled [--addr <host:port>] [--decay <f64>] [--min-weight <f64>] \
                     [--max-frame-bytes <n>] [--max-inflight <n>] \
                     [--dedup-cap <n>] [--data-dir <dir>] [--checkpoint-every <frames>] \
                     [--fsync always|never]\n\
                     (--shards <n> is accepted and ignored: the aggregate is one graph)"
                );
                return Ok(());
            }
            other => return Err(format!("unknown flag `{other}`").into()),
        }
    }

    agg_config.check()?;
    let aggregator = Arc::new(ShardedAggregator::new(agg_config));
    let journal: Arc<dyn ProfileJournal> = match data_dir {
        Some(dir) => {
            let opened = Instant::now();
            let store = ProfileStore::open(dir.as_str(), Arc::clone(&aggregator), store_config)?;
            let replay_ms = opened.elapsed().as_secs_f64() * 1e3;
            let r = store.recovery_report();
            println!(
                "recovered frames={} records={} epochs={} checkpoint_epoch={} truncated_tail={} \
                 wal_bytes={} replay_ms={replay_ms:.1}",
                r.replayed_frames,
                r.replayed_records,
                r.replayed_epochs,
                r.checkpoint_epoch
                    .map_or_else(|| "none".to_owned(), |e| e.to_string()),
                r.truncated_tail,
                r.replayed_wal_bytes,
            );
            Arc::new(store)
        }
        None => Arc::new(MemJournal::with_capacity(
            Arc::clone(&aggregator),
            store_config.dedup_capacity,
        )),
    };
    let server = serve_with(addr.as_str(), aggregator, net_config, journal)?;
    println!("listening {}", server.addr());
    std::io::stdout().flush()?;
    // Serve until killed: the accept loop runs on its own thread, so
    // park this one instead of spinning.
    loop {
        std::thread::park();
    }
}
