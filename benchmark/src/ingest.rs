//! `ingest-mem` and `ingest-durable`: two connections pushing delta
//! frames at a real `profiled` process over loopback TCP.
//!
//! The two share one stream and differ in what the daemon does with
//! it. Without a data directory the wire read, codec decode, the
//! aggregator's partition/apply and the dedup table do all the work
//! and the store none. With `--fsync always` the WAL append, the group
//! fsync, the apply turnstile and the periodic checkpoints dominate
//! and the aggregator is a small share.
//!
//! Frame sizes are deliberate. 64-record ping-pong measured thread
//! wake-up, not the program (2.9-5.4 M records/s between identical
//! runs); 4000-record frames keep the daemon busy between wake-ups.
//! The durable stream is cut to 800 records so the per-ack fsync, not
//! the payload, sets the pace.

use crate::daemon::{Daemon, TempDir};
use crate::gen::{self, Frame, SplitMix64};
use crate::layers::{self, SHARDS};
use crate::loopback::{self, drive_pushes, Phase, PhaseSamples, PushLog};
use crate::run::{sleep_until, sliced_rate, Ctx, Error, Outcome};
use crate::stats;
use crate::trace::Tracer;
use cbs_core::dcg::DynamicCallGraph;
use cbs_core::profiled::ProfileClient;
use std::time::{Duration, Instant};

const UNIVERSE: usize = 50_000;
/// Connections (= generator threads). The host has two cores; a
/// closed loop with one frame in flight per connection needs at least
/// two to overlap one connection's fsync or apply with the other's
/// decode.
const CONNECTIONS: usize = 2;
/// Slices of the timed window whose median rate is reported.
const SLICES: usize = 5;

struct Shape {
    records_per_frame: usize,
    pool: usize,
    setups: usize,
}

fn shard_arg() -> [String; 2] {
    ["--shards".to_owned(), SHARDS.to_string()]
}

fn durable_args(dir: &TempDir, fsync: &str, checkpoint_every: u64) -> Vec<String> {
    let mut args = shard_arg().to_vec();
    args.extend([
        "--data-dir".to_owned(),
        dir.path().display().to_string(),
        "--fsync".to_owned(),
        fsync.to_owned(),
        "--checkpoint-every".to_owned(),
        checkpoint_every.to_string(),
    ]);
    args
}

/// A daemon ready to serve: started, `CONNECTIONS` clients connected
/// and each answered once. Returns how long that took.
fn ready_daemon(ctx: &Ctx, args: &[String]) -> Result<(Daemon, Vec<ProfileClient>, f64), Error> {
    let t = Instant::now();
    let daemon = Daemon::spawn(&ctx.profiled(), args)?;
    let mut clients = Vec::with_capacity(CONNECTIONS);
    for _ in 0..CONNECTIONS {
        let mut c = loopback::connect(daemon.addr())?;
        c.stats_text()?;
        clients.push(c);
    }
    Ok((daemon, clients, t.elapsed().as_secs_f64()))
}

/// Pulls the merged graph and compares it with the reference fold of
/// every acknowledged frame.
fn check_pull(
    client: &mut ProfileClient,
    reference: &DynamicCallGraph,
    when: &str,
    out: &mut Outcome,
) -> Result<(), Error> {
    out.attempted += 1;
    let pulled = client.pull()?;
    out.check(pulled == *reference, || {
        format!(
            "{when}: pulled graph ({} edges, weight {}) differs from the reference fold of the acked frames ({} edges, weight {})",
            pulled.num_edges(),
            pulled.total_weight(),
            reference.num_edges(),
            reference.total_weight()
        )
    });
    Ok(())
}

/// The fixed recovery phase: a WAL of `frames_to_write` frames written
/// under `--fsync never --checkpoint-every 0`, the daemon SIGKILLed,
/// then restarted `restarts` times, each timed from spawn to the first
/// answered request. The last restart's aggregate must equal the
/// reference fold. Returns the restart times.
fn recovery_phase(
    ctx: &Ctx,
    frames: &[Frame],
    frames_to_write: usize,
    restarts: usize,
    out: &mut Outcome,
) -> Result<Vec<f64>, Error> {
    let dir = TempDir::new(&ctx.out, "recovery")?;
    let args = durable_args(&dir, "never", 0);
    let mut acks = vec![0u64; frames.len()];
    {
        let daemon = Daemon::spawn(&ctx.profiled(), &args)?;
        let mut client = loopback::connect(daemon.addr())?;
        for i in 0..frames_to_write {
            out.attempted += 1;
            match client.push_seq(9, i as u64 + 1, &frames[i % frames.len()].bytes) {
                Ok(_) => acks[i % frames.len()] += 1,
                Err(_) => out.failed += 1,
            }
        }
        daemon.kill();
    }
    let reference = gen::reference_graph(frames.iter().zip(acks));
    let mut times = Vec::with_capacity(restarts);
    for i in 0..restarts {
        let (daemon, mut clients, took) = ready_daemon(ctx, &args)?;
        times.push(took);
        let report = daemon.preamble().join(" ");
        out.check(
            report.contains(&format!("recovered frames={frames_to_write} ")),
            || format!("restart {i} did not replay {frames_to_write} frames: `{report}`"),
        );
        if i + 1 == restarts {
            check_pull(&mut clients[0], &reference, "after recovery", out)?;
        }
        daemon.kill();
    }
    Ok(times)
}

/// Merges the connections' samples of phase `i`.
fn merged(logs: &[PushLog], i: usize) -> PhaseSamples {
    let mut all = PhaseSamples::default();
    for log in logs {
        all.ends_ns.extend(&log.phases[i].ends_ns);
        all.latency_us.extend(&log.phases[i].latency_us);
        all.lateness_us.extend(&log.phases[i].lateness_us);
    }
    all
}

pub fn run(ctx: &Ctx, durable: bool) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let shape = if durable {
        Shape {
            records_per_frame: 800,
            pool: ctx.sized(128, 16),
            setups: ctx.sized(5, 2),
        }
    } else {
        Shape {
            records_per_frame: 4_000,
            pool: ctx.sized(64, 8),
            // A start is two milliseconds: many, so the median is steady.
            setups: ctx.sized(15, 3),
        }
    };
    let mut rng = SplitMix64::new(ctx.seed);
    let universe = gen::universe(&mut rng, UNIVERSE);
    let frames = gen::skewed_frames(&mut rng, &universe, shape.pool, shape.records_per_frame);

    // -- set-up --------------------------------------------------------
    // The daemon the window runs against is the last of several
    // identical set-ups; `setup_s` is their median.
    let data_dir = TempDir::new(&ctx.out, "data")?;
    let args = if durable {
        durable_args(&data_dir, "always", 2_000)
    } else {
        shard_arg().to_vec()
    };
    let mut setup_times = if durable {
        // A durable daemon's set-up is recovering what it had: the
        // restart after a crash is what an operator waits for.
        recovery_phase(ctx, &frames, ctx.sized(4_000, 200), shape.setups, &mut out)?
    } else {
        Vec::new()
    };
    let (daemon, clients) = loop {
        let (daemon, clients, took) = ready_daemon(ctx, &args)?;
        if !durable {
            setup_times.push(took);
        }
        if durable || setup_times.len() == shape.setups {
            break (daemon, clients);
        }
        daemon.kill();
    };
    let setup_s = stats::median(&setup_times);

    // -- the window ----------------------------------------------------
    // untraced: warm-up, then the timed window.
    // traced:   warm-up, an untraced window, an equal traced window
    //           (their difference is the tracing overhead), which
    //           leaves the rest of the budget to the in-process replays.
    let origin = Instant::now();
    let warm = Duration::from_secs_f64(if ctx.smoke { 0.2 } else { 1.0 });
    let windows: Vec<(Duration, bool)> = if ctx.trace {
        vec![(ctx.budget(0.25), false), (ctx.budget(0.25), true)]
    } else {
        vec![(ctx.budget(1.0), false)]
    };
    let mut phases = vec![Phase {
        end: origin + warm,
        record: false,
        traced: false,
    }];
    for &(len, traced) in &windows {
        let start = phases.last().expect("warm-up").end;
        phases.push(Phase {
            end: start + len,
            record: true,
            traced,
        });
    }
    // (Control connections are opened where they are used: an idle one
    // would hit the server's 10 s read timeout during the window.)
    let before = if ctx.trace {
        Some(loopback::scrape(&mut loopback::connect(daemon.addr())?)?)
    } else {
        None
    };
    let share = frames.len() / CONNECTIONS;
    let mut cpu = Vec::with_capacity(phases.len());
    let logs: Vec<PushLog> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                let mine = &frames[i * share..(i + 1) * share];
                let phases = &phases;
                s.spawn(move || drive_pushes(&mut client, i as u64 + 1, mine, phases, origin))
            })
            .collect();
        for p in &phases {
            sleep_until(p.end);
            cpu.push(daemon.cpu_seconds(ctx.ticks));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("push thread"))
            .collect()
    });
    for log in &logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        out.check(log.duplicates == 0, || {
            format!("{} rising sequences were acked `duplicate`", log.duplicates)
        });
    }

    // -- correctness ---------------------------------------------------
    let acks = logs.iter().flat_map(|l| l.acks.iter().copied());
    let reference = gen::reference_graph(frames.iter().zip(acks));
    let mut control = loopback::connect(daemon.addr())?;
    check_pull(&mut control, &reference, "after the window", &mut out)?;
    let after = if ctx.trace {
        Some(loopback::scrape(&mut control)?)
    } else {
        None
    };
    let roundtrip_us = if ctx.trace {
        loopback::ping_p50_us(&mut control, ctx.sized(500, 50))?
    } else {
        0.0
    };
    let peak_rss_mb = daemon.peak_rss_mb();
    let dir_bytes = crate::procfs::dir_bytes(data_dir.path());
    let checkpoint_bytes = std::fs::metadata(data_dir.path().join("checkpoint.cbsc"))
        .map(|m| m.len())
        .unwrap_or(0);
    drop(control);
    daemon.kill();
    if durable {
        // Every acked frame must have survived the SIGKILL.
        let (daemon, mut clients, _) = ready_daemon(ctx, &args)?;
        check_pull(
            &mut clients[0],
            &reference,
            "after SIGKILL + restart",
            &mut out,
        )?;
        daemon.kill();
    }

    // -- metrics -------------------------------------------------------
    let records = shape.records_per_frame as f64;
    let window_start = |i: usize| phases[i - 1].end.duration_since(origin).as_nanos() as u64;
    let window_end = |i: usize| phases[i].end.duration_since(origin).as_nanos() as u64;
    if !ctx.trace {
        let timed = merged(&logs, 1);
        let in_window = timed.ends_ns.iter().filter(|&&t| t < window_end(1)).count() as f64;
        out.set(
            "work_per_s",
            sliced_rate(
                &timed.ends_ns,
                window_start(1),
                window_end(1),
                SLICES,
                records,
            ),
        );
        out.set("op_p50_us", stats::median(&timed.latency_us));
        out.set(
            "cpu_ns_per_work",
            (cpu[1] - cpu[0]) * 1e9 / (in_window * records).max(1.0),
        );
        out.set("peak_rss_mb", peak_rss_mb);
        out.set("setup_s", setup_s);
        out.note(format!(
            "{} acked frames of {} records over {CONNECTIONS} connections; set-ups {:?} s",
            timed.latency_us.len(),
            shape.records_per_frame,
            setup_times
        ));
        return Ok(out);
    }

    let (untraced, traced) = (merged(&logs, 1), merged(&logs, 2));
    out.set_timing(
        "push_ack_p50_us",
        "push_ack_tail_us",
        "us",
        &traced.latency_us,
    );
    let (p50_untraced, p50_traced) = (
        stats::median(&untraced.latency_us),
        stats::median(&traced.latency_us),
    );
    out.set(
        "trace_overhead_pct",
        (p50_traced / p50_untraced.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
    );
    out.set("generator_lateness_us", stats::median(&traced.lateness_us));
    out.set("wire.roundtrip_us", roundtrip_us);
    out.set("recovery_s", if durable { setup_s } else { 0.0 });
    let (before, after) = (before.expect("scraped"), after.expect("scraped"));
    let since = |name: &str| after.delta(&before, name);
    loopback::set_server_metrics(&before, &after, &mut out);
    out.check(
        after.value("profiled.agg.edges") == reference.num_edges() as f64,
        || "the daemon's edge gauge disagrees with the reference".to_owned(),
    );
    if durable {
        let commits = since("store.wal.group_commits");
        out.set(
            "store.acks_per_fsync",
            since("store.wal.appends") / commits.max(1.0),
        );
        let checkpoints = since("store.checkpoints");
        out.set("store.checkpoints", checkpoints);
        let wire_bytes: f64 = logs
            .iter()
            .enumerate()
            .flat_map(|(i, l)| {
                let mine = &frames[i * share..(i + 1) * share];
                l.acks
                    .iter()
                    .zip(mine)
                    .map(|(&n, f)| n as f64 * f.bytes.len() as f64)
            })
            .sum();
        // Checkpoints carry no byte counter; each is costed at the size
        // of the last one, which a bounded universe makes representative.
        out.set(
            "store.wal_bytes_per_wire_byte",
            (after.value("store.wal.bytes")
                + after.value("store.checkpoints") * checkpoint_bytes as f64)
                / wire_bytes.max(1.0),
        );
        out.set("store.dir_bytes_after", dir_bytes as f64);
    }

    let mut tracer = Tracer::new(origin, true);
    for log in logs {
        tracer.absorb(log.tracer);
    }
    layers::ingest_path(&frames, ctx.budget(0.25), &mut tracer, &mut out);
    let journal_us = if durable {
        layers::store_path(ctx, &frames, ctx.budget(0.25), &mut tracer, &mut out)?;
        out.get("store.ingest_always_us_per_frame")
    } else {
        out.get("journal.mem_ingest_ns_per_record") * records / 1e3
    };
    // What the in-process replay of one frame (partition + journal +
    // apply) does not explain of an ack: socket, dispatch, scheduling,
    // and under load the wait behind the other connection.
    out.set("server.unattributed_us", p50_traced - journal_us);
    out.note(format!(
        "attribution: ack p50 {p50_traced:.1} us traced ({p50_untraced:.1} us untraced) = {journal_us:.1} us in-process journal path + {:.1} us unattributed",
        p50_traced - journal_us
    ));
    out.absorb_spans(tracer);
    Ok(out)
}
