//! `serve-mixed`: the same aggregator used for reads beside writes.
//!
//! The daemon is preloaded with a 200 000-edge universe (a snapshot of
//! megabytes, far above the 50 000-edge ingest case), then one
//! connection alternates two cycles:
//!
//! * A: push a 256-record delta → `pull_plan` (cold: snapshot rebuild
//!   + plan build) → `pull` (warm) → `pull_plan` (warm)
//! * B: push → `pull` (cold: snapshot rebuild) → `pull_plan` (plan
//!   build on a cached snapshot)
//!
//! Seal, merge, encode, plan build and the generation caches dominate,
//! so work deferred from ingest to the read boundary shows here as a
//! loss even when `ingest-mem` reads it as a gain.

use crate::daemon::Daemon;
use crate::gen::{self, Frame, SplitMix64};
use crate::layers::{self, SHARDS};
use crate::loopback;
use crate::run::{sliced_rate, Ctx, Error, Outcome};
use crate::stats;
use crate::trace::Tracer;
use cbs_core::profiled::wire::{read_msg, write_msg, OP_PLAN, OP_PULL, ST_OK};
use cbs_core::profiled::{NetConfig, ProfileClient};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const PRELOAD_RECORDS: usize = 4_000;
const DELTA_RECORDS: usize = 256;
const SLICES: usize = 5;

/// Starts a daemon, preloads `preload` and fills both caches.
fn ready_daemon(
    ctx: &Ctx,
    preload: &[Frame],
    out: &mut Outcome,
) -> Result<(Daemon, ProfileClient, f64), Error> {
    let t = Instant::now();
    let daemon = Daemon::spawn(
        &ctx.profiled(),
        &["--shards".to_owned(), SHARDS.to_string()],
    )?;
    let mut client = loopback::connect(daemon.addr())?;
    for (i, f) in preload.iter().enumerate() {
        out.attempted += 1;
        if client.push_seq(7, i as u64 + 1, &f.bytes).is_err() {
            out.failed += 1;
        }
    }
    out.attempted += 2;
    client.pull_plan()?;
    client.pull()?;
    Ok((daemon, client, t.elapsed().as_secs_f64()))
}

/// One raw exchange, for comparing reply *bytes* (the client decodes).
fn raw(stream: &mut TcpStream, op: u8) -> Result<Vec<u8>, Error> {
    write_msg(stream, &[&[op]])?;
    let reply = read_msg(stream, NetConfig::default().max_frame_bytes)?
        .ok_or("daemon closed the connection")?;
    match reply.split_first() {
        Some((&ST_OK, payload)) => Ok(payload.to_vec()),
        _ => Err("daemon answered ST_ERR".into()),
    }
}

#[derive(Default)]
struct Samples {
    /// Completion time of every wire op, ns since origin.
    ends_ns: Vec<u64>,
    fresh_plan_ms: Vec<f64>,
    pull_cold_ms: Vec<f64>,
    pull_warm_ms: Vec<f64>,
    plan_warm_us: Vec<f64>,
    push_us: Vec<f64>,
    lateness_us: Vec<f64>,
}

/// The state one connection's cycles thread through.
struct Cycler<'a> {
    client: ProfileClient,
    deltas: &'a [Frame],
    acks: Vec<u64>,
    seq: u64,
    next: usize,
    expected_weight: f64,
    expected_edges: usize,
    origin: Instant,
    last_reply: Instant,
    tracer: Tracer,
}

impl Cycler<'_> {
    /// Times one client call as one span; a failed call is counted and
    /// yields `None`.
    fn op<T>(
        &mut self,
        name: &'static str,
        record: Option<&mut Samples>,
        out: &mut Outcome,
        call: impl FnOnce(&mut ProfileClient) -> Result<T, cbs_core::profiled::ClientError>,
    ) -> Result<(Option<T>, f64), Error> {
        out.attempted += 1;
        let span = self.tracer.begin(name, self.seq);
        let sent = Instant::now();
        let reply = call(&mut self.client);
        let done = Instant::now();
        self.tracer.end(span);
        if let Some(s) = record {
            s.ends_ns
                .push(done.duration_since(self.origin).as_nanos() as u64);
            s.lateness_us
                .push(sent.duration_since(self.last_reply).as_secs_f64() * 1e6);
        }
        self.last_reply = done;
        let secs = done.duration_since(sent).as_secs_f64();
        match reply {
            Ok(v) => Ok((Some(v), secs)),
            Err(e) => {
                out.failed += 1;
                if self.client.is_poisoned() {
                    return Err(format!("{name}: {e}").into());
                }
                Ok((None, secs))
            }
        }
    }

    fn push(&mut self, mut record: Option<&mut Samples>, out: &mut Outcome) -> Result<(), Error> {
        self.seq += 1;
        let (seq, i, deltas) = (self.seq, self.next, self.deltas);
        let bytes = &deltas[i].bytes;
        let (ack, secs) = self.op("client.push_seq", record.as_deref_mut(), out, |c| {
            c.push_seq(8, seq, bytes)
        })?;
        if ack.is_some() {
            self.acks[i] += 1;
            self.expected_weight += deltas[i].total_weight();
        }
        if let Some(s) = record {
            s.push_us.push(secs * 1e6);
        }
        self.next = (self.next + 1) % self.deltas.len();
        Ok(())
    }

    /// Every pull must carry exactly the weight acknowledged so far
    /// (integral weights make the sum exact) on an unchanged edge set.
    fn check_pull(&self, pulled: &cbs_core::dcg::DynamicCallGraph, out: &mut Outcome) {
        out.check(
            pulled.total_weight() == self.expected_weight
                && pulled.num_edges() == self.expected_edges,
            || {
                format!(
                    "pull after push {}: {} edges of weight {}, expected {} of {}",
                    self.seq,
                    pulled.num_edges(),
                    pulled.total_weight(),
                    self.expected_edges,
                    self.expected_weight
                )
            },
        );
    }

    fn cycle_a(&mut self, mut rec: Option<&mut Samples>, out: &mut Outcome) -> Result<(), Error> {
        let cycle = self.tracer.begin("serve.cycle_a", self.seq + 1);
        self.push(rec.as_deref_mut(), out)?;
        let (cold, cold_s) = self.op("client.pull_plan(cold)", rec.as_deref_mut(), out, |c| {
            c.pull_plan()
        })?;
        let (pulled, warm_pull_s) =
            self.op("client.pull(warm)", rec.as_deref_mut(), out, |c| c.pull())?;
        let (warm, warm_s) = self.op("client.pull_plan(warm)", rec.as_deref_mut(), out, |c| {
            c.pull_plan()
        })?;
        self.tracer.end(cycle);
        if let Some(g) = &pulled {
            self.check_pull(g, out);
        }
        out.check(cold.is_some() && cold == warm, || {
            format!(
                "warm plan after push {} differs from the cold one",
                self.seq
            )
        });
        if let Some(s) = rec {
            s.fresh_plan_ms.push(cold_s * 1e3);
            s.pull_warm_ms.push(warm_pull_s * 1e3);
            s.plan_warm_us.push(warm_s * 1e6);
        }
        Ok(())
    }

    fn cycle_b(&mut self, mut rec: Option<&mut Samples>, out: &mut Outcome) -> Result<(), Error> {
        let cycle = self.tracer.begin("serve.cycle_b", self.seq + 1);
        self.push(rec.as_deref_mut(), out)?;
        let (pulled, cold_s) =
            self.op("client.pull(cold)", rec.as_deref_mut(), out, |c| c.pull())?;
        let (plan, _) = self.op(
            "client.pull_plan(cached snapshot)",
            rec.as_deref_mut(),
            out,
            |c| c.pull_plan(),
        )?;
        self.tracer.end(cycle);
        if let Some(g) = &pulled {
            self.check_pull(g, out);
        }
        out.check(plan.is_some(), || "no plan after a cold pull".to_owned());
        if let Some(s) = rec {
            s.pull_cold_ms.push(cold_s * 1e3);
        }
        Ok(())
    }

    /// Alternates A and B until `end`.
    fn run_until(
        &mut self,
        end: Instant,
        mut rec: Option<&mut Samples>,
        out: &mut Outcome,
    ) -> Result<(), Error> {
        while Instant::now() < end {
            self.cycle_a(rec.as_deref_mut(), out)?;
            self.cycle_b(rec.as_deref_mut(), out)?;
        }
        Ok(())
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    let mut rng = SplitMix64::new(ctx.seed);
    let universe = gen::universe(&mut rng, ctx.sized(200_000, 20_000));
    let preload = gen::covering_frames(&mut rng, &universe, PRELOAD_RECORDS);
    let deltas = gen::skewed_frames(&mut rng, &universe, ctx.sized(64, 8), DELTA_RECORDS);

    let setups = ctx.sized(5, 2);
    let mut setup_times = Vec::with_capacity(setups);
    let (daemon, client) = loop {
        let (daemon, client, took) = ready_daemon(ctx, &preload, &mut out)?;
        setup_times.push(took);
        if setup_times.len() == setups {
            break (daemon, client);
        }
        daemon.kill();
    };

    let origin = Instant::now();
    let mut cycler = Cycler {
        client,
        deltas: &deltas,
        acks: vec![0; deltas.len()],
        seq: 0,
        next: 0,
        expected_weight: preload.iter().map(Frame::total_weight).sum(),
        expected_edges: universe.len(),
        origin,
        last_reply: origin,
        tracer: Tracer::new(origin, false),
    };
    let warm = Duration::from_secs_f64(if ctx.smoke { 0.2 } else { 1.0 });
    cycler.run_until(origin + warm, None, &mut out)?;

    // (Control connections are opened where they are used: an idle one
    // would hit the server's 10 s read timeout during the window.)
    let before = if ctx.trace {
        Some(loopback::scrape(&mut loopback::connect(daemon.addr())?)?)
    } else {
        None
    };
    let (mut untraced, mut traced) = (Samples::default(), Samples::default());
    let window = ctx.budget(if ctx.trace { 0.3 } else { 1.0 });
    let cpu_before = daemon.cpu_seconds(ctx.ticks);
    let start = Instant::now();
    cycler.run_until(start + window, Some(&mut untraced), &mut out)?;
    let end = Instant::now();
    let cpu_after = daemon.cpu_seconds(ctx.ticks);
    if ctx.trace {
        cycler.tracer.set_enabled(true);
        cycler.run_until(end + window, Some(&mut traced), &mut out)?;
        cycler.tracer.set_enabled(false);
    }

    // -- correctness ---------------------------------------------------
    // The final aggregate equals the reference fold, and two replies
    // at one generation are the same bytes.
    let reference = gen::reference_graph(
        preload
            .iter()
            .map(|f| (f, 1))
            .chain(deltas.iter().zip(cycler.acks.iter().copied())),
    );
    out.attempted += 1;
    let pulled = cycler.client.pull()?;
    out.check(pulled == reference, || {
        "the final pull differs from the reference fold of the acked frames".to_owned()
    });
    let mut stream = TcpStream::connect(daemon.addr())?;
    stream.set_nodelay(true)?;
    for (op, what) in [(OP_PULL, "pull"), (OP_PLAN, "plan")] {
        out.attempted += 2;
        let (first, second) = (raw(&mut stream, op)?, raw(&mut stream, op)?);
        out.check(first == second, || {
            format!("two warm {what} replies at one generation are not byte-identical")
        });
    }
    drop(stream);
    let mut control = loopback::connect(daemon.addr())?;
    let after = if ctx.trace {
        Some(loopback::scrape(&mut control)?)
    } else {
        None
    };

    let ns = |t: Instant| t.duration_since(origin).as_nanos() as u64;
    if !ctx.trace {
        out.set(
            "work_per_s",
            sliced_rate(
                &untraced.ends_ns,
                ns(start),
                ns(start + window),
                SLICES,
                1.0,
            ),
        );
        out.set("op_p50_us", stats::median(&untraced.fresh_plan_ms) * 1e3);
        out.set(
            "cpu_ns_per_work",
            (cpu_after - cpu_before) * 1e9 / untraced.ends_ns.len().max(1) as f64,
        );
        out.set("peak_rss_mb", daemon.peak_rss_mb());
        out.set("setup_s", stats::median(&setup_times));
        out.note(format!(
            "{} wire ops in {} A+B cycle pairs on {} edges; set-ups {:?} s",
            untraced.ends_ns.len(),
            untraced.pull_cold_ms.len(),
            universe.len(),
            setup_times
        ));
        return Ok(out);
    }

    out.set_timing(
        "fresh_plan_p50_ms",
        "fresh_plan_tail_ms",
        "ms",
        &traced.fresh_plan_ms,
    );
    out.set_timing(
        "pull_cold_p50_ms",
        "pull_cold_tail_ms",
        "ms",
        &traced.pull_cold_ms,
    );
    out.set_timing(
        "pull_warm_p50_ms",
        "pull_warm_tail_ms",
        "ms",
        &traced.pull_warm_ms,
    );
    out.set_timing(
        "plan_warm_p50_us",
        "plan_warm_tail_us",
        "us",
        &traced.plan_warm_us,
    );
    out.set_timing("push_ack_p50_us", "push_ack_tail_us", "us", &traced.push_us);
    let fresh_traced = stats::median(&traced.fresh_plan_ms);
    let fresh_untraced = stats::median(&untraced.fresh_plan_ms);
    out.set(
        "trace_overhead_pct",
        (fresh_traced / fresh_untraced.max(f64::MIN_POSITIVE) - 1.0) * 100.0,
    );
    out.set("generator_lateness_us", stats::median(&traced.lateness_us));
    out.set(
        "wire.roundtrip_us",
        loopback::ping_p50_us(&mut control, ctx.sized(500, 50))?,
    );
    let (before, after) = (before.expect("scraped"), after.expect("scraped"));
    let since = |name: &str| after.delta(&before, name);
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    out.set(
        "aggregator.snapshot_cache_hit_ratio",
        ratio(
            since("profiled.agg.cache_hits"),
            since("profiled.agg.cache_misses"),
        ),
    );
    out.set(
        "aggregator.plan_cache_hit_ratio",
        ratio(
            since("profiled.plan.cache_hits"),
            since("profiled.plan.cache_misses"),
        ),
    );
    loopback::set_server_metrics(&before, &after, &mut out);
    drop(control);
    daemon.kill();

    let mut tracer = std::mem::replace(&mut cycler.tracer, Tracer::disabled());
    layers::serve_path(&preload, &deltas, ctx.budget(0.4), &mut tracer, &mut out);
    // A fresh plan is a snapshot rebuild, a plan build and the client's
    // decode; the rest is socket, dispatch and scheduling.
    let explained_ms = out.get("aggregator.snapshot_rebuild_ms")
        + out.get("aggregator.plan_build_ms")
        + out.get("codec.decode_plan_us") / 1e3;
    out.set(
        "server.unattributed_us",
        (fresh_traced - explained_ms) * 1e3,
    );
    out.note(format!(
        "attribution: fresh plan p50 {fresh_traced:.2} ms traced ({fresh_untraced:.2} ms untraced) = {explained_ms:.2} ms rebuild + plan build + decode in-process + {:.2} ms unattributed",
        fresh_traced - explained_ms
    ));
    out.absorb_spans(tracer);
    Ok(out)
}
