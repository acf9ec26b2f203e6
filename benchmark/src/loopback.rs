//! The closed-loop push driver and the small wire helpers the daemon
//! workloads share.
//!
//! Closed loop on purpose: a VM's flush waits for its ack before the
//! next one is sent, so a slower daemon receives less load instead of
//! growing a queue. Latency is therefore timed from send to ack, and
//! the generator's own time between an ack and the next send is
//! reported as `generator_lateness_us`.

use crate::gen::Frame;
use crate::run::{Error, Outcome};
use crate::scrape::Scrape;
use crate::trace::Tracer;
use cbs_core::profiled::{NetConfig, ProfileClient, PushOutcome};
use std::time::Instant;

pub fn connect(addr: &str) -> Result<ProfileClient, Error> {
    Ok(ProfileClient::connect(addr, NetConfig::default())?)
}

pub fn scrape(client: &mut ProfileClient) -> Result<Scrape, Error> {
    Ok(Scrape::parse(&client.metrics_text()?))
}

/// Median round trip of `n` `OP_STATS` pings, in microseconds: what
/// the wire and the server's dispatch cost with no payload to speak of.
pub fn ping_p50_us(client: &mut ProfileClient, n: usize) -> Result<f64, Error> {
    let mut us = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        client.stats_text()?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(crate::stats::median(&us))
}

/// The daemon-side counters every loopback workload reports, from the
/// `OP_METRICS` scrapes taken before and after its windows.
pub fn set_server_metrics(before: &Scrape, after: &Scrape, out: &mut Outcome) {
    out.set(
        "server.handler_p50_us",
        after.histogram_p50_since(before, "profiled.server.handler_latency_us"),
    );
    for (metric, counter) in [
        ("server.err_replies", "profiled.server.err_replies"),
        ("server.busy_refusals", "profiled.server.busy_refusals"),
        ("server.bad_frames", "profiled.server.bad_frames"),
        ("dedup.hits", "profiled.server.dedup_hits"),
    ] {
        out.set(metric, after.delta(before, counter));
    }
    out.set("aggregator.edges", after.value("profiled.agg.edges"));
}

/// One stretch of a connection's life: push until `end`; keep samples
/// only when `record`, spans only when `traced`.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    pub end: Instant,
    pub record: bool,
    pub traced: bool,
}

#[derive(Debug, Default, Clone)]
pub struct PhaseSamples {
    /// Ack arrival, nanoseconds since the run's origin.
    pub ends_ns: Vec<u64>,
    /// Send to ack.
    pub latency_us: Vec<f64>,
    /// Previous ack to this send: the generator's own time.
    pub lateness_us: Vec<f64>,
}

#[derive(Debug)]
pub struct PushLog {
    /// How often each frame was acknowledged `applied`.
    pub acks: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged `duplicate`: never expected, sequences only rise.
    pub duplicates: u64,
    pub phases: Vec<PhaseSamples>,
    pub tracer: Tracer,
}

/// Pushes `frames` round-robin with `OP_PUSH_SEQ` through `phases`,
/// one frame in flight. Stops early only when the client poisons
/// itself (every further exchange would fail).
pub fn drive_pushes(
    client: &mut ProfileClient,
    client_id: u64,
    frames: &[Frame],
    phases: &[Phase],
    origin: Instant,
) -> PushLog {
    let mut log = PushLog {
        acks: vec![0; frames.len()],
        attempted: 0,
        failed: 0,
        duplicates: 0,
        phases: vec![PhaseSamples::default(); phases.len()],
        tracer: Tracer::new(origin, false),
    };
    let mut seq = 0u64;
    let mut next = 0usize;
    let mut last_ack = Instant::now();
    'phases: for (phase, samples) in phases.iter().zip(&mut log.phases) {
        log.tracer.set_enabled(phase.traced);
        while Instant::now() < phase.end {
            seq += 1;
            let frame = &frames[next];
            log.attempted += 1;
            let span = log.tracer.begin("client.push_seq", (client_id << 40) | seq);
            let sent = Instant::now();
            let reply = client.push_seq(client_id, seq, &frame.bytes);
            let acked = Instant::now();
            log.tracer.end(span);
            match reply {
                Ok(PushOutcome::Applied) => log.acks[next] += 1,
                Ok(PushOutcome::Duplicate) => log.duplicates += 1,
                Err(_) => {
                    log.failed += 1;
                    if client.is_poisoned() {
                        break 'phases;
                    }
                }
            }
            if phase.record {
                samples
                    .ends_ns
                    .push(acked.duration_since(origin).as_nanos() as u64);
                samples
                    .latency_us
                    .push(acked.duration_since(sent).as_secs_f64() * 1e6);
                samples
                    .lateness_us
                    .push(sent.duration_since(last_ack).as_secs_f64() * 1e6);
            }
            last_ack = acked;
            next = (next + 1) % frames.len();
        }
    }
    log
}
