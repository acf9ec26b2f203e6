//! `fleet-loop`: `repro fleet-optimize` at scale 1.0 — the paper's
//! collect→exploit loop through `core`, `adaptive`, the client, TCP,
//! `inliner` and `opt`, as the researcher rerunning it sees it.
//!
//! Its stdout must equal `repro_fleet_optimize_output.txt` byte for
//! byte. (`repro all` is not used: it takes over a minute and its pin
//! is ungated.)

use crate::procfs;
use crate::run::{median_secs, Ctx, Error, Outcome};
use crate::stats;
use crate::trace::Tracer;
use cbs_core::adaptive::AdaptiveConfig;
use cbs_core::dcg::{CallEdge, DynamicCallGraph};
use cbs_core::experiments::fleet_optimize_with;
use cbs_core::inliner::{apply_plan, build_plan, InlinePlan, InlinePolicy};
use cbs_core::opt::Optimizer;
use cbs_core::parallel::Parallelism;
use cbs_core::prelude::*;
use cbs_core::profiled::{
    serve, AggregatorConfig, DcgCodec, NetConfig, ResilientClient, RetryPolicy, ShardedAggregator,
};
use cbs_core::profiler::CallGraphProfiler;
use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const PIN: &str = "repro_fleet_optimize_output.txt";
/// Scale of the set-up loop (and of everything under `--smoke`).
const SMALL_SCALE: &str = "0.05";

/// Kills and reaps the child if the benchmark unwinds mid-run.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

struct ChildRun {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    success: bool,
    stdout: Vec<u8>,
}

/// Runs `repro <args>` to completion, watching `/proc/<pid>` from
/// outside. A reader thread owns the stdout pipe; its end-of-file is
/// the exit, so wall time does not depend on how often `/proc` is
/// polled (polling every 2 ms slowed the loop by a tenth on this
/// two-core host). Peak RSS is the last `VmHWM` seen while the process
/// still had an address space; CPU time is read once it is a zombie —
/// final, and still there because nothing has reaped it yet.
fn run_repro(ctx: &Ctx, args: &[&str]) -> Result<ChildRun, Error> {
    let started = Instant::now();
    let mut child = Reaped(
        Command::new(ctx.repro())
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?,
    );
    let pid = child.0.id();
    let mut pipe = child.0.stdout.take().expect("stdout was piped");
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let read = pipe.read_to_end(&mut bytes).map(|_| bytes);
        let _ = tx.send((read, Instant::now()));
    });
    let mut peak_rss_mb = 0.0;
    let (stdout, ended) = loop {
        match rx.recv_timeout(Duration::from_millis(20)) {
            Ok((read, ended)) => break (read?, ended),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if let Some(mb) = procfs::peak_rss_mb(pid) {
                    peak_rss_mb = mb;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Err("the stdout reader thread died".into())
            }
        }
    };
    reader
        .join()
        .map_err(|_| "the stdout reader thread panicked")?;
    // The pipe closes a moment before the process finishes exiting.
    let cpu_s = loop {
        match procfs::read_stat(pid) {
            Some(stat) if stat.state != 'Z' => std::thread::sleep(Duration::from_millis(1)),
            Some(stat) => break (stat.utime_ticks + stat.stime_ticks) as f64 / ctx.ticks,
            None => break 0.0,
        }
    };
    let status = child.0.wait()?;
    Ok(ChildRun {
        wall_s: ended.duration_since(started).as_secs_f64(),
        cpu_s,
        peak_rss_mb,
        success: status.success(),
        stdout,
    })
}

fn untraced(ctx: &Ctx, out: &mut Outcome) -> Result<(), Error> {
    // No persistent state to set up: `setup_s` is one small-scale loop
    // (process start, workload generation, 13 daemon binds), the part
    // of a loop that does not scale with the programs' run length.
    let mut setup_times = Vec::new();
    for _ in 0..ctx.sized(3, 1) {
        out.attempted += 1;
        let r = run_repro(
            ctx,
            &["--scale", SMALL_SCALE, "--jobs", "1", "fleet-optimize"],
        )?;
        if !r.success {
            out.failed += 1;
        }
        setup_times.push(r.wall_s);
    }

    let pin = std::fs::read(ctx.root.join(PIN))?;
    let mut loops: Vec<ChildRun> = Vec::new();
    let started = Instant::now();
    while loops.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds {
        out.attempted += 1;
        let r = run_repro(ctx, &["--jobs", "1", "fleet-optimize"])?;
        if !r.success {
            out.failed += 1;
        }
        out.check(r.stdout == pin, || {
            format!("loop {}: stdout differs from {PIN}", loops.len())
        });
        loops.push(r);
    }

    let of = |f: fn(&ChildRun) -> f64| stats::median(&loops.iter().map(f).collect::<Vec<_>>());
    let loop_s = of(|r| r.wall_s);
    out.set("work_per_s", 1.0 / loop_s);
    out.set("op_p50_us", loop_s * 1e6);
    out.set("cpu_ns_per_work", of(|r| r.cpu_s) * 1e9);
    out.set("peak_rss_mb", of(|r| r.peak_rss_mb));
    out.set("setup_s", stats::median(&setup_times));
    out.note(format!(
        "{} loops of {:?} s; set-ups {setup_times:?} s",
        loops.len(),
        loops.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    ));
    Ok(())
}

/// One program's CBS(3,16) profile, the input every exploit-side
/// layer consumes.
fn cbs_profile(program: &Program) -> Result<DynamicCallGraph, Error> {
    let mut p = CounterBasedSampler::new(CbsConfig::new(3, 16));
    Vm::new(program, VmConfig::default()).run_with(&mut p)?;
    Ok(p.take_dcg())
}

fn traced(ctx: &Ctx, out: &mut Outcome) -> Result<(), Error> {
    let mut tracer = Tracer::new(Instant::now(), true);
    let scale: f64 = if ctx.smoke {
        SMALL_SCALE.parse().expect("a number")
    } else {
        1.0
    };
    let fused_before = crate::vm::fused_counters();

    // The whole loop in-process: what `repro` runs, minus the process.
    out.attempted += 1;
    let t = Instant::now();
    let span = tracer.begin("core.fleet_optimize_with", 0);
    let report = fleet_optimize_with(scale, Parallelism::SERIAL)?;
    tracer.end(span);
    out.set("core.fleet_optimize_inproc_s", t.elapsed().as_secs_f64());
    if !ctx.smoke {
        let pin = std::fs::read_to_string(ctx.root.join(PIN))?;
        out.check(pin.starts_with(&format!("{}\n", report.render())), || {
            format!("the in-process render differs from the table in {PIN}")
        });
    }
    out.check(
        report.fleet_wins() && report.all_results_preserved(),
        || "the fleet plan lost to a single-VM plan or changed a result".to_owned(),
    );
    out.set(
        "vm.fused_run_share",
        crate::vm::fused_run_share(fused_before),
    );

    // The layers of one loop, each over all 13 programs.
    let each = ctx.budget(0.05);
    let specs: Vec<_> = Benchmark::all()
        .iter()
        .map(|b| b.spec(InputSize::Small).scaled(scale))
        .collect();
    let mut programs = Vec::new();
    let build = median_secs(each, 2, |i| {
        let t = Instant::now();
        programs = tracer.span("workloads.generator.build x13", i as u64, || {
            specs
                .iter()
                .map(|s| cbs_core::workloads::generator::build(s).expect("suite builds"))
                .collect::<Vec<_>>()
        });
        t.elapsed()
    });
    out.set("workloads.build_ms", build * 1e3);
    let profiles = programs
        .iter()
        .map(cbs_profile)
        .collect::<Result<Vec<_>, _>>()?;

    let config = AdaptiveConfig::default();
    let policy = &config.inline_policy as &dyn InlinePolicy;
    let mut plans: Vec<InlinePlan> = Vec::new();
    let plan = median_secs(each, 3, |i| {
        let t = Instant::now();
        plans = tracer.span("inliner.build_plan x13", i as u64, || {
            profiles.iter().map(|g| build_plan(g, policy, 1)).collect()
        });
        t.elapsed()
    });
    out.set("inliner.build_plan_ms", plan * 1e3);

    let mut inlined = Vec::new();
    let apply = median_secs(each, 3, |i| {
        let mut fresh = programs.clone();
        let t = Instant::now();
        tracer.span("inliner.apply_plan x13", i as u64, || {
            for (program, plan) in fresh.iter_mut().zip(&plans) {
                black_box(apply_plan(
                    program,
                    plan,
                    policy,
                    &config.inline_budget,
                    false,
                ));
            }
        });
        let took = t.elapsed();
        inlined = fresh;
        took
    });
    out.set("inliner.apply_plan_ms", apply * 1e3);

    let optimizer = Optimizer::new();
    let opt = median_secs(each, 3, |i| {
        let mut fresh = inlined.clone();
        let t = Instant::now();
        tracer.span("opt.optimize_program x13", i as u64, || {
            for program in &mut fresh {
                black_box(optimizer.optimize_program(program));
            }
        });
        t.elapsed()
    });
    out.set("opt.pipeline_ms", opt * 1e3);

    // The collect side's transport: each profile pushed as one delta
    // through the resilient client (encode + OP_PUSH_SEQ round trip)
    // to an in-process server, as the experiment does.
    let increments: Vec<Vec<(CallEdge, f64)>> = profiles
        .iter()
        .map(|g| g.iter().map(|(e, w)| (*e, w)).collect())
        .collect();
    let records: usize = increments.iter().map(Vec::len).sum();
    let encode = median_secs(each, 3, |i| {
        let t = Instant::now();
        tracer.span("codec.encode_delta x13", i as u64, || {
            for inc in &increments {
                black_box(DcgCodec::encode_delta(inc));
            }
        });
        t.elapsed()
    });
    out.set(
        "codec.encode_ns_per_record",
        encode * 1e9 / records.max(1) as f64,
    );

    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
    let server = serve("127.0.0.1:0", agg, NetConfig::default())?;
    let mut client = ResilientClient::connect_tcp(
        server.addr().to_string(),
        NetConfig::default(),
        RetryPolicy::default(),
        1,
    );
    let mut push_us = Vec::new();
    let started = Instant::now();
    let mut round = 0u64;
    while push_us.len() < 3 * increments.len() || started.elapsed() < each {
        for inc in &increments {
            out.attempted += 1;
            let span = tracer.begin("resilient.push_delta", round);
            let t = Instant::now();
            if client.push_delta(inc.clone()).is_err() {
                out.failed += 1;
            }
            push_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
        }
        round += 1;
    }
    let transport = client.stats();
    drop(client);
    server.shutdown();
    out.set("client.push_seq_us", stats::median(&push_us));
    out.set("resilient.retries", transport.retries as f64);
    out.set("resilient.reconnects", transport.reconnects as f64);
    out.check(transport.retries == 0 && transport.reconnects == 0, || {
        format!("a fault-free loopback needed {transport:?}")
    });
    // The loop itself runs in a child process the benchmark does not
    // instrument, so tracing costs it nothing.
    out.set("trace_overhead_pct", 0.0);
    out.absorb_spans(tracer);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Error> {
    let mut out = Outcome::default();
    for bin in [ctx.repro(), ctx.root.join(PIN)] {
        if !Path::new(&bin).exists() {
            return Err(format!("{} is missing", bin.display()).into());
        }
    }
    if ctx.trace {
        traced(ctx, &mut out)?;
    } else {
        untraced(ctx, &mut out)?;
    }
    Ok(out)
}
