//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cbs-benchmark --root <checkout> --bin-dir <dir with profiled, repro>
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's form)
//!     [--seed <n>] [--seconds <s>]                                every workload, both passes
//!     --smoke                                                     the same, about a second each
//!     --repeat-check [--sets <n>]                                 n full untraced sets, compared
//!     --emit-benchmark-json                                       print BENCHMARK.json
//! ```
//!
//! One run prints every metric by name with its unit, then — as the
//! last line of stdout — the result object the driver reads. It exits
//! 0 when every output was correct, 1 when a check failed (the result
//! line says `"correct": false`), 2 when the run could not be made.

mod daemon;
mod fleet;
mod gen;
mod ingest;
mod layers;
mod loopback;
mod procfs;
mod run;
mod scrape;
mod serve;
mod spec;
mod stats;
mod trace;
mod vm;

use run::{Ctx, Error, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

#[derive(Debug, Default)]
struct Args {
    root: Option<PathBuf>,
    bin_dir: Option<PathBuf>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeat_check: bool,
    sets: usize,
    emit: bool,
}

fn parse_args() -> Result<Args, Error> {
    let mut a = Args {
        sets: 2,
        ..Args::default()
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--root" => a.root = Some(value()?.into()),
            "--bin-dir" => a.bin_dir = Some(value()?.into()),
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = Some(value()?.parse()?),
            "--seconds" => a.seconds = Some(value()?.parse()?),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`").into()),
                }
            }
            "--sets" => a.sets = value()?.parse()?,
            "--smoke" => a.smoke = true,
            "--repeat-check" => a.repeat_check = true,
            "--emit-benchmark-json" => a.emit = true,
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }
    if a.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if a.sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    Ok(a)
}

fn run_workload(ctx: &Ctx, name: &str) -> Result<Outcome, Error> {
    match name {
        "ingest-mem" => ingest::run(ctx, false),
        "ingest-durable" => ingest::run(ctx, true),
        "serve-mixed" => serve::run(ctx),
        "vm-suite" => vm::run(ctx),
        "fleet-loop" => fleet::run(ctx),
        other => Err(format!(
            "unknown workload `{other}` (one of: {})",
            spec::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
                .join(", ")
        )
        .into()),
    }
}

/// The names and units this pass reports, in print order.
fn reported(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        spec::per_layer()
            .into_iter()
            .map(|m| (m.name, m.unit))
            .collect()
    } else {
        spec::END_TO_END
            .iter()
            .map(|m| (m.name.to_owned(), m.unit))
            .collect()
    }
}

/// A number as measured, with all its digits; JSON has no NaN or inf.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// One run in the driver's form: human-readable lines, then the result
/// object as the last line.
fn single(ctx: &Ctx, name: &str) -> Result<ExitCode, Error> {
    let mut out = run_workload(ctx, name)?;
    if ctx.trace {
        out.set(
            "failed_ops_share",
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        let path = ctx.out.join(format!("trace-{name}.json"));
        trace::write_json(&path, name, &out.spans)?;
        for (span, t) in trace::self_times(&out.spans) {
            println!(
                "span {span}: {} calls, self {:.3} ms, total {:.3} ms",
                t.count,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / 1e6
            );
        }
        println!(
            "note {} spans written to {}",
            out.spans.len(),
            path.display()
        );
    }
    for n in &out.notes {
        println!("note {n}");
    }
    for v in &out.violations {
        println!("violation {v}");
    }
    if !ctx.trace {
        // An end-to-end metric is never absent and never zero.
        for m in spec::END_TO_END {
            let v = out.get(m.name);
            out.check(v.is_finite() && v > 0.0, || {
                format!("{} = {v} is not a positive measurement", m.name)
            });
        }
    }
    let mut fields = Vec::new();
    for (metric, unit) in reported(ctx.trace) {
        let v = out.get(&metric);
        println!("metric {metric} {} {unit}", json_number(v));
        fields.push(format!(
            "\"{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// What the parent keeps of a child run.
struct ChildResult {
    metrics: BTreeMap<String, f64>,
    correct: bool,
}

/// Runs one (workload, pass) in a child process — each run gets a
/// fresh address space (so `peak_rss_mb` of `vm-suite` is its own) and
/// a fresh telemetry registry — echoing its output.
fn child(ctx: &Ctx, name: &str, seed: u64, trace: bool) -> Result<ChildResult, Error> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.arg("--root")
        .arg(&ctx.root)
        .arg("--bin-dir")
        .arg(&ctx.bin_dir)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if ctx.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.stderr(Stdio::inherit()).output()?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut metrics = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("metric") => {
                if let (Some(n), Some(v), Some(unit)) = (parts.next(), parts.next(), parts.next()) {
                    println!("  {n:<44} {v:>22} {unit}");
                    metrics.insert(n.to_owned(), v.parse()?);
                }
            }
            Some("note" | "violation" | "span") => println!("  {line}"),
            _ => {}
        }
    }
    match output.status.code() {
        Some(0) => Ok(ChildResult {
            metrics,
            correct: true,
        }),
        Some(1) => Ok(ChildResult {
            metrics,
            correct: false,
        }),
        _ => Err(format!("{name} (trace {}) could not run", u8::from(trace)).into()),
    }
}

/// Every workload, untraced then traced.
fn all(ctx: &Ctx) -> Result<ExitCode, Error> {
    let mut correct = true;
    for w in spec::WORKLOADS {
        for trace in [false, true] {
            println!(
                "== {} ({}) ==",
                w.name,
                if trace {
                    "traced pass: per-layer"
                } else {
                    "untraced pass: end-to-end"
                }
            );
            correct &= child(ctx, w.name, ctx.seed, trace)?.correct;
        }
    }
    println!(
        "{}",
        if correct {
            "all correctness checks passed, failed_ops_share = 0"
        } else {
            "FAILED: a correctness check did not hold (see `violation` lines)"
        }
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// How much worse `b` reads than `a`, as a share of `a`.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    match better {
        "higher" => (a - b) / a,
        _ => (b - a) / a,
    }
}

/// `sets` full untraced sets, interleaved round-robin across workloads
/// so host drift hits all alike, each set on its own seed. Two sets
/// must agree on every end-to-end metric within its bound (either
/// direction); four or more must keep the quartile spread the driver
/// computes within the bound (`setup_s` is exempt from the spread rule,
/// as it is for the driver).
fn repeat_check(ctx: &Ctx, sets: usize) -> Result<ExitCode, Error> {
    let mut runs: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for set in 0..sets {
        for w in spec::WORKLOADS {
            println!("== set {} of {sets}: {} ==", set + 1, w.name);
            let r = child(ctx, w.name, ctx.seed + set as u64, false)?;
            ok &= r.correct;
            for m in spec::END_TO_END {
                let v = r.metrics.get(m.name).copied().ok_or("metric missing")?;
                runs.entry((w.name, m.name)).or_default().push(v);
            }
        }
    }
    println!("== agreement ==");
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let v = &runs[&(w.name, m.name)];
            let (verdict, measured) = if sets >= 4 {
                let spread = stats::quartile_spread(v);
                let halves = v.split_at(v.len() / 2);
                let drift = worse_by(stats::median(halves.0), stats::median(halves.1), m.better);
                (
                    (m.name == "setup_s" || spread <= m.bound) && drift <= m.bound,
                    format!(
                        "quartile spread {:.1}%, second half worse by {:.1}%",
                        spread * 100.0,
                        drift * 100.0
                    ),
                )
            } else {
                let gap = worse_by(v[0], v[1], m.better).max(worse_by(v[1], v[0], m.better));
                (gap <= m.bound, format!("differ by {:.1}%", gap * 100.0))
            };
            ok &= verdict;
            println!(
                "{:<15} {:<16} median {:>16.4} {:<4} {measured} (bound {:.0}%) {}",
                w.name,
                m.name,
                stats::median(v),
                m.unit,
                m.bound * 100.0,
                if verdict { "ok" } else { "OUTSIDE ITS BOUND" }
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn real_main() -> Result<ExitCode, Error> {
    let args = parse_args()?;
    if args.emit {
        print!("{}", spec::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let root = args.root.ok_or("--root is required")?;
    let out = root.join("benchmark").join("out");
    std::fs::create_dir_all(&out)?;
    let ctx = Ctx {
        bin_dir: args.bin_dir.ok_or("--bin-dir is required")?,
        out,
        root,
        seed: args.seed.unwrap_or(spec::DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke {
            1.0
        } else {
            spec::RUN_SECONDS as f64
        }),
        trace: args.trace,
        smoke: args.smoke,
        ticks: procfs::ticks_per_second(),
    };
    if !ctx.profiled().exists() {
        return Err(format!("{} is missing: build it first", ctx.profiled().display()).into());
    }
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    if cores < 2 {
        return Err("the load shape needs at least 2 cores (2 connections + the daemon)".into());
    }
    match &args.workload {
        Some(name) => single(&ctx, name),
        None if args.repeat_check => repeat_check(&ctx, args.sets),
        None => all(&ctx),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("cbs-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
