//! Regenerates every table and figure of Arnold & Grove (CGO 2005).
//!
//! ```text
//! repro [--scale <f64>] [--jobs <n|auto>] [artifact...]
//!
//! artifacts: table1 table2a table2b table3 figure1 figure5-jikes
//!            figure5-j9 inliner-ablation exhaustive-overhead patching
//!            frequency-sweep hardware context inline-depth shapes
//!            fleet fleet-optimize all (default; excludes the fleet
//!            artifacts)
//! ```
//!
//! `--scale 1.0` (default) runs benchmarks at the paper's running times
//! on the simulated clock; smaller scales give quicker, noisier versions.
//! `--jobs` shards each experiment's cells across worker threads; the
//! rendered artifacts are byte-identical for every value (serial
//! reduction order is preserved — see `cbs_core::parallel`).
//! `table1`, `table2a`, `table2b`, `table3` and `shapes` render from one
//! pass over the suite however many of them are asked for
//! (`cbs_core::experiments::suite_renders`).

use cbs_core::experiments::{
    context_sensitivity_with, exhaustive_overhead_with, figure1_demo, figure5_with,
    fleet_faults_with, fleet_optimize_with, fleet_with, frequency_sweep, hardware_vs_cbs_with,
    inline_depth_ablation_with, inliner_ablation_with, patching_vs_cbs_with, suite_renders,
    SuiteExperiment,
};
use cbs_core::parallel::Parallelism;
use cbs_core::vm::VmFlavor;
use std::process::ExitCode;

/// The artifacts `all` renders, in the order it prints them.
const ALL: [&str; 15] = [
    "table1",
    "table2a",
    "table2b",
    "table3",
    "figure1",
    "figure5-jikes",
    "figure5-j9",
    "inliner-ablation",
    "exhaustive-overhead",
    "patching",
    "frequency-sweep",
    "hardware",
    "context",
    "inline-depth",
    "shapes",
];
/// The artifacts rendered only when named.
const FLEET: [&str; 2] = ["fleet", "fleet-optimize"];

/// The experiment an artifact names, if the suite pass renders it.
fn suite_experiment(artifact: &str) -> Option<SuiteExperiment> {
    Some(match artifact {
        "table1" => SuiteExperiment::Table1,
        "table2a" => SuiteExperiment::Table2A,
        "table2b" => SuiteExperiment::Table2B,
        "table3" => SuiteExperiment::Table3,
        "shapes" => SuiteExperiment::Shapes,
        _ => return None,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut jobs = Parallelism::SERIAL;
    let mut faults = false;
    let mut seed = 0xCB5u64;
    let mut artifacts: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => faults = true,
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => {
                    eprintln!("--seed requires an unsigned integer");
                    return ExitCode::FAILURE;
                }
            },
            "--scale" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => scale = v,
                None => {
                    eprintln!("--scale requires a number");
                    return ExitCode::FAILURE;
                }
            },
            "--jobs" | "-j" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => jobs = v,
                Some(Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
                None => {
                    eprintln!("--jobs requires a positive integer or `auto`");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale <f64>] [--jobs <n|auto>] [--faults] [--seed <u64>] \
                     [{}|all]\n\
                     --faults (fleet only): stream profiles through a deterministic \
                     fault-injecting transport seeded by --seed",
                    [&ALL[..], &FLEET].concat().join("|")
                );
                return ExitCode::SUCCESS;
            }
            "all" => artifacts.extend(ALL),
            other if ALL.contains(&other) || FLEET.contains(&other) => artifacts.push(other),
            other => {
                eprintln!("{other}: unknown artifact `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    if artifacts.is_empty() {
        artifacts.extend(ALL);
    }

    // One pass over the suite renders every suite artifact asked for,
    // when the first of them is reached.
    let suite: Vec<SuiteExperiment> = artifacts
        .iter()
        .filter_map(|a| suite_experiment(a))
        .collect();
    let mut suite_texts = None;
    for a in artifacts {
        let text = match suite_experiment(a) {
            Some(_) => suite_texts
                .get_or_insert_with(|| suite_renders(scale, jobs, &suite).map(Vec::into_iter))
                .as_mut()
                .map(|texts| texts.next().expect("one render per suite artifact"))
                .map_err(|e| e.to_string().into()),
            None => run(a, scale, jobs, faults, seed),
        };
        match text {
            Ok(text) => println!("{text}"),
            Err(e) => {
                eprintln!("{a}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Renders one artifact the suite pass does not.
fn run(
    artifact: &str,
    scale: f64,
    jobs: Parallelism,
    faults: bool,
    seed: u64,
) -> Result<String, Box<dyn std::error::Error>> {
    Ok(match artifact {
        "figure1" => figure1_demo(200, 100_000)?.render(),
        "figure5-jikes" => figure5_with(VmFlavor::Jikes, scale, None, jobs)?.render(),
        "figure5-j9" => figure5_with(VmFlavor::J9, scale, None, jobs)?.render(),
        "inliner-ablation" => inliner_ablation_with(scale, None, jobs)?.render(),
        "exhaustive-overhead" => exhaustive_overhead_with(scale, None, jobs)?.render(),
        "patching" => patching_vs_cbs_with(scale, None, jobs)?.render(),
        "frequency-sweep" => frequency_sweep()?.render(),
        "hardware" => hardware_vs_cbs_with(scale, None, jobs)?.render(),
        "context" => context_sensitivity_with(scale, None, jobs)?.render(),
        "inline-depth" => inline_depth_ablation_with(scale, None, jobs)?.render(),
        // Not part of `all`: the fleet artifacts postdate the pinned
        // repro_output.txt and are requested explicitly. Each prints its
        // deterministic telemetry *next to* the render, never inside it:
        // the render stays bit-identical with telemetry on or off, and
        // across job counts.
        "fleet" | "fleet-optimize" => {
            let telemetry_base = cbs_core::telemetry::global().snapshot();
            let render = match artifact {
                "fleet" if faults => fleet_faults_with(scale, jobs, seed)?.render(),
                "fleet" => fleet_with(scale, jobs)?.render(),
                _ => fleet_optimize_with(scale, jobs)?.render(),
            };
            // Deterministic counters only: wall-clock histograms and
            // scrape-time gauges are excluded, so this block is identical
            // across reruns (counters are additive, hence jobs-invariant).
            let delta = cbs_core::telemetry::global()
                .delta_since(&telemetry_base)
                .deterministic()
                .without_gauges()
                .nonzero();
            let telemetry = delta.render();
            format!(
                "{render}\n== {artifact} telemetry (deterministic counters) ==\n{}",
                telemetry.strip_suffix('\n').unwrap_or(&telemetry)
            )
        }
        _ => unreachable!("`{artifact}` is a suite artifact"),
    })
}
