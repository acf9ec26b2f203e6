//! The benchmark's contract in one place: workloads, end-to-end
//! metrics with their regression bounds, and per-layer metrics.
//!
//! `BENCHMARK.json` at the repo root is *generated* from these tables
//! (`cbs-benchmark --emit-benchmark-json`); a unit test fails when the
//! committed file and the tables disagree, so a metric can never be
//! printed under one name and gated under another.

use cbs_core::workloads::Benchmark;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0xCB5;

/// One named workload and the reason it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ingest-mem",
        why: "2 connections push 4000-record deltas, no data dir: wire, codec, aggregator and dedup do all the work, store none",
    },
    Workload {
        name: "ingest-durable",
        why: "same stream in 800-record frames under --fsync always: WAL append, group fsync, checkpoints and crash recovery dominate",
    },
    Workload {
        name: "serve-mixed",
        why: "200000-edge aggregate read beside writes: seal, merge, encode, plan build and the generation caches dominate",
    },
    Workload {
        name: "vm-suite",
        why: "all 13 programs in-process under null, CBS, exhaustive and timer profilers: vm, profiler and dcg only, no daemon",
    },
    Workload {
        name: "fleet-loop",
        why: "repro fleet-optimize at scale 1.0: the paper's collect->exploit loop through every crate, checked against its pin",
    },
];

/// An end-to-end metric: what a user of the system sees, gated by the
/// driver at `bound` (share of the parent's median).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's rule), so
/// the names are generic and the README maps them to the quantities
/// the issue named per workload (`push_records_per_s`, `loop_s`, ...).
///
/// The bounds are the contract's ceiling, not a statement about the
/// program: on this shared two-vCPU host identical runs minutes apart
/// differ by 10 % routinely and by 25-30 % for minutes at a time (in
/// CPU time per unit of work as much as in wall time), while runs
/// back to back agree within 2-5 % (README, "Calibration").
pub const END_TO_END: &[EndToEnd] = &[
    // Work completed per wall second: records (ingest-*), wire ops
    // (serve-mixed), simulated cycles under CBS as the geomean of the
    // 13 programs (vm-suite), loops (fleet-loop).
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    // Median latency of the blocking operation: push ack (ingest-*),
    // push-ack to fresh plan decoded (serve-mixed), one CBS pass of the
    // suite (vm-suite), one loop (fleet-loop).
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    // utime+stime of the process under test per unit of work: the
    // daemon, this process for vm-suite, repro for fleet-loop.
    EndToEnd {
        name: "cpu_ns_per_work",
        unit: "ns",
        better: "lower",
        bound: 0.25,
    },
    // VmHWM of the process under test.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.2,
    },
    // Median of several set-ups: daemon start to first reply
    // (ingest-mem), crash recovery of a 4000-frame WAL (ingest-durable),
    // start + 200000-edge preload + cache fill (serve-mixed), program
    // build + Vm::new (vm-suite), a --scale 0.05 loop (fleet-loop).
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: ungated, reported by the traced pass. A layer
/// the workload does not exercise reports 0.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

fn layer(name: &str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name: name.to_owned(),
        unit,
        better,
    }
}

/// The per-layer metric list, in print order.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = vec![
        // profiled::codec
        layer("codec.encode_ns_per_record", "ns", "lower"),
        layer("codec.decode_ns_per_record", "ns", "lower"),
        layer("codec.decode_snapshot_ms", "ms", "lower"),
        layer("codec.decode_plan_us", "us", "lower"),
        layer("codec.wire_bytes_per_record", "B", "lower"),
        // profiled::aggregator
        layer("aggregator.partition_ns_per_record", "ns", "lower"),
        layer("aggregator.apply_ns_per_record", "ns", "lower"),
        layer("aggregator.snapshot_rebuild_ms", "ms", "lower"),
        layer("aggregator.snapshot_cached_ns", "ns", "lower"),
        layer("aggregator.plan_build_ms", "ms", "lower"),
        layer("aggregator.plan_cached_ns", "ns", "lower"),
        layer("aggregator.snapshot_cache_hit_ratio", "ratio", "higher"),
        layer("aggregator.plan_cache_hit_ratio", "ratio", "higher"),
        layer("aggregator.edges", "count", "lower"),
        // profiled::wire / server
        layer("wire.roundtrip_us", "us", "lower"),
        layer("server.handler_p50_us", "us", "lower"),
        layer("server.unattributed_us", "us", "lower"),
        layer("server.err_replies", "count", "lower"),
        layer("server.busy_refusals", "count", "lower"),
        layer("server.bad_frames", "count", "lower"),
        // profiled::journal / dedup
        layer("journal.mem_ingest_ns_per_record", "ns", "lower"),
        layer("dedup.hits", "count", "lower"),
        // profiled::client / resilient
        layer("client.push_seq_us", "us", "lower"),
        layer("resilient.retries", "count", "lower"),
        layer("resilient.reconnects", "count", "lower"),
        // store
        layer("store.ingest_never_ns_per_record", "ns", "lower"),
        layer("store.ingest_always_us_per_frame", "us", "lower"),
        layer("wal.append_ns_per_byte", "ns", "lower"),
        layer("wal.sync_us", "us", "lower"),
        layer("store.acks_per_fsync", "ratio", "higher"),
        layer("store.wal_bytes_per_wire_byte", "ratio", "lower"),
        layer("store.checkpoint_ms", "ms", "lower"),
        layer("store.checkpoints", "count", "lower"),
        layer("store.replay_records_per_s", "1/s", "higher"),
        layer("store.dir_bytes_after", "B", "lower"),
        // dcg
        layer("dcg.record_batch_ns_per_edge", "ns", "lower"),
        layer("dcg.drain_delta_us", "us", "lower"),
        layer("dcg.seal_ms", "ms", "lower"),
        // vm
        layer("vm.null_mcycles_per_s", "Mcycles/s", "higher"),
        layer("vm.exhaustive_mcycles_per_s", "Mcycles/s", "higher"),
        layer("vm.timer_mcycles_per_s", "Mcycles/s", "higher"),
    ];
    for b in Benchmark::all() {
        v.push(layer(
            &format!("vm.{}.cbs_mcycles_per_s", b.name()),
            "Mcycles/s",
            "higher",
        ));
    }
    v.extend([
        layer("vm.fused_run_share", "ratio", "higher"),
        // profiler
        layer("profiler.cbs_wall_overhead_pct", "%", "lower"),
        layer("profiler.exhaustive_wall_overhead_pct", "%", "lower"),
        layer("profiler.cbs_samples", "count", "higher"),
        layer("profiler.cbs_accuracy_pct", "%", "higher"),
        // workloads / inliner / opt / adaptive / core
        layer("workloads.build_ms", "ms", "lower"),
        layer("inliner.build_plan_ms", "ms", "lower"),
        layer("inliner.apply_plan_ms", "ms", "lower"),
        layer("opt.pipeline_ms", "ms", "lower"),
        layer("core.fleet_optimize_inproc_s", "s", "lower"),
        // telemetry
        layer("telemetry.overhead_pct", "%", "lower"),
        // the benchmark itself
        layer("trace_overhead_pct", "%", "lower"),
        layer("generator_lateness_us", "us", "lower"),
        // Diagnostics under the issue's names: the per-operation
        // medians behind the generic end-to-end metrics, and the tails
        // (p99s moved by 70-150 us between identical runs on a shared
        // host, so they are reported, not gated).
        layer("push_ack_p50_us", "us", "lower"),
        layer("push_ack_tail_us", "us", "lower"),
        layer("fresh_plan_p50_ms", "ms", "lower"),
        layer("fresh_plan_tail_ms", "ms", "lower"),
        layer("pull_cold_p50_ms", "ms", "lower"),
        layer("pull_cold_tail_ms", "ms", "lower"),
        layer("pull_warm_p50_ms", "ms", "lower"),
        layer("pull_warm_tail_ms", "ms", "lower"),
        layer("plan_warm_p50_us", "us", "lower"),
        layer("plan_warm_tail_us", "us", "lower"),
        layer("recovery_s", "s", "lower"),
        layer("failed_ops_share", "ratio", "lower"),
    ]);
    v
}

/// The canonical `BENCHMARK.json` text.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = per_layer()
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark/run.sh --emit-benchmark-json > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_tables_respect_the_contract_limits() {
        let layers = per_layer();
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&layers.len()));
        let mut seen = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name.to_owned()), "duplicate {}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name.to_owned()), "duplicate {}", m.name);
        }
        for m in &layers {
            assert!(name_ok(&m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(matches!(m.better, "higher" | "lower"));
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(benchmark_json().len() <= 64 << 10);
    }
}
