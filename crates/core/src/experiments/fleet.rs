//! Fleet-scale profile aggregation: many VMs, one merged call graph.
//!
//! The paper collects one profile per VM. This experiment simulates the
//! service deployment the `cbs-profiled` crate targets: `K` VMs run the
//! same benchmark under counter-based sampling with *decorrelated*
//! sampler configurations (different strides and timer seeds), each
//! streams its profile through the binary codec — one snapshot frame
//! followed by a delta frame, exactly what a periodic flusher emits —
//! into a [`ShardedAggregator`], and the merged fleet profile is scored
//! against the union of the exhaustive (perfect) profiles.
//!
//! Pooling decorrelated samples is a variance reduction, so the merged
//! profile's overlap should meet or beat the mean single-VM overlap —
//! asserted by the tier-1 tests and visible in the rendered table's
//! `gain` column.
//!
//! The `K` VMs of one benchmark are replicas observing a single
//! interpretation ([`attach_replicas`]): each replays its own timer, and its
//! profile is the one a VM of its own would have collected.
//!
//! Determinism: benchmark cells run under [`run_cells`] (input-order
//! results), and frames are ingested serially in VM order, so the whole
//! pipeline is bit-identical for any `--jobs` value.

use super::ExperimentError;
use crate::measure::{measure_multi, ProfilerOutcome};
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f2, TextTable};
use cbs_dcg::{overlap, CallEdge, DynamicCallGraph};
use cbs_profiled::{
    serve, AggregatorConfig, DcgCodec, Fault, FaultCounts, FaultSchedule, NetConfig, ProfileClient,
    ResilientClient, RetryPolicy, ShardedAggregator,
};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler, MultiProfiler};
use cbs_vm::{TickSchedule, VmConfig};
use cbs_workloads::{Benchmark, InputSize};
use std::sync::Arc;
use std::time::Duration;

/// Per-VM sampler strides; their pairwise co-primality decorrelates the
/// replicas' sample streams.
pub(super) const STRIDES: [u32; 4] = [3, 5, 7, 11];

/// Number of simulated VMs per benchmark.
pub const FLEET_SIZE: usize = STRIDES.len();

/// The configuration of fleet VM `replica`: `base` with the replica's
/// own timer seed, which decorrelates the replicas' timer phases.
pub(super) fn replica_config(base: &VmConfig, replica: usize) -> VmConfig {
    VmConfig {
        timer_seed: 0xF1EE7 + replica as u64,
        ..base.clone()
    }
}

/// Attaches the fleet's VM replicas to `observer`: `samplers[r]` replays
/// the timer of [`replica_config`]`(vm_config, r)`, so it ends as a VM of
/// its own under that configuration would (see [`MultiProfiler`]).
pub(super) fn attach_replicas<P: ?Sized + CallGraphProfiler>(
    observer: &mut MultiProfiler<P>,
    vm_config: &VmConfig,
    samplers: impl IntoIterator<Item = Box<P>>,
) {
    for (r, sampler) in samplers.into_iter().enumerate() {
        observer.attach_with_timer(sampler, TickSchedule::new(&replica_config(vm_config, r)));
    }
}

/// One benchmark's fleet-aggregation outcome.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// VMs in this benchmark's fleet.
    pub vms: usize,
    /// Edges in the merged fleet profile.
    pub merged_edges: usize,
    /// Total wire bytes across all snapshot and delta frames.
    pub wire_bytes: usize,
    /// Mean per-VM overlap with that VM's own exhaustive profile (0–100).
    pub mean_single: f64,
    /// Merged-profile overlap with the union of exhaustive profiles
    /// (0–100).
    pub fleet: f64,
}

impl FleetRow {
    /// Percentage-point gain of the merged profile over the mean
    /// single-VM profile.
    pub fn gain(&self) -> f64 {
        self.fleet - self.mean_single
    }
}

/// The fleet-aggregation experiment report.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<FleetRow>,
    /// Mean of the per-benchmark `mean_single` column.
    pub mean_single: f64,
    /// Mean of the per-benchmark `fleet` column.
    pub mean_fleet: f64,
}

impl Fleet {
    /// Renders the report table with a trailing `MEAN` row.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            format!(
                "Fleet aggregation: {FLEET_SIZE} CBS VMs per benchmark, \
                 snapshot+delta frames through the sharded aggregator"
            ),
            &[
                "Benchmark",
                "VMs",
                "Edges",
                "Wire (B)",
                "Single (%)",
                "Fleet (%)",
                "Gain (pp)",
            ],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                r.vms.to_string(),
                r.merged_edges.to_string(),
                r.wire_bytes.to_string(),
                f2(r.mean_single),
                f2(r.fleet),
                f2(r.gain()),
            ]);
        }
        t.row([
            "MEAN".to_owned(),
            String::new(),
            String::new(),
            String::new(),
            f2(self.mean_single),
            f2(self.mean_fleet),
            f2(self.mean_fleet - self.mean_single),
        ]);
        t.to_string()
    }
}

/// One benchmark's fleet: every VM's profile and overlap with the run's
/// ground truth, and the union of their (identical) perfect profiles the
/// merged profile is scored against.
struct BenchFleet {
    vms: Vec<ProfilerOutcome>,
    union: DynamicCallGraph,
}

/// Runs `bench` once, observed by its [`FLEET_SIZE`] VM replicas, each
/// with its own stride and timer seed.
fn run_fleet(bench: Benchmark, scale: f64) -> Result<BenchFleet, ExperimentError> {
    let spec = bench.spec(InputSize::Small).scaled(scale);
    let program = cbs_workloads::generator::build(&spec)?;
    let vm_config = VmConfig::default();
    let samplers = STRIDES.map(|stride| -> Box<dyn CallGraphProfiler> {
        Box::new(CounterBasedSampler::new(CbsConfig::new(stride, 16)))
    });
    let m = measure_multi(&program, vm_config.clone(), |observer| {
        attach_replicas(observer, &vm_config, samplers);
    })?;
    Ok(BenchFleet {
        vms: m.outcomes,
        union: DynamicCallGraph::merge_all(std::iter::repeat_n(&m.perfect, FLEET_SIZE)),
    })
}

/// Streams `graph` into `agg` the way a periodically-flushing VM would:
/// the first half of its edges as a snapshot frame, the remainder as a
/// delta frame produced by [`DynamicCallGraph::drain_delta`]. Returns
/// the wire bytes consumed.
fn stream_profile(graph: &DynamicCallGraph, agg: &ShardedAggregator) -> usize {
    let edges: Vec<_> = graph.iter().map(|(e, w)| (*e, w)).collect();
    let split = edges.len() / 2;
    let mut live = DynamicCallGraph::new();
    for &(e, w) in &edges[..split] {
        live.record(e, w);
    }
    let snapshot = DcgCodec::encode_snapshot(&live);
    live.drain_delta(); // mark everything flushed
    for &(e, w) in &edges[split..] {
        live.record(e, w);
    }
    let delta = DcgCodec::encode_delta(&live.drain_delta());
    let mut bytes = 0;
    for frame_bytes in [&snapshot, &delta] {
        bytes += frame_bytes.len();
        let frame = DcgCodec::decode(frame_bytes).expect("own encoding decodes");
        agg.ingest(&frame);
    }
    bytes
}

/// Runs the fleet-aggregation experiment, VM replicas sharded across
/// `jobs` worker threads. Output is bit-identical for any `jobs` value
/// — see the module docs.
///
/// # Errors
///
/// Propagates generation or VM failures.
pub fn fleet_with(scale: f64, jobs: Parallelism) -> Result<Fleet, ExperimentError> {
    let fleets = run_cells(Benchmark::all().to_vec(), jobs, |bench| {
        run_fleet(bench, scale)
    })?;

    let mut rows = Vec::new();
    for (bench, fleet) in Benchmark::all().into_iter().zip(&fleets) {
        let agg = ShardedAggregator::new(AggregatorConfig::default());
        let mut wire_bytes = 0;
        for vm in &fleet.vms {
            wire_bytes += stream_profile(&vm.dcg, &agg);
        }
        let merged = agg.merged_snapshot();
        let vms = fleet.vms.len();
        rows.push(FleetRow {
            benchmark: bench,
            vms,
            merged_edges: merged.num_edges(),
            wire_bytes,
            mean_single: fleet.vms.iter().map(|vm| vm.accuracy).sum::<f64>() / vms as f64,
            fleet: overlap(&merged, &fleet.union),
        });
    }
    let n = rows.len() as f64;
    let mean_single = rows.iter().map(|r| r.mean_single).sum::<f64>() / n;
    let mean_fleet = rows.iter().map(|r| r.fleet).sum::<f64>() / n;
    Ok(Fleet {
        rows,
        mean_single,
        mean_fleet,
    })
}

/// One benchmark's outcome under the faulty-transport fleet run.
#[derive(Debug, Clone)]
pub struct FleetFaultsRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// VMs in this benchmark's fleet.
    pub vms: usize,
    /// Edges in the merged fleet profile pulled over the faulty link.
    pub merged_edges: usize,
    /// Fault decisions drawn (one per exchange, retries included).
    pub exchanges: usize,
    /// Exchanges the schedule faulted.
    pub faulted: usize,
    /// Failed attempts retried by the resilient clients.
    pub retries: usize,
    /// Connections re-established after a fault.
    pub reconnects: usize,
    /// Push batches acknowledged as already-applied duplicates.
    pub duplicates: usize,
    /// `OP_PULL_CHUNK` pages of the final snapshot pull.
    pub pull_pages: u32,
    /// Merged-profile overlap with the union of exhaustive profiles
    /// (0–100), measured on the *faulty* run's pulled snapshot.
    pub fleet: f64,
    /// Whether the faulty run's pulled snapshot is bit-identical to the
    /// fault-free run's (every weight and the running total).
    pub bit_identical: bool,
}

impl FleetFaultsRow {
    /// Fraction of exchanges faulted, 0–100.
    pub fn fault_pct(&self) -> f64 {
        if self.exchanges == 0 {
            0.0
        } else {
            100.0 * self.faulted as f64 / self.exchanges as f64
        }
    }
}

/// The faulty-transport fleet experiment report.
#[derive(Debug, Clone)]
pub struct FleetFaults {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<FleetFaultsRow>,
    /// Injection counts pooled over every schedule in the run.
    pub counts: FaultCounts,
    /// Whether every benchmark's faulty pull was bit-identical to its
    /// fault-free pull.
    pub all_bit_identical: bool,
}

impl FleetFaults {
    /// Renders the report table with a fault-summary footer.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            format!(
                "Fleet aggregation under injected transport faults: \
                 {FLEET_SIZE} CBS VMs per benchmark through the resilient \
                 client (exactly-once pushes, chunked pulls)"
            ),
            &[
                "Benchmark",
                "VMs",
                "Edges",
                "Exch",
                "Fault (%)",
                "Retry",
                "Reconn",
                "Dup",
                "Pages",
                "Fleet (%)",
                "Bit-id",
            ],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                r.vms.to_string(),
                r.merged_edges.to_string(),
                r.exchanges.to_string(),
                f2(r.fault_pct()),
                r.retries.to_string(),
                r.reconnects.to_string(),
                r.duplicates.to_string(),
                r.pull_pages.to_string(),
                f2(r.fleet),
                if r.bit_identical { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        let c = &self.counts;
        format!(
            "{}faults injected: {} of {} exchanges ({}) — drops {}, stale replies {}, \
             truncations {}, resets {}, busy refusals {}\n\
             pooled profiles bit-identical to fault-free runs: {}\n",
            t,
            c.faulted(),
            c.total(),
            f2(100.0 * c.faulted() as f64 / c.total().max(1) as f64),
            c.drops,
            c.delays,
            c.truncations,
            c.resets,
            c.busies,
            if self.all_bit_identical { "yes" } else { "NO" },
        )
    }
}

pub(super) fn transport(e: impl std::fmt::Display) -> ExperimentError {
    ExperimentError::Transport(e.to_string())
}

/// Deterministic per-(benchmark, vm) seed derivation.
fn stream_seed(seed: u64, bench: usize, vm: usize) -> u64 {
    seed ^ (bench as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (vm as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
}

/// Bitwise graph comparison: same edges, same weight bits, same total
/// bits (stricter than `==`, which compares by value).
fn bits_identical(a: &DynamicCallGraph, b: &DynamicCallGraph) -> bool {
    a.num_edges() == b.num_edges()
        && a.total_weight().to_bits() == b.total_weight().to_bits()
        && a.iter()
            .zip(b.iter())
            .all(|((ea, wa), (eb, wb))| ea == eb && wa.to_bits() == wb.to_bits())
}

/// Each VM's profile cut into delta batches small enough that every
/// push frame fits the reduced fault-run frame limit.
fn delta_batches(vm: &DynamicCallGraph) -> Vec<Vec<(CallEdge, f64)>> {
    let all: Vec<(CallEdge, f64)> = vm.iter().map(|(e, w)| (*e, w)).collect();
    all.chunks(64).map(<[_]>::to_vec).collect()
}

/// The fleet experiment over a *faulty* transport: every VM streams its
/// profile through the resilient client while a seeded schedule drops,
/// delays, truncates, and resets roughly a quarter of all exchanges
/// (plus one scripted busy refusal per benchmark), and the final
/// snapshot is pulled in pages over the same faulty link. For each
/// benchmark the same batches are also delivered over a clean
/// connection; the faulty pull must reproduce that profile
/// **bit-identically** — the retry/requeue/exactly-once machinery may
/// cost retries, never weight.
///
/// Deterministic for a fixed `seed` and any `jobs` value: fault
/// schedules and backoff jitter are seeded, injected timeouts return
/// immediately, and backoff sleeps are recorded rather than slept.
///
/// # Errors
///
/// Propagates generation, VM, or unrecoverable transport failures.
pub fn fleet_faults_with(
    scale: f64,
    jobs: Parallelism,
    seed: u64,
) -> Result<FleetFaults, ExperimentError> {
    const FAULT_RATE: f64 = 0.25;
    // A reduced frame limit so paged pulls actually page.
    let config = NetConfig {
        max_frame_bytes: 2048,
        ..NetConfig::default()
    };
    let push_policy = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        seed,
        max_outbox_batches: 8,
    };
    // Pull attempts span many page exchanges, each of which can fault,
    // so the pull budget is much larger (attempts are cheap: injected
    // timeouts return immediately).
    let pull_policy = RetryPolicy {
        max_attempts: 200,
        ..push_policy
    };

    let fleets = run_cells(Benchmark::all().to_vec(), jobs, |bench| {
        run_fleet(bench, scale)
    })?;

    let mut rows = Vec::new();
    let mut counts = FaultCounts::default();
    let mut all_bit_identical = true;
    for (i, (bench, fleet)) in Benchmark::all().into_iter().zip(&fleets).enumerate() {
        let batches: Vec<Vec<Vec<(CallEdge, f64)>>> =
            fleet.vms.iter().map(|vm| delta_batches(&vm.dcg)).collect();

        // Fault-free reference: the same batches over a clean link.
        let clean_server = serve(
            "127.0.0.1:0",
            Arc::new(ShardedAggregator::new(AggregatorConfig::default())),
            config,
        )
        .map_err(transport)?;
        let mut clean = ProfileClient::connect(clean_server.addr(), config).map_err(transport)?;
        for vm_batches in &batches {
            for batch in vm_batches {
                clean.push_delta(batch).map_err(transport)?;
            }
        }
        let (clean_pulled, _) = clean.pull_chunked().map_err(transport)?;
        clean_server.shutdown();

        // Faulty run: same batches, hostile schedule, one resilient
        // client per VM (schedules persist across its reconnects).
        let faulty_server = serve(
            "127.0.0.1:0",
            Arc::new(ShardedAggregator::new(AggregatorConfig::default())),
            config,
        )
        .map_err(transport)?;
        let addr = faulty_server.addr().to_string();
        let mut schedules = Vec::new();
        let (mut retries, mut reconnects, mut duplicates) = (0, 0, 0);
        for (v, vm_batches) in batches.iter().enumerate() {
            let schedule = FaultSchedule::seeded(stream_seed(seed, i, v), FAULT_RATE);
            let schedule = if v == 0 {
                // Guarantee at least one server-busy refusal per fleet.
                schedule.with_script([Fault::Busy])
            } else {
                schedule
            };
            let schedule = schedule.shared();
            schedules.push(Arc::clone(&schedule));
            let mut client = ResilientClient::connect_faulty(
                addr.clone(),
                config,
                RetryPolicy {
                    seed: stream_seed(seed, i, v).rotate_left(17),
                    ..push_policy
                },
                v as u64 + 1,
                schedule,
            )
            .with_sleep(Box::new(|_| {}));
            for batch in vm_batches {
                // A failed push leaves its batch requeued in the
                // outbox; later pushes and the final flush retry it.
                let _ = client.push_delta(batch.clone());
            }
            let mut flushes = 0;
            while client.outbox_len() > 0 {
                flushes += 1;
                if flushes > 100 {
                    client.flush().map_err(transport)?;
                } else {
                    let _ = client.flush();
                }
            }
            let s = client.stats();
            retries += s.retries;
            reconnects += s.reconnects;
            duplicates += s.duplicates;
        }
        let pull_schedule = FaultSchedule::seeded(stream_seed(seed, i, 0xFF), FAULT_RATE).shared();
        schedules.push(Arc::clone(&pull_schedule));
        let mut puller =
            ResilientClient::connect_faulty(addr, config, pull_policy, 0xFFFF, pull_schedule)
                .with_sleep(Box::new(|_| {}));
        let (faulty_pulled, pull_pages) = puller.pull().map_err(transport)?;
        let s = puller.stats();
        retries += s.retries;
        reconnects += s.reconnects;
        faulty_server.shutdown();

        let mut bench_counts = FaultCounts::default();
        for schedule in &schedules {
            let c = schedule.lock().expect("schedule lock").counts();
            bench_counts.clean += c.clean;
            bench_counts.drops += c.drops;
            bench_counts.delays += c.delays;
            bench_counts.truncations += c.truncations;
            bench_counts.resets += c.resets;
            bench_counts.busies += c.busies;
        }
        counts.clean += bench_counts.clean;
        counts.drops += bench_counts.drops;
        counts.delays += bench_counts.delays;
        counts.truncations += bench_counts.truncations;
        counts.resets += bench_counts.resets;
        counts.busies += bench_counts.busies;

        let bit_identical = bits_identical(&faulty_pulled, &clean_pulled);
        all_bit_identical &= bit_identical;
        rows.push(FleetFaultsRow {
            benchmark: bench,
            vms: fleet.vms.len(),
            merged_edges: faulty_pulled.num_edges(),
            exchanges: bench_counts.total(),
            faulted: bench_counts.faulted(),
            retries,
            reconnects,
            duplicates,
            pull_pages,
            fleet: overlap(&faulty_pulled, &fleet.union),
            bit_identical,
        });
    }
    Ok(FleetFaults {
        rows,
        counts,
        all_bit_identical,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbs_dcg::{CctNodeId, ContextStep};
    use cbs_profiler::{SkipPolicy, TimerSampler};
    use cbs_vm::{Vm, VmFlavor};

    /// A sampler whose calling context tree, if it keeps one, is part of
    /// what it keeps of a run.
    trait Replica: CallGraphProfiler {
        fn cct_bits(&self) -> Option<Vec<(CctNodeId, ContextStep, u64)>> {
            None
        }
    }

    impl Replica for TimerSampler {}

    impl Replica for CounterBasedSampler {
        fn cct_bits(&self) -> Option<Vec<(CctNodeId, ContextStep, u64)>> {
            self.cct().map(|t| {
                t.iter()
                    .map(|(id, step, w)| (id, step, w.to_bits()))
                    .collect()
            })
        }
    }

    /// `Some(config)` is a counter-based sampler, `None` the timer one.
    fn sampler(config: Option<CbsConfig>) -> Box<dyn Replica> {
        match config {
            Some(config) => Box::new(CounterBasedSampler::new(config)),
            None => Box::new(TimerSampler::new()),
        }
    }

    /// Everything a sampler keeps of a run: its graph (weight bits
    /// included), samples, simulated overhead, and calling context tree.
    type Residue = (
        Vec<(CallEdge, u64)>,
        u64,
        u64,
        u64,
        Option<Vec<(CctNodeId, ContextStep, u64)>>,
    );

    fn residue(p: &mut dyn Replica) -> Residue {
        let cct = p.cct_bits();
        let (samples, overhead) = (p.samples_taken(), p.overhead_cycles());
        let dcg = p.take_dcg();
        let edges = dcg.iter().map(|(e, w)| (*e, w.to_bits())).collect();
        (edges, dcg.total_weight().to_bits(), samples, overhead, cct)
    }

    /// Every replica of the shared run ends exactly as a sampler alone
    /// in a run under that replica's configuration: over the 13
    /// programs, both flavors, both fleets' sampler configurations plus a
    /// timer sampler, and the sampler options that change what a window
    /// does (random skips, context trees, an explicit entry check), the
    /// latter under a timer dense enough that ticks fall between most
    /// events.
    #[test]
    fn every_replica_equals_its_own_run() {
        let option_configs = [
            CbsConfig {
                skip_policy: SkipPolicy::Random { seed: 0x5EED },
                ..CbsConfig::new(3, 16)
            },
            CbsConfig {
                context_sensitive: true,
                ..CbsConfig::new(5, 4)
            },
            CbsConfig {
                explicit_entry_check: true,
                ..CbsConfig::new(7, 2)
            },
            CbsConfig {
                skip_policy: SkipPolicy::Random { seed: 11 },
                context_sensitive: true,
                explicit_entry_check: true,
                ..CbsConfig::new(11, 16)
            },
        ];
        // Beside the 13 programs, one whose last call is followed by a
        // tail several timer periods long: ticks after the last event
        // still open windows, and so still cost overhead.
        let tail = {
            let mut b = cbs_bytecode::ProgramBuilder::new();
            let cls = b.add_class("C", 0);
            let f = b
                .function("f", cls, 1, 0, |c| {
                    c.load(0).const_(3).mul().ret();
                })
                .unwrap();
            let main = b
                .function("main", cls, 0, 1, |c| {
                    c.counted_loop(0, 50_000, |c| {
                        c.const_(2).call(f).pop();
                    });
                    c.io(3_000).pop().const_(0).ret();
                })
                .unwrap();
            b.set_entry(main);
            b.build().unwrap()
        };
        let programs = Benchmark::all().map(|bench| {
            let spec = bench.spec(InputSize::Small).scaled(0.01);
            (
                bench.name(),
                cbs_workloads::generator::build(&spec).unwrap(),
            )
        });
        let with_timer = |configs: Vec<CbsConfig>| -> Vec<Option<CbsConfig>> {
            configs.into_iter().map(Some).chain([None]).collect()
        };
        for (bench, program) in programs.into_iter().chain([("tail", tail)]) {
            for flavor in [VmFlavor::Jikes, VmFlavor::J9] {
                let fleet_vm = VmConfig::with_flavor(flavor);
                let dense_vm = VmConfig {
                    timer_hz: 4_000,
                    timer_jitter: 300,
                    ..fleet_vm.clone()
                };
                let cases = [
                    (&fleet_vm, STRIDES.map(|s| CbsConfig::new(s, 16)).to_vec()),
                    (&fleet_vm, STRIDES.map(|s| CbsConfig::new(s, 2)).to_vec()),
                    (&dense_vm, option_configs.to_vec()),
                ];
                for (vm_config, configs) in cases {
                    let samplers = with_timer(configs);
                    let mut observer = MultiProfiler::new();
                    attach_replicas(
                        &mut observer,
                        vm_config,
                        samplers.iter().cloned().map(sampler),
                    );
                    let exec = Vm::new(&program, vm_config.clone())
                        .run_with(&mut observer)
                        .unwrap();
                    let base = Vm::new(&program, vm_config.clone())
                        .run_unprofiled()
                        .unwrap();
                    assert_eq!(exec, base, "{bench} {flavor:?}: the observed run");
                    let mut sampled = 0;
                    let shared = observer.into_inner();
                    for (r, (mut shared, config)) in shared.into_iter().zip(samplers).enumerate() {
                        let what = format!("{bench} {flavor:?} replica {r} {config:?}");
                        let mut alone = sampler(config);
                        Vm::new(&program, replica_config(vm_config, r))
                            .run_with(alone.as_mut())
                            .unwrap();
                        sampled += alone.samples_taken();
                        assert_eq!(residue(shared.as_mut()), residue(alone.as_mut()), "{what}");
                    }
                    assert!(sampled > 0, "{bench} {flavor:?}: no replica sampled");
                }
            }
        }
    }

    /// With two threads a tick's switch interleaves them differently
    /// under each replica's timer, so one run cannot stand for all.
    #[test]
    #[should_panic(expected = "single thread")]
    fn replicas_refuse_a_multi_threaded_run() {
        let program = cbs_workloads::generator::build(
            &Benchmark::Compress.spec(InputSize::Small).scaled(0.01),
        )
        .unwrap();
        let vm_config = VmConfig {
            num_threads: 2,
            ..VmConfig::default()
        };
        let sampler = Box::new(CounterBasedSampler::new(CbsConfig::default()));
        let mut observer = MultiProfiler::new();
        attach_replicas(&mut observer, &vm_config, [sampler]);
        let _ = Vm::new(&program, vm_config).run_with(&mut observer);
    }

    #[test]
    fn pooled_profiles_meet_or_beat_single_vms() {
        let f = fleet_with(0.02, Parallelism::SERIAL).unwrap();
        assert_eq!(f.rows.len(), 13);
        for r in &f.rows {
            assert_eq!(r.vms, FLEET_SIZE);
            assert!(r.merged_edges > 0, "{}", r.benchmark);
            assert!(r.wire_bytes > 0);
            assert!((0.0..=100.0).contains(&r.mean_single));
            assert!((0.0..=100.0).contains(&r.fleet));
        }
        // Pooling decorrelated samples is a variance reduction: the
        // fleet profile must beat the mean single-VM profile on average,
        // and must not lose on any individual benchmark by more than
        // sampling noise.
        assert!(
            f.mean_fleet >= f.mean_single,
            "fleet {} vs single {}",
            f.mean_fleet,
            f.mean_single
        );
        for r in &f.rows {
            assert!(
                r.gain() > -2.0,
                "{}: fleet {} far below single {}",
                r.benchmark,
                r.fleet,
                r.mean_single
            );
        }
        let text = f.render();
        assert!(text.contains("MEAN"));
        assert!(text.contains("Gain"));
    }

    #[test]
    fn faulty_transport_pools_bit_identical_profiles() {
        let f = fleet_faults_with(0.01, Parallelism::SERIAL, 0xCB5).unwrap();
        assert_eq!(f.rows.len(), 13);
        assert!(
            f.all_bit_identical,
            "a faulted run lost or double-counted weight:\n{}",
            f.render()
        );
        for r in &f.rows {
            assert!(r.bit_identical, "{}", r.benchmark);
            assert!(r.merged_edges > 0, "{}", r.benchmark);
            assert!(r.pull_pages >= 1);
            assert!((0.0..=100.0).contains(&r.fleet));
        }
        // The schedule really was hostile: >= 20% of all exchanges
        // faulted, every fault kind occurred, and at least one busy
        // refusal per benchmark was scripted.
        let rate = f.counts.faulted() as f64 / f.counts.total() as f64;
        assert!(
            rate >= 0.20,
            "observed fault rate {rate:.3}: {:?}",
            f.counts
        );
        assert!(f.counts.drops > 0);
        assert!(f.counts.delays > 0);
        assert!(f.counts.truncations > 0);
        assert!(f.counts.resets > 0);
        assert!(f.counts.busies >= f.rows.len());
        // Faults forced real recovery work.
        assert!(f.rows.iter().map(|r| r.retries).sum::<usize>() > 0);
        assert!(f.rows.iter().map(|r| r.reconnects).sum::<usize>() > 0);
        let text = f.render();
        assert!(
            text.contains("bit-identical to fault-free runs: yes"),
            "{text}"
        );

        // Same seed, same report — the whole faulty pipeline is
        // deterministic (seeded schedules, instant injected timeouts,
        // recorded backoff sleeps).
        let again = fleet_faults_with(0.01, Parallelism::SERIAL, 0xCB5).unwrap();
        assert_eq!(again.render(), text);
    }

    #[test]
    fn fleet_is_bit_identical_for_any_job_count() {
        let serial = fleet_with(0.01, Parallelism::SERIAL).unwrap();
        for jobs in [2, 5] {
            let par = fleet_with(0.01, Parallelism::jobs(jobs)).unwrap();
            assert_eq!(par.render(), serial.render(), "jobs={jobs}");
            for (a, b) in par.rows.iter().zip(&serial.rows) {
                assert_eq!(a.fleet.to_bits(), b.fleet.to_bits(), "{}", a.benchmark);
                assert_eq!(a.mean_single.to_bits(), b.mean_single.to_bits());
                assert_eq!(a.wire_bytes, b.wire_bytes);
            }
        }
    }
}
