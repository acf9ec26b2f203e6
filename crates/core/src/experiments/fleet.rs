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
//! Determinism: VM cells run under [`run_cells`] (input-order results),
//! frames are ingested serially in VM order, and the aggregator merges
//! shards in index order, so the whole pipeline is bit-identical for any
//! `--jobs` value.

use super::ExperimentError;
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f2, TextTable};
use cbs_dcg::{overlap, CallEdge, DynamicCallGraph};
use cbs_profiled::{
    serve, AggregatorConfig, DcgCodec, Fault, FaultCounts, FaultSchedule, NetConfig, ProfileClient,
    ResilientClient, RetryPolicy, ShardedAggregator,
};
use cbs_profiler::{CbsConfig, CounterBasedSampler};
use cbs_vm::VmConfig;
use cbs_workloads::{Benchmark, InputSize};
use std::sync::Arc;
use std::time::Duration;

/// Per-VM sampler strides; their pairwise co-primality decorrelates the
/// replicas' sample streams.
pub(super) const STRIDES: [u32; 4] = [3, 5, 7, 11];

/// Number of simulated VMs per benchmark.
pub const FLEET_SIZE: usize = STRIDES.len();

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

/// One VM's contribution: its sampled profile and its ground truth.
struct VmProfile {
    sampled: DynamicCallGraph,
    perfect: DynamicCallGraph,
    single_overlap: f64,
}

/// Runs one VM replica of `bench` with a replica-specific stride and
/// timer seed.
fn run_replica(bench: Benchmark, replica: usize, scale: f64) -> Result<VmProfile, ExperimentError> {
    let spec = bench.spec(InputSize::Small).scaled(scale);
    let program = cbs_workloads::generator::build(&spec)?;
    let vm_config = VmConfig {
        // Decorrelate the replicas' timer phases; execution (and thus
        // the perfect profile) is unaffected.
        timer_seed: 0xF1EE7 + replica as u64,
        ..VmConfig::default()
    };
    let cbs = CounterBasedSampler::new(CbsConfig::new(STRIDES[replica % STRIDES.len()], 16));
    let m = crate::measure::measure(&program, vm_config, vec![Box::new(cbs)])?;
    let outcome = &m.outcomes[0];
    Ok(VmProfile {
        sampled: outcome.dcg.clone(),
        perfect: m.perfect,
        single_overlap: outcome.accuracy,
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
    let cells: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (0..FLEET_SIZE).map(move |r| (b, r)))
        .collect();
    let profiles = run_cells(cells, jobs, |(bench, replica)| {
        run_replica(bench, replica, scale)
    })?;

    let mut rows = Vec::new();
    for (i, bench) in Benchmark::all().into_iter().enumerate() {
        let fleet = &profiles[i * FLEET_SIZE..(i + 1) * FLEET_SIZE];
        let agg = ShardedAggregator::new(AggregatorConfig::with_shards(4));
        let mut wire_bytes = 0;
        for vm in fleet {
            wire_bytes += stream_profile(&vm.sampled, &agg);
        }
        let merged = agg.merged_snapshot();
        let union = DynamicCallGraph::merge_all(fleet.iter().map(|vm| &vm.perfect));
        rows.push(FleetRow {
            benchmark: bench,
            vms: fleet.len(),
            merged_edges: merged.num_edges(),
            wire_bytes,
            mean_single: fleet.iter().map(|vm| vm.single_overlap).sum::<f64>() / fleet.len() as f64,
            fleet: overlap(&merged, &union),
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

    let cells: Vec<(Benchmark, usize)> = Benchmark::all()
        .into_iter()
        .flat_map(|b| (0..FLEET_SIZE).map(move |r| (b, r)))
        .collect();
    let profiles = run_cells(cells, jobs, |(bench, replica)| {
        run_replica(bench, replica, scale)
    })?;

    let mut rows = Vec::new();
    let mut counts = FaultCounts::default();
    let mut all_bit_identical = true;
    for (i, bench) in Benchmark::all().into_iter().enumerate() {
        let fleet_vms = &profiles[i * FLEET_SIZE..(i + 1) * FLEET_SIZE];
        let batches: Vec<Vec<Vec<(CallEdge, f64)>>> = fleet_vms
            .iter()
            .map(|vm| delta_batches(&vm.sampled))
            .collect();

        // Fault-free reference: the same batches over a clean link.
        let clean_server = serve(
            "127.0.0.1:0",
            Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4))),
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
            Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4))),
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
        let union = DynamicCallGraph::merge_all(fleet_vms.iter().map(|vm| &vm.perfect));
        rows.push(FleetFaultsRow {
            benchmark: bench,
            vms: fleet_vms.len(),
            merged_edges: faulty_pulled.num_edges(),
            exchanges: bench_counts.total(),
            faulted: bench_counts.faulted(),
            retries,
            reconnects,
            duplicates,
            pull_pages,
            fleet: overlap(&faulty_pulled, &union),
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
