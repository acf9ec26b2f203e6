//! Determinism guarantees of the parallel sharded experiment runner:
//! sharding work across threads and merging the per-shard DCGs must be
//! *exactly* — bitwise — equivalent to one serial run.

use cbs_prng::prop::run_cases;
use cbs_prng::SmallRng;
use cbs_repro::dcg::{overlap, CallEdge, DynamicCallGraph};
use cbs_repro::experiments::{table1_with, table2, table3_with, Table2Options};
use cbs_repro::prelude::*;
use cbs_repro::run_cells;

fn edge(caller: u32, site: u32, callee: u32) -> CallEdge {
    CallEdge::new(
        cbs_repro::bytecode::MethodId::new(caller),
        cbs_repro::bytecode::CallSiteId::new(site),
        cbs_repro::bytecode::MethodId::new(callee),
    )
}

/// A DCG with unit-sample (integer) weights, as every profiler records.
fn sampled_dcg(rng: &mut SmallRng, events: usize) -> DynamicCallGraph {
    let mut g = DynamicCallGraph::new();
    for _ in 0..events {
        g.record(
            edge(
                rng.gen_range(0u32..12),
                rng.gen_range(0u32..24),
                rng.gen_range(0u32..12),
            ),
            1.0,
        );
    }
    g
}

#[test]
fn sharded_and_merged_equals_single_thread() {
    // The reduction the parallel runner performs: per-shard graphs merged
    // in stable shard order must equal the graph a single thread records
    // from the same event stream.
    run_cases("sharded_and_merged_equals_single_thread", 32, |rng| {
        let num_shards = rng.gen_range(2usize..8);
        let events_per_shard = rng.gen_range(1usize..200);

        // One event stream, deterministically dealt to shards.
        let seed = rng.next_u64();
        let mut dealer = SmallRng::seed_from_u64(seed);
        let mut serial = DynamicCallGraph::new();
        let mut shards = vec![DynamicCallGraph::new(); num_shards];
        for i in 0..num_shards * events_per_shard {
            let e = edge(
                dealer.gen_range(0u32..12),
                dealer.gen_range(0u32..24),
                dealer.gen_range(0u32..12),
            );
            serial.record(e, 1.0);
            shards[i % num_shards].record(e, 1.0);
        }

        let merged = DynamicCallGraph::merge_all(&shards);
        assert_eq!(
            merged, serial,
            "merge must reconstruct the serial graph exactly"
        );
        assert_eq!(
            merged.total_weight().to_bits(),
            serial.total_weight().to_bits(),
            "totals are bitwise equal for unit-sample weights"
        );
        assert!((overlap(&merged, &serial) - 100.0).abs() < 1e-9);
    });
}

#[test]
fn merge_is_commutative_and_associative_in_weights_and_totals() {
    run_cases(
        "merge_is_commutative_and_associative_in_weights_and_totals",
        32,
        |rng| {
            let na = rng.gen_range(1usize..150);
            let a = sampled_dcg(rng, na);
            let nb = rng.gen_range(1usize..150);
            let b = sampled_dcg(rng, nb);
            let nc = rng.gen_range(1usize..150);
            let c = sampled_dcg(rng, nc);

            // Commutativity: a+b == b+a, bitwise.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba);
            assert_eq!(ab.total_weight().to_bits(), ba.total_weight().to_bits());

            // Associativity: (a+b)+c == a+(b+c), bitwise.
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc);
            assert_eq!(ab_c.total_weight().to_bits(), a_bc.total_weight().to_bits());

            // merge_all agrees with the fold, in any grouping.
            let all = DynamicCallGraph::merge_all([&a, &b, &c]);
            assert_eq!(all, ab_c);
        },
    );
}

#[test]
fn run_cells_is_transparent_for_profiling_work() {
    // Sharding real profiling cells across threads yields the same DCGs,
    // in the same order, as running them inline.
    let cells: Vec<u32> = (0..6).collect();
    let collect = |jobs| {
        run_cells(cells.clone(), jobs, |stride| {
            let program = Benchmark::Jess.spec(InputSize::Small).scaled(0.02);
            let program = cbs_repro::workloads::generator::build(&program)?;
            let m = measure(
                &program,
                VmConfig::default(),
                vec![Box::new(CounterBasedSampler::new(CbsConfig::new(
                    stride + 1,
                    8,
                )))],
            )
            .map_err(cbs_repro::experiments::ExperimentError::Vm)?;
            Ok::<_, cbs_repro::experiments::ExperimentError>(m.outcomes[0].dcg.clone())
        })
        .expect("cells run")
    };
    let serial = collect(Parallelism::SERIAL);
    let parallel = collect(Parallelism::jobs(4));
    assert_eq!(serial, parallel);
}

#[test]
fn table1_parallel_renders_byte_identically() {
    let a = table1_with(0.01, Parallelism::SERIAL).unwrap().render();
    let b = table1_with(0.01, Parallelism::jobs(4)).unwrap().render();
    assert_eq!(a, b);
}

#[test]
fn table2_parallel_renders_byte_identically() {
    let serial = table2(&Table2Options::quick(VmFlavor::Jikes, 0.03)).unwrap();
    for jobs in [2, 4, 9] {
        let sharded =
            table2(&Table2Options::quick(VmFlavor::Jikes, 0.03).with_jobs(Parallelism::jobs(jobs)))
                .unwrap();
        assert_eq!(
            serial.render(),
            sharded.render(),
            "table2 with jobs={jobs} must render byte-identically"
        );
        for (a, b) in serial.cells.iter().zip(&sharded.cells) {
            assert_eq!(a.overhead_pct.to_bits(), b.overhead_pct.to_bits());
            assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
        }
    }
}

#[test]
fn table3_parallel_renders_byte_identically() {
    let benches = [Benchmark::Jess, Benchmark::Mtrt];
    let a = table3_with(0.03, Some(&benches), Parallelism::SERIAL)
        .unwrap()
        .render();
    let b = table3_with(0.03, Some(&benches), Parallelism::jobs(3))
        .unwrap()
        .render();
    assert_eq!(a, b);
}
