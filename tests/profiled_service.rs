//! Cross-crate service test: real benchmark VMs profiled with CBS,
//! streamed over the real TCP service, reconstructed bit-exactly.

use cbs_core::prelude::*;
use cbs_core::profiled::{serve, AggregatorConfig, NetConfig, ProfileClient, ShardedAggregator};
use std::sync::Arc;

/// Collects one CBS profile of `bench` with a replica-specific sampler.
fn vm_profile(bench: Benchmark, stride: u32, seed: u64) -> DynamicCallGraph {
    let spec = bench.spec(InputSize::Small).scaled(0.02);
    let program = cbs_core::workloads::generator::build(&spec).expect("builds");
    let config = VmConfig {
        timer_seed: seed,
        ..VmConfig::default()
    };
    let m = measure(
        &program,
        config,
        vec![Box::new(CounterBasedSampler::new(CbsConfig::new(
            stride, 16,
        )))],
    )
    .expect("runs");
    m.outcomes[0].dcg.clone()
}

#[test]
fn real_vm_profiles_round_trip_through_the_service() {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::default()));
    let server = serve("127.0.0.1:0", agg, NetConfig::default()).expect("binds");

    // Three decorrelated VMs of the same benchmark, pushed serially so
    // the aggregation order (and thus every merged f64) is fixed.
    let profiles: Vec<DynamicCallGraph> = [(3u32, 1u64), (5, 2), (7, 3)]
        .into_iter()
        .map(|(stride, seed)| vm_profile(Benchmark::Jess, stride, seed))
        .collect();
    let mut client = ProfileClient::connect(server.addr(), NetConfig::default()).expect("connects");
    for p in &profiles {
        client.push_snapshot(p).expect("accepted");
    }

    let pulled = client.pull().expect("pull succeeds");
    let merged = server.aggregator().merged_snapshot();
    assert_eq!(pulled, merged, "wire round-trip is lossless");
    for (e, w) in merged.iter() {
        assert_eq!(pulled.weight(e).to_bits(), w.to_bits(), "edge {e}");
    }
    assert_eq!(
        pulled.total_weight().to_bits(),
        merged.total_weight().to_bits()
    );

    // The fleet profile is at least as accurate as its members against
    // any one VM's view of the program: it contains every sampled edge.
    for p in &profiles {
        for (e, _) in p.iter() {
            assert!(pulled.weight(e) > 0.0, "fleet profile lost edge {e}");
        }
    }
    server.shutdown();
}

#[test]
fn fleet_experiment_is_deterministic_across_job_counts() {
    let serial = cbs_core::experiments::fleet_with(0.01, Parallelism::SERIAL).expect("runs");
    let parallel = cbs_core::experiments::fleet_with(0.01, Parallelism::jobs(4)).expect("runs");
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(
        serial.mean_fleet.to_bits(),
        parallel.mean_fleet.to_bits(),
        "aggregation totals are bit-identical for any --jobs"
    );
}
