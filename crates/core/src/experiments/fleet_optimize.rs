//! Fleet exploitation: the pooled profile, served back as an inlining
//! plan, beats the best any single VM can do alone.
//!
//! The collection half of the pipeline (the [`fleet`](super::fleet)
//! experiment) shows pooling decorrelated CBS profiles recovers a more
//! accurate call graph. This experiment closes the paper's loop on the
//! *exploitation* side: `K` VMs run each benchmark under counter-based
//! sampling and stream their profiles — one snapshot frame plus one
//! delta frame each, over real loopback TCP — into the `cbs-profiled`
//! daemon; a client then pulls the daemon's versioned fleet inlining
//! plan (`OP_PLAN`, built server-side with [`cbs_inliner::build_plan`]
//! from the merged snapshot) and a [`FleetAdaptiveController`] applies
//! it to a fresh copy of the benchmark. The fleet-transformed program's
//! cycle count is compared against (a) the untransformed baseline and
//! (b) the *best* of the `K` programs transformed from each VM's own
//! single-VM plan.
//!
//! Pooling recovers call-graph edges and receiver distributions any
//! single sampled profile may miss, so the fleet plan's total cycle
//! count across the suite must be at least as good as the best
//! single-VM plan's — asserted by the tier-1 tests and visible in the
//! rendered table's two speedup columns.
//!
//! Determinism: each benchmark's VM cells and transformed runs go through
//! [`run_cells`] (input-order results), profiles are streamed serially in
//! VM order, plan building is deterministic per snapshot generation, and
//! the simulated clock is exact — the render is bit-identical for any
//! `--jobs` value.

use super::fleet::{transport, FLEET_SIZE, STRIDES};
use super::ExperimentError;
use crate::parallel::{run_cells, Parallelism};
use crate::render::{f2, TextTable};
use cbs_adaptive::{AdaptiveConfig, FleetAdaptiveController};
use cbs_bytecode::Program;
use cbs_dcg::DynamicCallGraph;
use cbs_inliner::{build_plan, InlinePlan, NewLinearPolicy};
use cbs_profiled::{serve, AggregatorConfig, NetConfig, ProfileClient, ShardedAggregator};
use cbs_profiler::{CallGraphProfiler, CbsConfig, CounterBasedSampler};
use cbs_vm::{Value, Vm, VmConfig};
use cbs_workloads::{Benchmark, InputSize};
use std::sync::Arc;

/// Samples per CBS window for the exploitation fleet — deliberately in
/// the paper's *low-overhead* operating regime, far sparser than the
/// accuracy experiments: each VM's own profile is individually noisy
/// and incomplete, which is exactly the deployment where pooling pays.
const SPARSE_SAMPLES_PER_WINDOW: u32 = 2;

/// One benchmark's fleet-exploitation outcome.
#[derive(Debug, Clone)]
pub struct FleetOptimizeRow {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// VMs in this benchmark's fleet.
    pub vms: usize,
    /// Entries in the served fleet plan.
    pub plan_entries: usize,
    /// Snapshot generation the served plan was built from.
    pub generation: u64,
    /// Splices applied when the fleet plan was applied.
    pub fleet_inlines: usize,
    /// Cycles of the untransformed program.
    pub base_cycles: u64,
    /// Cycles of the best program among the `K` single-VM-plan
    /// transformations.
    pub best_single_cycles: u64,
    /// Cycles of the fleet-plan-transformed program.
    pub fleet_cycles: u64,
    /// Whether every transformed program returned the same values as
    /// the baseline.
    pub results_preserved: bool,
}

impl FleetOptimizeRow {
    /// Percent of baseline cycles removed by the best single-VM plan.
    pub fn single_speedup(&self) -> f64 {
        speedup(self.base_cycles, self.best_single_cycles)
    }

    /// Percent of baseline cycles removed by the fleet plan.
    pub fn fleet_speedup(&self) -> f64 {
        speedup(self.base_cycles, self.fleet_cycles)
    }
}

fn speedup(base: u64, transformed: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        100.0 * (base as f64 - transformed as f64) / base as f64
    }
}

/// The fleet-exploitation experiment report.
#[derive(Debug, Clone)]
pub struct FleetOptimize {
    /// Per-benchmark rows, suite order.
    pub rows: Vec<FleetOptimizeRow>,
    /// Suite-total baseline cycles.
    pub total_base: u64,
    /// Suite-total cycles under each benchmark's best single-VM plan.
    pub total_best_single: u64,
    /// Suite-total cycles under the fleet plans.
    pub total_fleet: u64,
}

impl FleetOptimize {
    /// Whether the fleet plan met or beat the best single-VM plan on
    /// suite-total cycles.
    pub fn fleet_wins(&self) -> bool {
        self.total_fleet <= self.total_best_single
    }

    /// Whether every transformed program preserved the baseline's
    /// return values.
    pub fn all_results_preserved(&self) -> bool {
        self.rows.iter().all(|r| r.results_preserved)
    }

    /// Renders the report table with a trailing `MEAN` row and a
    /// pass/fail footer on the pooled-vs-single comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            format!(
                "Fleet exploitation: {FLEET_SIZE} CBS VMs per benchmark stream \
                 profiles to the daemon; programs re-run under the served \
                 OP_PLAN fleet plan vs each VM's own plan"
            ),
            &[
                "Benchmark",
                "VMs",
                "Plan",
                "Inl",
                "Base (cyc)",
                "Single (cyc)",
                "Fleet (cyc)",
                "Single (%)",
                "Fleet (%)",
            ],
        );
        for r in &self.rows {
            t.row([
                r.benchmark.name().to_owned(),
                r.vms.to_string(),
                r.plan_entries.to_string(),
                r.fleet_inlines.to_string(),
                r.base_cycles.to_string(),
                r.best_single_cycles.to_string(),
                r.fleet_cycles.to_string(),
                f2(r.single_speedup()),
                f2(r.fleet_speedup()),
            ]);
        }
        let n = self.rows.len().max(1) as f64;
        t.row([
            "MEAN".to_owned(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            f2(self
                .rows
                .iter()
                .map(FleetOptimizeRow::single_speedup)
                .sum::<f64>()
                / n),
            f2(self
                .rows
                .iter()
                .map(FleetOptimizeRow::fleet_speedup)
                .sum::<f64>()
                / n),
        ]);
        format!(
            "{}total cycles: base {}, best single-VM plan {}, fleet plan {}\n\
             pooled plan meets or beats the best single-VM plan: {}\n\
             transformed programs preserve baseline results: {}\n",
            t,
            self.total_base,
            self.total_best_single,
            self.total_fleet,
            if self.fleet_wins() { "yes" } else { "NO" },
            if self.all_results_preserved() {
                "yes"
            } else {
                "NO"
            },
        )
    }
}

/// Runs one VM replica of `program` under sparse CBS (a
/// replica-specific stride and timer seed, [`SPARSE_SAMPLES_PER_WINDOW`]
/// samples per window) and returns its sampled call graph.
fn run_sparse_replica(
    program: &Program,
    replica: usize,
) -> Result<DynamicCallGraph, ExperimentError> {
    let vm_config = VmConfig {
        // Decorrelate the replicas' timer phases; execution is
        // unaffected.
        timer_seed: 0xF1EE7 + replica as u64,
        ..VmConfig::default()
    };
    let mut cbs = CounterBasedSampler::new(CbsConfig::new(
        STRIDES[replica % STRIDES.len()],
        SPARSE_SAMPLES_PER_WINDOW,
    ));
    Vm::new(program, vm_config).run_with(&mut cbs)?;
    Ok(cbs.take_dcg())
}

/// Streams one VM's sampled profile over the wire the way a
/// periodically-flushing VM would: the first half of its edges as a
/// snapshot frame, the remainder as one delta frame.
fn stream_over_wire(
    graph: &DynamicCallGraph,
    client: &mut ProfileClient,
) -> Result<(), ExperimentError> {
    let edges: Vec<_> = graph.iter().map(|(e, w)| (*e, w)).collect();
    let split = edges.len() / 2;
    let mut live = DynamicCallGraph::new();
    for &(e, w) in &edges[..split] {
        live.record(e, w);
    }
    client.push_snapshot(&live).map_err(transport)?;
    client.push_delta(&edges[split..]).map_err(transport)?;
    Ok(())
}

/// Serves one benchmark's fleet over loopback TCP and pulls the fleet
/// plan back, checking the served bytes are stable across pulls.
fn pull_fleet_plan(fleet: &[DynamicCallGraph]) -> Result<InlinePlan, ExperimentError> {
    let agg = Arc::new(ShardedAggregator::new(AggregatorConfig::with_shards(4)));
    let server = serve("127.0.0.1:0", agg, NetConfig::default()).map_err(transport)?;
    let mut client =
        ProfileClient::connect(server.addr(), NetConfig::default()).map_err(transport)?;
    for vm in fleet {
        stream_over_wire(vm, &mut client)?;
    }
    let plan = client.pull_plan().map_err(transport)?;
    // The aggregate is unchanged, so the second pull must serve the
    // identical (cached) plan.
    let again = client.pull_plan().map_err(transport)?;
    if again.render() != plan.render() {
        return Err(transport(
            "OP_PLAN served two different plans for one generation",
        ));
    }
    server.shutdown();
    Ok(plan)
}

/// One transformed (or baseline) execution of a benchmark.
struct RunOutcome {
    cycles: u64,
    return_values: Vec<Value>,
    inlines: usize,
}

/// Takes a fresh copy of `program`, optionally applies `plan` through a
/// [`FleetAdaptiveController`], and runs it unprofiled.
fn transformed_run(
    program: &Program,
    plan: Option<&InlinePlan>,
) -> Result<RunOutcome, ExperimentError> {
    let mut ctl = FleetAdaptiveController::new(program.clone(), AdaptiveConfig::default());
    let mut inlines = 0;
    if let Some(plan) = plan {
        ctl.apply_fleet_plan(plan);
        inlines = ctl
            .last_report()
            .map(cbs_inliner::InlineReport::total_inlines)
            .unwrap_or(0);
    }
    let exec = ctl.run()?;
    Ok(RunOutcome {
        cycles: exec.cycles,
        return_values: exec.return_values,
        inlines,
    })
}

/// Runs the fleet-exploitation experiment, VM replicas and transformed
/// runs sharded across `jobs` worker threads. Output is bit-identical
/// for any `jobs` value — see the module docs.
///
/// # Errors
///
/// Propagates generation, VM, or profile-transport failures.
pub fn fleet_optimize_with(
    scale: f64,
    jobs: Parallelism,
) -> Result<FleetOptimize, ExperimentError> {
    let policy = NewLinearPolicy::default();
    let mut rows = Vec::new();
    for bench in Benchmark::all() {
        // Generated once: the replicas share the program, the
        // transformed runs each clone it, and it is gone before the next
        // benchmark's is built.
        let program = cbs_workloads::generator::build(&bench.spec(InputSize::Small).scaled(scale))?;

        // Collect: the benchmark's VM replicas, in parallel.
        let fleet = run_cells((0..FLEET_SIZE).collect(), jobs, |replica| {
            run_sparse_replica(&program, replica)
        })?;

        // Stream the fleet's profiles through the live service
        // (serially, in VM order) and pull the served plan; build each
        // VM's single-VM plan locally from its own sampled graph with the
        // same policy. Plan building is cheap — only the runs are worth
        // parallelizing.
        let fleet_plan = pull_fleet_plan(&fleet)?;
        let single_plans: Vec<InlinePlan> =
            fleet.iter().map(|vm| build_plan(vm, &policy, 0)).collect();

        // Exploit: baseline, fleet plan and the K single-VM plans, in
        // parallel (input order keeps results deterministic).
        let variants: Vec<Option<&InlinePlan>> = [None, Some(&fleet_plan)]
            .into_iter()
            .chain(single_plans.iter().map(Some))
            .collect();
        let outcomes = run_cells(variants, jobs, |plan| transformed_run(&program, plan))?;
        let (base, fleet_run, singles) = (&outcomes[0], &outcomes[1], &outcomes[2..]);
        rows.push(FleetOptimizeRow {
            benchmark: bench,
            vms: FLEET_SIZE,
            plan_entries: fleet_plan.entries.len(),
            generation: fleet_plan.generation,
            fleet_inlines: fleet_run.inlines,
            base_cycles: base.cycles,
            best_single_cycles: singles
                .iter()
                .map(|o| o.cycles)
                .min()
                .unwrap_or(base.cycles),
            fleet_cycles: fleet_run.cycles,
            results_preserved: outcomes[1..]
                .iter()
                .all(|o| o.return_values == base.return_values),
        });
    }
    Ok(FleetOptimize {
        total_base: rows.iter().map(|r| r.base_cycles).sum(),
        total_best_single: rows.iter().map(|r| r.best_single_cycles).sum(),
        total_fleet: rows.iter().map(|r| r.fleet_cycles).sum(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooled_plan_meets_or_beats_the_best_single_vm_plan() {
        let f = fleet_optimize_with(0.02, Parallelism::SERIAL).unwrap();
        assert_eq!(f.rows.len(), 13);
        for r in &f.rows {
            assert_eq!(r.vms, FLEET_SIZE);
            assert!(r.results_preserved, "{} changed results", r.benchmark);
            assert!(r.base_cycles > 0);
            // Each fleet pushed 4 snapshot + 4 delta frames.
            assert_eq!(r.generation, 2 * FLEET_SIZE as u64);
        }
        // The pooled profile subsumes every single-VM profile, so the
        // served plan must do at least as well in aggregate.
        assert!(
            f.fleet_wins(),
            "fleet {} vs best single {}",
            f.total_fleet,
            f.total_best_single
        );
        assert!(
            f.total_fleet <= f.total_base,
            "fleet plans must not slow the suite"
        );
        // The plans did real work somewhere in the suite.
        assert!(f.rows.iter().map(|r| r.fleet_inlines).sum::<usize>() > 0);
        assert!(f.rows.iter().map(|r| r.plan_entries).sum::<usize>() > 0);
        let text = f.render();
        assert!(text.contains("MEAN"));
        assert!(text.contains("pooled plan meets or beats the best single-VM plan: yes"));
        assert!(text.contains("transformed programs preserve baseline results: yes"));
    }

    #[test]
    fn fleet_optimize_is_bit_identical_for_any_job_count() {
        let serial = fleet_optimize_with(0.01, Parallelism::SERIAL).unwrap();
        for jobs in [2, 5] {
            let par = fleet_optimize_with(0.01, Parallelism::jobs(jobs)).unwrap();
            assert_eq!(par.render(), serial.render(), "jobs={jobs}");
        }
        // Rerunning at the same scale is also bit-identical (plan
        // building, the simulated clock, and generations are all
        // deterministic).
        let again = fleet_optimize_with(0.01, Parallelism::SERIAL).unwrap();
        assert_eq!(again.render(), serial.render());
    }
}
