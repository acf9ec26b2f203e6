//! Reproductions of every table and figure in the paper's evaluation.
//!
//! Each experiment is one function returning a data structure with a
//! `render()` method producing a paper-style text table. All experiments
//! take a `scale` factor on benchmark running time: `1.0` reproduces the
//! paper-scale runs (use the `repro` binary); tests use small scales.
//! The sharded ones take `jobs` ([`Parallelism`](crate::Parallelism);
//! `SERIAL` for one thread) and render identically for any value.
//!
//! | Paper artifact | Function |
//! |---|---|
//! | Table 1 (benchmark characteristics) | [`table1_with`] |
//! | Table 2A/2B (overhead & accuracy grid) | [`table2`] |
//! | Table 3 (per-benchmark breakdown) | [`table3_with`] |
//! | Figure 1 (timer-sampling pathology) | [`figure1_demo`] |
//! | Figure 5 (inlining speedups) | [`figure5_with`] |
//! | §5.1 old-vs-new inliner | [`inliner_ablation_with`] |
//! | §3.1 exhaustive-counter cost | [`exhaustive_overhead_with`] |
//! | §3.2 burst-profiling hazard | [`patching_vs_cbs_with`] |
//! | Fleet aggregation (beyond the paper) | [`fleet_with`] |
//! | Fleet exploitation (beyond the paper) | [`fleet_optimize_with`] |

mod ablations;
mod figure1;
mod figure5;
mod fleet;
mod fleet_optimize;
mod table1;
mod table2;
mod table3;

pub use ablations::{
    context_sensitivity_with, exhaustive_overhead_with, frequency_sweep, hardware_vs_cbs_with,
    inline_depth_ablation_with, inliner_ablation_with, patching_vs_cbs_with, AblationRow,
    ContextSensitivity, DepthAblation, ExhaustiveOverhead, FrequencySweep, HardwareComparison,
    InlinerAblation, PatchingComparison,
};
pub use figure1::{figure1_demo, Figure1Demo, Figure1Row};
pub use figure5::{figure5_with, Figure5, Figure5Row, FIGURE5_BENCHMARKS};
pub use fleet::{
    fleet_faults_with, fleet_with, Fleet, FleetFaults, FleetFaultsRow, FleetRow, FLEET_SIZE,
};
pub use fleet_optimize::{fleet_optimize_with, FleetOptimize, FleetOptimizeRow};
pub use table1::{table1_with, workload_shapes_with, Table1, Table1Row, WorkloadShapes};
pub use table2::{table2, Table2, Table2Cell, Table2Options};
pub use table3::{table3_with, Table3, Table3Row};

use cbs_bytecode::BuildError;
use cbs_vm::VmError;
use std::error::Error;
use std::fmt;

/// An experiment failure: workload generation, VM trap, or (for the
/// service-backed fleet experiments) a profile-transport failure that
/// outlived every retry.
#[derive(Debug)]
pub enum ExperimentError {
    /// Workload generation failed (generator bug).
    Build(BuildError),
    /// The VM trapped while running a workload.
    Vm(VmError),
    /// The profile service could not be reached or exhausted retries.
    Transport(String),
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Build(e) => write!(f, "workload generation failed: {e}"),
            ExperimentError::Vm(e) => write!(f, "benchmark trapped: {e}"),
            ExperimentError::Transport(msg) => write!(f, "profile transport failed: {msg}"),
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Build(e) => Some(e),
            ExperimentError::Vm(e) => Some(e),
            ExperimentError::Transport(_) => None,
        }
    }
}

impl From<BuildError> for ExperimentError {
    fn from(e: BuildError) -> Self {
        ExperimentError::Build(e)
    }
}

impl From<VmError> for ExperimentError {
    fn from(e: VmError) -> Self {
        ExperimentError::Vm(e)
    }
}
