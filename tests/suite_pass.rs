//! One pass over the suite renders each experiment exactly as the
//! experiment renders alone. Tables 1–3 and the workload shapes read the
//! same (program, flavor) runs, attached profilers never change one
//! another's numbers, and each experiment folds in its own order.

use cbs_repro::experiments::{
    suite_renders, table1_with, table2, table3_with, workload_shapes_with, SuiteExperiment,
    Table2Options,
};
use cbs_repro::prelude::*;

const SCALE: f64 = 0.005;

#[test]
fn each_experiment_alone_renders_its_part_of_the_shared_pass() {
    for jobs in [Parallelism::SERIAL, Parallelism::jobs(3)] {
        let shared = suite_renders(
            SCALE,
            jobs,
            &[
                SuiteExperiment::Table1,
                SuiteExperiment::Table2A,
                SuiteExperiment::Table2B,
                SuiteExperiment::Table3,
                SuiteExperiment::Shapes,
            ],
        )
        .unwrap();
        let grid = |flavor| Table2Options {
            scale: SCALE,
            flavor,
            jobs,
            ..Table2Options::default()
        };
        let alone = [
            table1_with(SCALE, jobs).unwrap().render(),
            table2(&grid(VmFlavor::Jikes)).unwrap().render(),
            table2(&grid(VmFlavor::J9)).unwrap().render(),
            table3_with(SCALE, None, jobs).unwrap().render(),
            workload_shapes_with(SCALE, jobs).unwrap().render(),
        ];
        assert_eq!(shared, alone, "jobs = {jobs}");
    }
}
