//! `scan`: one client runs TPC-H Q6 back to back through the adaptive VM
//! on a long-lived scheduler. Per-row chassis cost does nearly all the
//! work: VM interpretation and traces, the filter/map/fold kernels,
//! morsel slicing, the per-morsel DSL front end and JIT installs.

use std::time::Duration;

use adaptvm_parallel::{Priority, Scheduler, Trace};
use adaptvm_relational::parallel::{q6_parallel, ParallelOpts};
use adaptvm_relational::tpch;
use adaptvm_storage::schema::Table;
use adaptvm_vm::VmConfig;

use crate::check::close;
use crate::measure::time_median;
use crate::workload::{Call, Query, VmTally, Workload};

/// Q6's shipdate window starts here (days; the window is one year).
pub const Q6_DATE_LO: i64 = 1000;

/// The `scan` workload's state.
pub struct Scan {
    scheduler: Scheduler,
    table: Table,
    want: f64,
}

impl Scan {
    /// Generate `rows` lineitems from `seed`, compute the oracle, and
    /// start a scheduler with `workers` threads.
    pub fn setup(seed: u64, rows: usize, workers: usize) -> Scan {
        let table = tpch::lineitem(rows, seed);
        let want = tpch::q6_reference(&table, Q6_DATE_LO);
        Scan {
            scheduler: Scheduler::new(workers),
            table,
            want,
        }
    }
}

/// One Q6 call on `opts`, checked against `want`.
pub fn q6_call(table: &Table, want: f64, opts: ParallelOpts<'_>) -> Call {
    Call::run(
        Query::Q6,
        || q6_parallel(table, Q6_DATE_LO, VmConfig::default(), opts),
        |(revenue, report), call| {
            call.vm = Some(VmTally::from(report));
            close(*revenue, want)
        },
    )
}

impl Workload for Scan {
    fn clients(&self) -> usize {
        1
    }

    fn request(&self, _client: usize, _seq: u64, trace: Option<&Trace>) -> (Priority, Vec<Call>) {
        let mut opts = ParallelOpts::on(&self.scheduler);
        if let Some(t) = trace {
            opts = opts.with_trace(t);
        }
        (
            Priority::Interactive,
            vec![q6_call(&self.table, self.want, opts)],
        )
    }

    fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    fn oracle_times(&self) -> Vec<(Query, Duration)> {
        vec![(
            Query::Q6,
            time_median(5, || tpch::q6_reference(&self.table, Q6_DATE_LO)),
        )]
    }
}
