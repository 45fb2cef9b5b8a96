//! `join_spill`: one client runs report passes of Q3 (adaptive join +
//! Bloom), Q9 (mixed-key chain under the reorder controller) and Q18
//! (spilling aggregate + VM HAVING) on a long-lived scheduler. The
//! relational join/aggregate operators, the spill codec and its I/O, and
//! the memory budget do most of the work; Q18's input is larger than its
//! budget, so part of its aggregate spills on every pass.

use std::time::Duration;

use adaptvm_parallel::{MemoryBudget, Priority, Scheduler, Trace};
use adaptvm_relational::parallel::{q18_parallel_vm, q3_parallel, q9_parallel, ParallelOpts};
use adaptvm_relational::tpch::{self, JoinStrategy, KeyDist, Q18Row, Q9Data, Q9Row};
use adaptvm_storage::schema::Table;
use adaptvm_storage::DEFAULT_CHUNK;
use adaptvm_vm::VmConfig;

use crate::check::{close, q18_matches, q9_matches};
use crate::measure::time_median;
use crate::workload::{Call, Query, Workload};

/// Input sizes of one `join_spill` set-up.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Q3 lineitems (orders are an eighth of this).
    pub q3_rows: usize,
    /// Q9 lineitems.
    pub q9_rows: usize,
    /// Q18 lineitems.
    pub q18_rows: usize,
    /// Q18 orders (the group-key domain).
    pub q18_orders: usize,
    /// Q18's memory budget in bytes.
    pub q18_budget: usize,
}

/// Q18 keeps orders whose total quantity exceeds this.
pub const Q18_THRESHOLD: f64 = 300.0;
/// Q9's reorder controller re-plans every this many batches.
const Q9_EVERY: u64 = 2;
/// Q9 lineitems per reorder observation.
const Q9_BATCH_ROWS: usize = 2_048;

/// The `join_spill` workload's state.
pub struct JoinSpill {
    scheduler: Scheduler,
    q3_orders: Table,
    q3_lineitem: Table,
    q3_want: f64,
    q9: Q9Data,
    q9_want: Vec<Q9Row>,
    q18_orders: Table,
    q18_lineitem: Table,
    q18_want: Vec<Q18Row>,
    q18_budget: MemoryBudget,
}

fn q3_date() -> i64 {
    tpch::SHIPDATE_MAX / 2
}

impl JoinSpill {
    /// Generate every input from `seed`, compute the oracles, and start a
    /// scheduler with `workers` threads.
    pub fn setup(seed: u64, sizes: Sizes, workers: usize) -> JoinSpill {
        let q3_orders = tpch::orders(sizes.q3_rows / 8, seed);
        let q3_lineitem = tpch::lineitem_q3(sizes.q3_rows, sizes.q3_rows / 8, seed);
        let q3_want = tpch::q3_reference(&q3_lineitem, &q3_orders, q3_date());
        let q9 = tpch::q9_data(sizes.q9_rows, 2_000, 64, 8, KeyDist::Zipf, seed);
        let q9_want = tpch::q9_reference(&q9);
        let q18_orders = tpch::orders(sizes.q18_orders, seed);
        let q18_lineitem =
            tpch::lineitem_q18(sizes.q18_rows, sizes.q18_orders, KeyDist::Zipf, seed);
        let q18_want = tpch::q18_reference(&q18_lineitem, &q18_orders, Q18_THRESHOLD);
        JoinSpill {
            scheduler: Scheduler::new(workers),
            q3_orders,
            q3_lineitem,
            q3_want,
            q9,
            q9_want,
            q18_orders,
            q18_lineitem,
            q18_want,
            q18_budget: MemoryBudget::bytes(sizes.q18_budget),
        }
    }
}

impl Workload for JoinSpill {
    fn clients(&self) -> usize {
        1
    }

    fn request(&self, _client: usize, _seq: u64, trace: Option<&Trace>) -> (Priority, Vec<Call>) {
        let mut opts = ParallelOpts::on(&self.scheduler);
        if let Some(t) = trace {
            opts = opts.with_trace(t);
        }
        let q3 = Call::run(
            Query::Q3,
            || {
                q3_parallel(
                    &self.q3_lineitem,
                    &self.q3_orders,
                    q3_date(),
                    JoinStrategy::Adaptive,
                    DEFAULT_CHUNK,
                    true,
                    opts,
                )
            },
            |(revenue, _), _| close(*revenue, self.q3_want),
        );
        let q9 = Call::run(
            Query::Q9,
            || q9_parallel(&self.q9, Q9_BATCH_ROWS, true, Q9_EVERY, opts),
            |(rows, reorders), call| {
                call.reorders = Some(*reorders);
                q9_matches(rows, &self.q9_want)
            },
        );
        let q18 = Call::run(
            Query::Q18,
            || {
                q18_parallel_vm(
                    &self.q18_lineitem,
                    &self.q18_orders,
                    Q18_THRESHOLD,
                    VmConfig::default(),
                    opts.with_budget(&self.q18_budget),
                )
            },
            |(rows, spill), call| {
                call.spill = Some(*spill);
                q18_matches(rows, &self.q18_want)
            },
        );
        (Priority::Interactive, vec![q3, q9, q18])
    }

    fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    fn oracle_times(&self) -> Vec<(Query, Duration)> {
        vec![
            (
                Query::Q3,
                time_median(5, || {
                    tpch::q3_reference(&self.q3_lineitem, &self.q3_orders, q3_date())
                }),
            ),
            (Query::Q9, time_median(5, || tpch::q9_reference(&self.q9))),
            (
                Query::Q18,
                time_median(5, || {
                    tpch::q18_reference(&self.q18_lineitem, &self.q18_orders, Q18_THRESHOLD)
                }),
            ),
        ]
    }
}
