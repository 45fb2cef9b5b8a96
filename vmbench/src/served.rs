//! `served`: `nproc` clients send a fixed seeded mix through one
//! multi-tenant `QueryService`. Tenant `gold` (weight 8) sends small Q6
//! at Interactive and Q1 at Normal priority; tenant `batch` (weight 1,
//! its own memory budget) sends Q18 at Batch priority, 6:1:1.
//! Per-query costs dominate here: admission, queue wait, dispatch,
//! per-query `ParallelVm` set-up and JIT cache lookups.

use std::sync::Arc;
use std::time::Duration;

use adaptvm_parallel::{
    MemoryBudget, Priority, QueryService, Scheduler, ServeConfig, TenantId, TenantQuota,
    TenantRegistry, Trace,
};
use adaptvm_relational::parallel::{q18_parallel_vm, q1_parallel_vectorized, ParallelOpts};
use adaptvm_relational::tpch::{self, KeyDist, Q18Row, Q1Row};
use adaptvm_storage::schema::Table;
use adaptvm_storage::DEFAULT_CHUNK;
use adaptvm_vm::VmConfig;

use crate::check::{q18_matches, q1_matches};
use crate::join_spill::Q18_THRESHOLD;
use crate::measure::time_median;
use crate::scan::{q6_call, Q6_DATE_LO};
use crate::workload::{Call, Query, Workload};

/// Input sizes of one `served` set-up.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Lineitems Q6 and Q1 scan.
    pub scan_rows: usize,
    /// Q18 lineitems.
    pub q18_rows: usize,
    /// Q18 orders.
    pub q18_orders: usize,
    /// Tenant `batch`'s memory budget in bytes.
    pub batch_budget: usize,
}

/// The `served` workload's state.
pub struct Served {
    service: QueryService,
    gold: TenantId,
    batch: TenantId,
    clients: usize,
    seed: u64,
    lineitem: Table,
    q6_want: f64,
    q1_want: Vec<Q1Row>,
    q18_orders: Table,
    q18_lineitem: Table,
    q18_want: Vec<Q18Row>,
}

/// SplitMix64: the request mix's deterministic generator.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The query request `seq` of `client` sends under `seed`. Every block
/// of eight consecutive requests holds exactly six Q6, one Q1 and one
/// Q18, in an order shuffled by `seed`, so every seed and every window
/// sends the same mix.
pub fn pick(seed: u64, client: usize, seq: u64) -> Query {
    let mut block = [
        Query::Q6,
        Query::Q6,
        Query::Q6,
        Query::Q6,
        Query::Q6,
        Query::Q6,
        Query::Q1,
        Query::Q18,
    ];
    let mut state = splitmix(seed ^ ((client as u64) << 48)) ^ (seq / 8);
    for i in (1..block.len()).rev() {
        state = splitmix(state);
        block.swap(i, (state % (i as u64 + 1)) as usize);
    }
    block[(seq % 8) as usize]
}

impl Served {
    /// Generate every input from `seed`, compute the oracles, and start a
    /// service with `workers` threads for `clients` clients.
    pub fn setup(seed: u64, sizes: Sizes, workers: usize, clients: usize) -> Served {
        let lineitem = tpch::lineitem(sizes.scan_rows, seed);
        let q6_want = tpch::q6_reference(&lineitem, Q6_DATE_LO);
        let q1_want = tpch::q1_reference(&lineitem);
        let q18_orders = tpch::orders(sizes.q18_orders, seed);
        let q18_lineitem =
            tpch::lineitem_q18(sizes.q18_rows, sizes.q18_orders, KeyDist::Zipf, seed);
        let q18_want = tpch::q18_reference(&q18_lineitem, &q18_orders, Q18_THRESHOLD);
        let mut tenants = TenantRegistry::new();
        let gold = tenants.register("gold", TenantQuota::new().with_weight(8));
        let batch = tenants.register(
            "batch",
            TenantQuota::new()
                .with_weight(1)
                .with_budget(Arc::new(MemoryBudget::bytes(sizes.batch_budget))),
        );
        let config = ServeConfig::default()
            .with_workers(workers)
            .with_max_concurrent(workers);
        Served {
            service: QueryService::with_tenants(config, tenants),
            gold,
            batch,
            clients,
            seed,
            lineitem,
            q6_want,
            q1_want,
            q18_orders,
            q18_lineitem,
            q18_want,
        }
    }
}

impl Workload for Served {
    fn clients(&self) -> usize {
        self.clients
    }

    fn request(&self, client: usize, seq: u64, trace: Option<&Trace>) -> (Priority, Vec<Call>) {
        let query = pick(self.seed, client, seq);
        let (priority, tenant) = match query {
            Query::Q6 => (Priority::Interactive, self.gold),
            Query::Q1 => (Priority::Normal, self.gold),
            _ => (Priority::Batch, self.batch),
        };
        let mut opts = ParallelOpts::served(&self.service, priority).with_tenant(tenant);
        if let Some(t) = trace {
            opts = opts.with_trace(t);
        }
        let call = match query {
            Query::Q6 => q6_call(&self.lineitem, self.q6_want, opts),
            Query::Q1 => Call::run(
                Query::Q1,
                || q1_parallel_vectorized(&self.lineitem, DEFAULT_CHUNK, opts),
                |rows, _| q1_matches(rows, &self.q1_want),
            ),
            _ => Call::run(
                Query::Q18,
                || {
                    q18_parallel_vm(
                        &self.q18_lineitem,
                        &self.q18_orders,
                        Q18_THRESHOLD,
                        VmConfig::default(),
                        opts,
                    )
                },
                |(rows, spill), call| {
                    call.spill = Some(*spill);
                    q18_matches(rows, &self.q18_want)
                },
            ),
        };
        (priority, vec![call])
    }

    fn scheduler(&self) -> &Scheduler {
        self.service.scheduler()
    }

    fn service(&self) -> Option<&QueryService> {
        Some(&self.service)
    }

    fn oracle_times(&self) -> Vec<(Query, Duration)> {
        vec![
            (
                Query::Q1,
                time_median(5, || tpch::q1_reference(&self.lineitem)),
            ),
            (
                Query::Q6,
                time_median(5, || tpch::q6_reference(&self.lineitem, Q6_DATE_LO)),
            ),
            (
                Query::Q18,
                time_median(5, || {
                    tpch::q18_reference(&self.q18_lineitem, &self.q18_orders, Q18_THRESHOLD)
                }),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_seeded_and_exactly_six_one_one_per_block() {
        let draws = |seed, client| (0..800).map(|s| pick(seed, client, s)).collect::<Vec<_>>();
        assert_eq!(draws(7, 0), draws(7, 0));
        assert_ne!(draws(7, 0), draws(8, 0));
        assert_ne!(draws(7, 0), draws(7, 1));
        for block in draws(7, 0).chunks(8) {
            let count = |q| block.iter().filter(|&&d| d == q).count();
            assert_eq!(
                (count(Query::Q6), count(Query::Q1), count(Query::Q18)),
                (6, 1, 1)
            );
        }
    }
}
