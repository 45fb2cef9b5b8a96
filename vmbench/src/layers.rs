//! Layer probes: each layer's public functions timed directly on a Q6
//! table, so a change to one layer shows in that layer's numbers even
//! where an end-to-end figure hides it. Every probe is one span in the
//! run's span log.

use std::time::{Duration, Instant};

use adaptvm_dsl::ast::{FoldFn, ScalarOp};
use adaptvm_dsl::normalize::normalize_program;
use adaptvm_dsl::typecheck::{check_program, TypeEnv};
use adaptvm_kernels::filter::filter_bools;
use adaptvm_kernels::{filter_cmp, fold_apply, map_apply, FilterFlavor, MapMode, Operand};
use adaptvm_parallel::{Morsel, MorselPlan, Scheduler};
use adaptvm_relational::parallel::{q6_parallel, ParallelOpts};
use adaptvm_relational::tpch;
use adaptvm_storage::scalar::{Scalar, ScalarType};
use adaptvm_storage::schema::Table;
use adaptvm_storage::{Array, DEFAULT_CHUNK};
use adaptvm_vm::{Strategy, Vm, VmConfig};

use crate::measure::{median, time_median};
use crate::scan::Q6_DATE_LO;
use crate::spans::SpanLog;

/// Rows per morsel the slicing probe cuts (the scheduler's largest
/// elastic morsel, where `scan` settles).
const SLICE_MORSEL_ROWS: usize = 64 * DEFAULT_CHUNK;

/// What the probes measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// One `tpch::q6_program` call, µs.
    pub q6_program_us: f64,
    /// One `tpch::q18_having_program` call, µs.
    pub q18_having_program_us: f64,
    /// `check_program` on the Q6 program, µs.
    pub typecheck_us: f64,
    /// `normalize_program` on the Q6 program, µs.
    pub normalize_us: f64,
    /// Single-threaded `Vm::run` of Q6 per strategy, ns per row.
    pub interpret_ns_per_row: f64,
    /// As above, `Strategy::CompiledPipeline`.
    pub compiled_ns_per_row: f64,
    /// As above, `Strategy::Adaptive`.
    pub adaptive_ns_per_row: f64,
    /// Interpretation fallbacks of one adaptive run.
    pub fallbacks_per_query: f64,
    /// Q6's predicate as five cascading `filter_cmp` calls, ns per row.
    pub filter_ns_per_row: f64,
    /// `filter_bools` over Q6's predicate column, ns per row.
    pub filter_bools_ns_per_row: f64,
    /// `map_apply` of `price * disc` over the selection, ns per row.
    pub map_ns_per_row: f64,
    /// `fold_apply` sum over the selection, ns per row.
    pub fold_ns_per_row: f64,
    /// `Morsel::slice_array` of Q6's four columns, ns per row.
    pub slice_ns_per_row: f64,
    /// Q6 with the native tier off ÷ with it on, through a scheduler.
    pub native_speedup_x: f64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ns_per_row(d: Duration, rows: usize) -> f64 {
    d.as_secs_f64() * 1e9 / rows.max(1) as f64
}

/// Median per-call time of `f` over five batches of `calls` calls.
fn per_call<R>(calls: usize, mut f: impl FnMut() -> R) -> Duration {
    time_median(5, || {
        for _ in 0..calls {
            std::hint::black_box(f());
        }
    }) / calls as u32
}

fn column<'t>(table: &'t Table, name: &str) -> &'t Array {
    table.column_by_name(name).expect("lineitem schema")
}

/// Run every probe on `table` (a `tpch::lineitem`), recording one span
/// per probe into `log` as request `request`, with times relative to
/// `epoch`.
pub fn run(
    table: &Table,
    workers: usize,
    log: &mut SpanLog,
    request: u64,
    epoch: Instant,
) -> Probes {
    let mut p = Probes::default();
    let rows = table.rows();
    let mut span = |name: &'static str, t0: Instant| {
        let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
        log.push(request, None, name, 0, (ns(t0), ns(Instant::now())));
    };

    let t0 = Instant::now();
    let program = tpch::q6_program(SLICE_MORSEL_ROWS as i64, Q6_DATE_LO);
    p.q6_program_us = us(per_call(50, || {
        tpch::q6_program(SLICE_MORSEL_ROWS as i64, Q6_DATE_LO)
    }));
    p.q18_having_program_us = us(per_call(50, || tpch::q18_having_program(4_096, 300.0)));
    let env = TypeEnv::new()
        .with_buffer("l_price", ScalarType::F64)
        .with_buffer("l_disc", ScalarType::F64)
        .with_buffer("l_qty", ScalarType::I64)
        .with_buffer("l_ship", ScalarType::I64)
        .with_buffer("revenue", ScalarType::F64);
    check_program(&program, &env).expect("q6 type-checks");
    p.typecheck_us = us(per_call(50, || check_program(&program, &env)));
    p.normalize_us = us(per_call(50, || normalize_program(&program)));
    span("dsl.probe", t0);

    let t0 = Instant::now();
    let program = tpch::q6_program(rows as i64, Q6_DATE_LO);
    let want = tpch::q6_reference(table, Q6_DATE_LO);
    let vm_run = |strategy: Strategy| {
        let vm = Vm::new(VmConfig {
            strategy,
            ..VmConfig::default()
        });
        let mut times = Vec::new();
        let mut fallbacks = 0;
        for _ in 0..3 {
            let buffers = tpch::q6_buffers(table);
            let start = Instant::now();
            let (out, report) = vm.run(&program, buffers).expect("q6 runs");
            times.push(start.elapsed().as_secs_f64());
            let revenue = out.output("revenue").and_then(|a| a.as_f64()).map(|v| v[0]);
            assert!(
                revenue.is_some_and(|r| crate::check::close(r, want)),
                "single-threaded {strategy:?} Q6 disagrees with its oracle"
            );
            fallbacks = report.fallbacks;
        }
        (median(&times) * 1e9 / rows.max(1) as f64, fallbacks)
    };
    p.interpret_ns_per_row = vm_run(Strategy::Interpret).0;
    p.compiled_ns_per_row = vm_run(Strategy::CompiledPipeline).0;
    let (adaptive, fallbacks) = vm_run(Strategy::Adaptive);
    p.adaptive_ns_per_row = adaptive;
    p.fallbacks_per_query = fallbacks as f64;
    span("vm.probe", t0);

    let t0 = Instant::now();
    kernels(table, &mut p);
    span("kernels.probe", t0);

    let t0 = Instant::now();
    let cols =
        ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"].map(|c| column(table, c));
    let plan = MorselPlan::new(rows, SLICE_MORSEL_ROWS);
    let sliced = time_median(5, || {
        plan.morsels()
            .iter()
            .map(|m: &Morsel| cols.iter().map(|c| m.slice_array(c).len()).sum::<usize>())
            .sum::<usize>()
    });
    p.slice_ns_per_row = ns_per_row(sliced, rows);
    span("storage.probe", t0);

    let t0 = Instant::now();
    p.native_speedup_x = native_speedup(table, workers);
    span("jit.probe", t0);
    p
}

/// Q6's five comparisons over one chunk of `[price, disc, qty, ship]`.
fn q6_clauses([_, disc, qty, ship]: &[Array; 4]) -> [(ScalarOp, &Array, Scalar); 5] {
    [
        (ScalarOp::Ge, ship, Scalar::I64(Q6_DATE_LO)),
        (ScalarOp::Lt, ship, Scalar::I64(Q6_DATE_LO + 365)),
        (ScalarOp::Ge, disc, Scalar::F64(0.05)),
        (ScalarOp::Le, disc, Scalar::F64(0.07)),
        (ScalarOp::Lt, qty, Scalar::I64(24)),
    ]
}

/// The kernel probe over Q6-shaped `DEFAULT_CHUNK`-row chunks.
fn kernels(table: &Table, p: &mut Probes) {
    let rows = table.rows();
    let chunks: Vec<[Array; 4]> = (0..rows)
        .step_by(DEFAULT_CHUNK)
        .map(|off| {
            let n = DEFAULT_CHUNK.min(rows - off);
            ["l_extendedprice", "l_discount", "l_quantity", "l_shipdate"]
                .map(|c| column(table, c).slice(off, n))
        })
        .collect();
    let clauses: Vec<_> = chunks.iter().map(q6_clauses).collect();
    let cascade = |cl: &[(ScalarOp, &Array, Scalar); 5]| {
        let mut sel = None;
        for (op, col, c) in cl {
            let operands = [Operand::Col(col), Operand::Const(c.clone())];
            sel = Some(
                filter_cmp(*op, &operands, sel.as_ref(), FilterFlavor::SelVecLoop)
                    .expect("q6 clause filters"),
            );
        }
        sel.expect("five clauses")
    };
    let filter = time_median(5, || {
        clauses.iter().map(cascade).map(|s| s.len()).sum::<usize>()
    });
    p.filter_ns_per_row = ns_per_row(filter, rows);

    let sels: Vec<_> = clauses.iter().map(cascade).collect();
    let bools: Vec<Array> = chunks
        .iter()
        .zip(&sels)
        .map(|(c, s)| {
            let mut b = vec![false; c[0].len()];
            for &i in s.indices() {
                b[i as usize] = true;
            }
            Array::from(b)
        })
        .collect();
    let filtered = time_median(5, || {
        bools
            .iter()
            .map(|b| {
                filter_bools(b, None, FilterFlavor::SelVecLoop)
                    .expect("bools")
                    .len()
            })
            .sum::<usize>()
    });
    p.filter_bools_ns_per_row = ns_per_row(filtered, rows);

    let mapped = |(c, s): (&[Array; 4], &_)| {
        let operands = [Operand::Col(&c[0]), Operand::Col(&c[1])];
        map_apply(ScalarOp::Mul, &operands, Some(s), MapMode::Full).expect("price * disc")
    };
    let map = time_median(5, || {
        chunks
            .iter()
            .zip(&sels)
            .map(mapped)
            .map(|a| a.len())
            .sum::<usize>()
    });
    p.map_ns_per_row = ns_per_row(map, rows);

    let products: Vec<Array> = chunks.iter().zip(&sels).map(mapped).collect();
    let fold = time_median(5, || {
        products
            .iter()
            .zip(&sels)
            .map(|(a, s)| fold_apply(FoldFn::Sum, &Scalar::F64(0.0), a, Some(s)).expect("sum"))
            .collect::<Vec<_>>()
    });
    p.fold_ns_per_row = ns_per_row(fold, rows);
}

/// Q6 through a scheduler with the native tier pinned off, then on,
/// alternated; the ratio of the median times.
fn native_speedup(table: &Table, workers: usize) -> f64 {
    let scheduler = Scheduler::new(workers);
    let run = |native: bool| {
        let config = VmConfig {
            native: native && adaptvm_vm::native_available(),
            ..VmConfig::default()
        };
        let t0 = Instant::now();
        q6_parallel(table, Q6_DATE_LO, config, ParallelOpts::on(&scheduler)).expect("q6 runs");
        t0.elapsed().as_secs_f64()
    };
    for _ in 0..3 {
        run(false);
        run(true);
    }
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for i in 0..12 {
        // Alternate which tier goes first so drift hits both alike.
        if i % 2 == 0 {
            off.push(run(false));
            on.push(run(true));
        } else {
            on.push(run(true));
            off.push(run(false));
        }
    }
    median(&off) / median(&on)
}
