//! Metric names and units, the numbers behind them, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use adaptvm_parallel::{EventKind, Priority, ProfileRollup};

use crate::layers::Probes;
use crate::measure::{self, median, quantile, ratio, sorted};
use crate::spans::SpanLog;
use crate::workload::{Delta, Query, Window};

/// End-to-end metrics (untraced run), `(name, unit)`. Every workload
/// reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("interactive_p50_ms", "ms"),
    ("interactive_p90_ms", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "fraction"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced run), `(name, unit)`. Every workload
/// reports every one; a layer the workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dsl.q6_program_us", "us"),
    ("dsl.q18_having_program_us", "us"),
    ("dsl.typecheck_us", "us"),
    ("dsl.normalize_us", "us"),
    ("dsl.front_end_share", "fraction"),
    ("vm.interpret_ns_per_row", "ns/row"),
    ("vm.compiled_ns_per_row", "ns/row"),
    ("vm.adaptive_ns_per_row", "ns/row"),
    ("vm.fallbacks_per_query", "count"),
    ("jit.compiles_per_query", "count"),
    ("jit.cache_hit_ratio", "fraction"),
    ("jit.native_installs_per_query", "count"),
    ("jit.native_exec_share", "fraction"),
    ("jit.native_deopts_per_query", "count"),
    ("jit.compile_ms_per_query", "ms"),
    ("jit.native_speedup_x", "x"),
    ("kernels.filter_ns_per_row", "ns/row"),
    ("kernels.filter_bools_ns_per_row", "ns/row"),
    ("kernels.map_ns_per_row", "ns/row"),
    ("kernels.fold_ns_per_row", "ns/row"),
    ("storage.slice_ns_per_row", "ns/row"),
    ("storage.spill_mb_written_per_request", "MB"),
    ("storage.spill_mb_read_per_request", "MB"),
    ("storage.q18_spill_bytes", "bytes"),
    ("relational.q1_ms", "ms"),
    ("relational.q3_ms", "ms"),
    ("relational.q6_ms", "ms"),
    ("relational.q9_ms", "ms"),
    ("relational.q18_ms", "ms"),
    ("relational.q1_overhead_x", "x"),
    ("relational.q3_overhead_x", "x"),
    ("relational.q6_overhead_x", "x"),
    ("relational.q9_overhead_x", "x"),
    ("relational.q18_overhead_x", "x"),
    ("relational.q18_partitions_spilled", "count"),
    ("relational.q18_max_recursion_depth", "count"),
    ("relational.q9_reorders", "count"),
    ("parallel.morsels_per_query", "count"),
    ("parallel.morsel_rows_end", "rows"),
    ("parallel.steal_ratio", "fraction"),
    ("parallel.worker_busy_frac", "fraction"),
    ("parallel.scratch_reuse_ratio", "fraction"),
    ("serve.interactive_queue_wait_p50_ms", "ms"),
    ("serve.interactive_queue_wait_p90_ms", "ms"),
    ("serve.normal_queue_wait_p50_ms", "ms"),
    ("serve.normal_queue_wait_p90_ms", "ms"),
    ("serve.batch_queue_wait_p50_ms", "ms"),
    ("serve.batch_queue_wait_p90_ms", "ms"),
    ("serve.refused_frac", "fraction"),
    ("serve.shed", "count"),
    ("serve.concurrent_limit_end", "count"),
    ("budget.charged_mb_per_request", "MB"),
    ("budget.refusals_per_request", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("obs.unattributed_frac", "fraction"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// Requests in a window and how many of them failed.
pub fn tally(window: &Window) -> (u64, u64) {
    let failed = window.requests.iter().filter(|r| !r.ok()).count();
    (window.requests.len() as u64, failed as u64)
}

/// Sorted request latencies (ms) of the requests `keep` selects.
fn latencies(window: &Window, keep: impl Fn(Priority) -> bool) -> Vec<f64> {
    sorted(
        &window
            .requests
            .iter()
            .filter(|r| keep(r.class))
            .map(|r| measure::ms(r.latency()))
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of an untraced window.
pub fn end_to_end(window: &Window, delta: &Delta, setup_s: f64, peak_rss_mb: f64) -> Metrics {
    let (attempted, failed) = tally(window);
    let all = latencies(window, |_| true);
    let interactive = latencies(window, |p| p == Priority::Interactive);
    let n = attempted.max(1) as f64;
    Metrics::from([
        (
            "requests_per_s",
            attempted as f64 / window.wall.as_secs_f64(),
        ),
        ("latency_p50_ms", quantile(&all, 0.5)),
        ("latency_p90_ms", quantile(&all, 0.9)),
        ("interactive_p50_ms", quantile(&interactive, 0.5)),
        ("interactive_p90_ms", quantile(&interactive, 0.9)),
        ("cpu_ms_per_request", delta.cpu_s * 1e3 / n),
        ("peak_rss_mb", peak_rss_mb),
        ("success_frac", 1.0 - failed as f64 / n),
        ("setup_s", setup_s),
    ])
}

/// Everything the traced run measured.
pub struct TracedRun<'a> {
    /// The untraced window run just before the traced one.
    pub plain: &'a Window,
    /// Counter changes over `plain`.
    pub plain_delta: &'a Delta,
    /// The traced window.
    pub traced: &'a Window,
    /// Counter changes over `traced`.
    pub traced_delta: &'a Delta,
    /// Oracle median times per query.
    pub oracle_ms: &'a [(Query, f64)],
    /// Layer probe results.
    pub probes: &'a Probes,
    /// The spans of the traced window.
    pub spans: &'a SpanLog,
    /// Scheduler workers.
    pub workers: usize,
    /// The scheduler's morsel size after the run.
    pub morsel_rows_end: usize,
    /// The service's concurrency limit after the run (0 without one).
    pub concurrent_limit_end: usize,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(run: &TracedRun<'_>) -> Metrics {
    let p = run.probes;
    let plain = run.plain;
    let requests = plain.requests.len().max(1) as f64;
    let traced_requests = run.traced.requests.len().max(1) as f64;
    let calls = || plain.requests.iter().flat_map(|r| r.calls.iter());
    let mut m = Metrics::new();

    // dsl: programs built per call (one per Q6 morsel, one per Q18
    // HAVING) over the engine time of the calls.
    let front_end_us: f64 = calls()
        .map(|c| match c.query {
            Query::Q6 => p.q6_program_us * c.vm.map_or(0, |v| v.morsels) as f64,
            Query::Q18 => p.q18_having_program_us,
            _ => 0.0,
        })
        .sum();
    let call_us: f64 = calls().map(|c| c.dur.as_secs_f64() * 1e6).sum();
    m.insert("dsl.q6_program_us", p.q6_program_us);
    m.insert("dsl.q18_having_program_us", p.q18_having_program_us);
    m.insert("dsl.typecheck_us", p.typecheck_us);
    m.insert("dsl.normalize_us", p.normalize_us);
    m.insert("dsl.front_end_share", ratio(front_end_us, call_us));

    m.insert("vm.interpret_ns_per_row", p.interpret_ns_per_row);
    m.insert("vm.compiled_ns_per_row", p.compiled_ns_per_row);
    m.insert("vm.adaptive_ns_per_row", p.adaptive_ns_per_row);
    m.insert("vm.fallbacks_per_query", p.fallbacks_per_query);

    let rollup = rollup(run.traced);
    let d = run.traced_delta;
    let (native, executed) = calls().filter_map(|c| c.vm).fold((0, 0), |(n, t), v| {
        (n + v.native_trace_executions, t + v.trace_executions)
    });
    m.insert(
        "jit.compiles_per_query",
        d.compiles as f64 / traced_requests,
    );
    m.insert(
        "jit.cache_hit_ratio",
        ratio(d.cache_hits as f64, (d.cache_hits + d.compiles) as f64),
    );
    m.insert(
        "jit.native_installs_per_query",
        d.native_installs as f64 / traced_requests,
    );
    m.insert(
        "jit.native_exec_share",
        ratio(native as f64, executed as f64),
    );
    m.insert(
        "jit.native_deopts_per_query",
        d.native_deopts as f64 / traced_requests,
    );
    m.insert(
        "jit.compile_ms_per_query",
        rollup.compile_ns as f64 / 1e6 / traced_requests,
    );
    m.insert("jit.native_speedup_x", p.native_speedup_x);

    m.insert("kernels.filter_ns_per_row", p.filter_ns_per_row);
    m.insert("kernels.filter_bools_ns_per_row", p.filter_bools_ns_per_row);
    m.insert("kernels.map_ns_per_row", p.map_ns_per_row);
    m.insert("kernels.fold_ns_per_row", p.fold_ns_per_row);

    let pd = run.plain_delta;
    let spills: Vec<_> = calls().filter_map(|c| c.spill).collect();
    let spill_median = |f: fn(&adaptvm_parallel::SpillStats) -> f64| {
        median(&spills.iter().map(f).collect::<Vec<_>>())
    };
    m.insert("storage.slice_ns_per_row", p.slice_ns_per_row);
    m.insert(
        "storage.spill_mb_written_per_request",
        pd.spill_written as f64 / 1e6 / requests,
    );
    m.insert(
        "storage.spill_mb_read_per_request",
        pd.spill_read as f64 / 1e6 / requests,
    );
    m.insert(
        "storage.q18_spill_bytes",
        spill_median(|s| s.bytes_written as f64),
    );

    for (q, ms_name, x_name) in [
        (Query::Q1, "relational.q1_ms", "relational.q1_overhead_x"),
        (Query::Q3, "relational.q3_ms", "relational.q3_overhead_x"),
        (Query::Q6, "relational.q6_ms", "relational.q6_overhead_x"),
        (Query::Q9, "relational.q9_ms", "relational.q9_overhead_x"),
        (Query::Q18, "relational.q18_ms", "relational.q18_overhead_x"),
    ] {
        let engine = median(
            &calls()
                .filter(|c| c.query == q)
                .map(|c| measure::ms(c.dur))
                .collect::<Vec<_>>(),
        );
        let oracle = run
            .oracle_ms
            .iter()
            .find(|(o, _)| *o == q)
            .map_or(0.0, |(_, ms)| *ms);
        m.insert(ms_name, engine);
        m.insert(x_name, ratio(engine, oracle));
    }
    m.insert(
        "relational.q18_partitions_spilled",
        spill_median(|s| s.partitions_spilled as f64),
    );
    m.insert(
        "relational.q18_max_recursion_depth",
        spill_median(|s| s.max_recursion_depth as f64),
    );
    m.insert(
        "relational.q9_reorders",
        median(
            &calls()
                .filter_map(|c| c.reorders)
                .map(|r| r as f64)
                .collect::<Vec<_>>(),
        ),
    );

    let worker_ns = run.traced.wall.as_secs_f64() * 1e9 * run.workers as f64;
    m.insert(
        "parallel.morsels_per_query",
        ratio(d.morsels as f64, d.queries as f64),
    );
    m.insert("parallel.morsel_rows_end", run.morsel_rows_end as f64);
    m.insert(
        "parallel.steal_ratio",
        ratio(rollup.stolen as f64, rollup.morsels as f64),
    );
    m.insert(
        "parallel.worker_busy_frac",
        ratio(rollup.morsel_ns as f64, worker_ns),
    );
    m.insert(
        "parallel.scratch_reuse_ratio",
        ratio(
            pd.scratch_reused as f64,
            (pd.scratch_reused + pd.scratch_created) as f64,
        ),
    );

    for (class, p50, p90) in [
        (
            Priority::Interactive,
            "serve.interactive_queue_wait_p50_ms",
            "serve.interactive_queue_wait_p90_ms",
        ),
        (
            Priority::Normal,
            "serve.normal_queue_wait_p50_ms",
            "serve.normal_queue_wait_p90_ms",
        ),
        (
            Priority::Batch,
            "serve.batch_queue_wait_p50_ms",
            "serve.batch_queue_wait_p90_ms",
        ),
    ] {
        let waits = sorted(&queue_waits_ms(run.traced, class));
        m.insert(p50, quantile(&waits, 0.5));
        m.insert(p90, quantile(&waits, 0.9));
    }
    m.insert(
        "serve.refused_frac",
        ratio((pd.refused + pd.shed) as f64, pd.submitted as f64),
    );
    m.insert("serve.shed", pd.shed as f64);
    m.insert(
        "serve.concurrent_limit_end",
        run.concurrent_limit_end as f64,
    );

    m.insert(
        "budget.charged_mb_per_request",
        rollup.budget_bytes as f64 / 1e6 / traced_requests,
    );
    m.insert(
        "budget.refusals_per_request",
        rollup.budget_refusals as f64 / traced_requests,
    );

    let rate = |w: &Window| w.requests.len() as f64 / w.wall.as_secs_f64();
    m.insert(
        "obs.trace_overhead_frac",
        ratio(rate(run.traced), rate(plain)) - 1.0,
    );
    let (uncovered, total) = run.spans.unattributed_ns();
    m.insert(
        "obs.unattributed_frac",
        ratio(uncovered as f64, total as f64),
    );
    m
}

/// The summed engine rollup of every traced request.
fn rollup(window: &Window) -> ProfileRollup {
    let mut sum = ProfileRollup::default();
    for (_, profile) in window.requests.iter().filter_map(|r| r.profile.as_ref()) {
        let r = profile.rollup();
        sum.morsels += r.morsels;
        sum.stolen += r.stolen;
        sum.morsel_ns += r.morsel_ns;
        sum.compile_ns += r.compile_ns;
        sum.budget_bytes += r.budget_bytes;
        sum.budget_refusals += r.budget_refusals;
    }
    sum
}

/// Admission-to-dispatch waits (ms) of the traced requests of `class`.
fn queue_waits_ms(window: &Window, class: Priority) -> Vec<f64> {
    window
        .requests
        .iter()
        .filter(|r| r.class == class)
        .filter_map(|r| r.profile.as_ref())
        .flat_map(|(_, p)| p.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Dispatched { queue_wait_ns, .. } => Some(queue_wait_ns as f64 / 1e6),
            _ => None,
        })
        .collect()
}

/// Build the span log of a traced window: a `request` root per request,
/// a `relational.<query>` span per engine call, and the engine's morsel
/// and queue-wait intervals under the call they fell in.
pub fn spans(window: &Window) -> SpanLog {
    let mut log = SpanLog::default();
    let since = |t: std::time::Instant| t.saturating_duration_since(window.epoch).as_nanos() as u64;
    for (id, r) in window.requests.iter().enumerate() {
        let id = id as u64;
        let lane = r.client as u16;
        let (Some(first), Some(last)) = (r.calls.first(), r.calls.last()) else {
            continue;
        };
        let root = log.push(
            id,
            None,
            "request",
            lane,
            (since(first.start), since(last.start + last.dur)),
        );
        let calls: Vec<(u32, u64, u64)> = r
            .calls
            .iter()
            .map(|c| {
                let span = (since(c.start), since(c.start + c.dur));
                (
                    log.push(id, Some(root), c.query.span(), lane, span),
                    span.0,
                    span.1,
                )
            })
            .collect();
        let Some((clock, profile)) = &r.profile else {
            continue;
        };
        let base = since(*clock);
        for e in &profile.events {
            let (name, len) = match e.kind {
                EventKind::Morsel { dur_ns, .. } => ("parallel.morsel", dur_ns),
                EventKind::Dispatched { queue_wait_ns, .. } => ("serve.queue_wait", queue_wait_ns),
                _ => continue,
            };
            let end = base + e.ts_ns;
            let parent = calls
                .iter()
                .find(|&&(_, s, e2)| s <= end && end <= e2)
                .map_or(root, |&(c, _, _)| c);
            log.push(
                id,
                Some(parent),
                name,
                e.lane,
                (end.saturating_sub(len), end),
            );
        }
    }
    log
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every metric of `spec` in spec order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in spec.iter().enumerate() {
        let value = metrics
            .get(name)
            .copied()
            .expect("every metric is measured");
        let value = if value.is_finite() { value } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}
