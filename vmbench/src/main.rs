//! `vmbench`: the oracle-checked end-to-end and per-layer benchmark of
//! adaptvm through its production executors (one long-lived `Scheduler`,
//! or one `QueryService`). See `README.md` next to this package.
//!
//! ```text
//! vmbench --workload <scan|join_spill|served> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones.

mod check;
mod join_spill;
mod layers;
mod measure;
mod report;
mod scan;
mod served;
mod spans;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metrics, TracedRun};
use spans::SpanLog;
use workload::{closed_loop, Counters, Delta, Stop, Window, Workload};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["scan", "join_spill", "served"];

/// Rounds of an untraced run. Each round sets up afresh, settles and
/// measures its share of `--seconds`; the metrics pool every round's
/// requests, and `setup_s` is the median set-up. Fresh set-ups sample
/// the run-to-run variation (memory and code layout) inside one run.
const ROUNDS: usize = 4;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => {
                    let name = WORKLOADS.iter().find(|&&w| w == value);
                    workload = Some(*name.ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} is out of (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Input sizes: `Full` for measurement, `Small` for the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Small,
}

impl Scale {
    fn scan_rows(self) -> usize {
        match self {
            Scale::Full => 1_000_000,
            Scale::Small => 20_000,
        }
    }

    fn join_spill(self) -> join_spill::Sizes {
        match self {
            Scale::Full => join_spill::Sizes {
                q3_rows: 300_000,
                q9_rows: 150_000,
                q18_rows: 400_000,
                q18_orders: 100_000,
                q18_budget: 8 << 20,
            },
            Scale::Small => join_spill::Sizes {
                q3_rows: 20_000,
                q9_rows: 10_000,
                q18_rows: 20_000,
                q18_orders: 2_000,
                q18_budget: 512 << 10,
            },
        }
    }

    fn served(self) -> served::Sizes {
        match self {
            Scale::Full => served::Sizes {
                scan_rows: 65_536,
                q18_rows: 65_536,
                q18_orders: 16_384,
                batch_budget: 2 << 20,
            },
            Scale::Small => served::Sizes {
                scan_rows: 8_192,
                q18_rows: 8_192,
                q18_orders: 2_048,
                batch_budget: 256 << 10,
            },
        }
    }

    /// Requests each client sends to warm caches before measuring.
    fn warm_up(self, workload: &str) -> u64 {
        match (self, workload) {
            (Scale::Small, _) => 2,
            (Scale::Full, "served") => 40,
            (Scale::Full, _) => 5,
        }
    }
}

/// Generate `name`'s inputs from `seed`, compute its oracles and start its
/// executor: `workers` threads, and as many clients as the workload has.
fn build(name: &str, seed: u64, scale: Scale, workers: usize) -> Box<dyn Workload> {
    match name {
        "scan" => Box::new(scan::Scan::setup(seed, scale.scan_rows(), workers)),
        "join_spill" => Box::new(join_spill::JoinSpill::setup(
            seed,
            scale.join_spill(),
            workers,
        )),
        "served" => Box::new(served::Served::setup(
            seed,
            scale.served(),
            workers,
            workers,
        )),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// One set-up: build the workload and warm it up. Returns the workload,
/// how long that took, and whether every warm-up answer was right.
fn set_up(args: &Args, scale: Scale, workers: usize) -> (Box<dyn Workload>, Duration, bool) {
    let t0 = Instant::now();
    let w = build(args.workload, args.seed, scale, workers);
    let warm = closed_loop(&*w, Stop::Count(scale.warm_up(args.workload)), false, 0);
    let ok = warm.requests.iter().all(|r| r.ok());
    (w, t0.elapsed(), ok)
}

/// The elastic morsel size must hold this long before measuring.
const SETTLE_HOLD: Duration = Duration::from_secs(1);
/// Give up settling after this long (and say so).
const SETTLE_CAP: Duration = Duration::from_secs(15);
/// A window that lost more than this share of the machine's CPU time to
/// the hypervisor (`/proc/stat` steal) measured the host, not the
/// engine: it is measured again.
const STEAL_LIMIT: f64 = 0.02;
/// Windows an untraced run may measure again, in all.
const MAX_REMEASURES: u32 = 4;
/// Sequence numbers of the measured windows start here, so the request
/// mix of a window does not depend on how long settling took.
const MEASURE_SEQ: u64 = 1 << 40;

/// Keep sending requests until the scheduler's elastic morsel size has
/// not been resized for [`SETTLE_HOLD`]. The elasticity controller is
/// bistable on `served` (see `README.md`): measuring before it settles
/// would mix two regimes at random. Returns a note saying how it went,
/// and whether every answer on the way was right.
fn settle(w: &dyn Workload) -> (String, bool) {
    let resizes = || {
        let (grew, shrank) = adaptvm_parallel::obs::morsel_resize_counters();
        grew + shrank
    };
    let t0 = Instant::now();
    let mut seen = resizes();
    let mut held_since = Instant::now();
    let mut requests = 0;
    let mut ok = true;
    for slice in 1u64.. {
        if held_since.elapsed() >= SETTLE_HOLD || t0.elapsed() >= SETTLE_CAP {
            break;
        }
        let until = Stop::At(Instant::now() + Duration::from_millis(250));
        let window = closed_loop(w, until, false, slice << 20);
        requests += window.requests.len();
        ok &= window.requests.iter().all(|r| r.ok());
        if resizes() != seen {
            seen = resizes();
            held_since = Instant::now();
        }
    }
    let note = format!(
        "settle: morsel_rows={} held_s={:.3} requests={requests} took_s={:.3} settled={}",
        w.scheduler().morsel_rows(),
        held_since.elapsed().as_secs_f64(),
        t0.elapsed().as_secs_f64(),
        held_since.elapsed() >= SETTLE_HOLD,
    );
    (note, ok)
}

/// What one run produced.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    spans: Option<SpanLog>,
    notes: Vec<String>,
}

/// Measure one closed-loop window of `seconds`, bracketed by counters.
fn measured(w: &dyn Workload, seconds: f64, traced: bool, first_seq: u64) -> (Window, Delta) {
    let before = Counters::read(w);
    let window = closed_loop(
        w,
        Stop::At(Instant::now() + Duration::from_secs_f64(seconds)),
        traced,
        first_seq,
    );
    let after = Counters::read(w);
    (window, Delta::between(&before, &after))
}

fn counter_note(label: &str, d: &Delta, window: &Window) -> String {
    format!(
        "{label}: requests={} wall_s={:.3} compiles={} cache_hits={} native_installs={} \
         native_deopts={} spill_written={} spill_read={} scheduler_queries={} morsels={} \
         scratch_created={} scratch_reused={} service_submitted={} refused={} shed={}",
        window.requests.len(),
        window.wall.as_secs_f64(),
        d.compiles,
        d.cache_hits,
        d.native_installs,
        d.native_deopts,
        d.spill_written,
        d.spill_read,
        d.queries,
        d.morsels,
        d.scratch_created,
        d.scratch_reused,
        d.submitted,
        d.refused,
        d.shed,
    )
}

/// Spill bytes of every Q18 call, and whether they are all equal (they
/// should be at a fixed budget with one client; concurrent Q18s share
/// their tenant's budget, so `served` is not checked).
fn q18_spill_note(window: &Window) -> Option<String> {
    let bytes: Vec<u64> = window
        .requests
        .iter()
        .flat_map(|r| &r.calls)
        .filter_map(|c| c.spill.map(|s| s.bytes_written))
        .collect();
    let first = *bytes.first()?;
    let repeats = bytes.iter().all(|&b| b == first);
    Some(format!(
        "q18 spill bytes per call: {first} over {} calls, repeat exactly: {}",
        bytes.len(),
        if repeats { "yes" } else { "no" }
    ))
}

fn run(args: &Args, scale: Scale) -> Outcome {
    let workers = measure::cores();
    let header = format!(
        "vmbench: workload={} seed={} seconds={} trace={} cores={workers} workers={workers} native={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        adaptvm_vm::native_available(),
    );
    let mut outcome = if args.trace {
        run_traced(args, scale, workers)
    } else {
        run_untraced(args, scale, workers)
    };
    outcome.notes.insert(0, header);
    outcome
}

/// The end-to-end run: [`ROUNDS`] rounds of set-up, settling and a
/// measured window, pooled.
fn run_untraced(args: &Args, scale: Scale, workers: usize) -> Outcome {
    let mut notes = Vec::new();
    let mut setup_times = Vec::new();
    let mut ok = true;
    let mut pooled = Window::empty();
    let mut delta = Delta::default();
    let mut peak_rss_mb = 0.0;
    let mut clients = 0;
    let mut remeasures = MAX_REMEASURES;
    let steal0 = measure::host_steal_seconds().unwrap_or(0.0);
    for round in 0..ROUNDS {
        // Each round builds afresh; the previous one was dropped.
        let (w, took, warm_ok) = set_up(args, scale, workers);
        setup_times.push(took.as_secs_f64());
        clients = w.clients();
        let (note, settle_ok) = settle(&*w);
        notes.push(format!("round {round} {note}"));
        ok &= warm_ok && settle_ok;
        let seconds = args.seconds / ROUNDS as f64;
        let (window, d) = loop {
            let stolen0 = measure::host_steal_seconds().unwrap_or(0.0);
            let (window, d) = measured(&*w, seconds, false, MEASURE_SEQ);
            ok &= window.requests.iter().all(|r| r.ok());
            let stolen = measure::host_steal_seconds().unwrap_or(0.0) - stolen0;
            let limit = STEAL_LIMIT * window.wall.as_secs_f64() * workers as f64;
            if stolen <= limit || remeasures == 0 {
                break (window, d);
            }
            remeasures -= 1;
            notes.push(format!(
                "round {round} window lost {stolen:.2} s of CPU to the host; measured again"
            ));
        };
        notes.push(counter_note(&format!("round {round} window"), &d, &window));
        delta.add(&d);
        pooled.absorb(window);
        if round == 0 {
            // Later rounds rebuild the inputs, and the allocator keeps
            // some of what the earlier rounds freed; that growth is the
            // benchmark's, not the engine's.
            peak_rss_mb = measure::peak_rss_mb().unwrap_or(0.0);
        }
    }
    notes.push(format!("clients={clients}"));
    if clients == 1 {
        notes.extend(q18_spill_note(&pooled));
    }
    notes.push(format!(
        "host steal during the run: {:.2} s",
        measure::host_steal_seconds().unwrap_or(0.0) - steal0
    ));
    let (attempted, failed) = report::tally(&pooled);
    let metrics = report::end_to_end(&pooled, &delta, measure::median(&setup_times), peak_rss_mb);
    Outcome {
        correct: ok && failed == 0,
        attempted,
        failed,
        metrics,
        spans: None,
        notes,
    }
}

/// The per-layer run: one set-up, an untraced and a traced window, the
/// oracle timings and the layer probes.
fn run_traced(args: &Args, scale: Scale, workers: usize) -> Outcome {
    let (w, _, warm_ok) = set_up(args, scale, workers);
    let (note, settle_ok) = settle(&*w);
    let mut notes = vec![format!("clients={}", w.clients()), note];
    // Half the time untraced, half traced: the pair gives the tracing
    // overhead, and each layer figure comes from the window it needs.
    let (plain, plain_delta) = measured(&*w, args.seconds / 2.0, false, MEASURE_SEQ);
    let (traced, traced_delta) = measured(&*w, args.seconds / 2.0, true, MEASURE_SEQ);
    notes.push(counter_note("untraced window", &plain_delta, &plain));
    notes.push(counter_note("traced window", &traced_delta, &traced));
    if w.clients() == 1 {
        notes.extend(q18_spill_note(&plain));
    }
    let oracle_ms: Vec<_> = w
        .oracle_times()
        .into_iter()
        .map(|(q, d)| (q, measure::ms(d)))
        .collect();
    let mut spans = report::spans(&traced);
    let probe_table = adaptvm_relational::tpch::lineitem(scale.scan_rows(), args.seed);
    let mut probe_spans = SpanLog::default();
    let probes = layers::run(
        &probe_table,
        workers,
        &mut probe_spans,
        traced.requests.len() as u64,
        traced.epoch,
    );
    let metrics = report::per_layer(&TracedRun {
        plain: &plain,
        plain_delta: &plain_delta,
        traced: &traced,
        traced_delta: &traced_delta,
        oracle_ms: &oracle_ms,
        probes: &probes,
        spans: &spans,
        workers,
        morsel_rows_end: w.scheduler().morsel_rows(),
        concurrent_limit_end: w.service().map_or(0, |s| s.stats().concurrent_limit),
    });
    spans.append(probe_spans);
    let (a1, f1) = report::tally(&plain);
    let (a2, f2) = report::tally(&traced);
    Outcome {
        correct: warm_ok && settle_ok && f1 + f2 == 0,
        attempted: a1 + a2,
        failed: f1 + f2,
        metrics,
        spans: Some(spans),
        notes,
    }
}

/// Where the run's spans and the engine's spill files go: inside this
/// package, so a run writes nowhere else.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vmbench: {e}");
            eprintln!(
                "usage: vmbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let spill_dir = out_dir().join("tmp");
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        eprintln!("vmbench: cannot create {}: {e}", spill_dir.display());
        return ExitCode::FAILURE;
    }
    // The spill codec writes under the temp dir; keep it in the package.
    // Set before any thread starts.
    std::env::set_var("TMPDIR", &spill_dir);

    let outcome = run(&args, Scale::Full);
    for note in &outcome.notes {
        println!("{note}");
    }
    if let Some(spans) = &outcome.spans {
        let path = out_dir().join(format!("spans-{}-seed{}.json", args.workload, args.seed));
        match std::fs::write(&path, spans.chrome_json()) {
            Ok(()) => println!(
                "spans: {} written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("vmbench: cannot write {}: {e}", path.display()),
        }
    }
    let spec = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for (name, unit) in spec {
        println!("{name:<40} {:>16.6} {unit}", outcome.metrics[name]);
    }
    println!(
        "{}",
        report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            spec,
            &outcome.metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &'static str, seed: u64, trace: bool) -> Args {
        Args {
            workload,
            seed,
            seconds: 0.3,
            trace,
        }
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_match_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            spec.matches("{\"name\": ").count(),
            WORKLOADS.len() + report::END_TO_END.len() + report::PER_LAYER.len(),
            "BENCHMARK.json lists a metric or workload the benchmark does not know"
        );
        for w in WORKLOADS {
            assert!(spec.contains(&format!("{{\"name\": \"{w}\", \"why\": ")));
        }
    }

    fn assert_reports_every_metric(outcome: &Outcome, spec: &[(&str, &str)]) {
        let line = report::result_json(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            spec,
            &outcome.metrics,
        );
        for (name, unit) in spec {
            let value = outcome.metrics[name];
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{line}"
            );
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{line}");
        }
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }

    #[test]
    fn every_workload_reports_every_end_to_end_metric_and_passes_its_checks_on_two_seeds() {
        for workload in WORKLOADS {
            for seed in [1, 2] {
                let outcome = run(&args(workload, seed, false), Scale::Small);
                assert!(
                    outcome.correct,
                    "{workload} seed {seed}: {:?}",
                    outcome.notes
                );
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 1);
                assert_reports_every_metric(&outcome, report::END_TO_END);
                assert!(outcome.metrics["requests_per_s"] > 0.0);
                assert!(outcome.metrics["setup_s"] > 0.0);
                assert_eq!(outcome.metrics["success_frac"], 1.0);
            }
        }
    }

    #[test]
    fn every_workload_reports_every_per_layer_metric_when_traced() {
        for workload in WORKLOADS {
            let outcome = run(&args(workload, 3, true), Scale::Small);
            assert!(outcome.correct, "{workload}: {:?}", outcome.notes);
            assert_reports_every_metric(&outcome, report::PER_LAYER);
            let spans = outcome.spans.expect("a traced run keeps its spans");
            assert!(spans.spans().iter().any(|s| s.name == "parallel.morsel"));
            let m = &outcome.metrics;
            assert!(m["vm.interpret_ns_per_row"] > 0.0 && m["kernels.filter_ns_per_row"] > 0.0);
            match workload {
                "scan" => assert!(m["relational.q6_overhead_x"] > 0.0),
                "join_spill" => {
                    assert!(m["storage.q18_spill_bytes"] > 0.0);
                    assert!(m["relational.q18_partitions_spilled"] > 0.0);
                }
                _ => assert!(m["serve.concurrent_limit_end"] > 0.0),
            }
        }
    }

    #[test]
    fn q18_spills_part_of_its_input_and_the_same_bytes_every_time() {
        let spill_bytes = || {
            let w = build("join_spill", 5, Scale::Small, 2);
            let window = closed_loop(&*w, Stop::Count(3), false, 0);
            assert!(window.requests.iter().all(|r| r.ok()));
            window
                .requests
                .iter()
                .flat_map(|r| &r.calls)
                .filter_map(|c| c.spill)
                .map(|s| (s.bytes_written, s.partitions_spilled))
                .collect::<Vec<_>>()
        };
        let first = spill_bytes();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|&s| s == first[0]), "{first:?}");
        let (bytes, partitions) = first[0];
        assert!(bytes > 0);
        assert!(
            partitions < adaptvm_relational::spill::SPILL_FANOUT,
            "the budget must spill part of the aggregate, not all of it"
        );
        assert_eq!(spill_bytes(), first);
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload served --seed 9 --seconds 2.5 --trace 1"),
            Ok(Args {
                workload: "served",
                seed: 9,
                seconds: 2.5,
                trace: true,
            })
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload scan --trace 2").is_err());
        assert!(parse("--workload scan --seconds 0").is_err());
        assert!(parse("--workload scan --seed").is_err());
    }
}
