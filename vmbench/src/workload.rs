//! What the workloads share: the request record, the closed-loop
//! clients, and the engine counters that bracket a measured window.

use std::fmt::Debug;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use adaptvm_parallel::{
    scratch_stats, ParallelRunReport, Priority, QueryProfile, QueryService, Scheduler,
    SchedulerStats, ScratchStats, ServiceStats, SpillStats, Trace,
};
use adaptvm_storage::spill::{io_counters, SpillIoCounters};
use adaptvm_vm::{jit_counters, JitCounters};

use crate::measure;

/// The engine queries the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Query {
    /// TPC-H Q1 (`q1_parallel_vectorized`).
    Q1,
    /// TPC-H Q3 (`q3_parallel`, adaptive join + Bloom).
    Q3,
    /// TPC-H Q6 through the adaptive VM (`q6_parallel`).
    Q6,
    /// TPC-H Q9 (`q9_parallel`, mixed-key chain under reordering).
    Q9,
    /// TPC-H Q18 with a VM HAVING leg (`q18_parallel_vm`).
    Q18,
}

impl Query {
    /// Every query, in metric order.
    pub const ALL: [Query; 5] = [Query::Q1, Query::Q3, Query::Q6, Query::Q9, Query::Q18];

    /// Lower-case name (`q6`).
    pub fn name(self) -> &'static str {
        match self {
            Query::Q1 => "q1",
            Query::Q3 => "q3",
            Query::Q6 => "q6",
            Query::Q9 => "q9",
            Query::Q18 => "q18",
        }
    }

    /// The span name of a call into the engine for this query.
    pub fn span(self) -> &'static str {
        match self {
            Query::Q1 => "relational.q1",
            Query::Q3 => "relational.q3",
            Query::Q6 => "relational.q6",
            Query::Q9 => "relational.q9",
            Query::Q18 => "relational.q18",
        }
    }
}

/// VM activity one `q6_parallel` call reported.
#[derive(Debug, Clone, Copy, Default)]
pub struct VmTally {
    /// Morsels the call ran.
    pub morsels: u64,
    /// Chunk-loop steps served by compiled traces.
    pub trace_executions: u64,
    /// The subset of those served by native code.
    pub native_trace_executions: u64,
}

impl From<&ParallelRunReport> for VmTally {
    fn from(r: &ParallelRunReport) -> VmTally {
        VmTally {
            morsels: r.morsels as u64,
            trace_executions: r.trace_executions,
            native_trace_executions: r.native_trace_executions,
        }
    }
}

/// One call into the engine and what came back.
#[derive(Debug, Clone)]
pub struct Call {
    /// Which query.
    pub query: Query,
    /// When the call started.
    pub start: Instant,
    /// How long the call took.
    pub dur: Duration,
    /// The call returned an answer that matches the oracle.
    pub ok: bool,
    /// VM activity (Q6 only).
    pub vm: Option<VmTally>,
    /// Spill activity (Q18 only).
    pub spill: Option<SpillStats>,
    /// Join-order changes (Q9 only).
    pub reorders: Option<u64>,
}

/// First failure per query, printed once so a failing run says why.
static REPORTED: [AtomicBool; 5] = [const { AtomicBool::new(false) }; 5];

fn report_once(query: Query, what: &str) {
    let slot = Query::ALL.iter().position(|&q| q == query).expect("listed");
    if !REPORTED[slot].swap(true, Ordering::Relaxed) {
        eprintln!("vmbench: {} {what}", query.name());
    }
}

impl Call {
    /// Time `run`, then `check` its answer against the oracle; `check`
    /// may also fill the call's activity fields. An error counts as a
    /// wrong answer.
    pub fn run<R, E: Debug>(
        query: Query,
        run: impl FnOnce() -> Result<R, E>,
        check: impl FnOnce(&R, &mut Call) -> bool,
    ) -> Call {
        let start = Instant::now();
        let result = run();
        let mut call = Call {
            query,
            start,
            dur: start.elapsed(),
            ok: false,
            vm: None,
            spill: None,
            reorders: None,
        };
        match result {
            Ok(answer) => {
                call.ok = check(&answer, &mut call);
                if !call.ok {
                    report_once(query, "answer does not match its oracle");
                }
            }
            Err(e) => report_once(query, &format!("failed: {e:?}")),
        }
        call
    }
}

/// One request: the engine calls it made, in order.
#[derive(Debug)]
pub struct Request {
    /// The client that sent it.
    pub client: usize,
    /// Its priority class (workloads without classes send Interactive:
    /// one client waits on every request).
    pub class: Priority,
    /// The engine calls.
    pub calls: Vec<Call>,
    /// The engine trace of every call, when traced, and the instant its
    /// clock started.
    pub profile: Option<(Instant, QueryProfile)>,
}

impl Request {
    /// Every call returned the oracle's answer.
    pub fn ok(&self) -> bool {
        self.calls.iter().all(|c| c.ok)
    }

    /// Request latency: the summed engine-call time (the answer checks
    /// between calls are the benchmark's, not the engine's).
    pub fn latency(&self) -> Duration {
        self.calls.iter().map(|c| c.dur).sum()
    }
}

/// A workload: its executor, its inputs and oracles, and how it sends
/// one request.
pub trait Workload: Sync {
    /// Closed-loop clients.
    fn clients(&self) -> usize;

    /// Send request `seq` of `client`, attaching `trace` (when given) to
    /// every engine call.
    fn request(&self, client: usize, seq: u64, trace: Option<&Trace>) -> (Priority, Vec<Call>);

    /// The long-lived scheduler every request runs on.
    fn scheduler(&self) -> &Scheduler;

    /// The service in front of the scheduler, if requests are admitted
    /// through one.
    fn service(&self) -> Option<&QueryService> {
        None
    }

    /// Median wall time of each query's oracle on this workload's inputs.
    fn oracle_times(&self) -> Vec<(Query, Duration)>;
}

/// When the clients stop sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// Send no request after this instant.
    At(Instant),
    /// Each client sends this many requests.
    Count(u64),
}

/// Requests measured in one closed-loop window.
#[derive(Debug)]
pub struct Window {
    /// Every request, grouped by client.
    pub requests: Vec<Request>,
    /// From the first send to the last answer.
    pub wall: Duration,
    /// When the window started (the span clock's zero).
    pub epoch: Instant,
}

impl Window {
    /// A window with no requests.
    pub fn empty() -> Window {
        Window {
            requests: Vec::new(),
            wall: Duration::ZERO,
            epoch: Instant::now(),
        }
    }

    /// Pool `other`'s requests and wall time into this window.
    pub fn absorb(&mut self, other: Window) {
        self.requests.extend(other.requests);
        self.wall += other.wall;
    }
}

/// Drive `w` with its clients in a closed loop: each client sends its
/// next request when the previous one has returned. Client `c` numbers
/// its requests from `first_seq`. With `traced`, every request gets a
/// fresh engine trace.
pub fn closed_loop(w: &dyn Workload, stop: Stop, traced: bool, first_seq: u64) -> Window {
    let epoch = Instant::now();
    let per_client: Vec<Vec<Request>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..w.clients())
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for seq in first_seq.. {
                        match stop {
                            Stop::At(t) if Instant::now() >= t => break,
                            Stop::Count(n) if seq >= first_seq + n => break,
                            _ => {}
                        }
                        let trace = traced.then(Trace::new);
                        let clock = Instant::now();
                        let (class, calls) = w.request(client, seq, trace.as_ref());
                        let profile = trace.map(|t| (clock, t.profile()));
                        out.push(Request {
                            client,
                            class,
                            calls,
                            profile,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Window {
        requests: per_client.into_iter().flatten().collect(),
        wall: epoch.elapsed(),
        epoch,
    }
}

/// The engine's process-wide and per-executor counters at one instant.
#[derive(Debug, Clone)]
pub struct Counters {
    /// JIT activity.
    pub jit: JitCounters,
    /// Spill I/O bytes.
    pub io: SpillIoCounters,
    /// The workload scheduler's lifetime counters.
    pub scheduler: SchedulerStats,
    /// The service's telemetry, when there is one.
    pub service: Option<ServiceStats>,
    /// Scratch-arena pool churn.
    pub scratch: ScratchStats,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Counters {
    /// Read every counter now.
    pub fn read(w: &dyn Workload) -> Counters {
        Counters {
            jit: jit_counters(),
            io: io_counters(),
            scheduler: w.scheduler().stats(),
            service: w.service().map(QueryService::stats),
            scratch: scratch_stats(),
            cpu_s: measure::cpu_seconds().unwrap_or(0.0),
        }
    }
}

/// What changed between two counter readings.
#[derive(Debug, Clone, Copy, Default)]
pub struct Delta {
    /// Fragments compiled.
    pub compiles: u64,
    /// Fragments taken from the shared cache.
    pub cache_hits: u64,
    /// Traces installed with a native body.
    pub native_installs: u64,
    /// Native guard deopts.
    pub native_deopts: u64,
    /// Spill bytes written.
    pub spill_written: u64,
    /// Spill bytes read.
    pub spill_read: u64,
    /// Queries the scheduler completed.
    pub queries: u64,
    /// Morsels the scheduler executed.
    pub morsels: u64,
    /// Scratch arenas created fresh.
    pub scratch_created: u64,
    /// Scratch arenas reused.
    pub scratch_reused: u64,
    /// Service submissions.
    pub submitted: u64,
    /// Service refusals of any kind (full, quota, shutdown, timeout).
    pub refused: u64,
    /// Service sheds.
    pub shed: u64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

impl Delta {
    /// Add another window's changes to these.
    pub fn add(&mut self, o: &Delta) {
        self.compiles += o.compiles;
        self.cache_hits += o.cache_hits;
        self.native_installs += o.native_installs;
        self.native_deopts += o.native_deopts;
        self.spill_written += o.spill_written;
        self.spill_read += o.spill_read;
        self.queries += o.queries;
        self.morsels += o.morsels;
        self.scratch_created += o.scratch_created;
        self.scratch_reused += o.scratch_reused;
        self.submitted += o.submitted;
        self.refused += o.refused;
        self.shed += o.shed;
        self.cpu_s += o.cpu_s;
    }

    /// `after - before`.
    pub fn between(before: &Counters, after: &Counters) -> Delta {
        let serve = |s: &Option<ServiceStats>| {
            s.as_ref().map_or((0, 0, 0), |s| {
                s.per_priority
                    .iter()
                    .fold((0, 0, 0), |(sub, refused, shed), p| {
                        (
                            sub + p.submitted,
                            refused + p.rejected() + p.admission_timeouts,
                            shed + p.shed,
                        )
                    })
            })
        };
        let (sub0, ref0, shed0) = serve(&before.service);
        let (sub1, ref1, shed1) = serve(&after.service);
        Delta {
            compiles: after.jit.compiles - before.jit.compiles,
            cache_hits: after.jit.cache_hits - before.jit.cache_hits,
            native_installs: after.jit.native_installs - before.jit.native_installs,
            native_deopts: after.jit.native_deopts - before.jit.native_deopts,
            spill_written: after.io.bytes_written - before.io.bytes_written,
            spill_read: after.io.bytes_read - before.io.bytes_read,
            queries: after.scheduler.queries_completed - before.scheduler.queries_completed,
            morsels: after.scheduler.morsels_executed - before.scheduler.morsels_executed,
            scratch_created: after.scratch.created - before.scratch.created,
            scratch_reused: after.scratch.reused - before.scratch.reused,
            submitted: sub1 - sub0,
            refused: ref1 - ref0,
            shed: shed1 - shed0,
            cpu_s: after.cpu_s - before.cpu_s,
        }
    }
}
