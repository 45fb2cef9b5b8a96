//! The benchmark's own spans: one tree per request, kept in memory and
//! written out as a Chrome trace when the run ends.
//!
//! The benchmark records a `request` span and one `relational.<query>`
//! span around each call into the engine. The spans under those come
//! from the engine's own trace (`adaptvm_parallel::obs`): a
//! `parallel.morsel` span per executed morsel and a `serve.queue_wait`
//! span per admission. Time inside an engine call that no child span
//! covers is *unattributed*: planning, merging, hash-table builds on the
//! calling thread, and scheduling gaps.

use std::fmt::Write as _;

/// One timed interval of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The request this span belongs to.
    pub request: u64,
    /// Unique within the log.
    pub id: u32,
    /// The span that caused this one (`None` for a request's root).
    pub parent: Option<u32>,
    /// `layer.what`, e.g. `relational.q6` or `parallel.morsel`.
    pub name: &'static str,
    /// Client thread for benchmark spans, worker lane for engine spans.
    pub lane: u16,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    fn len(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span log.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Record a span and return its id.
    pub fn push(
        &mut self,
        request: u64,
        parent: Option<u32>,
        name: &'static str,
        lane: u16,
        (start_ns, end_ns): (u64, u64),
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            request,
            id,
            parent,
            name,
            lane,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Every span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move another log's spans in, renumbering their ids.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// `(uncovered, total)` nanoseconds over every engine-call span
    /// (`relational.*`): `total` is their summed length, `uncovered` the
    /// part of it that none of their child spans covers.
    pub fn unattributed_ns(&self) -> (u64, u64) {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p as usize].push((s.start_ns, s.end_ns));
            }
        }
        let mut uncovered = 0;
        let mut total = 0;
        for s in self
            .spans
            .iter()
            .filter(|s| s.name.starts_with("relational."))
        {
            let kids = &mut children[s.id as usize];
            total += s.len();
            uncovered += s.len() - covered_ns(kids, s.start_ns, s.end_ns);
        }
        (uncovered, total)
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"request\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.len() as f64 / 1e3,
                s.request,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`. Sorts
/// `intervals` in place.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_clips_and_merges_overlaps() {
        let mut v = vec![(5, 10), (0, 3), (8, 15), (40, 60)];
        assert_eq!(covered_ns(&mut v, 0, 50), 3 + 10 + 10);
        assert_eq!(covered_ns(&mut [], 0, 50), 0);
        assert_eq!(covered_ns(&mut [(0, 100)], 20, 30), 10);
    }

    #[test]
    fn unattributed_counts_call_time_no_child_covers() {
        let mut log = SpanLog::default();
        let req = log.push(0, None, "request", 0, (0, 100));
        let call = log.push(0, Some(req), "relational.q6", 0, (0, 100));
        log.push(0, Some(call), "parallel.morsel", 1, (10, 40));
        log.push(0, Some(call), "parallel.morsel", 2, (30, 70));
        assert_eq!(log.unattributed_ns(), (40, 100));

        let mut other = SpanLog::default();
        let r = other.push(1, None, "request", 0, (200, 300));
        other.push(1, Some(r), "relational.q1", 0, (200, 300));
        log.append(other);
        assert_eq!(log.unattributed_ns(), (140, 200));
        assert_eq!(log.spans()[5].parent, Some(4));
        let json = log.chrome_json();
        assert!(json.contains("\"name\":\"parallel.morsel\""));
        assert!(json.contains("\"parent\":null"));
    }
}
