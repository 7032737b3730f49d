//! Trace analysis: parent links, per-layer self time, and the
//! chrome://tracing export.
//!
//! The traced run drains every `lazydp_obs` span — the benchmark's own
//! `bench.*` spans around each call and the spans the program emits
//! inside them — and links each span to its parent: the innermost span
//! on the same thread that encloses it, or, for a span on a worker
//! thread, the innermost enclosing span on the benchmark's thread. A
//! span's self time is its duration minus the durations of its
//! same-thread children; work a worker does concurrently is not
//! subtracted from the span that waits for it.

use lazydp_obs::trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// The benchmark's per-step span; its thread is the benchmark's thread.
pub const STEP: &str = "bench.step";

/// One completed span with its parent link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Dotted span name.
    pub name: &'static str,
    /// Start, ns since the trace epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
    /// Thread the span ran on.
    pub tid: u64,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }

    fn encloses(&self, other: &Span) -> bool {
        self.start_ns <= other.start_ns && other.end_ns() <= self.end_ns()
    }
}

/// Orders events by thread and start (outer spans first) and links
/// each to its parent.
#[must_use]
pub fn link(events: &[TraceEvent]) -> Vec<Span> {
    let mut spans: Vec<Span> = events
        .iter()
        .map(|e| Span {
            name: e.name,
            start_ns: e.start_ns,
            dur_ns: e.dur_ns,
            tid: e.tid,
            parent: None,
        })
        .collect();
    spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns)));
    let mut open: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = open.last() {
            if spans[top].tid == spans[i].tid && spans[top].encloses(&spans[i]) {
                break;
            }
            open.pop();
        }
        spans[i].parent = open.last().copied();
        open.push(i);
    }
    let main_tid = spans.iter().find(|s| s.name == STEP).map(|s| s.tid);
    for i in 0..spans.len() {
        if spans[i].parent.is_some() || Some(spans[i].tid) == main_tid {
            continue;
        }
        let mut best: Option<usize> = None;
        for (j, cand) in spans.iter().enumerate() {
            if Some(cand.tid) == main_tid
                && cand.encloses(&spans[i])
                && best.is_none_or(|b| cand.dur_ns < spans[b].dur_ns)
            {
                best = Some(j);
            }
        }
        spans[i].parent = best;
    }
    spans
}

/// Total self time per span name.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].tid == s.tid {
                child_ns[p] += s.dur_ns;
            }
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.dur_ns.saturating_sub(c);
    }
    out
}

/// Writes the spans as a chrome://tracing JSON file. Each event carries
/// its index and its parent's index in `args`.
///
/// # Errors
///
/// Propagates the write error.
pub fn write_chrome_trace(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut s = String::from("{\"traceEvents\":[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let parent = sp
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
            sp.name,
            sp.tid,
            sp.start_ns as f64 / 1e3,
            sp.dur_ns as f64 / 1e3,
        );
    }
    s.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    std::fs::write(path, s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, start_ns: u64, dur_ns: u64, tid: u64) -> TraceEvent {
        TraceEvent {
            name,
            start_ns,
            dur_ns,
            tid,
        }
    }

    #[test]
    fn parents_and_self_time_follow_nesting() {
        let events = [
            ev("step.forward", 10, 20, 1),
            ev(STEP, 0, 100, 1),
            ev("bench.optimizer_step", 5, 60, 1),
            ev("worker.fill", 20, 40, 2),
        ];
        let spans = link(&events);
        let idx = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(
            spans[idx("step.forward")].parent,
            Some(idx("bench.optimizer_step"))
        );
        assert_eq!(spans[idx("bench.optimizer_step")].parent, Some(idx(STEP)));
        assert_eq!(
            spans[idx("worker.fill")].parent,
            Some(idx("bench.optimizer_step"))
        );
        let st = self_times(&spans);
        assert_eq!(st["bench.step"], 40);
        assert_eq!(
            st["bench.optimizer_step"], 40,
            "worker time is not subtracted"
        );
        assert_eq!(st["step.forward"], 20);
    }
}
