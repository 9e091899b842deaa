//! Spans recorded by the benchmark around calls into the engine's public
//! functions (the engine itself is not instrumented by this benchmark).
//!
//! A span is `(name, start, end, parent, request)`; the spans of one
//! replayed request share its request id. Each client thread keeps its own
//! [`SpanLog`] in memory; the logs are merged and written out once, when
//! the run ends. A span's **self time** is its duration minus the part of
//! that interval its direct children cover.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Spans kept verbatim per thread for the trace file; durations of every
/// span are kept regardless (see [`SpanLog::durations`]).
const MAX_SPANS_KEPT: usize = 4_000;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Numbers the logs of a process, so span ids stay distinct across them.
static NEXT_LOG: AtomicU32 = AtomicU32::new(0);

/// One thread's span recorder.
pub struct SpanLog {
    epoch: Instant,
    /// This log's number, the high byte of its span ids.
    log: u32,
    next_id: u32,
    spans: Vec<Span>,
    durations: BTreeMap<&'static str, Samples>,
}

impl SpanLog {
    /// `epoch` is shared by all logs of a run so their timestamps line up.
    pub fn new(epoch: Instant) -> Self {
        SpanLog {
            epoch,
            log: NEXT_LOG.fetch_add(1, Ordering::Relaxed) & 0xFF,
            next_id: 0,
            spans: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Times `f` as a span and returns its result with the span's id (so a
    /// caller can nest children under it).
    #[inline]
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(&mut Self, u32) -> R,
    ) -> R {
        let id = (self.log << 24) | (self.next_id & 0x00FF_FFFF);
        self.next_id += 1;
        let start = Instant::now();
        let r = f(self, id);
        let end = Instant::now();
        self.durations
            .entry(name)
            .or_default()
            .push(end.duration_since(start));
        if self.spans.len() < MAX_SPANS_KEPT {
            self.spans.push(Span {
                id,
                parent,
                request,
                name,
                start_ns: ns_since(self.epoch, start),
                end_ns: ns_since(self.epoch, end),
            });
        }
        r
    }

    /// Every duration recorded under `name` (all spans, not only the ones
    /// kept verbatim).
    pub fn durations(&mut self, name: &str) -> Samples {
        self.durations.remove(name).unwrap_or_default()
    }

    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
        for (name, s) in other.durations {
            self.durations.entry(name).or_default().merge(&s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Self times of every kept span called `name`: each span's duration
/// minus the union of its direct children's intervals (clipped to the
/// span, overlaps counted once).
pub fn self_times(spans: &[Span], name: &str) -> Samples {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Samples::default();
    for me in spans.iter().filter(|s| s.name == name) {
        let mut kids = children.remove(&me.id).unwrap_or_default();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = me.start_ns;
        for (a, b) in kids {
            let (a, b) = (a.max(reach), b.min(me.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        out.push(Duration::from_nanos(
            (me.end_ns - me.start_ns).saturating_sub(covered),
        ));
    }
    out
}

/// Serialises the trace: one context object, then the spans.
pub fn to_json(context_json: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    let _ = write!(out, "{{\"context\": {context_json}, \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    /// Self time in ns of the only span called `name`.
    fn self_ns(spans: &[Span], name: &str) -> Vec<f64> {
        let s = self_times(spans, name);
        assert_eq!(s.len(), 1);
        vec![(s.percentile_us(1.0) * 1e3).round()]
    }

    #[test]
    fn self_time_subtracts_the_cover_of_direct_children_only() {
        let spans = vec![
            sp(1, None, "root", 100, 200),
            sp(2, Some(1), "kid", 110, 130),      // 20 covered
            sp(3, Some(1), "other", 120, 150),    // overlaps 2: adds 130..150 = 20
            sp(4, Some(1), "other", 190, 260),    // clipped to 190..200 = 10
            sp(5, Some(2), "grandkid", 111, 129), // not subtracted from root
            sp(6, None, "lonely", 0, 1_000),
            sp(7, Some(1), "other", 160, 160), // empty
        ];
        assert_eq!(self_ns(&spans, "root"), vec![50.0]);
        assert_eq!(self_ns(&spans, "kid"), vec![2.0]);
        assert_eq!(self_ns(&spans, "grandkid"), vec![18.0]);
        assert_eq!(self_ns(&spans, "lonely"), vec![1_000.0]);
        assert!(self_times(&spans, "absent").is_empty());
    }

    #[test]
    fn children_covering_the_whole_parent_leave_no_self_time() {
        let spans = vec![
            sp(1, None, "root", 0, 100),
            sp(2, Some(1), "kid", 0, 60),
            sp(3, Some(1), "kid", 60, 100),
        ];
        assert_eq!(self_ns(&spans, "root"), vec![0.0]);
    }

    #[test]
    fn self_times_cover_every_span_of_a_name() {
        let mut spans = Vec::new();
        for r in 0..8u32 {
            let base = r as u64 * 1_000;
            spans.push(sp(r * 3, None, "root", base, base + 100 + r as u64));
            spans.push(sp(r * 3 + 1, Some(r * 3), "kid", base + 10, base + 40));
            spans.push(sp(r * 3 + 2, Some(r * 3), "kid", base + 50, base + 70));
        }
        let s = self_times(&spans, "root");
        assert_eq!(s.len(), 8);
        // Self times are 50..=57 ns; their interquartile mean is that of 52..=55.
        assert!((s.iqm_us() - 0.0535).abs() < 1e-9);
    }

    #[test]
    fn log_records_nested_spans_with_shared_request_id() {
        let mut log = SpanLog::new(Instant::now());
        let other = SpanLog::new(Instant::now());
        assert_ne!(
            log.log, other.log,
            "two logs would hand out the same span ids"
        );
        log.span("outer", None, 42, |log, outer| {
            log.span("inner", Some(outer), 42, |_, _| std::hint::black_box(1 + 1));
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        // The inner span closes first, so it is logged first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(spans.iter().all(|s| s.request == 42));
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);
        assert_eq!(log.durations("inner").len(), 1);
        let json = to_json("{}", log.spans());
        assert!(json.contains("\"name\": \"outer\""));
    }
}
