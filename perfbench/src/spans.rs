//! The benchmark's own span recorder: spans around its calls into each
//! layer, kept in memory and written out when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use genedit_telemetry::{Span, Trace};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    /// Request the span belongs to (0 for work outside any request).
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread. A disabled recorder records nothing
/// and returns span id 0, so untraced runs pay one branch per call site.
pub struct Recorder {
    enabled: AtomicBool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off, e.g. around an untraced comparison phase.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span between two instants; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        self.record_ns(name, parent, request, self.offset(start), self.offset(end))
    }

    /// Record a span from origin offsets; returns its id.
    pub fn record_ns(
        &self,
        name: &str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        if !self.enabled() {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .push(SpanRec {
                id,
                parent,
                request,
                name: name.to_string(),
                start_ns,
                end_ns: end_ns.max(start_ns),
            });
        id
    }

    /// Import a pipeline trace under `parent`, placing the trace's own
    /// zero at `origin_ns`. The pipeline times its operators itself; the
    /// benchmark only re-homes those spans so their self times come out
    /// of the same computation as every other layer's.
    pub fn import_trace(&self, trace: &Trace, parent: u64, request: u64, origin_ns: u64) {
        fn walk(rec: &Recorder, span: &Span, parent: u64, request: u64, origin_ns: u64) {
            let start = origin_ns + span.start.as_nanos() as u64;
            let end = start + span.duration.as_nanos() as u64;
            let id = rec.record_ns(&span.name, Some(parent), request, start, end);
            for child in &span.children {
                walk(rec, child, id, request, origin_ns);
            }
        }
        if !self.enabled() {
            return;
        }
        for span in &trace.spans {
            walk(self, span, parent, request, origin_ns);
        }
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span list lock is never held across a panic")
            .clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[SpanRec]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            (s.id, s.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals` inside `[lo, hi]`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-name totals over a span set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Count, total and self time of the spans, grouped by name.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<String, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += selfs.get(&s.id).copied().unwrap_or(0);
    }
    out
}

/// Write the spans as JSON lines: one object per span.
pub fn write_jsonl(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{:?},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            request: 7,
            name: name.to_string(),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100]: children [10,30] and [20,50] overlap (union 40),
        // plus [90,120] clipped to [90,100] (10) -> root self 50.
        // child a [10,30] has its own child [25,35], clipped to [25,30]
        // -> a's self time is 20 - 5 = 15.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 30),
            span(3, Some(1), "b", 20, 50),
            span(4, Some(1), "c", 90, 120),
            span(5, Some(2), "leaf", 25, 35),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 15);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 30);
        assert_eq!(selfs[&5], 10);

        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["root"].self_ns, 50);
        assert_eq!(by_name["leaf"].count, 1);
    }

    #[test]
    fn self_times_of_a_tree_without_overlap_add_up_to_the_root() {
        let spans = vec![
            span(1, None, "root", 0, 1000),
            span(2, Some(1), "x", 100, 400),
            span(3, Some(2), "y", 150, 250),
            span(4, Some(1), "z", 500, 900),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs.values().sum::<u64>(), 1000);
    }

    #[test]
    fn imported_traces_keep_their_nesting() {
        let rec = Recorder::new(true);
        let trace = Trace {
            name: "pipeline.generate".into(),
            spans: vec![Span {
                name: "pipeline.generate".into(),
                start: Duration::from_nanos(0),
                duration: Duration::from_nanos(100),
                attrs: Vec::new(),
                children: vec![Span {
                    name: "operator.intent".into(),
                    start: Duration::from_nanos(10),
                    duration: Duration::from_nanos(40),
                    attrs: Vec::new(),
                    children: Vec::new(),
                }],
            }],
            warnings: Vec::new(),
        };
        let parent = rec.record_ns("serve.service", None, 3, 1000, 1200);
        rec.import_trace(&trace, parent, 3, 1100);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].start_ns, 1110);
        assert_eq!(spans[2].parent, Some(spans[1].id));
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["pipeline.generate"].self_ns, 60);
        assert_eq!(by_name["serve.service"].self_ns, 100);

        let off = Recorder::new(false);
        assert_eq!(off.record_ns("x", None, 0, 0, 1), 0);
        assert!(off.snapshot().is_empty());
    }
}
