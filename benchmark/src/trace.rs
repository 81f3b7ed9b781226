//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each crate's public functions. Nothing is written until the run ends.

use rtk_obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation (request) the span belongs to.
    pub op: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Spans, kept in memory.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start = self.now();
        self.spans.push(Span { name, op, parent, start, end: start });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 / 1e6)
            .collect()
    }

    /// The duration in milliseconds of the span named `name` in each
    /// operation that has one, keyed by operation.
    pub fn by_op_ms(&self, name: &str) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op).or_insert(0.0) += s.duration() as f64 / 1e6;
        }
        out
    }

    /// Every span, with its self time, as a JSON array.
    pub fn to_json(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let spans = self
            .spans
            .iter()
            .zip(&self_ns)
            .map(|(s, &own)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::U64(s.op)),
                    ("parent".into(), s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                    ("start_ns".into(), Json::U64(s.start)),
                    ("end_ns".into(), Json::U64(s.end)),
                    ("self_ns".into(), Json::U64(own)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children (concurrent work) are
/// merged first, so covered time is never counted twice, and a child's
/// time outside its parent's interval is not subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut cover)| {
            cover.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (lo, hi) in cover {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, op: 0, parent, start, end }
    }

    #[test]
    fn self_time_with_overlapping_children() {
        let spans = vec![
            span("root", None, 0, 100),
            // Two concurrent children overlapping on [20, 40): 10..60 covered.
            span("a", Some(0), 10, 40),
            span("b", Some(0), 20, 60),
            // A grandchild inside `a` only reduces `a`.
            span("a1", Some(1), 15, 25),
            // A child sticking out of its parent counts only inside it.
            span("c", Some(0), 90, 130),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 50 - 10, 30 - 10, 40, 10, 40]);
    }

    #[test]
    fn nested_self_times_sum_to_the_root() {
        let spans = vec![
            span("op", None, 0, 1000),
            span("core", Some(0), 5, 600),
            span("pmpn", Some(1), 10, 200),
            span("screen", Some(1), 200, 590),
            span("wire", Some(0), 610, 990),
        ];
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].duration());
    }

    #[test]
    fn recorder_keeps_nested_spans_in_memory() {
        let mut rec = Recorder::new();
        let root = rec.begin("op", 7, None);
        let v = rec.time("leaf", 7, Some(root), || 41 + 1);
        rec.end(root);
        assert_eq!(v, 42);
        assert_eq!(rec.spans().len(), 2);
        assert!(rec.spans()[1].start >= rec.spans()[0].start);
        assert!(rec.spans()[1].end <= rec.spans()[0].end);
        assert_eq!(rec.by_op_ms("leaf").keys().copied().collect::<Vec<_>>(), vec![7]);
        assert!(rec.to_json().render().starts_with("[{\"name\":\"op\""));
    }
}
