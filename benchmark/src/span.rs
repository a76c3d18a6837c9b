//! The benchmark's own span recorder: spans are taken from outside the
//! program, around calls into each layer's public functions, kept in
//! memory, and written as JSON lines when the run ends.
//!
//! One span covers one layer function applied to one *chunk* of the
//! request stream (256 `Lookup`s, or one 256-pair `Batch` frame), so the
//! two clock reads per span are amortised over `count` operations.
//! Spans of one chunk share its `chunk` id, and a span's `parent` is the
//! span of the layer above on the same chunk. Because the spans are
//! recorded from outside, a child is a *replay* of the call its parent
//! made internally, not an interval nested inside it — so self time is
//! the parent's duration minus its children's durations, not minus the
//! overlap of their intervals.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use cpr_obs::Json;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index of the span in the recorder.
    pub id: u32,
    /// The span of the layer above on the same chunk.
    pub parent: Option<u32>,
    /// The chunk of the request stream every span of a ladder shares.
    pub chunk: u32,
    /// Layer function, e.g. `serve.multi.answer`.
    pub name: &'static str,
    /// Operations (queries or pairs) the span covers.
    pub count: u32,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Allocations the measuring thread made inside the span, when the
    /// counting allocator is installed.
    pub allocs: Option<u64>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-layer totals over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Operations those spans covered.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the durations of direct children. Signed:
    /// a replayed child can run slower than the call its parent made.
    pub self_ns: i64,
    /// Summed allocation counts (0 when not counted).
    pub allocs: u64,
}

impl LayerTime {
    /// Mean inclusive ns per operation.
    pub fn ns_per_op(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }

    /// Mean self ns per operation.
    pub fn self_ns_per_op(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }

    /// Mean allocations per operation.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.count.max(1) as f64
    }
}

/// In-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Times `f` as one span and returns its result with the span id
    /// (the `parent` of the layer below). Allocations are counted when
    /// the counting allocator is installed.
    pub fn record<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        chunk: u32,
        count: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = Instant::now();
        let (result, allocs) = crate::alloc::count_allocs(f);
        let end = Instant::now();
        let id = self.push(Span {
            id: 0,
            parent,
            chunk,
            name,
            count,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            allocs: crate::alloc::installed().then_some(allocs),
        });
        (result, id)
    }

    fn push(&mut self, mut span: Span) -> u32 {
        span.id = self.spans.len() as u32;
        self.spans.push(span);
        self.spans.len() as u32 - 1
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, with self time by subtraction of direct
    /// children.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children_ns[p as usize] += s.duration_ns();
            }
        }
        let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &self.spans {
            let l = layers.entry(s.name).or_default();
            l.spans += 1;
            l.count += u64::from(s.count);
            l.total_ns += s.duration_ns();
            l.self_ns += s.duration_ns() as i64 - children_ns[s.id as usize] as i64;
            l.allocs += s.allocs.unwrap_or(0);
        }
        layers
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error of `w`, including the final flush.
    pub fn write_jsonl(&self, w: impl Write) -> io::Result<()> {
        let mut w = io::BufWriter::new(w);
        for s in &self.spans {
            let line = Json::obj([
                ("id", Json::int(s.id)),
                ("parent", s.parent.map_or(Json::Null, Json::int)),
                ("chunk", Json::int(s.chunk)),
                ("name", Json::str(s.name)),
                ("count", Json::int(s.count)),
                ("start_ns", Json::int(s.start_ns)),
                ("end_ns", Json::int(s.end_ns)),
                ("allocs", s.allocs.map_or(Json::Null, Json::int)),
            ]);
            writeln!(w, "{}", line.to_compact())?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, count: u32, ns: (u64, u64)) -> Span {
        Span {
            id: 0,
            parent,
            chunk: 7,
            name,
            count,
            start_ns: ns.0,
            end_ns: ns.1,
            allocs: Some(u64::from(count)),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut r = Recorder::default();
        let call = r.push(span("call", None, 10, (0, 1000)));
        let answer = r.push(span("answer", Some(call), 10, (2000, 2400)));
        r.push(span("codec", Some(call), 10, (3000, 3100)));
        r.push(span("lookup", Some(answer), 10, (4000, 4150)));
        let layers = r.layers();
        assert_eq!(layers["call"].self_ns, 1000 - 400 - 100);
        assert_eq!(layers["answer"].self_ns, 400 - 150);
        assert_eq!(layers["lookup"].self_ns, 150);
        assert_eq!(layers["answer"].ns_per_op(), 40.0);
        assert_eq!(layers["answer"].self_ns_per_op(), 25.0);
        assert_eq!(layers["codec"].allocs_per_op(), 1.0);
        // Self times along the ladder sum back to the root span.
        let sum: i64 = layers.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn a_slower_replayed_child_shows_as_negative_self_time() {
        let mut r = Recorder::default();
        let p = r.push(span("parent", None, 1, (0, 100)));
        r.push(span("child", Some(p), 1, (200, 350)));
        assert_eq!(r.layers()["parent"].self_ns, -50);
    }

    #[test]
    fn record_times_the_closure_and_links_parents() {
        let mut r = Recorder::default();
        let (v, outer) = r.record("outer", None, 3, 2, || 41 + 1);
        let ((), inner) = r.record("inner", Some(outer), 3, 2, || ());
        assert_eq!(v, 42);
        let spans = r.spans();
        assert_eq!((spans[0].id, spans[1].id), (outer, inner));
        assert_eq!(spans[1].parent, Some(outer));
        assert!(spans[0].end_ns >= spans[0].start_ns);
        assert!(spans[1].start_ns >= spans[0].end_ns);

        let mut out = Vec::new();
        r.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            cpr_obs::json::validate(line).unwrap();
        }
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
    }
}
