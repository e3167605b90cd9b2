//! In-memory spans around the calls the harness makes into each layer.
//!
//! A span is `(name, start, end, parent, item)`: spans opened while
//! another is open become its children, and every span of one item
//! carries that item's id. Spans stay in memory while the benchmark
//! measures and are written to `benchmark/out/trace.ndjson` when it
//! ends, each with its self time (duration minus the part its direct
//! children cover).

use std::time::Instant;

use approxdd::sim::json::Json;

/// One finished span. Times are nanoseconds since the slice's child
/// process started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.run`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span in the same slice, if any.
    pub parent: Option<usize>,
    /// Item the span belongs to (`u64::MAX` for set-up and probes).
    pub item: u64,
}

/// Item id of spans recorded outside any timed item.
pub const NO_ITEM: u64 = u64::MAX;

/// Records spans for one slice. Nesting follows call order: `enter`
/// pushes, `exit` pops.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts at `origin`.
    #[must_use]
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str, item: u64) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            item,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit without a matching enter");
        self.spans[index].end_ns = end_ns;
    }

    /// The spans recorded so far, in opening order.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children (children of one parent never overlap here, because
/// a slice's spans come from one thread).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Renders one slice's spans as NDJSON lines. `base` is added to span
/// and parent indices so ids stay unique across the slices of a run.
#[must_use]
pub fn to_ndjson(workload: &str, slice: usize, base: usize, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, span) in spans.iter().enumerate() {
        let line = Json::obj([
            ("workload", Json::str(workload)),
            ("slice", Json::int(slice)),
            ("id", Json::int(base + i)),
            (
                "parent",
                span.parent.map_or(Json::Null, |p| Json::int(base + p)),
            ),
            (
                "item",
                if span.item == NO_ITEM {
                    Json::Null
                } else {
                    Json::Num(span.item as f64)
                },
            ),
            ("name", Json::str(span.name.as_str())),
            ("start_ns", Json::Num(span.start_ns as f64)),
            ("end_ns", Json::Num(span.end_ns as f64)),
            ("self_ns", Json::Num(own[i] as f64)),
        ]);
        out.push_str(&line.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            item: 0,
        }
    }

    #[test]
    fn nesting_follows_call_order() {
        let mut t = Tracer::new(Instant::now());
        t.enter("item", 3);
        t.enter("core.build", 3);
        t.exit();
        t.enter("core.run", 3);
        t.exit();
        t.exit();
        t.enter("item", 4);
        t.exit();
        let spans = t.into_spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), None]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(spans[3].item, 4);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("item", 0, 100, None),
            span("core.run", 10, 90, Some(0)),
            span("dd.probe", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), [20, 50, 30]);
    }

    #[test]
    fn ndjson_rebases_ids() {
        let spans = [span("item", 0, 10, None), span("core.run", 1, 9, Some(0))];
        let text = to_ndjson("pool_sweep", 2, 100, &spans);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""id":100,"parent":null"#));
        assert!(lines[1].contains(r#""id":101,"parent":100"#));
        assert!(lines[1].contains(r#""self_ns":8"#));
    }
}
