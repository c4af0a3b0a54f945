//! Spans timed from outside: the benchmark brackets its own calls into
//! each crate's public functions. Spans stay in memory and are written
//! out once, when the run ends.

use std::io::Write;

use parqp_testkit::bench::time_ns;

use crate::alloc;
use crate::json::Value;

/// One timed call. `parent` is the index of the enclosing span; spans
/// of one operation share `op`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocation calls made by this thread inside the span (children
    /// included); 0 unless [`alloc::count`] is running.
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store of one traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// Start a new operation: later spans carry the next identifier.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Time `f` as a span named `name`, nested under whichever span is
    /// open on this tracer.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
        });
        self.open.push(id);
        let allocs_before = alloc::snapshot();
        let start_ns = time_ns();
        let out = f(self);
        let end_ns = time_ns();
        let allocs = alloc::snapshot().since(allocs_before).allocs;
        self.open.pop();
        if let Some(span) = self.spans.get_mut(id) {
            span.start_ns = start_ns;
            span.end_ns = end_ns;
            span.allocs = allocs;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append a finished span (tests build trees by hand).
    #[cfg(test)]
    pub fn push(&mut self, span: Span) {
        self.spans.push(span);
    }

    /// A span's duration minus the part of it its direct children
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let Some(span) = self.spans.get(id) else {
            return 0;
        };
        let covered: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| {
                c.end_ns
                    .min(span.end_ns)
                    .saturating_sub(c.start_ns.max(span.start_ns))
            })
            .sum();
        span.duration_ns().saturating_sub(covered)
    }

    /// Per operation, `value` summed over the spans called `name`, in
    /// operation order.
    fn per_op(&self, name: &str, value: impl Fn(usize, &Span) -> u64) -> Vec<u64> {
        let mut out: Vec<(u32, u64)> = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            let v = value(id, span);
            match out.last_mut() {
                Some((op, sum)) if *op == span.op => *sum += v,
                _ => out.push((span.op, v)),
            }
        }
        out.into_iter().map(|(_, v)| v).collect()
    }

    /// Self time in ms of the spans called `name`, one sample per
    /// operation.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |id, _| self.self_ns(id))
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect()
    }

    /// Full duration in ms (children included), one sample per
    /// operation.
    pub fn total_ms(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |_, s| s.duration_ns())
            .into_iter()
            .map(|ns| ns as f64 / 1e6)
            .collect()
    }

    /// The part of the spans called `name` that their children cover,
    /// ms, one sample per operation.
    pub fn covered_ms(&self, name: &str) -> Vec<f64> {
        self.per_op(name, |id, s| {
            s.duration_ns().saturating_sub(self.self_ns(id))
        })
        .into_iter()
        .map(|ns| ns as f64 / 1e6)
        .collect()
    }

    /// Allocation calls inside the spans called `name`, one sample per
    /// operation.
    pub fn allocs(&self, name: &str) -> Vec<u64> {
        self.per_op(name, |_, s| s.allocs)
    }

    /// One JSON object per line: `{name, op, parent, start_ns, end_ns,
    /// allocs}`, `parent` the line index of the enclosing span or null.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for span in &self.spans {
            let line = Value::obj([
                ("name", Value::str(span.name)),
                ("op", Value::from(u64::from(span.op))),
                (
                    "parent",
                    span.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                ),
                ("start_ns", Value::from(span.start_ns)),
                ("end_ns", Value::from(span.end_ns)),
                ("allocs", Value::from(span.allocs)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn span(
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let mut t = Tracer::default();
        t.push(span("op", 1, None, 0, 100)); // 0
        t.push(span("route", 1, Some(0), 10, 40)); // 1
        t.push(span("scan", 1, Some(1), 15, 25)); // 2: grandchild of op
        t.push(span("map", 1, Some(0), 50, 90)); // 3
        t.push(span("op", 2, None, 200, 260)); // 4
        t.push(span("route", 2, Some(4), 200, 250)); // 5
        assert_eq!(
            t.self_ns(0),
            100 - 30 - 40,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(t.self_ns(1), 30 - 10);
        assert_eq!(t.self_ns(2), 10);
        assert_eq!(t.self_ns(4), 10);
        assert_eq!(t.self_ns(99), 0, "unknown span");
        // One sample per operation, in operation order.
        assert_eq!(t.total_ms("route"), vec![30e-6, 50e-6]);
        assert_eq!(t.self_ms("route"), vec![20e-6, 50e-6]);
        assert_eq!(t.covered_ms("op"), vec![70e-6, 50e-6]);
        assert!(t.total_ms("absent").is_empty());
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let mut t = Tracer::default();
        t.push(span("op", 1, None, 10, 20));
        t.push(span("late", 1, Some(0), 15, 30));
        assert_eq!(t.self_ns(0), 5);
    }

    #[test]
    fn live_spans_nest_and_share_the_operation() {
        let mut t = Tracer::default();
        t.next_op();
        let out = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.op, s.parent)).collect();
        assert_eq!(names, vec![("outer", 1, None), ("inner", 1, Some(0))]);
        let (outer, inner) = (&t.spans()[0], &t.spans()[1]);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn span_file_is_one_parseable_object_per_line() {
        let mut t = Tracer::default();
        t.push(span("op", 3, None, 5, 9));
        t.push(span("join.route", 3, Some(0), 6, 8));
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("in-memory write");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| json::parse(l).expect("valid JSON"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].get("parent"), Some(&Value::Null));
        assert_eq!(lines[1].get("name"), Some(&Value::str("join.route")));
        assert_eq!(lines[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(lines[1].get("end_ns").and_then(Value::as_f64), Some(8.0));
    }
}
