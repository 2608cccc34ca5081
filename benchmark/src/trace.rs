//! In-memory spans around the benchmark's own calls into the crates,
//! written once as JSON lines when the traced run ends.
//!
//! Spans are recorded on the benchmark's main thread only (operation →
//! solve → replayed layer calls); spans inside the crates, and per-rank
//! spans, are a later change.

use crate::report::uint;
use serde_json::Value;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the span that is
    /// open now. A span opened with no parent starts a new operation.
    /// Returns the span's index with `f`'s result.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (usize, R) {
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.op += 1;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        (idx, out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in opening order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Value::Object(vec![
                ("id".into(), uint(i as u64)),
                ("op".into(), uint(s.op)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| uint(p as u64)),
                ),
                ("name".into(), Value::String(s.name.clone())),
                ("start_ns".into(), uint(s.start_ns)),
                ("end_ns".into(), uint(s.end_ns)),
                ("self_ns".into(), uint(self_ns(&self.spans, i))),
            ]);
            let text = serde_json::to_string(&line).map_err(std::io::Error::other)?;
            writeln!(out, "{text}")?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Children may overlap each other and may
/// stick out of the parent; only the covered part of the parent counts.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (me.end_ns - me.start_ns) - covered
}

/// Share of span `idx` covered by its children: `1 − self / duration`.
pub fn coverage(spans: &[Span], idx: usize) -> f64 {
    let dur = spans[idx].end_ns - spans[idx].start_ns;
    if dur == 0 {
        return 1.0;
    }
    1.0 - self_ns(spans, idx) as f64 / dur as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            sp(0, 100, None),
            sp(10, 40, Some(0)),
            sp(30, 60, Some(0)),  // overlaps the previous child
            sp(90, 120, Some(0)), // sticks out of the parent
            sp(15, 20, Some(1)),  // grandchild: not the root's business
        ];
        // union of children inside [0,100]: [10,60] + [90,100] = 60
        assert_eq!(self_ns(&spans, 0), 40);
        assert_eq!(self_ns(&spans, 1), 25);
        assert_eq!(self_ns(&spans, 4), 5);
        assert!((coverage(&spans, 0) - 0.6).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_and_numbers_operations() {
        let mut t = Tracer::new();
        let (a, _) = t.span("op-a", |t| {
            t.span("child", |t| {
                t.span("grandchild", |_| ());
            });
        });
        let (b, v) = t.span("op-b", |_| 7);
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[a].parent, None);
        assert_eq!(s[1].parent, Some(a));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!((s[a].op, s[1].op, s[2].op, s[b].op), (1, 1, 1, 2));
        for x in s {
            assert!(x.end_ns >= x.start_ns);
        }
        assert!(s[1].start_ns >= s[a].start_ns && s[1].end_ns <= s[a].end_ns);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::new();
        t.span("operation", |t| {
            t.span("solve", |_| ());
        });
        let dir = crate::out_dir().join(format!("test-trace-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let v: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("solve"));
        assert_eq!(v.get("parent").and_then(Value::as_u64), Some(0));
        assert_eq!(v.get("op").and_then(Value::as_u64), Some(1));
    }
}
