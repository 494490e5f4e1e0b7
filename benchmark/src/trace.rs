//! In-memory spans around calls into each layer, recorded by the
//! benchmark from outside the crates and written out when the run ends.

use crate::metrics::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One span: a named interval, the span that caused it, and the day or
/// request it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name; doubles as the per-layer metric name.
    pub name: &'static str,
    /// Request kind for request spans (`""` for day spans); appended to
    /// the name as `name.tag`.
    pub tag: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Day number or request index shared by the spans of one op.
    pub op: u32,
}

impl Span {
    pub fn key(&self) -> String {
        if self.tag.is_empty() {
            self.name.to_string()
        } else {
            format!("{}.{}", self.name, self.tag)
        }
    }
}

/// Aggregate of all spans sharing a key.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    /// Total duration of the spans.
    pub total_ns: u64,
    /// Total duration minus the time covered by their child spans.
    pub self_ns: u64,
}

/// Self time per span key: a span's duration minus its direct
/// children's durations (children never overlap — the recorder is
/// single-threaded and strictly nested).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, SelfTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<String, SelfTime> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.key()).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(children);
    }
    out
}

/// The span recorder. Single-threaded by design: the staged driver and
/// the request replay both run on the main thread.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, tag: &'static str, op: u32) {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            tag,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Close the innermost open span under a name only known once the
    /// call has returned.
    pub fn exit_as(&mut self, name: &'static str) {
        let id = self.open.pop().expect("exit without enter");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.name = name;
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        self.enter(name, tag, op);
        let out = f();
        self.exit();
        out
    }

    pub fn self_times(&self) -> BTreeMap<String, SelfTime> {
        assert!(self.open.is_empty(), "spans still open");
        self_times(&self.spans)
    }

    /// Write every span as `{name, start, end, parent, op}`.
    pub fn write_json(&self, path: &Path, workload: &str, op_kind: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            w,
            "{{\"workload\": {}, \"op\": {}, \"unit\": \"ns\", \"spans\": [",
            json_str(workload),
            json_str(op_kind)
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "  {{\"name\": {}, \"start\": {}, \"end\": {}, \"parent\": {parent}, \"{op_kind}\": {}}}{}",
                json_str(&s.key()),
                s.start_ns,
                s.end_ns,
                s.op,
                if i + 1 == self.spans.len() { "" } else { "," }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        tag: &'static str,
        start: u64,
        end: u64,
        parent: Option<u32>,
    ) -> Span {
        Span {
            name,
            tag,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // day [0,100] ⊃ battery [10,70] ⊃ merge [20,30]; day ⊃ ledger [70,90]
        let spans = vec![
            span("day", "", 0, 100, None),
            span("battery", "", 10, 70, Some(0)),
            span("merge", "", 20, 30, Some(1)),
            span("ledger", "", 70, 90, Some(0)),
            // a second day with one child, to check aggregation by key
            span("day", "", 100, 150, None),
            span("battery", "", 100, 140, Some(4)),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st["day"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: (100 - 60 - 20) + (50 - 40)
            }
        );
        assert_eq!(
            st["battery"],
            SelfTime {
                count: 2,
                total_ns: 100,
                self_ns: 50 + 40
            }
        );
        assert_eq!(st["merge"].self_ns, 10);
        assert_eq!(st["ledger"].self_ns, 20);
        // Self times partition the roots' wall time exactly.
        let total_self: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total_self, 150);
    }

    #[test]
    fn tags_split_keys() {
        let spans = vec![
            span("serve.pool.execute_s", "select", 0, 9, None),
            span("serve.pool.execute_s", "lookup", 9, 10, None),
        ];
        let st = self_times(&spans);
        assert_eq!(st["serve.pool.execute_s.select"].self_ns, 9);
        assert_eq!(st["serve.pool.execute_s.lookup"].self_ns, 1);
    }

    #[test]
    fn recorder_nests_and_parents() {
        let mut tr = Tracer::new();
        tr.enter("day", "", 3);
        let x = tr.span("stage", "", 3, || 7);
        tr.exit();
        assert_eq!(x, 7);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[0].parent, None);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].start_ns <= tr.spans[1].start_ns);
        assert!(tr.spans[1].end_ns <= tr.spans[0].end_ns);
        assert_eq!(tr.spans[1].op, 3);
    }
}
