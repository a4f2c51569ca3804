//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into the library crates. Each span keeps its name, start and end
//! (seconds since the tracer was created), the span that caused it and an
//! optional request id. Nothing is written until the run ends; then the
//! spans go to a JSON file and a self-time tree goes to stderr.
//!
//! With tracing off every method is a no-op apart from running the
//! wrapped closure, so the untraced run pays nothing for the spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds since the tracer was created.
    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// The innermost open span of the calling thread.
    pub fn current(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, child of the calling thread's
    /// innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.current();
        let id = self.open(name, parent);
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        self.close(id);
        out
    }

    /// Records an interval measured elsewhere (request spans, trainer
    /// epochs reconstructed from observer callbacks). Returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start: self.at(start),
            end: self.at(end),
            parent,
            req,
        });
        Some(id)
    }

    fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.at(Instant::now());
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let id = spans.len();
        spans.push(Span {
            id,
            name,
            start,
            end: start,
            parent,
            req: None,
        });
        id
    }

    fn close(&self, id: usize) {
        let end = self.at(Instant::now());
        self.spans.lock().expect("span lock poisoned")[id].end = end;
    }

    /// Id of the latest span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        let spans = self.spans.lock().expect("span lock poisoned");
        spans.iter().rev().find(|s| s.name == name).map(|s| s.id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock poisoned").clone()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`: the part of a
/// parent's interval its children cover, counting overlapping children
/// (requests on two connections) once.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur): (f64, Option<(f64, f64)>) = (0.0, None);
    for (s, e) in intervals {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
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

/// Per-span self time: the span's duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Aggregated node of the printed tree: spans with the same name under the
/// same aggregated parent fold into one line.
#[derive(Default)]
struct Node {
    count: usize,
    wall: f64,
    self_time: f64,
    children: BTreeMap<&'static str, Node>,
}

/// Renders the span tree with wall, self time and, for every parent, the
/// sum of its children's wall against its own.
pub fn tree_report(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut path_of: Vec<Vec<&'static str>> = Vec::with_capacity(spans.len());
    for s in spans {
        let mut path = s.parent.map(|p| path_of[p].clone()).unwrap_or_default();
        path.push(s.name);
        path_of.push(path);
    }
    let mut root = Node::default();
    for (i, s) in spans.iter().enumerate() {
        let mut node = &mut root;
        for name in &path_of[i] {
            node = node.children.entry(name).or_default();
        }
        node.count += 1;
        node.wall += s.end - s.start;
        node.self_time += selfs[i];
    }
    let mut out = String::from(
        "span tree (wall and self time summed over the spans folded into each line)\n",
    );
    fn walk(node: &Node, depth: usize, out: &mut String) {
        for (name, child) in &node.children {
            let kids: f64 = child.children.values().map(|c| c.wall).sum();
            let mut line = format!(
                "{:indent$}{name} x{}  wall {:.4}s  self {:.4}s",
                "",
                child.count,
                child.wall,
                child.self_time,
                indent = 2 * depth
            );
            if !child.children.is_empty() {
                line.push_str(&format!(
                    "  children {:.4}s = {:.1}% of wall",
                    kids,
                    100.0 * kids / child.wall.max(f64::MIN_POSITIVE)
                ));
            }
            out.push_str(&line);
            out.push('\n');
            walk(child, depth + 1, out);
        }
    }
    walk(&root, 0, &mut out);
    out
}

/// The spans as one JSON document (`{"spans":[...]}`).
pub fn spans_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, own)| {
            format!(
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"self\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start,
                s.end,
                own,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.req.map_or("null".to_owned(), |r| r.to_string()),
            )
        })
        .collect();
    format!("{{\"spans\":[{}]}}\n", rows.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let c = covered(
            vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)],
            0.5,
            10.0,
        );
        assert!((c - (2.5 + 1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, start, end, parent| Span {
            id,
            name: "x",
            start,
            end,
            parent,
            req: None,
        };
        let spans = vec![
            mk(0, 0.0, 10.0, None),
            mk(1, 1.0, 4.0, Some(0)),
            mk(2, 3.0, 6.0, Some(0)),
        ];
        let s = self_times(&spans);
        assert!((s[0] - 5.0).abs() < 1e-12);
        assert!((s[1] - 3.0).abs() < 1e-12);
    }
}
