//! In-memory span recording around the benchmark's calls into each layer.
//!
//! A span is recorded by the benchmark's own code, not by the program: it
//! brackets one call into a crate of the workspace, and names the layer
//! after that crate (`netlist`, `sta`, `serve`).  Where the call matches a
//! span the program itself emits (`sta.net_build`, `spef.*`), the span uses
//! the matching name, so per-layer figures can later come from the
//! program's own spans without renaming a metric.
//!
//! Every op runs under one root span (`bench.op`).  A span's *self time*
//! is its duration minus the part of it its child spans cover, so the self
//! times of all spans of an op add up to the root's duration exactly; the
//! root's own self time is the time no layer accounts for
//! (`bench.unattributed_ms`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer and name of the root span of every op.
pub const ROOT: (&str, &str) = ("bench", "bench.op");

/// One finished (or still open, `end_ns == start_ns`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Op the span belongs to; every span of one op shares it.
    pub op: u64,
    /// Index of the span in recording order.
    pub id: usize,
    /// The enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Crate the bracketed call goes into (`bench` for the root).
    pub layer: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Start and end, nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanHandle = Option<usize>;

/// Records spans in memory; with tracing off, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span inside the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanHandle {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            op: self.op,
            id,
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanHandle) {
        let Some(id) = span else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Self time of every span (indexed like `spans`): its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// The per-layer metric a span's self time reports under:
/// `<layer>.<name without the layer prefix, dots as underscores>_ms`, and
/// `bench.unattributed_ms` for the root.
pub fn metric_name(layer: &str, name: &str) -> String {
    if (layer, name) == ROOT {
        return "bench.unattributed_ms".to_string();
    }
    let stem = name
        .strip_prefix(layer)
        .and_then(|rest| rest.strip_prefix('.'))
        .unwrap_or(name);
    format!("{layer}.{}_ms", stem.replace('.', "_"))
}

/// Self time per metric, summed over the ops `keep` selects, and the
/// number of those ops with their summed root durations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub ops: usize,
    pub wall_ns: u64,
    pub self_ns: BTreeMap<String, u64>,
}

impl LayerTotals {
    pub fn of(spans: &[SpanRecord], keep: impl Fn(u64) -> bool) -> LayerTotals {
        let mut totals = LayerTotals::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            if !keep(s.op) {
                continue;
            }
            if s.parent.is_none() {
                totals.ops += 1;
                totals.wall_ns += s.end_ns - s.start_ns;
            }
            *totals
                .self_ns
                .entry(metric_name(s.layer, s.name))
                .or_default() += own;
        }
        totals
    }

    /// Mean self time per op of `metric`, in milliseconds.
    pub fn mean_ms(&self, metric: &str) -> Option<f64> {
        let ns = *self.self_ns.get(metric)?;
        Some(ns as f64 / 1e6 / self.ops.max(1) as f64)
    }

    /// Mean root duration per op, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_ns as f64 / 1e6 / self.ops.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        let layer = if parent.is_none() { "bench" } else { "sta" };
        SpanRecord {
            op: 1,
            id,
            parent,
            layer,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let spans = vec![
            span(0, None, "bench.op", 0, 100),
            span(1, Some(0), "sta.a", 10, 40),
            // Overlaps its sibling: the union counts, not the sum.
            span(2, Some(0), "sta.b", 30, 60),
            // A grandchild reduces its parent only.
            span(3, Some(1), "sta.c", 15, 20),
            // Sticks out of its parent: only the covered part counts.
            span(4, Some(0), "sta.d", 90, 130),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 25, 30, 5, 40]);
    }

    #[test]
    fn nested_self_times_add_up_to_the_root() {
        let spans = vec![
            span(0, None, "bench.op", 0, 1000),
            span(1, Some(0), "sta.a", 100, 400),
            span(2, Some(1), "sta.b", 150, 250),
            span(3, Some(0), "sta.c", 500, 900),
        ];
        let totals = LayerTotals::of(&spans, |_| true);
        assert_eq!(totals.ops, 1);
        assert_eq!(totals.self_ns.values().sum::<u64>(), 1000);
        assert_eq!(totals.self_ns["bench.unattributed_ms"], 300);
        assert_eq!(totals.self_ns["sta.a_ms"], 200);
    }

    #[test]
    fn tracer_nests_and_tags_ops() {
        let mut tracer = Tracer::new(true);
        tracer.set_op(7);
        let root = tracer.begin(ROOT.0, ROOT.1);
        let child = tracer.begin("sta", "sta.net_build");
        tracer.end(child);
        tracer.end(root);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let totals = LayerTotals::of(spans, |op| op == 7);
        let sum: u64 = totals.self_ns.values().sum();
        assert_eq!(sum, totals.wall_ns);
        assert_eq!(tracer.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        let h = off.begin("sta", "sta.analyze");
        off.end(h);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn metric_names_follow_the_layer() {
        assert_eq!(
            metric_name("netlist", "spef.parse"),
            "netlist.spef_parse_ms"
        );
        assert_eq!(metric_name("sta", "sta.net_build"), "sta.net_build_ms");
        assert_eq!(metric_name("bench", "bench.op"), "bench.unattributed_ms");
    }
}
