//! Outside-in layer tracing: spans recorded by the benchmark around its
//! calls into each layer's public API.
//!
//! A span has a name, start, end, parent span and request id. Spans stay
//! in memory until the run ends; [`Tracer::layers`] then folds them into
//! per-layer self times (a span's duration minus the part its child spans
//! cover). Counts are recorded at the same boundaries with
//! [`Tracer::count`].

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// The request (or pair) the span worked for; 0 when it served the
    /// whole batch.
    pub req: u64,
}

impl Span {
    fn ns(&self) -> f64 {
        self.end.duration_since(self.start).as_nanos() as f64
    }
}

/// Self time and call count of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub calls: u64,
    /// Distinct requests the layer's spans worked for (0 when every span
    /// served a whole batch).
    pub requests: usize,
    pub self_ns: f64,
}

impl Layer {
    /// Mean self time per call, in ns.
    pub fn ns_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns / self.calls as f64
        }
    }
}

/// Runs `f` under a span when there is a tracer, plainly when there is
/// none, so traced and untraced runs share one code path.
pub fn span_opt<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    req: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open_span(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Opens a span that later work (or [`Tracer::record`]) nests under;
    /// close it with [`Tracer::close`].
    pub fn open_span(&mut self, name: &'static str, req: u64) -> usize {
        let now = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in nesting order");
        self.spans[id].end = Instant::now();
    }

    /// Records an already-finished interval as a child of the innermost
    /// open span — for intervals measured inside a call the benchmark
    /// wraps (the fleet executor's `execute`).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            req,
        });
    }

    /// Adds `v` to the count `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_insert(0.0) += v;
    }

    /// The accumulated value of count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every count, by name.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// Per-layer self times: each span's duration minus its children's,
    /// summed by span name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        let mut requests: BTreeMap<&'static str, BTreeSet<u64>> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.self_ns += (s.ns() - children).max(0.0);
            if s.req != 0 {
                requests.entry(s.name).or_default().insert(s.req);
            }
        }
        for (name, reqs) in requests {
            if let Some(l) = out.get_mut(name) {
                l.requests = reqs.len();
            }
        }
        out
    }

    /// The layer `name` (all zero if no span had that name).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers().get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let outer = t.open_span("outer", 0);
        t.record("inner", 1, at(5), at(10));
        t.record("inner", 2, at(10), at(12));
        t.close(outer);
        t.spans[outer].start = at(0);
        t.spans[outer].end = at(20);
        t.span("outer", 0, || ());
        let layers = t.layers();
        assert_eq!(layers["inner"].calls, 2);
        assert_eq!(layers["inner"].requests, 2);
        assert_eq!(layers["outer"].calls, 2);
        assert_eq!(layers["outer"].requests, 0);
        let outer_self = layers["outer"].self_ns;
        assert!(
            (13e6..14e6).contains(&outer_self),
            "outer self {outer_self}"
        );
        assert_eq!(t.spans[1].parent, Some(outer));
        assert_eq!(t.spans[3].parent, None);
    }
}
