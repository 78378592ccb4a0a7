//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while a run is measured and are written out
//! when it ends. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `embed.sgns`.
    pub name: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// End, same clock.
    pub end_us: f64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The cycle or request this span belongs to.
    pub tag: u64,
}

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// An instant on the tracer's clock, microseconds.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Open a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, tag: u64) -> SpanId {
        let now = self.now_us();
        self.record(name, parent, tag, now, now)
    }

    /// Close a span now; returns its duration in microseconds, so a
    /// caller that also reports the time needs no second clock.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let span = &mut self.spans[id];
        span.end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        span.end_us - span.start_us
    }

    /// Record a span whose interval was measured elsewhere (a phase
    /// time the program reports, laid inside the call that made it).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        tag: u64,
        start_us: f64,
        end_us: f64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent,
            tag,
        });
        self.spans.len() - 1
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start of a span, for laying reported phase times inside it.
    pub fn start_of(&self, id: SpanId) -> f64 {
        self.spans[id].start_us
    }

    /// Self time of every span, microseconds, indexed like `spans()`.
    pub fn self_times_us(&self) -> Vec<f64> {
        self_times_us(&self.spans)
    }

    /// Self time summed by span name, microseconds.
    pub fn self_time_by_name_us(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_us()) {
            *out.entry(span.name).or_insert(0.0) += own;
        }
        out
    }

    /// The log as JSON: self time summed by name, a name table, and
    /// one compact row per span,
    /// `[name index, start µs, end µs, parent or -1, tag]`.
    pub fn to_json(&self) -> Json {
        let mut names: Vec<&'static str> = Vec::new();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let idx = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                    names.push(s.name);
                    names.len() - 1
                });
                Json::nums(&[
                    idx as f64,
                    s.start_us.round(),
                    s.end_us.round(),
                    s.parent.map_or(-1.0, |p| p as f64),
                    s.tag as f64,
                ])
            })
            .collect();
        let own = self.self_time_by_name_us();
        Json::obj([
            (
                "self_us_by_name",
                Json::obj(
                    own.into_iter()
                        .map(|(name, us)| (name, Json::Num(us.round()))),
                ),
            ),
            ("columns", Json::str("name,start_us,end_us,parent,tag")),
            (
                "names",
                Json::Arr(names.into_iter().map(Json::str).collect()),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Self time of each span: duration minus the union of its children's
/// intervals, clipped to the span.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<SpanId>) -> Span {
        Span {
            name: "x",
            start_us: start,
            end_us: end,
            parent,
            tag: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0.0, 100.0, None),     // 0: root
            span(10.0, 40.0, Some(0)),  // 1
            span(30.0, 60.0, Some(0)),  // 2: overlaps 1 by 10
            span(90.0, 120.0, Some(0)), // 3: runs past the parent
            span(15.0, 20.0, Some(1)),  // 4: grandchild
        ];
        let own = self_times_us(&spans);
        // root: 100 - ([10,60] ∪ [90,100]) = 100 - 60 = 40
        assert_eq!(own[0], 40.0);
        assert_eq!(own[1], 25.0);
        assert_eq!(own[2], 30.0);
        assert_eq!(own[3], 30.0);
        assert_eq!(own[4], 5.0);
    }

    #[test]
    fn sibling_self_times_add_up_to_the_root() {
        let mut t = Tracer::default();
        let root = t.record("cycle", None, 1, 0.0, 50.0);
        t.record("a", Some(root), 1, 0.0, 20.0);
        t.record("b", Some(root), 1, 20.0, 45.0);
        let by = t.self_time_by_name_us();
        assert_eq!(by["cycle"], 5.0);
        assert_eq!(by["a"] + by["b"] + by["cycle"], 50.0);
        let json = t.to_json();
        assert_eq!(json.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            json.path(&["self_us_by_name", "b"]).unwrap().as_f64(),
            Some(25.0)
        );
    }
}
