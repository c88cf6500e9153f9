//! In-memory spans recorded by the benchmark around the public calls it
//! makes into each layer.
//!
//! A disabled [`Tracer`] costs one branch per call site, so the untraced
//! pass runs the same code as the traced one. Spans are kept in memory
//! and written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, `<module>.<call>`.
    pub name: &'static str,
    /// Index of the enclosing span in the same recording, if any.
    pub parent: Option<usize>,
    /// Iteration (set-up plus rep) the span belongs to.
    pub rep: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the spans of one iteration add up to.
#[derive(Debug, Clone, Default)]
pub struct RepSummary {
    /// Total seconds by span name.
    pub totals: BTreeMap<&'static str, f64>,
    /// Share of the root span its direct children leave uncovered.
    pub unaccounted: f64,
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing until [`Self::set_enabled`].
    pub fn new() -> Self {
        Self {
            enabled: false,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
            last_ns: 0,
        }
    }

    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with iteration `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            self.last_ns = 0;
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        let end_ns = self.now();
        self.open.pop();
        self.spans[idx].end_ns = end_ns;
        self.last_ns = end_ns - start_ns;
        out
    }

    /// Duration of the span closed last, in nanoseconds (0 while
    /// disabled).
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Per iteration: total seconds by span name, and the share of the
    /// top-level span named `root` that none of its direct children
    /// covers (1 when the iteration has no such span).
    pub fn summarize(&self, root: &str) -> BTreeMap<u32, RepSummary> {
        let mut out: BTreeMap<u32, RepSummary> = BTreeMap::new();
        let mut covered: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let is_root = |s: &Span| s.parent.is_none() && s.name == root;
        for s in &self.spans {
            let entry = out.entry(s.rep).or_default();
            *entry.totals.entry(s.name).or_insert(0.0) += s.ns() as f64 * 1e-9;
            let c = covered.entry(s.rep).or_default();
            if is_root(s) {
                c.0 += s.ns();
            } else if s.parent.is_some_and(|p| is_root(&self.spans[p])) {
                c.1 += s.ns();
            }
        }
        for (rep, (total, children)) in covered {
            let share = if total > 0 {
                1.0 - children as f64 / total as f64
            } else {
                1.0
            };
            out.get_mut(&rep).expect("same reps").unaccounted = share;
        }
        out
    }

    /// The spans as JSON lines, each with its self time (duration minus
    /// the time its direct children cover).
    pub fn to_jsonl(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"rep\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.rep,
                s.start_ns,
                s.end_ns,
                s.ns().saturating_sub(child_ns[i])
            );
        }
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let v = t.span("a", |_| 3);
        assert_eq!(v, 3);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.set_rep(4);
        t.span("rep", |t| {
            t.span("x.a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("x.b", |_| {});
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 4));
        let summary = t.summarize("rep");
        let un = summary[&4].unaccounted;
        assert!((0.0..0.5).contains(&un), "unaccounted {un}");
        assert!(summary[&4].totals["x.a"] >= 0.002);
        assert_eq!(t.summarize("other")[&4].unaccounted, 1.0);
        assert!(!summary.contains_key(&5));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        assert!(jsonl
            .lines()
            .all(|l| btfluid_harness::json::Json::parse(l).is_ok()));
    }
}
