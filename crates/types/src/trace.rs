//! Structured trace spans piggybacked on run results.
//!
//! ConfBench's value proposition is that measurement data rides along with
//! every dispatched run (paper §III-B). A [`TraceSpan`] tree makes the
//! pipeline's cost structure visible: the gateway opens a root span per
//! request, the host and VM layers nest children under it (one per cost
//! event class — SEAMCALL transitions, RMP validation, RMM commands,
//! bounce-buffer copies), and the finished tree returns to the caller inside
//! [`RunResult::trace`](crate::RunResult).
//!
//! Spans are a *wire* type: they serialize to JSON and round-trip through
//! remote dispatch unchanged. The recording machinery that builds them lives
//! in the `confbench-obs` crate.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// One node of a trace-span tree.
///
/// Timestamps come from the injectable [`Clock`](crate::Clock) (milliseconds;
/// only differences are meaningful), attributes are named integer totals
/// (`vm_exits`, `bounce_bytes`, `retry_attempt`, cycle counts, …), and
/// children nest arbitrarily deep.
///
/// # Example
///
/// ```
/// use confbench_types::TraceSpan;
///
/// let mut root = TraceSpan::new("gateway.run", 100);
/// root.end_ms = 130;
/// let mut child = TraceSpan::new("swiotlb.copy", 105);
/// child.end_ms = 120;
/// child.set_attr("bytes", 4096);
/// root.children.push(child);
/// assert_eq!(root.find("swiotlb.copy").unwrap().attr("bytes"), Some(4096));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Span name, dot-namespaced by layer and event class
    /// (`"gateway.run"`, `"host.execute"`, `"tdx.seamcall"`).
    pub name: String,
    /// Start timestamp in clock milliseconds.
    pub start_ms: u64,
    /// End timestamp in clock milliseconds (`>= start_ms` once finished).
    pub end_ms: u64,
    /// Named integer attributes (counts, bytes, cycles).
    #[serde(default)]
    pub attrs: BTreeMap<String, u64>,
    /// Child spans, in recording order.
    #[serde(default)]
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    /// Creates an open span (`end_ms == start_ms`) with no attributes.
    pub fn new(name: impl Into<String>, start_ms: u64) -> Self {
        TraceSpan {
            name: name.into(),
            start_ms,
            end_ms: start_ms,
            attrs: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Sets (overwriting) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: u64) {
        self.attrs.insert(key.into(), value);
    }

    /// Adds to an attribute, creating it at zero first.
    pub fn add_attr(&mut self, key: impl Into<String>, delta: u64) {
        *self.attrs.entry(key.into()).or_insert(0) += delta;
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<u64> {
        self.attrs.get(key).copied()
    }

    /// Span duration in clock milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.end_ms.saturating_sub(self.start_ms)
    }

    /// Depth-first search (self included) for the first span named `name`.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total number of spans in this tree (self included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(TraceSpan::span_count).sum::<usize>()
    }

    /// Renders the tree as an indented outline, one span per line — the
    /// human-readable form used by the CLI and EXPERIMENTS walkthroughs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push_str(&format!(" [{}ms]", self.duration_ms()));
        for (k, v) in &self.attrs {
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

impl fmt::Display for TraceSpan {
    /// Renders the indented outline (see [`TraceSpan::render`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.render().trim_end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> TraceSpan {
        let mut root = TraceSpan::new("gateway.run", 10);
        root.end_ms = 50;
        root.set_attr("retry_attempt", 0);
        let mut host = TraceSpan::new("host.execute", 12);
        host.end_ms = 48;
        let mut exit = TraceSpan::new("tdx.seamcall", 14);
        exit.end_ms = 40;
        exit.set_attr("count", 7);
        host.children.push(exit);
        root.children.push(host);
        root
    }

    #[test]
    fn find_descends_depth_first() {
        let t = tree();
        assert_eq!(t.find("tdx.seamcall").unwrap().attr("count"), Some(7));
        assert!(t.find("missing").is_none());
        assert_eq!(t.find("gateway.run").unwrap().name, "gateway.run");
    }

    #[test]
    fn attrs_accumulate() {
        let mut s = TraceSpan::new("x", 0);
        s.add_attr("bytes", 10);
        s.add_attr("bytes", 32);
        assert_eq!(s.attr("bytes"), Some(42));
        s.set_attr("bytes", 1);
        assert_eq!(s.attr("bytes"), Some(1));
    }

    #[test]
    fn counts_and_duration() {
        let t = tree();
        assert_eq!(t.span_count(), 3);
        assert_eq!(t.duration_ms(), 40);
        // An unfinished span has zero duration, never underflow.
        let s = TraceSpan::new("open", 5);
        assert_eq!(s.duration_ms(), 0);
    }

    #[test]
    fn json_roundtrip_preserves_nesting() {
        let t = tree();
        let json = serde_json::to_string(&t).unwrap();
        let back: TraceSpan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn render_is_indented_outline() {
        let r = tree().render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("gateway.run [40ms]"));
        assert!(lines[1].starts_with("  host.execute"));
        assert!(lines[2].starts_with("    tdx.seamcall"));
        assert!(lines[2].contains("count=7"));
    }

    #[test]
    fn defaults_tolerate_sparse_json() {
        // Old peers may omit attrs/children entirely.
        let json = r#"{"name":"x","start_ms":1,"end_ms":2}"#;
        let s: TraceSpan = serde_json::from_str(json).unwrap();
        assert!(s.attrs.is_empty());
        assert!(s.children.is_empty());
    }
}
