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

/// A finished [`TraceSpan`] tree packed into one allocation, for keeping.
///
/// A live tree costs an allocation per name, per attribute key and per
/// attribute map, and a vector per span with children. Packed, the same
/// tree is one byte string: spans in pre-order, each its name, start and
/// end, its counts and its attributes. A name or key the daemon's spans
/// use is one byte, any other is written literally. A start is a delta
/// from the parent's start (the root's from 0), an end a delta from its own
/// start, both signed, so that a child that began before its parent costs
/// a byte or two as well. Integers are LEB128 varints.
/// [`PackedTrace::unpack`] gives back a tree `==` to the one packed.
///
/// ```
/// use confbench_types::{PackedTrace, TraceSpan};
///
/// let mut root = TraceSpan::new("sched.execute", 3);
/// root.set_attr("trials", 10);
/// root.children.push(TraceSpan::new("gateway.run", 4));
/// assert_eq!(PackedTrace::pack(&root).unpack(), Some(root));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTrace(Box<[u8]>);

/// The span names and attribute keys a packed tree writes as one byte:
/// name `NAMES[i]` as byte `i + 1`. Byte 0 starts a literal name. Packed
/// trees live in memory only, so the table may change with the code.
const NAMES: [&str; 38] = [
    "sched.execute",
    "sched.enqueue",
    "gateway.run",
    "remote.execute",
    "host.execute",
    "launcher.bootstrap",
    "perf.measure",
    "vm.execute",
    "vm.rebuild",
    "vm.reattest",
    "attest.verify",
    "vmexit",
    "tdx.seamcall",
    "tdx.page-accept",
    "snp.ghcb-exit",
    "snp.rmp-validate",
    "cca.rmm-exit",
    "cca.rmm-delegate",
    "swiotlb.copy",
    "guest.syscall",
    "devio.attest",
    "devio.dma-direct",
    "devio.dma-bounce",
    "devio.kernel",
    "trials",
    "seed",
    "retry_attempt",
    "retries",
    "rebuild_no",
    "vm_exits",
    "bounce_bytes",
    "count",
    "cycles",
    "pages",
    "bytes",
    "slots",
    "network_us",
    "platform",
];

impl PackedTrace {
    /// Packs `span` and its whole subtree.
    pub fn pack(span: &TraceSpan) -> Self {
        let mut out = Vec::with_capacity(128);
        pack_span(span, 0, &mut out);
        PackedTrace(out.into_boxed_slice())
    }

    /// The tree [`PackedTrace::pack`] was given. `None` is never returned
    /// for a packed tree; it answers bytes that are not one.
    pub fn unpack(&self) -> Option<TraceSpan> {
        let mut rest = &self.0[..];
        let span = unpack_span(&mut rest, 0)?;
        rest.is_empty().then_some(span)
    }

    /// How many bytes the packed tree takes.
    pub fn size(&self) -> usize {
        self.0.len()
    }
}

/// Attribute counts below this share a varint with the child count; a
/// span with more writes the rest after it.
const INLINE_ATTRS: usize = 15;

fn pack_span(span: &TraceSpan, parent_start: u64, out: &mut Vec<u8>) {
    pack_name(&span.name, out);
    pack_delta(span.start_ms, parent_start, out);
    pack_delta(span.end_ms, span.start_ms, out);
    // The child count and the attribute count in one varint: a span with
    // fewer than eight children and fifteen attributes spends one byte.
    let attrs = span.attrs.len();
    pack_varint((span.children.len() as u64) << 4 | attrs.min(INLINE_ATTRS) as u64, out);
    if attrs >= INLINE_ATTRS {
        pack_varint((attrs - INLINE_ATTRS) as u64, out);
    }
    for (key, &value) in &span.attrs {
        pack_name(key, out);
        pack_varint(value, out);
    }
    for child in &span.children {
        pack_span(child, span.start_ms, out);
    }
}

fn pack_name(name: &str, out: &mut Vec<u8>) {
    match NAMES.iter().position(|&known| known == name) {
        Some(index) => out.push(index as u8 + 1),
        None => {
            out.push(0);
            pack_varint(name.len() as u64, out);
            out.extend_from_slice(name.as_bytes());
        }
    }
}

/// `value - base`, wrapping, as a signed varint (zigzag): any two `u64`s
/// round-trip, and a small step either way is a byte.
fn pack_delta(value: u64, base: u64, out: &mut Vec<u8>) {
    let delta = value.wrapping_sub(base) as i64;
    pack_varint(((delta << 1) ^ (delta >> 63)) as u64, out);
}

fn pack_varint(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn unpack_span(rest: &mut &[u8], parent_start: u64) -> Option<TraceSpan> {
    let name = unpack_name(rest)?;
    let start_ms = unpack_delta(rest, parent_start)?;
    let mut span = TraceSpan::new(name, start_ms);
    span.end_ms = unpack_delta(rest, start_ms)?;
    let counts = unpack_varint(rest)?;
    let mut attrs = (counts & 0xf) as usize;
    if attrs == INLINE_ATTRS {
        attrs = attrs.checked_add(usize::try_from(unpack_varint(rest)?).ok()?)?;
    }
    for _ in 0..attrs {
        let key = unpack_name(rest)?;
        span.attrs.insert(key, unpack_varint(rest)?);
    }
    let children = usize::try_from(counts >> 4).ok()?;
    // Every child takes at least four bytes: no count can ask for more
    // room than the bytes left could fill.
    span.children.reserve_exact(children.min(rest.len() / 4));
    for _ in 0..children {
        span.children.push(unpack_span(rest, start_ms)?);
    }
    Some(span)
}

fn unpack_name(rest: &mut &[u8]) -> Option<String> {
    let (&byte, tail) = rest.split_first()?;
    *rest = tail;
    if byte > 0 {
        return NAMES.get(usize::from(byte) - 1).map(|&name| name.to_owned());
    }
    let len = usize::try_from(unpack_varint(rest)?).ok()?;
    let (text, tail) = rest.split_at_checked(len)?;
    *rest = tail;
    String::from_utf8(text.to_vec()).ok()
}

fn unpack_delta(rest: &mut &[u8], base: u64) -> Option<u64> {
    let zigzag = unpack_varint(rest)?;
    let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
    Some(base.wrapping_add(delta as u64))
}

fn unpack_varint(rest: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&byte, tail) = rest.split_first()?;
        *rest = tail;
        v |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return Some(v);
        }
    }
    None
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

    /// A random tree: names and keys drawn from the one-byte table, plain,
    /// escaped, non-ASCII and empty strings, empty and full attribute maps,
    /// values across the whole u64 range, wide or deep (down to 300 levels)
    /// nesting.
    fn random_tree(rng: &mut confbench_crypto::SplitMix64, depth: u32) -> TraceSpan {
        const TEXT: [&str; 11] = [
            "sched.execute",
            "tdx.seamcall",
            "trials",
            "cycles",
            "",
            "quote\"back\\slash",
            "line\nfeed\ttab\u{1}",
            "héllo wörld",
            "名前",
            "🦀 spans",
            "\u{7f}\u{80}\u{10ffff}",
        ];
        let draw_u64 = |rng: &mut confbench_crypto::SplitMix64| match rng.next_below(4) {
            0 => rng.next_below(128),
            1 => u64::MAX - rng.next_below(4),
            _ => rng.next_u64() >> rng.next_below(64),
        };
        // Names and keys in and out of the one-byte table: a drawn text as
        // it is, or with a digit after it.
        let suffix = |rng: &mut confbench_crypto::SplitMix64, n| match rng.next_below(n) {
            0 => String::new(),
            digit => digit.to_string(),
        };
        let name = TEXT[rng.next_below(TEXT.len() as u64) as usize];
        let mut span = TraceSpan::new(format!("{name}{}", suffix(rng, 3)), draw_u64(rng));
        span.end_ms = draw_u64(rng);
        for _ in 0..rng.next_below(4) * rng.next_below(4) {
            let key = TEXT[rng.next_below(TEXT.len() as u64) as usize];
            span.set_attr(format!("{key}{}", suffix(rng, 5)), draw_u64(rng));
        }
        if depth > 8 {
            // A chain down to the shallow levels, so deep trees stay narrow.
            span.children.push(random_tree(rng, depth - 1));
        }
        let siblings = match rng.next_below(8) {
            _ if depth == 0 => 0,
            0 => 4,
            1 | 2 => 1,
            _ => 0,
        };
        for _ in 0..siblings {
            span.children.push(random_tree(rng, (depth - 1).min(7)));
        }
        span
    }

    /// Every random tree passes through the packed form unchanged, and a
    /// packed tree is smaller than its JSON. Cut short anywhere, its bytes
    /// unpack to nothing rather than to another tree.
    #[test]
    fn fuzz_sweep_packed_trace_round_trips() {
        let (mut spans, mut deepest) = (0, 0);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = confbench_crypto::SplitMix64::new(0x7ACE_0000 ^ case);
            let depth = if rng.next_below(16) == 0 { 300 } else { rng.next_below(8) as u32 };
            let tree = random_tree(&mut rng, depth);
            let packed = PackedTrace::pack(&tree);
            assert_eq!(packed.unpack().as_ref(), Some(&tree), "case {case}");
            assert!(packed.0.len() <= serde_json::to_string(&tree).unwrap().len(), "case {case}");
            let cut = rng.next_below(packed.0.len() as u64) as usize;
            let short = PackedTrace(packed.0[..cut].into());
            assert_eq!(short.unpack(), None, "case {case}, cut at {cut}");
            spans += tree.span_count();
            deepest = deepest.max(depth_of(&tree));
        }
        assert!(deepest >= 100 && spans > 0, "deepest {deepest}, {spans} spans");
    }

    fn depth_of(span: &TraceSpan) -> usize {
        1 + span.children.iter().map(depth_of).max().unwrap_or(0)
    }

    #[test]
    fn packed_trace_keeps_the_pinned_tree() {
        let t = tree();
        let packed = PackedTrace::pack(&t);
        assert_eq!(packed.unpack(), Some(t));
        // 72 bytes when names were written in full and times absolute.
        assert_eq!(packed.size(), 16);
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
