//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions: a name (`<layer>.<what>`), start and
//! end in nanoseconds since the tracer was created, the span that caused
//! it, and the id of the request (operation) they all belong to. They stay
//! in memory and are written to `benchmark/out/trace-<workload>.json` when
//! the run ends. A layer's self time is its spans' duration minus the part
//! their children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records a tree of spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    request: u64,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), request: 0, open: Vec::new(), spans: Vec::new() }
    }

    /// As [`Tracer::new`] on a shared epoch, so spans of several threads
    /// line up in one file.
    pub fn since(epoch: Instant) -> Self {
        Tracer { epoch, ..Tracer::new() }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's finished spans, renumbering them.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time per span name, nanoseconds: each span's duration minus the
/// durations of its direct children, summed over spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// Self time per layer (the part of the span name before the first `.`).
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, ns) in self_times(spans) {
        *out.entry(name.split('.').next().unwrap_or(name)).or_insert(0) += ns;
    }
    out
}

/// Writes the spans as one JSON document.
pub fn write_json(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        write!(
            out,
            "{}\n{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}",
            if i == 0 { "" } else { "," },
            s.id,
            s.request,
            s.name,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.set_request(7);
        t.span("httpd.dispatch", |t| {
            t.span("json.decode", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("confbench.run", |t| {
                t.span("vmm.exec", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.request == 7));
        let by_name = self_times(spans);
        let total: u64 = by_name.values().sum();
        assert_eq!(total, spans[0].duration_ns(), "self times partition the root");
        assert!(by_name["vmm.exec"] >= 2_000_000);
        assert!(by_name["httpd.dispatch"] < 1_000_000, "the parent's own share is small");
        let by_layer = layer_self_times(spans);
        assert_eq!(by_layer["vmm"], by_name["vmm.exec"]);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut a = Tracer::new();
        a.span("loadgen.op", |_| ());
        let mut b = Tracer::since(a.epoch);
        b.span("loadgen.op", |t| t.span("loadgen.http", |_| ()));
        a.absorb(b);
        let ids: Vec<_> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(0, None), (1, None), (2, Some(1))]);
    }
}
