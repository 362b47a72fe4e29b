//! The metrics registry: monotonic counters and fixed-bucket histograms.
//!
//! Hot-path updates are single atomic operations; the registry's lock is
//! taken only to register or look up an instrument by name. Values are
//! plain integers fed by the simulation's deterministic counts — no
//! wall-clock reads, so test assertions on metric values are exact.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways (queue depth, in-flight jobs,
/// cache entries). Stored as a `u64` — the quantities ConfBench gauges are
/// counts, never negative — with saturating decrement.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Decrements by one, saturating at zero.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Decrements by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let mut current = self.value.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(n);
            match self.value.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, inclusive upper bounds (`value <= bound` lands in
/// that bucket; larger values land in the implicit overflow bucket).
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        let mut bounds = bounds.to_vec();
        bounds.sort_unstable();
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, buckets, count: AtomicU64::new(0), sum: AtomicU64::new(0) }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self.bounds.iter().position(|&b| value <= b).unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Upper bounds (sorted, deduplicated).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// A point-in-time copy of the histogram's state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Serializable point-in-time state of one [`Histogram`].
///
/// `buckets` has one more entry than `bounds`: the final entry is the
/// overflow bucket for values above the largest bound.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (last entry = overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// Serializable point-in-time state of a whole [`MetricsRegistry`]
/// (the JSON body of `GET /v1/metrics?format=json`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (absent from pre-scheduler peers).
    #[serde(default)]
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// A named collection of counters and histograms, shared via `Arc`.
///
/// Instruments are created on first use and live for the registry's
/// lifetime; repeated lookups return the same instrument, so callers may
/// either cache the `Arc` (hot paths) or look up by name each time.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    ///
    /// Names follow the Prometheus convention — `snake_case` with a unit
    /// suffix, optionally with `{key="value"}` labels baked into the name
    /// (the registry treats the whole string as the identity).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        instrument(&self.counters, name, Counter::default)
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        instrument(&self.gauges, name, Gauge::default)
    }

    /// Returns (creating if needed) the histogram named `name` with the
    /// given inclusive upper `bounds`. Bounds are fixed at first
    /// registration; later calls ignore the argument.
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        instrument(&self.histograms, name, || Histogram::new(bounds))
    }

    /// The value of counter `name`, or `None` if it was never created.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters.lock().get(name).map(|c| c.get())
    }

    /// The value of gauge `name`, or `None` if it was never created.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges.lock().get(name).map(|g| g.get())
    }

    /// A point-in-time copy of every instrument.
    pub fn snapshot(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            counters: self.counters.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: self.gauges.lock().iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (counters as `name value`, histograms as `_bucket`/`_sum`/`_count`
    /// series), names sorted for deterministic output.
    pub fn render_text(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        // BTreeMap order keeps labeled series of one family adjacent, so a
        // single `# TYPE` line per family is just TYPE-on-base-change.
        let mut last_family = String::new();
        for (name, value) in &snap.counters {
            let base = base_name(name);
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} counter");
                last_family = base.to_owned();
            }
            let _ = writeln!(out, "{name} {value}");
        }
        last_family.clear();
        for (name, value) in &snap.gauges {
            let base = base_name(name);
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} gauge");
                last_family = base.to_owned();
            }
            let _ = writeln!(out, "{name} {value}");
        }
        last_family.clear();
        for (name, h) in &snap.histograms {
            let (base, labels) = split_labels(name);
            if base != last_family {
                let _ = writeln!(out, "# TYPE {base} histogram");
                last_family = base.to_owned();
            }
            let with_le = |le: &str| match labels {
                "" => format!("{{le=\"{le}\"}}"),
                labels => format!("{{{labels},le=\"{le}\"}}"),
            };
            let plain = match labels {
                "" => String::new(),
                labels => format!("{{{labels}}}"),
            };
            let mut cumulative = 0u64;
            for (i, bucket) in h.buckets.iter().enumerate() {
                cumulative += bucket;
                let le = match h.bounds.get(i) {
                    Some(le) => le.to_string(),
                    None => "+Inf".to_owned(),
                };
                let _ = writeln!(out, "{base}_bucket{} {cumulative}", with_le(&le));
            }
            let _ = writeln!(out, "{base}_sum{plain} {}", h.sum);
            let _ = writeln!(out, "{base}_count{plain} {}", h.count);
        }
        out
    }
}

/// The instrument named `name` in `map`, created by `new` on first use. A
/// lookup that finds it allocates nothing; only creation copies the name.
fn instrument<T>(
    map: &Mutex<BTreeMap<String, Arc<T>>>,
    name: &str,
    new: impl FnOnce() -> T,
) -> Arc<T> {
    let mut map = map.lock();
    if let Some(found) = map.get(name) {
        return Arc::clone(found);
    }
    Arc::clone(map.entry(name.to_owned()).or_insert_with(|| Arc::new(new())))
}

/// Strips baked-in `{labels}` from a metric name for `# TYPE` lines.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Splits `name{k="v"}` into `("name", "k=\"v\"")`; labels are empty when
/// the name carries none.
fn split_labels(name: &str) -> (&str, &str) {
    match name.split_once('{') {
        Some((base, rest)) => (base, rest.trim_end_matches('}')),
        None => (name, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_monotonic_and_shared() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total");
        let b = reg.counter("requests_total");
        a.inc();
        b.add(41);
        assert_eq!(reg.counter_value("requests_total"), Some(42));
        assert_eq!(reg.counter_value("absent"), None);
    }

    #[test]
    fn histogram_buckets_values_inclusively() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("latency_ms", &[10, 100, 1000]);
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets, vec![2, 2, 0, 1]); // <=10: {1,10}; <=100: {11,100}; overflow: 5000
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5122);
    }

    #[test]
    fn gauges_move_both_ways_and_saturate_at_zero() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("queue_depth");
        g.add(5);
        g.dec();
        assert_eq!(reg.gauge_value("queue_depth"), Some(4));
        g.sub(10);
        assert_eq!(g.get(), 0, "decrement saturates at zero");
        g.set(42);
        assert_eq!(reg.gauge_value("queue_depth"), Some(42));
        assert_eq!(reg.gauge_value("absent"), None);
    }

    #[test]
    fn gauges_render_and_snapshot() {
        let reg = MetricsRegistry::new();
        reg.gauge("sched_queue_depth").set(3);
        reg.counter("c_total").inc();
        let text = reg.render_text();
        assert!(text.contains("# TYPE sched_queue_depth gauge"), "{text}");
        assert!(text.contains("sched_queue_depth 3"), "{text}");
        let json = serde_json::to_string(&reg.snapshot()).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gauges["sched_queue_depth"], 3);
        // Old peers omit the gauges key entirely; default applies.
        let legacy: RegistrySnapshot =
            serde_json::from_str(r#"{"counters":{},"histograms":{}}"#).unwrap();
        assert!(legacy.gauges.is_empty());
    }

    #[test]
    fn histogram_bounds_sorted_and_deduped() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x", &[100, 10, 100, 1]);
        assert_eq!(h.bounds(), &[1, 10, 100]);
    }

    #[test]
    fn text_rendering_is_prometheus_shaped_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(2);
        reg.counter("a_total{platform=\"tdx\"}").inc();
        reg.histogram("lat_ms", &[5]).observe(3);
        reg.histogram("lat_ms", &[5]).observe(9);
        let text = reg.render_text();
        let a = text.find("a_total{platform=\"tdx\"} 1").expect("labeled counter");
        let b = text.find("b_total 2").expect("plain counter");
        assert!(a < b, "names must render sorted:\n{text}");
        assert!(text.contains("# TYPE a_total counter"), "label stripped in TYPE line");
        assert!(text.contains("lat_ms_bucket{le=\"5\"} 1"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 2"), "cumulative buckets");
        assert!(text.contains("lat_ms_sum 12"));
        assert!(text.contains("lat_ms_count 2"));
    }

    #[test]
    fn one_type_line_per_family_and_labeled_histogram_series() {
        let reg = MetricsRegistry::new();
        reg.counter("served_total{platform=\"snp\"}").inc();
        reg.counter("served_total{platform=\"tdx\"}").add(2);
        reg.histogram("lat_ms{platform=\"tdx\"}", &[5]).observe(3);
        let text = reg.render_text();
        assert_eq!(
            text.matches("# TYPE served_total counter").count(),
            1,
            "adjacent labeled series share one TYPE line:\n{text}"
        );
        assert!(text.contains("lat_ms_bucket{platform=\"tdx\",le=\"5\"} 1"), "{text}");
        assert!(text.contains("lat_ms_sum{platform=\"tdx\"} 3"), "{text}");
        assert!(text.contains("lat_ms_count{platform=\"tdx\"} 1"), "{text}");
    }

    /// Instruments found by name are the ones created, and the exposition
    /// is byte for byte what it was when every lookup copied the name.
    #[test]
    fn repeated_lookups_render_the_pinned_text() {
        let reg = MetricsRegistry::new();
        for _ in 0..3 {
            reg.counter("walk_memo_hits_total").add(2);
            reg.counter("vm_rebuilds_total{platform=\"tdx\",kind=\"secure\"}").inc();
            reg.gauge("sched_jobs_inflight").inc();
            reg.histogram("gateway_run_ms", &[1, 10]).observe(5);
        }
        reg.gauge("sched_jobs_inflight").dec();
        assert!(Arc::ptr_eq(&reg.counter("a_total"), &reg.counter("a_total")));
        assert_eq!(
            reg.render_text(),
            "# TYPE a_total counter\n\
             a_total 0\n\
             # TYPE vm_rebuilds_total counter\n\
             vm_rebuilds_total{platform=\"tdx\",kind=\"secure\"} 3\n\
             # TYPE walk_memo_hits_total counter\n\
             walk_memo_hits_total 6\n\
             # TYPE sched_jobs_inflight gauge\n\
             sched_jobs_inflight 2\n\
             # TYPE gateway_run_ms histogram\n\
             gateway_run_ms_bucket{le=\"1\"} 0\n\
             gateway_run_ms_bucket{le=\"10\"} 3\n\
             gateway_run_ms_bucket{le=\"+Inf\"} 3\n\
             gateway_run_ms_sum 15\n\
             gateway_run_ms_count 3\n"
        );
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let reg = MetricsRegistry::new();
        reg.counter("c").add(7);
        reg.histogram("h", &[1]).observe(2);
        let json = serde_json::to_string(&reg.snapshot()).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters["c"], 7);
        assert_eq!(back.histograms["h"].count, 1);
    }

    #[test]
    fn registry_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MetricsRegistry>();
        assert_send_sync::<Counter>();
        assert_send_sync::<Gauge>();
        assert_send_sync::<Histogram>();
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hits_total");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter_value("hits_total"), Some(4000));
    }
}
