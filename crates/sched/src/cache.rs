//! Content-addressed memoization of cell results.
//!
//! Execution here is deterministic: the same (function source, platform,
//! language, VM kind, trials, seed) always yields the same trial times and
//! output. The cache exploits that by addressing results with a SHA-256
//! over exactly those inputs — so a resubmitted campaign is served without
//! touching a VM, and editing a function's source changes its fingerprint
//! and invalidates precisely that function's entries.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

use confbench_crypto::Sha256;
use confbench_types::CampaignCell;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Computes the content address of a cell's result: lowercase-hex SHA-256
/// over the cell identity plus the function-source fingerprint.
///
/// Fields are newline-framed with `key=` prefixes so distinct inputs cannot
/// collide by concatenation, and the string is versioned so a future layout
/// change cannot silently alias old entries.
pub fn cache_key(cell: &CampaignCell, fingerprint: &str) -> String {
    let mut hasher = Sha256::new();
    hasher.update(b"confbench.result-cache.v1\n");
    hasher.update(format!("fn={}\n", cell.function.name).as_bytes());
    for arg in &cell.function.args {
        hasher.update(format!("arg={arg}\n").as_bytes());
    }
    hasher.update(format!("src={fingerprint}\n").as_bytes());
    hasher.update(
        format!(
            "lang={}\nplatform={}\nkind={}\ntrials={}\nseed={}",
            cell.language, cell.platform, cell.kind, cell.trials, cell.seed
        )
        .as_bytes(),
    );
    // Appended (not interleaved) so device-less cells keep their pre-device
    // addresses and old cache entries stay valid.
    if let Some(device) = cell.device {
        hasher.update(format!("\ndevice={device}").as_bytes());
    }
    hasher.finalize().to_string()
}

/// The memoized portion of a completed cell: everything a
/// [`CellSummary`](confbench_types::CellSummary) needs except the serving
/// job's identity and cache provenance (which differ per lookup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CachedCell {
    /// Mean trial time in milliseconds.
    pub mean_ms: f64,
    /// Median (p50) trial time in milliseconds.
    pub median_ms: f64,
    /// Minimum trial time in milliseconds.
    pub min_ms: f64,
    /// Maximum trial time in milliseconds.
    pub max_ms: f64,
    /// Sample standard deviation in milliseconds.
    pub stddev_ms: f64,
    /// Function output.
    pub output: String,
}

/// Default entry cap for [`ResultCache::new`]; override with
/// [`ResultCache::with_capacity`] (gateway flag `--cache-capacity`).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Entries plus a recency index. `tick` is a logical clock bumped on every
/// touch; `order` maps tick → key so the least-recently-used entry is the
/// first in the map.
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<String, (CachedCell, u64)>,
    order: BTreeMap<u64, String>,
    tick: u64,
}

impl CacheInner {
    fn touch(&mut self, key: &str) {
        self.tick += 1;
        if let Some((_, at)) = self.entries.get_mut(key) {
            let prev = std::mem::replace(at, self.tick);
            self.order.remove(&prev);
            self.order.insert(self.tick, key.to_owned());
        }
    }
}

/// A thread-safe content-addressed store of [`CachedCell`]s, bounded by an
/// entry cap with least-recently-used eviction.
///
/// Both hits ([`get`](ResultCache::get)) and stores
/// ([`insert`](ResultCache::insert)) refresh an entry's recency; when a new
/// key would exceed the cap the stalest entry is dropped and counted in
/// [`evictions`](ResultCache::evictions).
#[derive(Debug)]
pub struct ResultCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        ResultCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl ResultCache {
    /// Creates an empty cache holding up to [`DEFAULT_CACHE_CAPACITY`] entries.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// Creates an empty cache holding up to `capacity` entries (clamped to
    /// ≥ 1 — a zero-capacity cache could never serve a hit).
    pub fn with_capacity(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(CacheInner::default()),
            capacity: capacity.max(1),
            evictions: AtomicU64::new(0),
        }
    }

    /// The entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a result by its content address, refreshing its recency.
    pub fn get(&self, key: &str) -> Option<CachedCell> {
        let mut inner = self.inner.lock();
        let hit = inner.entries.get(key).map(|(cell, _)| cell.clone());
        if hit.is_some() {
            inner.touch(key);
        }
        hit
    }

    /// Stores a result under its content address, evicting the
    /// least-recently-used entries if the cache is full. Returns how many
    /// entries were evicted (so callers can bump an evictions counter).
    pub fn insert(&self, key: String, cell: CachedCell) -> u64 {
        let mut inner = self.inner.lock();
        if inner.entries.contains_key(&key) {
            inner.touch(&key);
            inner.entries.get_mut(&key).expect("touched entry exists").0 = cell;
            return 0;
        }
        let mut evicted = 0;
        while inner.entries.len() >= self.capacity {
            let Some((_, stale)) = inner.order.pop_first() else { break };
            inner.entries.remove(&stale);
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::SeqCst);
        inner.tick += 1;
        let tick = inner.tick;
        inner.order.insert(tick, key.clone());
        inner.entries.insert(key, (cell, tick));
        evicted
    }

    /// A sorted copy of the cache contents (key → cell), without touching
    /// recency. Serializing a snapshot gives a canonical byte string — the
    /// chaos suite compares snapshots from a faulted and a fault-free
    /// campaign to prove recovery changes nothing measurable.
    pub fn snapshot(&self) -> BTreeMap<String, CachedCell> {
        self.inner.lock().entries.iter().map(|(k, (cell, _))| (k.clone(), cell.clone())).collect()
    }

    /// Visits every live entry inserted or hit after tick `since`, oldest
    /// touch first, without touching recency, and returns the current tick:
    /// the cursor to pass next time. The recency index is the completion
    /// log, so a caller that passes back each returned cursor has been shown
    /// every key the cache holds, at the cost of what changed in between.
    /// Entries evicted in between are never visited. The visitor runs under
    /// the cache lock; keep it short.
    pub fn touched_since(&self, since: u64, mut visit: impl FnMut(&str, &CachedCell)) -> u64 {
        let inner = self.inner.lock();
        for key in inner.order.range((Bound::Excluded(since), Bound::Unbounded)).map(|(_, k)| k) {
            visit(key, &inner.entries[key].0);
        }
        inner.tick
    }

    /// Entries evicted to stay under the cap since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::SeqCst)
    }

    /// Number of distinct results stored.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confbench_types::{CampaignFunction, Language, TeePlatform, VmKind};

    fn cell() -> CampaignCell {
        CampaignCell {
            function: CampaignFunction::new("fib").arg("15"),
            language: Language::Go,
            platform: TeePlatform::Tdx,
            kind: VmKind::Secure,
            trials: 10,
            seed: 42,
            device: None,
        }
    }

    fn cached() -> CachedCell {
        CachedCell {
            mean_ms: 2.0,
            median_ms: 2.0,
            min_ms: 1.0,
            max_ms: 3.0,
            stddev_ms: 0.5,
            output: "610".into(),
        }
    }

    #[test]
    fn key_is_hex_sha256_and_deterministic() {
        let k = cache_key(&cell(), "srchash");
        assert_eq!(k.len(), 64);
        assert!(k.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(k, cache_key(&cell(), "srchash"));
    }

    #[test]
    fn every_identity_field_perturbs_the_key() {
        let base = cache_key(&cell(), "src");
        assert_ne!(base, cache_key(&cell(), "other-src"));

        let mut c = cell();
        c.function.name = "fact".into();
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.function.args = vec!["16".into()];
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.language = Language::Lua;
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.platform = TeePlatform::SevSnp;
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.kind = VmKind::Normal;
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.trials = 11;
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.seed = 43;
        assert_ne!(base, cache_key(&c, "src"));
        let mut c = cell();
        c.device = Some(confbench_types::DeviceKind::Gpu);
        assert_ne!(base, cache_key(&c, "src"));
    }

    #[test]
    fn store_and_retrieve() {
        let cache = ResultCache::new();
        assert!(cache.is_empty());
        let key = cache_key(&cell(), "src");
        assert!(cache.get(&key).is_none());
        cache.insert(key.clone(), cached());
        assert_eq!(cache.get(&key), Some(cached()));
        assert_eq!(cache.len(), 1);
        // Re-inserting the same address does not grow the store.
        cache.insert(key, cached());
        assert_eq!(cache.len(), 1);
    }

    fn entry(output: &str) -> CachedCell {
        CachedCell { output: output.into(), ..cached() }
    }

    #[test]
    fn eviction_is_least_recently_used_order() {
        let cache = ResultCache::with_capacity(3);
        cache.insert("a".into(), entry("a"));
        cache.insert("b".into(), entry("b"));
        cache.insert("c".into(), entry("c"));
        assert_eq!(cache.evictions(), 0);
        // Full: inserting a fourth key evicts the stalest ("a").
        cache.insert("d".into(), entry("d"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get("a").is_none(), "LRU entry evicted first");
        // "b" is now stalest; the next insert drops it.
        cache.insert("e".into(), entry("e"));
        assert!(cache.get("b").is_none());
        assert!(cache.get("c").is_some());
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = ResultCache::with_capacity(2);
        cache.insert("old".into(), entry("old"));
        cache.insert("new".into(), entry("new"));
        // Touch "old" so "new" becomes the eviction candidate.
        assert!(cache.get("old").is_some());
        cache.insert("third".into(), entry("third"));
        assert!(cache.get("old").is_some(), "recently read entry survives");
        assert!(cache.get("new").is_none(), "unread entry was evicted");
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let cache = ResultCache::with_capacity(2);
        cache.insert("a".into(), entry("v1"));
        cache.insert("b".into(), entry("b"));
        // Same key: overwrite in place, no eviction even though full.
        cache.insert("a".into(), entry("v2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get("a").unwrap().output, "v2");
        // The overwrite also refreshed "a", so "b" evicts next.
        cache.insert("c".into(), entry("c"));
        assert!(cache.get("b").is_none());
        assert!(cache.get("a").is_some());
    }

    #[test]
    fn touched_since_visits_what_was_inserted_or_hit_after_the_cursor() {
        let cache = ResultCache::with_capacity(3);
        let visit = |since| {
            let mut seen = Vec::new();
            let cursor = cache.touched_since(since, |k, c| seen.push(format!("{k}={}", c.output)));
            (cursor, seen)
        };
        cache.insert("a".into(), entry("a"));
        cache.insert("b".into(), entry("b"));
        cache.insert("c".into(), entry("c"));
        assert_eq!(visit(0), (3, vec!["a=a".into(), "b=b".into(), "c=c".into()]));
        assert_eq!(visit(3), (3, vec![]), "nothing touched since");

        assert!(cache.get("a").is_some());
        assert!(cache.get("zz").is_none(), "a miss touches nothing");
        cache.insert("d".into(), entry("d")); // evicts "b"
        cache.insert("c".into(), entry("c2"));
        assert_eq!(visit(3), (6, vec!["a=a".into(), "d=d".into(), "c=c2".into()]));
        assert_eq!(visit(4), (6, vec!["d=d".into(), "c=c2".into()]));
        assert_eq!(cache.get("a").map(|c| c.output), Some("a".into()));
        assert_eq!(visit(6), (7, vec!["a=a".into()]), "visiting left recency alone");
    }

    /// The harvest's oracle. A reader folding in `touched_since` from its
    /// last cursor, first key wins, holds exactly what a reader folding in
    /// a whole `snapshot()` after every batch holds. Caches of 1 to 8
    /// entries over 12 keys, so that between two reads entries are evicted,
    /// hit, overwritten with new values and inserted again.
    #[test]
    fn fuzz_sweep_touched_since_equals_snapshot_merge() {
        let keys: Vec<String> = (0..12).map(|k| format!("k{k}")).collect();
        let (mut evictions, mut overwritten) = (0, 0);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = confbench_crypto::SplitMix64::new(0xC5C0_0000 ^ case);
            let cache = ResultCache::with_capacity(1 + rng.next_below(8) as usize);
            let (mut by_cursor, mut by_snapshot) = (BTreeMap::new(), BTreeMap::new());
            let mut cursor = 0;
            for batch in 0..1 + rng.next_below(24) {
                for op in 0..rng.next_below(8) {
                    let key = &keys[rng.next_below(keys.len() as u64) as usize];
                    if rng.next_below(3) == 0 {
                        cache.get(key);
                    } else {
                        cache.insert(key.clone(), entry(&format!("{key}@{batch}.{op}")));
                    }
                }
                cursor = cache.touched_since(cursor, |k, c| {
                    by_cursor.entry(k.to_owned()).or_insert_with(|| c.clone());
                });
                let snapshot = cache.snapshot();
                overwritten += snapshot
                    .iter()
                    .filter(|&(k, c)| by_snapshot.get(k).is_some_and(|h| h != c))
                    .count();
                for (k, c) in snapshot {
                    by_snapshot.entry(k).or_insert(c);
                }
                assert_eq!(by_cursor, by_snapshot, "case {case}, batch {batch}");
            }
            evictions += cache.evictions();
        }
        assert!(evictions > 0, "no entry was ever evicted");
        assert!(overwritten > 0, "no harvested key was ever given a new value");
    }

    #[test]
    fn capacity_clamps_to_one() {
        let cache = ResultCache::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        cache.insert("a".into(), entry("a"));
        assert!(cache.get("a").is_some(), "cap-1 cache still serves hits");
        cache.insert("b".into(), entry("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }
}
