//! Content-addressed memoization of cell results.
//!
//! Execution here is deterministic: the same (function source, platform,
//! language, VM kind, trials, seed) always yields the same trial times and
//! output. The cache exploits that by addressing results with a SHA-256
//! over exactly those inputs — so a resubmitted campaign is served without
//! touching a VM, and editing a function's source changes its fingerprint
//! and invalidates precisely that function's entries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use confbench_crypto::bounded::OldestOut;
use confbench_crypto::{Digest, Sha256};
use confbench_types::CampaignCell;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// The content address of a cell's result as text: the lowercase hex of
/// [`cache_address`], the form written on the wire
/// (`CellSummary::cache_key`) and pinned by the tests.
pub fn cache_key(cell: &CampaignCell, fingerprint: &str) -> String {
    cache_address(cell, fingerprint).to_string()
}

/// The content address of a cell's result as 32 bytes: what the scheduler,
/// its result cache and the fleet keep. Displays as [`cache_key`], and
/// orders as that text does.
///
/// Fields are newline-framed with `key=` prefixes so distinct inputs cannot
/// collide by concatenation, and the string is versioned so a future layout
/// change cannot silently alias old entries.
pub fn cache_address(cell: &CampaignCell, fingerprint: &str) -> Digest {
    // One buffer hashed once: the bytes are those of hashing each field in
    // turn, for one allocation instead of one a field. Writing into a
    // String cannot fail.
    let mut text = String::with_capacity(256);
    text.push_str("confbench.result-cache.v1\nfn=");
    text.push_str(&cell.function.name);
    for arg in &cell.function.args {
        text.push_str("\narg=");
        text.push_str(arg);
    }
    let _ = write!(
        text,
        "\nsrc={fingerprint}\nlang={}\nplatform={}\nkind={}\ntrials={}\nseed={}",
        cell.language, cell.platform, cell.kind, cell.trials, cell.seed
    );
    // Appended (not interleaved) so device-less cells keep their pre-device
    // addresses and old cache entries stay valid.
    if let Some(device) = cell.device {
        let _ = write!(text, "\ndevice={device}");
    }
    Sha256::digest(text.as_bytes())
}

/// The memoized portion of a completed cell: everything a
/// [`CellSummary`](confbench_types::CellSummary) needs except the serving
/// job's identity and cache provenance (which differ per lookup). Kept once
/// per result, behind an `Arc` that the result cache, every job it answered
/// and the fleet harvest share.
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

/// A thread-safe content-addressed store of [`CachedCell`]s, bounded by an
/// entry cap with least-recently-used eviction.
///
/// Both hits ([`get`](ResultCache::get)) and stores
/// ([`insert`](ResultCache::insert)) refresh an entry's recency; when a new
/// key would exceed the cap the stalest entry is dropped and counted in
/// [`evictions`](ResultCache::evictions). Entries live in an
/// [`OldestOut`] charged 1 apiece, whose ticks are also the harvest's
/// cursor ([`touched_since`](ResultCache::touched_since)). Keys are 32-byte
/// addresses, copied, never allocated; values are shared, and a hit clones
/// a pointer.
#[derive(Debug)]
pub struct ResultCache {
    entries: Mutex<OldestOut<Digest, Arc<CachedCell>>>,
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
        let capacity = capacity.max(1);
        ResultCache {
            entries: Mutex::new(OldestOut::new(capacity)),
            capacity,
            evictions: AtomicU64::new(0),
        }
    }

    /// The entry cap.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up a result by its content address, refreshing its recency.
    pub fn get(&self, key: &Digest) -> Option<Arc<CachedCell>> {
        self.entries.lock().touch(key).map(|cell| Arc::clone(cell))
    }

    /// Stores a result under its content address, evicting the
    /// least-recently-used entries if the cache is full. Returns how many
    /// entries were evicted (so callers can bump an evictions counter).
    pub fn insert(&self, key: Digest, cell: Arc<CachedCell>) -> u64 {
        let mut entries = self.entries.lock();
        if let Some(stored) = entries.touch(&key) {
            *stored = cell;
            return 0;
        }
        let evicted = entries.insert(key, cell, 1);
        self.evictions.fetch_add(evicted, Ordering::SeqCst);
        evicted
    }

    /// A sorted copy of the cache contents (key → cell), keyed by the hex
    /// text of each address ([`cache_key`]), without touching recency.
    /// Serializing a snapshot gives a canonical byte string — the chaos
    /// suite compares snapshots from a faulted and a fault-free campaign to
    /// prove recovery changes nothing measurable.
    pub fn snapshot(&self) -> BTreeMap<String, CachedCell> {
        let mut snapshot = BTreeMap::new();
        self.entries.lock().since(0, |key, cell| {
            snapshot.insert(key.to_string(), CachedCell::clone(cell));
        });
        snapshot
    }

    /// Visits every live entry inserted or hit after tick `since`, oldest
    /// touch first, without touching recency, and returns the current tick:
    /// the cursor to pass next time. The recency order is the completion
    /// log, so a caller that passes back each returned cursor has been shown
    /// every key the cache holds, at the cost of what changed in between.
    /// Entries evicted in between are never visited; from cursor 0, every
    /// live entry is. The visitor runs under the cache lock; keep it short.
    pub fn touched_since(&self, since: u64, visit: impl FnMut(&Digest, &Arc<CachedCell>)) -> u64 {
        self.entries.lock().since(since, visit)
    }

    /// Entries evicted to stay under the cap since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::SeqCst)
    }

    /// Number of distinct results stored.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
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

    fn cached() -> Arc<CachedCell> {
        Arc::new(CachedCell {
            mean_ms: 2.0,
            median_ms: 2.0,
            min_ms: 1.0,
            max_ms: 3.0,
            stddev_ms: 0.5,
            output: "610".into(),
        })
    }

    /// Two addresses as computed before the SHA-NI kernel, the direct
    /// padding, the table hex and the one-buffer layout existed: a bug in
    /// any of them fails here, not only in the benchmark's sim digests.
    #[test]
    fn key_is_pinned() {
        assert_eq!(
            cache_key(&cell(), "srchash"),
            "20528f81283100a26ee9dea1d470b577981dfc7f2608c7e46861e2a9424f9746"
        );
        let mut c = cell();
        c.function.args.push("x y".into());
        c.device = Some(confbench_types::DeviceKind::Gpu);
        assert_eq!(
            cache_key(&c, "srchash"),
            "f166ae21eabcc02637e1b2494e68bee9b544bc5e41ae982f6da3cb539e4b3767"
        );
    }

    #[test]
    fn key_is_hex_sha256_and_deterministic() {
        let k = cache_key(&cell(), "srchash");
        assert_eq!(k.len(), 64);
        assert!(k.chars().all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(k, cache_key(&cell(), "srchash"));
        assert_eq!(k, cache_address(&cell(), "srchash").to_string(), "the address's text");
    }

    /// A cache key by name, for the tests below.
    fn key(name: &str) -> Digest {
        Sha256::digest(name.as_bytes())
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
        let key = cache_address(&cell(), "src");
        assert!(cache.get(&key).is_none());
        cache.insert(key, cached());
        assert_eq!(cache.get(&key), Some(cached()));
        assert_eq!(cache.len(), 1);
        // Re-inserting the same address does not grow the store.
        cache.insert(key, cached());
        assert_eq!(cache.len(), 1);
    }

    fn entry(output: &str) -> Arc<CachedCell> {
        Arc::new(CachedCell { output: output.into(), ..CachedCell::clone(&cached()) })
    }

    #[test]
    fn eviction_is_least_recently_used_order() {
        let cache = ResultCache::with_capacity(3);
        cache.insert(key("a"), entry("a"));
        cache.insert(key("b"), entry("b"));
        cache.insert(key("c"), entry("c"));
        assert_eq!(cache.evictions(), 0);
        // Full: inserting a fourth key evicts the stalest ("a").
        cache.insert(key("d"), entry("d"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(&key("a")).is_none(), "LRU entry evicted first");
        // "b" is now stalest; the next insert drops it.
        cache.insert(key("e"), entry("e"));
        assert!(cache.get(&key("b")).is_none());
        assert!(cache.get(&key("c")).is_some());
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn get_refreshes_recency() {
        let cache = ResultCache::with_capacity(2);
        cache.insert(key("old"), entry("old"));
        cache.insert(key("new"), entry("new"));
        // Touch "old" so "new" becomes the eviction candidate.
        assert!(cache.get(&key("old")).is_some());
        cache.insert(key("third"), entry("third"));
        assert!(cache.get(&key("old")).is_some(), "recently read entry survives");
        assert!(cache.get(&key("new")).is_none(), "unread entry was evicted");
    }

    #[test]
    fn reinsert_updates_without_evicting() {
        let cache = ResultCache::with_capacity(2);
        cache.insert(key("a"), entry("v1"));
        cache.insert(key("b"), entry("b"));
        // Same key: overwrite in place, no eviction even though full.
        cache.insert(key("a"), entry("v2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.get(&key("a")).unwrap().output, "v2");
        // The overwrite also refreshed "a", so "b" evicts next.
        cache.insert(key("c"), entry("c"));
        assert!(cache.get(&key("b")).is_none());
        assert!(cache.get(&key("a")).is_some());
    }

    #[test]
    fn touched_since_visits_what_was_inserted_or_hit_after_the_cursor() {
        let cache = ResultCache::with_capacity(3);
        // Each entry's output names its key, but for "c"'s second value.
        let visit = |since| {
            let mut seen = Vec::new();
            let cursor = cache.touched_since(since, |k, c| {
                assert_eq!(*k, key(c.output.trim_end_matches('2')));
                seen.push(c.output.clone());
            });
            (cursor, seen)
        };
        cache.insert(key("a"), entry("a"));
        cache.insert(key("b"), entry("b"));
        cache.insert(key("c"), entry("c"));
        assert_eq!(visit(0), (3, vec!["a".into(), "b".into(), "c".into()]));
        assert_eq!(visit(3), (3, vec![]), "nothing touched since");

        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("zz")).is_none(), "a miss touches nothing");
        cache.insert(key("d"), entry("d")); // evicts "b"
        cache.insert(key("c"), entry("c2"));
        assert_eq!(visit(3), (6, vec!["a".into(), "d".into(), "c2".into()]));
        assert_eq!(visit(4), (6, vec!["d".into(), "c2".into()]));
        assert_eq!(cache.get(&key("a")).map(|c| c.output.clone()), Some("a".into()));
        assert_eq!(visit(6), (7, vec!["a".into()]), "visiting left recency alone");
    }

    /// The harvest's oracle. A reader folding in `touched_since` from its
    /// last cursor, first key wins, holds exactly what a reader folding in
    /// a whole `snapshot()` after every batch holds, its addresses read as
    /// their text. Caches of 1 to 8 entries over 12 keys, so that between
    /// two reads entries are evicted, hit, overwritten with new values and
    /// inserted again.
    #[test]
    fn fuzz_sweep_touched_since_equals_snapshot_merge() {
        let keys: Vec<Digest> = (0..12).map(|k| key(&format!("k{k}"))).collect();
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
                        cache.insert(*key, entry(&format!("{key}@{batch}.{op}")));
                    }
                }
                cursor = cache.touched_since(cursor, |k, c| {
                    by_cursor.entry(*k).or_insert_with(|| CachedCell::clone(c));
                });
                let snapshot = cache.snapshot();
                overwritten += snapshot
                    .iter()
                    .filter(|&(k, c)| by_snapshot.get(k).is_some_and(|h| h != c))
                    .count();
                for (k, c) in snapshot {
                    by_snapshot.entry(k).or_insert(c);
                }
                let by_text: BTreeMap<String, CachedCell> =
                    by_cursor.iter().map(|(k, c)| (k.to_string(), c.clone())).collect();
                assert_eq!(by_text, by_snapshot, "case {case}, batch {batch}");
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
        cache.insert(key("a"), entry("a"));
        assert!(cache.get(&key("a")).is_some(), "cap-1 cache still serves hits");
        cache.insert(key("b"), entry("b"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
    }
}
