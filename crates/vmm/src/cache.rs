//! A small two-level set-associative cache simulator.
//!
//! The paper observes (§IV-D) that a few workloads run *faster* inside the
//! confidential VM and traces this to differing cache-hit behaviour (cf. the
//! TDXdown caching studies it cites). We reproduce the causal channel: a
//! confidential guest's pages land in differently-colored host frames, so
//! the same guest access stream maps to different cache sets. The VM model
//! feeds every memory op through this simulator with a per-target page salt.

use confbench_types::Op;

const LINE: u64 = 64;

/// Aggregate cache statistics for one execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total line-granularity accesses.
    pub references: u64,
    /// L1 misses that hit in L2.
    pub l2_hits: u64,
    /// Misses in both levels (DRAM fills).
    pub misses: u64,
}

impl CacheStats {
    /// L1 hits (references minus everything that left L1).
    pub fn l1_hits(&self) -> u64 {
        self.references - self.l2_hits - self.misses
    }
}

#[derive(Debug, Clone)]
struct Level {
    sets: Vec<Vec<u64>>, // per-set LRU stack of tags, most recent last
    ways: usize,
    set_mask: u64,
}

impl Level {
    /// Sets start without storage and reserve exactly `ways` tags on their
    /// first insert. `vec![Vec::with_capacity(ways); sets]` would not do
    /// that: cloning an empty `Vec` keeps no capacity, so every touched set
    /// would grow 0 → 4 → 8 → 16 instead. Reserving all sets here is not the
    /// answer either — most VMs touch a fraction of L2, and the eager array
    /// is resident memory a fleet pays once per VM.
    fn new(size_bytes: u64, ways: usize) -> Self {
        let lines = size_bytes / LINE;
        let sets = (lines as usize / ways).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Level { sets: vec![Vec::new(); sets], ways, set_mask: sets as u64 - 1 }
    }

    /// Accesses a *line number*; returns `true` on hit, inserting on miss.
    fn access(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tag = line; // the full line number doubles as the tag
        let stack = &mut self.sets[set];
        if let Some(pos) = stack.iter().position(|&t| t == tag) {
            let t = stack.remove(pos);
            stack.push(t);
            true
        } else {
            if stack.len() == self.ways {
                stack.remove(0);
            } else if stack.is_empty() {
                stack.reserve_exact(self.ways);
            }
            stack.push(tag);
            false
        }
    }
}

/// A two-level (L1D + L2) cache with LRU replacement.
///
/// # Example
///
/// ```
/// use confbench_vmm::CacheSim;
///
/// let mut cache = CacheSim::new(0);
/// cache.touch(0x1000, 64, true);
/// let stats = cache.stats();
/// assert_eq!(stats.references, 1);
/// assert_eq!(stats.misses, 1); // cold miss
/// ```
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: Level,
    l2: Level,
    salt: u64,
    stats: CacheStats,
}

/// A [`CacheSim`]'s line state at one moment, flattened to one allocation:
/// per set its length, then its tags, least recently used first.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct LineState(Vec<u64>);

#[cfg(test)]
thread_local! {
    /// Snapshots taken on this thread, so tests can pin when none is.
    pub(crate) static SNAPSHOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Cap on simulated line touches per memory op; larger runs are sampled with
/// a stride and the counts scaled, keeping simulation time bounded while
/// preserving hit-rate structure.
const MAX_LINES_PER_OP: u64 = 4096;

impl CacheSim {
    /// Creates a 32-KiB/8-way L1D over a 1-MiB/16-way L2, with the given
    /// page-color `salt` (0 = identity frame mapping).
    pub fn new(salt: u64) -> Self {
        CacheSim {
            l1: Level::new(32 << 10, 8),
            l2: Level::new(1 << 20, 16),
            salt,
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Feeds one sequential access run of `bytes` at `addr`. `_write` is
    /// kept for future dirty-line modelling; reads and writes currently cost
    /// the same. Returns (refs, l2_hits, misses) deltas for cost charging.
    pub fn touch(&mut self, addr: u64, bytes: u64, _write: bool) -> CacheStats {
        let delta = self.walk(addr, bytes);
        self.credit(delta);
        delta
    }

    /// The line walk of [`CacheSim::touch`]: moves tags and LRU order and
    /// returns the access's deltas without adding them to the cumulative
    /// statistics.
    pub(crate) fn walk(&mut self, addr: u64, bytes: u64) -> CacheStats {
        if bytes == 0 {
            return CacheStats::default();
        }
        let first = addr / LINE;
        let last = (addr + bytes - 1) / LINE;
        let total_lines = last - first + 1;
        let (stride, scale) = if total_lines > MAX_LINES_PER_OP {
            let stride = total_lines.div_ceil(MAX_LINES_PER_OP);
            (stride, stride)
        } else {
            (1, 1)
        };
        let mut delta = CacheStats::default();
        let mut line = first;
        while line <= last {
            let colored = self.color(line * LINE) / LINE;
            delta.references += scale;
            if !self.l1.access(colored) {
                if self.l2.access(colored) {
                    delta.l2_hits += scale;
                } else {
                    delta.misses += scale;
                }
            }
            line += stride;
        }
        delta
    }

    /// The bookkeeping of [`CacheSim::touch`]: adds an access's deltas to
    /// the cumulative statistics. With the deltas of an earlier walk of the
    /// same access from the same line state, `credit` alone stands for the
    /// whole `touch` whenever that walk left the lines where it found them.
    pub(crate) fn credit(&mut self, delta: CacheStats) {
        self.stats.references += delta.references;
        self.stats.l2_hits += delta.l2_hits;
        self.stats.misses += delta.misses;
    }

    /// Tags and LRU order of every set of both levels; the cumulative
    /// statistics are not part of it. Two simulators with equal line state
    /// answer every future access alike.
    pub(crate) fn line_state(&self) -> LineState {
        #[cfg(test)]
        SNAPSHOTS.with(|n| n.set(n.get() + 1));
        let sets = || self.l1.sets.iter().chain(&self.l2.sets);
        let mut flat = Vec::with_capacity(sets().map(|set| 1 + set.len()).sum());
        for set in sets() {
            flat.push(set.len() as u64);
            flat.extend_from_slice(set);
        }
        LineState(flat)
    }

    /// Replays an [`Op`]'s memory behaviour, ignoring non-memory ops.
    pub fn touch_op(&mut self, op: &Op) -> CacheStats {
        match op {
            Op::MemRead { addr, bytes } => self.touch(*addr, *bytes, false),
            Op::MemWrite { addr, bytes } => self.touch(*addr, *bytes, true),
            _ => CacheStats::default(),
        }
    }

    /// Page-coloring transform: XOR a salt-derived color into the page
    /// number (the physical frame assignment differs in a confidential VM).
    fn color(&self, addr: u64) -> u64 {
        if self.salt == 0 {
            return addr;
        }
        let page = addr >> 12;
        // Mix the salt into low page bits, which select L2 sets.
        let color = (page.wrapping_mul(self.salt | 1) >> 7) & 0x1f;
        ((page ^ color) << 12) | (addr & 0xfff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_touches_hit_l1() {
        let mut c = CacheSim::new(0);
        c.touch(0, 64, false);
        let d = c.touch(0, 64, false);
        assert_eq!(d.misses, 0);
        assert_eq!(c.stats().references, 2);
        assert_eq!(c.stats().l1_hits(), 1);
    }

    #[test]
    fn sequential_run_counts_lines() {
        let mut c = CacheSim::new(0);
        let d = c.touch(0, 640, false);
        assert_eq!(d.references, 10);
        assert_eq!(d.misses, 10);
    }

    #[test]
    fn l2_catches_l1_evictions() {
        let mut c = CacheSim::new(0);
        // Fill well beyond L1 (32 KiB) but within L2 (1 MiB).
        c.touch(0, 128 << 10, false);
        let before = c.stats();
        // Second pass: L1 can't hold it, L2 can.
        let d = c.touch(0, 128 << 10, false);
        assert!(d.l2_hits > d.misses, "second pass should mostly hit L2: {d:?}");
        assert!(before.misses > 0);
    }

    #[test]
    fn dram_misses_beyond_l2() {
        let mut c = CacheSim::new(0);
        c.touch(0, 8 << 20, false);
        let d = c.touch(0, 8 << 20, false);
        // 8 MiB cannot fit in 1 MiB L2: mostly DRAM again.
        assert!(d.misses > d.l2_hits);
    }

    #[test]
    fn sampling_preserves_reference_scale() {
        let mut c = CacheSim::new(0);
        let d = c.touch(0, 64 << 20, false); // 1M lines, sampled
        let lines = (64u64 << 20) / 64;
        // Scaled count within 1% of the true line count.
        assert!((d.references as f64 - lines as f64).abs() / (lines as f64) < 0.01);
    }

    #[test]
    fn salt_changes_set_mapping_not_volume() {
        let mut plain = CacheSim::new(0);
        let mut salted = CacheSim::new(0x5a5a_0001);
        // A strided pattern prone to set conflicts: 160 lines hammering few
        // L2 sets. Identity mapping thrashes; coloring spreads the sets.
        for _ in 0..2 {
            for i in 0..160u64 {
                plain.touch(i * 8192, 64, false);
                salted.touch(i * 8192, 64, false);
            }
        }
        let (p, s) = (plain.stats(), salted.stats());
        assert_eq!(p.references, s.references);
        // Coloring must change the miss pattern for this conflict-heavy
        // stream (direction depends on the pattern; inequality is the point).
        assert_ne!(p.misses, s.misses);
    }

    #[test]
    fn zero_byte_touch_is_noop() {
        let mut c = CacheSim::new(0);
        assert_eq!(c.touch(100, 0, true), CacheStats::default());
        assert_eq!(c.stats().references, 0);
    }

    #[test]
    fn touch_op_ignores_non_memory() {
        let mut c = CacheSim::new(0);
        assert_eq!(c.touch_op(&Op::Cpu(5)), CacheStats::default());
        let d = c.touch_op(&Op::MemRead { addr: 0, bytes: 64 });
        assert_eq!(d.references, 1);
    }
}
