//! A small two-level set-associative cache simulator.
//!
//! The paper observes (§IV-D) that a few workloads run *faster* inside the
//! confidential VM and traces this to differing cache-hit behaviour (cf. the
//! TDXdown caching studies it cites). We reproduce the causal channel: a
//! confidential guest's pages land in differently-colored host frames, so
//! the same guest access stream maps to different cache sets. The VM model
//! feeds every memory op through this simulator with a per-target page salt.
//!
//! The simulator reads no seed: its line state is a pure function of the
//! salt and the accesses since boot. A [`WalkMemo`] names those states and
//! remembers walks between them; a trial any VM of the process has walked
//! before is credited from the record, and walked only if the lines are asked.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use confbench_crypto::bounded::OldestOut;
use confbench_types::{Op, OpTrace};
use parking_lot::Mutex;

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

/// What a slot holds before its first tag: no line number (a byte address
/// over [`LINE`]) reaches it.
const VACANT: u64 = u64::MAX;

/// One cache level: LRU sets of `WAYS` tags each, least recently used first
/// from slot `head` on, wrapping. While a set fills, `head` is 0 and `len`
/// counts its tags; once full it is a ring, and what a streaming trace does
/// most moves no tag: a miss overwrites the oldest tag, a hit on the oldest
/// tag keeps it, and both advance `head`, making that slot the newest.
#[derive(Debug, Clone)]
struct Level<const WAYS: usize> {
    /// A set boxes its tags on its first insert: most VMs touch a fraction
    /// of L2, and an eager `sets × WAYS` array is RSS a fleet pays per VM.
    sets: Vec<Option<Box<[u64; WAYS]>>>,
    /// `(len, head)` per set.
    fill: Vec<(u8, u8)>,
    set_mask: u64,
}

impl<const WAYS: usize> Level<WAYS> {
    fn new(size_bytes: u64) -> Self {
        let sets = ((size_bytes / LINE) as usize / WAYS).max(1);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(WAYS.is_power_of_two() && WAYS <= 128, "ring positions are masked bytes");
        Level { sets: vec![None; sets], fill: vec![(0, 0); sets], set_mask: sets as u64 - 1 }
    }

    /// Accesses a *line number* (the full number doubles as the tag);
    /// returns `true` on hit, inserting on miss.
    #[inline]
    fn access(&mut self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        let tags = self.sets[set].get_or_insert_with(|| Box::new([VACANT; WAYS]));
        let (len, head) = &mut self.fill[set];
        // No early exit: a whole pass over a compile-time-sized array
        // carries no data-dependent branch.
        let mut hit = WAYS;
        for (slot, &tag) in tags.iter().enumerate() {
            if tag == line {
                hit = slot;
            }
        }
        let full = usize::from(*len) == WAYS;
        if hit == WAYS {
            if full {
                tags[usize::from(*head)] = line;
                *head = (*head + 1) % WAYS as u8;
            } else {
                tags[usize::from(*len)] = line;
                *len += 1;
            }
            return false;
        }
        if full && hit == usize::from(*head) {
            *head = (*head + 1) % WAYS as u8;
            return true;
        }
        // Any other hit: the tags younger than it each age one slot.
        let newest = (usize::from(*head) + usize::from(*len) - 1) % WAYS;
        while hit != newest {
            let younger = (hit + 1) % WAYS;
            tags[hit] = tags[younger];
            hit = younger;
        }
        tags[newest] = line;
        true
    }

    /// How many slots [`Level::copy_into`] copies: those of every set
    /// holding a tag.
    fn tag_slots(&self) -> usize {
        WAYS * self.fill.iter().filter(|&&(len, _)| len > 0).count()
    }

    /// Appends this level's raw line state to `proof`: every set's
    /// `(len, head)`, and the slots of every set holding a tag.
    fn copy_into(&self, proof: &mut Proof) {
        proof.fill.extend_from_slice(&self.fill);
        for (tags, &(len, _)) in self.sets.iter().zip(&self.fill) {
            if let (Some(tags), 1..) = (tags, len) {
                proof.tags.extend_from_slice(&tags[..]);
            }
        }
    }

    /// Whether this level's canonical line state is the one whose raw copy
    /// `fill` and `tags` start with ([`Level::copy_into`]); advances both
    /// past it. A set whose raw form is unchanged is equal at the cost of a
    /// slice comparison; only one whose ring turned or whose tags moved is
    /// compared in LRU order.
    fn equals_copy(&self, fill: &mut &[(u8, u8)], tags: &mut &[u64]) -> bool {
        let Some((before, rest)) = fill.split_at_checked(self.fill.len()) else {
            return false;
        };
        *fill = rest;
        for ((now, &(len, head)), &(was_len, was_head)) in
            self.sets.iter().zip(&self.fill).zip(before)
        {
            if len != was_len {
                return false;
            }
            if len == 0 {
                continue;
            }
            let (Some(now), Some((was, rest))) = (now, tags.split_first_chunk::<WAYS>()) else {
                return false;
            };
            *tags = rest;
            let in_lru_order = || {
                let at = |tags: &[u64; WAYS], head: u8, age| tags[(usize::from(head) + age) % WAYS];
                (0..usize::from(len)).all(|age| at(now, head, age) == at(was, was_head, age))
            };
            if !((head == was_head && **now == *was) || in_lru_order()) {
                return false;
            }
        }
        true
    }

    /// Per set its length, then its tags least recently used first —
    /// whatever `head` the ring has turned to.
    fn canonical(&self) -> impl Iterator<Item = u64> + '_ {
        self.sets.iter().zip(&self.fill).flat_map(|(tags, &(len, head))| {
            let lru_first = tags.iter().flat_map(move |tags| {
                (0..usize::from(len)).map(move |age| tags[(usize::from(head) + age) % WAYS])
            });
            std::iter::once(u64::from(len)).chain(lru_first)
        })
    }
}

/// The `(addr, bytes)` of a trace's memory ops, in trace order: all of a
/// trace that the simulator reads. It carries a hash of the list, taken
/// once when the list is made: [`WalkMemo`] hashes its keys under its lock,
/// and a key's hash is then one word, and two lists are compared only when
/// their hashes agree.
#[derive(Debug, Clone)]
pub(crate) struct Accesses {
    hash: u64,
    list: Arc<[(u64, u64)]>,
}

impl Accesses {
    fn new(list: Arc<[(u64, u64)]>) -> Self {
        // FxHash's step: the key's one word only has to spread well.
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let step = |hash: u64, word: u64| (hash.rotate_left(5) ^ word).wrapping_mul(K);
        let hash = list.iter().fold(list.len() as u64, |h, &(a, b)| step(step(h, a), b));
        Accesses { hash, list }
    }
}

impl std::ops::Deref for Accesses {
    type Target = [(u64, u64)];

    fn deref(&self) -> &[(u64, u64)] {
        &self.list
    }
}

impl PartialEq for Accesses {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && (Arc::ptr_eq(&self.list, &other.list) || self.list == other.list)
    }
}

impl Eq for Accesses {}

impl std::hash::Hash for Accesses {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

pub(crate) fn accesses_of(trace: &OpTrace) -> Accesses {
    let mem_ops = trace.iter().filter_map(|op| match *op {
        Op::MemRead { addr, bytes } | Op::MemWrite { addr, bytes } => Some((addr, bytes)),
        _ => None,
    });
    Accesses::new(mem_ops.collect())
}

/// The name of a line state. Two simulators under one memo at the same node
/// hold equal lines; the converse need not hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    /// The empty cache under this salt.
    Root(u64),
    /// What some walk left, numbered by [`WalkMemo::mint`].
    Walked(u64),
}

/// What some accesses from some state gave, one delta per access, and the
/// state they left: the one they started from exactly when
/// [`CacheSim::lines_equal`] proved it.
#[derive(Debug, Clone)]
pub(crate) struct Edge {
    deltas: Arc<[CacheStats]>,
    to: Node,
}

/// A trie over access sequences whose nodes name [`CacheSim`] line states:
/// what the simulators sharing it ([`crate::TeeVmBuilder::walk_memo`]) have
/// walked, for each other to take on credit. Keys are whole access lists,
/// hashed once outside the lock and compared structurally on a hash match,
/// and no node number is handed out twice: a hit is the walk it stands
/// for, and an eviction loses edges but mis-serves none.
#[derive(Debug)]
pub struct WalkMemo {
    edges: Mutex<OldestOut<(Node, Accesses), Edge>>,
    minted: AtomicU64,
}

/// One [`CacheSim`]'s use of its memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkMemoCounts {
    /// Trials credited from an edge.
    pub hits: u64,
    /// Trials walked (and recorded, unless cut short).
    pub misses: u64,
    /// Edges evicted for this simulator's records.
    pub evictions: u64,
}

impl WalkMemo {
    /// A memo keeping at most `bound` bytes of edges (40 a memory op).
    pub fn new(bound: usize) -> Self {
        WalkMemo { edges: Mutex::new(OldestOut::new(bound)), minted: AtomicU64::new(0) }
    }

    /// A name no state has had.
    fn mint(&self) -> Node {
        Node::Walked(self.minted.fetch_add(1, Ordering::Relaxed))
    }

    fn lookup(&self, from: Node, accesses: &Accesses) -> Option<Edge> {
        let key = (from, accesses.clone());
        self.edges.lock().get(&key).cloned()
    }

    /// Keeps an edge; returns how many older ones went for it.
    fn record(&self, from: Node, accesses: &Accesses, edge: Edge) -> u64 {
        // The key is held twice, in the map and in the eviction order.
        let bytes = 2 * std::mem::size_of::<(Node, Accesses)>()
            + std::mem::size_of::<Edge>()
            + accesses.len() * std::mem::size_of::<((u64, u64), CacheStats)>();
        let key = (from, accesses.clone());
        self.edges.lock().insert(key, edge, bytes)
    }
}

/// Bound of the memo a simulator built without one keeps to itself: all it
/// can reuse is its own latest walks (a trace's fixed point).
const PRIVATE_MEMO_BYTES: usize = 1 << 20;

/// How one trial's accesses reach the simulator, from [`CacheSim::begin`]
/// through [`CacheSim::access`] to [`CacheSim::finish`].
#[derive(Debug)]
pub(crate) enum Walk {
    /// The memo holds this trial: take each access's deltas from its edge.
    Replay { edge: Edge, credited: usize },
    /// Walk the lines and keep each access's deltas for the memo;
    /// `proving` if the simulator's [`Proof`] holds the line state entering
    /// the trial, to be compared with the one leaving it.
    Record { deltas: Vec<CacheStats>, proving: bool },
}

/// A raw copy of a [`CacheSim`]'s line state, taken to prove that a trial
/// leaves the lines as it found them: each set's `(len, head)`, L1's then
/// L2's, and the slots of each set holding a tag. Copying slots is a
/// `memcpy` where flattening to a [`LineState`] takes a `%` per tag, and
/// the buffers are the simulator's, reused by each proof it takes.
#[derive(Debug, Clone, Default)]
struct Proof {
    fill: Vec<(u8, u8)>,
    tags: Vec<u64>,
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
    l1: Level<8>,
    l2: Level<16>,
    salt: u64,
    stats: CacheStats,
    memo: Arc<WalkMemo>,
    /// Names the line state: `l1` and `l2` once `pending` is walked.
    node: Node,
    /// Credited but not walked: the first `n` accesses of each list.
    pending: Vec<(Accesses, usize)>,
    /// The accesses of the last trial that ran to its end.
    last: Option<Accesses>,
    counts: WalkMemoCounts,
    proof: Proof,
}

/// A [`CacheSim`]'s line state at one moment, flattened to one allocation:
/// per set its length, then its tags, least recently used first.
#[derive(Debug, PartialEq, Eq)]
pub struct LineState(Vec<u64>);

#[cfg(test)]
thread_local! {
    /// Snapshots taken on this thread, so tests can pin when none is.
    pub(crate) static SNAPSHOTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// [`CacheSim::walk`] calls on this thread, so tests can pin how many.
    pub(crate) static WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Cap on simulated line touches per memory op; larger runs are sampled with
/// a stride and the counts scaled, keeping simulation time bounded while
/// preserving hit-rate structure.
const MAX_LINES_PER_OP: u64 = 4096;

impl CacheSim {
    /// Creates a 32-KiB/8-way L1D over a 1-MiB/16-way L2, with the given
    /// page-color `salt` (0 = identity frame mapping).
    pub fn new(salt: u64) -> Self {
        CacheSim::with_memo(salt, Arc::new(WalkMemo::new(PRIVATE_MEMO_BYTES)))
    }

    /// As [`CacheSim::new`], sharing `memo`.
    pub(crate) fn with_memo(salt: u64, memo: Arc<WalkMemo>) -> Self {
        CacheSim {
            l1: Level::new(32 << 10),
            l2: Level::new(1 << 20),
            salt,
            stats: CacheStats::default(),
            memo,
            node: Node::Root(salt),
            pending: Vec::new(),
            last: None,
            counts: WalkMemoCounts::default(),
            proof: Proof::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Memo lookups so far.
    pub fn memo_counts(&self) -> WalkMemoCounts {
        self.counts
    }

    /// Feeds one sequential access run of `bytes` at `addr`. `_write` is
    /// kept for future dirty-line modelling; reads and writes currently cost
    /// the same. Returns (refs, l2_hits, misses) deltas for cost charging.
    pub fn touch(&mut self, addr: u64, bytes: u64, _write: bool) -> CacheStats {
        self.materialize();
        let delta = self.walk(addr, bytes);
        self.credit(delta);
        self.node = self.memo.mint();
        delta
    }

    /// Opens a trial over `accesses`: a replay if the memo knows them from
    /// this state, else a record, the lines made current. A record that
    /// repeats the last completed trial copies the lines too, for
    /// [`CacheSim::finish`] to prove whether it left them where it found
    /// them: a fixed point the next repeat replays.
    pub(crate) fn begin(&mut self, accesses: &Accesses) -> Walk {
        if let Some(edge) = self.memo.lookup(self.node, accesses) {
            self.counts.hits += 1;
            return Walk::Replay { edge, credited: 0 };
        }
        self.counts.misses += 1;
        self.materialize();
        let proving = self.last.as_ref() == Some(accesses);
        if proving {
            self.copy_lines();
        }
        Walk::Record { deltas: Vec::with_capacity(accesses.len()), proving }
    }

    /// The trial's next access: its deltas, credited — walked for now, or
    /// taken from the edge.
    pub(crate) fn access(&mut self, walk: &mut Walk, addr: u64, bytes: u64) -> CacheStats {
        let delta = match walk {
            Walk::Replay { edge, credited } => {
                *credited += 1;
                edge.deltas[*credited - 1]
            }
            Walk::Record { deltas, .. } => {
                deltas.push(self.walk(addr, bytes));
                deltas[deltas.len() - 1]
            }
        };
        self.credit(delta);
        delta
    }

    /// Closes a trial that ran to its end (`completed`) or faulted part-way.
    /// A replay leaves the accesses it credited pending, unless the edge
    /// says they change nothing; a completed record goes to the memo; a
    /// trial cut short leaves a state nobody has named.
    pub(crate) fn finish(&mut self, accesses: &Accesses, walk: Walk, completed: bool) {
        if completed {
            self.last = Some(accesses.clone());
        }
        let to = match walk {
            Walk::Replay { edge, .. } if completed && edge.to == self.node => return,
            Walk::Replay { edge, credited } => {
                self.pending.push((accesses.clone(), credited));
                completed.then_some(edge.to)
            }
            Walk::Record { deltas, proving } if completed => {
                let fixed = proving && self.lines_unchanged();
                let to = if fixed { self.node } else { self.memo.mint() };
                let edge = Edge { deltas: deltas.into(), to };
                self.counts.evictions += self.memo.record(self.node, accesses, edge);
                Some(to)
            }
            Walk::Record { .. } => None,
        };
        self.node = to.unwrap_or_else(|| self.memo.mint());
    }

    /// Walks what was credited on the strength of the memo, oldest first.
    fn materialize(&mut self) {
        for (accesses, credited) in std::mem::take(&mut self.pending) {
            for &(addr, bytes) in &accesses[..credited] {
                self.walk(addr, bytes);
            }
        }
    }

    /// The line walk of [`CacheSim::touch`]: moves tags and LRU order and
    /// returns the access's deltas without adding them to the cumulative
    /// statistics. A run that would pass the top of the address space ends
    /// there. Never inlined: this loop is most of a campaign's time, and in
    /// a function of its own its placement follows from this file alone.
    #[inline(never)]
    fn walk(&mut self, addr: u64, bytes: u64) -> CacheStats {
        #[cfg(test)]
        WALKS.with(|n| n.set(n.get() + 1));
        if bytes == 0 {
            return CacheStats::default();
        }
        let first = addr / LINE;
        let last = addr.saturating_add(bytes - 1) / LINE;
        let stride = (last - first + 1).div_ceil(MAX_LINES_PER_OP);
        let mut delta = CacheStats::default();
        let mut line = first;
        while line <= last {
            let colored = self.color(line * LINE) / LINE;
            // Each sampled line stands for `stride` lines of the run.
            delta.references += stride;
            if !self.l1.access(colored) {
                if self.l2.access(colored) {
                    delta.l2_hits += stride;
                } else {
                    delta.misses += stride;
                }
            }
            line += stride;
        }
        delta
    }

    /// The bookkeeping of [`CacheSim::touch`]: adds an access's deltas to
    /// the cumulative statistics.
    fn credit(&mut self, delta: CacheStats) {
        self.stats.references += delta.references;
        self.stats.l2_hits += delta.l2_hits;
        self.stats.misses += delta.misses;
    }

    /// The line state in its canonical order: L1's sets, then L2's.
    fn canonical(&self) -> impl Iterator<Item = u64> + '_ {
        self.l1.canonical().chain(self.l2.canonical())
    }

    /// Takes the [`Proof`] of the current line state, in place of the last.
    fn copy_lines(&mut self) {
        #[cfg(test)]
        SNAPSHOTS.with(|n| n.set(n.get() + 1));
        self.materialize();
        let proof = &mut self.proof;
        proof.fill.clear();
        proof.tags.clear();
        // Sized at once: a VM's first proof would otherwise grow the slots
        // through a dozen reallocations.
        proof.fill.reserve(self.l1.fill.len() + self.l2.fill.len());
        proof.tags.reserve(self.l1.tag_slots() + self.l2.tag_slots());
        self.l1.copy_into(proof);
        self.l2.copy_into(proof);
    }

    /// Whether the line state is the one [`CacheSim::copy_lines`] last
    /// took: the verdict `lines_equal` gives against a [`LineState`] taken
    /// then.
    fn lines_unchanged(&mut self) -> bool {
        self.materialize();
        let (mut fill, mut tags) = (&self.proof.fill[..], &self.proof.tags[..]);
        self.l1.equals_copy(&mut fill, &mut tags)
            && self.l2.equals_copy(&mut fill, &mut tags)
            && fill.is_empty()
            && tags.is_empty()
    }

    /// Tags and LRU order of every set of both levels; the cumulative
    /// statistics are not part of it. Two simulators with equal line state
    /// answer every future access alike.
    pub fn line_state(&mut self) -> LineState {
        #[cfg(test)]
        SNAPSHOTS.with(|n| n.set(n.get() + 1));
        self.materialize();
        let sets = self.l1.fill.iter().chain(&self.l2.fill);
        let mut flat = Vec::with_capacity(sets.map(|&(len, _)| 1 + usize::from(len)).sum());
        flat.extend(self.canonical());
        LineState(flat)
    }

    /// Whether [`CacheSim::line_state`] would return `state`, without
    /// flattening anything to find out: the reference the fixed-point
    /// proof is swept against.
    #[cfg(test)]
    pub(crate) fn lines_equal(&mut self, state: &LineState) -> bool {
        self.materialize();
        self.canonical().eq(state.0.iter().copied())
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
    use confbench_crypto::SplitMix64;

    impl CacheSim {
        /// Sets of either level that hold a tag array.
        pub(crate) fn boxed_sets(&self) -> usize {
            self.l1.sets.iter().flatten().count() + self.l2.sets.iter().flatten().count()
        }
    }

    /// The reference model: the level as it was before the ring sets, a
    /// per-set LRU stack of tags, most recent last.
    struct StackLevel {
        sets: Vec<Vec<u64>>,
        ways: usize,
    }

    impl StackLevel {
        fn new(size_bytes: u64, ways: usize) -> Self {
            StackLevel { sets: vec![Vec::new(); (size_bytes / LINE) as usize / ways], ways }
        }

        fn access(&mut self, line: u64) -> bool {
            let set = line as usize % self.sets.len();
            let stack = &mut self.sets[set];
            let hit = stack.iter().position(|&t| t == line);
            match hit {
                Some(pos) => drop(stack.remove(pos)),
                None if stack.len() == self.ways => drop(stack.remove(0)),
                None => {}
            }
            stack.push(line);
            hit.is_some()
        }
    }

    /// [`CacheSim`] over [`StackLevel`]s, line by line.
    struct LruStacks {
        l1: StackLevel,
        l2: StackLevel,
        /// Never walked: lends its color map and keeps the statistics.
        unwalked: CacheSim,
    }

    impl LruStacks {
        fn new(salt: u64) -> Self {
            LruStacks {
                l1: StackLevel::new(32 << 10, 8),
                l2: StackLevel::new(1 << 20, 16),
                unwalked: CacheSim::new(salt),
            }
        }

        fn touch(&mut self, addr: u64, bytes: u64) -> CacheStats {
            let mut delta = CacheStats::default();
            if bytes > 0 {
                let (first, last) = (addr / LINE, addr.saturating_add(bytes - 1) / LINE);
                let stride = (last - first + 1).div_ceil(MAX_LINES_PER_OP);
                for line in (first..=last).step_by(stride as usize) {
                    let colored = self.unwalked.color(line * LINE) / LINE;
                    delta.references += stride;
                    if !self.l1.access(colored) {
                        if self.l2.access(colored) {
                            delta.l2_hits += stride;
                        } else {
                            delta.misses += stride;
                        }
                    }
                }
            }
            self.unwalked.credit(delta);
            delta
        }

        fn line_state(&self) -> LineState {
            let sets = self.l1.sets.iter().chain(&self.l2.sets);
            LineState(
                sets.flat_map(|s| [s.len() as u64].into_iter().chain(s.iter().copied())).collect(),
            )
        }
    }

    const SALTS: [u64; 4] = [0, 0x5a5a_0001, 0xa5a5_0002, 0x3c3c_0003];

    /// One op of a sweep's access stream, as the `(addr, bytes)` runs it
    /// touches in order: sequential runs, runs above [`MAX_LINES_PER_OP`],
    /// near-empty ones, a re-touch of an earlier op's run (kept in `runs`),
    /// or conflict strides.
    fn draw_touches(rng: &mut SplitMix64, runs: &mut Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut touches = Vec::new();
        let run = match (rng.next_below(8), runs.len() as u64) {
            (0..=2, _) | (5, 0) => (rng.next_below(1 << 22), 1 + rng.next_below(48 << 10)),
            (3, _) => (rng.next_below(1 << 22), (256 << 10) + rng.next_below(4 << 20)),
            (4, _) => (rng.next_below(1 << 30), rng.next_below(3) * 64),
            (5, n) => runs[rng.next_below(n) as usize],
            _ => {
                // Twenty lines of one L2 set (and one L1 set), the first
                // few again: hits on a set's oldest tag, on its newest, and
                // in between.
                let base = rng.next_below(64) * 64;
                let lines = (0..20).chain(0..rng.next_below(20));
                touches.extend(lines.map(|i| (base + i * 8192, 64)));
                (base, 64)
            }
        };
        runs.push(run);
        touches.push(run);
        touches
    }

    /// The ring sets are the LRU stacks: SplitMix64 streams of sequential
    /// runs, runs above [`MAX_LINES_PER_OP`], re-touches of earlier runs and
    /// conflict strides, under the identity mapping and the three secure
    /// salts, give equal deltas from every `touch`, equal cumulative
    /// statistics and — after every op, so also while sets fill and as each
    /// `head` first wraps — equal canonical line state, flattened and
    /// compared in place. Mutations tried by hand: no `head` advance on an
    /// oldest-tag hit, and ring order instead of LRU order from
    /// `canonical`; the "line state" assertion caught both (case 1 op 4,
    /// case 0 op 0).
    #[test]
    fn fuzz_sweep_ring_sets_equal_lru_stacks() {
        let (mut full_sets, mut unchanged) = (0, 0);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = SplitMix64::new(0xC4C_4E00 ^ case);
            let salt = SALTS[(case % 4) as usize];
            let (mut rings, mut stacks) = (CacheSim::new(salt), LruStacks::new(salt));
            let mut runs: Vec<(u64, u64)> = Vec::new();
            let mut state = stacks.line_state();
            for op in 0..1 + rng.next_below(12) {
                let label = format!("case {case}, salt {salt:#x}, op {op}");
                for run in draw_touches(&mut rng, &mut runs) {
                    let delta = stacks.touch(run.0, run.1);
                    assert_eq!(rings.touch(run.0, run.1, false), delta, "{label}: {run:?}");
                }
                assert_eq!(rings.stats(), stacks.unwalked.stats(), "{label}");
                let after = stacks.line_state();
                assert!(rings.line_state() == after, "{label}: line state");
                assert!(rings.lines_equal(&after), "{label}: compared in place");
                assert_eq!(rings.lines_equal(&state), state == after, "{label}: against the last");
                unchanged += usize::from(state == after);
                state = after;
            }
            full_sets += rings.l2.fill.iter().filter(|&&(len, head)| len == 16 && head > 0).count();
        }
        assert!(full_sets > 0, "no L2 ring ever turned: the streams no longer fill a set");
        assert!(unchanged > 0, "no op left the lines as they were");
    }

    /// The fixed-point proof is the comparison of line states it replaced:
    /// over the ring sweep's streams, with a raw copy taken before a third
    /// of the ops, [`CacheSim::lines_unchanged`] answers after every op
    /// what [`CacheSim::lines_equal`] answers against a [`LineState`] taken
    /// with the copy. A quarter of the ops fill one set of each level with
    /// sixteen lines, take the copy, and touch them again in an order that
    /// leaves every LRU order as it was but turns the L2 ring by 14 slots:
    /// equal, though not slot for slot. Mutations tried by hand: a
    /// slot-for-slot comparison only, and an LRU-order fallback that reads
    /// the copy from the current `head`; the "verdict" assertion caught
    /// both (case 4, op 3).
    #[test]
    fn fuzz_sweep_fixed_point_check_equals_line_state() {
        let (mut turned_back, mut verdicts) = (0, [0; 2]);
        for case in 0..confbench_crypto::fuzz::sweep_iters() as u64 {
            let mut rng = SplitMix64::new(0xF1_C5ED ^ case);
            let salt = SALTS[(case % 4) as usize];
            let mut sim = CacheSim::new(salt);
            let mut runs: Vec<(u64, u64)> = Vec::new();
            let prove = |sim: &mut CacheSim| {
                sim.copy_lines();
                sim.line_state()
            };
            let mut reference = prove(&mut sim);
            for op in 0..1 + rng.next_below(12) {
                let label = format!("case {case}, salt {salt:#x}, op {op}");
                let turned = rng.next_below(4) == 0;
                if turned {
                    // One set of each level under the identity map: lines
                    // 64 KiB apart.
                    let base = rng.next_below(1 << 16) * 64;
                    let line = |i: usize| base + (i as u64) * (64 << 10);
                    for i in 0..16 {
                        sim.touch(line(i), 64, false);
                    }
                    reference = prove(&mut sim);
                    let again = [1, 0].into_iter().chain(2..16).chain([0, 1]).chain(2..16);
                    for i in again {
                        sim.touch(line(i), 64, false);
                    }
                } else {
                    if rng.next_below(3) == 0 {
                        reference = prove(&mut sim);
                    }
                    for (addr, bytes) in draw_touches(&mut rng, &mut runs) {
                        sim.touch(addr, bytes, false);
                    }
                }
                let verdict = sim.lines_unchanged();
                assert_eq!(verdict, sim.lines_equal(&reference), "{label}: verdict");
                verdicts[usize::from(verdict)] += 1;
                turned_back += usize::from(turned && verdict && salt == 0);
            }
        }
        assert!(turned_back > 0, "no turned ring came back canonically equal");
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "one-sided verdicts: {verdicts:?}");
    }

    #[test]
    fn runs_past_the_top_of_the_address_space_end_at_the_top() {
        let mut c = CacheSim::new(0);
        // The last line, whole; then a run that would end 89 bytes past it.
        assert_eq!(c.touch(u64::MAX - 63, 64, false).references, 1);
        let d = c.touch(u64::MAX - 10, 100, true);
        assert_eq!((d.references, d.misses), (1, 0), "the same last line, now cached");
        assert_eq!(c.touch(u64::MAX - 64, 1 << 20, false).references, 2, "the two below the top");
    }

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
