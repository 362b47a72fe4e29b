//! Single-flight: of the threads that miss on one key together, one does
//! the work and the rest wait for what it publishes.
//!
//! A [`Flight`] owns a cache's state beside the set of keys being computed
//! for it, under one lock, so "not retained and nobody computing it" is one
//! atomic observation. What is retained, for how long, and whether failures
//! are remembered stays with the cache: it supplies the lookup
//! ([`Flight::join`]'s `probe`) and publishes through [`Flight::with`].

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

#[derive(Debug)]
struct Inner<K, S> {
    shared: S,
    /// Keys some thread is computing right now.
    in_flight: HashSet<K>,
}

/// Shared state `S` whose misses on a key `K` are single-flighted.
#[derive(Debug)]
pub struct Flight<K, S> {
    inner: Mutex<Inner<K, S>>,
    landed: Condvar,
    /// How many keys are in flight, kept beside the set under its lock, so
    /// that [`Flight::any_in_flight`] answers "none" without the lock.
    flying: AtomicUsize,
}

/// Held by the one thread computing `key`. Publish with [`Flight::with`]
/// while holding it: dropping it — by return or by unwinding — frees the
/// key and wakes the waiters, who look again and, finding nothing, elect
/// the next leader among themselves.
#[derive(Debug)]
#[must_use = "dropping the leader frees the key"]
pub struct Leader<'a, K: Eq + Hash, S> {
    flight: &'a Flight<K, S>,
    key: &'a K,
}

impl<K: Eq + Hash, S> Drop for Leader<'_, K, S> {
    fn drop(&mut self) {
        let mut inner = self.flight.inner.lock();
        inner.in_flight.remove(self.key);
        self.flight.flying.store(inner.in_flight.len(), Ordering::Release);
        drop(inner);
        self.flight.landed.notify_all();
    }
}

impl<K: Eq + Hash + Clone, S> Flight<K, S> {
    /// Wraps `shared` with no key in flight.
    pub fn new(shared: S) -> Self {
        Flight {
            inner: Mutex::new(Inner { shared, in_flight: HashSet::new() }),
            landed: Condvar::new(),
            flying: AtomicUsize::new(0),
        }
    }

    /// Runs `f` on the shared state under the lock. Keep `f` short and
    /// free of caller-supplied code: everything else queues behind it.
    pub fn with<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        f(&mut self.inner.lock().shared)
    }

    /// Whether some thread is computing a key that `matches` right now: a
    /// [`Flight::join`] on it would park. Costs a look at each key in
    /// flight, at most one per computing thread, and builds no key; with
    /// none in flight it takes no lock.
    pub fn any_in_flight(&self, matches: impl FnMut(&K) -> bool) -> bool {
        self.flying.load(Ordering::Acquire) > 0 && self.inner.lock().in_flight.iter().any(matches)
    }

    /// Looks `key` up with `probe`, under the lock; a hit costs that one
    /// acquisition. On a miss, parks while another thread is computing
    /// `key` and probes again when it lands; with nobody computing it,
    /// returns the [`Leader`] guard and this thread computes. The flag
    /// says whether this thread parked on the way to either answer.
    pub fn join<'a, T>(
        &'a self,
        key: &'a K,
        mut probe: impl FnMut(&S) -> Option<T>,
    ) -> (Result<T, Leader<'a, K, S>>, bool) {
        let mut waited = false;
        let mut inner = self.inner.lock();
        loop {
            if let Some(found) = probe(&inner.shared) {
                return (Ok(found), waited);
            }
            if !inner.in_flight.contains(key) {
                inner.in_flight.insert(key.clone());
                self.flying.store(inner.in_flight.len(), Ordering::Release);
                return (Err(Leader { flight: self, key }), waited);
            }
            waited = true;
            inner = self.landed.wait(inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    /// Spins until `probes` lookups have run. A lookup that missed parks
    /// within the same critical section, so from then on that many threads
    /// are leading or parked.
    fn until_probed(probes: &AtomicUsize, n: usize) {
        while probes.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn threads_missing_together_elect_one_leader_and_share_what_it_publishes() {
        const N: usize = 6;
        let flight: Flight<&str, Option<u32>> = Flight::new(None);
        let (probes, start) = (AtomicUsize::new(0), Barrier::new(N));
        let outcomes: Vec<(u32, bool, bool)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let (joined, waited) = flight.join(&"k", |published| {
                            probes.fetch_add(1, Ordering::SeqCst);
                            *published
                        });
                        match joined {
                            Ok(value) => (value, false, waited),
                            Err(_leader) => {
                                until_probed(&probes, N);
                                flight.with(|published| *published = Some(42));
                                (42, true, waited)
                            }
                        }
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(outcomes.iter().all(|&(value, ..)| value == 42));
        assert_eq!(outcomes.iter().filter(|&&(_, led, _)| led).count(), 1);
        assert_eq!(outcomes.iter().filter(|&&(.., waited)| waited).count(), N - 1);
        assert!(outcomes.iter().all(|&(_, led, waited)| led != waited));
        assert_eq!(probes.into_inner(), 2 * N - 1, "one lookup, and one more after the wait");
    }

    #[test]
    fn a_leader_that_panics_wakes_its_waiter_who_elects_itself() {
        let flight: Flight<u8, ()> = Flight::new(());
        let probes = AtomicUsize::new(0);
        let probe = |_: &()| {
            probes.fetch_add(1, Ordering::SeqCst);
            None::<()>
        };
        std::thread::scope(|scope| {
            let (joined, waited) = flight.join(&7, probe);
            let leader = joined.expect_err("nothing retained, nobody computing");
            assert!(!waited);
            let waiter = scope.spawn(|| {
                let (joined, waited) = flight.join(&7, probe);
                assert!(joined.is_err(), "the waiter leads the retry");
                waited
            });
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                let _leader = leader;
                until_probed(&probes, 2);
                panic!("the computation has a bug");
            }));
            assert!(panicked.is_err());
            assert!(waiter.join().unwrap(), "it parked behind the leader that never landed");
        });
        // The waiter's own guard is gone too: the key is free again.
        assert!(flight.join(&7, probe).0.is_err());
    }

    #[test]
    fn other_keys_are_not_held_up() {
        let flight: Flight<u8, ()> = Flight::new(());
        let (first, _) = flight.join(&1, |_| None::<()>);
        let (second, waited) = flight.join(&2, |_| None::<()>);
        assert!(first.is_err() && second.is_err() && !waited);
    }
}
