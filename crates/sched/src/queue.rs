//! The bounded, priority job queue.
//!
//! One queue per scheduler, internally split by platform (each platform's
//! worker pool drains only its own jobs) and by priority (higher priorities
//! drain first; FIFO within a priority). The *capacity bound is global*
//! across all platforms — it models the scheduler's total backlog budget,
//! and overflowing it is what surfaces to users as HTTP 429.

use std::collections::{HashMap, VecDeque};

use confbench_types::{Priority, TeePlatform};

use crate::JobRef;

/// A bounded multi-priority queue of jobs, segmented by platform.
///
/// Not internally synchronized: the scheduler holds it inside its state
/// lock, so admission checks and pushes are naturally atomic.
#[derive(Debug)]
pub struct BoundedQueue {
    capacity: usize,
    depth: usize,
    /// Per platform, a FIFO per priority, highest first.
    lanes: HashMap<TeePlatform, [VecDeque<JobRef>; 3]>,
}

impl BoundedQueue {
    /// Creates an empty queue holding at most `capacity` jobs in total.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue { capacity, depth: 0, lanes: HashMap::new() }
    }

    /// Total jobs queued across all platforms and priorities.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The configured global capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs queued for one platform across all priorities — what the fleet
    /// layer's work stealing compares to pick the deepest victim.
    pub fn depth_for(&self, platform: TeePlatform) -> usize {
        self.lanes.get(&platform).map_or(0, |lanes| lanes.iter().map(VecDeque::len).sum())
    }

    /// Whether `n` more jobs fit. Campaign admission is all-or-nothing:
    /// the scheduler checks the whole matrix before pushing any job.
    pub fn can_admit(&self, n: usize) -> bool {
        self.depth.saturating_add(n) <= self.capacity
    }

    /// Enqueues a job. Callers must have checked [`BoundedQueue::can_admit`];
    /// pushing past capacity panics, because it means admission control was
    /// bypassed.
    pub fn push(&mut self, platform: TeePlatform, priority: Priority, job: JobRef) {
        assert!(self.depth < self.capacity, "queue admission bypassed");
        self.readmit(platform, priority, job);
    }

    /// Enqueues a job whatever the bound: recovery of a lost host's work,
    /// which admission never refuses. A queue past its capacity admits
    /// nothing more until it drains below it.
    pub fn readmit(&mut self, platform: TeePlatform, priority: Priority, job: JobRef) {
        let [high, normal, low] = self.lanes.entry(platform).or_default();
        match priority {
            Priority::High => high,
            Priority::Normal => normal,
            Priority::Low => low,
        }
        .push_back(job);
        self.depth += 1;
    }

    /// Dequeues the next job for `platform`: highest priority first, FIFO
    /// within a priority. `None` when the platform has nothing queued.
    pub fn pop(&mut self, platform: TeePlatform) -> Option<JobRef> {
        let job = self.lanes.get_mut(&platform)?.iter_mut().find_map(VecDeque::pop_front)?;
        self.depth -= 1;
        Some(job)
    }

    /// Dequeues the first of `platform`'s next `lookahead` jobs (in
    /// [`BoundedQueue::pop`] order) that `pass_over` does not pass over; the
    /// jobs passed over keep their places. When it passes over every one of
    /// them, the next job is dequeued after all.
    pub fn pop_unless(
        &mut self,
        platform: TeePlatform,
        lookahead: usize,
        mut pass_over: impl FnMut(&JobRef) -> bool,
    ) -> Option<JobRef> {
        let lanes = self.lanes.get_mut(&platform)?;
        let mut budget = lookahead;
        for queue in lanes.iter_mut() {
            let looked = queue.len().min(budget);
            if let Some(at) = queue.iter().take(looked).position(|job| !pass_over(job)) {
                self.depth -= 1;
                return queue.remove(at);
            }
            budget -= looked;
        }
        self.pop(platform)
    }

    /// Removes specific jobs wherever they are queued (cancellation),
    /// returning how many were actually present (and therefore removed
    /// before any worker could pick them up).
    pub fn remove(&mut self, jobs: &[JobRef]) -> usize {
        let mut removed = 0;
        for lanes in self.lanes.values_mut() {
            for queue in lanes.iter_mut() {
                let before = queue.len();
                queue.retain(|j| !jobs.contains(j));
                removed += before - queue.len();
            }
        }
        self.depth -= removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job of campaign 1 named by a short text: its bytes, read as one
    /// number, are the job's index.
    fn id(s: &str) -> JobRef {
        JobRef { campaign: 1, index: s.bytes().fold(0, |n, b| n << 8 | usize::from(b)) }
    }

    #[test]
    fn pop_unless_passes_over_jobs_within_the_lookahead_and_keeps_their_places() {
        let mut q = BoundedQueue::new(10);
        for (priority, job) in [
            (Priority::Normal, "a"),
            (Priority::Normal, "b"),
            (Priority::Low, "c"),
            (Priority::High, "h"),
        ] {
            q.push(TeePlatform::Tdx, priority, id(job));
        }
        // In pop order: h, a, b, c.
        let busy = |job: &JobRef| *job == id("h") || *job == id("a");
        assert_eq!(q.pop_unless(TeePlatform::Tdx, 4, busy), Some(id("b")));
        // Every job within the lookahead passed over: the head goes.
        assert_eq!(q.pop_unless(TeePlatform::Tdx, 2, busy), Some(id("h")));
        assert_eq!(q.pop_unless(TeePlatform::Tdx, 4, |_| true), Some(id("a")));
        assert_eq!(q.depth(), 1);
        assert_eq!(q.pop(TeePlatform::Tdx), Some(id("c")));
        assert_eq!(q.pop_unless(TeePlatform::Tdx, 4, |_| false), None);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn fifo_within_priority_and_priority_order_across() {
        let mut q = BoundedQueue::new(10);
        q.push(TeePlatform::Tdx, Priority::Normal, id("n1"));
        q.push(TeePlatform::Tdx, Priority::Low, id("l1"));
        q.push(TeePlatform::Tdx, Priority::High, id("h1"));
        q.push(TeePlatform::Tdx, Priority::Normal, id("n2"));
        q.push(TeePlatform::Tdx, Priority::High, id("h2"));
        let order: Vec<JobRef> = std::iter::from_fn(|| q.pop(TeePlatform::Tdx)).collect();
        assert_eq!(order, ["h1", "h2", "n1", "n2", "l1"].map(id));
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn platforms_are_independent_lanes() {
        let mut q = BoundedQueue::new(10);
        q.push(TeePlatform::Tdx, Priority::Normal, id("t1"));
        q.push(TeePlatform::SevSnp, Priority::Normal, id("s1"));
        assert!(q.pop(TeePlatform::Cca).is_none());
        assert_eq!(q.pop(TeePlatform::SevSnp), Some(id("s1")));
        assert_eq!(q.pop(TeePlatform::SevSnp), None);
        assert_eq!(q.pop(TeePlatform::Tdx), Some(id("t1")));
    }

    #[test]
    fn capacity_is_global_across_platforms() {
        let mut q = BoundedQueue::new(3);
        assert!(q.can_admit(3));
        assert!(!q.can_admit(4));
        q.push(TeePlatform::Tdx, Priority::Normal, id("a"));
        q.push(TeePlatform::SevSnp, Priority::Normal, id("b"));
        assert!(q.can_admit(1));
        assert!(!q.can_admit(2));
        q.push(TeePlatform::Cca, Priority::Normal, id("c"));
        assert!(!q.can_admit(1));
        q.pop(TeePlatform::Cca).unwrap();
        assert!(q.can_admit(1));
        // Recovery goes past the bound; admission waits until it drains.
        q.readmit(TeePlatform::Tdx, Priority::Normal, id("d"));
        q.readmit(TeePlatform::Tdx, Priority::Normal, id("e"));
        assert_eq!(q.depth(), 4);
        assert!(!q.can_admit(0) && !q.can_admit(1));
        q.pop(TeePlatform::Tdx).unwrap();
        q.pop(TeePlatform::Tdx).unwrap();
        assert!(q.can_admit(1));
    }

    #[test]
    #[should_panic(expected = "admission bypassed")]
    fn push_past_capacity_panics() {
        let mut q = BoundedQueue::new(1);
        q.push(TeePlatform::Tdx, Priority::Normal, id("a"));
        q.push(TeePlatform::Tdx, Priority::Normal, id("b"));
    }

    #[test]
    fn remove_plucks_queued_jobs_only() {
        let mut q = BoundedQueue::new(10);
        q.push(TeePlatform::Tdx, Priority::Normal, id("a"));
        q.push(TeePlatform::Tdx, Priority::High, id("b"));
        q.push(TeePlatform::SevSnp, Priority::Low, id("c"));
        // "b" and "c" are queued, "z" never was.
        let removed = q.remove(&[id("b"), id("c"), id("z")]);
        assert_eq!(removed, 2);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.pop(TeePlatform::Tdx), Some(id("a")));
        assert!(q.pop(TeePlatform::SevSnp).is_none());
    }
}
