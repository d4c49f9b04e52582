//! Bounded MPMC queue — the serving tier's request channel *and* its
//! admission controller: one [`Mutex`] over a [`VecDeque`] and the count
//! of parked consumers, and one [`Condvar`] they park on. A lock is
//! enough: on `serve-churn` a push and a pop are ≈ 30 ns of a ≈ 60 µs
//! request and the depth stays in single digits.
//!
//! [`MpmcQueue::push`] on a full queue fails at once, handing the item
//! back; [`crate::ServeLoop::submit`] turns that into a typed
//! [`crate::ServeError::Overloaded`] instead of unbounded queueing latency.

use crate::lock_unpoisoned;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

struct State<T> {
    items: VecDeque<T>,
    /// Consumers inside [`MpmcQueue::park`]; a push notifies only if any.
    parked: usize,
}

/// A bounded multi-producer multi-consumer FIFO queue.
pub struct MpmcQueue<T> {
    state: Mutex<State<T>>,
    wake: Condvar,
    capacity: usize,
}

impl<T> MpmcQueue<T> {
    /// Creates a queue holding at most `capacity` items (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let state = State { items: VecDeque::with_capacity(capacity), parked: 0 };
        MpmcQueue { state: Mutex::new(state), wake: Condvar::new(), capacity }
    }

    /// The admission bound: how many items the queue holds when full.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues `item` and wakes one parked consumer, if one is parked —
    /// or hands `item` back if the queue is full.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.offer(item).map(|_depth| ())
    }

    /// [`Self::push`], returning the depth the accepted push left — read
    /// under the push's own lock, so it costs no second acquisition.
    pub(crate) fn offer(&self, item: T) -> Result<usize, T> {
        let mut state = lock_unpoisoned(&self.state);
        if state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        let wake = state.parked > 0;
        drop(state); // the woken consumer takes the lock next
        if wake {
            self.wake.notify_one();
        }
        Ok(depth)
    }

    /// Dequeues the oldest item, or `None` if the queue is empty.
    pub fn pop(&self) -> Option<T> {
        lock_unpoisoned(&self.state).items.pop_front()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.state).items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parks the calling consumer until a push, [`Self::wake_all`] or
    /// `timeout` — unless `runnable`, given the number of queued items and
    /// run under the queue's lock (so that no push and no `wake_all` can
    /// fall between the check and the wait), says there is work now.
    pub(crate) fn park(&self, timeout: Duration, runnable: impl FnOnce(usize) -> bool) {
        let mut state = lock_unpoisoned(&self.state);
        if runnable(state.items.len()) {
            return;
        }
        state.parked += 1;
        let waited = self.wake.wait_timeout(state, timeout);
        waited.unwrap_or_else(PoisonError::into_inner).0.parked -= 1;
    }

    /// Wakes every parked consumer. Taking the lock first orders the
    /// caller's earlier flag store against each consumer's `runnable`.
    pub(crate) fn wake_all(&self) {
        drop(lock_unpoisoned(&self.state));
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc, Barrier};

    /// Far beyond any test's runtime: a `park` that returns was released.
    const NEVER: Duration = Duration::from_secs(3600);

    /// Two consumers parked on `q` inside `scope`, each reporting on the
    /// returned channel when it is released; returns once both are parked.
    fn two_parked<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        q: &'scope MpmcQueue<u32>,
    ) -> mpsc::Receiver<()> {
        let (released, reports) = mpsc::channel();
        for _ in 0..2 {
            let released = released.clone();
            scope.spawn(move || {
                q.park(NEVER, |_| false);
                released.send(()).unwrap();
            });
        }
        while lock_unpoisoned(&q.state).parked < 2 {
            std::thread::yield_now();
        }
        reports
    }

    #[test]
    fn fifo_within_capacity() {
        let q = MpmcQueue::with_capacity(4);
        assert_eq!(q.capacity(), 4);
        assert!(q.is_empty());
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.push(99), Err(99), "full queue rejects");
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn offer_reports_the_depth_its_push_left() {
        let q = MpmcQueue::with_capacity(3);
        assert_eq!((q.offer(1), q.offer(2)), (Ok(1), Ok(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!((q.offer(3), q.offer(4)), (Ok(2), Ok(3)));
        assert_eq!(q.offer(5), Err(5), "a rejected offer reports no depth");
    }

    #[test]
    fn capacity_is_exact() {
        assert_eq!(MpmcQueue::<u8>::with_capacity(0).capacity(), 1);
        assert_eq!(MpmcQueue::<u8>::with_capacity(1024).capacity(), 1024);
        let q = MpmcQueue::with_capacity(3);
        assert_eq!(q.capacity(), 3);
        assert_eq!((0..5).filter(|&i| q.push(i).is_ok()).count(), 3);
    }

    #[test]
    fn wraps_around_many_laps() {
        let q = MpmcQueue::with_capacity(2);
        for lap in 0u64..1000 {
            q.push(lap).unwrap();
            assert_eq!(q.pop(), Some(lap));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        const PER_PRODUCER: u64 = 2000;
        const PRODUCERS: u64 = 3;
        let q = Arc::new(MpmcQueue::with_capacity(16));
        let sum = Arc::new(AtomicU64::new(0));
        let popped = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = p * PER_PRODUCER + i;
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            let popped = Arc::clone(&popped);
            handles.push(std::thread::spawn(move || loop {
                if let Some(v) = q.pop() {
                    sum.fetch_add(v, Ordering::Relaxed);
                    popped.fetch_add(1, Ordering::Relaxed);
                } else if popped.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                    break;
                } else {
                    std::thread::yield_now();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let n = PRODUCERS * PER_PRODUCER;
        assert_eq!(popped.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2, "every item seen exactly once");
    }

    #[test]
    fn drop_releases_inflight_items() {
        // Arc strong counts witness the drops.
        let payload = Arc::new(());
        {
            let q = MpmcQueue::with_capacity(8);
            for _ in 0..5 {
                q.push(Arc::clone(&payload)).unwrap();
            }
            assert_eq!(Arc::strong_count(&payload), 6);
        }
        assert_eq!(Arc::strong_count(&payload), 1);
    }

    #[test]
    fn park_returns_at_once_when_runnable() {
        let q = MpmcQueue::with_capacity(4);
        q.park(NEVER, |queued| queued == 0);
        q.push(7).unwrap();
        q.push(8).unwrap();
        q.park(NEVER, |queued| queued == 2);
        assert_eq!(lock_unpoisoned(&q.state).parked, 0);
    }

    /// A push asks for one parked consumer (`notify_one`), and what the
    /// protocol guarantees is: at least one is released, and the item is
    /// there to be popped exactly once. That the *other* consumer stays
    /// parked is not guaranteed — a `Condvar` may wake spuriously — and a
    /// consumer woken for nothing just finds no work, so it is not
    /// asserted.
    #[test]
    fn push_releases_exactly_one_parked_consumer() {
        let q = MpmcQueue::with_capacity(4);
        std::thread::scope(|scope| {
            let reports = two_parked(scope, &q);
            q.push(1).unwrap();
            reports.recv().unwrap();
            assert_eq!((q.pop(), q.pop()), (Some(1), None));
            q.wake_all();
            reports.recv().unwrap();
        });
        assert_eq!(lock_unpoisoned(&q.state).parked, 0);
    }

    #[test]
    fn wake_all_releases_every_parked_consumer() {
        let q = MpmcQueue::with_capacity(4);
        std::thread::scope(|scope| {
            let reports = two_parked(scope, &q);
            q.wake_all();
            reports.recv().unwrap();
            reports.recv().unwrap();
        });
        assert_eq!(lock_unpoisoned(&q.state).parked, 0);
    }

    #[test]
    fn concurrent_producers_are_admitted_up_to_capacity_exactly() {
        let q = MpmcQueue::with_capacity(8);
        let (start, admitted) = (Barrier::new(4), AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for p in 0..4u32 {
                let (q, start, admitted) = (&q, &start, &admitted);
                scope.spawn(move || {
                    start.wait();
                    let ok = (0..8).filter(|&i| q.push(p * 8 + i).is_ok()).count();
                    admitted.fetch_add(ok, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(admitted.load(Ordering::Relaxed), 8);
        assert_eq!(q.len(), 8);
    }
}
