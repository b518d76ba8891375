//! Micro-batching request queue.
//!
//! Requests arrive one at a time from connection handlers; SC inference
//! throughput is maximized when workers pull *batches* (one session's arena
//! serves a whole batch and, with multiple workers, whole batches fan out in
//! parallel). [`BatchQueue`] implements the classic micro-batching
//! trade-off: a worker popping the queue receives up to `max_batch` requests,
//! waiting at most `max_linger` after the first pending request for more to
//! accumulate.
//!
//! The queue also implements admission control: `max_queue` caps the number
//! of waiting requests, and [`BatchQueue::push`] *sheds* (refuses with
//! [`PushRefusal::Full`]) instead of queueing unboundedly. Queue depth is
//! latency — a request admitted behind a long backlog would only come back
//! after its deadline anyway, so refusing early keeps tail latency of the
//! accepted traffic predictable under overload.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum requests per batch.
    pub max_batch: usize,
    /// Maximum time a pending request waits for company.
    pub max_linger: Duration,
    /// Maximum requests waiting in the queue before `push` sheds (floored
    /// at one).
    pub max_queue: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_linger: Duration::from_millis(2),
            max_queue: 1024,
        }
    }
}

/// Why [`BatchQueue::push`] refused a request (the request is dropped; the
/// caller owns answering the client with the matching typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRefusal {
    /// The queue is shutting down.
    Closed,
    /// The queue is at `max_queue` depth — shed under overload.
    Full,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A blocking MPMC queue handing out micro-batches.
#[derive(Debug)]
pub struct BatchQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    policy: BatchPolicy,
}

impl<T> BatchQueue<T> {
    /// Creates a queue with the given batching policy (`max_batch` is
    /// floored at one).
    pub fn new(policy: BatchPolicy) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            policy: BatchPolicy {
                max_batch: policy.max_batch.max(1),
                max_linger: policy.max_linger,
                max_queue: policy.max_queue.max(1),
            },
        }
    }

    /// The queue's batching policy.
    pub fn policy(&self) -> BatchPolicy {
        self.policy
    }

    /// Enqueues a request, or refuses it (dropping the item) when the queue
    /// is closed or already `max_queue` deep.
    ///
    /// # Errors
    ///
    /// [`PushRefusal::Closed`] during shutdown, [`PushRefusal::Full`] when
    /// admission control sheds the request.
    pub fn push(&self, item: T) -> Result<(), PushRefusal> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushRefusal::Closed);
        }
        if state.items.len() >= self.policy.max_queue {
            return Err(PushRefusal::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Number of requests currently waiting.
    pub fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Whether no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the queue: pushes start failing, and blocked `pop_batch`
    /// callers drain the remaining items, then receive `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Blocks until at least one request is available, then returns a batch
    /// of up to `max_batch` requests, lingering up to `max_linger` for the
    /// batch to fill. Returns `None` once the queue is closed and drained.
    pub fn pop_batch(&self) -> Option<Vec<T>> {
        let mut state = self.state.lock().expect("queue lock");
        // Wait for the first request (or shutdown).
        while state.items.is_empty() {
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
        let mut batch = Vec::with_capacity(self.policy.max_batch.min(state.items.len()));
        // `checked_add` instead of `+`: an effectively-infinite `max_linger`
        // (e.g. `Duration::MAX`) must mean "wait for a full batch or
        // shutdown", not panic on `Instant` overflow.
        let deadline = Instant::now().checked_add(self.policy.max_linger);
        loop {
            while batch.len() < self.policy.max_batch {
                match state.items.pop_front() {
                    Some(item) => batch.push(item),
                    None => break,
                }
            }
            if batch.len() >= self.policy.max_batch || state.closed {
                break;
            }
            // Saturating remainder: with `max_linger` zero — or a deadline
            // that already passed while we drained — this is `Duration::ZERO`
            // and the partial batch returns immediately instead of
            // busy-spinning on zero-length waits or panicking on a negative
            // `deadline - now`.
            let remaining = match deadline {
                Some(deadline) => deadline.saturating_duration_since(Instant::now()),
                None => Duration::MAX,
            };
            if remaining.is_zero() {
                break;
            }
            // Cap each wait so an unbounded linger still re-checks the
            // shutdown flag periodically (and stays inside the range every
            // platform's condvar timeout supports).
            let (next, timeout) = self
                .available
                .wait_timeout(state, remaining.min(Duration::from_secs(60)))
                .expect("queue lock");
            state = next;
            if timeout.timed_out() && state.items.is_empty() && remaining <= Duration::from_secs(60)
            {
                break;
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn queue(max_batch: usize, linger_ms: u64) -> BatchQueue<u32> {
        BatchQueue::new(BatchPolicy {
            max_batch,
            max_linger: Duration::from_millis(linger_ms),
            ..BatchPolicy::default()
        })
    }

    #[test]
    fn full_batch_returns_without_lingering() {
        let q = queue(3, 10_000);
        for i in 0..5 {
            assert!(q.push(i).is_ok());
        }
        let start = Instant::now();
        assert_eq!(q.pop_batch().unwrap(), vec![0, 1, 2]);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert_eq!(q.pop_batch().unwrap(), vec![3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn linger_caps_the_wait_for_a_partial_batch() {
        let q = queue(8, 20);
        q.push(7).unwrap();
        let start = Instant::now();
        let batch = q.pop_batch().unwrap();
        assert_eq!(batch, vec![7]);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn zero_linger_returns_partial_batches_immediately() {
        // Regression: with `max_linger = 0` the deadline is "already
        // passed" the moment it is computed; the drain loop must neither
        // busy-spin on zero-length waits nor panic on negative deadline
        // arithmetic — it hands back whatever is queued, at once.
        let q = queue(8, 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let start = Instant::now();
        assert_eq!(q.pop_batch().unwrap(), vec![1, 2]);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "zero linger must not wait"
        );
        // A full batch with zero linger also returns intact.
        let q = queue(2, 0);
        q.push(3).unwrap();
        q.push(4).unwrap();
        q.push(5).unwrap();
        assert_eq!(q.pop_batch().unwrap(), vec![3, 4]);
        assert_eq!(q.pop_batch().unwrap(), vec![5]);
    }

    #[test]
    fn unbounded_linger_does_not_panic_on_deadline_arithmetic() {
        // `Instant::now() + Duration::MAX` would panic; `checked_add` must
        // turn it into "wait for a full batch", which this full batch
        // satisfies immediately.
        let q = BatchQueue::new(BatchPolicy {
            max_batch: 2,
            max_linger: Duration::MAX,
            ..BatchPolicy::default()
        });
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop_batch().unwrap(), vec![1, 2]);
        // And shutdown still unblocks a lingering partial batch.
        let q = Arc::new(BatchQueue::new(BatchPolicy {
            max_batch: 8,
            max_linger: Duration::MAX,
            ..BatchPolicy::default()
        }));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap().unwrap(), vec![9]);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = queue(4, 1);
        q.push(1).unwrap();
        q.close();
        assert_eq!(q.push(2), Err(PushRefusal::Closed));
        assert_eq!(q.pop_batch().unwrap(), vec![1]);
        assert!(q.pop_batch().is_none());
    }

    #[test]
    fn producers_wake_blocked_consumer() {
        let q = Arc::new(queue(2, 50));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop_batch())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        q.push(10).unwrap();
        let batch = consumer.join().unwrap().unwrap();
        assert_eq!(batch, vec![9, 10]);
    }

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let q = BatchQueue::new(BatchPolicy {
            max_batch: 4,
            max_linger: Duration::from_millis(1),
            max_queue: 2,
        });
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushRefusal::Full));
        assert_eq!(q.len(), 2, "a shed push must not grow the queue");
        // Draining reopens admission.
        assert_eq!(q.pop_batch().unwrap(), vec![1, 2]);
        q.push(4).unwrap();
        // `max_queue` is floored at one, never zero (which would refuse
        // everything forever).
        let q = BatchQueue::new(BatchPolicy {
            max_queue: 0,
            ..BatchPolicy::default()
        });
        q.push(9).unwrap();
        assert_eq!(q.push(10), Err(PushRefusal::Full));
    }

    #[test]
    fn is_empty_reflects_queue_state() {
        let q = queue(1, 1);
        assert!(q.is_empty());
        q.push(1).unwrap();
        assert!(!q.is_empty());
        assert_eq!(q.policy().max_batch, 1);
    }
}
