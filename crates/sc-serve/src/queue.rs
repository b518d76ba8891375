//! Bounded job queue between the I/O thread and the engine workers.
//!
//! Requests arrive one at a time from connection handlers and each worker
//! pops one job at a time: the SC-DCNN evaluates one image per pass, and a
//! worker keeps its sessions across jobs anyway, so grouping jobs would
//! share no work — it would only let one worker hold requests an idle
//! worker could have taken.
//!
//! The queue also implements admission control: `max_queue` caps the number
//! of waiting requests, and [`JobQueue::push`] *sheds* (refuses with
//! [`PushRefusal::Full`]) instead of queueing unboundedly. Queue depth is
//! latency — a request admitted behind a long backlog would only come back
//! after its deadline anyway, so refusing early keeps tail latency of the
//! accepted traffic predictable under overload.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why [`JobQueue::push`] refused a request (the request is dropped; the
/// caller owns answering the client with the matching typed error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushRefusal {
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

/// A blocking, bounded MPMC FIFO.
#[derive(Debug)]
pub(crate) struct JobQueue<T> {
    state: Mutex<QueueState<T>>,
    available: Condvar,
    max_queue: usize,
}

impl<T> JobQueue<T> {
    /// Creates a queue holding at most `max_queue` waiting jobs (floored at
    /// one: zero would refuse everything forever).
    pub(crate) fn new(max_queue: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            max_queue: max_queue.max(1),
        }
    }

    /// Enqueues a job, or refuses it (dropping the item) when the queue is
    /// closed or already `max_queue` deep.
    pub(crate) fn push(&self, item: T) -> Result<(), PushRefusal> {
        let mut state = self.state.lock().expect("queue lock");
        if state.closed {
            return Err(PushRefusal::Closed);
        }
        if state.items.len() >= self.max_queue {
            return Err(PushRefusal::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Number of jobs currently waiting.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("queue lock").items.len()
    }

    /// Closes the queue: pushes start failing, and blocked `pop` callers
    /// drain the remaining items, then receive `None`.
    pub(crate) fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.available.notify_all();
    }

    /// Blocks until a job is available and returns it, or returns `None`
    /// once the queue is closed and drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).expect("queue lock");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn close_drains_then_stops() {
        let q = JobQueue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert_eq!(q.push(3), Err(PushRefusal::Closed));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert!(q.pop().is_none());
    }

    #[test]
    fn producers_wake_blocked_consumer() {
        let q = Arc::new(JobQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || (q.pop(), q.pop()))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        q.push(10).unwrap();
        // One job per pop, in arrival order.
        assert_eq!(consumer.join().unwrap(), (Some(9), Some(10)));
        // Shutdown also wakes a consumer blocked on an empty queue.
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(consumer.join().unwrap().is_none());
    }

    #[test]
    fn full_queue_sheds_instead_of_growing() {
        let q = JobQueue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.push(3), Err(PushRefusal::Full));
        assert_eq!(q.len(), 2, "a shed push must not grow the queue");
        // Draining reopens admission.
        assert_eq!(q.pop(), Some(1));
        q.push(4).unwrap();
        assert_eq!(q.push(5), Err(PushRefusal::Full));
        // `max_queue` is floored at one, never zero (which would refuse
        // everything forever).
        let q = JobQueue::new(0);
        q.push(9).unwrap();
        assert_eq!(q.push(10), Err(PushRefusal::Full));
    }

    #[test]
    fn len_reflects_queue_state() {
        let q = JobQueue::new(1);
        assert_eq!(q.len(), 0);
        q.push(1).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.len(), 0);
    }
}
