//! Bounded blocking queue for pipeline stages.
//!
//! The streaming transport (`pcc-stream`) overlaps frame encoding with
//! transmission: the encode thread produces coded chunks while the
//! transmit thread drains them onto the wire. A *bounded* queue is the
//! backpressure mechanism — when the link is slower than the encoder,
//! [`QueueSender::send`] blocks instead of buffering the whole video,
//! keeping memory proportional to the configured depth.
//!
//! Like the rest of this crate, the queue is std-only (a `Mutex` plus two
//! `Condvar`s). It supports any number of producers and consumers, though
//! the pipeline use is single-producer/single-consumer.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

struct State<T> {
    items: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Producer handle of a [`bounded`] queue.
pub struct QueueSender<T> {
    shared: Arc<Shared<T>>,
}

/// Consumer handle of a [`bounded`] queue.
pub struct QueueReceiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a bounded blocking queue holding at most `capacity` items.
///
/// # Panics
///
/// Panics if `capacity` is zero (a rendezvous channel is not supported).
///
/// # Examples
///
/// ```
/// let (tx, rx) = pcc_parallel::queue::bounded(2);
/// std::thread::scope(|s| {
///     s.spawn(move || {
///         for i in 0..10 {
///             tx.send(i).unwrap(); // blocks whenever 2 items are in flight
///         }
///     });
///     let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
///     assert_eq!(got, (0..10).collect::<Vec<_>>());
/// });
/// ```
pub fn bounded<T>(capacity: usize) -> (QueueSender<T>, QueueReceiver<T>) {
    assert!(capacity > 0, "queue capacity must be positive");
    let shared = Arc::new(Shared {
        state: Mutex::new(State { items: VecDeque::with_capacity(capacity), senders: 1, receivers: 1 }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (QueueSender { shared: Arc::clone(&shared) }, QueueReceiver { shared })
}

impl<T> QueueSender<T> {
    /// Enqueues `item`, blocking while the queue is full.
    ///
    /// # Errors
    ///
    /// Returns the item back if every receiver has been dropped (the
    /// pipeline's downstream stage died); producers use this to stop
    /// early instead of encoding frames nobody will transmit.
    pub fn send(&self, item: T) -> Result<(), T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.receivers == 0 {
                return Err(item);
            }
            if state.items.len() < self.shared.capacity {
                state.items.push_back(item);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> QueueSender<T> {
    /// Items currently buffered (a backpressure signal: the supervisor
    /// in `pcc-stream` reads this to detect a transmit stage that is not
    /// keeping up). Racy by nature — treat as a hint, not an invariant.
    pub fn len(&self) -> usize {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner()).items.len()
    }

    /// Whether the queue is currently empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Clone for QueueSender<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders += 1;
        drop(state);
        QueueSender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for QueueSender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.senders -= 1;
        if state.senders == 0 {
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> QueueReceiver<T> {
    /// Dequeues the next item, blocking while the queue is empty.
    ///
    /// Returns `None` once every sender has been dropped *and* the queue
    /// has drained — the clean end-of-stream signal.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

impl<T> Clone for QueueReceiver<T> {
    fn clone(&self) -> Self {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receivers += 1;
        drop(state);
        QueueReceiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for QueueReceiver<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.receivers -= 1;
        if state.receivers == 0 {
            self.shared.not_full.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = bounded(4);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    // The queue exists to connect two threads, so this test needs a
    // producer thread of its own; it fans no data-parallel work out.
    #[allow(clippy::disallowed_methods)]
    #[test]
    fn capacity_applies_backpressure() {
        let (tx, rx) = bounded(2);
        let produced = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let seen = std::sync::Arc::clone(&produced);
        std::thread::scope(|s| {
            s.spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                    seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
            });
            // The producer can never run more than capacity + 1 items
            // ahead of the consumer. Signed arithmetic: the consumer can
            // observe `produced` *before* the producer's fetch_add runs
            // for an item already received, making the difference -1 — an
            // unsigned subtraction here underflow-panicked while the
            // producer was parked in send(), deadlocking the scope join.
            let mut received = 0i64;
            while rx.recv().is_some() {
                received += 1;
                let ahead =
                    produced.load(std::sync::atomic::Ordering::SeqCst) as i64 - received;
                assert!(ahead <= 3, "producer ran {ahead} ahead");
            }
            assert_eq!(received, 100);
        });
    }

    #[test]
    fn depth_and_capacity_are_observable() {
        let (tx, rx) = bounded::<u32>(3);
        assert_eq!(tx.capacity(), 3);
        assert!(tx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.len(), 2);
        rx.recv().unwrap();
        assert_eq!(tx.len(), 1);
    }

    #[test]
    fn dropped_receiver_fails_send() {
        let (tx, rx) = bounded::<u32>(1);
        drop(rx);
        assert_eq!(tx.send(7), Err(7));
    }

    #[test]
    fn dropped_sender_drains_then_ends() {
        let (tx, rx) = bounded(8);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }
}
