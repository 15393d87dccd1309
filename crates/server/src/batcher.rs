//! The adaptive micro-batchers: one bounded request queue **per
//! collection shard**, each drained by its own dispatcher thread into
//! per-shard scan passes, with a gather cell per request that assembles
//! the reply once every shard has delivered its partial.
//!
//! Connection threads admit each `Knn` request once (a
//! [`Gather`](crate::gather::Gather) cell
//! holding the request and its reply sink), scatter one handle to
//! every shard's [`Batcher`], and go straight back to reading their
//! sockets. Every shard dispatcher runs the same collection policy, from
//! the first queued request: wait for more **only while the batch is
//! below [`target_fill`](crate::ServerConfig::target_fill)**, and within
//! that window dispatch early when
//! [`max_wait`](crate::ServerConfig::max_wait) has elapsed since the
//! **oldest** queued request or when no new request arrived for
//! [`idle_gap`](crate::ServerConfig::idle_gap); at dispatch it drains up
//! to [`max_batch`](crate::ServerConfig::max_batch) requests into one
//! per-shard multi-query pass
//! ([`ShardedBypass::scan_shard`](feedbackbypass::ShardedBypass::scan_shard)).
//! Under light load a lone request pays at most one idle gap of extra
//! latency; in the bursty think-time regime the gap cutoff dispatches
//! the moment a burst ends; under saturation each batcher is
//! work-conserving and its fill self-tunes to
//! `arrival rate × per-shard pass time`.
//!
//! Shards batch **independently** — shard 0 may serve requests {A, B}
//! in one pass while shard 1 serves A and B in two — and the reply is
//! still exact: a [`ShardPartial`](fbp_vecdb::ShardPartial) is the shard's k-best for its request
//! in key space regardless of batch-mates, and the gather merges
//! partials by the deterministic `(key, index)` order
//! ([`ShardedBypass::gather`](feedbackbypass::ShardedBypass::gather)).
//! The dispatcher thread that delivers the **last** partial runs the
//! merge and the reply completion (session bookkeeping, encoding, the
//! socket write), so no extra thread ever sits on the latency path.
//!
//! A dropped client (disconnect mid-request) merely makes its
//! completion's socket write fail — ignored, so abandoned entries can
//! never wedge a queue. On shutdown every queue stops accepting, each
//! dispatcher drains what remains, and exits; a gather whose scatter was
//! cut short by shutdown is completed with an error by the enqueuing
//! thread, so every admitted request resolves exactly once.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Why an enqueue was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EnqueueError {
    /// The server is shutting down.
    ShuttingDown,
}

struct Inner<T> {
    queue: VecDeque<(Instant, T)>,
    shutdown: bool,
}

/// Bounded-by-admission queue + wakeup plumbing shared by connection
/// threads and one shard's dispatcher. Capacity is enforced at the
/// *admission* layer (the front-end's in-flight bound), not here: every
/// admitted request lands once in every shard's queue, so a per-queue
/// bound would either double-count the global bound or leave a request
/// half-scattered on overflow.
pub(crate) struct Batcher<T> {
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    max_batch: usize,
    target_fill: usize,
    max_wait: Duration,
    idle_gap: Duration,
}

impl<T> Batcher<T> {
    pub(crate) fn new(
        max_batch: usize,
        target_fill: usize,
        max_wait: Duration,
        idle_gap: Duration,
    ) -> Self {
        let max_batch = max_batch.max(1);
        Batcher {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            max_batch,
            target_fill: target_fill.clamp(1, max_batch),
            max_wait,
            idle_gap,
        }
    }

    /// Enqueue one item (stamped now); fails only once shutting down.
    pub(crate) fn enqueue(&self, item: T) -> Result<(), EnqueueError> {
        let mut g = self.inner.lock().expect("batcher lock");
        if g.shutdown {
            return Err(EnqueueError::ShuttingDown);
        }
        g.queue.push_back((Instant::now(), item));
        self.cv.notify_one();
        Ok(())
    }

    /// Stop accepting and wake the dispatcher so it can drain and exit.
    pub(crate) fn shutdown(&self) {
        self.inner.lock().expect("batcher lock").shutdown = true;
        self.cv.notify_all();
    }

    /// Block until a batch is ready, returning each item with its
    /// enqueue instant. Returns `None` once shut down **and** drained.
    ///
    /// Collection policy, from the first queued item: wait for more
    /// **only while the batch is below `target_fill`**, and within that,
    /// dispatch as soon as one of
    ///
    /// * `max_wait` elapsed since the oldest queued item, or
    /// * no new item arrived for `idle_gap` — think-time traffic is
    ///   bursty (replies fan out together, sessions think together, the
    ///   next requests land together), so a quiet gap means the burst is
    ///   over and further waiting buys latency, not fill.
    ///
    /// At or above `target_fill` the batcher is work-conserving: it
    /// drains up to `max_batch` immediately. Under saturation the fill
    /// then self-tunes to `arrival rate × pass time` — items that landed
    /// during the previous pass ride the next one with no added wait.
    pub(crate) fn next_batch(&self) -> Option<Vec<(Instant, T)>> {
        let mut g = self.inner.lock().expect("batcher lock");
        // Park until the first item (or shutdown).
        while g.queue.is_empty() {
            if g.shutdown {
                return None;
            }
            g = self.cv.wait(g).expect("batcher lock");
        }
        // Collect the burst. Shutdown cuts every wait short.
        let deadline = g.queue.front().expect("non-empty").0 + self.max_wait;
        'collect: while g.queue.len() < self.target_fill && !g.shutdown {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let gap_end = std::cmp::min(now + self.idle_gap, deadline);
            let len_before = g.queue.len();
            // Wait out one idle gap; a new arrival restarts the clock.
            loop {
                if g.queue.len() > len_before {
                    continue 'collect;
                }
                if g.shutdown {
                    break 'collect;
                }
                let Some(remaining) = gap_end
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    break 'collect; // gap (or deadline) ran out quiet
                };
                let (guard, _timeout) = self.cv.wait_timeout(g, remaining).expect("batcher lock");
                g = guard;
            }
        }
        let take = g.queue.len().min(self.max_batch);
        Some(g.queue.drain(..take).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_fills_to_max_batch_without_waiting() {
        let b = Batcher::new(4, 4, Duration::from_secs(10), Duration::from_secs(10));
        for i in 0..6 {
            b.enqueue(i).unwrap();
        }
        // 6 queued, max_batch 4: the first batch takes 4 immediately
        // with no deadline wait.
        let first = b.next_batch().unwrap();
        assert_eq!(first.len(), 4);
        assert_eq!(first[0].1, 0, "FIFO order");
    }

    #[test]
    fn deadline_drains_partial_batch() {
        let b = Batcher::new(64, 64, Duration::from_millis(5), Duration::from_millis(5));
        b.enqueue(1).unwrap();
        b.enqueue(2).unwrap();
        let t0 = Instant::now();
        let batch = b.next_batch().unwrap();
        assert_eq!(batch.len(), 2);
        assert!(
            t0.elapsed() < Duration::from_millis(250),
            "deadline overshot"
        );
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let b = Batcher::new(4, 4, Duration::from_secs(10), Duration::from_secs(10));
        b.enqueue(7).unwrap();
        b.shutdown();
        assert_eq!(b.enqueue(8), Err(EnqueueError::ShuttingDown));
        assert_eq!(b.next_batch().unwrap().len(), 1);
        assert!(b.next_batch().is_none());
    }
}
