//! A small fixed-worker thread pool for the fleet round's vehicle lanes.
//!
//! [`LanePool`] applies one fixed function to a fixed number of owned items
//! per batch ([`LanePool::run`]), without pulling a work-stealing runtime
//! into the workspace and without letting the caller observe scheduling
//! nondeterminism.  Items are claimed dynamically by the workers *and* the
//! caller, so a stalled worker never holds a batch hostage, and the
//! hand-off allocates nothing once warm: the items move through
//! preallocated slots, and the wake-up and completion signals travel over
//! bounded channels.  A fleet uses it to step its vehicle lanes in
//! parallel.
//!
//! # Example
//!
//! ```
//! use dynar_foundation::pool::LanePool;
//!
//! let pool = LanePool::new(4, 8, |item: &mut u64| *item *= *item);
//! let mut items: Vec<u64> = (0..8).collect();
//! pool.run(&mut items);
//! assert_eq!(items, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// What [`LanePool`] workers share with the caller.
struct LaneShared<T> {
    /// One slot per lane.  A batch moves each item into its slot, and the
    /// thread that claims the lane works on it in place.
    slots: Box<[Mutex<T>]>,
    /// The next lane to claim; at or past `slots.len()` between batches.
    next: AtomicUsize,
    /// The payload of the batch's first panic, which the batch re-raises.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    work: Box<dyn Fn(&mut T) + Send + Sync>,
}

impl<T> LaneShared<T> {
    /// Locks one slot.  A slot is never poisoned: the work's panics are
    /// caught while its guard is held.
    fn slot(&self, lane: usize) -> Option<MutexGuard<'_, T>> {
        let slot = self.slots.get(lane)?;
        Some(
            slot.lock()
                .expect("lane work panics are caught under the lock"),
        )
    }

    /// Claims lanes until none is left, calling `finished` after each.
    fn claim_all(&self, mut finished: impl FnMut()) {
        loop {
            // Acquire: pairs with the Release store that opened the batch,
            // after every slot was filled.
            let lane = self.next.fetch_add(1, Ordering::AcqRel);
            {
                let Some(mut item) = self.slot(lane) else {
                    return;
                };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.work)(&mut item))) {
                    let mut panic = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                    panic.get_or_insert(payload);
                }
            }
            finished();
        }
    }
}

/// A fixed set of worker threads applying one function to a fixed number of
/// owned items (*lanes*) per batch.
///
/// [`LanePool::run`] moves every item into its slot, wakes the workers and
/// claims lanes itself until none is left, then waits for the lanes the
/// workers claimed and moves the items back.  Lanes are claimed one at a
/// time from a shared counter, so a thread that falls behind has the lanes
/// it did not reach taken by the others.  Each item is worked on by exactly
/// one thread per batch and comes back to the position it left.  Once the
/// channels' wait queues are warm, a batch allocates nothing.
pub struct LanePool<T> {
    shared: Arc<LaneShared<T>>,
    /// One wake-up channel per worker (capacity 1: a pending wake-up is as
    /// good as a second one).
    wake: Vec<mpsc::SyncSender<()>>,
    /// One token per lane a worker finished (capacity: every lane).
    done: mpsc::Receiver<()>,
    handles: Vec<JoinHandle<()>>,
}

impl<T> std::fmt::Debug for LanePool<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LanePool")
            .field("lanes", &self.shared.slots.len())
            .field("threads", &(self.handles.len() + 1))
            .finish_non_exhaustive()
    }
}

impl<T: Default + Send + 'static> LanePool<T> {
    /// Creates a pool of `lanes` slots worked on by `threads` threads: the
    /// caller of [`LanePool::run`] plus `threads - 1` spawned workers
    /// (`threads <= 1` spawns none and runs every batch inline).
    pub fn new(
        threads: usize,
        lanes: usize,
        work: impl Fn(&mut T) + Send + Sync + 'static,
    ) -> Self {
        let shared = Arc::new(LaneShared {
            slots: (0..lanes).map(|_| Mutex::new(T::default())).collect(),
            next: AtomicUsize::new(lanes),
            panic: Mutex::new(None),
            work: Box::new(work),
        });
        let (done_tx, done) = mpsc::sync_channel(lanes);
        let mut wake = Vec::new();
        let mut handles = Vec::new();
        for index in 1..threads.max(1) {
            let (wake_tx, wake_rx) = mpsc::sync_channel::<()>(1);
            let shared = Arc::clone(&shared);
            let done_tx = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("dynar-lane-{index}"))
                .spawn(move || {
                    // Ends when the pool drops its wake-up senders.
                    while wake_rx.recv().is_ok() {
                        shared.claim_all(|| {
                            // The caller holds the receiver until every
                            // worker has been joined.
                            done_tx.send(()).expect("lane pool alive");
                        });
                    }
                })
                .expect("spawn lane worker");
            wake.push(wake_tx);
            handles.push(handle);
        }
        LanePool {
            shared,
            wake,
            done,
            handles,
        }
    }

    /// The number of threads working on a batch, the caller included.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Applies the pool's function to every item, in parallel, and leaves
    /// each item where it was.
    ///
    /// # Panics
    ///
    /// Panics if `items` does not hold exactly one item per lane, and
    /// re-raises in the caller, with its original payload, the first panic
    /// of the function on any item.  Every item is back in `items` before
    /// that.
    pub fn run(&self, items: &mut [T]) {
        let shared = &*self.shared;
        assert_eq!(items.len(), shared.slots.len(), "one item per lane");
        for (lane, item) in items.iter_mut().enumerate() {
            *shared.slot(lane).expect("one slot per lane") = std::mem::take(item);
        }
        // Release: every slot is filled before the first lane is claimed.
        shared.next.store(0, Ordering::Release);
        for wake in &self.wake {
            match wake.try_send(()) {
                // `Full`: the worker has not yet taken its previous wake-up,
                // and will claim from this batch when it does.
                Ok(()) | Err(mpsc::TrySendError::Full(())) => {}
                Err(mpsc::TrySendError::Disconnected(())) => {
                    unreachable!("lane workers live as long as their pool")
                }
            }
        }
        let mut finished = 0;
        shared.claim_all(|| finished += 1);
        while finished < items.len() {
            self.done.recv().expect("lane workers alive");
            finished += 1;
        }
        for (lane, item) in items.iter_mut().enumerate() {
            *item = std::mem::take(&mut *shared.slot(lane).expect("one slot per lane"));
        }
        let panic = shared
            .panic
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
    }
}

impl<T> Drop for LanePool<T> {
    fn drop(&mut self) {
        // Closing the wake-up channels ends every worker's loop.
        self.wake.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_pool_works_every_lane_once_per_batch() {
        let pool = LanePool::new(3, 8, |item: &mut Vec<u64>| {
            let next = item.last().map_or(1, |last| last * 2);
            item.push(next);
        });
        assert_eq!(pool.threads(), 3);
        let mut items: Vec<Vec<u64>> = (0..8u64).map(|i| vec![i]).collect();
        for _ in 0..50 {
            pool.run(&mut items);
        }
        for (lane, item) in items.iter().enumerate() {
            assert_eq!(item.len(), 51, "lane {lane} ran once per batch");
            assert_eq!(item[0], lane as u64, "lane {lane} came back to its place");
        }
    }

    #[test]
    fn inline_lane_pool_spawns_nothing() {
        let pool = LanePool::new(1, 4, |item: &mut u64| *item += 1);
        assert_eq!(pool.threads(), 1);
        let mut items = [1u64, 2, 3, 4];
        pool.run(&mut items);
        assert_eq!(items, [2, 3, 4, 5]);
    }

    #[test]
    fn lane_pool_survives_a_panicking_lane() {
        let pool = LanePool::new(2, 4, |item: &mut u64| {
            assert!(*item != 2, "planted failure on item {item}");
            *item += 10;
        });
        let mut items = [0u64, 1, 2, 3];
        let payload = catch_unwind(AssertUnwindSafe(|| pool.run(&mut items)))
            .expect_err("the panic reaches the caller");
        let message = payload.downcast_ref::<String>().map(String::as_str);
        assert_eq!(
            message,
            Some("planted failure on item 2"),
            "the lane's own panic message reaches the caller"
        );
        assert_eq!(items, [10, 11, 2, 13], "every item came back");
        let mut items = [0u64, 1, 5, 3];
        pool.run(&mut items);
        assert_eq!(items, [10, 11, 15, 13], "the pool still works");
    }
}
