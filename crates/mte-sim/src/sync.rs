//! Lock/yield facade adopted by the concurrent data structures under
//! test (`TwoTierTable`, `GlobalLockTable`, the guarded-copy shadow
//! ledger).
//!
//! Every lock operation and explicit yield is a *schedule point*
//! reported to a thread-local [`SchedObserver`] — the deterministic
//! scheduler in `crates/stress` registers itself as the observer on each
//! participant thread and serializes execution so interleavings are a
//! pure function of a `u64` seed (see DESIGN.md §9).
//!
//! The observer registration is **thread-local**, not global: threads
//! that never call [`set_thread_observer`] take the uninstrumented path
//! through one `RefCell` check and otherwise behave like `parking_lot`.

use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Receives schedule points from instrumented locks. Exactly one
/// scheduler thread group registers an observer per participant
/// thread; all callbacks run on the participant.
///
/// Contract: `lock_attempt`, `lock_blocked` and `yield_point` may
/// deschedule the calling thread (block until granted the token);
/// `lock_acquired` and `lock_released` must only record/unblock —
/// `lock_released` in particular runs from guard `Drop`, possibly
/// during a panic unwind, and must never panic or deschedule.
pub trait SchedObserver: Send + Sync {
    /// About to attempt `try_lock` on lock `id`.
    fn lock_attempt(&self, id: u64);
    /// `try_lock` failed; the caller will retry once rescheduled.
    fn lock_blocked(&self, id: u64);
    /// The lock was taken.
    fn lock_acquired(&self, id: u64);
    /// The lock was dropped (record + wake waiters only).
    fn lock_released(&self, id: u64);
    /// A named preemption point between lock operations.
    fn yield_point(&self, label: &'static str);
}

thread_local! {
    static OBSERVER: RefCell<Option<Arc<dyn SchedObserver>>> =
        const { RefCell::new(None) };
}

/// Installs (or clears) the calling thread's schedule observer.
pub fn set_thread_observer(obs: Option<Arc<dyn SchedObserver>>) {
    OBSERVER.with(|o| *o.borrow_mut() = obs);
}

fn current_observer() -> Option<Arc<dyn SchedObserver>> {
    OBSERVER.with(|o| o.borrow().clone())
}

/// A named preemption point: a schedule point when the calling
/// thread has an observer, a no-op otherwise.
pub fn yield_point(label: &'static str) {
    if let Some(obs) = current_observer() {
        obs.yield_point(label);
    }
}

/// Process-wide lock-id allocator. Ids are assigned lazily on first
/// contact so the numbering depends only on acquisition order, which
/// is deterministic under the serialized scheduler (the stress
/// harness additionally aliases ids per-schedule for replay-stable
/// traces).
static NEXT_LOCK_ID: AtomicU64 = AtomicU64::new(1);

/// A mutex with the `parking_lot` API whose operations report
/// schedule points to the thread's [`SchedObserver`].
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    id: AtomicU64,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex guarding `value`.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            id: AtomicU64::new(0),
            inner: parking_lot::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the guarded value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn lock_id(&self) -> u64 {
        let id = self.id.load(Ordering::Relaxed);
        if id != 0 {
            return id;
        }
        let fresh = NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed);
        match self
            .id
            .compare_exchange(0, fresh, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => fresh,
            Err(existing) => existing,
        }
    }

    /// Acquires the mutex. With an observer installed, the attempt
    /// and any blocking are schedule points; the scheduler will not
    /// reschedule a blocked thread until the lock's release has been
    /// observed, so the retry loop cannot spin.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let Some(obs) = current_observer() else {
            return MutexGuard {
                inner: Some(self.inner.lock()),
                id: 0,
                obs: None,
            };
        };
        let id = self.lock_id();
        obs.lock_attempt(id);
        loop {
            if let Some(g) = self.inner.try_lock() {
                obs.lock_acquired(id);
                return MutexGuard {
                    inner: Some(g),
                    id,
                    obs: Some(obs),
                };
            }
            obs.lock_blocked(id);
        }
    }

    /// Attempts to acquire the mutex without blocking. The attempt
    /// is still a schedule point so interleavings around contended
    /// `try_lock` callers are explored.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let Some(obs) = current_observer() else {
            return self.inner.try_lock().map(|g| MutexGuard {
                inner: Some(g),
                id: 0,
                obs: None,
            });
        };
        let id = self.lock_id();
        obs.lock_attempt(id);
        match self.inner.try_lock() {
            Some(g) => {
                obs.lock_acquired(id);
                Some(MutexGuard {
                    inner: Some(g),
                    id,
                    obs: Some(obs),
                })
            }
            None => None,
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.inner, f)
    }
}

/// The guard returned by [`Mutex::lock`]; reports the release to the
/// observer *after* the underlying lock is dropped.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<parking_lot::MutexGuard<'a, T>>,
    id: u64,
    obs: Option<Arc<dyn SchedObserver>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before telling the scheduler, so a
        // woken waiter's try_lock succeeds immediately.
        drop(self.inner.take());
        if let Some(obs) = self.obs.take() {
            obs.lock_released(self.id);
        }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    #[test]
    fn uninstrumented_path_behaves_like_parking_lot() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert_eq!(m.try_lock().map(|g| *g), Some(42));
    }

    #[derive(Default)]
    struct Recorder {
        ops: StdMutex<Vec<(&'static str, u64)>>,
    }

    impl SchedObserver for Recorder {
        fn lock_attempt(&self, id: u64) {
            self.ops.lock().unwrap().push(("attempt", id));
        }
        fn lock_blocked(&self, id: u64) {
            self.ops.lock().unwrap().push(("blocked", id));
        }
        fn lock_acquired(&self, id: u64) {
            self.ops.lock().unwrap().push(("acquired", id));
        }
        fn lock_released(&self, id: u64) {
            self.ops.lock().unwrap().push(("released", id));
        }
        fn yield_point(&self, _label: &'static str) {
            self.ops.lock().unwrap().push(("yield", 0));
        }
    }

    #[test]
    fn observer_sees_lock_lifecycle() {
        let rec = Arc::new(Recorder::default());
        set_thread_observer(Some(rec.clone()));
        let m = Mutex::new(());
        drop(m.lock());
        yield_point("between");
        set_thread_observer(None);
        drop(m.lock()); // uninstrumented again: not recorded
        let ops = rec.ops.lock().unwrap().clone();
        let kinds: Vec<&str> = ops.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, ["attempt", "acquired", "released", "yield"]);
        let id = ops[0].1;
        assert_ne!(id, 0);
        assert!(ops[..3].iter().all(|&(_, i)| i == id));
    }
}
