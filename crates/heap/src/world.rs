//! The stop-the-world gate used by the compacting collector.
//!
//! A tiny reader–writer gate with *recursive-read* semantics: a new
//! shared hold is granted even while an exclusive request is queued.
//! That property is load-bearing — a payload accessor can nest inside
//! another gated section on the same thread (e.g. guarded-copy's
//! `on_acquire` calling `Heap::read_payload` under the acquire-side
//! hold), and a queued collector must not deadlock that thread against
//! itself. Exclusive holds are short (one compaction pass), so writer
//! starvation is not a practical concern.
//!
//! Cost model: a shared hold is two short mutex critical sections (take
//! and release) and no syscall. Only a release that leaves no readers
//! *and* finds a writer waiting notifies the condvar (std's futex
//! condvar enters the kernel on every notify, waiter or not). No wakeup
//! is lost: `writers_waiting` is only read and written under the mutex
//! the writer checks its condition under, and the writer counts itself
//! before it first checks for readers. So the release that drops
//! `readers` to zero either sees the writer counted and notifies, or
//! runs before the writer's check, and the writer never sleeps.

use std::sync::{Condvar, Mutex, PoisonError};

#[derive(Default)]
struct State {
    readers: usize,
    writer: bool,
    /// Exclusive requests blocked in [`WorldGate::write`]: the only
    /// waiters a shared release can unblock.
    writers_waiting: usize,
}

/// The gate. Shared holds = mutator payload accesses and pins;
/// the exclusive hold = a compaction pass.
#[derive(Default)]
pub(crate) struct WorldGate {
    state: Mutex<State>,
    cond: Condvar,
}

impl WorldGate {
    /// Acquires a shared hold; blocks only while an exclusive hold is
    /// *active* (never for a merely queued one).
    pub(crate) fn read_recursive(&self) -> ReadGuard<'_> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while state.writer {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.readers += 1;
        ReadGuard { gate: self }
    }

    /// Acquires the exclusive hold, blocking until every shared hold is
    /// released.
    pub(crate) fn write(&self) -> WriteGuard<'_> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.writers_waiting += 1;
        while state.readers > 0 || state.writer {
            state = self
                .cond
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.writers_waiting -= 1;
        state.writer = true;
        WriteGuard { gate: self }
    }
}

/// A shared hold on the [`WorldGate`]. Dropping it takes the mutex
/// once; it notifies only when it was the last shared hold and a writer
/// is waiting.
pub(crate) struct ReadGuard<'a> {
    gate: &'a WorldGate,
}

impl Drop for ReadGuard<'_> {
    fn drop(&mut self) {
        let mut state = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.readers -= 1;
        if state.readers == 0 && state.writers_waiting > 0 {
            self.gate.cond.notify_all();
        }
    }
}

/// The exclusive hold on the [`WorldGate`]. Dropping it always notifies:
/// readers blocked behind it and a second queued writer both wait on
/// the one condvar.
pub(crate) struct WriteGuard<'a> {
    gate: &'a WorldGate,
}

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        let mut state = self
            .gate
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.writer = false;
        self.gate.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GcScanner, GcScannerConfig, Heap, HeapConfig, ObjectRef};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    fn writers_waiting(gate: &WorldGate) -> usize {
        gate.state.lock().unwrap().writers_waiting
    }

    #[test]
    fn reads_nest_on_one_thread() {
        let gate = WorldGate::default();
        let a = gate.read_recursive();
        let b = gate.read_recursive(); // must not deadlock
        drop(a);
        drop(b);
        let _w = gate.write(); // fully released: writer proceeds
    }

    #[test]
    fn writer_waits_for_readers_and_excludes_them() {
        let gate = Arc::new(WorldGate::default());
        let read = gate.read_recursive();
        let (tx, rx) = std::sync::mpsc::channel();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let w = gate.write();
                tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                drop(w);
            })
        };
        // The writer cannot start while the read hold is live.
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        drop(read);
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
        // And once it runs, a new reader waits for it to finish.
        let _read = gate.read_recursive();
        writer.join().unwrap();
    }

    #[test]
    fn queued_writer_does_not_block_new_readers() {
        let gate = Arc::new(WorldGate::default());
        let outer = gate.read_recursive();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _w = gate.write();
            })
        };
        // Give the writer time to queue up behind `outer`.
        std::thread::sleep(Duration::from_millis(20));
        // Recursive shared acquisition must still succeed immediately.
        let inner = gate.read_recursive();
        drop(inner);
        drop(outer);
        writer.join().unwrap();
    }

    #[test]
    fn queued_writer_wakes_when_the_last_other_thread_releases() {
        let gate = Arc::new(WorldGate::default());
        // Two reader threads, each holding until told to release.
        let (held_tx, held_rx) = channel();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let held = held_tx.clone();
                let (release_tx, release_rx) = channel::<()>();
                let handle = std::thread::spawn(move || {
                    let hold = gate.read_recursive();
                    held.send(()).unwrap();
                    release_rx.recv().unwrap();
                    drop(hold);
                });
                (release_tx, handle)
            })
            .collect();
        for _ in 0..2 {
            held_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        let (done_tx, done_rx) = channel();
        let writer = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _w = gate.write();
                done_tx.send(()).unwrap();
            })
        };
        // Wait until the writer has counted itself, so the releases
        // below are the ones that must wake it.
        while writers_waiting(&gate) == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut readers = readers.into_iter();
        let (first, first_handle) = readers.next().unwrap();
        first.send(()).unwrap();
        first_handle.join().unwrap();
        assert!(
            done_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "one shared hold is still live"
        );
        let (last, last_handle) = readers.next().unwrap();
        last.send(()).unwrap();
        last_handle.join().unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the last shared release wakes the queued writer");
        writer.join().unwrap();
        assert_eq!(writers_waiting(&gate), 0);
    }

    #[test]
    fn mutators_and_a_compacting_collector_never_lose_a_wakeup() {
        // The scenario runs on its own thread so that a lost wakeup —
        // which leaves the collector, and hence `GcScanner::stop`,
        // blocked forever — fails the test at the timeout instead of
        // hanging it.
        let (done_tx, done_rx) = channel();
        let scenario = std::thread::spawn(move || {
            mutate_under_compaction();
            done_tx.send(()).unwrap();
        });
        match done_rx.recv_timeout(Duration::from_secs(30)) {
            Ok(()) => scenario.join().unwrap(),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(scenario.join().unwrap_err())
            }
            Err(RecvTimeoutError::Timeout) => {
                panic!("a mutator or the collector stalled on the world gate")
            }
        }
    }

    /// Two mutators pin/unpin, allocate and copy payloads out while a
    /// compacting collector takes the exclusive hold between them.
    fn mutate_under_compaction() {
        const COMPACTIONS: u64 = 20;
        let heap = Heap::new(HeapConfig::default());
        let scanner = GcScanner::start(
            &heap,
            GcScannerConfig {
                interval: Duration::from_micros(50),
                compact: true,
                ..GcScannerConfig::default()
            },
        );
        let stop = Arc::new(AtomicBool::new(false));
        let mutators: Vec<_> = (0..2u8)
            .map(|m| {
                let heap = heap.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let payload = |i: u32| -> Vec<u8> {
                        [i32::from(m) << 24 | i as i32; 6]
                            .iter()
                            .flat_map(|v| v.to_le_bytes())
                            .collect()
                    };
                    // Garbage between the survivors gives compaction
                    // something to slide them over.
                    let survivors: Vec<_> = (0..8u32)
                        .map(|i| {
                            let _garbage = heap.alloc_int_array(24).unwrap();
                            let a = heap.alloc_int_array(6).unwrap();
                            heap.write_payload(a.as_object(), &payload(i)).unwrap();
                            ObjectRef::from(a)
                        })
                        .collect();
                    let mut buf = vec![0u8; 24];
                    let mut iterations = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let i = (iterations % 8) as u32;
                        let obj = &survivors[i as usize];
                        let pin = heap.pin(obj);
                        let pinned_at = obj.addr();
                        for _ in 0..4 {
                            let _garbage = heap.alloc_int_array(8).unwrap();
                            heap.read_payload(obj, &mut buf).unwrap();
                            assert_eq!(buf, payload(i), "payload intact");
                            assert_eq!(obj.addr(), pinned_at, "a pinned object never moves");
                        }
                        drop(pin);
                        assert!(!heap.is_pinned(obj));
                        // Unpinned survivors may move; their payloads follow.
                        let j = ((iterations + 3) % 8) as u32;
                        heap.read_payload(&survivors[j as usize], &mut buf).unwrap();
                        assert_eq!(buf, payload(j), "payload survives a slide");
                        iterations += 1;
                    }
                    iterations
                })
            })
            .collect();
        while scanner.cycles() < COMPACTIONS {
            std::thread::sleep(Duration::from_millis(1));
        }
        stop.store(true, Ordering::Relaxed);
        for m in mutators {
            assert!(m.join().unwrap() > 0);
        }
        let report = scanner.stop();
        assert!(report.compactions >= COMPACTIONS);
        assert!(report.faults.is_empty());
        assert!(
            report.moved_objects > 0,
            "survivors slid past the pinned ones"
        );
        assert_eq!(heap.pinned_count(), 0);
    }
}
