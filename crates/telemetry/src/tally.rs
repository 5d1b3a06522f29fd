//! Exact counters whose bump is not a locked instruction: [`Tally`].

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Rows per tally: the number of threads that can count without a
/// locked instruction at once.
const ROWS: usize = 64;

/// Row index of the shared overflow row.
const SHARED: usize = ROWS;

/// The calling thread has not claimed a row yet.
const UNCLAIMED: usize = usize::MAX;

/// One thread's counters, alone on its cache line(s).
#[repr(align(64))]
struct Row<const N: usize>([AtomicU64; N]);

/// Row indices handed out so far and those returned by exited threads.
struct Rows {
    next: usize,
    free: Vec<usize>,
}

static ROW_INDICES: Mutex<Rows> = Mutex::new(Rows {
    next: 0,
    free: Vec::new(),
});

/// The calling thread's row index; returns it to the free list when the
/// thread exits.
struct Claim(Cell<usize>);

impl Drop for Claim {
    fn drop(&mut self) {
        let row = self.0.get();
        if row < ROWS {
            ROW_INDICES
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .free
                .push(row);
        }
    }
}

thread_local! {
    static CLAIM: Claim = const { Claim(Cell::new(UNCLAIMED)) };
}

fn claim_row() -> usize {
    let mut rows = ROW_INDICES.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(row) = rows.free.pop() {
        row
    } else if rows.next < ROWS {
        rows.next += 1;
        rows.next - 1
    } else {
        SHARED
    }
}

/// The row the calling thread bumps: its own, or the shared row.
#[inline]
fn my_row() -> usize {
    CLAIM
        .try_with(|claim| match claim.0.get() {
            UNCLAIMED => {
                let row = claim_row();
                claim.0.set(row);
                row
            }
            row => row,
        })
        .unwrap_or(SHARED)
}

/// `N` exact counters bumped without a locked instruction. Owners name
/// the indices `0..N`.
///
/// A tally keeps `N` counters in 64 cache-line-aligned
/// rows. Each thread claims one row index on its first bump — the same
/// index in every tally of the process — and returns it when it exits.
/// While a thread owns an index it is the only writer of that row in
/// every tally, so a bump is a relaxed load and a relaxed store to a
/// cache line no other thread writes: no `lock`-prefixed
/// read-modify-write and no line bouncing between cores. A read sums
/// the rows.
///
/// Indices are recycled through a mutex-guarded free list. The exiting
/// owner pushes its index under the mutex and the next owner pops it
/// under the same mutex, so the next owner's first load of the row
/// happens after the last owner's final store and no count is lost.
///
/// A thread that finds all 64 indices taken, or one that bumps from
/// a thread-local destructor after its own index was returned, counts
/// in a shared overflow row with `fetch_add`: slower, still exact.
///
/// Use a tally for a *pure statistic* — a value only stats, snapshots
/// and oracles read. A read-modify-write whose result decides something
/// (a reference count, a sequence number, an allocator's `in_use`)
/// stays an atomic: a tally read is a sum, not a synchronization point.
///
/// # Example
///
/// ```
/// use telemetry::Tally;
///
/// const HITS: usize = 0;
/// const BYTES: usize = 1;
/// let tally = Tally::<2>::new();
/// tally.bump(HITS);
/// tally.add(BYTES, 4096);
/// std::thread::scope(|s| {
///     s.spawn(|| tally.bump(HITS));
/// });
/// assert_eq!((tally.get(HITS), tally.get(BYTES)), (2, 4096));
/// ```
pub struct Tally<const N: usize> {
    /// `ROWS` per-thread rows, then the shared overflow row.
    rows: Box<[Row<N>]>,
}

impl<const N: usize> Tally<N> {
    /// A tally with every counter at zero.
    pub fn new() -> Tally<N> {
        Tally {
            rows: (0..=ROWS)
                .map(|_| Row(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    /// Adds `n` to counter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    #[inline]
    pub fn add(&self, i: usize, n: u64) {
        let row = my_row();
        let cell = &self.rows[row].0[i];
        if row == SHARED {
            cell.fetch_add(n, Ordering::Relaxed);
        } else {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(n),
                Ordering::Relaxed,
            );
        }
    }

    /// Adds one to counter `i`.
    #[inline]
    pub fn bump(&self, i: usize) {
        self.add(i, 1);
    }

    /// Subtracts `n` from counter `i`. Rows wrap, so a `sub` on one
    /// thread cancels an `add` on another in the sum.
    #[inline]
    pub fn sub(&self, i: usize, n: u64) {
        self.add(i, n.wrapping_neg());
    }

    /// Counter `i`: the sum over every row. Exact once the bumps it
    /// should include happen-before the read (a join, a lock hand-off);
    /// a read racing bumps sees some of them.
    pub fn get(&self, i: usize) -> u64 {
        self.rows.iter().fold(0, |sum, row| {
            sum.wrapping_add(row.0[i].load(Ordering::Relaxed))
        })
    }
}

impl<const N: usize> Default for Tally<N> {
    fn default() -> Self {
        Tally::new()
    }
}

impl<const N: usize> fmt::Debug for Tally<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries((0..N).map(|i| self.get(i))).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUMPS: u64 = 100_000;

    #[test]
    fn more_threads_than_rows_count_exactly() {
        // All threads alive at once: the surplus eight find every row
        // taken and count through the shared row.
        let tally = Tally::<2>::new();
        let threads = ROWS + 8;
        let start = std::sync::Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..BUMPS {
                        tally.bump(0);
                        tally.add(1, 3);
                    }
                    start.wait();
                });
            }
        });
        assert_eq!(tally.get(0), threads as u64 * BUMPS);
        assert_eq!(tally.get(1), 3 * threads as u64 * BUMPS);
    }

    #[test]
    fn a_reused_row_keeps_its_last_owners_counts() {
        let tally = std::sync::Arc::new(Tally::<1>::new());
        for round in 1..=4u64 {
            // One thread at a time, joined — which waits out its
            // thread-local destructors — so its row is back on the free
            // list before the next thread claims one.
            let t = std::sync::Arc::clone(&tally);
            std::thread::spawn(move || {
                for _ in 0..BUMPS {
                    t.bump(0);
                }
            })
            .join()
            .unwrap();
            assert_eq!(tally.get(0), round * BUMPS);
        }
    }

    #[test]
    fn add_and_sub_on_different_threads_cancel() {
        let tally = Tally::<1>::new();
        std::thread::scope(|s| {
            s.spawn(|| tally.add(0, 7));
        });
        std::thread::scope(|s| {
            s.spawn(|| tally.sub(0, 7));
        });
        assert_eq!(tally.get(0), 0);
        tally.add(0, 5);
        std::thread::scope(|s| {
            s.spawn(|| tally.sub(0, 2));
        });
        assert_eq!(tally.get(0), 3);
    }
}
