//! How every figure is timed: [`Rounds`].
//!
//! A table row compares a few *rows* (schemes, backends, kernels) against
//! its first, the baseline. `Rounds` builds every row before any clock is
//! read, then runs one warm-up pass and `repeats` rounds, each visiting
//! every row once in order, so a host phase change lands on all rows of
//! a round alike. Each row's pass returns its own sample: most time their
//! kernel with [`timed`] or [`crew`], and a row that must rebuild state
//! per pass (a fresh serving fleet) does so before its own clock read.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The round-robin timing harness.
#[derive(Clone, Copy, Debug)]
pub struct Rounds {
    repeats: u32,
}

impl Rounds {
    /// A harness that takes `repeats` samples of every row (at least one).
    pub fn new(repeats: u32) -> Rounds {
        Rounds {
            repeats: repeats.max(1),
        }
    }

    /// Builds one row per spec with `build` (its VM, data and threads'
    /// state: none of it is timed), then runs one warm-up pass of every
    /// row and `repeats` rounds, each visiting the rows once in spec
    /// order. Returns each row's samples, in round order. The rows drop
    /// before this returns, so only one table row's state is alive at
    /// once when callers run their table rows one after another.
    pub fn run<T, R, S>(&self, specs: impl IntoIterator<Item = T>, build: impl FnMut(T) -> R) -> Vec<Series<S>>
    where
        R: FnMut() -> S,
    {
        let mut rows: Vec<R> = specs.into_iter().map(build).collect();
        for row in &mut rows {
            row();
        }
        let mut series: Vec<Vec<S>> = rows
            .iter()
            .map(|_| Vec::with_capacity(self.repeats as usize))
            .collect();
        for _ in 0..self.repeats {
            for (row, samples) in rows.iter_mut().zip(&mut series) {
                samples.push(row());
            }
        }
        series.into_iter().map(Series).collect()
    }
}

/// Times one single-thread pass.
pub fn timed(pass: impl FnOnce()) -> Duration {
    let start = Instant::now();
    pass();
    start.elapsed()
}

/// Releases a [`crew`] worker into its timed pass.
pub struct Start<'a> {
    ready: &'a Barrier,
    go: &'a Barrier,
    waited: Cell<bool>,
}

impl Start<'_> {
    /// Signals that this worker's setup (attach, environment) is done
    /// and waits for the clock to start. Later calls return at once.
    pub fn wait(&self) {
        if !self.waited.replace(true) {
            self.ready.wait();
            self.go.wait();
        }
    }
}

/// Times one pass of `threads` worker threads. Each runs `worker(i,
/// start)`, doing its untimed setup before `start.wait()` and its timed
/// work after. The clock is read once every worker is set up and before
/// the start barrier releases them (on an oversubscribed host the timing
/// thread may not run again until the workers are done), and stops when
/// the last one finishes. Workers are joined before this returns, so
/// their per-thread state is gone before the next row's crew starts.
///
/// # Panics
///
/// Re-raises a worker's panic once every worker has finished.
pub fn crew(threads: usize, worker: impl Fn(usize, &Start<'_>) + Sync) -> Duration {
    let [ready, go, done] = [(); 3].map(|()| Barrier::new(threads + 1));
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (ready, go, done, worker) = (&ready, &go, &done, &worker);
                s.spawn(move || {
                    let start = Start { ready, go, waited: Cell::new(false) };
                    let result = catch_unwind(AssertUnwindSafe(|| worker(i, &start)));
                    // A worker that failed before its start still meets
                    // every barrier, so the pass ends and the panic surfaces.
                    start.wait();
                    done.wait();
                    if let Err(panic) = result {
                        resume_unwind(panic);
                    }
                })
            })
            .collect();
        ready.wait();
        let clock = Instant::now();
        go.wait();
        done.wait();
        let elapsed = clock.elapsed();
        for handle in handles {
            if let Err(panic) = handle.join() {
                resume_unwind(panic);
            }
        }
        elapsed
    })
}

/// One row's samples, in round order.
#[derive(Clone, Debug)]
pub struct Series<S>(Vec<S>);

impl<S> Series<S> {
    /// The samples, in round order.
    pub fn samples(&self) -> &[S] {
        &self.0
    }

    /// The series of one part of each sample.
    pub fn map<T>(&self, f: impl FnMut(&S) -> T) -> Series<T> {
        Series(self.0.iter().map(f).collect())
    }
}

impl<S: Copy + PartialOrd> Series<S> {
    fn sorted(&self) -> Vec<S> {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are ordered"));
        v
    }

    /// The median sample (the upper one of an even count).
    pub fn median(&self) -> S {
        let v = self.sorted();
        v[v.len() / 2]
    }

    /// The smallest sample.
    pub fn min(&self) -> S {
        self.sorted()[0]
    }

    /// The largest sample.
    pub fn max(&self) -> S {
        *self.sorted().last().expect("a series has at least one sample")
    }
}

impl Series<Duration> {
    /// The median over rounds of this row's time divided by
    /// `baseline`'s time in the same round.
    pub fn median_ratio(&self, baseline: &Series<Duration>) -> f64 {
        let ratios = self.0.iter().zip(&baseline.0);
        Series(ratios.map(|(s, b)| s.as_secs_f64() / b.as_secs_f64().max(f64::EPSILON)).collect())
            .median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn every_round_visits_every_row_once_in_order() {
        let log = RefCell::new(Vec::new());
        let series = Rounds::new(3).run(0..4, |row| {
            let log = &log;
            move || log.borrow_mut().push(row)
        });
        let one_pass: Vec<i32> = (0..4).collect();
        assert_eq!(*log.borrow(), one_pass.repeat(1 + 3), "warm-up, then three rounds");
        assert!(series.iter().all(|s| s.samples().len() == 3), "the warm-up is not a sample");
    }

    #[test]
    fn each_row_runs_one_warm_up_plus_repeats_passes() {
        for repeats in [1, 2, 5] {
            let passes = Rounds::new(repeats).run(0..3, |_| {
                let mut n = 0.0;
                move || {
                    n += 1.0;
                    n
                }
            });
            for s in passes {
                assert_eq!(s.max(), f64::from(1 + repeats));
            }
        }
    }

    #[test]
    fn setup_is_not_in_any_sample() {
        let sleep = Duration::from_millis(50);
        let series = Rounds::new(2).run([sleep, Duration::ZERO], |setup| {
            std::thread::sleep(setup);
            || timed(|| {})
        });
        for s in &series {
            assert!(s.max() < sleep / 5, "{:?}", s.samples());
        }
        let crewed = Rounds::new(2).run([sleep], |setup| {
            move || {
                crew(2, |_, start| {
                    std::thread::sleep(setup);
                    start.wait();
                })
            }
        });
        assert!(crewed[0].max() < sleep / 5, "{:?}", crewed[0].samples());
    }

    #[test]
    fn statistics_on_known_samples() {
        let ms = Duration::from_millis;
        let base = vec![ms(20), ms(10), ms(10), ms(10), ms(10)];
        let row = vec![ms(40), ms(10), ms(30), ms(20), ms(50)];
        let series = Rounds::new(5).run([base, row], |samples| {
            // The warm-up pass's sample is dropped.
            let mut passes = std::iter::once(Duration::ZERO).chain(samples);
            move || passes.next().expect("one warm-up and five rounds")
        });
        let (base, row) = (&series[0], &series[1]);
        assert_eq!((row.median(), row.min(), row.max()), (ms(30), ms(10), ms(50)));
        // Per-round ratios 2, 1, 3, 2, 5: median 2, where the ratio of
        // the medians would read 30 / 10 = 3.
        assert_eq!(row.median_ratio(base), 2.0);
        assert_eq!(Series(vec![4.0, 1.0]).median(), 4.0, "upper median of an even count");
    }

    #[test]
    fn a_crew_worker_panic_surfaces_after_the_pass() {
        let caught = catch_unwind(|| {
            crew(3, |i, start| {
                assert_ne!(i, 1, "planted worker failure");
                start.wait();
            })
        });
        assert!(caught.is_err());
    }
}
