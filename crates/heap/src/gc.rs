//! A background GC scanner thread.
//!
//! The scanner periodically walks every live object with untagged pointers
//! (marking) and then sweeps dead objects. It is the concurrent runtime
//! accessor from the paper's §3.3 challenge: if MTE checking were enabled
//! process-wide, this thread would fault on every object currently tagged
//! for a native-code borrower, even though its accesses are perfectly
//! in-bounds.
//!
//! With [`GcScannerConfig::compact`] set, each cycle runs the mark–compact
//! collector instead of the plain sweep — relocating unpinned live objects,
//! migrating tags, and reporting move totals — the way ART's
//! `HeapTaskDaemon` runs background compaction.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::Mutex;

use mte_sim::{MteThread, TagCheckFault, TcfMode};

use crate::heap::Heap;

pub use crate::heap::{GcStats, ScanOutcome};

/// Faults retained at each end of the bounded log.
const FAULT_SAMPLE: usize = 16;

/// Bounded fault history: the first and last [`FAULT_SAMPLE`] faults plus
/// a total counter. A long-running misconfigured scanner faults on every
/// tagged object every cycle; an unbounded `Vec` would grow forever.
#[derive(Default)]
struct FaultLog {
    first: Vec<TagCheckFault>,
    last: VecDeque<TagCheckFault>,
    total: u64,
}

impl FaultLog {
    fn push(&mut self, fault: TagCheckFault) {
        self.total += 1;
        if self.first.len() < FAULT_SAMPLE {
            self.first.push(fault);
        } else {
            if self.last.len() == FAULT_SAMPLE {
                self.last.pop_front();
            }
            self.last.push_back(fault);
        }
    }

    fn sample(&self) -> Vec<TagCheckFault> {
        self.first.iter().chain(self.last.iter()).cloned().collect()
    }
}

/// Configuration for a [`GcScanner`].
#[derive(Clone, Debug)]
pub struct GcScannerConfig {
    /// Pause between scan+sweep cycles.
    pub interval: Duration,
    /// The process-wide check mode the scanner inherits.
    pub mode: TcfMode,
    /// Whether the runtime sets `TCO` on this thread. MTE4JNI keeps it
    /// `true` (checks suppressed); setting `false` models the naive
    /// process-wide enablement that the paper shows is unworkable.
    pub tco: bool,
    /// Run the compacting collector each cycle instead of a plain sweep.
    pub compact: bool,
    /// Thread name (ART calls its GC thread `HeapTaskDaemon`).
    pub name: String,
}

impl Default for GcScannerConfig {
    fn default() -> Self {
        GcScannerConfig {
            interval: Duration::from_millis(1),
            mode: TcfMode::None,
            tco: true,
            compact: false,
            name: "HeapTaskDaemon".to_owned(),
        }
    }
}

/// A running background GC scanner. Stop it with [`GcScanner::stop`];
/// dropping it also stops it.
pub struct GcScanner {
    stop: Arc<AtomicBool>,
    cycles: Arc<AtomicU64>,
    faults: Arc<Mutex<FaultLog>>,
    scan_errors: Arc<AtomicU64>,
    compactions: Arc<AtomicU64>,
    moved_objects: Arc<AtomicU64>,
    moved_bytes: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl GcScanner {
    /// Spawns the scanner over `heap`.
    pub fn start(heap: &Heap, config: GcScannerConfig) -> GcScanner {
        let stop = Arc::new(AtomicBool::new(false));
        let cycles = Arc::new(AtomicU64::new(0));
        let faults: Arc<Mutex<FaultLog>> = Arc::new(Mutex::new(FaultLog::default()));
        let scan_errors = Arc::new(AtomicU64::new(0));
        let compactions = Arc::new(AtomicU64::new(0));
        let moved_objects = Arc::new(AtomicU64::new(0));
        let moved_bytes = Arc::new(AtomicU64::new(0));
        let heap = heap.clone();
        let handle = {
            let stop = Arc::clone(&stop);
            let cycles = Arc::clone(&cycles);
            let faults = Arc::clone(&faults);
            let scan_errors = Arc::clone(&scan_errors);
            let compactions = Arc::clone(&compactions);
            let moved_objects = Arc::clone(&moved_objects);
            let moved_bytes = Arc::clone(&moved_bytes);
            std::thread::Builder::new()
                .name(config.name.clone())
                .spawn(move || {
                    let mte = MteThread::new(config.name.as_str());
                    mte.set_mode(config.mode);
                    mte.set_tco(config.tco);
                    while !stop.load(Ordering::Relaxed) {
                        let outcome = heap.scan_live(&mte);
                        telemetry::record(telemetry::Event::GcScan);
                        if !outcome.faults.is_empty() {
                            let mut log = faults.lock();
                            for fault in outcome.faults {
                                log.push(fault);
                            }
                        }
                        scan_errors.fetch_add(outcome.errors.len() as u64, Ordering::Relaxed);
                        if config.compact {
                            let cs = heap.compact();
                            compactions.fetch_add(1, Ordering::Relaxed);
                            moved_objects.fetch_add(cs.moved_objects as u64, Ordering::Relaxed);
                            moved_bytes.fetch_add(cs.moved_bytes as u64, Ordering::Relaxed);
                        } else {
                            heap.sweep();
                        }
                        cycles.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(config.interval);
                    }
                })
                .expect("spawning the GC scanner thread")
        };
        GcScanner {
            stop,
            cycles,
            faults,
            scan_errors,
            compactions,
            moved_objects,
            moved_bytes,
            handle: Some(handle),
        }
    }

    /// Completed scan+sweep cycles so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.load(Ordering::Relaxed)
    }

    /// Total tag-check faults the scanner has hit so far (the retained
    /// sample is bounded; this counter is not).
    pub fn fault_count(&self) -> u64 {
        self.faults.lock().total
    }

    /// Stops the scanner and returns its report.
    pub fn stop(mut self) -> GcReport {
        self.shutdown()
    }

    fn shutdown(&mut self) -> GcReport {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let log = self.faults.lock();
        GcReport {
            cycles: self.cycles.load(Ordering::Relaxed),
            faults: log.sample(),
            fault_count: log.total,
            scan_errors: self.scan_errors.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            moved_objects: self.moved_objects.load(Ordering::Relaxed),
            moved_bytes: self.moved_bytes.load(Ordering::Relaxed),
        }
    }
}

impl Drop for GcScanner {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.shutdown();
        }
    }
}

impl fmt::Debug for GcScanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GcScanner")
            .field("cycles", &self.cycles())
            .field("faults", &self.fault_count())
            .finish()
    }
}

/// Final report from a stopped [`GcScanner`].
#[derive(Clone, Debug, Default)]
pub struct GcReport {
    /// Scan+sweep cycles completed.
    pub cycles: u64,
    /// Bounded fault sample: the first and last `FAULT_SAMPLE`
    /// tag-check faults encountered.
    pub faults: Vec<TagCheckFault>,
    /// Total tag-check faults encountered (≥ `faults.len()`).
    pub fault_count: u64,
    /// Non-tag-check scan errors encountered.
    pub scan_errors: u64,
    /// Compaction passes run (compact mode only).
    pub compactions: u64,
    /// Objects relocated by those passes.
    pub moved_objects: u64,
    /// Block bytes relocated by those passes.
    pub moved_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use mte_sim::{Tag, TaggedPtr};

    #[test]
    fn scanner_collects_garbage_in_background() {
        let heap = Heap::new(HeapConfig::default());
        let scanner = GcScanner::start(&heap, GcScannerConfig::default());
        for _ in 0..50 {
            let _garbage = heap.alloc_int_array(32).unwrap();
        }
        // Wait for at least one full cycle after the garbage was created.
        let target = scanner.cycles() + 2;
        while scanner.cycles() < target {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(heap.live_count(), 0);
        let report = scanner.stop();
        assert!(report.cycles >= 2);
        assert!(report.faults.is_empty(), "TCO-respecting scanner never faults");
        assert_eq!(report.fault_count, 0);
        assert_eq!(report.scan_errors, 0);
    }

    #[test]
    fn naive_process_wide_mte_makes_the_scanner_fault() {
        let heap = Heap::new(HeapConfig::default());
        // A native borrower tagged this object (simulated directly here).
        let a = heap.alloc_int_array(64).unwrap();
        let tag = Tag::new(0xB).unwrap();
        heap.memory()
            .set_tag_range(
                TaggedPtr::from_addr(a.addr()),
                a.data_addr() + a.byte_len() as u64,
                tag,
            )
            .unwrap();
        let scanner = GcScanner::start(
            &heap,
            GcScannerConfig {
                mode: TcfMode::Sync,
                tco: false, // the naive configuration
                interval: Duration::from_micros(100),
                ..GcScannerConfig::default()
            },
        );
        while scanner.cycles() < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = scanner.stop();
        assert!(
            !report.faults.is_empty(),
            "in-bounds GC reads fault when checking is process wide"
        );
        assert!(report.fault_count >= report.faults.len() as u64);
        drop(a);
    }

    #[test]
    fn fault_log_is_bounded_but_counts_everything() {
        let template = sample_fault();
        let mut log = FaultLog::default();
        for i in 0..1000u64 {
            log.push(TagCheckFault {
                pointer: TaggedPtr::from_addr(0x7a00_0000_0000 + i * 16),
                ..template.clone()
            });
        }
        assert_eq!(log.total, 1000);
        let sample = log.sample();
        assert_eq!(sample.len(), 2 * FAULT_SAMPLE, "first 16 + last 16");
        assert_eq!(
            sample[0].pointer.addr(),
            0x7a00_0000_0000,
            "oldest fault retained"
        );
        assert_eq!(
            sample.last().unwrap().pointer.addr(),
            0x7a00_0000_0000 + 999 * 16,
            "newest fault retained"
        );
    }

    fn sample_fault() -> TagCheckFault {
        let heap = Heap::new(HeapConfig::default());
        let a = heap.alloc_int_array(4).unwrap();
        heap.memory()
            .set_tag_range(
                TaggedPtr::from_addr(a.addr()),
                a.data_addr() + a.byte_len() as u64,
                Tag::new(0x3).unwrap(),
            )
            .unwrap();
        let mte = MteThread::new("fault-sampler");
        mte.set_mode(TcfMode::Sync);
        mte.set_tco(false);
        let outcome = heap.scan_live(&mte);
        outcome.faults.into_iter().next().expect("tagged scan faults")
    }

    #[test]
    fn compacting_scanner_defragments_without_faulting() {
        let heap = Heap::new(HeapConfig::default());
        let mut survivors = Vec::new();
        for i in 0..16i32 {
            let _garbage = heap.alloc_int_array(32).unwrap();
            survivors.push(heap.alloc_int_array_from(&[i; 8]).unwrap());
        }
        let scanner = GcScanner::start(
            &heap,
            GcScannerConfig {
                compact: true,
                ..GcScannerConfig::default()
            },
        );
        let target = scanner.cycles() + 3;
        while scanner.cycles() < target {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = scanner.stop();
        assert!(report.compactions >= 3);
        assert!(report.moved_objects >= 1, "survivors slid into the gaps");
        assert!(report.moved_bytes >= 48);
        assert!(report.faults.is_empty(), "compaction is tag-safe");
        let t = crate::thread::JavaThread::new("main");
        for (i, s) in survivors.iter().enumerate() {
            assert_eq!(
                heap.int_array_as_vec(&t, s).unwrap(),
                vec![i as i32; 8],
                "payloads survive background compaction"
            );
        }
        assert_eq!(heap.stats().compactions, report.compactions);
    }

    #[test]
    fn dropping_scanner_stops_it() {
        let heap = Heap::new(HeapConfig::default());
        let scanner = GcScanner::start(&heap, GcScannerConfig::default());
        drop(scanner); // must not hang or panic
    }
}
