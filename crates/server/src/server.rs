//! The fleet: N tenants behind one shared worker pool.
//!
//! Workers pull from the pre-generated arrival stream through a shared
//! atomic cursor — open-loop, so a slow or sick tenant cannot stall the
//! stream; its surplus arrivals shed at admission while the workers move
//! on to other tenants' traffic. All cross-thread state is atomics
//! (tenant counters, health latches, the cursor), so the same fleet
//! runs unchanged under real threads or the deterministic scheduler.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use crate::tenant::{Tenant, TenantConfig};
use crate::traffic::Request;

/// Fleet configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// One entry per tenant; tenant ids should be dense from zero.
    pub tenants: Vec<TenantConfig>,
    /// Shared worker-pool size.
    pub workers: usize,
}

impl ServerConfig {
    /// `n` default tenants served by `workers` workers.
    pub fn with_tenants(n: u32, workers: usize) -> ServerConfig {
        ServerConfig {
            tenants: (0..n).map(TenantConfig::new).collect(),
            workers: workers.max(1),
        }
    }
}

/// Aggregate result of one [`Server::run_timed`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunSummary {
    /// Requests admitted and run to a terminal outcome.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Wall-clock time from the workers' common start to the last one
    /// running out of stream; thread spawn and join are not timed.
    pub elapsed: Duration,
}

/// The multi-tenant serving fleet.
pub struct Server {
    tenants: Vec<Tenant>,
    workers: usize,
}

impl Server {
    /// Builds every tenant VM up front.
    pub fn new(cfg: ServerConfig) -> Server {
        Server {
            tenants: cfg.tenants.into_iter().map(Tenant::new).collect(),
            workers: cfg.workers.max(1),
        }
    }

    /// The fleet's tenants, id order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Tenant by id.
    pub fn tenant(&self, id: u32) -> &Tenant {
        self.tenants
            .iter()
            .find(|t| t.config().id == id)
            .expect("tenant id out of range")
    }

    /// Drives the arrival stream to completion over the worker pool.
    /// Returns the aggregate summary and the wall-clock latency of every
    /// served request in nanoseconds, grouped per tenant in
    /// [`Server::tenants`] order; shed requests are not timed. Which
    /// worker serves which request depends on the host's thread timing;
    /// deterministic harnesses drive [`Tenant::serve`] under their own
    /// scheduler instead.
    pub fn run_timed(&self, requests: &[Request]) -> (RunSummary, Vec<Vec<u64>>) {
        let cursor = AtomicUsize::new(0);
        let served = AtomicUsize::new(0);
        let shed = AtomicUsize::new(0);
        let slot_of = |id: u32| {
            self.tenants
                .iter()
                .position(|t| t.config().id == id)
                .expect("tenant id out of range")
        };
        let sink: Mutex<Vec<Vec<u64>>> = Mutex::new(vec![Vec::new(); self.tenants.len()]);
        // The workers meet at `ready` once spawned; the clock starts as
        // `go` releases them and stops at `done`, before the join, so the
        // elapsed time leaves out thread spawn and join. A worker that
        // panics still meets `done`, and the panic resurfaces after it.
        let [ready, go, done] = [(); 3].map(|()| Barrier::new(self.workers + 1));
        let mut elapsed = Duration::ZERO;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| {
                    let mut local: Vec<Vec<u64>> = vec![Vec::new(); self.tenants.len()];
                    ready.wait();
                    go.wait();
                    let drained = catch_unwind(AssertUnwindSafe(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else { break };
                        let t0 = Instant::now();
                        match self.tenant(req.tenant).serve(req) {
                            Ok(_) => {
                                served.fetch_add(1, Ordering::Relaxed);
                                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                                local[slot_of(req.tenant)].push(ns);
                            }
                            Err(_) => {
                                shed.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }));
                    done.wait();
                    if let Err(panic) = drained {
                        resume_unwind(panic);
                    }
                    let mut merged = sink.lock().unwrap();
                    for (dst, src) in merged.iter_mut().zip(local) {
                        dst.extend(src);
                    }
                });
            }
            ready.wait();
            let start = Instant::now();
            go.wait();
            done.wait();
            elapsed = start.elapsed();
        });
        let summary = RunSummary {
            served: served.load(Ordering::Relaxed) as u64,
            shed: shed.load(Ordering::Relaxed) as u64,
            elapsed,
        };
        (summary, sink.into_inner().unwrap())
    }

    /// Runs every tenant's quiescence oracle; empty = the whole fleet
    /// is sound.
    pub fn quiesce_all(&self) -> Vec<String> {
        self.tenants.iter().flat_map(Tenant::quiesce).collect()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.tenants.len())
            .field("workers", &self.workers)
            .finish()
    }
}
