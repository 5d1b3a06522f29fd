//! One tenant: its own VM, protection scheme, health latch, admission
//! state, and counters — the fault-isolation unit of the fleet.
//!
//! A tenant VM is built by [`Backend::build_vm`], exactly like the
//! containment stress VMs: an MTE4JNI primary over the chosen table
//! backend with a guarded-copy quarantine fallback under
//! [`jni_rt::FaultPolicy::Contain`] (or guarded copy as the primary for
//! the ablation tenant). Everything a request does happens on this
//! tenant's own simulated memory, heap, and tag table, so a neighbor's
//! faults cannot reach it by construction — what the
//! serving layer adds is *resource* isolation (bounded queue, memory
//! budget, shared-pool shedding) and the health machinery that turns
//! containment telemetry into admission decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jni_rt::{ContainmentStats, JniEnv, JniError, NativeKind, ReleaseMode, Vm};
use mte4jni::Mte4Jni;
use mte_sim::inject::{self, FaultPlan, InjectCounters};
use mte_sim::sync::yield_point;
use mte_sim::{MemError, MemoryConfig};
use telemetry::{HistKey, HistSlot, HistogramSummary, LatencyOp, SizeClass, Snapshot};
use workloads::{Backend, VmSchemes};

use crate::admission::{Admission, Rejected};
use crate::health::{Health, HealthTracker};
use crate::traffic::{mix, Request, RequestKind};

/// Base address of tenant 0's simulated memory; each tenant's arena is
/// `TENANT_STRIDE` above its predecessor so addresses in tombstones and
/// logs identify the tenant at a glance.
pub const TENANT_BASE: u64 = 0x7a00_0000_0000;
/// Address stride between tenant arenas.
pub const TENANT_STRIDE: u64 = 0x1_0000_0000;
/// Simulated-memory arena size of every tenant.
const TENANT_HEAP_BYTES: usize = 1 << 22;
/// Request-level retries on transient errors, with deterministic
/// backoff between attempts.
const REQUEST_RETRIES: u32 = 4;
/// A tenant sweeps its heap every this many admitted requests.
const SWEEP_EVERY: u64 = 64;

/// Per-tenant build and admission knobs.
#[derive(Clone, Copy, Debug)]
pub struct TenantConfig {
    /// Tenant index within the fleet.
    pub id: u32,
    /// Protection backend.
    pub scheme: Backend,
    /// Bounded in-flight queue capacity.
    pub queue_capacity: usize,
    /// Native-memory budget (`usize::MAX` = unlimited).
    pub budget_bytes: usize,
    /// Fault injection armed for this tenant's requests (the noisy
    /// neighbor); `None` for clean tenants.
    pub fault_plan: Option<FaultPlan>,
}

impl TenantConfig {
    /// Defaults for tenant `id`.
    pub fn new(id: u32) -> TenantConfig {
        TenantConfig {
            id,
            scheme: Backend::LockFree,
            queue_capacity: 8,
            budget_bytes: usize::MAX,
            fault_plan: None,
        }
    }
}

/// How an admitted request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// Ran to completion normally.
    Completed,
    /// A tag-check fault was contained at the trampoline; the VM
    /// survived and reclaimed the frame's borrows.
    Contained,
    /// The guarded-copy scheme detected corruption at release
    /// (CheckJNI abort) — graceful degradation's detection path.
    Detected,
    /// Gave up after the transient-retry budget.
    Failed,
}

/// One tenant's counters and request latency. All counts are cumulative
/// over the tenant's lifetime.
#[derive(Clone, Debug, Default)]
pub struct TenantStats {
    /// Tenant index within the fleet.
    pub tenant: u32,
    /// Protection-scheme label (`"lock-free"`, `"guarded"`, …).
    pub scheme: String,
    /// Health-state label at snapshot time (`"healthy"`, `"degraded"`,
    /// `"quarantined"`, `"evicted"`).
    pub health: String,
    /// Requests past admission control.
    pub admitted: u64,
    /// Admitted requests that ran to completion.
    pub completed: u64,
    /// Requests shed because the per-tenant queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because the native-memory budget was exhausted.
    pub shed_budget: u64,
    /// Requests shed because the tenant was quarantined or evicted.
    pub shed_quarantined: u64,
    /// Tag-check faults contained by the tenant's trampolines.
    pub contained_faults: u64,
    /// Single-acquire degradations after `TagExhausted`.
    pub degraded_exhaust: u64,
    /// Acquires routed to the fallback by method quarantine.
    pub degraded_quarantine: u64,
    /// Transient-error retries spent across all requests.
    pub retries: u64,
    /// The tenant's request-latency histogram; `None` until a request
    /// is timed with recording on.
    pub latency: Option<HistogramSummary>,
}

#[derive(Debug, Default)]
struct Counters {
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_queue: AtomicU64,
    shed_budget: AtomicU64,
    shed_quarantined: AtomicU64,
    retries: AtomicU64,
    replay_violations: AtomicU64,
}

/// One tenant of the fleet.
pub struct Tenant {
    cfg: TenantConfig,
    vm: Vm,
    schemes: VmSchemes,
    health: HealthTracker,
    admission: Admission,
    counters: Counters,
    inject_counters: Arc<InjectCounters>,
    request_latency: HistSlot,
}

impl Tenant {
    /// Builds the tenant VM for `cfg` by [`Backend::build_vm`] over the
    /// tenant's own arena: the containment stress VM, or for guarded
    /// tenants the guarded stress VM.
    pub fn new(cfg: TenantConfig) -> Tenant {
        let (vm, schemes) = cfg.scheme.build_vm(MemoryConfig {
            base: TENANT_BASE + u64::from(cfg.id) * TENANT_STRIDE,
            size: TENANT_HEAP_BYTES,
        });
        Tenant {
            admission: Admission::new(cfg.queue_capacity, cfg.budget_bytes),
            health: HealthTracker::default(),
            counters: Counters::default(),
            inject_counters: Arc::new(InjectCounters::default()),
            request_latency: HistSlot::default(),
            cfg,
            vm,
            schemes,
        }
    }

    /// The tenant's configuration.
    pub fn config(&self) -> &TenantConfig {
        &self.cfg
    }

    /// The tenant VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// The MTE4JNI scheme, for oracle introspection (`None` for
    /// guarded-copy tenants).
    pub fn scheme(&self) -> Option<&Mte4Jni> {
        self.schemes.mte.as_deref()
    }

    /// Health after folding in the latest containment counters.
    pub fn health(&self) -> Health {
        self.health.observe(&self.vm.containment_stats())
    }

    /// The VM's containment counters.
    pub fn containment_stats(&self) -> ContainmentStats {
        self.vm.containment_stats()
    }

    /// Faults the injector forced on this tenant.
    pub fn injected_faults(&self) -> u64 {
        self.inject_counters.total()
    }

    /// Serves one request end to end: admission, bounded retry with
    /// deterministic backoff, outcome accounting, latency telemetry.
    ///
    /// # Errors
    ///
    /// The typed shed reason when admission rejects the request.
    pub fn serve(&self, req: &Request) -> Result<RequestOutcome, Rejected> {
        let health = self.health();
        let bytes_in_use = self.vm.heap().native_alloc().bytes_in_use() as usize;
        let permit = match self.admission.try_admit(health, bytes_in_use) {
            Ok(p) => p,
            Err(r) => {
                match r {
                    Rejected::QueueFull { .. } => &self.counters.shed_queue,
                    Rejected::Budget { .. } => &self.counters.shed_budget,
                    Rejected::TenantQuarantined => &self.counters.shed_quarantined,
                }
                .fetch_add(1, Ordering::Relaxed);
                return Err(r);
            }
        };
        let admitted = self.counters.admitted.fetch_add(1, Ordering::Relaxed) + 1;
        // Periodic housekeeping sweep, always disarmed: the collector is
        // a runtime-internal path whose tag stores are infallible by
        // contract, so injected faults must never reach it.
        if admitted.is_multiple_of(SWEEP_EVERY) {
            let _ = self.vm.heap().sweep();
        }
        let t0 = telemetry::start_timing();
        let thread = self.vm.attach_thread("serve");
        let env = self.vm.env(&thread);
        let mut attempt = 0u32;
        let outcome = loop {
            match self.execute(&env, req, attempt) {
                Ok(o) => break o,
                Err(e)
                    if (e.is_transient() || matches!(e, JniError::Heap(_)))
                        && attempt < REQUEST_RETRIES =>
                {
                    attempt += 1;
                    self.counters.retries.fetch_add(1, Ordering::Relaxed);
                    if matches!(e, JniError::Heap(_)) {
                        // Allocation pressure: reclaim garbage before
                        // the retry instead of burning the budget.
                        let _ = self.vm.heap().sweep();
                    }
                    // Deterministic backoff: linear in the attempt
                    // number, expressed in schedule points so stress
                    // schedules explore the retry interleavings.
                    for _ in 0..attempt {
                        yield_point("serve-backoff");
                    }
                }
                Err(_) => break RequestOutcome::Failed,
            }
        };
        drop(env);
        drop(permit);
        if outcome == RequestOutcome::Failed {
            self.counters.failed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.completed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(t0) = t0 {
            let elapsed = t0.elapsed();
            let key = || HistKey {
                tenant: Some(self.cfg.id),
                scheme: self.cfg.scheme.label(),
                interface: "Request",
                size_class: SizeClass::Tiny,
                op: LatencyOp::Request,
            };
            self.request_latency.record(key, elapsed);
        }
        Ok(outcome)
    }

    /// Runs the request body once. Transient errors propagate for the
    /// caller's retry loop; tolerated terminal outcomes map to a
    /// [`RequestOutcome`].
    fn execute(
        &self,
        env: &JniEnv<'_>,
        req: &Request,
        attempt: u32,
    ) -> Result<RequestOutcome, JniError> {
        // Replay requests build and drive their own VM; the tenant's
        // injection plan must not leak into them.
        let armed = match (&self.cfg.fault_plan, &req.kind) {
            (Some(plan), RequestKind::Micro { .. } | RequestKind::Kernel { .. })
                if plan.is_active() =>
            {
                inject::install(
                    *plan,
                    mix(req.seed, u64::from(attempt) + 1),
                    Arc::clone(&self.inject_counters),
                );
                true
            }
            _ => false,
        };
        let result = match req.kind {
            RequestKind::Micro { oob, method } => self.run_micro(env, oob, method),
            RequestKind::Kernel { workload, scale } => {
                let spec = workloads::find_workload(workload)
                    .expect("serving kernels are a curated subset");
                map_outcome((spec.run)(env, req.seed, scale).map(|_| ()))
            }
            RequestKind::Replay { corpus } => {
                let trace = corpus
                    .decode()
                    .expect("committed corpus traces always decode");
                match trace::replay(&trace, self.cfg.scheme) {
                    Ok(digest) => {
                        let violations = digest.conservation_violations().len() as u64;
                        self.counters
                            .replay_violations
                            .fetch_add(violations, Ordering::Relaxed);
                        Ok(RequestOutcome::Completed)
                    }
                    Err(_) => {
                        self.counters.replay_violations.fetch_add(1, Ordering::Relaxed);
                        Ok(RequestOutcome::Failed)
                    }
                }
            }
        };
        if armed {
            inject::clear();
        }
        result
    }

    /// The micro churn unit — the containment-stress round adapted to a
    /// request: allocate a 16-int array, enter a native frame, stream
    /// over it, optionally write out of bounds, release.
    fn run_micro(
        &self,
        env: &JniEnv<'_>,
        oob: bool,
        method: &'static str,
    ) -> Result<RequestOutcome, JniError> {
        let a = env.new_int_array_from(&[7; 16])?;
        let result = env.call_native(method, NativeKind::Normal, |env| {
            let elems = env.get_primitive_array_critical(&a)?;
            let mem = env.native_mem();
            let mut s = 0u64;
            for i in 0..16 {
                match elems.read_i32(&mem, i) {
                    Ok(v) => s = s.wrapping_add(v as u64),
                    // A tag-check fault kills the native frame on the
                    // spot; containment reclaims the leaked borrow.
                    Err(e @ MemError::TagCheck(_)) => return Err(e.into()),
                    // Injected transient read failures: well-behaved
                    // native code shrugs and still releases below.
                    Err(_) => {}
                }
            }
            if oob {
                // 16-int array: index 40 is past the payload — a sync
                // tag fault under MTE4JNI, red-zone corruption caught at
                // release under a (quarantined) guarded copy.
                elems.write_i32(&mem, 40, 0x0BAD)?;
            }
            env.release_primitive_array_critical(&a, elems, ReleaseMode::Abort)?;
            Ok(s)
        });
        map_outcome(result.map(|_| ()))
    }

    /// Latches this tenant `Evicted` and reclaims what it can without
    /// tearing the VM down (the VM drops with the fleet): a final sweep
    /// after the health latch guarantees no new request will be
    /// admitted while the heap quiesces. In-flight environments force-
    /// release their borrows on drop ([`JniEnv`]'s teardown backstop),
    /// so by the time the fleet drops this VM the funnel books balance.
    pub fn evict(&self) {
        self.health.evict();
        let _ = self.vm.heap().sweep();
    }

    /// The post-run quiescence oracle ([`VmSchemes::quiesce`]) on this
    /// tenant's VM. Returns human-readable violations (empty = sound).
    pub fn quiesce(&self) -> Vec<String> {
        let id = self.cfg.id;
        self.schemes
            .quiesce(&self.vm)
            .into_iter()
            .map(|m| format!("tenant {id}: {m}"))
            .collect()
    }

    /// This tenant's counters and request-latency summary.
    pub fn stats(&self) -> TenantStats {
        let cs = self.vm.containment_stats();
        let c = &self.counters;
        TenantStats {
            tenant: self.cfg.id,
            scheme: self.cfg.scheme.label().to_owned(),
            health: self.health().label().to_owned(),
            admitted: c.admitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed_queue_full: c.shed_queue.load(Ordering::Relaxed),
            shed_budget: c.shed_budget.load(Ordering::Relaxed),
            shed_quarantined: c.shed_quarantined.load(Ordering::Relaxed),
            contained_faults: cs.contained_faults,
            degraded_exhaust: cs.degraded_tag_exhaustion,
            degraded_quarantine: cs.degraded_quarantine,
            retries: c.retries.load(Ordering::Relaxed),
            latency: self.request_latency.summary(),
        }
    }

    /// The tenant VM's snapshot ([`Vm::snapshot`]) plus the tenant's
    /// request-latency histogram. Replay requests run on VMs of their
    /// own, which they drop: none of those VMs is in it.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = self.vm.snapshot();
        if let Some(h) = self.request_latency.summary() {
            snap.add_histogram(h);
        }
        snap
    }

    /// Requests that exhausted their retry budget.
    pub fn failed(&self) -> u64 {
        self.counters.failed.load(Ordering::Relaxed)
    }

    /// Conservation violations observed by this tenant's replay
    /// requests (must stay zero).
    pub fn replay_violations(&self) -> u64 {
        self.counters.replay_violations.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("id", &self.cfg.id)
            .field("scheme", &self.cfg.scheme.label())
            .field("health", &self.health.current().label())
            .finish_non_exhaustive()
    }
}

/// Maps a request body's terminal result to an outcome, propagating
/// retryable errors.
fn map_outcome(result: Result<(), JniError>) -> Result<RequestOutcome, JniError> {
    match result {
        Ok(()) => Ok(RequestOutcome::Completed),
        Err(JniError::ContainedFault { .. }) => Ok(RequestOutcome::Contained),
        Err(JniError::CheckJniAbort(_)) => Ok(RequestOutcome::Detected),
        Err(e) => Err(e),
    }
}
