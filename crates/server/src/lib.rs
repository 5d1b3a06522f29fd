//! Multi-tenant serving layer with per-tenant fault isolation.
//!
//! This crate turns the repo's single-VM containment machinery into a
//! serving fleet: N tenant VMs — each with its own simulated memory
//! arena, protection scheme, tag table, and containment state — behind
//! one shared worker pool, driven by a deterministic open-loop traffic
//! generator. The claim under test is the paper's isolation story at
//! fleet scale: one tenant's misbehaving native code (out-of-bounds
//! writes, injected transients, tag exhaustion) is contained to that
//! tenant's VM and absorbed by *graceful degradation* — guarded-copy
//! fallback, per-method quarantine, health-based shedding — while every
//! other tenant keeps serving with zero contained faults, balanced pin
//! books, and latency within bounds.
//!
//! The moving parts, one module each:
//!
//! * [`traffic`] — seeded arrival stream mixing micro churn,
//!   `crates/workloads` kernels, and PR 7 trace-corpus replays.
//! * [`admission`] — bounded per-tenant queue + native-memory budget,
//!   typed [`Rejected`] shedding.
//! * [`health`] — the monotonic `Healthy → Degraded → Quarantined →
//!   Evicted` latch fed by the VM's containment counters.
//! * [`tenant`] — one tenant end to end: VM construction, the serve
//!   loop with bounded deterministic-backoff retry, the quiescence
//!   oracle, eviction.
//! * [`server`] — the shared worker pool; each tenant reports its own
//!   counters and request-latency quantiles through [`Tenant::stats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod health;
pub mod server;
pub mod tenant;
pub mod traffic;

pub use admission::{Admission, Permit, Rejected};
pub use health::{Health, HealthTracker};
pub use server::{RunSummary, Server, ServerConfig};
pub use tenant::{RequestOutcome, Tenant, TenantConfig};
pub use traffic::{Corpus, Request, RequestKind, TrafficConfig};
