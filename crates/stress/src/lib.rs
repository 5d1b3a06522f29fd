//! Deterministic concurrency checker and fault-injection harness for the
//! MTE4JNI tag tables and the guarded-copy ledger (DESIGN.md §9).
//!
//! The crate has three layers:
//!
//! * [`sched`] — a seeded cooperative scheduler. Real OS threads run the
//!   workload, but a single token decides who proceeds at every schedule
//!   point (`sync`-facade lock operations and explicit `yield_point`s),
//!   so one `u64` seed fully determines the interleaving. The recorded
//!   trace replays bit-for-bit across runs and processes.
//! * [`harness`] — workloads that drive
//!   [`TwoTierTable`](mte4jni::TwoTierTable), the global-lock ablation
//!   and the guarded-copy ledger through contended acquire/release
//!   rounds, an online probe + quiescence oracle over the tag-table
//!   invariants, and optional seeded fault injection (`mte_sim::inject`)
//!   to force the error paths into the explored state space.
//! * [`broken`] — tag tables with a deliberately seeded lost-update bug.
//!   The self-check (`stress --self-check`, run in CI) demands the
//!   harness catches them within a bounded budget: the watchdog that
//!   proves the watchdog barks.
//!
//! The `stress` binary drives schedule sweeps across all schemes and
//! emits a machine-readable `STRESS.json` alongside the bench reports.

pub mod broken;
pub mod harness;
pub mod sched;
