//! # `wmh-perf` — offline benchmark harness and CI performance gate
//!
//! A dependency-free micro/macro benchmark harness for the sketching hot
//! paths, built to run in CI with no registry access:
//!
//! * [`harness`] — monotonic-clock measurement with warmup, calibrated
//!   inner-loop repetition, and ≥30 samples summarized by median/MAD with
//!   outlier rejection.
//! * [`workloads`] — the suite: the Figure-9 sketching hot loop (all 13
//!   catalog algorithms × Table-4 dataset shapes through the
//!   zero-allocation [`wmh_core::Sketcher::sketch_batch_into`] path),
//!   the hashing kernels, and batch-path comparisons.
//! * [`report`] — the versioned (`wmh-perf/v1`) JSON report plus the
//!   baseline comparison that powers `scripts/perf_gate.sh`: a workload
//!   whose median slows by more than the tolerance (default +25%) fails
//!   the gate, as does a workload that disappears from the suite.
//! * [`schemas`] — structural schemas for every `results/*.json` family,
//!   consumed by the `schema_check` binary.
//!
//! Binaries: `wmh-perf` (run / compare) and `schema_check`.
//!
//! The dev-test `tests/alloc.rs` additionally pins the zero-allocation
//! contract with a counting global allocator: after warmup, the MinHash
//! and ICWS batch paths must perform **zero** heap allocations per call.

pub mod harness;
pub mod report;
pub mod schemas;
pub mod stats;
pub mod workloads;

pub use harness::{bench, BenchOptions, BenchResult};
pub use report::{compare, Comparison, Report, SCHEMA_VERSION};
pub use workloads::Profile;
