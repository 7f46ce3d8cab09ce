//! Independent oracles and the cross-engine differential harness.
//!
//! Every systolic engine in this workspace is validated by unit tests
//! with hand-derived expectations — which means a shared misconception
//! between an engine and its fixture would go unnoticed.  This crate
//! closes that hole the way SCALE-Sim validates against an analytical
//! cost model and Matsumae & Miyazaki validate pipelined DP against a
//! sequential baseline:
//!
//! * [`reference`] — textbook sequential solvers for the paper's four DP
//!   classes (multistage graphs, semiring string products, edit
//!   distance, chain/nonserial problems), written from scratch with no
//!   engine code on their call path.  Internally they compute over
//!   `Option<i64>` weights (`None` = +∞), not over the workspace's
//!   `Cost`/`Semiring` kernels.
//! * [`diffcase`] — seeded, size-ramped random instance generators and
//!   exhaustive small-N enumerators.
//! * [`diff`] — the differential drivers: one input is pushed through
//!   every distinct engine path (the single run under a null and a
//!   counting sink, `run_batch`, spare columns, TMR/duplex resilient
//!   wrappers, `StealPool` D&C, the direct backends) and each answer is
//!   required to be bit-identical to the oracle's.
//! * [`invariants`] — machine-checked paper invariants (Eq. 9 PU, the
//!   `N·m` / `(N+1)·m` cycle counts, Thm 1 schedule length, Props 2/3
//!   timing) evaluated on the *measured* stats of every differential
//!   run.
//! * [`strategies`] — proptest strategies over the same case types, so
//!   the per-engine suites can sample conformance-grade instances.
//! * [`served`] — expected `sdp-serve` wire payloads derived from the
//!   reference solvers, for served-vs-direct differential tests.
//!
//! The conformance suite itself lives in this crate's `tests/`
//! directory and runs under `cargo test -p sdp-oracle` (the CI
//! `conformance` job pins its budget via `PROPTEST_CASES`).

#![forbid(unsafe_code)]

pub mod diff;
pub mod diffcase;
pub mod invariants;
pub mod reference;
pub mod served;
pub mod strategies;
