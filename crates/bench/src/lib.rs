//! # fedat-bench — the reproduction harness
//!
//! Every table and figure of the paper's evaluation (§7), the ablations and
//! the robustness / wire-codec scenarios are rows of one registry in
//! [`experiments`]: per id, a builder returning its `Vec<Job>` and a printer
//! over the results, all driven from the `repro` binary:
//!
//! ```text
//! cargo run --release -p fedat-bench --bin repro -- <experiment> [--quick] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! `<experiment>` is a registry id, `matrix` or `all` — the list is
//! [`experiments::IDS`], which `repro`'s usage text prints. `--quick`
//! shrinks client counts and round budgets ≈8× for smoke-testing the
//! harness.
//!
//! Experiments sharing the same underlying runs (Table 1/2 and Figs. 2–4
//! all print one strategy×dataset matrix) are computed once per `repro`
//! invocation and post-processed per artifact.
//!
//! Three jobs, three homes: `repro` *prints* (a text table and CSVs per
//! experiment); `tests/acceptance.rs` *asserts* the claims the churn,
//! corrupt and codec scenarios carry, on the same job lists, and
//! `tests/experiment_jobs.rs` pins every id's list; *measurement* is the
//! repository benchmark (`benchmark/`, `BENCHMARK.json`), with
//! `bench_tensor_kernels` kept beside it as the `SimdKernel::Auto` vs
//! `Scalar` lane comparator.

pub mod experiments;
pub mod grid;
pub mod harness;
pub mod report;
