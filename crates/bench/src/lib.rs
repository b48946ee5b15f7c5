//! # fedat-bench — the reproduction harness
//!
//! One experiment function per table/figure of the paper's evaluation (§7)
//! and per robustness / wire-codec scenario, all driven from the `repro`
//! binary:
//!
//! ```text
//! cargo run --release -p fedat-bench --bin repro -- <experiment> [--quick] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! `<experiment>` ∈ {`table1`, `table2`, `fig2`, `fig3`, `fig4`, `fig5`,
//! `fig6`, `fig7`, `fig8`, `fig9`, `fig10`, `leaf`, `churn`, `corrupt`,
//! `codec`, `ablate-mistier`, `ablate-lambda`, `ablate-delta`, `matrix`,
//! `all`} — [`experiments::IDS`]. `--quick` shrinks client counts and round
//! budgets ≈8× for smoke-testing the harness.
//!
//! Experiments sharing the same underlying runs (Table 1/2 and Figs. 2–4
//! all derive from one strategy×dataset matrix) are computed once by
//! [`experiments::core_matrix`] and post-processed per artifact.
//!
//! Three jobs, three homes: `repro` *prints* (a text table and CSVs per
//! experiment); `tests/acceptance.rs` *asserts* the claims the churn,
//! corrupt and codec scenarios carry, on the same job lists; *measurement*
//! is the repository benchmark (`benchmark/`, `BENCHMARK.json`), with
//! `bench_tensor_kernels` kept beside it as the `SimdKernel::Auto` vs
//! `Scalar` lane comparator.

pub mod experiments;
pub mod grid;
pub mod harness;
pub mod report;
