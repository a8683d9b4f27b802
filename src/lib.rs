//! `gmc-suite`: the workspace umbrella crate.
//!
//! Re-exports the whole GMC pipeline for convenient use in the root
//! examples and integration tests. See the individual crates for API
//! documentation:
//!
//! * [`gmc_expr`] — symbolic expressions, operands, properties, chains
//! * [`gmc_analysis`] — property inference
//! * [`gmc_pattern`] — discrimination-net pattern matching, the
//!   general matcher behind the reference solver and the tests
//! * [`gmc_kernels`] — the kernel registry `K`, shared per process and
//!   dispatched by the unary operators of a binary product
//! * [`gmc`] — the MCP and GMC algorithms and cost metrics
//! * [`gmc_plan`] — symbolic plans and the structure-keyed plan cache
//! * [`gmc_codegen`] — program IR and emitters
//! * [`gmc_linalg`] — the dense linear algebra substrate
//! * [`gmc_runtime`] — program execution and validation
//! * [`gmc_frontend`] — the input-language parser
//! * [`gmc_baselines`] — the nine competitor strategies
//! * [`gmc_experiments`] — the paper's evaluation harness
//! * [`gmc_obs`] — metrics registry, Prometheus renderer, slow-trace ring

pub use gmc;
pub use gmc_analysis;
pub use gmc_baselines;
pub use gmc_codegen;
pub use gmc_experiments;
pub use gmc_expr;
pub use gmc_frontend;
pub use gmc_kernels;
pub use gmc_linalg;
pub use gmc_obs;
pub use gmc_pattern;
pub use gmc_plan;
pub use gmc_runtime;
