//! Driver logic for `gmcc`, the GMC linear algebra compiler CLI.
//!
//! Takes a problem in the paper's input language (Fig. 1–2), runs the
//! GMC optimizer on every assignment, and emits code. Kept as a library
//! so the driver is unit-testable; the `gmcc` binary is a thin wrapper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod serve;
mod workload;

pub use serve::{run_request, run_serve_batch, serve_listen, ServeOptions};
pub use workload::run_workload;

use gmc::{FlopCount, GmcOptimizer, GmcWorkspace, InferenceMode, TimeModel};
use gmc_codegen::{emit_size_generic_rust, Emitter, JuliaEmitter, PseudoEmitter, RustEmitter};
use gmc_expr::{Chain, DimBindings};
use gmc_frontend::SymbolicProblem;
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanCache;
use gmc_runtime::{validate_against_reference, Env};
use std::fmt::Write as _;
use std::sync::Arc;

/// Output language selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Emit {
    /// Julia (paper Table 2 style).
    Julia,
    /// Rust against `gmc_runtime::ops`.
    Rust,
    /// Mathematical pseudocode.
    Pseudo,
}

impl std::str::FromStr for Emit {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "julia" => Ok(Emit::Julia),
            "rust" => Ok(Emit::Rust),
            "pseudo" => Ok(Emit::Pseudo),
            other => Err(format!(
                "unknown emitter `{other}` (expected julia, rust or pseudo)"
            )),
        }
    }
}

/// Cost metric selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// FLOP count (paper default).
    Flops,
    /// The calibrated execution-time model.
    Time,
}

impl std::str::FromStr for Metric {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flops" => Ok(Metric::Flops),
            "time" => Ok(Metric::Time),
            other => Err(format!("unknown metric `{other}` (expected flops or time)")),
        }
    }
}

/// CLI options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Output language.
    pub emit: Emit,
    /// Cost metric.
    pub metric: Metric,
    /// Execute the generated program on random inputs and validate it
    /// against the reference evaluation.
    pub check: bool,
    /// Dimension-variable bindings (`--bind n=2000`) for problems with
    /// symbolic dimensions.
    pub bind: Vec<(String, usize)>,
    /// Plan-store path (`--plan-store cache.json`): warm-start the plan
    /// cache from it before compiling and save it back after.
    pub plan_store: Option<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            emit: Emit::Julia,
            metric: Metric::Flops,
            check: false,
            bind: Vec::new(),
            plan_store: None,
        }
    }
}

/// Compiles a problem text and renders a report.
///
/// # Errors
///
/// Returns a rendered error message for parse errors, non-chain
/// assignments, optimizer failures, and (with `check`) validation
/// failures.
pub fn compile(input: &str, options: &Options) -> Result<String, String> {
    let problem = gmc_frontend::parse(input).map_err(|e| gmc_frontend::render_error(input, &e))?;
    let registry = Arc::new(KernelRegistry::blas_lapack());
    // Mixed problems: concrete assignments compile exactly as in a
    // fully concrete problem, then the symbolic ones go through the
    // plan cache.
    let mut out = String::new();
    // Both metrics cost in f64, so one workspace amortizes the DP
    // tables across every assignment of the problem.
    let mut workspace = GmcWorkspace::new();
    for (target, expr) in &problem.assignments {
        let chain = Chain::from_expr(expr).map_err(|e| format!("assignment `{target}`: {e}"))?;
        let program = match options.metric {
            Metric::Flops => {
                let solution = GmcOptimizer::new(&registry, FlopCount)
                    .solve_with(&chain, &mut workspace)
                    .map_err(|e| format!("assignment `{target}`: {e}"))?;
                write_report(
                    &mut out,
                    target,
                    &chain,
                    solution.parenthesization(),
                    format_args!("{:.4e} flops", solution.flops()),
                );
                solution.program()
            }
            Metric::Time => {
                let solution = GmcOptimizer::new(&registry, TimeModel::default())
                    .solve_with(&chain, &mut workspace)
                    .map_err(|e| format!("assignment `{target}`: {e}"))?;
                write_report(
                    &mut out,
                    target,
                    &chain,
                    solution.parenthesization(),
                    format_args!(
                        "{:.3} ms (model), {:.4e} flops",
                        solution.cost() * 1e3,
                        solution.flops()
                    ),
                );
                solution.program()
            }
        };
        let code = match options.emit {
            Emit::Julia => JuliaEmitter::default().emit(&program),
            Emit::Rust => RustEmitter.emit(&program),
            Emit::Pseudo => PseudoEmitter.emit(&program),
        };
        out.push_str(&code);
        out.push('\n');
        if options.check {
            let env = Env::random_for_chain(&chain, 0xC60);
            validate_against_reference(&program, &chain, &env, 1e-6)
                .map_err(|e| format!("assignment `{target}`: validation failed: {e}"))?;
            writeln!(out, "# check: OK (matches reference evaluation)").expect("string write");
        }
        out.push('\n');
    }
    if let Some(symbolic) = &problem.symbolic {
        if !symbolic.chains.is_empty() {
            out.push_str(&compile_symbolic(symbolic, &registry, options)?);
        }
    }
    Ok(out)
}

/// Writes the three `#` report lines of a compiled assignment.
fn write_report(
    out: &mut String,
    target: &str,
    chain: &Chain,
    parenthesization: &str,
    cost: std::fmt::Arguments<'_>,
) {
    writeln!(out, "# {target} := {chain}").expect("string write");
    writeln!(out, "# parenthesization: {parenthesization}").expect("string write");
    writeln!(out, "# cost: {cost}").expect("string write");
}

/// Compiles the symbolic assignments of a problem: every chain
/// structure is solved through a [`PlanCache`] at the sizes given by
/// `--bind`, so assignments sharing a structure hit the cached plan.
fn compile_symbolic(
    problem: &SymbolicProblem,
    registry: &Arc<KernelRegistry>,
    options: &Options,
) -> Result<String, String> {
    if options.metric != Metric::Flops {
        return Err(
            "symbolic problems support only the flops metric (polynomial costs)".to_owned(),
        );
    }
    let mut bindings = DimBindings::new();
    for (name, value) in &options.bind {
        bindings.set(name, *value);
    }
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let mut out = String::new();
    if let Some(store) = &options.plan_store {
        if let Some(line) = serve::warm_start_plan_store(&cache, store)? {
            out.push_str(&line);
        }
    }
    for (target, chain) in &problem.chains {
        let missing: Vec<String> = chain
            .vars()
            .iter()
            .filter(|v| bindings.get(**v).is_none())
            .map(|v| v.name().to_owned())
            .collect();
        if !missing.is_empty() {
            return Err(format!(
                "assignment `{target}`: unbound dimension variables {} (pass --bind NAME=SIZE)",
                missing.join(", ")
            ));
        }
        let (solution, outcome) = cache
            .solve(chain, &bindings)
            .map_err(|e| format!("assignment `{target}`: {e}"))?;
        let program = solution.program();
        writeln!(out, "# {target} := {chain}   [at {bindings}]").expect("string write");
        writeln!(out, "# parenthesization: {}", solution.parenthesization()).expect("string write");
        writeln!(out, "# cost: {:.4e} flops", solution.flops()).expect("string write");
        if let Some(summary) = cache.region_summary(chain, &bindings) {
            writeln!(
                out,
                "# plan: {outcome}; cells: {summary}; regions split on <= {} shape questions",
                gmc_plan::undecided_shape_questions(chain)
            )
            .expect("string write");
        }
        let code = match options.emit {
            Emit::Julia => JuliaEmitter::default().emit(&program),
            // Symbolic problems emit the size-generic form: one
            // function per assignment, parameterized by the dims.
            Emit::Rust => emit_size_generic_rust(&program, chain),
            Emit::Pseudo => PseudoEmitter.emit(&program),
        };
        out.push_str(&code);
        out.push('\n');
        if options.check {
            let concrete = chain
                .bind(&bindings)
                .map_err(|e| format!("assignment `{target}`: {e}"))?;
            let env = Env::random_for_chain(&concrete, 0xC60);
            validate_against_reference(&program, &concrete, &env, 1e-6)
                .map_err(|e| format!("assignment `{target}`: validation failed: {e}"))?;
            writeln!(out, "# check: OK (matches reference evaluation)").expect("string write");
        }
        out.push('\n');
    }
    writeln!(out, "# plan cache: {}", cache.stats()).expect("string write");
    if let Some(store) = &options.plan_store {
        out.push_str(&serve::save_plan_store(&cache, store)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE2: &str = "\
Matrix A (2000, 2000) <SPD>
Matrix B (2000, 200)
Matrix C (200, 200) <LowerTriangular>
X := A^-1 * B * C^T
";

    #[test]
    fn compiles_table2_to_julia() {
        let out = compile(TABLE2, &Options::default()).unwrap();
        assert!(out.contains("trmm!('R', 'L', 'T', 'N', 1.0, C, B)"));
        assert!(out.contains("posv!('L', A, B)"));
        assert!(out.contains("parenthesization"));
    }

    #[test]
    fn emits_rust_and_pseudo() {
        let out = compile(
            TABLE2,
            &Options {
                emit: Emit::Rust,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("ops::posv"));
        let out = compile(
            TABLE2,
            &Options {
                emit: Emit::Pseudo,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("[posv]"));
    }

    #[test]
    fn check_mode_validates() {
        let small = "\
Matrix A (30, 30) <SPD>
Matrix B (30, 10)
X := A^-1 * B
";
        let out = compile(
            small,
            &Options {
                check: true,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("check: OK"));
    }

    #[test]
    fn time_metric_reports_model_cost() {
        let out = compile(
            TABLE2,
            &Options {
                metric: Metric::Time,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("ms (model)"));
    }

    #[test]
    fn parse_errors_are_surfaced() {
        let err = compile("Matrix A (5, 5)\nX := A * Q\n", &Options::default()).unwrap_err();
        assert!(err.contains("not defined"));
    }

    const TABLE2_SYMBOLIC: &str = "\
Matrix A (n, n) <SPD>
Matrix B (n, m)
Matrix C (m, m) <LowerTriangular>
X := A^-1 * B * C^T
Y := A^-1 * B * C^T
";

    #[test]
    fn symbolic_problem_compiles_through_plan_cache() {
        let out = compile(
            TABLE2_SYMBOLIC,
            &Options {
                bind: vec![("n".into(), 2000), ("m".into(), 200)],
                ..Options::default()
            },
        )
        .unwrap();
        // Same kernel sequence as the concrete Table 2 problem.
        assert!(out.contains("trmm!"), "{out}");
        assert!(out.contains("posv!"), "{out}");
        // The second assignment shares the structure: a cache hit.
        assert!(out.contains("plan: hit"), "{out}");
        assert!(out.contains("plan cache: 2 requests: 1 hits"), "{out}");
    }

    #[test]
    fn symbolic_rust_emission_is_size_generic() {
        let out = compile(
            TABLE2_SYMBOLIC,
            &Options {
                emit: Emit::Rust,
                bind: vec![("n".into(), 40), ("m".into(), 20)],
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("pub fn compute(n: usize, m: usize"), "{out}");
    }

    #[test]
    fn symbolic_check_mode_validates() {
        let out = compile(
            "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nX := A^-1 * B\n",
            &Options {
                check: true,
                bind: vec![("n".into(), 30), ("m".into(), 10)],
                ..Options::default()
            },
        )
        .unwrap();
        assert!(out.contains("check: OK"), "{out}");
    }

    #[test]
    fn symbolic_missing_binding_is_reported() {
        let err = compile(
            TABLE2_SYMBOLIC,
            &Options {
                bind: vec![("n".into(), 2000)],
                ..Options::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("unbound dimension variables m"), "{err}");
        assert!(err.contains("--bind"), "{err}");
    }

    #[test]
    fn symbolic_time_metric_rejected() {
        let err = compile(
            TABLE2_SYMBOLIC,
            &Options {
                metric: Metric::Time,
                bind: vec![("n".into(), 10), ("m".into(), 10)],
                ..Options::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("flops metric"), "{err}");
    }

    #[test]
    fn sum_assignments_rejected_as_chains() {
        let err = compile(
            "Matrix A (5, 5)\nMatrix B (5, 5)\nX := A + B\n",
            &Options::default(),
        )
        .unwrap_err();
        assert!(err.contains("not a matrix chain"));
    }
}
