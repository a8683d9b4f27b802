//! The `compile` workload: `gmcc FILE` on the paper's Sec. 4 test
//! chains, one file at a time, through `gmc_cli::compile`.

use crate::report::{Metric, Report};
use crate::stats::Fastest;
use crate::{digest, host, Args};
use gmc::{FlopCount, GmcOptimizer, GmcWorkspace};
use gmc_cli::{Emit, Options};
use gmc_codegen::{Emitter, JuliaEmitter, PseudoEmitter, RustEmitter};
use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_expr::Chain;
use gmc_frontend::Problem;
use gmc_kernels::KernelRegistry;
use gmc_runtime::{validate_against_reference, Env};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::hint::black_box;
use std::ops::Range;
use std::time::Instant;

/// Emitters the files rotate over.
const EMITTERS: [Emit; 3] = [Emit::Julia, Emit::Rust, Emit::Pseudo];

/// One generated source file and the emitter it is compiled with.
struct SourceFile {
    source: String,
    options: Options,
}

/// Sizes of one run.
struct Plan {
    /// Distinct files; the timed window cycles over them.
    files: usize,
    /// Files whose programs are executed against the reference.
    validated: usize,
    /// Child processes timing a cold first `compile`.
    probes: usize,
}

fn plan(quick: bool) -> Plan {
    if quick {
        Plan {
            files: 30,
            validated: 2,
            probes: 2,
        }
    } else {
        Plan {
            files: 8000,
            validated: 12,
            probes: 24,
        }
    }
}

/// The seeded source files: the paper's Sec. 4 chains (lengths 3–10,
/// the five properties, transposes, inverses, vectors) at the measured
/// scale's sizes (50–300), each rendered as a one-assignment problem.
/// The same seed gives byte-identical sources.
fn sources(seed: u64, count: usize) -> Vec<SourceFile> {
    random_chains(&GeneratorConfig::measured_scale(), count, seed)
        .iter()
        .enumerate()
        .map(|(i, chain)| {
            let problem = Problem {
                operands: chain
                    .factors()
                    .iter()
                    .map(|f| f.operand().clone())
                    .collect(),
                assignments: vec![("X".to_owned(), chain.to_expr())],
                symbolic: None,
            };
            SourceFile {
                source: gmc_frontend::render_problem(&problem),
                options: Options {
                    emit: EMITTERS[i % EMITTERS.len()],
                    ..Options::default()
                },
            }
        })
        .collect()
}

fn emitter(emit: Emit) -> Box<dyn Emitter> {
    match emit {
        Emit::Julia => Box::new(JuliaEmitter::default()),
        Emit::Rust => Box::new(RustEmitter),
        Emit::Pseudo => Box::new(PseudoEmitter),
    }
}

/// Child-process entry: times the first, cold `compile` call of a
/// fresh process on the run's file `index` and prints it in seconds.
pub fn probe_cold_compile(seed: u64, index: usize) -> Result<(), String> {
    let file = sources(seed, index + 1).pop().expect("one file");
    let started = Instant::now();
    let out = gmc_cli::compile(&file.source, &file.options);
    let elapsed = started.elapsed().as_secs_f64();
    out?;
    println!("{elapsed}");
    Ok(())
}

/// Set-up time: the first `compile` call of a fresh process (the only
/// set-up `gmcc` has), once on each of the files `files`.
fn cold_compile_probes(seed: u64, files: Range<usize>) -> Result<Vec<f64>, String> {
    files
        .map(|index| {
            host::probe(&[
                "--probe-cold-compile".to_owned(),
                index.to_string(),
                "--seed".to_owned(),
                seed.to_string(),
            ])
        })
        .collect()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let plan = plan(args.quick);
    let mut report = Report::new("compile", args.seed, args.trace);
    let files = sources(args.seed, plan.files);
    report.note(
        "inputs_digest",
        Value::String(digest(files.iter().map(|f| f.source.as_str()))),
    );

    // Half the set-up probes run before the window and half after, so
    // a stretch of host noise does not move all of them.
    let mut setup = cold_compile_probes(args.seed, 0..plan.probes / 2)?;

    // The checked files are drawn before the window, which keeps the
    // first program it emits for each: the checks then verify output
    // that was timed.
    let mut kept: Vec<(usize, Option<String>)> =
        sample_files(files.len(), plan.validated, args.seed)
            .into_iter()
            .map(|index| (index, None))
            .collect();

    // Timed window: one caller, closed loop, cycling over the files, so
    // each file is compiled many times over the window; each file is a
    // part of its own.
    let mut fastest = Fastest::new(files.iter().map(|_| 1));
    let started = Instant::now();
    let (mut now, mut i) = (started, 0usize);
    while (now - started).as_secs_f64() < args.seconds {
        let index = i % files.len();
        let file = &files[index];
        let out = gmc_cli::compile(black_box(&file.source), &file.options);
        let done = Instant::now();
        match black_box(out) {
            Ok(program) => {
                if let Some((_, slot @ None)) = kept.iter_mut().find(|(k, _)| *k == index) {
                    *slot = Some(program);
                }
            }
            Err(e) => report.violation(format!("file {index}: {e}")),
        }
        fastest.op(index, 0, (done - now).as_secs_f64() * 1e6);
        now = done;
        i += 1;
    }
    report.attempted = i as u64;
    report.note(
        "compiles_per_file",
        Value::Number(i as f64 / files.len() as f64),
    );
    // Right after the window: the output checks and the traced replay
    // do not count.
    report.set("peak_rss_mb", Metric::single(host::peak_rss_mb()?, 1));
    setup.extend(cold_compile_probes(
        args.seed,
        plan.probes / 2..plan.probes,
    )?);
    report.set("setup_s", Metric::median_of(&setup));
    crate::set_end_to_end(&mut report, &fastest);

    check(&mut report, &files, &kept, args.seed);
    if args.trace {
        traced(&mut report, &files, &fastest);
    }
    Ok(report)
}

/// A seeded sample of `count` distinct file indices below `files`.
fn sample_files(files: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut indices: Vec<usize> = (0..files).collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FF_EE00);
    let count = count.min(files);
    for i in 0..count {
        let j = rng.gen_range(i..files);
        indices.swap(i, j);
    }
    indices.truncate(count);
    indices
}

/// Output checks, outside the timed window, on the programs the window
/// emitted for the sampled files: the optimizer's code and
/// parenthesization for the file must appear in the output, and its
/// program must match the naive reference evaluator on random operands.
/// A sampled file the window never reached is noted, not checked.
fn check(report: &mut Report, files: &[SourceFile], kept: &[(usize, Option<String>)], seed: u64) {
    let registry = KernelRegistry::blas_lapack();
    let mut unreached = 0;
    for (index, out) in kept {
        let (index, file) = (*index, &files[*index]);
        let Some(out) = out else {
            unreached += 1;
            continue;
        };
        report.checked += 1;
        let verdict = (|| -> Result<(), String> {
            let problem = gmc_frontend::parse(&file.source).map_err(|e| e.to_string())?;
            let chain = Chain::from_expr(&problem.assignments[0].1).map_err(|e| e.to_string())?;
            let solution = GmcOptimizer::new(&registry, FlopCount)
                .solve(&chain)
                .map_err(|e| e.to_string())?;
            let program = solution.program();
            let code = emitter(file.options.emit).emit(&program);
            let paren = format!("# parenthesization: {}", solution.parenthesization());
            if !out.contains(&code) || !out.contains(&paren) {
                return Err("emitted program differs from the optimizer's".to_owned());
            }
            let env = Env::random_for_chain(&chain, seed ^ index as u64);
            validate_against_reference(&program, &chain, &env, 1e-6).map_err(|e| e.to_string())
        })();
        if let Err(e) = verdict {
            report.violation(format!("file {index}: {e}"));
        }
    }
    report.note("sampled_files_unreached", Value::Number(unreached as f64));
}

/// Passes of the traced replay over the files.
const TRACED_PASSES: usize = 8;

/// The traced replay: every file [`TRACED_PASSES`] times, on this
/// thread, through the public functions `compile` calls, in its order,
/// with a timer around each call. Each layer of each file keeps its
/// fastest pass, as the window keeps each file's fastest compile, so the
/// layer means add up against the mean fastest compile.
fn traced(report: &mut Report, files: &[SourceFile], fastest: &Fastest) {
    let mut layers: [Vec<f64>; 6] = Default::default();
    for layer in &mut layers {
        layer.resize(files.len(), f64::INFINITY);
    }
    let mut instructions = Vec::new();
    for pass in 0..TRACED_PASSES {
        for (index, file) in files.iter().enumerate() {
            let t0 = Instant::now();
            let problem = gmc_frontend::parse(&file.source).expect("checked source parses");
            let t1 = Instant::now();
            let registry = KernelRegistry::blas_lapack();
            let t2 = Instant::now();
            let chain = Chain::from_expr(&problem.assignments[0].1).expect("a chain");
            let t3 = Instant::now();
            let solution = GmcOptimizer::new(&registry, FlopCount)
                .solve_with(&chain, &mut GmcWorkspace::new())
                .expect("computable");
            let t4 = Instant::now();
            let program = solution.program();
            let t5 = Instant::now();
            let code = emitter(file.options.emit).emit(&program);
            let t6 = Instant::now();
            black_box(code);
            for (layer, (a, b)) in
                layers
                    .iter_mut()
                    .zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4), (t4, t5), (t5, t6)])
            {
                layer[index] = layer[index].min((b - a).as_secs_f64() * 1e6);
            }
            if pass == 0 {
                instructions.push(program.len() as f64);
            }
        }
    }
    // Outside the layer passes, so they run back to back as in `compile`.
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let (mut tokens, mut cold) = (Vec::new(), Vec::new());
    for file in files {
        tokens.push(gmc_frontend::lex(&file.source).map_or(0, |t| t.len()) as f64);
        let problem = gmc_frontend::parse(&file.source).expect("checked source parses");
        let chain = Chain::from_expr(&problem.assignments[0].1).expect("a chain");
        let c0 = Instant::now();
        black_box(optimizer.solve(&chain).ok());
        cold.push(c0.elapsed().as_secs_f64() * 1e6);
    }
    let names = [
        "frontend.parse_us",
        "kernels.registry_build_us",
        "expr.chain_us",
        "core.solve_us",
        "codegen.program_us",
        "codegen.emit_us",
    ];
    let mut sum = 0.0;
    for (name, samples) in names.into_iter().zip(&layers) {
        let m = Metric::mean_of(samples);
        sum += m.value;
        report.set(name, m);
    }
    report.set("frontend.tokens", Metric::mean_of(&tokens));
    report.set("codegen.instructions", Metric::mean_of(&instructions));
    report.set("core.cold_solve_us", Metric::mean_of(&cold));
    let untraced = Metric::mean_of(&fastest.latencies());
    let e2e = untraced.value;
    report.set("e2e.mean_us", untraced);
    report.set("cli.residual_us", Metric::single(e2e - sum, files.len()));
    report.note(
        "additivity",
        Value::Object(vec![
            ("untraced_mean_us".into(), Value::Number(e2e)),
            ("traced_layer_sum_us".into(), Value::Number(sum)),
            ("cli.residual_us".into(), Value::Number(e2e - sum)),
        ]),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_programs_pass_and_swapped_ones_fail() {
        let files = sources(4, 3);
        let outputs: Vec<String> = files
            .iter()
            .map(|f| gmc_cli::compile(&f.source, &f.options).expect("compiles"))
            .collect();
        let kept: Vec<(usize, Option<String>)> =
            (0..3).map(|i| (i, Some(outputs[i].clone()))).collect();
        let mut report = Report::new("compile", 4, false);
        check(&mut report, &files, &kept, 4);
        assert!(report.correct(), "{:?}", report.violations);
        assert_eq!(report.checked, 3);
        // Each file paired with another file's program, and one file the
        // window never reached (noted, not counted).
        let mut swapped: Vec<(usize, Option<String>)> = (0..3)
            .map(|i| (i, Some(outputs[(i + 1) % 3].clone())))
            .collect();
        swapped.push((0, None));
        check(&mut report, &files, &swapped, 4);
        assert_eq!(report.failed, 3);
        assert_eq!(report.checked, 6);
    }

    #[test]
    fn the_sample_is_seeded_and_distinct() {
        let sample = sample_files(50, 12, 9);
        assert_eq!(sample, sample_files(50, 12, 9));
        let mut distinct = sample.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12);
        assert!(sample.iter().all(|&i| i < 50));
        assert_eq!(sample_files(3, 12, 9).len(), 3);
    }
}
