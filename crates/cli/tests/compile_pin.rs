//! Pins `gmcc`'s output: a fixed, seeded set of the paper's Sec. 4
//! chains is rendered as source files and compiled through
//! `gmc_cli::compile` with every emitter under both metrics, and a
//! digest of all the reports must equal the recorded constant. A change
//! to the chosen parenthesizations, kernels, temporaries, costs or
//! emitted code shows up here; one made on purpose updates the
//! constant.

use gmc_cli::{compile, Emit, Metric, Options};
use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_frontend::{render_problem, Problem};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// The `count` seeded source files, one assignment each.
fn sources(count: usize, seed: u64) -> Vec<String> {
    random_chains(&GeneratorConfig::measured_scale(), count, seed)
        .iter()
        .map(|chain| {
            render_problem(&Problem {
                operands: chain
                    .factors()
                    .iter()
                    .map(|f| f.operand().clone())
                    .collect(),
                assignments: vec![("X".to_owned(), chain.to_expr())],
                symbolic: None,
            })
        })
        .collect()
}

#[test]
fn compile_output_is_pinned() {
    let mut reports = String::new();
    for source in sources(300, 0x9C0_4D1E) {
        for metric in [Metric::Flops, Metric::Time] {
            for emit in [Emit::Julia, Emit::Rust, Emit::Pseudo] {
                let options = Options {
                    emit,
                    metric,
                    ..Options::default()
                };
                let report = compile(&source, &options).expect("generated sources compile");
                reports.push_str(&report);
                reports.push('\0');
            }
        }
    }
    assert_eq!(reports.len(), 661_489, "report bytes");
    assert_eq!(
        fnv1a64(reports.as_bytes()),
        0x666c_955a_dd76_66a1,
        "gmcc output changed: parenthesizations, kernels, temporaries, costs or emitted code"
    );
}
