//! Allocation budget of the frontend: `parse` of a concrete problem
//! allocates in proportion to its definitions (each operand's name and
//! shared cell) and its factor references (a unary operator's node,
//! and their share of the postfix code and the definition table), plus
//! a constant for the `Problem` and its assignment. It fails loudly if
//! per-token or per-lookup allocation (owned identifier tokens, cloned
//! names, operands rebuilt per property) creeps back into the lexer or
//! the parser; the parser before borrowing tokens made about 18
//! allocations per definition on these sources.

mod alloc_counter;

use alloc_counter::allocations;
use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_expr::UnaryOp;
use gmc_frontend::{parse, render_problem, Problem};

/// The allocations `parse` may make on a concrete problem.
fn budget(definitions: usize, references: usize) -> usize {
    2 * definitions + 2 * references + 8
}

#[test]
fn parse_allocates_per_definition_and_reference() {
    let (mut with_properties, mut with_unary) = (0, 0);
    for n in [3, 6, 10] {
        // Sec. 4 chains of length `n`, one operand per factor.
        let config = GeneratorConfig {
            len_min: n,
            len_max: n,
            ..GeneratorConfig::measured_scale()
        };
        for chain in random_chains(&config, 40, 0xA110C + n as u64) {
            let factors = chain.factors();
            with_properties +=
                usize::from(factors.iter().any(|f| !f.operand().properties().is_empty()));
            with_unary += usize::from(factors.iter().any(|f| f.op() != UnaryOp::None));
            let source = render_problem(&Problem {
                operands: factors.iter().map(|f| f.operand().clone()).collect(),
                assignments: vec![("X".to_owned(), chain.to_expr())],
                symbolic: None,
            });
            let (problem, count) = allocations(|| parse(&source));
            let problem = problem.expect("generated sources parse");
            assert_eq!(problem.operands.len(), n);
            assert!(
                count <= budget(n, n),
                "n = {n}: {count} allocations, budget {} on\n{source}",
                budget(n, n)
            );
        }
    }
    assert!(
        with_properties > 0 && with_unary > 0,
        "the sample covers properties and unary operators"
    );
}
