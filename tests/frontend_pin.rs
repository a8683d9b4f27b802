//! Pins the frontend's observable behaviour: the tokens `lex` returns
//! and the `Problem` or error `parse` returns, as `Debug` text, over a
//! fixed, seeded set of inputs:
//!
//! * the 300 Sec. 4 source files `crates/cli/tests/compile_pin.rs`
//!   compiles (concrete problems with properties and unary operators);
//! * the preamble and the valid program of `arbitrary_input.rs`, and
//!   their concrete twins;
//! * 20 000 seeded token soups and edited programs, drawn from that
//!   file's tokens as it draws them (non-ASCII text, tabs, `\r\n`,
//!   overflowing integers, comments).
//!
//! A digest of all of it must equal the recorded constant, so a change
//! to any token, token position, lowered operand or expression,
//! symbolic chain, error message or error position shows here. A
//! change made on purpose updates the constants. `render_error` stays
//! out of the digest; its caret has its own tests.

mod frontend_inputs;

use frontend_inputs::{edited, PREAMBLE, PROGRAM, SOURCE_TOKENS};
use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_frontend::{lex, parse, render_problem, Problem};

/// [`PREAMBLE`] with constant sizes.
const CONCRETE_PREAMBLE: &str = "Matrix A (5, 5) <SPD>\nMatrix B (5, 3)\nVector x (3)\n";

/// [`PROGRAM`] with constant sizes.
const CONCRETE_PROGRAM: &str = "Matrix A (5, 5) <SPD>\nMatrix B (5, 3)\n\
                                Matrix C (3, 3) <LowerTriangular>\nVector x (3)\n\
                                X := A^-1 * B * C^T\nY := x' * B^T * A^-T * B\n";

/// Token soups and edited programs each.
const DRAWS: usize = 10_000;

/// FNV-1a, 64-bit.
fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: a seeded generator that no dependency can change.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn token(&mut self) -> &'static str {
        SOURCE_TOKENS[self.below(SOURCE_TOKENS.len())]
    }
}

/// The Sec. 4 source files of `compile_pin.rs`.
fn sec4_sources() -> Vec<String> {
    random_chains(&GeneratorConfig::measured_scale(), 300, 0x9C0_4D1E)
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

/// Up to 39 tokens, after one of the preambles or none.
fn soup(rng: &mut SplitMix64) -> String {
    let mut s = [PREAMBLE, CONCRETE_PREAMBLE, "", ""][rng.below(4)].to_owned();
    for _ in 0..rng.below(40) {
        s.push_str(rng.token());
    }
    s
}

/// One of the programs after one to three single-character edits.
fn mutation(rng: &mut SplitMix64) -> String {
    let program = [PROGRAM, CONCRETE_PROGRAM][rng.below(2)];
    let edits: Vec<(usize, usize, &str)> = (0..1 + rng.below(3))
        .map(|_| (rng.next() as usize, rng.below(3), rng.token()))
        .collect();
    edited(program, &edits)
}

fn inputs() -> Vec<String> {
    let mut inputs = sec4_sources();
    inputs.extend([PREAMBLE, PROGRAM, CONCRETE_PREAMBLE, CONCRETE_PROGRAM].map(str::to_owned));
    let mut rng = SplitMix64(0x00F2_0E7D);
    for _ in 0..DRAWS {
        inputs.push(soup(&mut rng));
        inputs.push(mutation(&mut rng));
    }
    inputs
}

#[test]
fn lexer_and_parser_output_is_pinned() {
    let (mut hash, mut bytes, mut lexed, mut parsed) = (0xcbf2_9ce4_8422_2325_u64, 0, 0, 0);
    for input in inputs() {
        let tokens = lex(&input);
        let problem = parse(&input);
        lexed += usize::from(tokens.is_ok());
        parsed += usize::from(problem.is_ok());
        let text = format!("{input:?}\n{tokens:?}\n{problem:?}\n");
        bytes += text.len();
        hash = fnv1a64(hash, text.as_bytes());
    }
    assert_eq!((lexed, parsed), (9403, 828), "inputs that lex, that parse");
    assert_eq!(bytes, 23_234_544, "Debug bytes");
    assert_eq!(
        hash, 0xa78b_c485_4cec_c8f0,
        "the frontend's tokens, problems, errors or positions changed"
    );
}
