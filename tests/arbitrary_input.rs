//! Arbitrary text through the entry points that take untrusted input:
//! the frontend's lexer and parser (a `gmcc` source file) and the
//! serving wire's request-line parser. Whatever the bytes, none of them
//! may panic; malformed input is an error value.

mod frontend_inputs;

use frontend_inputs::{edited, PREAMBLE, PROGRAM, SOURCE_TOKENS};
use gmc_expr::Chain;
use gmc_frontend::{lex, parse, render_error};
use gmc_serve::protocol::parse_request_line;
use proptest::prelude::*;

/// Fragments of request lines plus near misses.
const WIRE_TOKENS: &[&str] = &[
    "X",
    "n",
    "m",
    "=",
    ",",
    " ",
    "\t",
    "deadline_ms",
    "0",
    "5",
    "2000",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+3",
    "STATS",
    "METRICS",
    "SLOW",
    "CACHE",
    "é",
    "\u{0}",
];

/// Lossy UTF-8 of arbitrary bytes.
fn bytes() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..160)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn soup(tokens: &'static [&'static str], len: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(tokens.to_vec()), 0..len).prop_map(|t| t.concat())
}

/// [`PROGRAM`] after up to three random single-character edits: an
/// insertion of a token, a deletion, or a replacement by a token.
fn mutated() -> impl Strategy<Value = String> {
    let edit = (
        any::<usize>(),
        0..3usize,
        prop::sample::select(SOURCE_TOKENS.to_vec()),
    );
    prop::collection::vec(edit, 1..4).prop_map(|edits| edited(PROGRAM, &edits))
}

/// Lexes, parses and lowers `input` as `gmcc` does, checking the
/// error values on the way.
fn compile_front(input: &str) {
    if let Ok(tokens) = lex(input) {
        let lines = input.lines().count().max(1);
        for t in &tokens {
            assert!(t.line >= 1 && t.line <= lines + 1 && t.col >= 1, "{t:?}");
        }
    }
    match parse(input) {
        Ok(problem) => {
            for (_, expr) in &problem.assignments {
                let _ = Chain::from_expr(expr);
            }
        }
        Err(e) => assert!(render_error(input, &e).starts_with("error: ")),
    }
}

fn request_line(line: &str) {
    if let Ok((name, vars, _)) = parse_request_line(line) {
        assert!(!name.is_empty() && !name.contains(char::is_whitespace));
        for (var, _) in &vars {
            assert!(!var.is_empty() && var != "deadline_ms");
        }
    }
}

#[test]
fn the_edited_program_is_valid() {
    let problem = parse(PROGRAM).expect("valid program");
    for (_, expr) in &problem.assignments {
        Chain::from_expr(expr).expect("a chain");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn frontend_survives_arbitrary_bytes(input in bytes()) {
        compile_front(&input);
    }

    #[test]
    fn frontend_survives_token_soup(body in soup(SOURCE_TOKENS, 40), preamble in any::<bool>()) {
        let input = if preamble { format!("{PREAMBLE}{body}") } else { body };
        compile_front(&input);
    }

    #[test]
    fn frontend_survives_edited_programs(input in mutated()) {
        compile_front(&input);
    }

    #[test]
    fn request_parser_survives_arbitrary_bytes(line in bytes()) {
        request_line(&line);
    }

    #[test]
    fn request_parser_survives_token_soup(line in soup(WIRE_TOKENS, 24)) {
        request_line(&line);
    }
}
