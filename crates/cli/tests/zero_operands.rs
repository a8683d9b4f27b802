//! `Zero` operands of non-square shape, end to end through `gmcc`.
//!
//! The zero matrix is trivially diagonal and symmetric, but only when it
//! is square. A rectangular `Zero` operand, or a rectangular zero
//! temporary, must not carry those properties: a triangular kernel would
//! otherwise be applied to a non-square matrix.

use gmc_cli::{compile, Options};

fn checked() -> Options {
    Options {
        check: true,
        ..Options::default()
    }
}

/// The `# parenthesization:` and `# cost:` lines of a report.
fn decision(report: &str) -> Vec<&str> {
    report
        .lines()
        .filter(|l| l.starts_with("# parenthesization:") || l.starts_with("# cost:"))
        .collect()
}

#[test]
fn rectangular_zero_operand_parses_and_compiles() {
    let source = "Matrix Z (3, 5) <Zero>\nMatrix B (5, 4)\nX := Z * B\n";
    let out = compile(source, &checked()).expect("compiles");
    assert!(out.contains("# check: OK"), "{out}");
}

#[test]
fn zero_temporary_of_a_vector_shape_is_not_triangular() {
    let concrete = "\
Matrix M0 (5, 13)
Matrix M1 (13, 5)
Matrix M2 (5, 5) <Zero>
Matrix M3 (5, 1)
Matrix M4 (1, 40)
Matrix M5 (40, 5)
X := M0 * M1 * M2^T * M3 * M4 * M5
";
    let out = compile(concrete, &checked()).expect("compiles");
    assert!(out.contains("# check: OK"), "{out}");
    assert!(!out.contains("trmm"), "{out}");

    let symbolic = "\
Matrix M0 (a, b)
Matrix M1 (b, a)
Matrix M2 (a, a) <Zero>
Matrix M3 (a, c)
Matrix M4 (c, d)
Matrix M5 (d, a)
X := M0 * M1 * M2^T * M3 * M4 * M5
";
    let bound = Options {
        bind: vec![
            ("a".to_owned(), 5),
            ("b".to_owned(), 13),
            ("c".to_owned(), 1),
            ("d".to_owned(), 40),
        ],
        ..checked()
    };
    let served = compile(symbolic, &bound).expect("compiles");
    assert!(served.contains("# check: OK"), "{served}");
    assert_eq!(decision(&served), decision(&out));
}
