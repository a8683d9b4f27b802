//! Operand names that collide with the names `gmcc` generates, end to
//! end: a temporary must never overwrite an input, and the Rust emitter
//! must never read two matrices through one identifier.

use gmc_cli::{compile, Emit, Options};

#[test]
fn temporaries_do_not_overwrite_an_input_named_like_one() {
    // `(B C) D` lands in the cell `T1_2` names, while the input `T1_2`
    // is still to be read.
    let source = "\
Matrix T1_2 (30, 20)
Matrix B (20, 40)
Matrix C (40, 10)
Matrix D (10, 10)
X := T1_2 * B * C * D
";
    let options = Options {
        check: true,
        ..Options::default()
    };
    let out = compile(source, &options).expect("compiles");
    assert!(out.contains("# check: OK"), "{out}");
    assert!(
        out.contains("# parenthesization: (T1_2 ((B C) D))"),
        "{out}"
    );
    assert!(!out.contains("T1_2 = "), "an input is overwritten:\n{out}");
}

#[test]
fn rust_emitter_rejects_names_that_sanitize_to_one_identifier() {
    let source = "\
Matrix A (30, 20)
Matrix a (20, 40)
Matrix C (40, 10)
X := A * a * C
";
    let options = Options {
        emit: Emit::Rust,
        ..Options::default()
    };
    let out = compile(source, &options).expect("compiles");
    assert!(
        out.contains("compile_error!(\"gmc-codegen: operand `A` collides"),
        "{out}"
    );
}
