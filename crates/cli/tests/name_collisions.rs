//! Operand names that collide with the names `gmcc` generates, end to
//! end: a temporary must never overwrite an input, and the Rust emitter
//! must never read two matrices through one identifier.

use gmc_cli::{compile, run_serve_batch, Emit, Options, ServeOptions};

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
fn serve_accepts_an_input_named_like_a_temporary() {
    let source = "\
Matrix T0_1 (30, 20)
Matrix B (20, 40)
Matrix C (40, 10)
X := T0_1 * B * C
";
    let out = run_serve_batch(source, "X\n", &ServeOptions::default()).expect("serves");
    assert!(
        out.contains(r#""parenthesization":"(T0_1 (B C))","kernels":["GEMM_NN","GEMM_NN"]"#),
        "{out}"
    );
}

#[test]
fn bound_symbolic_chain_accepts_an_input_named_like_a_temporary() {
    let source = "\
Matrix T0_1 (n, m)
Matrix B (m, k)
Matrix C (k, n)
X := T0_1 * B * C
";
    let options = Options {
        check: true,
        bind: vec![("n".into(), 30), ("m".into(), 20), ("k".into(), 40)],
        ..Options::default()
    };
    let out = compile(source, &options).expect("compiles");
    assert!(out.contains("check: OK"), "{out}");
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
