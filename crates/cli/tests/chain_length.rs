//! `gmcc` refuses a chain longer than `MAX_FACTORS`, concrete or
//! symbolic, with an error that names its length and the bound, before
//! any DP table is sized for it. The 256-factor chains these sources
//! build are checked in the frontend's tests, which do not solve them.

use gmc_cli::{compile, Options};
use gmc_expr::MAX_FACTORS;

/// `X := A * … * A` with `len` factors over `A`'s dimensions `dims`.
fn power(dims: &str, len: usize) -> String {
    format!("Matrix A ({dims})\nX := {}\n", vec!["A"; len].join(" * "))
}

#[test]
fn chains_past_the_bound_are_refused() {
    let err = compile(&power("10, 10", MAX_FACTORS + 1), &Options::default()).unwrap_err();
    assert_eq!(
        err,
        "assignment `X`: matrix chain has 257 factors, above the bound of 256"
    );
    let err = compile(&power("n, n", MAX_FACTORS + 1), &Options::default()).unwrap_err();
    assert!(
        err.starts_with(
            "error: assignment `X`: symbolic chain has 257 factors, above the bound of 256\n"
        ),
        "{err}"
    );
    // The echoed source line is cut to a window around the error.
    assert!(err.len() < 1024, "{} bytes:\n{err}", err.len());
}
