//! Inputs shared by the frontend's arbitrary-input test and its pin:
//! fragments of the input language, a preamble and a valid program, and
//! the single-character edit both tests apply to it.

/// Fragments of the input language plus near misses: sizes that
/// overflow, unknown properties, stray operators, non-ASCII text.
pub const SOURCE_TOKENS: &[&str] = &[
    "Matrix",
    "Vector",
    "A",
    "B",
    "x",
    "n",
    "m",
    "X",
    ":=",
    ":",
    "=",
    "(",
    ")",
    "<",
    ">",
    ",",
    "+",
    "*",
    "-",
    "^T",
    "^-1",
    "^-T",
    "^",
    "^-",
    "'",
    "0",
    "1",
    "2000",
    "18446744073709551616",
    "99999999999999999999999999",
    "SPD",
    "LowerTriangular",
    "UpperTriangular",
    "Diagonal",
    "Symmetric",
    "Identity",
    "Bogus",
    "#",
    " ",
    "\t",
    "\n",
    "\r\n",
    ";",
    "é",
];

/// A well-formed preamble, so token soups also reach the assignment
/// grammar and the lowering to expressions.
pub const PREAMBLE: &str = "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nVector x (m)\n";

/// A valid program to edit.
pub const PROGRAM: &str =
    "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nMatrix C (m, m) <LowerTriangular>\n\
                       Vector x (m)\nX := A^-1 * B * C^T\nY := x' * B^T * A^-T * B\n";

/// `program` after `edits`, each `(at, kind, token)`: at the character
/// boundary `at` picks (modulo their count), kind 0 inserts `token`,
/// kind 1 deletes the next character and kind 2 replaces it by `token`.
pub fn edited(program: &str, edits: &[(usize, usize, &str)]) -> String {
    let mut s = program.to_owned();
    for &(at, kind, token) in edits {
        let cuts: Vec<usize> = s.char_indices().map(|(i, _)| i).chain([s.len()]).collect();
        let c = at % cuts.len();
        let (start, end) = (cuts[c], cuts[(c + 1).min(cuts.len() - 1)]);
        match kind {
            0 => s.insert_str(start, token),
            1 => s.replace_range(start..end, ""),
            _ => s.replace_range(start..end, token),
        }
    }
    s
}
