//! Rendering: caret-style error display against the source text, and
//! rendering a parsed [`Problem`] back to input-language source
//! (including symbolic dimension identifiers).

use crate::parser::Problem;
use crate::ParseError;
use gmc_expr::{Dim, Expr, SymChain};
use std::fmt::Write as _;

/// Columns of the offending line that [`render_error`] shows on each
/// side of the error's.
const WINDOW: usize = 40;

/// Renders a parse error with the offending source line and a caret:
///
/// ```text
/// error: operand `Q` is not defined
///   --> 2:10
///    |
///  2 | X := A * Q
///    |          ^
/// ```
///
/// Columns count characters, and a tab is one column, so the caret's
/// padding repeats the line's tabs: it lines up under the error at any
/// tab width. A line longer than `2 × 40 + 1` characters shows only
/// that many around the error, with `…` where it is cut, so a long line
/// renders short.
pub fn render_error(source: &str, error: &ParseError) -> String {
    let mut out = format!("error: {}\n", error.message);
    if error.line == 0 {
        out.push_str("  --> end of input\n");
        return out;
    }
    writeln!(out, "  --> {}:{}", error.line, error.col).expect("string write");
    if let Some(line) = source.lines().nth(error.line - 1) {
        let chars: Vec<char> = line.chars().collect();
        let at = error.col.saturating_sub(1);
        let start = at
            .saturating_sub(WINDOW)
            .min(chars.len().saturating_sub(2 * WINDOW + 1));
        let end = chars.len().min(start + 2 * WINDOW + 1);
        let (left, right) = (start > 0, end < chars.len());
        let ellipsis = |cut: bool| if cut { "…" } else { "" };
        let shown: String = chars[start..end].iter().collect();
        let gutter = error.line.to_string();
        let pad = " ".repeat(gutter.len());
        let mut caret_pad = String::from(if left { " " } else { "" });
        caret_pad.extend(
            chars[start..end]
                .iter()
                .copied()
                .chain(std::iter::repeat(' '))
                .take(at - start)
                .map(|c| if c == '\t' { '\t' } else { ' ' }),
        );
        writeln!(out, " {pad} |").expect("string write");
        writeln!(
            out,
            " {gutter} | {}{shown}{}",
            ellipsis(left),
            ellipsis(right)
        )
        .expect("string write");
        writeln!(out, " {pad} | {caret_pad}^").expect("string write");
    }
    out
}

/// Renders a parsed problem back to input-language source text.
///
/// Round-trips through [`crate::parse`]: definitions (with symbolic
/// dimension identifiers rendered as such, `n×1` shapes rendered as
/// `Vector` definitions, properties in `<...>` lists) followed by the
/// assignments. In mixed problems the concrete assignments render
/// before the symbolic ones, matching how [`Problem`] partitions them.
///
/// ```
/// use gmc_frontend::{parse, render_problem};
///
/// let src = "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nX := A^-1 * B\n";
/// let rendered = render_problem(&parse(src).unwrap());
/// assert_eq!(rendered, src);
/// ```
pub fn render_problem(problem: &Problem) -> String {
    let mut out = String::new();
    match &problem.symbolic {
        // `symbolic.operands` carries every definition (concrete dims
        // as constants), so it is the single source for definitions.
        Some(sym) => {
            for op in &sym.operands {
                render_definition(
                    &mut out,
                    op.name(),
                    op.shape().rows(),
                    op.shape().cols(),
                    op.properties(),
                );
            }
        }
        None => {
            for op in &problem.operands {
                render_definition(
                    &mut out,
                    op.name(),
                    Dim::Const(op.shape().rows()),
                    Dim::Const(op.shape().cols()),
                    op.properties(),
                );
            }
        }
    }
    for (target, expr) in &problem.assignments {
        out.push_str(&format!("{target} := {}\n", render_expr(expr)));
    }
    if let Some(sym) = &problem.symbolic {
        for (target, chain) in &sym.chains {
            out.push_str(&format!("{target} := {}\n", render_chain(chain)));
        }
    }
    out
}

fn render_definition(
    out: &mut String,
    name: &str,
    rows: Dim,
    cols: Dim,
    props: gmc_expr::PropertySet,
) {
    let mut line = if cols == Dim::Const(1) && rows != Dim::Const(1) {
        format!("Vector {name} ({rows})")
    } else {
        format!("Matrix {name} ({rows}, {cols})")
    };
    line.push_str(&render_properties(props));
    out.push_str(&line);
    out.push('\n');
}

fn render_properties(ps: gmc_expr::PropertySet) -> String {
    if ps.is_empty() {
        return String::new();
    }
    // Render only the generators: drop properties implied by another
    // member, so `<SPD>` does not round-trip as `<Symmetric, SPD, ...>`.
    let members: Vec<_> = ps.iter().collect();
    let generators: Vec<&str> = members
        .iter()
        .filter(|p| {
            !members
                .iter()
                .any(|q| q != *p && gmc_expr::PropertySet::new().with(*q).contains(**p))
        })
        .map(|p| p.name())
        .collect();
    format!(" <{}>", generators.join(", "))
}

/// Renders an expression in input-language syntax (explicit `*`).
fn render_expr(e: &Expr) -> String {
    fn prec(e: &Expr) -> u8 {
        match e {
            Expr::Plus(_) => 0,
            Expr::Times(_) => 1,
            Expr::Transpose(_) | Expr::Inverse(_) | Expr::InverseTranspose(_) => 2,
            Expr::Symbol(_) => 3,
        }
    }
    fn go(e: &Expr, min: u8, out: &mut String) {
        let parens = prec(e) < min;
        if parens {
            out.push('(');
        }
        match e {
            Expr::Symbol(op) => out.push_str(op.name()),
            Expr::Times(fs) => {
                for (i, f) in fs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" * ");
                    }
                    go(f, 2, out);
                }
            }
            Expr::Plus(ts) => {
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        out.push_str(" + ");
                    }
                    go(t, 1, out);
                }
            }
            Expr::Transpose(inner) => {
                go(inner, 3, out);
                out.push_str("^T");
            }
            Expr::Inverse(inner) => {
                go(inner, 3, out);
                out.push_str("^-1");
            }
            Expr::InverseTranspose(inner) => {
                go(inner, 3, out);
                out.push_str("^-T");
            }
        }
        if parens {
            out.push(')');
        }
    }
    let mut out = String::new();
    go(e, 0, &mut out);
    out
}

fn render_chain(chain: &SymChain) -> String {
    chain
        .factors()
        .iter()
        .map(|f| format!("{}{}", f.operand().name(), f.op().suffix()))
        .collect::<Vec<_>>()
        .join(" * ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn renders_line_and_caret() {
        let source = "Matrix A (5, 5)\nX := A * Q\n";
        let err = parse(source).unwrap_err();
        let text = render_error(source, &err);
        assert!(text.contains("error: operand `Q` is not defined"));
        assert!(text.contains("--> 2:10"));
        assert!(text.contains("2 | X := A * Q"));
        // The caret lines up under the Q: the gutter " 2 | " is five
        // characters, and Q is at column 10 (index 9 in the line).
        let caret_line = text.lines().last().unwrap();
        assert_eq!(caret_line.find('^'), Some(5 + 9));
        let source_line = text.lines().nth(text.lines().count() - 2).unwrap();
        assert_eq!(source_line.chars().nth(5 + 9), Some('Q'));
    }

    /// Asserts that the caret of `source`'s rendered error sits under
    /// `at`, counting characters, with a tab above every tab.
    fn assert_caret_under(source: &str, at: char) {
        let err = parse(source).unwrap_err();
        let text = render_error(source, &err);
        let lines: Vec<&str> = text.lines().collect();
        let (source_line, caret_line) = (lines[lines.len() - 2], lines[lines.len() - 1]);
        let caret = caret_line.chars().position(|c| c == '^').unwrap();
        assert_eq!(source_line.chars().nth(caret), Some(at), "{text}");
        for (s, c) in source_line.chars().zip(caret_line.chars()).take(caret) {
            assert_eq!(s == '\t', c == '\t', "{text:?}");
        }
    }

    #[test]
    fn caret_follows_tabs() {
        assert_caret_under("Matrix A (5, 5)\n\tX := A * Q\n", 'Q');
        assert_caret_under("X\t:=\tA\t*\tQ", 'A');
        assert_caret_under("Matrix A (5, 5)\nX\t:=\tA\t*\tQ", 'Q');
        assert_caret_under("Matrix A (5, 5)\nX := A * é\t* Q", 'é');
    }

    #[test]
    fn long_lines_show_a_window_around_the_error() {
        // The error at the 257th of 15 000 nested parentheses: 30 351
        // bytes when the whole line was echoed.
        let deep = format!(
            "Matrix A (10, 10)\nX := {}A{}",
            "(".repeat(15_000),
            ")".repeat(15_000)
        );
        let text = render_error(&deep, &parse(&deep).unwrap_err());
        assert!(text.len() < 1024, "{} bytes:\n{text}", text.len());
        let shown = text.lines().nth(3).unwrap();
        assert_eq!(shown, format!(" 2 | …{}…", "(".repeat(81)));
        assert_caret_under(&deep, '(');
        // Cut on the right only, and on the left only, with tabs.
        let early = format!("X := Q * {}A", "A * ".repeat(40));
        let text = render_error(&early, &parse(&early).unwrap_err());
        assert!(text.contains(" 1 | X := Q * A * "), "{text}");
        assert!(text.lines().nth(3).unwrap().ends_with('…'), "{text}");
        assert_caret_under(&early, 'Q');
        let late = format!("Matrix A (5, 5)\nX := {}Q", "A\t*\t".repeat(40));
        assert_caret_under(&late, 'Q');
        let text = render_error(&late, &parse(&late).unwrap_err());
        assert!(text.lines().nth(3).unwrap().starts_with(" 2 | …"), "{text}");
        assert!(text.lines().nth(3).unwrap().ends_with("\tQ"), "{text}");
    }

    #[test]
    fn renders_end_of_input() {
        let source = "Matrix A (5, 5)";
        let err = parse(source).unwrap_err();
        let text = render_error(source, &err);
        assert!(text.contains("end of input"));
    }

    #[test]
    fn renders_lex_errors() {
        let source = "Matrix A (5, 5)\nX := A $ B\n";
        let err = parse(source).unwrap_err();
        let text = render_error(source, &err);
        assert!(text.contains("unexpected character"));
        assert!(text.contains("2 | X := A $ B"));
    }

    #[test]
    fn concrete_problem_round_trips() {
        let src = "Matrix A (2000, 2000) <SPD>\nMatrix B (2000, 200)\n\
                   Matrix C (200, 200) <LowerTriangular>\nX := A^-1 * B * C^T\n";
        let rendered = render_problem(&parse(src).unwrap());
        assert_eq!(rendered, src);
        // Idempotent: parse(render(p)) renders identically.
        assert_eq!(render_problem(&parse(&rendered).unwrap()), rendered);
    }

    #[test]
    fn symbolic_problem_round_trips() {
        let src = "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nVector v (m)\nX := A^-1 * B * v\n";
        let p = parse(src).unwrap();
        assert!(p.is_symbolic());
        let rendered = render_problem(&p);
        assert_eq!(rendered, src);
        assert_eq!(render_problem(&parse(&rendered).unwrap()), rendered);
    }

    #[test]
    fn expression_rendering_parenthesizes() {
        let src = "Matrix A (5, 5)\nMatrix B (5, 5)\nX := (A + B) * B^T\n";
        let rendered = render_problem(&parse(src).unwrap());
        assert_eq!(rendered, src);
    }

    #[test]
    fn normalized_symbolic_assignments_render_flat() {
        // The parser distributes unary operators over symbolic
        // products, so the rendered form is the normalized chain.
        let p = parse("Matrix A (n, n)\nMatrix B (n, n)\nX := (A * B)^-1\n").unwrap();
        let rendered = render_problem(&p);
        assert!(rendered.contains("X := B^-1 * A^-1"), "{rendered}");
    }
}
