//! Recursive-descent parser and lowering for the input language.
//!
//! Grammar (paper Fig. 1–2, with explicit `*` for products, a
//! Matlab-style `'` transpose shorthand, and dimensions that may be
//! *identifiers* — symbolic size variables):
//!
//! ```text
//! problem     → definition+ assignment+
//! definition  → ("Matrix" | "Vector") name "(" dim ("," dim)? ")" properties?
//! dim         → int | name
//! properties  → "<" name ("," name)* ">"
//! assignment  → name ":=" expr
//! expr        → term ("+" term)*
//! term        → factor ("*" factor)*
//! factor      → primary ("^T" | "^-1" | "^-T" | "'")*
//! primary     → name | "(" expr ")"
//! ```
//!
//! A problem whose definitions are all concrete lowers to [`Operand`]s
//! and [`Expr`]s exactly as before. As soon as one dimension is an
//! identifier (`Matrix A (n, m)`), the problem lowers to a
//! [`SymbolicProblem`] instead: symbolic operands plus one [`SymChain`]
//! per assignment, ready for `gmc-plan`'s cache. Symbolic assignments
//! must be products (sums have no chain form).
//!
//! The parser pulls tokens from the lexer one at a time and copies
//! none of them. Definitions go into one table, in definition order,
//! looked up by the names they borrow from the source; a concrete
//! definition lowers straight to its [`Operand`]. A right-hand side is
//! parsed to postfix code over the table's indices, then lowered to an
//! [`Expr`] or to chain factors.

use crate::lexer::{LexError, Lexer, Tok, Token};
use gmc_expr::{
    Dim, Expr, Operand, Property, PropertySet, Shape, SymChain, SymFactor, SymOperand, SymShape,
    MAX_DIM,
};
use std::collections::HashMap;
use std::fmt;

/// How deeply parentheses may nest in a right-hand side: each level
/// costs the recursive descent four stack frames, so a deeper input
/// gets a positioned error instead of overflowing the stack.
const MAX_PAREN_DEPTH: usize = 256;

/// A parsed problem: operand definitions plus assignments.
///
/// Assignments are split by what they reference: those touching only
/// concretely-sized operands lower to [`Expr`]s in `assignments`
/// (exactly as before symbolic dimensions existed), while assignments
/// referencing at least one symbolically-sized operand lower to
/// [`SymChain`]s in `symbolic`. `symbolic` is `Some` iff any
/// definition uses an identifier dimension; its `operands` list always
/// carries *every* definition (concrete ones with constant dims).
#[derive(Clone, Debug)]
pub struct Problem {
    /// Concretely-sized operands, in definition order.
    pub operands: Vec<Operand>,
    /// Assignments referencing only concrete operands, in order.
    pub assignments: Vec<(String, Expr)>,
    /// The symbolic lowering, when any dimension is an identifier.
    pub symbolic: Option<SymbolicProblem>,
}

/// A problem with symbolic dimensions.
#[derive(Clone, Debug)]
pub struct SymbolicProblem {
    /// Defined operands, in definition order.
    pub operands: Vec<SymOperand>,
    /// `(target name, chain)` pairs, in order.
    pub chains: Vec<(String, SymChain)>,
}

impl SymbolicProblem {
    /// Looks up a defined operand by name.
    pub fn operand(&self, name: &str) -> Option<&SymOperand> {
        self.operands.iter().find(|o| o.name() == name)
    }
}

impl Problem {
    /// Looks up a defined concrete operand by name.
    pub fn operand(&self, name: &str) -> Option<&Operand> {
        self.operands.iter().find(|o| o.name() == name)
    }

    /// Whether the problem uses symbolic dimensions.
    pub fn is_symbolic(&self) -> bool {
        self.symbolic.is_some()
    }
}

/// A parse (or lowering) error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub message: String,
    /// 1-based line (0 for end-of-input).
    pub line: usize,
    /// 1-based column (0 for end-of-input).
    pub col: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "end of input: {}", self.message)
        } else {
            write!(f, "{}:{}: {}", self.line, self.col, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses a complete problem description.
///
/// # Errors
///
/// Returns a [`ParseError`] with the source position of the first
/// offending token; lowering errors (unknown operand, duplicate
/// definition, unknown property, property on a non-square matrix, a
/// property contradicting the operand's others, zero dimensions,
/// malformed symbolic chains) are reported the same way. A
/// lex error anywhere in the input wins over every other error, as if
/// the whole input were lexed before parsing.
pub fn parse(input: &str) -> Result<Problem, ParseError> {
    let mut parser = Parser::new(input);
    let parsed = parser.problem();
    match parser.lex_error() {
        Some(e) => Err(e.into()),
        None => parsed,
    }
}

/// One node of an assignment's right-hand side in postfix order: an
/// operand reference, or an operator over the nodes before it.
#[derive(Clone, Copy)]
enum Node {
    /// A definition, by its index in the table.
    Ref(usize),
    /// A product of the last `n` expressions.
    Mul(usize),
    /// A sum of the last `n` expressions.
    Add(usize),
    Transpose,
    Inverse,
    InverseTranspose,
}

/// A defined operand as the lowering needs it.
enum Lowered {
    /// Concretely sized: the operand itself.
    Concrete(Operand),
    /// Sized by at least one dimension variable.
    Symbolic(SymOperand),
}

impl Lowered {
    /// Adds a property, or returns the shape that cannot carry it.
    fn with_property(self, p: Property) -> Result<Self, SymShape> {
        match self {
            Lowered::Concrete(op) => {
                let shape = op.shape();
                if p.requires_square() && !shape.is_square() {
                    return Err(shape.to_sym());
                }
                Ok(Lowered::Concrete(op.with_property(p)))
            }
            Lowered::Symbolic(op) => {
                let shape = op.shape();
                op.with_property(p)
                    .map(Lowered::Symbolic)
                    .map_err(|_| shape)
            }
        }
    }

    fn properties(&self) -> PropertySet {
        match self {
            Lowered::Concrete(op) => op.properties(),
            Lowered::Symbolic(op) => op.properties(),
        }
    }

    /// The operand with constant dimensions where it has them.
    fn to_symbolic(&self) -> SymOperand {
        match self {
            Lowered::Symbolic(op) => op.clone(),
            Lowered::Concrete(op) => {
                let shape = op.shape().to_sym();
                SymOperand::new(op.name(), shape.rows(), shape.cols())
                    .with_properties(op.properties().iter())
                    .expect("a concrete operand carries only properties its shape admits")
            }
        }
    }
}

/// The definitions, in definition order, indexed by the name they
/// borrow from the source.
struct Definitions<'a> {
    list: Vec<Lowered>,
    index: HashMap<&'a str, usize>,
}

impl<'a> Definitions<'a> {
    fn find(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    fn push(&mut self, name: &'a str, operand: Lowered) {
        self.index.insert(name, self.list.len());
        self.list.push(operand);
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The next token: `None` at the end of the input, and at a lex
    /// error, which `lex_error` then holds.
    next: Option<Token<'a>>,
    lex_error: Option<LexError>,
    defs: Definitions<'a>,
    /// The right-hand side being parsed, in postfix order.
    code: Vec<Node>,
    /// Whether `code` references a symbolically sized operand.
    refs_symbolic: bool,
    /// Parentheses open around the next token.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        let mut parser = Parser {
            lexer: Lexer::new(input),
            next: None,
            lex_error: None,
            defs: Definitions {
                list: Vec::new(),
                index: HashMap::new(),
            },
            code: Vec::new(),
            refs_symbolic: false,
            depth: 0,
        };
        parser.advance();
        parser
    }

    fn advance(&mut self) {
        self.next = match self.lexer.next() {
            Some(Ok(t)) => Some(t),
            Some(Err(e)) => {
                self.lex_error = Some(e);
                None
            }
            None => None,
        };
    }

    /// The first lex error in the whole input, lexing what the parser
    /// did not reach.
    fn lex_error(&mut self) -> Option<LexError> {
        if self.lex_error.is_none() {
            self.lex_error = self.lexer.by_ref().find_map(Result::err);
        }
        self.lex_error.take()
    }

    fn peek_tok(&self) -> Option<Tok<'a>> {
        self.next.map(|t| t.tok)
    }

    fn error_at(&self, message: impl Into<String>) -> ParseError {
        let (line, col) = self.next.map_or((0, 0), |t| (t.line, t.col));
        ParseError {
            message: message.into(),
            line,
            col,
        }
    }

    fn expect(&mut self, want: Tok<'_>) -> Result<(), ParseError> {
        match self.next {
            Some(t) if t.tok == want => {
                self.advance();
                Ok(())
            }
            Some(t) => Err(self.error_at(format!("expected {want}, found {}", t.tok))),
            None => Err(self.error_at(format!("expected {want}"))),
        }
    }

    fn ident(&mut self) -> Result<(&'a str, usize, usize), ParseError> {
        match self.next {
            Some(Token {
                tok: Tok::Ident(name),
                line,
                col,
            }) => {
                self.advance();
                Ok((name, line, col))
            }
            Some(t) => Err(self.error_at(format!("expected identifier, found {}", t.tok))),
            None => Err(self.error_at("expected identifier")),
        }
    }

    /// A dimension: an integer literal or a size-variable identifier.
    fn dim(&mut self) -> Result<(Dim, usize, usize), ParseError> {
        let Some(Token { tok, line, col }) = self.next else {
            return Err(self.error_at("expected a dimension (integer or identifier)"));
        };
        let dim = match tok {
            Tok::Int(v) if v > MAX_DIM => {
                return Err(self.error_at(format!(
                    "dimension {v} is above the maximum 2^32 ({MAX_DIM})"
                )))
            }
            Tok::Int(v) => Dim::Const(v),
            Tok::Ident(name) => Dim::var(name),
            _ => return Err(self.error_at("expected a dimension (integer or identifier)")),
        };
        self.advance();
        Ok((dim, line, col))
    }

    fn problem(&mut self) -> Result<Problem, ParseError> {
        let mut assignments = Vec::new();
        let mut chains = Vec::new();
        // A symbolic assignment that fails to lower is reported only
        // once the whole input has parsed: parse errors come first.
        let mut lowering_error = None;
        let mut any_assignment = false;
        while let Some(tok) = self.peek_tok() {
            match tok {
                Tok::Matrix | Tok::Vector => self.definition(tok == Tok::Vector)?,
                Tok::Ident(_) => {
                    let (target, line, col) = self.ident()?;
                    self.expect(Tok::Assign)?;
                    self.code.clear();
                    self.refs_symbolic = false;
                    self.expr()?;
                    any_assignment = true;
                    if !self.refs_symbolic {
                        assignments.push((target.to_owned(), self.lower_expr()));
                        continue;
                    }
                    let chain = self
                        .lower_sym_factors()
                        .and_then(|factors| SymChain::new(factors).map_err(|e| e.to_string()));
                    match chain {
                        Ok(chain) => chains.push((target.to_owned(), chain)),
                        Err(m) if lowering_error.is_none() => {
                            lowering_error = Some(ParseError {
                                message: format!("assignment `{target}`: {m}"),
                                line,
                                col,
                            });
                        }
                        Err(_) => {}
                    }
                }
                _ => return Err(self.error_at("expected a definition or an assignment")),
            }
        }
        if !any_assignment {
            // The input is used up: the error has no position.
            return Err(self.error_at("problem contains no assignment"));
        }
        if let Some(e) = lowering_error {
            return Err(e);
        }
        let defs = &self.defs.list;
        let mut operands = Vec::with_capacity(defs.len());
        operands.extend(defs.iter().filter_map(|d| match d {
            Lowered::Concrete(op) => Some(op.clone()),
            Lowered::Symbolic(_) => None,
        }));
        // Any symbolic definition makes the problem symbolic.
        let symbolic = (operands.len() < defs.len()).then(|| SymbolicProblem {
            operands: defs.iter().map(Lowered::to_symbolic).collect(),
            chains,
        });
        Ok(Problem {
            operands,
            assignments,
            symbolic,
        })
    }

    fn definition(&mut self, is_vector: bool) -> Result<(), ParseError> {
        self.advance();
        let (name, line, col) = self.ident()?;
        if self.defs.find(name).is_some() {
            return Err(ParseError {
                message: format!("operand `{name}` defined twice"),
                line,
                col,
            });
        }
        self.expect(Tok::LParen)?;
        let (rows, rline, rcol) = self.dim()?;
        let cols = if is_vector {
            self.expect(Tok::RParen)?;
            Dim::Const(1)
        } else {
            self.expect(Tok::Comma)?;
            let (cols, _, _) = self.dim()?;
            self.expect(Tok::RParen)?;
            cols
        };
        let at_rows = |message| ParseError {
            message,
            line: rline,
            col: rcol,
        };
        // Zero sizes are rejected here rather than panicking later:
        // concrete pairs go through `Shape::try_new`, and constant
        // components of symbolic shapes are checked individually.
        let mut operand = match (rows.as_const(), cols.as_const()) {
            (Some(r), Some(c)) => {
                let shape =
                    Shape::try_new(r, c).map_err(|e| at_rows(format!("operand `{name}`: {e}")))?;
                Lowered::Concrete(Operand::with_shape(name, shape))
            }
            _ if rows.as_const() == Some(0) || cols.as_const() == Some(0) => {
                return Err(at_rows(format!(
                    "operand `{name}`: matrix dimensions must be positive"
                )));
            }
            _ => Lowered::Symbolic(SymOperand::new(name, rows, cols)),
        };
        if self.peek_tok() == Some(Tok::LAngle) {
            self.advance();
            loop {
                let (pname, pline, pcol) = self.ident()?;
                let at_property = |message| ParseError {
                    message,
                    line: pline,
                    col: pcol,
                };
                let property: Property = pname
                    .parse()
                    .map_err(|_| at_property(format!("unknown property `{pname}`")))?;
                operand = operand.with_property(property).map_err(|shape| {
                    at_property(format!(
                        "property {property} requires a square matrix, but `{name}` is {shape}"
                    ))
                })?;
                if !operand.properties().is_consistent() {
                    return Err(at_property(format!(
                        "property {property} contradicts the other properties of `{name}`"
                    )));
                }
                match self.peek_tok() {
                    Some(Tok::Comma) => self.advance(),
                    Some(Tok::RAngle) => {
                        self.advance();
                        break;
                    }
                    _ => return Err(self.error_at("expected `,` or `>` in property list")),
                }
            }
        }
        self.defs.push(name, operand);
        Ok(())
    }

    fn expr(&mut self) -> Result<(), ParseError> {
        self.term()?;
        let mut terms = 1;
        while self.peek_tok() == Some(Tok::Plus) {
            self.advance();
            self.term()?;
            terms += 1;
        }
        if terms > 1 {
            self.code.push(Node::Add(terms));
        }
        Ok(())
    }

    fn term(&mut self) -> Result<(), ParseError> {
        self.factor()?;
        let mut factors = 1;
        while self.peek_tok() == Some(Tok::Star) {
            self.advance();
            self.factor()?;
            factors += 1;
        }
        if factors > 1 {
            self.code.push(Node::Mul(factors));
        }
        Ok(())
    }

    fn factor(&mut self) -> Result<(), ParseError> {
        self.primary()?;
        loop {
            let node = match self.peek_tok() {
                Some(Tok::Transpose | Tok::Tick) => Node::Transpose,
                Some(Tok::Inverse) => Node::Inverse,
                Some(Tok::InverseTranspose) => Node::InverseTranspose,
                _ => return Ok(()),
            };
            self.advance();
            self.code.push(node);
        }
    }

    fn primary(&mut self) -> Result<(), ParseError> {
        match self.peek_tok() {
            Some(Tok::LParen) => {
                if self.depth == MAX_PAREN_DEPTH {
                    let message = format!("parentheses nest deeper than {MAX_PAREN_DEPTH} levels");
                    return Err(self.error_at(message));
                }
                self.depth += 1;
                self.advance();
                self.expr()?;
                self.depth -= 1;
                self.expect(Tok::RParen)
            }
            Some(Tok::Ident(_)) => {
                let (name, line, col) = self.ident()?;
                let Some(i) = self.defs.find(name) else {
                    return Err(ParseError {
                        message: format!("operand `{name}` is not defined"),
                        line,
                        col,
                    });
                };
                self.refs_symbolic |= matches!(self.defs.list[i], Lowered::Symbolic(_));
                self.code.push(Node::Ref(i));
                Ok(())
            }
            _ => Err(self.error_at("expected an operand or `(`")),
        }
    }

    /// Lowers the parsed right-hand side over concrete operands, through
    /// the `Expr` constructors (and hence their simplifications).
    fn lower_expr(&self) -> Expr {
        let mut stack = Vec::with_capacity(self.code.len());
        for &node in &self.code {
            let e = match node {
                Node::Ref(i) => match &self.defs.list[i] {
                    Lowered::Concrete(op) => op.expr(),
                    Lowered::Symbolic(_) => unreachable!("the caller checked every reference"),
                },
                Node::Mul(n) => Expr::times(stack.drain(stack.len() - n..)),
                Node::Add(n) => Expr::plus(stack.drain(stack.len() - n..)),
                Node::Transpose => Expr::transpose(pop(&mut stack)),
                Node::Inverse => Expr::inverse(pop(&mut stack)),
                Node::InverseTranspose => Expr::inverse_transpose(pop(&mut stack)),
            };
            stack.push(e);
        }
        pop(&mut stack)
    }

    /// Lowers the parsed right-hand side to symbolic chain factors,
    /// normalizing unary operators down to the factors (`(A·B)ᵀ →
    /// Bᵀ·Aᵀ`, `(A·B)⁻¹ → B⁻¹·A⁻¹`, …). Each operand of the postfix
    /// code covers a contiguous run of factors, which `starts` tracks.
    /// Sums have no chain form and are rejected.
    fn lower_sym_factors(&self) -> Result<Vec<SymFactor>, String> {
        let mut factors: Vec<SymFactor> = Vec::new();
        let mut starts: Vec<usize> = Vec::new();
        for &node in &self.code {
            let start = match node {
                Node::Ref(i) => {
                    starts.push(factors.len());
                    factors.push(SymFactor::plain(self.defs.list[i].to_symbolic()));
                    continue;
                }
                Node::Mul(n) => {
                    let first = starts[starts.len() - n];
                    starts.truncate(starts.len() - n);
                    starts.push(first);
                    continue;
                }
                Node::Add(_) => {
                    return Err(
                        "sums are not supported with symbolic dimensions (chains are products)"
                            .into(),
                    )
                }
                Node::Transpose | Node::Inverse | Node::InverseTranspose => {
                    *starts.last().expect("a unary operator follows its operand")
                }
            };
            let run = &mut factors[start..];
            // e⁻ᵀ = (e⁻¹)ᵀ: two reversals cancel.
            if !matches!(node, Node::InverseTranspose) {
                run.reverse();
            }
            for f in run {
                let op = match node {
                    Node::Transpose => f.op().then_transpose(),
                    Node::Inverse => f.op().then_inverse(),
                    _ => f.op().then_inverse().then_transpose(),
                };
                *f = SymFactor::new(f.operand().clone(), op);
            }
        }
        Ok(factors)
    }
}

/// The top of a lowering stack.
fn pop(stack: &mut Vec<Expr>) -> Expr {
    stack
        .pop()
        .expect("postfix code leaves its operands on the stack")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{Chain, DimBindings, MAX_FACTORS};

    const TABLE2: &str = "\
Matrix A (2000, 2000) <SPD>
Matrix B (2000, 200)
Matrix C (200, 200) <LowerTriangular>
X := A^-1 * B * C^T
";

    #[test]
    fn parses_paper_table2_problem() {
        let p = parse(TABLE2).unwrap();
        assert!(!p.is_symbolic());
        assert_eq!(p.operands.len(), 3);
        assert_eq!(p.assignments.len(), 1);
        let (target, expr) = &p.assignments[0];
        assert_eq!(target, "X");
        assert_eq!(expr.to_string(), "A^-1 B C^T");
        let chain = Chain::from_expr(expr).unwrap();
        assert_eq!(chain.len(), 3);
        assert!(p
            .operand("A")
            .unwrap()
            .properties()
            .contains(Property::SymmetricPositiveDefinite));
    }

    #[test]
    fn vector_definitions() {
        let p = parse("Vector v (100)\nMatrix A (50, 100)\ny := A * v").unwrap();
        assert_eq!(p.operand("v").unwrap().shape(), Shape::col_vector(100));
        let chain = Chain::from_expr(&p.assignments[0].1).unwrap();
        assert_eq!(chain.shape(), Shape::col_vector(50));
    }

    #[test]
    fn tick_transpose_and_parens() {
        let p = parse("Matrix A (10, 20)\nMatrix B (10, 20)\nX := (A * B')'").unwrap();
        let expr = &p.assignments[0].1;
        // (A·Bᵀ)ᵀ — normalization happens at Chain construction.
        let chain = Chain::from_expr(expr).unwrap();
        assert_eq!(chain.to_string(), "B A^T");
    }

    #[test]
    fn sums_are_parsed() {
        let p = parse("Matrix A (5, 5)\nMatrix B (5, 5)\nX := A + B * B").unwrap();
        let expr = &p.assignments[0].1;
        assert_eq!(expr.to_string(), "A + B B");
    }

    #[test]
    fn multiple_assignments() {
        let p = parse("Matrix A (5, 5)\nMatrix B (5, 5)\nX := A * B\nY := B * A").unwrap();
        assert_eq!(p.assignments.len(), 2);
    }

    #[test]
    fn large_definition_tables_are_indexed() {
        // Lookups in a large table: duplicates, references and
        // undefined names all still resolve.
        let n = 48;
        let defs: String = (0..n).map(|i| format!("Matrix M{i} (4, 4)\n")).collect();
        let product: Vec<String> = (0..n).rev().map(|i| format!("M{i}")).collect();
        let p = parse(&format!("{defs}X := {}\n", product.join(" * "))).unwrap();
        assert_eq!(p.operands.len(), n);
        assert_eq!(p.operands[n - 1].name(), format!("M{}", n - 1));
        let chain = Chain::from_expr(&p.assignments[0].1).unwrap();
        assert_eq!(chain.factors()[0].operand().name(), format!("M{}", n - 1));
        let err = parse(&format!("{defs}Matrix M40 (4, 4)\nX := M0")).unwrap_err();
        assert!(err.message.contains("`M40` defined twice"), "{err}");
        assert_eq!(err.line, n + 1);
        let err = parse(&format!("{defs}X := M0 * Q")).unwrap_err();
        assert!(err.message.contains("`Q` is not defined"), "{err}");
    }

    #[test]
    fn lex_errors_win_over_earlier_parse_errors() {
        // As if the whole input were lexed before parsing: the `$` on
        // line 3 is reported, not the parse error on line 2.
        let err = parse("Matrix A (5, 5)\nX := * A\nY := A $ A\n").unwrap_err();
        assert!(err.message.contains("unexpected character `$`"), "{err}");
        assert_eq!((err.line, err.col), (3, 8));
        // And over lowering errors of symbolic assignments.
        let err = parse("Matrix A (n, n)\nX := A + A\n^").unwrap_err();
        assert!(err.message.contains("after `^`"), "{err}");
    }

    #[test]
    fn error_unknown_operand() {
        let err = parse("Matrix A (5, 5)\nX := A * Q").unwrap_err();
        assert!(err.message.contains("`Q` is not defined"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn error_duplicate_definition() {
        let err = parse("Matrix A (5, 5)\nMatrix A (6, 6)\nX := A * A").unwrap_err();
        assert!(err.message.contains("defined twice"));
    }

    #[test]
    fn error_unknown_property() {
        let err = parse("Matrix A (5, 5) <Sparse>\nX := A * A").unwrap_err();
        assert!(err.message.contains("unknown property `Sparse`"));
    }

    #[test]
    fn error_square_property_on_rectangular() {
        let err = parse("Matrix A (5, 6) <Symmetric>\nX := A * A").unwrap_err();
        assert!(err.message.contains("requires a square matrix"));
    }

    #[test]
    fn error_contradicting_property() {
        for (props, at) in [
            ("<Zero, FullRank>", "FullRank"),
            ("<Zero, SPD>", "SPD"),
            ("<Identity, Zero>", "Zero"),
        ] {
            let line = format!("Matrix A (30, 30) {props}");
            let err = parse(&format!("{line}\nX := A^-1 * A")).unwrap_err();
            let want = format!("property {at} contradicts the other properties of `A`");
            assert!(err.message.contains(&want), "{props}: {err}");
            assert_eq!((err.line, err.col), (1, line.rfind(at).unwrap() + 1));
        }
        assert!(parse("Matrix A (30, 30) <Zero>\nMatrix B (30, 4)\nX := A * B").is_ok());
    }

    #[test]
    fn error_missing_assignment() {
        let err = parse("Matrix A (5, 5)").unwrap_err();
        assert!(err.message.contains("no assignment"));
    }

    #[test]
    fn error_positions_reported() {
        let err = parse("Matrix A (5, 5)\nX := * A").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.col > 0);
    }

    #[test]
    fn inverse_of_parenthesized_product() {
        let p = parse("Matrix A (5, 5)\nMatrix B (5, 5)\nX := (A * B)^-1").unwrap();
        let chain = Chain::from_expr(&p.assignments[0].1).unwrap();
        assert_eq!(chain.to_string(), "B^-1 A^-1");
    }

    #[test]
    fn error_zero_dimension_is_a_parse_error() {
        let err = parse("Matrix A (0, 5)\nX := A * A").unwrap_err();
        assert!(err.message.contains("must be positive"), "{err}");
        assert_eq!(err.line, 1);
        let err = parse("Matrix A (n, 0)\nX := A * A").unwrap_err();
        assert!(err.message.contains("must be positive"), "{err}");
    }

    /// `X := ` with `levels` parentheses around `A`, after `Matrix A`.
    fn nested_parens(levels: usize) -> String {
        format!(
            "Matrix A (10, 10)\nX := {}A{}",
            "(".repeat(levels),
            ")".repeat(levels)
        )
    }

    #[test]
    fn parenthesis_depth_is_bounded_with_a_positioned_error() {
        // On a spawned thread, whose default stack (2 MB) is a quarter
        // of the main thread's: the bound must hold there too.
        std::thread::spawn(|| {
            let p = parse(&nested_parens(MAX_PAREN_DEPTH)).unwrap();
            assert_eq!(p.assignments[0].1, p.operands[0].expr());
            for levels in [MAX_PAREN_DEPTH + 1, 15_000] {
                let err = parse(&nested_parens(levels)).unwrap_err();
                assert_eq!(err.message, "parentheses nest deeper than 256 levels");
                // At the first parenthesis past the bound.
                assert_eq!((err.line, err.col), (2, 6 + MAX_PAREN_DEPTH));
            }
            // Closed parentheses free their depth.
            let wide = format!(
                "Matrix A (10, 10)\nX := {}",
                vec![format!("{}A{}", "(".repeat(200), ")".repeat(200)); 3].join(" * ")
            );
            parse(&wide).unwrap();
        })
        .join()
        .unwrap();
    }

    #[test]
    fn chain_length_is_bounded_in_both_lowerings() {
        let source = |dims: &str, len: usize| {
            format!("Matrix A ({dims})\nX := {}\n", vec!["A"; len].join(" * "))
        };
        // A symbolic assignment lowers through `SymChain::new`, a
        // positioned error at its target.
        let p = parse(&source("n, n", MAX_FACTORS)).unwrap();
        assert_eq!(p.symbolic.unwrap().chains[0].1.len(), 256);
        let err = parse(&source("n, n", MAX_FACTORS + 1)).unwrap_err();
        assert_eq!(
            err.message,
            "assignment `X`: symbolic chain has 257 factors, above the bound of 256"
        );
        assert_eq!((err.line, err.col), (2, 1));
        // A concrete one parses, and `Chain::from_expr` refuses it.
        let chain =
            |len| Chain::from_expr(&parse(&source("10, 10", len)).unwrap().assignments[0].1);
        assert_eq!(chain(MAX_FACTORS).unwrap().len(), 256);
        assert_eq!(
            chain(MAX_FACTORS + 1).unwrap_err().to_string(),
            "matrix chain has 257 factors, above the bound of 256"
        );
    }

    #[test]
    fn dimensions_above_two_pow_32_are_positioned_errors() {
        assert!(parse("Matrix A (4294967296, 1)\nX := A * A^T").is_ok());
        let err = parse("Matrix A (n, n)\nMatrix B (n, 4294967297)\nX := A * B").unwrap_err();
        assert!(err.message.contains("above the maximum 2^32"), "{err}");
        assert_eq!((err.line, err.col), (2, 14));
    }

    #[test]
    fn symbolic_dimensions_lower_to_sym_chains() {
        let p = parse(
            "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nMatrix C (m, m) <LowerTriangular>\n\
             X := A^-1 * B * C^T\n",
        )
        .unwrap();
        assert!(p.is_symbolic());
        assert!(p.operands.is_empty() && p.assignments.is_empty());
        let sym = p.symbolic.as_ref().unwrap();
        assert_eq!(sym.operands.len(), 3);
        let (target, chain) = &sym.chains[0];
        assert_eq!(target, "X");
        assert_eq!(chain.to_string(), "A^-1 B C^T");
        assert_eq!(chain.vars().len(), 2);
        // Binding reproduces the concrete Table 2 chain.
        let bound = chain
            .bind(&DimBindings::new().with("n", 2000).with("m", 200))
            .unwrap();
        assert_eq!(bound.sizes(), vec![2000, 2000, 200, 200]);
    }

    #[test]
    fn mixed_problem_keeps_concrete_assignments_concrete() {
        // One symbolic definition must not poison assignments that only
        // reference concrete operands — sums included.
        let p = parse(
            "Matrix A (n, n)\nMatrix D (5, 5)\nMatrix E (5, 5)\n\
             X := A * A\nY := D + E\nZ := D * E\n",
        )
        .unwrap();
        assert!(p.is_symbolic());
        // Concrete side: D, E and the Y/Z assignments.
        assert_eq!(p.operands.len(), 2);
        assert!(p.operand("D").is_some() && p.operand("E").is_some());
        let targets: Vec<&str> = p.assignments.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(targets, vec!["Y", "Z"]);
        assert_eq!(p.assignments[0].1.to_string(), "D + E");
        // Symbolic side: all definitions plus the X chain.
        let sym = p.symbolic.as_ref().unwrap();
        assert_eq!(sym.operands.len(), 3);
        assert_eq!(sym.chains.len(), 1);
        assert_eq!(sym.chains[0].0, "X");
    }

    #[test]
    fn symbolic_vector_and_tick() {
        let p = parse("Matrix A (m, n)\nVector v (n)\ny := (v' * A')'").unwrap();
        let sym = p.symbolic.as_ref().unwrap();
        let (_, chain) = &sym.chains[0];
        // (vᵀ Aᵀ)ᵀ = A v.
        assert_eq!(chain.to_string(), "A v");
    }

    #[test]
    fn symbolic_inverse_of_product_distributes() {
        let p = parse("Matrix A (n, n)\nMatrix B (n, n)\nX := (A * B)^-1").unwrap();
        let sym = p.symbolic.as_ref().unwrap();
        assert_eq!(sym.chains[0].1.to_string(), "B^-1 A^-1");
    }

    #[test]
    fn symbolic_sum_is_rejected() {
        let err = parse("Matrix A (n, n)\nMatrix B (n, n)\nX := A + B").unwrap_err();
        assert!(err.message.contains("sums are not supported"), "{err}");
    }

    #[test]
    fn symbolic_structural_mismatch_is_reported() {
        let err = parse("Matrix A (n, m)\nMatrix B (n, m)\nX := A * B").unwrap_err();
        assert!(
            err.message.contains("structural dimension mismatch"),
            "{err}"
        );
    }

    #[test]
    fn symbolic_square_property_needs_structural_squareness() {
        let err = parse("Matrix A (n, m) <Symmetric>\nX := A").unwrap_err();
        assert!(err.message.contains("requires a square matrix"), "{err}");
    }
}
