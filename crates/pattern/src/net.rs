//! The discrimination net: a trie over flattened patterns.
//!
//! Patterns and subject expressions are *flattened* into preorder token
//! sequences ("flatterms", Christian 1993). The net is a trie over
//! pattern tokens; matching walks the subject's flatterm and the trie in
//! lockstep. Operator tokens must agree exactly; wildcard edges consume
//! one leaf symbol and bind it. Because several edges can apply at a
//! node, matching backtracks — but the depth is bounded by the pattern
//! size, which is constant for kernel patterns (paper Sec. 3.4).

use crate::pattern::{Bindings, Pattern, Var};
use gmc_expr::{Expr, Operand};

/// Structural operator tokens shared by patterns and subjects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpTok {
    /// n-ary product with the given arity.
    Times(usize),
    /// n-ary sum with the given arity.
    Plus(usize),
    Transpose,
    Inverse,
    InverseTranspose,
}

/// One token of a flattened pattern.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PatTok {
    Op(OpTok),
    Wild(Var),
}

/// One token of a flattened subject expression.
///
/// Symbols are held by value: [`Operand`] is reference counted, so the
/// clone is a refcount bump, not a heap allocation — which is what lets
/// a [`FlatTermScratch`] buffer be reused across queries of different
/// lifetimes.
#[derive(Clone, Debug)]
enum SubTok {
    Op(OpTok),
    Sym(Operand),
}

fn flatten_pattern(p: &Pattern, out: &mut Vec<PatTok>) {
    match p {
        Pattern::Wildcard(v) => out.push(PatTok::Wild(*v)),
        Pattern::Transpose(inner) => {
            out.push(PatTok::Op(OpTok::Transpose));
            flatten_pattern(inner, out);
        }
        Pattern::Inverse(inner) => {
            out.push(PatTok::Op(OpTok::Inverse));
            flatten_pattern(inner, out);
        }
        Pattern::InverseTranspose(inner) => {
            out.push(PatTok::Op(OpTok::InverseTranspose));
            flatten_pattern(inner, out);
        }
        Pattern::Times(ps) => {
            out.push(PatTok::Op(OpTok::Times(ps.len())));
            for p in ps {
                flatten_pattern(p, out);
            }
        }
        Pattern::Plus(ps) => {
            out.push(PatTok::Op(OpTok::Plus(ps.len())));
            for p in ps {
                flatten_pattern(p, out);
            }
        }
    }
}

fn flatten_subject(e: &Expr, out: &mut Vec<SubTok>) {
    match e {
        Expr::Symbol(op) => out.push(SubTok::Sym(op.clone())),
        Expr::Transpose(inner) => {
            out.push(SubTok::Op(OpTok::Transpose));
            flatten_subject(inner, out);
        }
        Expr::Inverse(inner) => {
            out.push(SubTok::Op(OpTok::Inverse));
            flatten_subject(inner, out);
        }
        Expr::InverseTranspose(inner) => {
            out.push(SubTok::Op(OpTok::InverseTranspose));
            flatten_subject(inner, out);
        }
        Expr::Times(es) => {
            out.push(SubTok::Op(OpTok::Times(es.len())));
            for e in es {
                flatten_subject(e, out);
            }
        }
        Expr::Plus(es) => {
            out.push(SubTok::Op(OpTok::Plus(es.len())));
            for e in es {
                flatten_subject(e, out);
            }
        }
    }
}

#[derive(Debug)]
struct Node {
    /// Exact-operator edges: `(token, child index)`.
    op_edges: Vec<(OpTok, usize)>,
    /// Wildcard edges: `(variable, child index)`.
    wild_edges: Vec<(Var, usize)>,
    /// Patterns that terminate at this node.
    terminal: Vec<usize>,
}

impl Node {
    fn new() -> Self {
        Node {
            op_edges: Vec::new(),
            wild_edges: Vec::new(),
            terminal: Vec::new(),
        }
    }
}

/// A successful match: the pattern's payload plus variable bindings.
#[derive(Clone, Debug)]
pub struct Match<'net, P> {
    /// The payload stored with the matching pattern.
    pub payload: &'net P,
    /// Operands bound to the pattern's variables.
    pub bindings: Bindings,
}

/// A many-to-one matcher holding a set of patterns with payloads.
///
/// Inserting patterns builds a trie; [`DiscriminationNet::matches`]
/// returns *all* patterns that match a subject expression, with their
/// variable bindings, in insertion order.
#[derive(Debug)]
pub struct DiscriminationNet<P> {
    nodes: Vec<Node>,
    payloads: Vec<P>,
}

impl<P> Default for DiscriminationNet<P> {
    fn default() -> Self {
        DiscriminationNet::new()
    }
}

impl<P> DiscriminationNet<P> {
    /// Creates an empty net.
    pub fn new() -> Self {
        DiscriminationNet {
            nodes: vec![Node::new()],
            payloads: Vec::new(),
        }
    }

    /// The number of patterns stored.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Whether the net contains no patterns.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Inserts a pattern with an associated payload, returning the
    /// pattern's index.
    pub fn insert(&mut self, pattern: Pattern, payload: P) -> usize {
        let mut tokens = Vec::new();
        flatten_pattern(&pattern, &mut tokens);
        let mut node = 0;
        for tok in tokens {
            node = match tok {
                PatTok::Op(op) => {
                    if let Some(&(_, child)) =
                        self.nodes[node].op_edges.iter().find(|(t, _)| *t == op)
                    {
                        child
                    } else {
                        let child = self.nodes.len();
                        self.nodes.push(Node::new());
                        self.nodes[node].op_edges.push((op, child));
                        child
                    }
                }
                PatTok::Wild(v) => {
                    if let Some(&(_, child)) =
                        self.nodes[node].wild_edges.iter().find(|(w, _)| *w == v)
                    {
                        child
                    } else {
                        let child = self.nodes.len();
                        self.nodes.push(Node::new());
                        self.nodes[node].wild_edges.push((v, child));
                        child
                    }
                }
            };
        }
        let id = self.payloads.len();
        self.payloads.push(payload);
        self.nodes[node].terminal.push(id);
        id
    }

    /// Finds all patterns matching `expr`, with bindings.
    ///
    /// The subject is matched *as is* (no normalization); callers that
    /// want normalized matching should normalize first. A single
    /// traversal with bounded backtracking visits every matching
    /// pattern, so the cost is independent of the number of patterns in
    /// the net.
    pub fn matches(&self, expr: &Expr) -> Vec<Match<'_, P>> {
        let mut flat = Vec::new();
        flatten_subject(expr, &mut flat);
        let mut out: Vec<(usize, Bindings)> = Vec::new();
        let mut bindings = Bindings::new();
        self.walk(0, &flat, 0, &mut bindings, &mut |id, b| {
            out.push((id, b.clone()));
        });
        // Report matches in pattern insertion order for determinism.
        out.sort_by_key(|(id, _)| *id);
        out.into_iter()
            .map(|(id, bindings)| Match {
                payload: &self.payloads[id],
                bindings,
            })
            .collect()
    }

    /// Streaming query of the binary product `left · right` (the shape
    /// of the GMC matching step, paper Fig. 4 line 6) without
    /// constructing an owned `Expr::Times`.
    ///
    /// The subject flatterm is built in `scratch`, whose buffer is
    /// reused across queries, so a warm scratch makes the query
    /// allocation-free. Matches are yielded to `visit` as
    /// `(payload, bindings)` in **trie order**, which is *not* the
    /// insertion order reported by [`DiscriminationNet::matches`];
    /// order-sensitive callers must disambiguate via the payload. The
    /// borrowed bindings are only valid for the duration of the call.
    ///
    /// The subject is the product [`Expr::times`] would build from the
    /// two factors: a factor that is itself a product contributes its
    /// factors to the parent (the GMC DP never produces one, but the
    /// equivalence with [`matches`](Self::matches) holds regardless).
    pub fn match_product_with<F>(
        &self,
        left: &Expr,
        right: &Expr,
        scratch: &mut FlatTermScratch,
        mut visit: F,
    ) where
        F: FnMut(&P, &Bindings),
    {
        fn arity(e: &Expr) -> usize {
            match e {
                Expr::Times(fs) => fs.len(),
                _ => 1,
            }
        }
        fn flatten_factor(e: &Expr, out: &mut Vec<SubTok>) {
            match e {
                Expr::Times(fs) => {
                    for f in fs {
                        flatten_subject(f, out);
                    }
                }
                other => flatten_subject(other, out),
            }
        }
        scratch.flat.clear();
        scratch
            .flat
            .push(SubTok::Op(OpTok::Times(arity(left) + arity(right))));
        flatten_factor(left, &mut scratch.flat);
        flatten_factor(right, &mut scratch.flat);
        let mut bindings = Bindings::new();
        self.walk(0, &scratch.flat, 0, &mut bindings, &mut |id, b| {
            visit(&self.payloads[id], b);
        });
    }

    fn walk(
        &self,
        node: usize,
        flat: &[SubTok],
        pos: usize,
        bindings: &mut Bindings,
        visit: &mut dyn FnMut(usize, &Bindings),
    ) {
        if pos == flat.len() {
            for &id in &self.nodes[node].terminal {
                visit(id, bindings);
            }
            return;
        }
        match &flat[pos] {
            SubTok::Op(op) => {
                for &(tok, child) in &self.nodes[node].op_edges {
                    if tok == *op {
                        self.walk(child, flat, pos + 1, bindings, visit);
                    }
                }
            }
            SubTok::Sym(operand) => {
                for &(var, child) in &self.nodes[node].wild_edges {
                    let was_bound = bindings.get(var).is_some();
                    if bindings.bind(var, operand) {
                        self.walk(child, flat, pos + 1, bindings, visit);
                        if !was_bound {
                            bindings.unbind(var);
                        }
                    }
                }
            }
        }
    }
}

/// A reusable flatterm buffer for [`DiscriminationNet::match_product_with`].
///
/// Queries clear and refill the buffer, so its capacity — a handful of
/// tokens for the bounded products the GMC DP emits — is allocated once
/// and amortized over the O(n³) split candidates of a solve.
#[derive(Debug, Default)]
pub struct FlatTermScratch {
    flat: Vec<SubTok>,
}

impl FlatTermScratch {
    /// Creates an empty scratch buffer.
    pub fn new() -> Self {
        FlatTermScratch::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::Operand;

    fn x() -> Var {
        Var::new(0)
    }

    fn y() -> Var {
        Var::new(1)
    }

    #[test]
    fn empty_net() {
        let net: DiscriminationNet<&str> = DiscriminationNet::new();
        assert!(net.is_empty());
        let a = Operand::square("A", 2);
        assert!(net.matches(&a.expr()).is_empty());
    }

    #[test]
    fn single_pattern_product() {
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::times2(Pattern::var(x()), Pattern::var(y())), "mm");
        let a = Operand::matrix("A", 2, 3);
        let b = Operand::matrix("B", 3, 4);
        let hits = net.matches(&(a.expr() * b.expr()));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].bindings.get(x()).unwrap().name(), "A");
        assert_eq!(hits[0].bindings.get(y()).unwrap().name(), "B");
        // A transposed product does not match the plain pattern.
        assert!(net.matches(&(a.transpose() * b.expr())).is_empty());
    }

    #[test]
    fn many_to_one_returns_all() {
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::var(x()), Pattern::var(y())),
            "general",
        );
        net.insert(
            Pattern::times2(Pattern::var(x()), Pattern::var(x())),
            "squared",
        );
        let a = Operand::square("A", 3);
        let hits = net.matches(&(a.expr() * a.expr()));
        let names: Vec<_> = hits.iter().map(|m| *m.payload).collect();
        assert_eq!(names, vec!["general", "squared"]);

        let b = Operand::square("B", 3);
        let hits = net.matches(&(a.expr() * b.expr()));
        let names: Vec<_> = hits.iter().map(|m| *m.payload).collect();
        assert_eq!(names, vec!["general"]);
    }

    #[test]
    fn non_linear_syrk_pattern() {
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::transpose(Pattern::var(x())), Pattern::var(x())),
            "syrk",
        );
        let a = Operand::matrix("A", 5, 3);
        let b = Operand::matrix("B", 5, 3);
        assert_eq!(net.matches(&(a.transpose() * a.expr())).len(), 1);
        assert!(net.matches(&(a.transpose() * b.expr())).is_empty());
    }

    #[test]
    fn unary_operator_tokens_distinguished() {
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::inverse(Pattern::var(x())), Pattern::var(y())),
            "solve",
        );
        net.insert(
            Pattern::times2(
                Pattern::inverse_transpose(Pattern::var(x())),
                Pattern::var(y()),
            ),
            "solve-t",
        );
        let a = Operand::square("A", 3);
        let b = Operand::matrix("B", 3, 2);
        let hits = net.matches(&(a.inverse() * b.expr()));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].payload, "solve");
        let hits = net.matches(&(a.inverse_transpose() * b.expr()));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].payload, "solve-t");
    }

    #[test]
    fn arity_must_agree() {
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::times2(Pattern::var(x()), Pattern::var(y())), "mm");
        let a = Operand::square("A", 3);
        let b = Operand::square("B", 3);
        let c = Operand::square("C", 3);
        // Ternary product does not match a binary pattern.
        assert!(net.matches(&(a.expr() * b.expr() * c.expr())).is_empty());
    }

    #[test]
    fn bare_symbol_pattern() {
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::var(x()), "copy");
        net.insert(Pattern::transpose(Pattern::var(x())), "transpose");
        let a = Operand::matrix("A", 2, 5);
        assert_eq!(*net.matches(&a.expr())[0].payload, "copy");
        assert_eq!(*net.matches(&a.transpose())[0].payload, "transpose");
    }

    #[test]
    fn plus_patterns() {
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::plus2(Pattern::var(x()), Pattern::var(y())), "add");
        let a = Operand::square("A", 3);
        let b = Operand::square("B", 3);
        assert_eq!(net.matches(&(a.expr() + b.expr())).len(), 1);
        assert!(net.matches(&(a.expr() * b.expr())).is_empty());
    }

    #[test]
    fn backtracking_restores_bindings() {
        // Two patterns sharing a prefix: Times(x, x) and Times(x, y).
        // Matching A·B first tries the x-x edge (fails on B) and must
        // cleanly backtrack before binding y.
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::times2(Pattern::var(x()), Pattern::var(x())), "xx");
        net.insert(Pattern::times2(Pattern::var(x()), Pattern::var(y())), "xy");
        let a = Operand::square("A", 3);
        let b = Operand::square("B", 3);
        let hits = net.matches(&(a.expr() * b.expr()));
        assert_eq!(hits.len(), 1);
        assert_eq!(*hits[0].payload, "xy");
        assert_eq!(hits[0].bindings.get(x()).unwrap().name(), "A");
        assert_eq!(hits[0].bindings.get(y()).unwrap().name(), "B");
    }

    #[test]
    fn match_product_streams_without_owned_times() {
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::var(x()), Pattern::var(y())),
            "general",
        );
        net.insert(
            Pattern::times2(Pattern::var(x()), Pattern::var(x())),
            "squared",
        );
        let a = Operand::square("A", 3);
        let mut scratch = FlatTermScratch::new();
        let mut seen = Vec::new();
        net.match_product_with(&a.expr(), &a.expr(), &mut scratch, |p, b| {
            seen.push((*p, b.get(x()).unwrap().name().to_owned()));
        });
        seen.sort();
        assert_eq!(
            seen,
            vec![("general", "A".to_owned()), ("squared", "A".to_owned())]
        );
        // The same scratch serves queries over different operands.
        let b = Operand::square("B", 3);
        let mut count = 0;
        net.match_product_with(&a.expr(), &b.expr(), &mut scratch, |_, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn match_product_flattens_nested_product_factors() {
        // A factor that is itself a product behaves as in
        // Expr::times: the binary pattern must NOT match the
        // resulting ternary product, exactly like `matches`.
        let mut net = DiscriminationNet::new();
        net.insert(Pattern::times2(Pattern::var(x()), Pattern::var(y())), "mm");
        let a = Operand::square("A", 3);
        let b = Operand::square("B", 3);
        let c = Operand::square("C", 3);
        let left = a.expr() * b.expr();
        assert!(net
            .matches(&Expr::times([left.clone(), c.expr()]))
            .is_empty());
        let mut scratch = FlatTermScratch::new();
        let mut count = 0;
        net.match_product_with(&left, &c.expr(), &mut scratch, |_, _| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn match_product_agrees_with_matches_on_unary_factors() {
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::inverse(Pattern::var(x())), Pattern::var(y())),
            "solve",
        );
        net.insert(
            Pattern::times2(Pattern::var(x()), Pattern::var(y())),
            "general",
        );
        let a = Operand::square("A", 3);
        let b = Operand::matrix("B", 3, 2);
        let owned = net.matches(&(a.inverse() * b.expr()));
        let mut streamed = Vec::new();
        let mut scratch = FlatTermScratch::new();
        net.match_product_with(&a.inverse(), &b.expr(), &mut scratch, |p, _| {
            streamed.push(*p);
        });
        streamed.sort_unstable();
        let mut owned_payloads: Vec<&str> = owned.iter().map(|m| *m.payload).collect();
        owned_payloads.sort_unstable();
        assert_eq!(streamed, owned_payloads);
    }

    #[test]
    fn nested_unary_patterns() {
        // TRSM-like nested pattern: (x⁻¹ y) where x itself appears
        // transposed in the subject must not match.
        let mut net = DiscriminationNet::new();
        net.insert(
            Pattern::times2(Pattern::inverse(Pattern::var(x())), Pattern::var(y())),
            "trsm",
        );
        let a = Operand::square("A", 3);
        let b = Operand::matrix("B", 3, 2);
        assert!(net
            .matches(&(Expr::inverse(Expr::transpose(a.expr())) * b.expr()))
            .is_empty());
    }

    use gmc_expr::Expr;
}
