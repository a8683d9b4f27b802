//! Cache keys: chain structure and size regions.
//!
//! The plan cache is keyed at two levels:
//!
//! 1. **Structure** ([`StructureKey`]): the shape of the problem modulo
//!    operand names and concrete variable values — per factor the unary
//!    operator, the property set, the dimension pattern (constants kept,
//!    variables renamed to first-occurrence indices) and the operand
//!    *aliasing* pattern (which factors share an operand, which decides
//!    e.g. SYRK applicability on `AᵀA` but not `AᵀB`).
//! 2. **Region** (`RegionKey`): the shape questions the region's
//!    recording consulted, each with its answer. A question compares
//!    boundary dimensions `d[0..=n]` by position: `d[a] = 1`,
//!    `d[a] = d[b]` or `d[a] ≥ d[b]`. The pipeline reads sizes only
//!    through such questions (see `gmc_analysis::symbolic`): kernel
//!    constraints ask vector-ness, which the unit-ness of the boundaries
//!    decides; property inference asks squareness and the SPD rank
//!    condition `rows ≥ cols` where its rules reach them; a temporary
//!    asks its squareness when its properties depend on it. The
//!    recorder logs the unit-ness of every boundary and each other
//!    question it asks ([`QuestionLog`]), so every binding that gives
//!    the same answers sees the same candidate kernel sets, inferred
//!    property sets and structural branches of the optimizer; only the
//!    numeric cost values change. A recording is one path through a
//!    decision tree over these questions, so a binding satisfies the
//!    answers of at most one recorded region, whatever order the
//!    regions were recorded in.
//!
//! [`region_signature`], the full ordering of the boundary dimensions,
//! refines every region key. The workload generator of `gmc-bench`
//! steers fresh draws with it.

use gmc::InferenceMode;
use gmc_analysis::symbolic::{dims_equal, dims_ge};
use gmc_analysis::ShapeQuestion;
use gmc_expr::{Dim, DimVar, SymChain};
use std::collections::HashMap;

/// A canonical dimension in a structure key: a concrete constant or the
/// first-occurrence index of a variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum KeyDim {
    Const(usize),
    Var(u16),
}

/// Per-factor structural signature.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct FactorSig {
    pub(crate) unary: u8,
    pub(crate) rows: KeyDim,
    pub(crate) cols: KeyDim,
    /// The operand's [`PropertySet::bits`](gmc_expr::PropertySet::bits),
    /// which the plan store persists too, so key and snapshot agree.
    pub(crate) props: u16,
    /// First-occurrence index of the factor's operand (same index ⇔
    /// same operand appears again, e.g. the two `A`s of `AᵀA`).
    pub(crate) operand_class: u16,
}

/// The structure-level cache key of a symbolic chain.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StructureKey {
    pub(crate) deep_inference: bool,
    pub(crate) factors: Vec<FactorSig>,
}

/// Computes the structure key of `chain` under `mode`.
pub fn structure_key(chain: &SymChain, mode: InferenceMode) -> StructureKey {
    let mut var_ids: HashMap<DimVar, u16> = HashMap::new();
    let mut canon = |d: Dim| match d {
        Dim::Const(v) => KeyDim::Const(v),
        Dim::Var(v) => {
            let next = var_ids.len() as u16;
            KeyDim::Var(*var_ids.entry(v).or_insert(next))
        }
    };
    let mut operand_ids: HashMap<&str, u16> = HashMap::new();
    let factors = chain
        .factors()
        .iter()
        .map(|f| {
            let shape = f.operand().shape();
            let next = operand_ids.len() as u16;
            let operand_class = *operand_ids.entry(f.operand().name()).or_insert(next);
            FactorSig {
                unary: f.op() as u8,
                rows: canon(shape.rows()),
                cols: canon(shape.cols()),
                props: f.operand().properties().bits(),
                operand_class,
            }
        })
        .collect();
    StructureKey {
        deep_inference: mode == InferenceMode::Deep,
        factors,
    }
}

/// A shape question about the boundary dimensions `d[0..=n]` of a bound
/// chain (factor `t` is `d[t] × d[t+1]`), naming positions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum Question {
    /// `d[a] = 1`.
    Unit(usize),
    /// `d[a] = d[b]`, with `a < b`.
    Eq(usize, usize),
    /// `d[a] ≥ d[b]`.
    Ge(usize, usize),
}

impl Question {
    /// The answer at the boundary dimensions `sizes`.
    pub(crate) fn answer(self, sizes: &[usize]) -> bool {
        match self {
            Question::Unit(a) => sizes[a] == 1,
            Question::Eq(a, b) => sizes[a] == sizes[b],
            Question::Ge(a, b) => sizes[a] >= sizes[b],
        }
    }
}

/// The key of one size region: every shape question its recording
/// consulted, with the answer at the recording binding, in question
/// order. A binding is in the region iff it gives every answer.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct RegionKey(pub(crate) Vec<(Question, bool)>);

impl RegionKey {
    /// Whether the boundary dimensions `sizes` give every answer.
    pub(crate) fn admits(&self, sizes: &[usize]) -> bool {
        self.0.iter().all(|&(q, answer)| q.answer(sizes) == answer)
    }

    /// The [`unit_mask`] of every binding in the region (a key answers
    /// the unit-ness of every boundary).
    pub(crate) fn unit_mask(&self) -> u64 {
        self.0.iter().fold(0, |mask, &(q, answer)| match q {
            Question::Unit(a) if answer => mask | 1 << (a % 64),
            _ => mask,
        })
    }
}

/// The boundary positions of size 1 as a bit mask, folded into 64 bits
/// (a longer chain shares bits, which only merges lookup buckets).
pub(crate) fn unit_mask(sizes: &[usize]) -> u64 {
    sizes
        .iter()
        .enumerate()
        .filter(|&(_, &s)| s == 1)
        .fold(0, |mask, (a, _)| mask | 1 << (a % 64))
}

/// The shape questions a recording consults, gathered into its
/// [`RegionKey`]. A question the dimension pattern decides (the same
/// variable twice, two constants) is left out: every binding answers it
/// alike.
pub(crate) struct QuestionLog<'a> {
    dims: &'a [Dim],
    asked: Vec<Question>,
}

impl<'a> QuestionLog<'a> {
    /// A log over the symbolic boundary dimensions `dims`, holding the
    /// unit-ness of every boundary: kernel constraints ask vector-ness,
    /// and every boundary is a side of some product the DP matches.
    pub(crate) fn new(dims: &'a [Dim]) -> Self {
        QuestionLog {
            dims,
            asked: (0..dims.len()).map(Question::Unit).collect(),
        }
    }

    /// Logs `d[a] = d[b]`.
    pub(crate) fn eq(&mut self, a: usize, b: usize) {
        if !dims_equal(self.dims[a], self.dims[b]).is_decided() {
            self.asked.push(Question::Eq(a.min(b), a.max(b)));
        }
    }

    /// Logs `d[a] ≥ d[b]`.
    pub(crate) fn ge(&mut self, a: usize, b: usize) {
        if !dims_ge(self.dims[a], self.dims[b]).is_decided() {
            self.asked.push(Question::Ge(a, b));
        }
    }

    /// Logs a product rule's question about one of the two factors of a
    /// split, whose effective shapes are `d[r] × d[c]` for the `(r, c)`
    /// of `spans`.
    pub(crate) fn product(&mut self, question: ShapeQuestion, spans: [(usize, usize); 2]) {
        match question {
            ShapeQuestion::Square(f) => self.eq(spans[f].0, spans[f].1),
            ShapeQuestion::Tall(f) => self.ge(spans[f].0, spans[f].1),
        }
    }

    /// Logs every comparison between the positions `lo..=hi`.
    pub(crate) fn range(&mut self, lo: usize, hi: usize) {
        for a in lo..=hi {
            for b in a + 1..=hi {
                self.eq(a, b);
                self.ge(a, b);
            }
        }
    }

    /// The region key: each logged question once, answered at `sizes`.
    pub(crate) fn key(mut self, sizes: &[usize]) -> RegionKey {
        self.asked.sort_unstable();
        self.asked.dedup();
        RegionKey(
            self.asked
                .into_iter()
                .map(|q| (q, q.answer(sizes)))
                .collect(),
        )
    }
}

/// Counts the shape questions about `chain`'s sub-results that are
/// *undecidable* from the dimension pattern alone — the questions
/// (squareness, vector-ness, the SPD rank condition, evaluated in the
/// three-valued logic of [`gmc_analysis::symbolic`]) that a region key
/// may have to answer.
///
/// Zero means every structural branch of the optimizer is already
/// decided symbolically and a single region covers all bindings; each
/// undecided question is a way bindings can split into distinct
/// regions. The CLI reports this as `regions split on ≤ N shape
/// questions`.
pub fn undecided_shape_questions(chain: &SymChain) -> usize {
    use gmc_analysis::symbolic::{is_square, is_vector, rank_condition};
    let mut undecided = 0;
    for i in 0..chain.len() {
        for j in i..chain.len() {
            let s = chain.sub_shape(i, j);
            for answer in [is_square(s), is_vector(s), rank_condition(s)] {
                if !answer.is_decided() {
                    undecided += 1;
                }
            }
        }
    }
    undecided
}

/// The full ordering signature of a concrete boundary-dimension vector:
/// the ordering of every dimension against 1 followed by every pairwise
/// ordering, encoded as `-1 / 0 / 1` per comparison. Bindings with one
/// signature answer every region question alike, so each signature lies
/// within one region; the cache does not key on it.
pub fn region_signature(sizes: &[usize]) -> Vec<i8> {
    let cmp = |a: usize, b: usize| -> i8 {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => -1,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => 1,
        }
    };
    let mut sig = Vec::with_capacity(sizes.len() * (sizes.len() + 1) / 2);
    for &s in sizes {
        sig.push(cmp(s, 1));
    }
    for (i, &a) in sizes.iter().enumerate() {
        for &b in &sizes[i + 1..] {
            sig.push(cmp(a, b));
        }
    }
    sig
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{SymFactor, SymOperand, UnaryOp};

    fn chain_of(names: [&str; 2], dims: [Dim; 3]) -> SymChain {
        let a = SymOperand::new(names[0], dims[0], dims[1]);
        let b = SymOperand::new(names[1], dims[1], dims[2]);
        SymChain::new(vec![SymFactor::plain(a), SymFactor::plain(b)]).unwrap()
    }

    #[test]
    fn key_is_name_independent_but_alias_sensitive() {
        let (n, m, k) = (Dim::var("key_n"), Dim::var("key_m"), Dim::var("key_k"));
        let c1 = chain_of(["A", "B"], [n, m, k]);
        let c2 = chain_of(["P", "Q"], [n, m, k]);
        assert_eq!(
            structure_key(&c1, InferenceMode::Compositional),
            structure_key(&c2, InferenceMode::Compositional)
        );
        // Same name twice (AᵀA-style aliasing) differs from two
        // distinct operands.
        let a = SymOperand::new("A", m, n);
        let aliased = SymChain::new(vec![
            SymFactor::new(a.clone(), UnaryOp::Transpose),
            SymFactor::plain(a),
        ])
        .unwrap();
        let b = SymOperand::new("B", m, n);
        let distinct = SymChain::new(vec![
            SymFactor::new(SymOperand::new("A", m, n), UnaryOp::Transpose),
            SymFactor::plain(b),
        ])
        .unwrap();
        assert_ne!(
            structure_key(&aliased, InferenceMode::Compositional),
            structure_key(&distinct, InferenceMode::Compositional)
        );
    }

    #[test]
    fn key_renames_vars_canonically() {
        let c1 = chain_of(
            ["A", "B"],
            [Dim::var("key_x"), Dim::var("key_y"), Dim::var("key_x")],
        );
        let c2 = chain_of(
            ["A", "B"],
            [Dim::var("key_p"), Dim::var("key_q"), Dim::var("key_p")],
        );
        let c3 = chain_of(
            ["A", "B"],
            [Dim::var("key_p"), Dim::var("key_q"), Dim::var("key_q")],
        );
        let mode = InferenceMode::Compositional;
        assert_eq!(structure_key(&c1, mode), structure_key(&c2, mode));
        assert_ne!(structure_key(&c1, mode), structure_key(&c3, mode));
        assert_ne!(
            structure_key(&c1, mode),
            structure_key(&c1, InferenceMode::Deep)
        );
    }

    #[test]
    fn undecided_questions_reflect_dimension_pattern() {
        // Fully concrete chain: everything decided, one region.
        let c = chain_of(["A", "B"], [Dim::Const(4), Dim::Const(5), Dim::Const(6)]);
        assert_eq!(undecided_shape_questions(&c), 0);
        // Distinct variables leave squareness/vector-ness/rank open.
        let (n, m, k) = (Dim::var("uq_n"), Dim::var("uq_m"), Dim::var("uq_k"));
        let c = chain_of(["A", "B"], [n, m, k]);
        assert!(undecided_shape_questions(&c) > 0);
        // A structurally square chain over one variable decides
        // squareness and rank, but vector-ness still depends on whether
        // the variable binds to 1.
        let sq = chain_of(["A", "B"], [n, n, n]);
        assert!(undecided_shape_questions(&sq) < undecided_shape_questions(&c));
    }

    #[test]
    fn region_keys_answer_only_what_was_asked() {
        let (n, m) = (Dim::var("rk_n"), Dim::var("rk_m"));
        let dims = [n, m, n, Dim::Const(1), Dim::Const(7)];
        let mut log = QuestionLog::new(&dims);
        log.eq(0, 2); // the same variable: decided
        log.eq(3, 4); // two constants: decided
        log.ge(1, 3); // anything is ≥ 1: decided
        log.product(ShapeQuestion::Tall(1), [(0, 1), (1, 2)]);
        log.eq(2, 1);
        log.eq(1, 2);
        let key = log.key(&[5, 3, 5, 1, 7]);
        assert_eq!(
            key.0,
            vec![
                (Question::Unit(0), false),
                (Question::Unit(1), false),
                (Question::Unit(2), false),
                (Question::Unit(3), true),
                (Question::Unit(4), false),
                (Question::Eq(1, 2), false),
                (Question::Ge(1, 2), false),
            ]
        );
        assert_eq!(key.unit_mask(), unit_mask(&[5, 3, 5, 1, 7]));
        // Any other ordering that answers alike is in the region.
        assert!(key.admits(&[500, 2, 500, 1, 7]));
        assert!(!key.admits(&[5, 5, 5, 1, 7]));
        assert!(!key.admits(&[1, 3, 1, 1, 7]));
    }

    #[test]
    fn region_signature_separates_orderings() {
        let a = region_signature(&[10, 20, 30]);
        let b = region_signature(&[100, 200, 300]);
        let c = region_signature(&[30, 20, 10]);
        let d = region_signature(&[1, 20, 30]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Equal values vs distinct values differ.
        assert_ne!(region_signature(&[5, 5]), region_signature(&[5, 6]));
    }
}
