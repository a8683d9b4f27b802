//! The leaf-wise symmetry and SPD tests against the canonical-form
//! rules they replace, on random products of chain factors.
//!
//! A product of leaves (symbols under at most one unary operator) is
//! decided on its factor sequence; the reference here builds the
//! canonical trees: `e` is symmetric iff `canonical_transpose(e) ==
//! canonical_transpose(eᵀ)`, and `Xᵀ … X` is a transpose pair iff
//! `canonical_transpose(Xᵀ) == canonical_transpose(first factor)`.
//!
//! The pairwise inference of a DP split, which applies the same product
//! rules to the split's two sides without building the product, is
//! checked against `infer_properties` on the product tree.

use gmc_analysis::{
    canonical_transpose, infer_product_properties, infer_properties, is_diagonal, is_full_rank,
    is_identity, is_lower_triangular, is_orthogonal, is_permutation, is_spd, is_symmetric,
    is_unit_diagonal, is_upper_triangular, is_zero,
};
use gmc_expr::{Expr, Operand, Property, PropertySet};
use proptest::prelude::*;

/// Shared operands: general, Symmetric, SPD, Diagonal and triangular
/// squares, non-square operands (whose inverses are ill-formed), a
/// vector, and two operands named like others but with other
/// properties or shapes.
fn pool() -> Vec<Operand> {
    vec![
        Operand::square("A", 3),
        Operand::matrix("B", 3, 2),
        Operand::matrix("C", 2, 3),
        Operand::square("S", 3).with_property(Property::Symmetric),
        Operand::square("P", 3).with_property(Property::SymmetricPositiveDefinite),
        Operand::square("D", 3).with_property(Property::Diagonal),
        Operand::square("L", 3).with_property(Property::LowerTriangular),
        Operand::square("E", 2).with_property(Property::SymmetricPositiveDefinite),
        Operand::square("A", 3).with_property(Property::Symmetric),
        Operand::col_vector("v", 3),
        Operand::square("B", 2),
    ]
}

const POOL: usize = 11;

/// A leaf: operand index and unary operator (none, ᵀ, ⁻¹, ⁻ᵀ).
type Leaf = (usize, u8);

fn leaf_expr(pool: &[Operand], (op, unary): Leaf) -> Expr {
    let op = &pool[op];
    match unary {
        0 => op.expr(),
        1 => op.transpose(),
        2 => op.inverse(),
        _ => op.inverse_transpose(),
    }
}

/// The leaves of a random product: as drawn, or mirrored into a
/// transpose palindrome (`f_{n−1−k} = f_kᵀ`) so that symmetric and SPD
/// products are common, optionally with one factor replaced.
fn product_leaves(drawn: &[Leaf], shape: u8, swap: (usize, Leaf)) -> Vec<Leaf> {
    let mut leaves = drawn.to_vec();
    if shape > 0 {
        let n = leaves.len();
        for k in 0..n / 2 {
            let (op, unary) = leaves[k];
            // Flip the transpose bit: none ↔ ᵀ, ⁻¹ ↔ ⁻ᵀ.
            leaves[n - 1 - k] = (op, unary ^ 1);
        }
    }
    if shape == 2 {
        let (at, replacement) = swap;
        let n = leaves.len();
        leaves[at % n] = replacement;
    }
    leaves
}

fn ref_is_symmetric(e: &Expr) -> bool {
    match e {
        Expr::Times(_) => {
            is_diagonal(e)
                || matches!(
                    (canonical_transpose(e), canonical_transpose(&Expr::transpose(e.clone()))),
                    (Some(a), Some(b)) if a == b
                )
        }
        other => is_symmetric(other),
    }
}

fn ref_is_transpose_pair(a: &Expr, b: &Expr) -> bool {
    matches!(
        (canonical_transpose(&Expr::transpose(b.clone())), canonical_transpose(a)),
        (Some(bt), Some(ca)) if bt == ca
    )
}

fn ref_spd_product(fs: &[Expr]) -> bool {
    let last = &fs[fs.len() - 1];
    if !ref_is_transpose_pair(&fs[0], last) {
        return false;
    }
    if !last.shape().is_ok_and(|s| s.rows() >= s.cols()) {
        return false;
    }
    let middle = &fs[1..fs.len() - 1];
    match middle.len() {
        0 => true,
        1 => is_spd(&middle[0]),
        _ => ref_spd_product(middle),
    }
}

fn ref_is_spd(e: &Expr) -> bool {
    match e {
        Expr::Times(fs) => ref_spd_product(fs),
        other => is_spd(other),
    }
}

fn ref_infer(e: &Expr) -> PropertySet {
    let mut set = PropertySet::new();
    for (holds, p) in [
        (is_diagonal(e), Property::Diagonal),
        (is_lower_triangular(e), Property::LowerTriangular),
        (is_upper_triangular(e), Property::UpperTriangular),
        (ref_is_symmetric(e), Property::Symmetric),
        (ref_is_spd(e), Property::SymmetricPositiveDefinite),
        (is_identity(e), Property::Identity),
        (is_zero(e), Property::Zero),
        (is_orthogonal(e), Property::Orthogonal),
        (is_permutation(e), Property::Permutation),
        (is_unit_diagonal(e), Property::UnitDiagonal),
        (is_full_rank(e), Property::FullRank),
    ] {
        if holds {
            set.insert(p);
        }
    }
    set
}

fn leaf_strategy() -> impl Strategy<Value = Leaf> {
    (0..POOL, 0u8..4)
}

/// Builds the product and checks the three predicates against the
/// reference; returns `(symmetric, spd)` for coverage counting.
fn check(drawn: &[Leaf], shape: u8, swap: (usize, Leaf)) -> (bool, bool) {
    let pool = pool();
    let leaves = product_leaves(drawn, shape, swap);
    let e = Expr::times(leaves.iter().map(|l| leaf_expr(&pool, *l)));
    let symmetric = is_symmetric(&e);
    let spd = is_spd(&e);
    assert_eq!(symmetric, ref_is_symmetric(&e), "is_symmetric on {e}");
    assert_eq!(spd, ref_is_spd(&e), "is_spd on {e}");
    assert_eq!(
        infer_properties(&e),
        ref_infer(&e),
        "infer_properties on {e}"
    );
    (symmetric, spd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30_000))]
    /// `is_symmetric`, `is_spd` and `infer_properties` equal the
    /// canonical-form rules on random products of 1–6 leaves.
    #[test]
    fn leafwise_predicates_match_canonical_forms(
        drawn in prop::collection::vec(leaf_strategy(), 1..7),
        shape in 0u8..3,
        swap in (0usize..6, leaf_strategy()),
    ) {
        check(&drawn, shape, swap);
    }
}

/// The generator reaches both verdicts of both predicates often
/// enough for the equivalence above to mean something.
#[test]
fn generator_covers_symmetric_and_spd_products() {
    use proptest::test_runner::TestRng;
    let drawn = prop::collection::vec(leaf_strategy(), 1..7);
    let (mut symmetric, mut spd, mut multi_factor_spd) = (0, 0, 0);
    const CASES: u32 = 3000;
    for case in 0..CASES {
        let mut rng = TestRng::for_case("leafwise_coverage", case);
        let leaves = drawn.new_value(&mut rng);
        let shape = (0u8..3).new_value(&mut rng);
        let swap = (0usize..6, leaf_strategy()).new_value(&mut rng);
        let (sym, pd) = check(&leaves, shape, swap);
        symmetric += usize::from(sym);
        spd += usize::from(pd);
        multi_factor_spd += usize::from(pd && leaves.len() >= 3);
    }
    let cases = CASES as usize;
    assert!(symmetric * 10 > cases, "{symmetric} symmetric of {cases}");
    assert!(
        symmetric * 10 < cases * 9,
        "{symmetric} symmetric of {cases}"
    );
    assert!(spd * 20 > cases, "{spd} SPD of {cases}");
    assert!(
        multi_factor_spd * 100 > cases,
        "{multi_factor_spd} SPD sandwiches"
    );
}

/// An operand: one of three names, one of seven shapes (square, both
/// rectangular orientations, both vector shapes, 1×1, a second square
/// size), and up to two of the 11 properties its shape admits — so
/// `Zero` and `FullRank` land on rectangular operands and vectors too.
fn any_operand() -> impl Strategy<Value = Operand> {
    (
        0..3usize,
        0..7usize,
        prop::collection::vec(
            prop::sample::select(Property::all().collect::<Vec<_>>()),
            0..3,
        ),
    )
        .prop_map(|(name, shape, props)| {
            let name = ["A", "B", "C"][name];
            let mut op = match shape {
                0 => Operand::square(name, 3),
                1 => Operand::matrix(name, 3, 2),
                2 => Operand::matrix(name, 2, 3),
                3 => Operand::col_vector(name, 3),
                4 => Operand::row_vector(name, 3),
                5 => Operand::square(name, 1),
                _ => Operand::square(name, 2),
            };
            for p in props {
                if !p.requires_square() || op.shape().is_square() {
                    op = op.with_property(p);
                }
            }
            op
        })
}

/// A chain factor over `op`: the operand under one of the four unary
/// operators (an inverse of a non-square operand is ill-formed).
fn chain_factor(op: &Operand, unary: u8) -> Expr {
    match unary {
        0 => op.expr(),
        1 => op.transpose(),
        2 => op.inverse(),
        _ => op.inverse_transpose(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]
    /// The pairwise inference of a DP split equals the inference over
    /// the product tree: for two chain factors over any operands —
    /// aliased ones included (one case in three reuses the left operand
    /// on the right) — and, rarely, a side that is a product itself.
    #[test]
    fn pairwise_inference_matches_the_product_tree(
        a in any_operand(),
        b in any_operand(),
        unaries in (0u8..4, 0u8..4),
        kind in 0..12usize,
    ) {
        let right_operand = if kind % 3 == 0 { &a } else { &b };
        let left = chain_factor(&a, unaries.0);
        let mut right = chain_factor(right_operand, unaries.1);
        if kind == 11 {
            right = Expr::times([right, a.transpose()]);
        }
        prop_assert_eq!(
            infer_product_properties(&left, &right),
            infer_properties(&Expr::times([left.clone(), right.clone()])),
            "({}) · ({})", left, right
        );
    }
}
