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
//! 2. **Region** ([`region_signature`]): the full ordering pattern of
//!    the bound boundary dimensions (pairwise comparisons plus
//!    comparisons against 1). Every shape question the pipeline asks —
//!    squareness, the SPD rank condition `rows ≥ cols`, vector-ness —
//!    is an order comparison between boundary dimensions (see
//!    `gmc_analysis::symbolic`), so within one region the candidate
//!    kernel sets, inferred property sets and all structural branches
//!    of the optimizer are invariant; only the numeric cost values
//!    change.

use gmc::InferenceMode;
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

/// Counts the shape questions about `chain`'s sub-results that are
/// *undecidable* from the dimension pattern alone — the questions
/// (squareness, vector-ness, the SPD rank condition, evaluated in the
/// three-valued logic of [`gmc_analysis::symbolic`]) that the region
/// signature exists to answer.
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

/// The region signature of a concrete boundary-dimension vector: the
/// ordering of every dimension against 1 followed by every pairwise
/// ordering, encoded as `-1 / 0 / 1` per comparison.
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
