//! Plan persistence: serialize recorded plans so a serving fleet can
//! warm-start from a shared plan store.
//!
//! A snapshot captures, per cached structure, the [`StructureKey`] and
//! every recorded region plan — cells, candidates and exact FLOP
//! formulas included — so a loaded cache answers its first request for
//! any stored region as a **hit**, with no symbolic re-solve.
//!
//! Two pieces of a [`crate::plan::Candidate`] are *not* stored because
//! they are derivable: the cost polynomials (`op_poly` is exactly
//! `formula.poly()`; `total_poly` is only consulted while a region is
//! being recorded, never at instantiate time) and the per-cell
//! temporary names (always `T<i>_<j>`). Snapshots are deterministic —
//! structures and regions are sorted — so saving a loaded cache
//! reproduces the stored bytes.
//!
//! A snapshot is tied to the kernel registry and inference mode it was
//! recorded under: candidates reference kernels by registration index,
//! so loading validates the full registry kernel-name list and the
//! mode before adopting any plan.

use crate::cache::{PlanCache, PlanError};
use crate::key::{FactorSig, KeyDim, StructureKey};
use crate::plan::{Candidate, CellPlan, DeferredProps, OperandRef, RegionPlan};
use gmc::InferenceMode;
use gmc_expr::{Dim, Property, PropertySet};
use gmc_kernels::FlopFormula;
use gmc_kernels::{InvKind, Uplo};
use gmc_pattern::Var;
use serde::{DeError, Deserialize, Serialize, Value};
use std::path::Path;
use std::sync::Arc;

const FORMAT: &str = "gmc-plan-store/v1";

// ---------------------------------------------------------------------
// Value helpers for foreign leaf types (orphan rules prevent trait
// impls on them; the plan types' Serialize/Deserialize impls below call
// these directly).
// ---------------------------------------------------------------------

fn usize_value(v: usize) -> Value {
    Value::Number(v as f64)
}

fn dim_value(d: Dim) -> Value {
    match d {
        Dim::Const(v) => usize_value(v),
        Dim::Var(v) => Value::String(v.name().to_owned()),
    }
}

fn dim_from(v: &Value) -> Result<Dim, DeError> {
    match v {
        Value::Number(_) => Ok(Dim::Const(usize::from_value(v)?)),
        Value::String(name) => Ok(Dim::var(name)),
        other => Err(DeError(format!("expected dimension, got {other:?}"))),
    }
}

fn props_value(ps: PropertySet) -> Value {
    Value::Number(crate::key::props_bits(ps) as f64)
}

fn props_from(v: &Value) -> Result<PropertySet, DeError> {
    let bits = u16::from_value(v)?;
    let mut ps = PropertySet::new();
    for p in Property::all() {
        if bits & (1 << (p as u16)) != 0 {
            ps.insert(p);
        }
    }
    // Recorded sets are implication-closed, so re-inserting the members
    // must reproduce the bits exactly; anything else is corruption.
    if crate::key::props_bits(ps) != bits {
        return Err(DeError(format!(
            "property bits {bits:#x} are not an implication-closed set"
        )));
    }
    Ok(ps)
}

fn inv_kind_value(kind: InvKind) -> Value {
    Value::String(
        match kind {
            InvKind::General => "general",
            InvKind::Spd => "spd",
            InvKind::Triangular(Uplo::Lower) => "tri_lower",
            InvKind::Triangular(Uplo::Upper) => "tri_upper",
            InvKind::Diagonal => "diagonal",
        }
        .to_owned(),
    )
}

fn inv_kind_from(v: &Value) -> Result<InvKind, DeError> {
    match String::from_value(v)?.as_str() {
        "general" => Ok(InvKind::General),
        "spd" => Ok(InvKind::Spd),
        "tri_lower" => Ok(InvKind::Triangular(Uplo::Lower)),
        "tri_upper" => Ok(InvKind::Triangular(Uplo::Upper)),
        "diagonal" => Ok(InvKind::Diagonal),
        other => Err(DeError(format!("unknown inverse kind `{other}`"))),
    }
}

fn tagged(tag: &str, mut fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("t".to_owned(), Value::String(tag.to_owned()))];
    all.append(&mut fields);
    Value::Object(all)
}

fn tag_of(v: &Value) -> Result<String, DeError> {
    String::from_value(v.get_field("t")?)
}

fn formula_value(f: &FlopFormula) -> Value {
    let d = |name: &str, dim: Dim| (name.to_owned(), dim_value(dim));
    match f {
        FlopFormula::Gemm { m, k, n } => tagged("gemm", vec![d("m", *m), d("k", *k), d("n", *n)]),
        FlopFormula::Level3 { m, n } => tagged("level3", vec![d("m", *m), d("n", *n)]),
        FlopFormula::Syrk { m, k } => tagged("syrk", vec![d("m", *m), d("k", *k)]),
        FlopFormula::Gesv { m, n } => tagged("gesv", vec![d("m", *m), d("n", *n)]),
        FlopFormula::Posv { m, n } => tagged("posv", vec![d("m", *m), d("n", *n)]),
        FlopFormula::EntryCount { r, c } => tagged("entries", vec![d("r", *r), d("c", *c)]),
        FlopFormula::TwiceEntryCount { r, c } => tagged("entries2", vec![d("r", *r), d("c", *c)]),
        FlopFormula::SquareN { n } => tagged("square_n", vec![d("n", *n)]),
        FlopFormula::TwiceSquareN { n } => tagged("square_n2", vec![d("n", *n)]),
        FlopFormula::TwiceN { n } => tagged("twice_n", vec![d("n", *n)]),
        FlopFormula::Zero => tagged("zero", vec![]),
        FlopFormula::Inv { kind, n } => tagged(
            "inv",
            vec![("kind".to_owned(), inv_kind_value(*kind)), d("n", *n)],
        ),
        FlopFormula::InvPair { m } => tagged("inv_pair", vec![d("m", *m)]),
    }
}

fn formula_from(v: &Value) -> Result<FlopFormula, DeError> {
    let d = |name: &str| dim_from(v.get_field(name)?);
    Ok(match tag_of(v)?.as_str() {
        "gemm" => FlopFormula::Gemm {
            m: d("m")?,
            k: d("k")?,
            n: d("n")?,
        },
        "level3" => FlopFormula::Level3 {
            m: d("m")?,
            n: d("n")?,
        },
        "syrk" => FlopFormula::Syrk {
            m: d("m")?,
            k: d("k")?,
        },
        "gesv" => FlopFormula::Gesv {
            m: d("m")?,
            n: d("n")?,
        },
        "posv" => FlopFormula::Posv {
            m: d("m")?,
            n: d("n")?,
        },
        "entries" => FlopFormula::EntryCount {
            r: d("r")?,
            c: d("c")?,
        },
        "entries2" => FlopFormula::TwiceEntryCount {
            r: d("r")?,
            c: d("c")?,
        },
        "square_n" => FlopFormula::SquareN { n: d("n")? },
        "square_n2" => FlopFormula::TwiceSquareN { n: d("n")? },
        "twice_n" => FlopFormula::TwiceN { n: d("n")? },
        "zero" => FlopFormula::Zero,
        "inv" => FlopFormula::Inv {
            kind: inv_kind_from(v.get_field("kind")?)?,
            n: d("n")?,
        },
        "inv_pair" => FlopFormula::InvPair { m: d("m")? },
        other => return Err(DeError(format!("unknown formula tag `{other}`"))),
    })
}

fn operand_ref_value(r: OperandRef) -> Value {
    match r {
        OperandRef::Factor(t) => usize_value(t),
        OperandRef::Temp(i, j) => Value::Array(vec![usize_value(i), usize_value(j)]),
    }
}

fn operand_ref_from(v: &Value) -> Result<OperandRef, DeError> {
    match v {
        Value::Number(_) => Ok(OperandRef::Factor(usize::from_value(v)?)),
        Value::Array(items) if items.len() == 2 => Ok(OperandRef::Temp(
            usize::from_value(&items[0])?,
            usize::from_value(&items[1])?,
        )),
        other => Err(DeError(format!("expected operand ref, got {other:?}"))),
    }
}

fn candidate_value(c: &Candidate) -> Value {
    let var_binds: Vec<Value> = c
        .var_binds
        .iter()
        .map(|(var, r)| Value::Array(vec![usize_value(var.index()), operand_ref_value(*r)]))
        .collect();
    Value::Object(vec![
        ("k".to_owned(), usize_value(c.k)),
        ("kernel".to_owned(), usize_value(c.kernel_idx)),
        ("spec".to_owned(), Value::Number(c.specificity as f64)),
        ("formula".to_owned(), formula_value(&c.formula)),
        ("binds".to_owned(), Value::Array(var_binds)),
    ])
}

fn candidate_from(v: &Value) -> Result<Candidate, DeError> {
    let formula = formula_from(v.get_field("formula")?)?;
    let binds = match v.get_field("binds")? {
        Value::Array(items) => items
            .iter()
            .map(|item| match item {
                Value::Array(pair) if pair.len() == 2 => {
                    let idx = usize::from_value(&pair[0])?;
                    if idx >= 16 {
                        return Err(DeError(format!(
                            "pattern variable index {idx} out of range"
                        )));
                    }
                    Ok((Var::new(idx as u8), operand_ref_from(&pair[1])?))
                }
                other => Err(DeError(format!("expected [var, ref] pair, got {other:?}"))),
            })
            .collect::<Result<Vec<_>, _>>()?,
        other => return Err(DeError(format!("expected binds array, got {other:?}"))),
    };
    let op_poly = formula.poly();
    Ok(Candidate {
        k: usize::from_value(v.get_field("k")?)?,
        kernel_idx: usize::from_value(v.get_field("kernel")?)?,
        specificity: u8::from_value(v.get_field("spec")?)?,
        formula,
        op_poly,
        // Total polynomials are only consulted while recording a
        // region (to decide symbolic resolution); a stored plan is
        // already classified, so they are not persisted.
        total_poly: None,
        var_binds: binds,
    })
}

fn cell_value(cell: &CellPlan) -> Value {
    match cell {
        CellPlan::Leaf => tagged("leaf", vec![]),
        CellPlan::Unsolvable => tagged("unsolvable", vec![]),
        CellPlan::Dynamic => tagged("dynamic", vec![]),
        CellPlan::Resolved { cand, props } => tagged(
            "resolved",
            vec![
                ("cand".to_owned(), candidate_value(cand)),
                ("props".to_owned(), props_value(*props)),
            ],
        ),
        CellPlan::Deferred { cands, props } => {
            let props_v = match props {
                DeferredProps::Stable(p) => {
                    tagged("stable", vec![("p".to_owned(), props_value(*p))])
                }
                DeferredProps::PerSplit(by_split) => tagged(
                    "per_split",
                    vec![(
                        "p".to_owned(),
                        Value::Array(
                            by_split
                                .iter()
                                .map(|(k, p)| Value::Array(vec![usize_value(*k), props_value(*p)]))
                                .collect(),
                        ),
                    )],
                ),
            };
            tagged(
                "deferred",
                vec![
                    (
                        "cands".to_owned(),
                        Value::Array(cands.iter().map(candidate_value).collect()),
                    ),
                    ("props".to_owned(), props_v),
                ],
            )
        }
    }
}

fn cell_from(v: &Value) -> Result<CellPlan, DeError> {
    Ok(match tag_of(v)?.as_str() {
        "leaf" => CellPlan::Leaf,
        "unsolvable" => CellPlan::Unsolvable,
        "dynamic" => CellPlan::Dynamic,
        "resolved" => CellPlan::Resolved {
            cand: Box::new(candidate_from(v.get_field("cand")?)?),
            props: props_from(v.get_field("props")?)?,
        },
        "deferred" => {
            let cands = match v.get_field("cands")? {
                Value::Array(items) => items
                    .iter()
                    .map(candidate_from)
                    .collect::<Result<Vec<_>, _>>()?,
                other => return Err(DeError(format!("expected candidates, got {other:?}"))),
            };
            let props_v = v.get_field("props")?;
            let props = match tag_of(props_v)?.as_str() {
                "stable" => DeferredProps::Stable(props_from(props_v.get_field("p")?)?),
                "per_split" => {
                    let by_split = match props_v.get_field("p")? {
                        Value::Array(items) => items
                            .iter()
                            .map(|item| match item {
                                Value::Array(pair) if pair.len() == 2 => {
                                    Ok((usize::from_value(&pair[0])?, props_from(&pair[1])?))
                                }
                                other => Err(DeError(format!(
                                    "expected [split, props] pair, got {other:?}"
                                ))),
                            })
                            .collect::<Result<Vec<_>, _>>()?,
                        other => {
                            return Err(DeError(format!("expected per-split props, got {other:?}")))
                        }
                    };
                    DeferredProps::PerSplit(by_split)
                }
                other => return Err(DeError(format!("unknown props tag `{other}`"))),
            };
            CellPlan::Deferred { cands, props }
        }
        other => return Err(DeError(format!("unknown cell tag `{other}`"))),
    })
}

fn key_dim_value(d: KeyDim) -> Value {
    match d {
        KeyDim::Const(v) => usize_value(v),
        KeyDim::Var(i) => Value::String(format!("${i}")),
    }
}

fn key_dim_from(v: &Value) -> Result<KeyDim, DeError> {
    match v {
        Value::Number(_) => Ok(KeyDim::Const(usize::from_value(v)?)),
        Value::String(s) => s
            .strip_prefix('$')
            .and_then(|i| i.parse::<u16>().ok())
            .map(KeyDim::Var)
            .ok_or_else(|| DeError(format!("bad key dimension `{s}`"))),
        other => Err(DeError(format!("expected key dimension, got {other:?}"))),
    }
}

impl Serialize for StructureKey {
    fn to_value(&self) -> Value {
        let factors: Vec<Value> = self
            .factors
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("u".to_owned(), Value::Number(f.unary as f64)),
                    ("r".to_owned(), key_dim_value(f.rows)),
                    ("c".to_owned(), key_dim_value(f.cols)),
                    ("p".to_owned(), Value::Number(f.props as f64)),
                    ("o".to_owned(), Value::Number(f.operand_class as f64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("deep".to_owned(), Value::Bool(self.deep_inference)),
            ("factors".to_owned(), Value::Array(factors)),
        ])
    }
}

impl Deserialize for StructureKey {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let factors = match v.get_field("factors")? {
            Value::Array(items) => items
                .iter()
                .map(|f| {
                    Ok(FactorSig {
                        unary: u8::from_value(f.get_field("u")?)?,
                        rows: key_dim_from(f.get_field("r")?)?,
                        cols: key_dim_from(f.get_field("c")?)?,
                        props: u16::from_value(f.get_field("p")?)?,
                        operand_class: u16::from_value(f.get_field("o")?)?,
                    })
                })
                .collect::<Result<Vec<_>, DeError>>()?,
            other => return Err(DeError(format!("expected factor array, got {other:?}"))),
        };
        Ok(StructureKey {
            deep_inference: bool::from_value(v.get_field("deep")?)?,
            factors,
        })
    }
}

impl Serialize for RegionPlan {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("n".to_owned(), usize_value(self.n)),
            (
                "vars".to_owned(),
                Value::Array(
                    self.vars
                        .iter()
                        .map(|v| Value::String(v.name().to_owned()))
                        .collect(),
                ),
            ),
            (
                "cells".to_owned(),
                Value::Array(self.cells.iter().map(cell_value).collect()),
            ),
        ])
    }
}

impl Deserialize for RegionPlan {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let n = usize::from_value(v.get_field("n")?)?;
        if n < 2 {
            return Err(DeError(format!("region plan chain length {n} < 2")));
        }
        let cells = match v.get_field("cells")? {
            Value::Array(items) => items
                .iter()
                .map(cell_from)
                .collect::<Result<Vec<_>, DeError>>()?,
            other => return Err(DeError(format!("expected cell array, got {other:?}"))),
        };
        if cells.len() != n * (n + 1) / 2 {
            return Err(DeError(format!(
                "region plan for n={n} must have {} cells, got {}",
                n * (n + 1) / 2,
                cells.len()
            )));
        }
        validate_cells(n, &cells)?;
        let vars: Vec<gmc_expr::DimVar> = Vec::<String>::from_value(v.get_field("vars")?)?
            .iter()
            .map(|name| gmc_expr::DimVar::new(name))
            .collect();
        // The recorded variable list is what binding translation maps
        // onto, so it must be duplicate-free and cover every variable
        // any stored formula references — otherwise a request would
        // leave formula variables unbound (worker panic) or silently
        // swap sizes.
        let var_set: std::collections::BTreeSet<_> = vars.iter().copied().collect();
        if var_set.len() != vars.len() {
            return Err(DeError(
                "region plan records duplicate variables".to_owned(),
            ));
        }
        for cell in &cells {
            let cands: &[Candidate] = match cell {
                CellPlan::Resolved { cand, .. } => std::slice::from_ref(cand),
                CellPlan::Deferred { cands, .. } => cands,
                _ => &[],
            };
            for cand in cands {
                for dim in formula_dims(&cand.formula) {
                    if let Dim::Var(var) = dim {
                        if !var_set.contains(&var) {
                            return Err(DeError(format!(
                                "formula references variable `{var}` outside the region's \
                                 recorded variables"
                            )));
                        }
                    }
                }
            }
        }
        Ok(RegionPlan { n, cells, vars })
    }
}

/// Every dimension a formula references (for load-time validation).
fn formula_dims(f: &FlopFormula) -> Vec<Dim> {
    match f {
        FlopFormula::Gemm { m, k, n } => vec![*m, *k, *n],
        FlopFormula::Level3 { m, n } | FlopFormula::Gesv { m, n } | FlopFormula::Posv { m, n } => {
            vec![*m, *n]
        }
        FlopFormula::Syrk { m, k } => vec![*m, *k],
        FlopFormula::EntryCount { r, c } | FlopFormula::TwiceEntryCount { r, c } => {
            vec![*r, *c]
        }
        FlopFormula::SquareN { n }
        | FlopFormula::TwiceSquareN { n }
        | FlopFormula::TwiceN { n }
        | FlopFormula::Inv { n, .. } => vec![*n],
        FlopFormula::InvPair { m } => vec![*m],
        FlopFormula::Zero => Vec::new(),
    }
}

/// Structural validation of deserialized cells, so a corrupt snapshot
/// is rejected at load time instead of panicking (or indexing out of
/// bounds) inside a serving worker on its first request.
fn validate_cells(n: usize, cells: &[CellPlan]) -> Result<(), DeError> {
    let cell_at = |i: usize, j: usize| &cells[crate::plan::cell_index(n, i, j)];
    // A candidate of cell (i, j) with split k may reference chain
    // factors (anywhere — operand aliasing keys refs to the *first*
    // occurrence) or exactly its two children's temporaries, (i, k)
    // and (k+1, j); a child temporary only exists for an interior
    // child the plan actually computes (Resolved or Deferred — a
    // Dynamic descendant would have made this cell Dynamic too).
    let check_candidate = |cand: &Candidate, i: usize, j: usize| -> Result<(), DeError> {
        if cand.k < i || cand.k >= j {
            return Err(DeError(format!(
                "cell ({i},{j}): candidate split {} out of range",
                cand.k
            )));
        }
        // Both children of the split must be computable: a diagonal
        // leaf, or an interior Resolved/Deferred cell (a Dynamic or
        // Unsolvable child cannot appear under a non-Dynamic parent in
        // a genuine recording, and instantiate would panic on one).
        for (a, b) in [(i, cand.k), (cand.k + 1, j)] {
            if a < b
                && !matches!(
                    cell_at(a, b),
                    CellPlan::Resolved { .. } | CellPlan::Deferred { .. }
                )
            {
                return Err(DeError(format!(
                    "cell ({i},{j}) split {}: child ({a},{b}) is not computable",
                    cand.k
                )));
            }
        }
        for (_, r) in &cand.var_binds {
            let ok = match *r {
                OperandRef::Factor(t) => t < n,
                OperandRef::Temp(a, b) => {
                    a < b
                        && ((a, b) == (i, cand.k) || (a, b) == (cand.k + 1, j))
                        && matches!(
                            cell_at(a, b),
                            CellPlan::Resolved { .. } | CellPlan::Deferred { .. }
                        )
                }
            };
            if !ok {
                return Err(DeError(format!(
                    "cell ({i},{j}) split {}: operand reference {r:?} is not a factor or a \
                     computed child temporary",
                    cand.k
                )));
            }
        }
        Ok(())
    };
    let mut idx = 0;
    for i in 0..n {
        for j in i..n {
            let cell = &cells[idx];
            idx += 1;
            match cell {
                CellPlan::Leaf if i != j => {
                    return Err(DeError(format!("interior cell ({i},{j}) marked as leaf")))
                }
                _ if i == j && !matches!(cell, CellPlan::Leaf) => {
                    return Err(DeError(format!("diagonal cell ({i},{i}) must be a leaf")))
                }
                CellPlan::Resolved { cand, .. } => check_candidate(cand, i, j)?,
                CellPlan::Deferred { cands, props } => {
                    if cands.is_empty() {
                        return Err(DeError(format!("cell ({i},{j}): no deferred candidates")));
                    }
                    for cand in cands {
                        check_candidate(cand, i, j)?;
                    }
                    // Bind time scans the candidates split by split.
                    if cands.windows(2).any(|w| w[0].k > w[1].k) {
                        return Err(DeError(format!(
                            "cell ({i},{j}): deferred candidates out of split order"
                        )));
                    }
                    if let DeferredProps::PerSplit(by_split) = props {
                        for cand in cands {
                            if !by_split.iter().any(|(k, _)| *k == cand.k) {
                                return Err(DeError(format!(
                                    "cell ({i},{j}): split {} has no recorded properties",
                                    cand.k
                                )));
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    Ok(())
}

fn inference_name(mode: InferenceMode) -> &'static str {
    match mode {
        InferenceMode::Compositional => "compositional",
        InferenceMode::Deep => "deep",
    }
}

impl PlanCache {
    /// Serializes every recorded plan to a deterministic JSON snapshot
    /// (structures sorted by key, regions by signature): the plan
    /// store a serving fleet warm-starts from.
    pub fn snapshot_json(&self) -> String {
        let mut structures: Vec<Value> = Vec::new();
        let mut entries = self.structures();
        entries.sort_by_cached_key(|(key, _)| serde_json::to_string(key).expect("key serializes"));
        for (key, plan) in entries {
            let mut regions: Vec<(&Vec<i8>, &Arc<RegionPlan>)> = plan.regions.iter().collect();
            regions.sort_by_key(|(sig, _)| (*sig).clone());
            let regions: Vec<Value> = regions
                .into_iter()
                .map(|(sig, region)| {
                    Value::Object(vec![
                        ("signature".to_owned(), sig.to_value()),
                        ("plan".to_owned(), region.to_value()),
                    ])
                })
                .collect();
            structures.push(Value::Object(vec![
                ("key".to_owned(), key.to_value()),
                ("regions".to_owned(), Value::Array(regions)),
            ]));
        }
        let kernels: Vec<Value> = self
            .registry()
            .kernels()
            .iter()
            .map(|k| Value::String(k.name().to_owned()))
            .collect();
        let doc = Value::Object(vec![
            ("format".to_owned(), Value::String(FORMAT.to_owned())),
            (
                "inference".to_owned(),
                Value::String(inference_name(self.inference()).to_owned()),
            ),
            ("kernels".to_owned(), Value::Array(kernels)),
            ("structures".to_owned(), Value::Array(structures)),
        ]);
        serde_json::to_string_pretty(&doc).expect("plan snapshots contain only finite numbers")
    }

    /// Merges a snapshot produced by [`snapshot_json`](Self::snapshot_json)
    /// into this cache. Returns the number of regions adopted (regions
    /// already present are kept as they are).
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] if the snapshot is malformed, was recorded
    /// under a different inference mode, or under a registry whose
    /// kernel list (names and order) differs from this cache's —
    /// candidates reference kernels by registration index, so a
    /// mismatched registry would silently serve wrong kernels. A
    /// candidate must also bind exactly its kernel's pattern variables.
    pub fn load_snapshot_json(&self, json: &str) -> Result<usize, PlanError> {
        let doc: Value = serde_json::from_str(json).map_err(|e| PlanError::Store(e.to_string()))?;
        let store_err = |e: DeError| PlanError::Store(e.to_string());
        let format =
            String::from_value(doc.get_field("format").map_err(store_err)?).map_err(store_err)?;
        if format != FORMAT {
            return Err(PlanError::Store(format!(
                "unsupported snapshot format `{format}` (expected `{FORMAT}`)"
            )));
        }
        let mode = String::from_value(doc.get_field("inference").map_err(store_err)?)
            .map_err(store_err)?;
        if mode != inference_name(self.inference()) {
            return Err(PlanError::Store(format!(
                "snapshot was recorded under {mode} inference, cache uses {}",
                inference_name(self.inference())
            )));
        }
        let kernels = Vec::<String>::from_value(doc.get_field("kernels").map_err(store_err)?)
            .map_err(store_err)?;
        let registry_kernels: Vec<String> = self
            .registry()
            .kernels()
            .iter()
            .map(|k| k.name().to_owned())
            .collect();
        if kernels != registry_kernels {
            return Err(PlanError::Store(
                "snapshot kernel registry differs from this cache's registry".to_owned(),
            ));
        }
        let n_kernels = registry_kernels.len();

        let structures = match doc.get_field("structures").map_err(store_err)? {
            Value::Array(items) => items,
            other => {
                return Err(PlanError::Store(format!(
                    "expected structures array, got {other:?}"
                )))
            }
        };
        let mut adopted = 0usize;
        for entry in structures {
            let key = StructureKey::from_value(entry.get_field("key").map_err(store_err)?)
                .map_err(store_err)?;
            let regions = match entry.get_field("regions").map_err(store_err)? {
                Value::Array(items) => items,
                other => {
                    return Err(PlanError::Store(format!(
                        "expected regions array, got {other:?}"
                    )))
                }
            };
            // Cross-checks against the structure key: the plan must
            // describe a chain of the key's length, with one variable
            // per distinct canonical variable slot, or binding
            // translation and factor references would index past the
            // request chain at serve time.
            let key_vars: std::collections::BTreeSet<u16> = key
                .factors
                .iter()
                .flat_map(|f| [f.rows, f.cols])
                .filter_map(|d| match d {
                    KeyDim::Var(i) => Some(i),
                    KeyDim::Const(_) => None,
                })
                .collect();
            for region in regions {
                let sig = Vec::<i8>::from_value(region.get_field("signature").map_err(store_err)?)
                    .map_err(store_err)?;
                let plan = RegionPlan::from_value(region.get_field("plan").map_err(store_err)?)
                    .map_err(store_err)?;
                if plan.n != key.factors.len() {
                    return Err(PlanError::Store(format!(
                        "region plan for {} factors stored under a {}-factor key",
                        plan.n,
                        key.factors.len()
                    )));
                }
                if plan.vars.len() != key_vars.len() {
                    return Err(PlanError::Store(format!(
                        "region plan records {} variables, key has {}",
                        plan.vars.len(),
                        key_vars.len()
                    )));
                }
                for cand in plan.candidates() {
                    let Some(kernel) = self.registry().kernels().get(cand.kernel_idx) else {
                        return Err(PlanError::Store(format!(
                            "candidate references kernel index {}, registry has {n_kernels}",
                            cand.kernel_idx
                        )));
                    };
                    // Instantiation hands the kernel's builder these
                    // bindings, and the builder needs every variable of
                    // the pattern (which lists each once).
                    let mut bound: Vec<Var> = cand.var_binds.iter().map(|(v, _)| *v).collect();
                    let mut vars = kernel.pattern().variables();
                    bound.sort_unstable();
                    vars.sort_unstable();
                    if bound != vars {
                        return Err(PlanError::Store(format!(
                            "candidate for kernel {} binds {bound:?}, its pattern has {vars:?}",
                            kernel.name()
                        )));
                    }
                }
                if self.adopt_region(key.clone(), sig, Arc::new(plan)) {
                    adopted += 1;
                }
            }
        }
        Ok(adopted)
    }

    /// Saves the snapshot to `path` (see [`snapshot_json`](Self::snapshot_json)).
    /// The write goes to a sibling temporary file first and is renamed
    /// into place, so a crash mid-save never leaves a truncated store.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PlanError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.snapshot_json() + "\n")
            .map_err(|e| PlanError::Store(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            PlanError::Store(format!("cannot move snapshot to {}: {e}", path.display()))
        })
    }

    /// Loads and merges the snapshot at `path`; returns the number of
    /// regions adopted.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] on I/O failure or snapshot mismatch (see
    /// [`load_snapshot_json`](Self::load_snapshot_json)).
    pub fn load(&self, path: impl AsRef<Path>) -> Result<usize, PlanError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| PlanError::Store(format!("cannot read {}: {e}", path.display())))?;
        self.load_snapshot_json(&json)
    }
}

impl RegionPlan {
    /// Every cached candidate, for load-time validation against the
    /// registry.
    fn candidates(&self) -> impl Iterator<Item = &Candidate> {
        self.cells.iter().flat_map(|cell| match cell {
            CellPlan::Resolved { cand, .. } => std::slice::from_ref(&**cand),
            CellPlan::Deferred { cands, .. } => cands.as_slice(),
            _ => &[],
        })
    }
}
