//! Plan persistence: the plan store a serving fleet warm-starts from.
//!
//! A `gmc-plan-store/v3` snapshot keeps, per cached structure, its
//! factor signatures (the [`StructureKey`] encoding: unary operator,
//! canonical dimensions, property bits and operand class of each
//! factor) and, per recorded region, only the named binding the region
//! was recorded at:
//!
//! ```json
//! {"format": "gmc-plan-store/v3", "structures": [
//!   {"factors": [{"u": 2, "r": "$0", "c": "$0", "p": 1048, "o": 0}, ...],
//!    "regions": [{"n": 2000, "m": 200}, ...]}]}
//! ```
//!
//! The recorder is deterministic and cheap to rerun, so loading
//! re-records each region at its binding instead of reading cells,
//! candidates and formulas back. A loaded cache therefore serves only
//! plans it recorded itself, under its own kernel registry and
//! inference mode: a hand-edited or foreign store can warm the wrong
//! regions, but never make the cache serve a wrong answer. Snapshots
//! are deterministic (structures and regions are sorted) and a region
//! re-recorded at its binding is the region, so saving a loaded cache
//! reproduces the stored bytes.
//!
//! [`StructureKey`]: crate::StructureKey

use crate::cache::{PlanCache, PlanError};
use crate::key::{structure_key, FactorSig, KeyDim};
use gmc_expr::{Dim, DimBindings, DimVar, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use serde::{DeError, Deserialize, Value};
use std::path::Path;

const FORMAT: &str = "gmc-plan-store/v3";

/// The unary operators by their signature code (`UnaryOp as u8`).
const UNARY_OPS: [UnaryOp; 4] = [
    UnaryOp::None,
    UnaryOp::Transpose,
    UnaryOp::Inverse,
    UnaryOp::InverseTranspose,
];

fn key_dim_value(d: KeyDim) -> Value {
    match d {
        KeyDim::Const(v) => Value::Number(v as f64),
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

fn factor_value(f: &FactorSig) -> Value {
    Value::Object(vec![
        ("u".to_owned(), Value::Number(f64::from(f.unary))),
        ("r".to_owned(), key_dim_value(f.rows)),
        ("c".to_owned(), key_dim_value(f.cols)),
        ("p".to_owned(), Value::Number(f64::from(f.props))),
        ("o".to_owned(), Value::Number(f64::from(f.operand_class))),
    ])
}

fn factor_from(v: &Value) -> Result<FactorSig, DeError> {
    Ok(FactorSig {
        unary: u8::from_value(v.get_field("u")?)?,
        rows: key_dim_from(v.get_field("r")?)?,
        cols: key_dim_from(v.get_field("c")?)?,
        props: u16::from_value(v.get_field("p")?)?,
        operand_class: u16::from_value(v.get_field("o")?)?,
    })
}

/// The items of the array field `name` of `v`.
fn array_field<'v>(v: &'v Value, name: &str) -> Result<&'v [Value], DeError> {
    match v.get_field(name)? {
        Value::Array(items) => Ok(items),
        other => Err(DeError(format!("expected `{name}` array, got {other:?}"))),
    }
}

/// Rebuilds a chain of the factor signatures `sigs` over the variables
/// `names`, operand class `o` as operand `M<o>`. A signature numbers
/// the variables by first occurrence in the operands' shapes; `names`
/// lists them as [`SymChain::vars`] does, by first occurrence among the
/// boundary dimensions.
fn rebuild_chain(sigs: &[FactorSig], names: &[DimVar]) -> Result<SymChain, String> {
    let ops = sigs
        .iter()
        .map(|f| {
            UNARY_OPS
                .get(usize::from(f.unary))
                .copied()
                .ok_or_else(|| format!("unknown unary operator code {}", f.unary))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shapes: Vec<(KeyDim, KeyDim)> = sigs
        .iter()
        .zip(&ops)
        .map(|(f, op)| {
            if op.is_transposed() {
                (f.cols, f.rows)
            } else {
                (f.rows, f.cols)
            }
        })
        .collect();
    let boundary = shapes.first().map(|s| s.0).into_iter();
    let mut order: Vec<u16> = Vec::new();
    for d in boundary.chain(shapes.iter().map(|s| s.1)) {
        if let KeyDim::Var(i) = d {
            if !order.contains(&i) {
                order.push(i);
            }
        }
    }
    // In a conforming chain every operand dimension is a boundary one.
    let dim = |d: KeyDim| match d {
        KeyDim::Const(v) => Ok(Dim::Const(v)),
        KeyDim::Var(i) => {
            let at = order.iter().position(|&j| j == i);
            let at = at.ok_or_else(|| "the factor shapes do not conform".to_owned())?;
            names
                .get(at)
                .map(|&v| Dim::Var(v))
                .ok_or_else(|| format!("the binding names no variable for `${i}`"))
        }
    };
    let factors = sigs
        .iter()
        .zip(ops)
        .map(|(f, op)| {
            let operand =
                SymOperand::new(format!("M{}", f.operand_class), dim(f.rows)?, dim(f.cols)?)
                    .with_properties(Property::all().filter(|&p| f.props & (1 << p as u16) != 0))
                    .map_err(|e| e.to_string())?;
            Ok(SymFactor::new(operand, op))
        })
        .collect::<Result<Vec<_>, String>>()?;
    SymChain::new(factors).map_err(|e| e.to_string())
}

impl PlanCache {
    /// Serializes the recording binding of every cached region to a
    /// deterministic `gmc-plan-store/v3` JSON snapshot (structures
    /// sorted by factor signatures, regions by their questions and
    /// answers): the plan store a serving fleet warm-starts from.
    pub fn snapshot_json(&self) -> String {
        let mut structures: Vec<(String, Value)> = self
            .structures()
            .into_iter()
            .map(|(key, plan)| {
                let factors = Value::Array(key.factors.iter().map(factor_value).collect());
                let mut regions: Vec<_> = plan.regions().collect();
                regions.sort_by(|a, b| a.key.cmp(&b.key));
                let regions = regions
                    .into_iter()
                    .map(|region| {
                        let binding = region.vars.iter().zip(&region.values);
                        Value::Object(
                            binding
                                .map(|(var, &v)| (var.name().to_owned(), Value::Number(v as f64)))
                                .collect(),
                        )
                    })
                    .collect();
                let order = serde_json::to_string(&factors).expect("signatures serialize");
                let entry = Value::Object(vec![
                    ("factors".to_owned(), factors),
                    ("regions".to_owned(), Value::Array(regions)),
                ]);
                (order, entry)
            })
            .collect();
        structures.sort_by(|a, b| a.0.cmp(&b.0));
        let doc = Value::Object(vec![
            ("format".to_owned(), Value::String(FORMAT.to_owned())),
            (
                "structures".to_owned(),
                Value::Array(structures.into_iter().map(|(_, entry)| entry).collect()),
            ),
        ]);
        serde_json::to_string_pretty(&doc).expect("plan snapshots contain only finite numbers")
    }

    /// Warm-starts this cache from a snapshot produced by
    /// [`snapshot_json`](Self::snapshot_json): records each stored
    /// binding that no cached region answers yet, under this cache's
    /// registry and inference mode. Returns the number of regions
    /// recorded.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`], leaving the cache as it was, if the
    /// snapshot is malformed or not `gmc-plan-store/v3` (an older store
    /// has to be re-recorded), if a structure's factor signatures do
    /// not rebuild a conforming chain with that structure key, if a
    /// binding does not name exactly the structure's variables in
    /// first-occurrence order, or if a size is 0 or above
    /// [`MAX_DIM`](gmc_expr::MAX_DIM).
    pub fn load_snapshot_json(&self, json: &str) -> Result<usize, PlanError> {
        let store_err = |e: DeError| PlanError::Store(e.to_string());
        let doc: Value = serde_json::from_str(json).map_err(|e| PlanError::Store(e.to_string()))?;
        let format =
            String::from_value(doc.get_field("format").map_err(store_err)?).map_err(store_err)?;
        if format != FORMAT {
            return Err(PlanError::Store(format!(
                "snapshot format `{format}`: this build reads `{FORMAT}`, so re-record the store"
            )));
        }
        // Everything is validated before anything is recorded, so a
        // failed load leaves the cache as it was.
        let mut validated = Vec::new();
        for (s, entry) in array_field(&doc, "structures")
            .map_err(store_err)?
            .iter()
            .enumerate()
        {
            let sigs: Vec<FactorSig> = array_field(entry, "factors")
                .and_then(|factors| factors.iter().map(factor_from).collect())
                .map_err(store_err)?;
            for (r, region) in array_field(entry, "regions")
                .map_err(store_err)?
                .iter()
                .enumerate()
            {
                let invalid =
                    |msg: String| PlanError::Store(format!("structure {s}, region {r}: {msg}"));
                let Value::Object(binding) = region else {
                    return Err(invalid(format!(
                        "expected a binding object, got {region:?}"
                    )));
                };
                let mut names = Vec::with_capacity(binding.len());
                let mut bindings = DimBindings::new();
                for (name, value) in binding {
                    let value = usize::from_value(value).map_err(|e| invalid(e.0))?;
                    names.push(DimVar::new(name));
                    bindings.set(name, value);
                }
                let chain = rebuild_chain(&sigs, &names).map_err(invalid)?;
                if chain.vars() != names {
                    return Err(invalid(format!(
                        "the binding must name the structure's {} variables once each, in \
                         first-occurrence order",
                        chain.vars().len()
                    )));
                }
                let key = structure_key(&chain, self.inference());
                if key.factors != sigs {
                    return Err(invalid(
                        "the factor signatures are not a structure key".to_owned(),
                    ));
                }
                chain
                    .bind_dims(&bindings)
                    .map_err(|e| invalid(e.to_string()))?;
                validated.push((chain, key, bindings));
            }
        }
        let mut recorded = 0;
        for (chain, key, bindings) in &validated {
            recorded += usize::from(self.record_unanswered(chain, key, bindings)?);
        }
        Ok(recorded)
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

    /// Loads the snapshot at `path` (see
    /// [`load_snapshot_json`](Self::load_snapshot_json)); returns the
    /// number of regions recorded.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] on I/O failure or an invalid snapshot.
    pub fn load(&self, path: impl AsRef<Path>) -> Result<usize, PlanError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| PlanError::Store(format!("cannot read {}: {e}", path.display())))?;
        self.load_snapshot_json(&json)
    }
}
