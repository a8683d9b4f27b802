//! The registry's slot dispatch against a discrimination net over the
//! same kernel patterns, plus pins on the default registry itself.
//!
//! The net is the general matcher (paper Sec. 3.4); the registry only
//! dispatches on the two unary operators of a binary product. Both must
//! yield the same `(kernel index, bindings)` sequence — the plan store's
//! candidate order depends on it — and therefore the same winner.

use gmc_expr::{Expr, Operand, Property, UnaryOp};
use gmc_kernels::{Kernel, KernelFamily, KernelOp, KernelRegistry};
use gmc_pattern::{Bindings, DiscriminationNet, FlatTermScratch};
use proptest::prelude::*;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const PROPERTIES: [Property; 11] = [
    Property::Diagonal,
    Property::LowerTriangular,
    Property::UpperTriangular,
    Property::Symmetric,
    Property::SymmetricPositiveDefinite,
    Property::Identity,
    Property::Zero,
    Property::Orthogonal,
    Property::Permutation,
    Property::UnitDiagonal,
    Property::FullRank,
];

const UNARY: [UnaryOp; 4] = [
    UnaryOp::None,
    UnaryOp::Transpose,
    UnaryOp::Inverse,
    UnaryOp::InverseTranspose,
];

/// The registries under test: the default one and the ablations.
fn registries() -> Vec<KernelRegistry> {
    vec![
        KernelRegistry::blas_lapack(),
        KernelRegistry::mcp_only(),
        KernelRegistry::builder()
            .without_family(KernelFamily::Gemm)
            .build(),
        KernelRegistry::builder()
            .without_family(KernelFamily::Syrk)
            .build(),
        KernelRegistry::builder()
            .without_composite_inverse()
            .build(),
    ]
}

/// A discrimination net over `registry`'s patterns, payload = index.
fn net_of(registry: &KernelRegistry) -> DiscriminationNet<usize> {
    let mut net = DiscriminationNet::new();
    for (index, kernel) in registry.kernels().iter().enumerate() {
        net.insert(kernel.pattern().clone(), index);
    }
    net
}

fn satisfied(kernel: &Kernel, bindings: &Bindings) -> bool {
    kernel.constraints().iter().all(|c| c.check(bindings))
}

/// The net's constraint-satisfying matches of `left · right`, in the
/// order it visits them.
fn net_sequence(
    registry: &KernelRegistry,
    net: &DiscriminationNet<usize>,
    left: &Expr,
    right: &Expr,
) -> Vec<(usize, Bindings)> {
    let mut out = Vec::new();
    net.match_product_with(left, right, &mut FlatTermScratch::new(), |&id, b| {
        if satisfied(&registry.kernels()[id], b) {
            out.push((id, b.clone()));
        }
    });
    out
}

fn dispatch_sequence(
    registry: &KernelRegistry,
    left: &Expr,
    right: &Expr,
) -> Vec<(usize, Bindings)> {
    let mut out = Vec::new();
    registry.for_each_product_match(left, right, |id, _, b| out.push((id, b.clone())));
    out
}

/// The net-side winner: the within-split rule over the net's matches.
fn net_winner(registry: &KernelRegistry, seq: &[(usize, Bindings)]) -> Option<usize> {
    let kernels = registry.kernels();
    seq.iter()
        .map(|(id, b)| {
            (
                *id,
                kernels[*id].rank(*id, kernels[*id].instantiate(b).flops()),
            )
        })
        .reduce(|w, c| if c.1.beats(&w.1) { c } else { w })
        .map(|(id, _)| id)
}

/// An operand: one of three names, one of five shapes (square twice,
/// rectangular, column and row vector), and up to two properties that
/// its shape admits.
fn operand() -> impl Strategy<Value = Operand> {
    (
        0..3usize,
        0..5usize,
        prop::collection::vec(prop::sample::select(PROPERTIES.to_vec()), 0..3),
    )
        .prop_map(|(name, shape, props)| {
            let name = ["A", "B", "C"][name];
            let mut op = match shape {
                0 | 1 => Operand::square(name, 6),
                2 => Operand::matrix(name, 6, 4),
                3 => Operand::col_vector(name, 6),
                _ => Operand::row_vector(name, 6),
            };
            for p in props {
                if !p.requires_square() || op.shape().is_square() {
                    op = op.with_property(p);
                }
            }
            op
        })
}

fn apply(op: UnaryOp, e: Expr) -> Expr {
    match op {
        UnaryOp::None => e,
        UnaryOp::Transpose => Expr::transpose(e),
        UnaryOp::Inverse => Expr::inverse(e),
        UnaryOp::InverseTranspose => Expr::inverse_transpose(e),
    }
}

/// A product factor: mostly a leaf under one of the four unary
/// operators, sometimes a nested product, a sum, a unary over a product
/// or a double unary.
fn factor() -> impl Strategy<Value = Expr> {
    (0..12usize, 0..4usize, operand(), operand()).prop_map(|(kind, unary, a, b)| {
        let op = UNARY[unary];
        match kind {
            8 => Expr::times([a.expr(), b.expr()]),
            9 => Expr::plus([a.expr(), b.expr()]),
            10 => apply(op.then_transpose(), Expr::times([a.expr(), b.expr()])),
            // The constructors would fuse this into `a⁻ᵀ`.
            11 => Expr::Transpose(Box::new(Expr::Inverse(Box::new(a.expr())))),
            _ => apply(op, a.expr()),
        }
    })
}

/// The leaf operand of a factor, if it is one.
fn leaf_operand(e: &Expr) -> Option<&Operand> {
    match e {
        Expr::Symbol(op) => Some(op),
        Expr::Transpose(inner) | Expr::Inverse(inner) | Expr::InverseTranspose(inner) => {
            match &**inner {
                Expr::Symbol(op) => Some(op),
                _ => None,
            }
        }
        _ => None,
    }
}

fn check_product(
    registries: &[(KernelRegistry, DiscriminationNet<usize>)],
    left: &Expr,
    right: &Expr,
) {
    for (registry, net) in registries {
        let expected = net_sequence(registry, net, left, right);
        let got = dispatch_sequence(registry, left, right);
        assert_eq!(got, expected, "match sequence of ({left}) · ({right})");

        let winner = registry
            .best_product_match(left, right, KernelOp::flops)
            .map(|m| m.kernel.name().to_owned());
        let expected_winner =
            net_winner(registry, &expected).map(|id| registry.kernels()[id].name().to_owned());
        assert_eq!(winner, expected_winner, "winner of ({left}) · ({right})");

        let product = Expr::Times(vec![left.clone(), right.clone()]);
        let collected: Vec<usize> = registry
            .match_expr(&product)
            .iter()
            .map(|m| {
                registry
                    .kernels()
                    .iter()
                    .position(|k| std::ptr::eq(k, m.kernel))
                    .expect("kernel of this registry")
            })
            .collect();
        let net_collected: Vec<usize> = net
            .matches(&product)
            .iter()
            .filter(|m| satisfied(&registry.kernels()[*m.payload], &m.bindings))
            .map(|m| *m.payload)
            .collect();
        assert_eq!(collected, net_collected, "match_expr of {product}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1500))]

    /// Random binary products — every unary pair, every property, the
    /// same operand on both sides, and non-leaf factors — match the same
    /// kernels with the same bindings in the same order as the net, on
    /// the default registry and the ablations.
    #[test]
    fn dispatch_agrees_with_discrimination_net(
        left in factor(),
        right in factor(),
        mirror in 0..3usize,
        mirror_unary in 0..4usize,
    ) {
        // One case in three reuses the left leaf on the right (SYRK).
        let right = match (mirror, leaf_operand(&left)) {
            (0, Some(op)) => apply(UNARY[mirror_unary], op.expr()),
            _ => right,
        };
        let registries: Vec<_> = registries()
            .into_iter()
            .map(|r| {
                let net = net_of(&r);
                (r, net)
            })
            .collect();
        check_product(&registries, &left, &right);
    }
}

/// Every unary pair over a fixed operand set, exhaustively: the same
/// operand on both sides for every property, and distinct operands.
#[test]
fn dispatch_agrees_with_net_on_every_unary_pair() {
    let registries: Vec<_> = registries()
        .into_iter()
        .map(|r| {
            let net = net_of(&r);
            (r, net)
        })
        .collect();
    let mut operands = vec![
        Operand::square("A", 5),
        Operand::matrix("R", 5, 3),
        Operand::col_vector("x", 5),
        Operand::row_vector("y", 5),
    ];
    for p in PROPERTIES {
        operands.push(Operand::square("S", 5).with_property(p));
    }
    for a in &operands {
        for b in &operands {
            for lu in UNARY {
                for ru in UNARY {
                    check_product(&registries, &apply(lu, a.expr()), &apply(ru, b.expr()));
                }
            }
        }
    }
}

/// Paper Table 1 plus the extensions, in registration order. The order
/// decides `Rank` ties and is what plan stores' kernel indices mean.
#[test]
fn table1_is_pinned() {
    let registry = KernelRegistry::blas_lapack();
    assert_eq!(registry.len(), 92);
    assert_eq!(
        fnv1a64(registry.describe().as_bytes()),
        0xa966_5857_8445_9e06,
        "the default registry's kernels, patterns, constraints or order changed"
    );
}

/// Every `blas_lapack()` handle shares one table, built once.
#[test]
fn default_registry_is_shared() {
    let a = KernelRegistry::blas_lapack();
    let b = KernelRegistry::blas_lapack();
    assert!(std::ptr::eq(a.kernels().as_ptr(), b.kernels().as_ptr()));
    let c = a.clone();
    assert!(std::ptr::eq(a.kernels().as_ptr(), c.kernels().as_ptr()));
    // The builder still builds a table of its own.
    let fresh = KernelRegistry::builder().build();
    assert!(!std::ptr::eq(
        a.kernels().as_ptr(),
        fresh.kernels().as_ptr()
    ));
    assert_eq!(fresh.describe(), a.describe());
}
