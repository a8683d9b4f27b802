//! Allocation budget of the DP: on a warm workspace, a `Compositional`
//! `solve_with` allocates in proportion to the n−1 winners on the
//! solution tree (their temporaries, operations and steps), not to the
//! n(n+1)/2 cells of the table or the candidates of its splits.
//!
//! A single test in its own binary, so the counting allocator sees one
//! test thread; it counts only while the solving thread has switched it
//! on.

use gmc::{FlopCount, GmcOptimizer, GmcWorkspace};
use gmc_expr::{Chain, Factor, Operand, Property, UnaryOp};
use gmc_kernels::KernelRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations and reallocations of
/// a thread that set `COUNTING`.
struct CountingAllocator;

impl CountingAllocator {
    fn count() {
        // `try_with`: thread-local storage may be gone while a thread
        // exits, and the allocator must not panic then.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`; counting only
// touches const-initialized thread-locals, which do not allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// The number of allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// The allocations a solve may make: four per winner (its temporary's
/// name and operand, its kernel name, and its share of the
/// parenthesization's growth) plus a constant for the step list, the
/// parenthesization and the solution.
fn budget(n: usize) -> usize {
    4 * (n - 1) + 8
}

/// A dense chain of `n` general matrices with varied sizes.
fn dense(n: usize) -> Chain {
    let sizes: Vec<usize> = (0..=n).map(|i| 20 + (i * 37) % 90).collect();
    let factors = (0..n)
        .map(|i| Factor::plain(Operand::matrix(format!("M{i}"), sizes[i], sizes[i + 1])))
        .collect();
    Chain::new(factors).expect("matching sizes")
}

/// A chain of `n` square factors cycling through properties and unary
/// operators, one operand repeated (so `SYRK` and aliasing apply),
/// ending in a column vector.
fn structured(n: usize) -> Chain {
    let m = 40;
    let props = [
        Some(Property::LowerTriangular),
        None,
        Some(Property::SymmetricPositiveDefinite),
        Some(Property::Diagonal),
        Some(Property::UpperTriangular),
        Some(Property::Symmetric),
    ];
    let ops = [
        UnaryOp::None,
        UnaryOp::Transpose,
        UnaryOp::Inverse,
        UnaryOp::InverseTranspose,
    ];
    let shared = Operand::square("A", m);
    let mut factors: Vec<Factor> = (0..n - 1)
        .map(|i| {
            if i % 5 == 1 {
                return Factor::new(shared.clone(), ops[i % 2]);
            }
            let operand = Operand::square(format!("S{i}"), m);
            let operand = match props[i % props.len()] {
                Some(p) => operand.with_property(p),
                None => operand,
            };
            Factor::new(operand, ops[i % ops.len()])
        })
        .collect();
    factors.push(Factor::plain(Operand::col_vector("x", m)));
    Chain::new(factors).expect("square factors and a vector")
}

#[test]
fn warm_solves_allocate_per_winner() {
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let mut workspace = GmcWorkspace::new();
    for n in [4, 8, 16] {
        for chain in [dense(n), structured(n)] {
            // Warm the workspace's table for this length.
            let cold = optimizer
                .solve_with(&chain, &mut workspace)
                .expect("computable");
            let (warm, count) = allocations(|| optimizer.solve_with(&chain, &mut workspace));
            let warm = warm.expect("computable");
            assert_eq!(warm.parenthesization(), cold.parenthesization());
            assert_eq!(warm.steps().len(), n - 1);
            assert!(
                count <= budget(n),
                "n = {n}: {count} allocations, budget {} ({} cells) on {chain}",
                budget(n),
                n * (n + 1) / 2
            );
        }
    }
}
