//! Allocation budget of the code emitters: `JuliaEmitter`,
//! `RustEmitter` and `PseudoEmitter` each write a program into one
//! `String` sized up front, beside at most two bookkeeping buffers (the
//! Julia buffer map, the Rust name list, the pseudocode math forms and
//! their spans). Their allocations stay within a constant plus a
//! fraction of the instructions, for the output to grow past its
//! estimate. It fails loudly if per-line or per-argument strings creep
//! back into an emitter, as before they wrote into one buffer (5–8
//! allocations per instruction for Julia and pseudocode).

mod alloc_counter;

use alloc_counter::allocations;
use gmc::{FlopCount, GmcOptimizer};
use gmc_codegen::{Emitter, JuliaEmitter, PseudoEmitter, RustEmitter};
use gmc_experiments::generator::{random_chains, GeneratorConfig};
use gmc_expr::UnaryOp;
use gmc_kernels::KernelRegistry;

/// The allocations an emitter may make on a program.
fn budget(instructions: usize) -> usize {
    4 + instructions / 4
}

#[test]
fn emitters_allocate_per_instruction() {
    let registry = KernelRegistry::blas_lapack();
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let emitters: [&dyn Emitter; 3] = [&JuliaEmitter::default(), &RustEmitter, &PseudoEmitter];
    let (mut with_properties, mut with_unary) = (0, 0);
    for n in [3, 6, 10] {
        // Sec. 4 chains of length `n`.
        let config = GeneratorConfig {
            len_min: n,
            len_max: n,
            ..GeneratorConfig::measured_scale()
        };
        for chain in random_chains(&config, 40, 0xE317 + n as u64) {
            let factors = chain.factors();
            with_properties +=
                usize::from(factors.iter().any(|f| !f.operand().properties().is_empty()));
            with_unary += usize::from(factors.iter().any(|f| f.op() != UnaryOp::None));
            let program = optimizer.solve(&chain).expect("computable").program();
            for emitter in emitters {
                let (code, count) = allocations(|| emitter.emit(&program));
                assert!(
                    count <= budget(program.len()),
                    "{} on n = {n}: {count} allocations, budget {}, emitting\n{code}",
                    emitter.language(),
                    budget(program.len())
                );
            }
        }
    }
    assert!(
        with_properties > 0 && with_unary > 0,
        "the sample covers properties and unary operators"
    );
}
