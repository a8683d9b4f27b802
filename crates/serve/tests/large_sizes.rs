//! Served answers at the largest admitted sizes, across a live TCP
//! socket: a region recorded at a small size serves sizes up to 2^32,
//! where FLOP costs are no longer exact in `f64`, with the answer of a
//! cold concrete solve, bit for bit.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp, MAX_DIM};
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanOutcome;
use gmc_serve::protocol::reply_to_json;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{ServeConfig, ServeReply, Served, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// `U U⁻¹ U U M Uᵀ U⁻¹` over `n × n` operands, `U` upper triangular:
/// several parenthesizations tie at the optimum 6n³.
fn tied_chain() -> SymChain {
    let n = Dim::var("n");
    let u = SymOperand::square("U", n)
        .with_property(Property::UpperTriangular)
        .expect("square");
    SymChain::new(vec![
        SymFactor::plain(u.clone()),
        SymFactor::new(u.clone(), UnaryOp::Inverse),
        SymFactor::plain(u.clone()),
        SymFactor::plain(u.clone()),
        SymFactor::plain(SymOperand::square("M", n)),
        SymFactor::new(u.clone(), UnaryOp::Transpose),
        SymFactor::new(u, UnaryOp::Inverse),
    ])
    .expect("dims line up")
}

#[test]
fn tcp_replies_match_cold_solves_at_large_sizes() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let config = ServeConfig::default();
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(config.inference);
    assert_eq!(config.inference, InferenceMode::Compositional);
    let server = Server::start(registry.clone(), config);
    server.register("X", tied_chain()).unwrap();
    let door = TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(door.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    let sizes = [40, 3 * (1 << 26) + 5, (1 << 27) + 1, (1 << 28) - 3, MAX_DIM];
    for (at, size) in sizes.into_iter().enumerate() {
        writeln!(writer, "X n={size}").unwrap();
        writer.flush().unwrap();
        let got = lines.next().unwrap().unwrap();
        let chain = tied_chain()
            .bind(&DimBindings::new().with("n", size))
            .unwrap();
        let cold = optimizer.solve(&chain).unwrap();
        let want = reply_to_json(&ServeReply {
            structure: "X".to_owned(),
            result: Ok(Served {
                outcome: if at == 0 {
                    PlanOutcome::MissStructure
                } else {
                    PlanOutcome::Hit
                },
                cost: cold.cost(),
                flops: cold.flops(),
                parenthesization: cold.parenthesization().to_owned(),
                kernels: cold.kernel_names().into_iter().map(str::to_owned).collect(),
            }),
        });
        // The reply renders each number in its shortest round-trip
        // form, so equal lines mean equal cost and FLOP bits.
        assert_eq!(got, want, "n = {size}");
        assert!(
            got.contains("\"parenthesization\":\"(U (U^-1 (U (U ((M U^T) U^-1)))))\""),
            "{got}"
        );
    }
    drop(writer);
    drop(lines);
    door.shutdown();
    server.shutdown();
}
