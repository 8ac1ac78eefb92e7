//! Cross-crate integration: every executor in the workspace computes
//! the same product on matrices from every generator family.

use cpu_spgemm::{dense_blocked, mkl_like, parallel_hash, reference};
use oocgemm::{ExecMode, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu};
use sparse::gen::{erdos_renyi, grid2d_stencil, locality_graph, rmat, RmatConfig};
use sparse::CsrMatrix;

fn fixtures() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("erdos", erdos_renyi(300, 300, 0.04, 1)),
        ("rmat", rmat(RmatConfig::skewed(9, 6000), 2)),
        ("stencil", grid2d_stencil(20, 20, 2, 3)),
        ("locality", locality_graph(400, 10.0, 12, 0.02, 4)),
    ]
}

fn ooc_config() -> OocConfig {
    OocConfig::with_device_memory(1 << 18)
}

#[test]
fn all_executors_agree() {
    for (name, a) in fixtures() {
        let expect = reference::multiply(&a, &a).unwrap();

        let got = parallel_hash::multiply(&a, &a).unwrap();
        assert!(
            got.approx_eq(&expect, 1e-9),
            "parallel_hash diverged on {name}"
        );

        let got = dense_blocked::multiply_with_width(&a, &a, 64).unwrap();
        assert!(
            got.approx_eq(&expect, 1e-9),
            "dense_blocked diverged on {name}"
        );

        let got = mkl_like::multiply(&a, &a).unwrap();
        assert!(got.approx_eq(&expect, 1e-9), "mkl_like diverged on {name}");

        let got = OutOfCoreGpu::new(ooc_config()).multiply(&a, &a).unwrap();
        assert!(
            got.c.approx_eq(&expect, 1e-9),
            "ooc async diverged on {name}"
        );
        assert!(
            got.plan.num_chunks() > 1,
            "{name} was not actually partitioned"
        );

        let got = OutOfCoreGpu::new(ooc_config().mode(ExecMode::Sync))
            .multiply(&a, &a)
            .unwrap();
        assert!(
            got.c.approx_eq(&expect, 1e-9),
            "ooc sync diverged on {name}"
        );

        for ratio in [0.0, 0.35, 0.65, 1.0] {
            let cfg = HybridConfig {
                gpu: ooc_config(),
                ..HybridConfig::paper_default()
            }
            .ratio(ratio);
            let got = Hybrid::new(cfg).multiply(&a, &a).unwrap();
            assert!(
                got.c.approx_eq(&expect, 1e-9),
                "hybrid(ratio={ratio}) diverged on {name}"
            );
        }
    }
}

#[test]
fn rectangular_chain_association() {
    // (A·B)·C == A·(B·C) across executors and shapes.
    let a = erdos_renyi(120, 90, 0.06, 5);
    let b = erdos_renyi(90, 150, 0.06, 6);
    let c = erdos_renyi(150, 80, 0.06, 7);
    let ooc = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 18));

    let ab = ooc.multiply(&a, &b).unwrap().c;
    let ab_c = ooc.multiply(&ab, &c).unwrap().c;
    let bc = parallel_hash::multiply(&b, &c).unwrap();
    let a_bc = reference::multiply(&a, &bc).unwrap();
    assert!(ab_c.approx_eq(&a_bc, 1e-8), "associativity violated");
}

#[test]
fn ooc_handles_empty_and_identity() {
    let ooc = OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 20));
    let z = CsrMatrix::zeros(50, 50);
    let run = ooc.multiply(&z, &z).unwrap();
    assert_eq!(run.c.nnz(), 0);

    let i = CsrMatrix::identity(200);
    let a = erdos_renyi(200, 200, 0.05, 8);
    let run = ooc.multiply(&i, &a).unwrap();
    assert_eq!(run.c, a);
}
