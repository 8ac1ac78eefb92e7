//! Reproducibility: generators are byte-stable, simulated timelines are
//! exactly repeatable, and results are independent of thread count.

use oocgemm::{
    prepare_grid, Hybrid, HybridConfig, OocConfig, OutOfCoreGpu, Outcome, Request, Service,
    ServiceConfig,
};
use sparse::gen::{erdos_renyi, suite, SuiteMatrix, SuiteScale};
use sparse::{ColId, CsrMatrix};

#[test]
fn suite_generation_is_byte_stable() {
    let a = suite(SuiteScale::Tiny);
    let b = suite(SuiteScale::Tiny);
    for ((id_a, m_a), (id_b, m_b)) in a.iter().zip(&b) {
        assert_eq!(id_a, id_b);
        assert_eq!(m_a, m_b, "{} not reproducible", id_a.abbr());
    }
}

#[test]
fn simulated_times_are_exactly_repeatable() {
    let m = SuiteMatrix::Wiki0925.generate(SuiteScale::Tiny);
    let run = || {
        OutOfCoreGpu::new(OocConfig::with_device_memory(1 << 20))
            .multiply(&m, &m)
            .unwrap()
    };
    let r1 = run();
    let r2 = run();
    assert_eq!(r1.sim_ns, r2.sim_ns);
    assert_eq!(r1.order, r2.order);
    assert_eq!(r1.timeline.records.len(), r2.timeline.records.len());
    for (a, b) in r1.timeline.records.iter().zip(&r2.timeline.records) {
        assert_eq!((a.start, a.end, &a.label), (b.start, b.end, &b.label));
    }
    assert!(
        r1.c.approx_eq(&r2.c, 0.0),
        "numeric results must be bit-identical"
    );
}

#[test]
fn hybrid_times_are_exactly_repeatable() {
    let m = SuiteMatrix::Stokes.generate(SuiteScale::Tiny);
    let cfg = || HybridConfig {
        gpu: OocConfig::with_device_memory(1 << 21),
        ..HybridConfig::paper_default()
    };
    let r1 = Hybrid::new(cfg()).multiply(&m, &m).unwrap();
    let r2 = Hybrid::new(cfg()).multiply(&m, &m).unwrap();
    assert_eq!(r1.sim_ns, r2.sim_ns);
    assert_eq!(r1.gpu_ns, r2.gpu_ns);
    assert_eq!(r1.cpu_ns, r2.cpu_ns);
    assert_eq!(r1.num_gpu_chunks, r2.num_gpu_chunks);
}

/// A matrix as exact bits: offsets, column ids and value bit patterns.
fn bits(m: &CsrMatrix) -> (Vec<usize>, Vec<ColId>, Vec<u64>) {
    (
        m.row_offsets().to_vec(),
        m.col_ids().to_vec(),
        m.values().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Runs `f` with parallel calls limited to `threads` threads.
fn at_width<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool builds")
        .install(f)
}

/// Everything a small service replay returns: per completion its id,
/// product bits, metrics JSON and simulated timing.
fn service_replay() -> Vec<String> {
    let config = ServiceConfig::new().gpu(OocConfig::with_device_memory(1 << 19).panels(2, 2));
    let mut svc = Service::new(config).expect("valid service config");
    let keys: Vec<usize> = (0..3)
        .map(|s| svc.intern(erdos_renyi(140, 140, 0.04, 21 + s)))
        .collect();
    for id in 0..9u64 {
        let (a, b) = (keys[id as usize % 3], keys[(id as usize + 1) % 3]);
        let tenant = format!("t{}", id % 2);
        let req = if id % 4 == 3 {
            Request::power(id, tenant, a, 2)
        } else {
            Request::multiply(id, tenant, a, b)
        };
        svc.submit(req.at(id * 50_000)).expect("valid request");
    }
    svc.drain()
        .expect("service drains")
        .into_iter()
        .map(|done| match done.outcome {
            Outcome::Completed {
                c,
                metrics,
                start_ns,
                finish_ns,
                batch_hit,
                ..
            } => format!(
                "{} {:?} {} {start_ns} {finish_ns} {batch_hit}",
                done.id,
                bits(&c),
                serde_json::to_string(&*metrics).expect("metrics serialize"),
            ),
            other => format!("{} {other:?}", done.id),
        })
        .collect()
}

#[test]
fn results_independent_of_thread_count() {
    // One thread against a forced four: parts run on whichever thread
    // claims them, and every result must still be bit for bit the same
    // (DESIGN.md §7). `Metrics` holds no wall-clock field, so its whole
    // JSON document is compared.
    let m = SuiteMatrix::Wiki1104.generate(SuiteScale::Tiny);
    let kernel = |w| {
        at_width(w, || {
            bits(&cpu_spgemm::parallel_hash::multiply(&m, &m).unwrap())
        })
    };
    assert_eq!(kernel(1), kernel(4), "parallel_hash::multiply");

    let cfg = OocConfig::with_device_memory(1 << 20);
    let grids = [1, 4].map(|w| at_width(w, || prepare_grid(&m, &m, &cfg).unwrap()));
    assert_eq!(grids[0].prepared.len(), grids[1].prepared.len());
    for (one, four) in grids[0].prepared.iter().zip(&grids[1].prepared) {
        assert_eq!(one.desc, four.desc, "chunk descriptor");
        assert_eq!(bits(&one.result), bits(&four.result), "chunk product");
    }

    let ooc = |w| {
        at_width(w, || {
            let run = OutOfCoreGpu::new(cfg.clone()).multiply(&m, &m).unwrap();
            (bits(&run.c), serde_json::to_string(&run.metrics).unwrap())
        })
    };
    assert_eq!(ooc(1), ooc(4), "OutOfCoreGpu::multiply");

    let s = SuiteMatrix::Stokes.generate(SuiteScale::Tiny);
    let hybrid = |w| {
        at_width(w, || {
            let config = HybridConfig {
                gpu: OocConfig::with_device_memory(1 << 21),
                ..HybridConfig::paper_default()
            };
            let run = Hybrid::new(config).multiply(&s, &s).unwrap();
            (bits(&run.c), serde_json::to_string(&run.metrics).unwrap())
        })
    };
    assert_eq!(hybrid(1), hybrid(4), "Hybrid::multiply");

    assert_eq!(
        at_width(1, service_replay),
        at_width(4, service_replay),
        "service replay"
    );
}

#[test]
fn ratio_search_is_deterministic() {
    let m = SuiteMatrix::Uk2002.generate(SuiteScale::Tiny);
    let cfg = || HybridConfig {
        gpu: OocConfig::with_device_memory(1 << 21),
        ..HybridConfig::paper_default()
    };
    let s1 = Hybrid::new(cfg()).ratio_search(&m, &m).unwrap();
    let s2 = Hybrid::new(cfg()).ratio_search(&m, &m).unwrap();
    assert_eq!(s1.per_g, s2.per_g);
    assert_eq!(s1.best_g, s2.best_g);
}
