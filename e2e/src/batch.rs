//! The batch workloads: each operation squares one input through one
//! public entry point, and every product is compared bit for bit with
//! a reference computed during set-up.

use crate::gate::Probe;
use crate::inputs::{self, Class};
use crate::layers::{EndToEnd, Layers};
use crate::trace::Tracer;
use crate::{Opts, Outcome};
use oocgemm::assemble::assemble;
use oocgemm::report::cpu_baseline_ns;
use oocgemm::{
    prepare_grid, ChunkId, CpuKernel, EstimatorKind, ExecMode, Hybrid, HybridConfig, Metrics,
    OocConfig, OutOfCoreGpu, PanelPlan, Planner, PreparedGrid,
};
use sparse::CsrMatrix;
use std::time::Instant;

/// Which public entry point a batch workload times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `Hybrid::multiply` with the paper's defaults.
    Hybrid,
    /// `OutOfCoreGpu::multiply`: async mode with speculative planning.
    Gpu,
    /// `cpu_spgemm::multiply_with_kernel` with the default kernel.
    Cpu,
}

/// Each batch run keeps at least this many products after the
/// interference gate, so the tail percentile always has ten samples
/// beyond it.
const MIN_OPS: usize = crate::stats::min_samples_for_tail();

enum Exec {
    Hybrid(Hybrid),
    Gpu(OutOfCoreGpu),
    /// The CPU baseline, with its simulated time: the library's CPU
    /// cost model over the whole product, fixed by the input.
    Cpu {
        sim_ns: u64,
    },
}

/// What a device-side entry point returned, reduced to what is
/// measured.
struct GpuRun {
    c: CsrMatrix,
    sim_ns: u64,
    metrics: Metrics,
    /// Chunk order the executor assembled in.
    order: Vec<ChunkId>,
}

impl Exec {
    fn config(&self) -> &OocConfig {
        match self {
            Exec::Hybrid(h) => &h.config().gpu,
            Exec::Gpu(g) => g.config(),
            Exec::Cpu { .. } => unreachable!("the CPU baseline has no device configuration"),
        }
    }

    /// The one-shot entry point, `C = A·A`.
    fn multiply(&self, a: &CsrMatrix) -> oocgemm::Result<(CsrMatrix, u64)> {
        match self {
            Exec::Hybrid(h) => h.multiply(a, a).map(|r| (r.c, r.sim_ns)),
            Exec::Gpu(g) => g.multiply(a, a).map(|r| (r.c, r.sim_ns)),
            Exec::Cpu { sim_ns } => cpu_spgemm::multiply_with_kernel(a, a, CpuKernel::default())
                .map(|c| (c, *sim_ns))
                .map_err(oocgemm::OocError::from),
        }
    }

    /// The second half of the one-shot path, on a prepared grid.
    fn multiply_prepared(&self, a: &CsrMatrix, pg: &PreparedGrid) -> oocgemm::Result<GpuRun> {
        match self {
            Exec::Hybrid(h) => h.multiply_prepared(a, pg).map(|r| GpuRun {
                c: r.c,
                sim_ns: r.sim_ns,
                metrics: r.metrics,
                // Hybrid assembles in density order (the paper's
                // reordered assignment, on by default).
                order: pg.grid.sorted_desc().iter().map(|i| i.id).collect(),
            }),
            Exec::Gpu(g) => g.multiply_prepared(a, pg).map(|r| GpuRun {
                c: r.c,
                sim_ns: r.sim_ns,
                metrics: r.metrics,
                order: r.order,
            }),
            Exec::Cpu { .. } => unreachable!("the CPU baseline has no device executor"),
        }
    }
}

struct Input {
    a: CsrMatrix,
    reference: CsrMatrix,
    flops: u64,
    exec: Exec,
}

fn executor(kind: Kind, class: Class, flops: u64, nnz_c: u64) -> Exec {
    let gpu = OocConfig::with_device_memory(inputs::device_bytes(class, nnz_c));
    match kind {
        Kind::Hybrid => Exec::Hybrid(Hybrid::new(HybridConfig {
            gpu,
            ..HybridConfig::paper_default()
        })),
        Kind::Gpu => Exec::Gpu(OutOfCoreGpu::new(gpu)),
        Kind::Cpu => Exec::Cpu {
            sim_ns: cpu_baseline_ns(&gpu.cost, flops, nnz_c),
        },
    }
}

/// Builds a workload's inputs: generation, reference products, device
/// sizing, and one untimed warm-up operation per input.
fn setup(kind: Kind, opts: &Opts) -> Vec<Input> {
    let mats = match kind {
        Kind::Hybrid => inputs::social(opts.seed, opts.scale),
        Kind::Gpu => inputs::regular(opts.seed, opts.scale),
        // The CPU baseline squares the same matrices as the two device
        // workloads, so its GFLOPS compare with theirs input for input.
        Kind::Cpu => {
            let mut all = inputs::social(opts.seed, opts.scale);
            all.extend(inputs::regular(opts.seed, opts.scale));
            all
        }
    };
    mats.into_iter()
        .map(|(class, a)| {
            let reference = cpu_spgemm::multiply_reference(&a, &a).expect("inputs are square");
            let flops = sparse::stats::total_flops(&a, &a);
            let input = Input {
                flops,
                exec: executor(kind, class, flops, reference.nnz() as u64),
                a,
                reference,
            };
            // A failing warm-up fails again, and is counted, when timed.
            let _ = input.exec.multiply(&input.a);
            input
        })
        .collect()
}

/// One measured operation.
struct Op {
    /// Host wall time of the public entry point (untraced) or of the
    /// `product` span (traced), ns.
    wall_ns: u64,
    sim_ns: u64,
    /// The product was computed and is bit-identical to the reference.
    ok: bool,
}

impl Op {
    /// An operation that returned an error.
    fn failed(wall_ns: u64) -> Self {
        Op {
            wall_ns,
            sim_ns: 0,
            ok: false,
        }
    }
}

fn timed(input: &Input) -> Op {
    let t = Instant::now();
    let out = input.exec.multiply(&input.a);
    let wall_ns = t.elapsed().as_nanos() as u64;
    match out {
        Ok((c, sim_ns)) => Op {
            wall_ns,
            sim_ns,
            ok: c == input.reference,
        },
        Err(_) => Op::failed(wall_ns),
    }
}

/// The plan probe: the planner `prepare_grid` builds under the same
/// configuration, then the same grid search.
fn plan(a: &CsrMatrix, cfg: &OocConfig) -> oocgemm::Result<PanelPlan> {
    let planner = if cfg.mode == ExecMode::Async && cfg.estimator.kind != EstimatorKind::Exact {
        Planner::estimated(a, a, &cfg.estimator)?
    } else {
        Planner::new(a, a)?
    };
    match cfg.panels {
        Some((r, c)) => planner.fixed(r, c),
        None => planner.auto(cfg.device.device_memory_bytes),
    }
}

/// One device-side product with spans: `product` = `prepare` +
/// `execute` (exactly the one-shot path), then the sibling probes
/// `plan` and `assemble`, then `check`.
fn traced_gpu(input: &Input, op: u64, tr: &mut Tracer, layers: &mut Layers) -> Op {
    let cfg = input.exec.config();
    let product = tr.begin("product", op, None);
    let prepared = tr.span("prepare", op, Some(product), || {
        prepare_grid(&input.a, &input.a, cfg)
    });
    let run = prepared.as_ref().ok().map(|pg| {
        tr.span("execute", op, Some(product), || {
            input.exec.multiply_prepared(&input.a, pg)
        })
    });
    let wall_ns = tr.end(product);
    let (Ok(pg), Some(Ok(run))) = (prepared, run) else {
        return Op::failed(wall_ns);
    };
    if let Ok(p) = tr.span("plan", op, None, || plan(&input.a, cfg)) {
        layers.plan_chunks.push(p.num_chunks() as f64);
    }
    let chunks: Vec<(ChunkId, &CsrMatrix)> = run
        .order
        .iter()
        .map(|&id| (id, &pg.chunk(id).result))
        .collect();
    let assembled = tr.span("assemble", op, None, || assemble(&pg.plan, &chunks));
    drop(assembled);
    let ok = tr.span("check", op, None, || run.c == input.reference);
    layers.runs.push(run.metrics);
    Op {
        wall_ns,
        sim_ns: run.sim_ns,
        ok,
    }
}

/// One CPU-baseline product with spans, plus the pick-count probe.
fn traced_cpu(input: &Input, sim_ns: u64, op: u64, tr: &mut Tracer, layers: &mut Layers) -> Op {
    let product = tr.begin("product", op, None);
    let c = tr.span("cpu_kernel", op, Some(product), || {
        cpu_spgemm::multiply_with_kernel(&input.a, &input.a, CpuKernel::default())
    });
    let wall_ns = tr.end(product);
    let Ok(c) = c else {
        return Op::failed(wall_ns);
    };
    if let Ok((_, picks)) = tr.span("picks", op, None, || {
        cpu_spgemm::multiply_with_picks(&input.a, &input.a)
    }) {
        layers.picks[0] += picks.hash;
        layers.picks[1] += picks.dense;
        layers.picks[2] += picks.merge;
    }
    let ok = tr.span("check", op, None, || c == input.reference);
    Op {
        wall_ns,
        sim_ns,
        ok,
    }
}

/// Runs one batch workload: set-up (see `crate::set_up`), then whole
/// rounds (one product of every input) until `opts.seconds` have
/// passed and at least `MIN_OPS` products were timed. A traced run
/// alternates untraced and traced rounds, so tracing overhead is
/// measured in the same process.
pub fn run(kind: Kind, opts: &Opts) -> Outcome {
    let (inputs, setup_s) = crate::set_up(opts, || setup(kind, opts));
    let probe = Probe::new();
    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    let mut op = 0u64;
    for round in 0u64.. {
        let traced = opts.trace && round % 2 == 1;
        if !traced {
            e2e.begin_round(probe.measure());
        }
        for input in &inputs {
            op += 1;
            if !traced {
                let m = timed(input);
                layers.untraced_ms.push(m.wall_ns as f64 / 1e6);
                e2e.add_product(m.wall_ns, m.sim_ns, input.flops, m.ok);
                continue;
            }
            let m = match input.exec {
                Exec::Cpu { sim_ns } => traced_cpu(input, sim_ns, op, &mut tr, &mut layers),
                _ => traced_gpu(input, op, &mut tr, &mut layers),
            };
            layers.traced_ms.push(m.wall_ns as f64 / 1e6);
            layers.attempted += 1;
            layers.failed += u64::from(!m.ok);
        }
        layers.rounds += u64::from(traced);
        let enough = if opts.trace {
            layers.rounds > 0
        } else {
            e2e.quiet_ops() >= MIN_OPS
        };
        if enough && start.elapsed().as_secs() >= opts.seconds {
            break;
        }
    }

    if !opts.trace {
        return Outcome {
            result: e2e.result(&setup_s, crate::report::peak_rss_mb()),
            trace: None,
        };
    }
    layers.work_flops = inputs.iter().map(|i| i.flops).sum();
    layers.work_c_bytes = inputs
        .iter()
        .map(|i| i.reference.nnz() as u64 * inputs::BYTES_PER_NNZ)
        .sum();
    Outcome {
        result: layers.result(&tr, "product", &e2e),
        trace: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    /// Flips the lowest bit of one stored value.
    fn corrupt(m: &mut CsrMatrix) {
        let v = &mut m.values_mut()[0];
        *v = f64::from_bits(v.to_bits() ^ 1);
    }

    /// A reference one bit away from the product fails exactly that
    /// product, untraced and traced, and fails the run.
    #[test]
    fn the_gate_reports_a_one_bit_difference() {
        let opts = Opts {
            seed: 3,
            seconds: 0,
            trace: false,
            scale: Scale::Tiny,
        };
        for kind in [Kind::Hybrid, Kind::Gpu, Kind::Cpu] {
            let mut inputs = setup(kind, &opts);
            corrupt(&mut inputs[0].reference);
            let mut e2e = EndToEnd::default();
            e2e.begin_round(1.0);
            let (mut tr, mut layers) = (Tracer::new(), Layers::default());
            for (op, input) in inputs.iter().enumerate() {
                let m = timed(input);
                e2e.add_product(m.wall_ns, m.sim_ns, input.flops, m.ok);
                let traced = match input.exec {
                    Exec::Cpu { sim_ns } => {
                        traced_cpu(input, sim_ns, op as u64, &mut tr, &mut layers)
                    }
                    _ => traced_gpu(input, op as u64, &mut tr, &mut layers),
                };
                assert_eq!(traced.ok, op != 0, "{kind:?} traced product {op}");
            }
            let r = e2e.result(&[1.0], 1.0);
            assert_eq!(
                (r.attempted, r.failed),
                (inputs.len() as u64, 1),
                "{kind:?}"
            );
            assert!(!r.correct());
        }
    }
}
