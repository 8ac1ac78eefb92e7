//! The `serve-mixed` workload: a seeded multi-tenant request trace
//! replayed through `oocgemm::Service`, every completed product
//! checked bit for bit against a chain of reference multiplies.

use crate::gate::Probe;
use crate::inputs::{self, derive, splitmix64, stream, Class, Scale};
use crate::layers::{EndToEnd, Layers, Round};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Opts, Outcome};
use oocgemm::{
    prepare_grid, Completion, Hybrid, HybridConfig, Metrics, OocConfig, OutOfCoreGpu,
    Outcome as Done, Request, RunBudget, Service, ServiceConfig,
};
use sparse::gen::{locality_graph, rmat, RmatConfig};
use sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Tenants submitting requests.
const TENANTS: u64 = 4;

/// Offered load: arrivals come at this fraction of the device's
/// capacity, measured as the trace's mean simulated service time.
const LOAD: f64 = 0.7;

/// Deadline of a budgeted request, in mean simulated service times.
const DEADLINE_FACTOR: f64 = 4.0;

/// Interned graph operands: social graphs 0..3, web graphs 3..6.
const GRAPHS: usize = 6;

/// The Galerkin operands interned after the graphs: an aggregation
/// prolongator `P` (groups of `COARSEN` consecutive vertices) and
/// `R = Pᵀ`.
const P: usize = GRAPHS;
const R: usize = GRAPHS + 1;
const COARSEN: usize = 4;

/// The recurring multiply pairs, most popular first: pair `r` is drawn
/// with weight `1 / (r + 1)`, so a grid cache of about two grids both
/// hits and evicts.
const PAIRS: [(usize, usize); 6] = [(0, 1), (3, 4), (1, 2), (4, 5), (2, 0), (5, 3)];

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Multiply(usize, usize),
    /// `A^2`.
    Square(usize),
    /// The Galerkin product `R·A·P`.
    Galerkin(usize),
}

struct Req {
    id: u64,
    tenant: u64,
    arrival_ns: u64,
    op: Op,
    deadline_ns: Option<u64>,
}

/// A reference product and its flops (summed over a chain's hops).
struct Expected {
    c: CsrMatrix,
    flops: u64,
}

struct Setup {
    operands: Vec<CsrMatrix>,
    requests: Vec<Req>,
    expected: BTreeMap<Op, Expected>,
    config: ServiceConfig,
}

fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Full => 2048,
        Scale::Tiny => 3 * BLOCK,
    }
}

fn graph(scale: Scale, i: usize, seed: u64) -> (Class, CsrMatrix) {
    let full = scale == Scale::Full;
    if i < GRAPHS / 2 {
        let (s, e) = if full { (12, 10_000) } else { (8, 800) };
        (Class::Social, rmat(RmatConfig::mild(s, e), seed))
    } else {
        let n = if full { 4096 } else { 256 };
        (Class::Web, locality_graph(n, 6.0, 8, 0.002, seed))
    }
}

/// Piecewise-constant aggregation prolongator, `n x n/COARSEN`.
fn prolongator(n: usize) -> CsrMatrix {
    let offsets = (0..=n).collect();
    let cols = (0..n).map(|i| (i / COARSEN) as sparse::ColId).collect();
    CsrMatrix::from_parts(n, n.div_ceil(COARSEN), offsets, cols, vec![1.0; n])
        .expect("one entry per row")
}

/// Uniform draw in `0..n`.
fn below(rng: &mut u64, n: u64) -> u64 {
    splitmix64(rng) % n
}

/// Uniform draw in `(0, 1]`.
fn unit(rng: &mut u64) -> f64 {
    ((splitmix64(rng) >> 11) + 1) as f64 / (1u64 << 53) as f64
}

/// Requests come in blocks of eight, in seeded order: six multiplies
/// over the skewed pairs, two of them with a deadline (a quarter of
/// all requests), one square and one Galerkin product, whose graphs
/// alternate between the classes from block to block. Stratifying
/// keeps the trace's work mix the same for every seed, so its
/// percentiles follow the code rather than the draw.
const BLOCK: usize = 8;

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut u64) {
    for i in (1..v.len()).rev() {
        v.swap(i, below(rng, i as u64 + 1) as usize);
    }
}

/// The trace's operations in arrival order, each with whether it
/// carries a deadline.
fn trace_ops(n: usize, rng: &mut u64) -> Vec<(Op, bool)> {
    let weights: Vec<f64> = (0..PAIRS.len()).map(|r| 1.0 / (r + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let pair = |rng: &mut u64| {
        let mut x = unit(rng) * total;
        for (r, w) in weights.iter().enumerate() {
            if x <= *w {
                return PAIRS[r];
            }
            x -= w;
        }
        PAIRS[PAIRS.len() - 1]
    };
    let mut ops = Vec::with_capacity(n);
    for b in 0..n / BLOCK {
        let class = b % 2;
        let mut block: Vec<(Op, bool)> = (0..BLOCK - 2)
            .map(|i| {
                let (a, b) = pair(rng);
                (Op::Multiply(a, b), i < 2)
            })
            .collect();
        let mut in_class = || class * GRAPHS / 2 + below(rng, GRAPHS as u64 / 2) as usize;
        block.push((Op::Square(in_class()), false));
        block.push((Op::Galerkin(in_class()), false));
        shuffle(&mut block, rng);
        ops.extend(block);
    }
    ops
}

/// Stratified exponential inter-arrival gaps with unit mean: each
/// block of eight draws one gap from each eighth of the distribution,
/// in seeded order.
fn arrival_gaps(n: usize, rng: &mut u64) -> Vec<f64> {
    let mut gaps = Vec::with_capacity(n);
    for _ in 0..n / BLOCK {
        let mut strata: Vec<usize> = (0..BLOCK).collect();
        shuffle(&mut strata, rng);
        gaps.extend(
            strata
                .into_iter()
                .map(|k| -((k as f64 + unit(rng)) / BLOCK as f64).ln()),
        );
    }
    gaps
}

fn reference(op: Op, m: &[CsrMatrix]) -> Expected {
    let mul = |a: &CsrMatrix, b: &CsrMatrix| {
        let c = cpu_spgemm::multiply_reference(a, b).expect("operands share one dimension");
        let flops = sparse::stats::total_flops(a, b);
        (c, flops)
    };
    let (c, flops) = match op {
        Op::Multiply(a, b) => mul(&m[a], &m[b]),
        Op::Square(a) => mul(&m[a], &m[a]),
        Op::Galerkin(a) => {
            let (ra, f1) = mul(&m[R], &m[a]);
            let (c, f2) = mul(&ra, &m[P]);
            (c, f1 + f2)
        }
    };
    Expected { c, flops }
}

/// One-shot run of `op` under the service's configuration: the
/// warm-up, and the op's simulated service time. A multiply also
/// returns its prepared grid's resident size.
fn one_shot(op: Op, m: &[CsrMatrix], gpu: &OocConfig) -> (u64, Option<u64>) {
    match op {
        Op::Multiply(a, b) => {
            let Ok(pg) = prepare_grid(&m[a], &m[b], gpu) else {
                return (0, None);
            };
            let hybrid = Hybrid::new(HybridConfig {
                gpu: gpu.clone(),
                ..HybridConfig::paper_default()
            });
            let sim = hybrid.multiply_prepared(&m[a], &pg).map_or(0, |r| r.sim_ns);
            (sim, Some(pg.resident_bytes()))
        }
        Op::Square(a) => {
            let run = OutOfCoreGpu::new(gpu.clone()).power(&m[a], 2);
            (run.map_or(0, |r| r.sim_ns), None)
        }
        Op::Galerkin(a) => {
            let run = OutOfCoreGpu::new(gpu.clone()).triple_product(&m[R], &m[a], &m[P]);
            (run.map_or(0, |r| r.sim_ns), None)
        }
    }
}

/// Generation, reference chains (one per distinct operation), device
/// and cache sizing, one warm-up per distinct operation, then the
/// arrival schedule, which needs the warm-up's simulated times.
fn setup(opts: &Opts) -> Setup {
    let (classes, mut operands): (Vec<Class>, Vec<CsrMatrix>) = (0..GRAPHS)
        .map(|i| {
            graph(
                opts.scale,
                i,
                derive(opts.seed, stream::SERVE_OPERANDS, i as u64),
            )
        })
        .unzip();
    let p = prolongator(operands[0].n_rows());
    let r = sparse::ops::transpose(&p);
    operands.extend([p, r]); // at indices P and R
    let mut rng = derive(opts.seed, stream::SERVE_TRACE, 0);
    let ops = trace_ops(requests(opts.scale), &mut rng);

    // Every pair is referenced (and warmed) even when the trace never
    // draws it: the pairs size the device and the grid cache.
    let mut expected = BTreeMap::new();
    for op in PAIRS
        .iter()
        .map(|&(a, b)| Op::Multiply(a, b))
        .chain(ops.iter().map(|o| o.0))
    {
        expected
            .entry(op)
            .or_insert_with(|| reference(op, &operands));
    }
    let pair_device: Vec<f64> = PAIRS
        .iter()
        .map(|&(a, b)| {
            let nnz = expected[&Op::Multiply(a, b)].c.nnz() as u64;
            inputs::device_bytes(classes[a], nnz) as f64
        })
        .collect();
    let gpu = OocConfig::with_device_memory(median(&pair_device).unwrap_or(0.0) as u64);

    let mut service_ns = BTreeMap::new();
    let mut grid_bytes = Vec::new();
    for &op in expected.keys() {
        let (sim_ns, grid) = one_shot(op, &operands, &gpu);
        service_ns.insert(op, sim_ns);
        grid_bytes.extend(grid.map(|b| b as f64));
    }
    let cache = 2.0 * median(&grid_bytes).unwrap_or(0.0);

    // Seeded Poisson-like arrivals, rescaled so the offered load is
    // exactly `LOAD` for this trace's operation mix.
    let mean_service =
        ops.iter().map(|(op, _)| service_ns[op] as f64).sum::<f64>() / ops.len() as f64;
    let gaps = arrival_gaps(ops.len(), &mut rng);
    let scale = ops.len() as f64 * mean_service / LOAD / gaps.iter().sum::<f64>();
    let mut t = 0.0;
    let requests = ops
        .into_iter()
        .zip(gaps)
        .enumerate()
        .map(|(i, ((op, deadline), gap))| {
            t += gap * scale;
            Req {
                id: i as u64 + 1,
                tenant: below(&mut rng, TENANTS),
                arrival_ns: t as u64,
                op,
                deadline_ns: deadline.then_some((DEADLINE_FACTOR * mean_service) as u64),
            }
        })
        .collect();
    Setup {
        operands,
        requests,
        expected,
        config: ServiceConfig::new().gpu(gpu).grid_cache_bytes(cache as u64),
    }
}

fn request(r: &Req, keys: &[usize]) -> Request {
    let tenant = format!("t{}", r.tenant);
    let req = match r.op {
        Op::Multiply(a, b) => Request::multiply(r.id, tenant, keys[a], keys[b]),
        Op::Square(a) => Request::power(r.id, tenant, keys[a], 2),
        Op::Galerkin(a) => Request::triple_product(r.id, tenant, keys[R], keys[a], keys[P]),
    }
    .at(r.arrival_ns);
    match r.deadline_ns {
        Some(d) => req.budget(RunBudget::deadline(d)),
        None => req,
    }
}

/// Host time spent inside service calls: the clock a request's host
/// latency is read from, so the benchmark's own checking is excluded.
struct Clock<'t> {
    ns: u64,
    trace: Option<(&'t mut Tracer, SpanId)>,
}

impl Clock<'_> {
    fn span(&mut self, name: &'static str, op: u64) -> Option<SpanId> {
        self.trace
            .as_mut()
            .map(|(tr, root)| tr.begin(name, op, Some(*root)))
    }

    fn close(&mut self, span: Option<SpanId>) {
        if let (Some((tr, _)), Some(id)) = (self.trace.as_mut(), span) {
            tr.end(id);
        }
    }

    /// One service call, on the clock.
    fn call<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.span(name, op);
        let t = Instant::now();
        let out = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.close(span);
        out
    }

    /// Benchmark work between calls, off the clock.
    fn off<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let span = self.span(name, op);
        let out = f();
        self.close(span);
        out
    }
}

/// One completed request.
struct Finished {
    /// Position of the request in the trace.
    index: usize,
    /// Service-call host time from its `submit` to the poll that
    /// returned it, ms.
    host_ms: f64,
    /// Simulated `finish - arrival`, ms.
    sim_ms: f64,
    /// Simulated device time it occupied (`finish - start`), ns.
    busy_ns: u64,
    queued_ms: f64,
    flops: u64,
    batch_hit: bool,
    ok: bool,
}

#[derive(Default)]
struct Replay {
    /// Host time inside service calls, ns.
    service_ns: u64,
    /// The service clock and an interference probe at the start of
    /// every `PROBE_EVERY` submissions (untraced replays only).
    segments: Vec<(u64, f64)>,
    submitted: u64,
    /// Requests that never terminated (an error) or completed with a
    /// product that differs from the reference.
    failed: u64,
    finished: Vec<Finished>,
    shed: u64,
    deadline_missed: u64,
    evictions: u64,
    rebuilds: u64,
    resident_high_water_bytes: u64,
    /// Completions' metrics (traced replays only).
    metrics: Vec<Metrics>,
}

impl Replay {
    fn take(&mut self, s: &Setup, done: Vec<Completion>, submitted_at: &[u64], clock: &mut Clock) {
        for d in done {
            let r = &s.requests[d.id as usize - 1];
            match d.outcome {
                Done::Completed {
                    c,
                    metrics,
                    queued_ns,
                    start_ns,
                    finish_ns,
                    batch_hit,
                    ..
                } => {
                    let ok = clock.off("check", r.id, || c == s.expected[&r.op].c);
                    if clock.trace.is_some() {
                        self.metrics.push(*metrics);
                    }
                    self.finished.push(Finished {
                        index: d.id as usize - 1,
                        host_ms: (clock.ns - submitted_at[d.id as usize - 1]) as f64 / 1e6,
                        sim_ms: (finish_ns - r.arrival_ns) as f64 / 1e6,
                        busy_ns: finish_ns - start_ns,
                        queued_ms: queued_ns as f64 / 1e6,
                        flops: s.expected[&r.op].flops,
                        batch_hit,
                        ok,
                    });
                }
                Done::Shed { .. } => self.shed += 1,
                Done::DeadlineExceeded { .. } => self.deadline_missed += 1,
            }
        }
    }
}

/// Submissions per gated segment of an untraced replay. A replay lasts
/// seconds, longer than a stretch of host interference, so the gate
/// (`crate::gate`) works on segments of it: each is a round of its own,
/// holding the requests submitted in it and the service time spent
/// until the next segment.
const PROBE_EVERY: usize = 256;

/// Plays the trace through a fresh service: submit every request in
/// arrival order, polling after each call (`submit` dispatches
/// everything due before the arrival), then step and poll until idle.
fn replay(s: &Setup, probe: &Probe, tracer: Option<&mut Tracer>) -> Replay {
    let mut clock = Clock {
        ns: 0,
        trace: tracer.map(|tr| {
            let root = tr.begin("replay", 0, None);
            (tr, root)
        }),
    };
    let mut out = Replay::default();
    let mut svc = Service::new(s.config.clone()).expect("service configuration is valid");
    let keys: Vec<usize> = s
        .operands
        .iter()
        .map(|m| {
            let m = m.clone();
            clock.call("service.intern", 0, || svc.intern(m))
        })
        .collect();
    let mut submitted_at = vec![0u64; s.requests.len()];
    for (i, r) in s.requests.iter().enumerate() {
        if clock.trace.is_none() && i % PROBE_EVERY == 0 {
            out.segments.push((clock.ns, probe.measure()));
        }
        let req = request(r, &keys);
        submitted_at[r.id as usize - 1] = clock.ns;
        out.submitted += 1;
        // An error is a request that never terminates; it is counted
        // as failed below.
        let _ = clock.call("service.submit", r.id, || svc.submit(req));
        let done = clock.call("service.poll", r.id, || svc.poll_completions());
        out.take(s, done, &submitted_at, &mut clock);
    }
    loop {
        // An error consumes the request it failed on, so stepping on
        // always makes progress.
        let more = clock.call("service.step", 0, || svc.step());
        let done = clock.call("service.poll", 0, || svc.poll_completions());
        out.take(s, done, &submitted_at, &mut clock);
        if matches!(more, Ok(false)) {
            break;
        }
    }
    let terminated = out.finished.len() as u64 + out.shed + out.deadline_missed;
    let mismatched = out.finished.iter().filter(|f| !f.ok).count() as u64;
    out.failed = out.submitted - terminated + mismatched;
    let stats = svc.service_stats();
    out.evictions = stats.grid_evictions;
    out.rebuilds = stats.grid_rebuilds;
    out.resident_high_water_bytes = stats.resident_grid_high_water_bytes;
    out.service_ns = clock.ns;
    if let Some((tr, root)) = clock.trace {
        tr.end(root);
    }
    out
}

fn fold_untraced(e2e: &mut EndToEnd, r: &Replay) {
    e2e.attempted += r.submitted;
    e2e.failed += r.failed;
    let first = e2e.rounds.len();
    for (k, &(start_ns, probe_ms)) in r.segments.iter().enumerate() {
        let end_ns = r.segments.get(k + 1).map_or(r.service_ns, |next| next.0);
        e2e.rounds.push(Round {
            probe_ms,
            host_ns: end_ns - start_ns,
            ..Round::default()
        });
    }
    for f in &r.finished {
        let round = &mut e2e.rounds[first + f.index / PROBE_EVERY];
        round.wall_ms.push(f.host_ms);
        if f.ok {
            round.flops_ok += f.flops;
            e2e.sim_latency_ms.push(f.sim_ms);
            e2e.sim_flops += f.flops;
            e2e.sim_busy_ns += f.busy_ns;
        }
    }
}

fn fold_traced(layers: &mut Layers, r: Replay) {
    layers.attempted += r.submitted;
    layers.failed += r.failed;
    layers.rounds += 1;
    layers.traced_ms.push(r.service_ns as f64 / 1e6);
    let s = &mut layers.service;
    s.submitted += r.submitted;
    s.completed += r.finished.len() as u64;
    s.batch_hits += r.finished.iter().filter(|f| f.batch_hit).count() as u64;
    s.evictions += r.evictions;
    s.rebuilds += r.rebuilds;
    s.resident_high_water_bytes = s.resident_high_water_bytes.max(r.resident_high_water_bytes);
    s.queued_ms.extend(r.finished.iter().map(|f| f.queued_ms));
    s.shed += r.shed;
    s.deadline_missed += r.deadline_missed;
    layers.runs.extend(r.metrics);
}

/// Runs the workload: set-up (see `crate::set_up`), then whole replays
/// until `opts.seconds` have passed and the tail percentile has its
/// samples. A traced run alternates untraced and traced replays.
pub fn run(opts: &Opts) -> Outcome {
    let (s, setup_s) = crate::set_up(opts, || setup(opts));
    let probe = Probe::new();

    let mut tr = Tracer::new();
    let mut layers = Layers::default();
    let mut e2e = EndToEnd::default();
    let start = Instant::now();
    for round in 0u64.. {
        if opts.trace && round % 2 == 1 {
            fold_traced(&mut layers, replay(&s, &probe, Some(&mut tr)));
        } else {
            let r = replay(&s, &probe, None);
            layers.untraced_ms.push(r.service_ns as f64 / 1e6);
            fold_untraced(&mut e2e, &r);
        }
        let enough = if opts.trace {
            layers.rounds > 0
        } else {
            e2e.quiet_ops() >= crate::stats::min_samples_for_tail()
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
    layers.work_flops = s.requests.iter().map(|r| s.expected[&r.op].flops).sum();
    layers.work_c_bytes = s
        .requests
        .iter()
        .map(|r| s.expected[&r.op].c.nnz() as u64 * inputs::BYTES_PER_NNZ)
        .sum();
    Outcome {
        result: layers.result(&tr, "replay", &e2e),
        trace: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An expected product one bit away from the service's fails every
    /// completion of that operation and nothing else.
    #[test]
    fn the_gate_reports_a_one_bit_difference() {
        let opts = Opts {
            seed: 3,
            seconds: 0,
            trace: false,
            scale: Scale::Tiny,
        };
        let mut s = setup(&opts);
        let probe = Probe::new();
        let clean = replay(&s, &probe, None);
        assert_eq!(clean.failed, 0);
        let op = s.requests[clean.finished[0].index].op;
        let v = &mut s.expected.get_mut(&op).expect("referenced").c.values_mut()[0];
        *v = f64::from_bits(v.to_bits() ^ 1);
        let of_op = clean
            .finished
            .iter()
            .filter(|f| s.requests[f.index].op == op)
            .count() as u64;
        assert_eq!(replay(&s, &probe, None).failed, of_op);
    }
}
