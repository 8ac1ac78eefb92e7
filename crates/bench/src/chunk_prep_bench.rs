//! Wall-clock comparison of the parallel, scratch-pooled chunk
//! preparation engine against the serial engine it replaced, backing
//! the `BENCH_chunk_prep.json` baseline the `repro` binary emits
//! (`repro prep`).
//!
//! Per case, four measurements over the same panel grid:
//!
//! * `serial` — `prepare_grid_serial`: the original chunk-by-chunk
//!   loop with the pre-pool per-chunk engine;
//! * `parallel_1t` / `parallel_2t` / `parallel_all` —
//!   `prepare_grid` (grid-parallel, pooled scratch, in-place hash
//!   flush) installed on rayon pools of 1, 2, and all host threads.
//!
//! The 1-thread row isolates the allocation-free engine's gain from
//! parallelism; the ratio across thread counts shows the scaling.
//! `host_threads` is recorded so baselines from different machines are
//! comparable — on a single-core host all three parallel columns
//! collapse to the same number by construction.

use oocgemm::{prepare_grid, prepare_grid_serial, OocConfig};
use sparse::gen::{grid2d_stencil, rmat, RmatConfig};
use sparse::CsrMatrix;
use std::time::Instant;

/// One benchmark input: a suite-analogue matrix and the panel grid to
/// prepare (`C = A·A`).
pub struct PrepCase {
    /// Case label used in tables and JSON.
    pub name: &'static str,
    /// The input matrix.
    pub matrix: CsrMatrix,
    /// Panel grid `(row_panels, col_panels)`.
    pub panels: (usize, usize),
}

/// The two chunk-preparation stress analogues: a skewed R-MAT graph
/// (uneven rows — hash-heavy accumulation, worst case for the old
/// per-row triple allocation) and a 2D stencil (uniform rows — the
/// dense-counter path). The second R-MAT case uses a single column
/// panel, exercising the cached flop-prefix fast path.
pub fn cases() -> Vec<PrepCase> {
    vec![
        PrepCase {
            name: "rmat_s11_4x4",
            matrix: rmat(RmatConfig::skewed(11, 40_000), 9),
            panels: (4, 4),
        },
        PrepCase {
            name: "rmat_s11_4x1",
            matrix: rmat(RmatConfig::skewed(11, 40_000), 9),
            panels: (4, 1),
        },
        PrepCase {
            name: "stencil_64x64_3x3",
            matrix: grid2d_stencil(64, 64, 2, 2),
            panels: (3, 3),
        },
    ]
}

/// One point of a thread-scaling curve.
#[derive(serde::Serialize)]
pub struct ScalingPoint {
    /// Pool size.
    pub threads: usize,
    /// Parallel engine on that pool, ns.
    pub ns: u64,
}

/// Timing results of one case.
#[derive(serde::Serialize)]
pub struct PrepBenchRow {
    /// Case label.
    pub name: &'static str,
    /// Matrix dimension.
    pub n: usize,
    /// Matrix nnz.
    pub nnz: usize,
    /// Chunks in the prepared grid.
    pub chunks: usize,
    /// Threads available on the measuring host
    /// (`rayon::current_num_threads` in the default pool).
    pub host_threads: usize,
    /// `prepare_grid_serial`, ns.
    pub serial_ns: u64,
    /// Parallel engine on a 1-thread pool, ns.
    pub parallel_1t_ns: u64,
    /// Parallel engine on a 2-thread pool, ns.
    pub parallel_2t_ns: u64,
    /// Parallel engine on a pool of all host threads, ns.
    pub parallel_all_ns: u64,
    /// Thread-scaling curve for power-of-two pool sizes up to (and
    /// always including) `host_threads`. Unlike the fixed
    /// `parallel_2t` column, the curve never oversubscribes — on a
    /// single-core host it honestly collapses to one point.
    pub scaling: Vec<ScalingPoint>,
}

impl PrepBenchRow {
    /// Serial / parallel-all speedup (the headline number).
    pub fn speedup_all(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_all_ns.max(1) as f64
    }

    /// Serial / parallel-1-thread speedup — the allocation-free
    /// engine's gain with parallelism factored out.
    pub fn speedup_1t(&self) -> f64 {
        self.serial_ns as f64 / self.parallel_1t_ns.max(1) as f64
    }
}

/// Best-of-`iters` wall-clock time of `f`, in ns.
fn best_of<R>(iters: usize, mut f: impl FnMut() -> R) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters.max(1) {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best
}

fn timed_on_pool(threads: usize, iters: usize, f: impl Fn() + Sync) -> u64 {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build thread pool");
    pool.install(|| best_of(iters, &f))
}

/// Runs one case end to end.
pub fn run_case(case: &PrepCase) -> PrepBenchRow {
    let a = &case.matrix;
    let (rp, cp) = case.panels;
    let cfg = OocConfig::with_device_memory(256 << 20).panels(rp, cp);
    let chunks = prepare_grid_serial(a, a, &cfg)
        .expect("serial grid")
        .prepared
        .len();
    let host_threads = rayon::current_num_threads();

    let serial_ns = best_of(3, || prepare_grid_serial(a, a, &cfg).unwrap());
    let parallel = |t: usize| {
        timed_on_pool(t, 3, || {
            std::hint::black_box(prepare_grid(a, a, &cfg).unwrap());
        })
    };
    let parallel_1t_ns = parallel(1);
    let parallel_2t_ns = parallel(2);
    let parallel_all_ns = parallel(host_threads.max(1));

    // Power-of-two pool sizes up to the real core count, plus the
    // full count itself; never an oversubscribed point.
    let mut scaling = Vec::new();
    let mut t = 1usize;
    while t <= host_threads.max(1) {
        let ns = if t == 1 { parallel_1t_ns } else { parallel(t) };
        scaling.push(ScalingPoint { threads: t, ns });
        t *= 2;
    }
    if scaling.last().map(|p| p.threads) != Some(host_threads.max(1)) {
        scaling.push(ScalingPoint {
            threads: host_threads.max(1),
            ns: parallel_all_ns,
        });
    }

    PrepBenchRow {
        name: case.name,
        n: a.n_rows(),
        nnz: a.nnz(),
        chunks,
        host_threads,
        serial_ns,
        parallel_1t_ns,
        parallel_2t_ns,
        parallel_all_ns,
        scaling,
    }
}

/// Runs all [`cases`].
pub fn run_all() -> Vec<PrepBenchRow> {
    cases().iter().map(run_case).collect()
}

/// Renders rows as the stdout table.
pub fn table(rows: &[PrepBenchRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "matrix             chunks  serial(ms)  par_1t(ms)  par_2t(ms)  par_all(ms)  \
         1t-speedup  all-speedup\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>6}  {:>10.2}  {:>10.2}  {:>10.2}  {:>11.2}  {:>9.2}x  {:>10.2}x\n",
            r.name,
            r.chunks,
            r.serial_ns as f64 / 1e6,
            r.parallel_1t_ns as f64 / 1e6,
            r.parallel_2t_ns as f64 / 1e6,
            r.parallel_all_ns as f64 / 1e6,
            r.speedup_1t(),
            r.speedup_all(),
        ));
    }
    out
}

/// Renders rows as the `BENCH_chunk_prep.json` document.
pub fn to_json(rows: &[PrepBenchRow]) -> String {
    crate::bench_cases_json("chunk_prep", rows, |r| {
        vec![
            ("speedup_1t", r.speedup_1t()),
            ("speedup_all", r.speedup_all()),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_for_synthetic_rows() {
        let rows = vec![PrepBenchRow {
            name: "case",
            n: 10,
            nnz: 20,
            chunks: 16,
            host_threads: 8,
            serial_ns: 3000,
            parallel_1t_ns: 2000,
            parallel_2t_ns: 1500,
            parallel_all_ns: 1000,
            scaling: [(1, 2000), (2, 1500), (4, 1200), (8, 1000)]
                .map(|(threads, ns)| ScalingPoint { threads, ns })
                .into(),
        }];
        let doc: serde_json::Value = serde_json::from_str(&to_json(&rows)).unwrap();
        assert_eq!(doc["benchmark"], "chunk_prep");
        let case = &doc["cases"][0];
        assert_eq!(case["speedup_all"], 3.0);
        assert_eq!(case["speedup_1t"], 1.5);
        assert_eq!(case["host_threads"], 8);
        assert_eq!(case["scaling"][2]["threads"], 4);
        assert_eq!(case["scaling"][2]["ns"], 1200);
    }

    #[test]
    fn tiny_case_runs_end_to_end() {
        let row = run_case(&PrepCase {
            name: "tiny",
            matrix: sparse::gen::erdos_renyi(120, 120, 0.05, 1),
            panels: (2, 2),
        });
        assert_eq!(row.chunks, 4);
        assert!(row.serial_ns > 0 && row.parallel_all_ns > 0);
        // The scaling curve starts at one thread and never exceeds
        // the real core count (no oversubscribed points).
        assert_eq!(row.scaling.first().map(|p| p.threads), Some(1));
        assert!(row
            .scaling
            .iter()
            .all(|p| p.threads <= row.host_threads.max(1)));
    }
}
