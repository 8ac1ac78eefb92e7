//! Verifies the CPU kernels' "allocation-free at steady state" bar
//! with a counting global allocator: after a warm-up pass grows the
//! pooled counters and dense accumulator to their high-water capacity,
//! repeated passes over the same per-row work must allocate nothing.
//! This pins both kernels' row loops: `parallel_hash`'s symbolic count
//! and dense-row numeric fill, and the pooled dense accumulator
//! `dense_blocked` leases per panel.
//!
//! This file deliberately holds a single `#[test]` — the counter is
//! process-global, and a concurrent test in the same binary would
//! pollute the delta.

use accum::{Accumulator, AccumulatorKind, ScratchPool, DENSE_WIDTH_LIMIT};
use sparse::CsrMatrix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One steady-state `parallel_hash` pass at a width under
/// `DENSE_WIDTH_LIMIT`: every row's symbolic count, then its numeric
/// fill through the pooled dense accumulator into caller slices.
fn hash_kernel_pass(
    a: &CsrMatrix,
    b: &CsrMatrix,
    pool: &ScratchPool,
    row_nnz: &mut [usize],
    out_c: &mut [u32],
    out_v: &mut [f64],
) {
    let width = b.n_cols();
    assert!(width <= DENSE_WIDTH_LIMIT, "the dense-row path");
    pool.with(|scratch| {
        for (r, n) in row_nnz.iter_mut().enumerate() {
            let cols = a
                .row_cols(r)
                .iter()
                .flat_map(|&k| b.row_cols(k as usize).iter().copied());
            *n = scratch.count_row(cols, width);
        }
        let mut cursor = 0usize;
        for (r, &expect) in row_nnz.iter().enumerate() {
            if expect == 0 {
                continue;
            }
            scratch.accumulate_row_into(
                a.row_iter(r).flat_map(|(k, a_rk)| {
                    b.row_iter(k as usize)
                        .map(move |(c, b_kc)| (c, a_rk * b_kc))
                }),
                AccumulatorKind::Dense,
                width,
                &mut out_c[cursor..cursor + expect],
                &mut out_v[cursor..cursor + expect],
            );
            cursor += expect;
        }
    });
}

/// One steady-state dense pass: every row accumulated through the
/// pooled dense accumulator and flushed into pre-grown staging — the
/// per-panel loop of `dense_blocked::multiply_with_pool`.
fn dense_pass(
    a: &CsrMatrix,
    b: &CsrMatrix,
    pool: &ScratchPool,
    cols: &mut Vec<u32>,
    vals: &mut Vec<f64>,
) {
    pool.with(|scratch| {
        let acc = scratch.dense_acc(b.n_cols());
        cols.clear();
        vals.clear();
        for r in 0..a.n_rows() {
            for (k, a_rk) in a.row_iter(r) {
                for (c, b_kc) in b.row_iter(k as usize) {
                    acc.add(c, a_rk * b_kc);
                }
            }
            acc.flush_into(cols, vals);
        }
    });
}

#[test]
fn steady_state_cpu_kernels_are_allocation_free() {
    let a = sparse::gen::erdos_renyi(180, 160, 0.05, 1);
    let b = sparse::gen::erdos_renyi(160, 200, 0.05, 2);

    let pool = ScratchPool::new();
    // Output buffers sized from the reference product, outside the
    // measured region.
    let expect = cpu_spgemm::reference::multiply(&a, &b).unwrap();
    let mut row_nnz = vec![0usize; a.n_rows()];
    let nnz = expect.nnz();
    let mut out_c = vec![0u32; nnz];
    let mut out_v = vec![0.0f64; nnz];
    // Dense staging grown once by the warm-up flush passes.
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();

    // Warm-up: grows the counters, the dense accumulator, and the
    // staging vectors to their high-water capacity.
    hash_kernel_pass(&a, &b, &pool, &mut row_nnz, &mut out_c, &mut out_v);
    dense_pass(&a, &b, &pool, &mut cols, &mut vals);

    let before = allocations();
    for _ in 0..3 {
        hash_kernel_pass(&a, &b, &pool, &mut row_nnz, &mut out_c, &mut out_v);
        dense_pass(&a, &b, &pool, &mut cols, &mut vals);
    }
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "steady-state CPU kernel row loops must not allocate"
    );

    // The measured passes produced the real product, not a husk.
    let sizes: Vec<usize> = expect
        .row_offsets()
        .windows(2)
        .map(|w| w[1] - w[0])
        .collect();
    assert_eq!(row_nnz, sizes);
    assert_eq!(out_c, expect.col_ids());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&out_v), bits(expect.values()));
}
