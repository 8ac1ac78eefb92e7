//! `ablate` — design-choice ablations from DESIGN.md §5, on two
//! representative matrices (lowest and highest compression ratio):
//!
//! * transfer-schedule split fraction (Fig 6's 33 % choice);
//! * chunk reordering on/off for the pure-GPU pipeline (Section IV-C);
//! * pinned vs pageable host buffers;
//! * dynamic-allocation cost in the synchronous baseline (what
//!   pre-allocation alone, without overlap, would buy).
//!
//! ```text
//! ablate [--scale tiny|small|medium]
//! ```

use bench::table::TextTable;
use bench::{load_suite, SuiteEntry};
use oocgemm::{ExecMode, OocConfig, OutOfCoreGpu};
use sparse::gen::{SuiteMatrix, SuiteScale};

fn parse_scale() -> SuiteScale {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().position(|a| a == "--scale") {
        Some(i) => match args.get(i + 1).map(|s| s.as_str()) {
            Some("tiny") => SuiteScale::Tiny,
            Some("small") | None => SuiteScale::Small,
            Some("medium") => SuiteScale::Medium,
            Some(other) => {
                eprintln!("unknown scale '{other}'");
                std::process::exit(2);
            }
        },
        None => SuiteScale::Small,
    }
}

fn base_config(entry: &SuiteEntry) -> OocConfig {
    OocConfig::with_device_memory(entry.device_bytes())
}

fn gflops(entry: &SuiteEntry, cfg: OocConfig) -> f64 {
    OutOfCoreGpu::new(cfg)
        .multiply(&entry.matrix, &entry.matrix)
        .map(|r| r.gflops())
        .unwrap_or(f64::NAN)
}

fn split_fraction_sweep(entry: &SuiteEntry) {
    println!(
        "### Split-fraction sweep ({}): Fig 6 uses 33% of rows in the first portion\n",
        entry.id.abbr()
    );
    let mut t = TextTable::new(&["first portion (rows)", "async GFLOPS"]);
    for frac in [0.0, 0.15, 0.33, 0.5, 0.67, 0.85, 1.0] {
        let mut cfg = base_config(entry);
        cfg.split_fraction = frac;
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            format!("{:.3}", gflops(entry, cfg)),
        ]);
    }
    println!("{}", t.render());
}

fn reorder_ablation(entry: &SuiteEntry) {
    println!(
        "### Chunk reordering (pure GPU pipeline, {})\n",
        entry.id.abbr()
    );
    let mut t = TextTable::new(&["ordering", "async GFLOPS"]);
    t.row(vec![
        "natural grid order".into(),
        format!("{:.3}", gflops(entry, base_config(entry).reorder(false))),
    ]);
    t.row(vec![
        "flops descending".into(),
        format!("{:.3}", gflops(entry, base_config(entry).reorder(true))),
    ]);
    println!("{}", t.render());
}

fn pinned_ablation(entry: &SuiteEntry) {
    println!(
        "### Pinned vs pageable host buffers ({})\n",
        entry.id.abbr()
    );
    let mut t = TextTable::new(&["host memory", "async GFLOPS"]);
    let mut pageable = base_config(entry);
    pageable.pinned = false;
    t.row(vec![
        "pinned".into(),
        format!("{:.3}", gflops(entry, base_config(entry))),
    ]);
    t.row(vec![
        "pageable".into(),
        format!("{:.3}", gflops(entry, pageable)),
    ]);
    println!("{}", t.render());
}

fn alloc_cost_ablation(entry: &SuiteEntry) {
    println!(
        "### Dynamic-allocation overhead in the synchronous baseline ({})\n",
        entry.id.abbr()
    );
    let mut t = TextTable::new(&["configuration", "sync GFLOPS"]);
    t.row(vec![
        "cudaMalloc per structure".into(),
        format!(
            "{:.3}",
            gflops(entry, base_config(entry).mode(ExecMode::Sync))
        ),
    ]);
    let mut free_alloc = base_config(entry).mode(ExecMode::Sync);
    free_alloc.cost.alloc_overhead_ns = 0;
    t.row(vec![
        "free allocations (overhead = 0)".into(),
        format!("{:.3}", gflops(entry, free_alloc)),
    ]);
    let async_gf = gflops(entry, base_config(entry));
    t.row(vec![
        "async pipeline (pool + overlap)".into(),
        format!("{async_gf:.3}"),
    ]);
    println!("{}", t.render());
}

fn unified_memory_comparison(entry: &SuiteEntry) {
    println!(
        "### Unified memory vs explicit out-of-core ({})\n",
        entry.id.abbr()
    );
    let cfg = base_config(entry);
    let um = oocgemm::multiply_unified(&entry.matrix, &entry.matrix, &cfg.device, &cfg.cost)
        .expect("unified run");
    let mut t = TextTable::new(&["approach", "GFLOPS", "notes"]);
    t.row(vec![
        "unified memory (demand paging)".into(),
        format!("{:.3}", um.gflops()),
        format!(
            "{} page faults{}",
            um.faults,
            if um.thrashed { ", thrashing" } else { "" }
        ),
    ]);
    t.row(vec![
        "explicit out-of-core (this paper)".into(),
        format!("{:.3}", gflops(entry, cfg)),
        "scheduled transfers, no faults".into(),
    ]);
    println!("{}", t.render());
}

fn pipeline_depth_sweep(entry: &SuiteEntry) {
    println!(
        "### Pipeline depth ({}): the paper double-buffers (depth 2)\n",
        entry.id.abbr()
    );
    let mut t = TextTable::new(&["depth", "async GFLOPS"]);
    for depth in [2usize, 3, 4] {
        let mut cfg = base_config(entry);
        cfg.pipeline_depth = depth;
        t.row(vec![
            depth.to_string(),
            format!("{:.3}", gflops(entry, cfg)),
        ]);
    }
    println!("{}", t.render());
}

fn in_core_algorithm_comparison(entry: &SuiteEntry) {
    println!(
        "### In-core algorithms on one chunk ({})\n",
        entry.id.abbr()
    );
    // One representative chunk: a quarter of the rows against a quarter
    // of the columns.
    use gpu_spgemm::ChunkJob;
    use sparse::partition::col::{even_col_ranges, ColPartitioner};
    use sparse::CsrView;
    let a = &entry.matrix;
    let panels = ColPartitioner::Cursor.partition(a, &even_col_ranges(a, 4));
    let rows = a.n_rows() / 4;
    let job = || ChunkJob {
        a_panel: CsrView::rows(a, 0, rows),
        b_panel: &panels[0].matrix,
        chunk_id: 0,
    };
    let device = gpu_sim::DeviceProps::v100_scaled(2 << 30);
    let mut t = TextTable::new(&["algorithm", "chunk time (ms)", "peak intermediate"]);
    {
        let mut sim = gpu_sim::GpuSim::new(device.clone(), gpu_sim::CostModel::calibrated());
        let stream = sim.create_stream();
        let r = gpu_spgemm::sync_chunk(&mut sim, stream, job(), true).expect("spECK chunk");
        t.row(vec![
            "two-phase (spECK-style)".into(),
            format!("{:.3}", r.done_at as f64 / 1e6),
            format!("{} B (exact output)", r.prepared.desc.out_bytes),
        ]);
    }
    {
        let mut sim = gpu_sim::GpuSim::new(device.clone(), gpu_sim::CostModel::calibrated());
        let stream = sim.create_stream();
        match gpu_spgemm::esc_chunk(&mut sim, stream, job(), true) {
            Ok(r) => t.row(vec![
                "ESC (expand-sort-compress)".into(),
                format!("{:.3}", r.done_at as f64 / 1e6),
                format!("{} products", r.peak_intermediate),
            ]),
            Err(e) => t.row(vec!["ESC".into(), "OOM".into(), e.to_string()]),
        }
    }
    {
        let mut sim = gpu_sim::GpuSim::new(device, gpu_sim::CostModel::calibrated());
        let stream = sim.create_stream();
        let r = gpu_spgemm::rmerge_chunk(&mut sim, stream, job(), true).expect("RMerge chunk");
        t.row(vec![
            "RMerge (iterative merging)".into(),
            format!("{:.3}", r.done_at as f64 / 1e6),
            format!("{} elements/pass", r.peak_intermediate),
        ]);
    }
    println!("{}", t.render());
}

fn main() {
    let scale = parse_scale();
    eprintln!("generating suite...");
    let entries = load_suite(scale);
    for id in [SuiteMatrix::ComLj, SuiteMatrix::Nlp] {
        let entry = entries.iter().find(|e| e.id == id).expect("suite entry");
        split_fraction_sweep(entry);
        reorder_ablation(entry);
        pinned_ablation(entry);
        alloc_cost_ablation(entry);
        unified_memory_comparison(entry);
        pipeline_depth_sweep(entry);
        in_core_algorithm_comparison(entry);
    }
}
