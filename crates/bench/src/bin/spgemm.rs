//! `spgemm` — command-line front end for the out-of-core executors.
//!
//! ```text
//! spgemm --gen rmat:13:40000:7 --executor hybrid --device-mb 16
//! spgemm --suite nlp --executor gpu-async --trace timeline.json
//! spgemm --input A.mtx --executor cpu --out C.mtx
//! ```
//!
//! Computes `C = A · A` (the convention of the paper's evaluation) with
//! the selected executor, prints statistics, and optionally writes the
//! result (`.mtx` or `.spb`), a `chrome://tracing` timeline, and a
//! structured metrics JSON (`--metrics-out`, DESIGN.md §9).
//!
//! The `serve` subcommand instead replays a seeded multi-tenant
//! request trace through the service frontend (DESIGN.md §14):
//!
//! ```text
//! spgemm serve --trace trace.json [--requests N] [--tenants N] [--seed S]
//!              [--grid-cache-bytes B] [--deadline-ns D] [--soak]
//! ```
//!
//! `--grid-cache-bytes` caps the service's resident prepared-grid
//! cache; `--deadline-ns` arms a deadline budget on every generated
//! request; `--soak` runs the deadline-sprinkled soak trace under a
//! deliberately tight cache cap and fails on any cap excursion.

use oocgemm::{
    multiply_multi_gpu, multiply_unified, ExecMode, FaultPlan, Hybrid, HybridConfig, Metrics,
    MultiGpuConfig, OocConfig, OutOfCoreGpu, SchedulerKind,
};
use sparse::gen::{rmat, RmatConfig, SuiteMatrix, SuiteScale};
use sparse::io::{read_binary, read_matrix_market, write_binary, write_matrix_market};
use sparse::stats::ProductStats;
use sparse::CsrMatrix;
use std::path::{Path, PathBuf};

struct Args {
    input: Option<PathBuf>,
    gen: Option<String>,
    suite: Option<String>,
    executor: String,
    device_mb: Option<u64>,
    ratio: Option<String>,
    scheduler: SchedulerKind,
    panels: Option<(usize, usize)>,
    out: Option<PathBuf>,
    trace: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    fault_shrink: Option<(u64, f64)>,
    host_fault_seed: Option<u64>,
    host_fault_rate: Option<f64>,
    deadline_ns: Option<u64>,
    estimator: Option<String>,
    sample_rate: Option<f64>,
    headroom: Option<f64>,
    cpu_kernel: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: spgemm (--input FILE.mtx|FILE.spb | --gen rmat:SCALE:EDGES:SEED | --suite NAME[:tiny|small])\n\
         \x20      --executor cpu|gpu-sync|gpu-async|hybrid|multi-gpu:N|unified\n\
         \x20      [--device-mb N] [--ratio R|auto] [--scheduler stealing|static] [--panels RxC]\n\
         \x20      [--fault-seed N] [--fault-rate R] [--fault-shrink ALLOC:FACTOR]\n\
         \x20      [--host-fault-seed N] [--host-fault-rate R] [--deadline-ns N]\n\
         \x20      [--estimator exact|upper-bound|row-sample]\n\
         \x20      [--sample-rate R] [--headroom H]\n\
         \x20      [--cpu-kernel hash|dense]\n\
         \x20      [--out FILE.mtx|FILE.spb] [--trace FILE.json] [--metrics-out FILE.json]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        input: None,
        gen: None,
        suite: None,
        executor: "gpu-async".into(),
        device_mb: None,
        ratio: None,
        scheduler: SchedulerKind::default(),
        panels: None,
        out: None,
        trace: None,
        metrics_out: None,
        fault_seed: None,
        fault_rate: None,
        fault_shrink: None,
        host_fault_seed: None,
        host_fault_rate: None,
        deadline_ns: None,
        estimator: None,
        sample_rate: None,
        headroom: None,
        cpu_kernel: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--input" => args.input = Some(PathBuf::from(value())),
            "--gen" => args.gen = Some(value()),
            "--suite" => args.suite = Some(value()),
            "--executor" => args.executor = value(),
            "--device-mb" => args.device_mb = Some(value().parse().unwrap_or_else(|_| usage())),
            "--ratio" => args.ratio = Some(value()),
            "--scheduler" => args.scheduler = value().parse().unwrap_or_else(|_| usage()),
            "--panels" => {
                let v = value();
                let (r, c) = v.split_once('x').unwrap_or_else(|| usage());
                args.panels = Some((
                    r.parse().unwrap_or_else(|_| usage()),
                    c.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--trace" => args.trace = Some(PathBuf::from(value())),
            "--metrics-out" => args.metrics_out = Some(PathBuf::from(value())),
            "--fault-seed" => args.fault_seed = Some(value().parse().unwrap_or_else(|_| usage())),
            "--fault-rate" => args.fault_rate = Some(value().parse().unwrap_or_else(|_| usage())),
            "--fault-shrink" => {
                let v = value();
                let (at, factor) = v.split_once(':').unwrap_or_else(|| usage());
                args.fault_shrink = Some((
                    at.parse().unwrap_or_else(|_| usage()),
                    factor.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--host-fault-seed" => {
                args.host_fault_seed = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--host-fault-rate" => {
                args.host_fault_rate = Some(value().parse().unwrap_or_else(|_| usage()))
            }
            "--deadline-ns" => args.deadline_ns = Some(value().parse().unwrap_or_else(|_| usage())),
            "--estimator" => args.estimator = Some(value()),
            "--sample-rate" => args.sample_rate = Some(value().parse().unwrap_or_else(|_| usage())),
            "--headroom" => args.headroom = Some(value().parse().unwrap_or_else(|_| usage())),
            "--cpu-kernel" => args.cpu_kernel = Some(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn load_matrix(args: &Args) -> CsrMatrix {
    if let Some(path) = &args.input {
        let loaded = match path.extension().and_then(|e| e.to_str()) {
            Some("spb") => read_binary(path),
            _ => read_matrix_market(path),
        };
        return loaded.unwrap_or_else(|e| {
            eprintln!("failed to read {}: {e}", path.display());
            std::process::exit(1)
        });
    }
    if let Some(spec) = &args.gen {
        let parts: Vec<&str> = spec.split(':').collect();
        if parts.len() == 4 && parts[0] == "rmat" {
            let scale: u32 = parts[1].parse().unwrap_or_else(|_| usage());
            let edges: usize = parts[2].parse().unwrap_or_else(|_| usage());
            let seed: u64 = parts[3].parse().unwrap_or_else(|_| usage());
            return rmat(RmatConfig::skewed(scale, edges), seed);
        }
        usage();
    }
    if let Some(spec) = &args.suite {
        let (name, scale) = match spec.split_once(':') {
            Some((n, "tiny")) => (n, SuiteScale::Tiny),
            Some((n, "medium")) => (n, SuiteScale::Medium),
            Some((n, _)) => (n, SuiteScale::Small),
            None => (spec.as_str(), SuiteScale::Small),
        };
        let id = SuiteMatrix::all()
            .into_iter()
            .find(|m| m.abbr() == name || m.name() == name)
            .unwrap_or_else(|| {
                eprintln!("unknown suite matrix '{name}'");
                std::process::exit(2)
            });
        return id.generate(scale);
    }
    usage()
}

fn write_result(path: &Path, c: &CsrMatrix) {
    let written = match path.extension().and_then(|e| e.to_str()) {
        Some("spb") => write_binary(path, c),
        _ => write_matrix_market(path, c),
    };
    written.unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1)
    });
    println!("wrote {}", path.display());
}

/// Writes the `--metrics-out` document: the run's derived `Metrics`.
fn write_metrics(path: &Path, metrics: &Metrics) {
    let json = serde_json::to_string_pretty(metrics).expect("metrics serialize");
    std::fs::write(path, json).unwrap_or_else(|e| {
        eprintln!("failed to write metrics: {e}");
        std::process::exit(1)
    });
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: spgemm serve [--trace FILE.json] [--requests N] [--tenants N] [--seed S]\n\
         \x20      [--metrics-out FILE.json] [--grid-cache-bytes B] [--deadline-ns D] [--soak]\n\
         Replays FILE.json through the service frontend if it exists; otherwise\n\
         generates the seeded trace, writes it to FILE.json (when given), and runs it.\n\
         --grid-cache-bytes caps the resident prepared-grid cache (evicting LRU);\n\
         --deadline-ns puts every generated request under a deadline budget;\n\
         --soak generates the deadline-sprinkled soak trace and, unless a cap was\n\
         given, caps the grid cache at 1.5x one prepared grid.\n\
         Exits 1 if any completed product differs from the one-shot executor,\n\
         or if resident grid bytes ever exceed the configured cap."
    );
    std::process::exit(2)
}

/// `spgemm serve`: play a deterministic request trace through the
/// service frontend and verify every completion bit-for-bit.
fn serve_main() -> ! {
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut requests = 64usize;
    let mut tenants = 4usize;
    let mut seed = 7u64;
    let mut grid_cache_bytes: Option<u64> = None;
    let mut deadline_ns: Option<u64> = None;
    let mut soak = false;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| serve_usage());
        match flag.as_str() {
            "--trace" => trace_path = Some(PathBuf::from(value())),
            "--metrics-out" => metrics_out = Some(PathBuf::from(value())),
            "--requests" => requests = value().parse().unwrap_or_else(|_| serve_usage()),
            "--tenants" => tenants = value().parse().unwrap_or_else(|_| serve_usage()),
            "--seed" => seed = value().parse().unwrap_or_else(|_| serve_usage()),
            "--grid-cache-bytes" => {
                grid_cache_bytes = Some(value().parse().unwrap_or_else(|_| serve_usage()))
            }
            "--deadline-ns" => {
                deadline_ns = Some(value().parse().unwrap_or_else(|_| serve_usage()))
            }
            "--soak" => soak = true,
            "--help" | "-h" => serve_usage(),
            _ => serve_usage(),
        }
    }

    let trace = match &trace_path {
        Some(path) if path.exists() => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("failed to read {}: {e}", path.display());
                std::process::exit(1)
            });
            let trace: bench::serve::ServeTrace = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("failed to parse {}: {e}", path.display());
                std::process::exit(1)
            });
            println!(
                "replaying {} ({} requests, {} tenants, seed {})",
                path.display(),
                trace.requests.len(),
                trace.tenants,
                trace.seed
            );
            trace
        }
        _ => {
            let mut trace = if soak {
                bench::serve::gen_soak_trace(requests, tenants, seed)
            } else {
                bench::serve::gen_trace(requests, tenants, seed)
            };
            if let Some(d) = deadline_ns {
                for t in &mut trace.requests {
                    t.deadline_ns = Some(d);
                }
            }
            println!("generated trace: {requests} requests, {tenants} tenants, seed {seed}");
            if let Some(path) = &trace_path {
                let json = serde_json::to_string_pretty(&trace).expect("trace serializes");
                std::fs::write(path, json).unwrap_or_else(|e| {
                    eprintln!("failed to write {}: {e}", path.display());
                    std::process::exit(1)
                });
                println!("wrote trace to {}", path.display());
            }
            trace
        }
    };

    let mut cfg = bench::serve::harness_config();
    if soak && grid_cache_bytes.is_none() {
        grid_cache_bytes = Some(bench::serve::soak_cap(&trace, &cfg));
    }
    if let Some(cap) = grid_cache_bytes {
        cfg = cfg.grid_cache_bytes(cap);
    }
    let report = bench::serve::run_trace(&trace, &cfg);
    print!("{}", report.table());
    if let Some(path) = &metrics_out {
        write_metrics(path, &report.metrics);
        println!("wrote per-tenant metrics to {}", path.display());
    }
    if report.mismatches > 0 {
        eprintln!(
            "FAIL: {} completed request(s) differ from one-shot execution",
            report.mismatches
        );
        std::process::exit(1)
    }
    if report.cap_violations > 0 {
        eprintln!(
            "FAIL: resident grid bytes exceeded the {}-byte cap at {} step(s)",
            grid_cache_bytes.unwrap_or(0),
            report.cap_violations
        );
        std::process::exit(1)
    }
    println!(
        "all {} completed products bit-identical to one-shot",
        report.completed
    );
    std::process::exit(0)
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve") {
        serve_main();
    }
    let args = parse_args();
    let a = load_matrix(&args);
    println!("A: {} x {}, nnz = {}", a.n_rows(), a.n_cols(), a.nnz());
    let stats = ProductStats::square(&a);
    println!(
        "A^2: flops = {}, nnz = {}, compression ratio = {:.2}",
        stats.flops, stats.nnz_c, stats.compression_ratio
    );

    // Device size: explicit, or output/3.5 (paper-regime out-of-core).
    let device_bytes = args
        .device_mb
        .map(|mb| mb << 20)
        .unwrap_or_else(|| ((stats.nnz_c * 12) as f64 / 3.5) as u64)
        .max(1 << 20);
    let mut config = OocConfig::with_device_memory(device_bytes);
    if let Some(p) = args.panels {
        config = config.panels(p.0, p.1);
    }
    println!(
        "simulated device: {:.1} MiB",
        device_bytes as f64 / (1 << 20) as f64
    );

    // Estimator knobs. Validation mirrors the --ratio precedent: bad
    // values are rejected with exit code 2 before any work starts.
    // The CLI is stricter than the library (which permits headroom < 1
    // so tests can force overflow recovery).
    let mut est = config.estimator;
    if let Some(kind) = &args.estimator {
        est.kind = kind.parse().unwrap_or_else(|_| usage());
    }
    if let Some(rate) = args.sample_rate {
        if !(rate > 0.0 && rate <= 1.0) {
            eprintln!("--sample-rate must be in (0, 1], got {rate}");
            std::process::exit(2);
        }
        est.sample_rate = rate;
    }
    if let Some(h) = args.headroom {
        if !(h.is_finite() && h >= 1.0) {
            eprintln!("--headroom must be a finite value >= 1.0, got {h}");
            std::process::exit(2);
        }
        est.headroom = h;
    }
    config = config.estimator(est);

    // CPU kernel selection (default hash). Only the cpu executor runs a
    // CPU kernel; the simulated executors price their CPU chunks with
    // the cost model. Bad values are exit 2 before any work starts,
    // like --estimator.
    let cpu_kernel: cpu_spgemm::CpuKernel = match args.cpu_kernel.as_deref() {
        Some(v) => v.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        }),
        None => cpu_spgemm::CpuKernel::default(),
    };
    if args.cpu_kernel.is_some() && args.executor != "cpu" {
        eprintln!(
            "warning: --cpu-kernel has no effect with --executor {} (only the cpu \
             executor runs a CPU kernel); flag ignored",
            args.executor
        );
    }

    // The estimator only drives planning in speculative (async)
    // pipelines — gpu-async, hybrid, and multi-gpu consume it. The
    // remaining executors would silently drop the flags; warn loudly
    // instead so a benchmark never reports the wrong configuration.
    let est_flags =
        args.estimator.is_some() || args.sample_rate.is_some() || args.headroom.is_some();
    if est_flags && matches!(args.executor.as_str(), "cpu" | "unified" | "gpu-sync") {
        eprintln!(
            "warning: --estimator/--sample-rate/--headroom have no effect with \
             --executor {} (no speculative planning path); flags ignored",
            args.executor
        );
    }

    // Any fault flag switches on the deterministic fault-injection +
    // recovery layer; results stay bit-identical to a fault-free run.
    let injecting =
        args.fault_seed.is_some() || args.fault_rate.is_some() || args.fault_shrink.is_some();
    if injecting {
        let mut plan = FaultPlan::seeded(args.fault_seed.unwrap_or(0))
            .all_rates(args.fault_rate.unwrap_or(0.05));
        if let Some((at, factor)) = args.fault_shrink {
            plan = plan.capacity_shrink(at, factor);
        }
        println!(
            "fault injection: seed {}, rate {:.3}{}",
            plan.seed,
            args.fault_rate.unwrap_or(0.05),
            args.fault_shrink
                .map(|(at, f)| format!(", shrink to {f} at alloc {at}"))
                .unwrap_or_default()
        );
        config = config.fault_plan(plan);
    }

    // Host-side fault injection and the run budget, validated up front
    // like --ratio: a NaN, negative, or out-of-range value is exit 2
    // before any work starts.
    let host_injecting = args.host_fault_seed.is_some() || args.host_fault_rate.is_some();
    if host_injecting {
        let rate = args.host_fault_rate.unwrap_or(0.05);
        if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
            eprintln!("--host-fault-rate must be in [0, 1], got {rate}");
            std::process::exit(2);
        }
        let plan =
            oocgemm::HostFaultPlan::seeded(args.host_fault_seed.unwrap_or(0)).all_rates(rate);
        println!("host fault injection: seed {}, rate {rate:.3}", plan.seed);
        config = config.host_faults(plan);
    }
    if let Some(ns) = args.deadline_ns {
        if ns == 0 {
            eprintln!("--deadline-ns must be a positive simulated time, got 0");
            std::process::exit(2);
        }
        println!("run budget: {ns} ns simulated deadline");
        config = config.budget(oocgemm::RunBudget::deadline(ns));
    }

    let ratio = match args.ratio.as_deref() {
        Some("auto") => oocgemm::auto_gpu_ratio(&config.cost, stats.flops, stats.nnz_c, true),
        Some(v) => v.parse().unwrap_or_else(|_| usage()),
        None => oocgemm::DEFAULT_GPU_RATIO,
    };

    let (c, sim_ns, timeline, recovery, metrics, scheduler) = match args.executor.as_str() {
        "cpu" => {
            println!("cpu kernel: {cpu_kernel}");
            let c = cpu_spgemm::multiply_with_kernel(&a, &a, cpu_kernel).expect("cpu multiply");
            let ns = config.cost.cpu_chunk_duration(stats.flops, stats.nnz_c);
            (c, ns, None, None, None, None)
        }
        "gpu-sync" | "gpu-async" => {
            let mode = if args.executor == "gpu-sync" {
                ExecMode::Sync
            } else {
                ExecMode::Async
            };
            let run = OutOfCoreGpu::new(config.clone().mode(mode))
                .multiply(&a, &a)
                .unwrap_or_else(|e| {
                    eprintln!("executor failed: {e}");
                    std::process::exit(1)
                });
            println!(
                "plan: {} x {} panels ({} chunks); transfers {:.1}% of makespan",
                run.plan.row_panels(),
                run.plan.col_panels(),
                run.plan.num_chunks(),
                run.transfer_fraction() * 100.0
            );
            (
                run.c,
                run.sim_ns,
                Some(run.timeline),
                Some(run.recovery),
                Some(run.metrics),
                None,
            )
        }
        "hybrid" => {
            let cfg = HybridConfig {
                gpu: config.clone(),
                ..HybridConfig::paper_default()
            }
            .ratio(ratio)
            .scheduler(args.scheduler);
            // Reject bad --ratio (NaN, out of range) before any work.
            cfg.validate().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2)
            });
            let run = Hybrid::new(cfg).multiply(&a, &a).unwrap_or_else(|e| {
                eprintln!("executor failed: {e}");
                std::process::exit(1)
            });
            println!(
                "assignment: {} GPU / {} CPU chunks at ratio hint {:.0}% (gpu {:.3} ms, cpu {:.3} ms)",
                run.num_gpu_chunks,
                run.num_cpu_chunks,
                ratio * 100.0,
                run.gpu_ns as f64 / 1e6,
                run.cpu_ns as f64 / 1e6
            );
            (
                run.c,
                run.sim_ns,
                Some(run.timeline),
                Some(run.recovery),
                Some(run.metrics),
                Some(run.scheduler),
            )
        }
        "unified" => {
            let run = multiply_unified(&a, &a, &config.device, &config.cost).unwrap_or_else(|e| {
                eprintln!("executor failed: {e}");
                std::process::exit(1)
            });
            println!(
                "unified memory: {} page faults{}",
                run.faults,
                if run.thrashed { " (thrashing)" } else { "" }
            );
            // UM computes the same product; reuse the CPU path for values.
            let c = cpu_spgemm::parallel_hash::multiply(&a, &a).expect("multiply");
            (c, run.sim_ns, None, None, None, None)
        }
        other => {
            if let Some(n) = other.strip_prefix("multi-gpu:") {
                let num_gpus: usize = n.parse().unwrap_or_else(|_| usage());
                let cfg = MultiGpuConfig {
                    gpu: config.clone(),
                    ..MultiGpuConfig::new(num_gpus)
                }
                .scheduler(args.scheduler);
                let run = multiply_multi_gpu(&a, &a, &cfg).unwrap_or_else(|e| {
                    eprintln!("executor failed: {e}");
                    std::process::exit(1)
                });
                println!(
                    "chunks per GPU: {:?}, CPU chunks: {}",
                    run.gpu_chunks, run.cpu_chunks
                );
                let t = run.timelines.into_iter().next();
                // Device 0's metrics (the CLI reports one device's view;
                // the library exposes all of them).
                let m = run.metrics.into_iter().next();
                (
                    run.c,
                    run.sim_ns,
                    t,
                    Some(run.recovery),
                    m,
                    Some(run.scheduler),
                )
            } else {
                usage()
            }
        }
    };

    println!(
        "done: {:.3} ms simulated, {:.3} GFLOPS, nnz(C) = {}",
        sim_ns as f64 / 1e6,
        stats.flops as f64 / sim_ns.max(1) as f64,
        c.nnz()
    );
    if let Some(es) = metrics.as_ref().and_then(|m| m.estimator.as_ref()) {
        println!(
            "estimator: {} — est nnz {} vs actual {} ({} chunk hits / {} misses, \
             {} overflow rows, {} grow-retries)",
            es.kind,
            es.est_nnz,
            es.actual_nnz,
            es.chunk_hits,
            es.chunk_misses,
            es.overflow_rows,
            es.retries
        );
    }
    if let Some(st) = &scheduler {
        println!(
            "scheduler: {} ({} GPU claims, {} CPU steals, realized GPU share {:.1}%, \
             idle gpu {:.3} ms / cpu {:.3} ms)",
            st.kind.name(),
            st.gpu_claims,
            st.cpu_steals,
            st.realized_gpu_ratio * 100.0,
            st.gpu_idle_ns as f64 / 1e6,
            st.cpu_idle_ns as f64 / 1e6
        );
    }
    if injecting || host_injecting || args.deadline_ns.is_some() {
        match recovery {
            Some(rec) => println!("recovery: {}", rec.summary()),
            None => eprintln!("note: fault/budget flags ignored (executor has no recovery path)"),
        }
    }

    if let Some(path) = &args.trace {
        match &timeline {
            Some(t) => {
                std::fs::write(path, t.to_chrome_trace()).unwrap_or_else(|e| {
                    eprintln!("failed to write trace: {e}");
                    std::process::exit(1)
                });
                println!("wrote chrome trace to {}", path.display());
            }
            None => eprintln!("note: --trace ignored (executor has no device timeline)"),
        }
    }
    if let Some(path) = &args.metrics_out {
        match &metrics {
            Some(m) => {
                write_metrics(path, m);
                println!("wrote metrics to {}", path.display());
            }
            None => eprintln!("note: --metrics-out ignored (executor has no device metrics)"),
        }
    }
    if let Some(path) = &args.out {
        write_result(path, &c);
    }
}
