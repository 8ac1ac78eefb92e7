//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [all|table1|table2|table3|fig4|fig7|fig8|fig9|fig10|phases|planner|estimate|chaos|serve]...
//!       [--scale tiny|small|medium] [--only ABBR[,ABBR...]] [--out DIR]
//!       [--seed N] [--iters K] [--soak]
//! ```
//!
//! Text tables go to stdout; machine-readable JSON goes to `DIR`
//! (default `results/`). `--only` restricts the suite-driven
//! experiments to the named matrices (CI smoke runs one matrix). An
//! unknown name or flag exits 2 before anything runs.

use bench::experiments::{
    self, fig10_table, fig4_rows, fig7_rows, fig8_rows, fig9_rows, phases_rows, table3_rows,
    MatrixReport,
};
use bench::load_suite;
use sparse::gen::{SuiteMatrix, SuiteScale};
use std::path::PathBuf;
use std::time::Instant;

/// Every experiment name `repro` accepts.
const EXPERIMENTS: &str =
    "all|table1|table2|table3|fig4|fig7|fig8|fig9|fig10|phases|planner|estimate|chaos|serve";

fn usage() -> String {
    format!(
        "usage: repro [{EXPERIMENTS}]... [--scale tiny|small|medium] \
         [--only ABBR[,ABBR...]] [--out DIR] [--seed N] [--iters K] [--soak]"
    )
}

struct Args {
    experiments: Vec<String>,
    scale: SuiteScale,
    only: Option<Vec<String>>,
    out: PathBuf,
    seed: u64,
    iters: usize,
    soak: bool,
}

fn parse_args() -> Args {
    let mut experiments = Vec::new();
    let mut scale = SuiteScale::Small;
    let mut only: Option<Vec<String>> = None;
    let mut out = PathBuf::from("results");
    let mut seed = 7u64;
    let mut iters = 2usize;
    let mut soak = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--only" => {
                let v = it.next().unwrap_or_default();
                only = Some(v.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--seed" => {
                let v = it.next().unwrap_or_default();
                seed = match v.parse() {
                    Ok(n) => n,
                    Err(_) => {
                        eprintln!("--seed wants a non-negative integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--iters" => {
                let v = it.next().unwrap_or_default();
                iters = match v.parse::<usize>() {
                    Ok(n) if n > 0 => n,
                    _ => {
                        eprintln!("--iters wants a positive integer, got '{v}'");
                        std::process::exit(2);
                    }
                };
            }
            "--scale" => {
                let v = it.next().unwrap_or_default();
                scale = match v.as_str() {
                    "tiny" => SuiteScale::Tiny,
                    "small" => SuiteScale::Small,
                    "medium" => SuiteScale::Medium,
                    other => {
                        eprintln!("unknown scale '{other}' (tiny|small|medium)");
                        std::process::exit(2);
                    }
                };
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_default()),
            "--soak" => soak = true,
            "--help" | "-h" => {
                eprintln!(
                    "{}\n\
                     chaos and serve are not part of 'all'; ask for them by name. \
                     --seed/--iters drive the chaos sweep (defaults 7, 2); \
                     --seed also seeds the serve trace. --soak extends the serve \
                     stage with the deadline-sprinkled trace under a tight \
                     grid-cache cap (resident bytes must stay under it).",
                    usage()
                );
                std::process::exit(0);
            }
            name if EXPERIMENTS.split('|').any(|e| e == name) => experiments.push(arg),
            other => {
                eprintln!("unknown experiment or flag '{other}'\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    if experiments.is_empty() {
        experiments.push("all".to_string());
    }
    Args {
        experiments,
        scale,
        only,
        out,
        seed,
        iters,
        soak,
    }
}

fn wants(args: &Args, name: &str) -> bool {
    args.experiments.iter().any(|e| e == name || e == "all")
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).expect("create output directory");
    let t0 = Instant::now();

    // The chaos soak runs only when asked for by name — it is a fault
    // sweep, not one of the paper's figures, so "all" skips it.
    if args.experiments.iter().any(|e| e == "chaos") {
        println!(
            "## Chaos soak: fault plans x executors x budgets (seed {}, {} iters)\n",
            args.seed, args.iters
        );
        eprintln!(
            "[{:6.1}s] running chaos sweep...",
            t0.elapsed().as_secs_f64()
        );
        let report = bench::chaos::run(args.seed, args.iters);
        println!("{}", report.table());
        std::fs::write(args.out.join("chaos_report.json"), report.to_json())
            .expect("write chaos_report.json");
        if report.mismatches() > 0 {
            eprintln!("chaos sweep found {} mismatches", report.mismatches());
            std::process::exit(1);
        }
    }

    // The serve smoke is the service frontend's CI stage: the fixed
    // 64-request / 4-tenant trace must complete bit-identically to
    // one-shot execution AND exercise the shed and quota paths. Like
    // chaos, it runs only when asked for by name.
    if args.experiments.iter().any(|e| e == "serve") {
        println!(
            "## Serve smoke: 64-request / 4-tenant trace through the service frontend (seed {})\n",
            args.seed
        );
        eprintln!(
            "[{:6.1}s] running serve trace...",
            t0.elapsed().as_secs_f64()
        );
        let trace = bench::serve::gen_trace(64, 4, args.seed);
        let report = bench::serve::run_trace(&trace, &bench::serve::harness_config());
        println!("{}", report.table());
        std::fs::write(args.out.join("serve_report.json"), report.to_json())
            .expect("write serve_report.json");
        let mut failures = Vec::new();
        if report.mismatches > 0 {
            failures.push(format!(
                "{} completion(s) differ from one-shot",
                report.mismatches
            ));
        }
        if report.shed == 0 {
            failures.push("no request was shed by admission".to_string());
        }
        if report.quota_queued == 0 {
            failures.push("no request waited on a quota refill".to_string());
        }
        if !failures.is_empty() {
            eprintln!("serve smoke failed: {}", failures.join("; "));
            std::process::exit(1);
        }

        // --soak: replay the deadline-sprinkled trace under a grid
        // cache capped at ~1.5x one prepared grid. Residency must stay
        // bounded (0 cap excursions), eviction must actually fire, the
        // 1 ns budgets must miss their deadlines, and everything that
        // does complete must still be bit-identical to one-shot.
        if args.soak {
            println!(
                "\n## Serve soak: capped grid cache + deadline budgets (seed {})\n",
                args.seed
            );
            eprintln!(
                "[{:6.1}s] running serve soak...",
                t0.elapsed().as_secs_f64()
            );
            let trace = bench::serve::gen_soak_trace(64, 4, args.seed);
            let cfg = bench::serve::harness_config();
            let cap = bench::serve::soak_cap(&trace, &cfg);
            let report = bench::serve::run_trace(&trace, &cfg.grid_cache_bytes(cap));
            println!("{}", report.table());
            std::fs::write(args.out.join("serve_soak_report.json"), report.to_json())
                .expect("write serve_soak_report.json");
            let mut failures = Vec::new();
            if report.mismatches > 0 {
                failures.push(format!(
                    "{} completion(s) differ from one-shot",
                    report.mismatches
                ));
            }
            if report.cap_violations > 0 {
                failures.push(format!(
                    "resident grid bytes exceeded the {cap}-byte cap at {} step(s)",
                    report.cap_violations
                ));
            }
            if report.grid_evictions == 0 {
                failures.push("the capped cache never evicted a grid".to_string());
            }
            if report.deadline_missed == 0 {
                failures.push("no deadline-budgeted request missed".to_string());
            }
            if report.completed + report.shed + report.deadline_missed != report.submitted {
                failures.push(format!(
                    "completions do not account for every request: {} + {} + {} != {}",
                    report.completed, report.shed, report.deadline_missed, report.submitted
                ));
            }
            if !failures.is_empty() {
                eprintln!("serve soak failed: {}", failures.join("; "));
                std::process::exit(1);
            }
        }
    }

    if wants(&args, "table1") {
        println!("## Table I: Nvidia Tesla V100 specifications (simulated)\n");
        println!("{}", experiments::table1());
    }

    if wants(&args, "planner") {
        println!("## Planner: incremental grid search + parallel assembly baseline\n");
        eprintln!(
            "[{:6.1}s] running planner benchmark...",
            t0.elapsed().as_secs_f64()
        );
        let rows = bench::planner_bench::run_all();
        println!("{}", bench::planner_bench::table(&rows));
        std::fs::write(
            args.out.join("BENCH_planner.json"),
            bench::planner_bench::to_json(&rows),
        )
        .expect("write BENCH_planner.json");
    }

    if wants(&args, "estimate") {
        println!("## Estimation engine: accuracy vs planning/completion speedup\n");
        eprintln!(
            "[{:6.1}s] running estimate benchmark...",
            t0.elapsed().as_secs_f64()
        );
        let rows = bench::estimate_bench::run_all(args.scale);
        println!("{}", bench::estimate_bench::table(&rows));
        std::fs::write(
            args.out.join("BENCH_estimate.json"),
            bench::estimate_bench::to_json(&rows),
        )
        .expect("write BENCH_estimate.json");
    }

    let needs_suite = [
        "table2", "table3", "fig4", "fig7", "fig8", "fig9", "fig10", "phases",
    ]
    .iter()
    .any(|e| wants(&args, e));
    if !needs_suite {
        return;
    }

    eprintln!(
        "[{:6.1}s] generating the matrix suite...",
        t0.elapsed().as_secs_f64()
    );
    let mut entries = load_suite(args.scale);
    if let Some(only) = &args.only {
        entries.retain(|e| only.iter().any(|n| n == e.id.abbr() || n == e.id.name()));
        if entries.is_empty() {
            eprintln!("--only matched no suite matrices: {only:?}");
            std::process::exit(2);
        }
    }

    if wants(&args, "table2") {
        println!("## Table II: features of the input matrices (analogue suite)\n");
        println!("{}", experiments::table2(&entries));
    }

    let needs_runs = ["table3", "fig4", "fig7", "fig8", "fig9", "phases"]
        .iter()
        .any(|e| wants(&args, e));
    let mut reports: Vec<MatrixReport> = Vec::new();
    if needs_runs {
        for e in &entries {
            eprintln!(
                "[{:6.1}s] running all executors on {}...",
                t0.elapsed().as_secs_f64(),
                e.id.abbr()
            );
            reports.push(
                experiments::run_matrix(e)
                    .unwrap_or_else(|err| panic!("experiments failed on {}: {err}", e.id.abbr())),
            );
        }
        // A serialization failure must not discard minutes of completed
        // runs — the text tables below still render from `reports`.
        match serde_json::to_string_pretty(&reports) {
            Ok(json) => std::fs::write(args.out.join("matrix_reports.json"), json)
                .expect("write matrix_reports.json"),
            Err(e) => eprintln!("note: skipping matrix_reports.json ({e})"),
        }
    }

    if wants(&args, "fig4") {
        println!("## Fig 4: data-transfer share of synchronous spECK (best chunking)\n");
        println!("{}", fig4_rows(&reports));
    }
    if wants(&args, "fig7") {
        println!("## Fig 7: GFLOPS — multicore CPU vs out-of-core GPU vs hybrid\n");
        println!("{}", fig7_rows(&reports));
    }
    if wants(&args, "fig8") {
        println!("## Fig 8: asynchronous vs synchronous out-of-core GPU\n");
        println!("{}", fig8_rows(&reports));
    }
    if wants(&args, "fig9") {
        println!("## Fig 9: hybrid with and without chunk reordering\n");
        println!("{}", fig9_rows(&reports));
    }
    if wants(&args, "table3") {
        println!(
            "## Table III: GPU chunks — fixed 65% ratio vs exhaustive best, \
             and static split vs work-stealing scheduler\n"
        );
        println!("{}", table3_rows(&reports));
    }
    if wants(&args, "phases") {
        println!("## Phase breakdown: async-run makespan by engine and kernel phase\n");
        println!("{}", phases_rows(&reports));
    }

    if wants(&args, "fig10") {
        println!("## Fig 10: hybrid GFLOPS vs GPU flop ratio (two representative matrices)\n");
        let ratios: Vec<f64> = (35..=95).step_by(10).map(|p| p as f64 / 100.0).collect();
        let mut sweeps = Vec::new();
        for id in [SuiteMatrix::ComLj, SuiteMatrix::Nlp] {
            let entry = entries.iter().find(|e| e.id == id).expect("suite entry");
            eprintln!(
                "[{:6.1}s] ratio sweep on {}...",
                t0.elapsed().as_secs_f64(),
                id.abbr()
            );
            let points = experiments::ratio_sweep(entry, &ratios)
                .unwrap_or_else(|err| panic!("ratio sweep failed on {}: {err}", id.abbr()));
            println!("{}", fig10_table(id.abbr(), &points));
            sweeps.push((id.abbr().to_string(), points));
        }
        match serde_json::to_string_pretty(&sweeps) {
            Ok(json) => std::fs::write(args.out.join("fig10_sweeps.json"), json)
                .expect("write fig10_sweeps.json"),
            Err(e) => eprintln!("note: skipping fig10_sweeps.json ({e})"),
        }
    }

    eprintln!(
        "[{:6.1}s] done; JSON in {}",
        t0.elapsed().as_secs_f64(),
        args.out.display()
    );
}
