//! `e2e`: the end-to-end benchmark of the out-of-core SpGEMM
//! executors. See README.md for the workloads, the metrics, and how to
//! compare two commits.
//!
//! ```text
//! e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One run measures one workload: it sets up (inputs, references,
//! device sizing, warm-up) at least three times and for at least a
//! tenth of `--seconds`, then times whole rounds of
//! operations for `--seconds`, checking every product bit for bit
//! outside the timer. It prints one `workload metric value unit
//! [n=samples]` line per metric and, last, one JSON result object, and
//! exits 1 if any operation failed. `--workload all` runs every
//! workload in its own child process, one at a time.

mod batch;
mod gate;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use inputs::Scale;
use report::RunResult;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "hybrid-social",
    "gpu-regular",
    "cpu-baseline",
    "serve-mixed",
];

/// Fewest set-up repetitions per run; `setup_s` is their median.
pub const SETUP_MIN_REPS: usize = 3;

/// Set-up also repeats until this share of the measuring time has
/// passed, so a set-up much shorter than a stretch of host noise is not
/// read off one such stretch.
pub const SETUP_SHARE: f64 = 0.1;

const USAGE: &str =
    "usage: e2e [--workload hybrid-social|gpu-regular|cpu-baseline|serve-mixed|all] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// How one run measures.
pub struct Opts {
    pub seed: u64,
    /// Minimum measuring time, whole seconds.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
}

/// A finished run: its result and, when traced, its spans.
pub struct Outcome {
    pub result: RunResult,
    pub trace: Option<Tracer>,
}

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".to_string(),
        opts: Opts {
            seed: 1,
            seconds: 10,
            trace: false,
            scale: Scale::Full,
        },
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a non-negative integer"))
        };
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload '{value}'"));
                }
                parsed.workload = value.clone();
            }
            "--seed" => parsed.opts.seed = number()?,
            "--seconds" => {
                parsed.opts.seconds = number()?;
                if parsed.opts.seconds == 0 {
                    return Err("--seconds must be at least 1".to_string());
                }
            }
            "--trace" => {
                parsed.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(parsed)
}

/// Runs a workload's set-up at least `SETUP_MIN_REPS` times and for at
/// least `SETUP_SHARE` of the measuring time, dropping each before the
/// next, and returns the last with every repetition's time, s.
pub fn set_up<T>(opts: &Opts, setup: impl Fn() -> T) -> (T, Vec<f64>) {
    let min_s = SETUP_SHARE * opts.seconds as f64;
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN_REPS || times.iter().sum::<f64>() < min_s {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_MIN_REPS is at least 1"), times)
}

/// Measures one workload in this process.
pub fn measure(workload: &str, opts: &Opts) -> Outcome {
    match workload {
        "hybrid-social" => batch::run(batch::Kind::Hybrid, opts),
        "gpu-regular" => batch::run(batch::Kind::Gpu, opts),
        "cpu-baseline" => batch::run(batch::Kind::Cpu, opts),
        "serve-mixed" => serve::run(opts),
        other => unreachable!("workload '{other}' was validated"),
    }
}

fn run_one(workload: &str, opts: &Opts) -> ExitCode {
    let host = report::Host::probe(&report::repo_root());
    println!(
        "# e2e workload={workload} seed={} seconds={} trace={} nproc={} host_threads={} rev={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host.nproc,
        host.host_threads,
        host.rev
    );
    let outcome = measure(workload, opts);
    let dir = report::results_dir();
    if let Some(tr) = &outcome.trace {
        let path = dir.join(format!("{workload}.trace.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| tr.write_chrome(&path)) {
            eprintln!("e2e: cannot write {}: {e}", path.display());
        }
    }
    let result = outcome.result;
    if let Err(e) = report::record(&dir, &host, workload, opts, &result) {
        eprintln!("e2e: cannot record the run under {}: {e}", dir.display());
    }
    print!("{}", result.lines(workload));
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "e2e: {workload}: {} of {} operations failed or were not bit-identical",
            result.failed, result.attempted
        );
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process, one at a time, so
/// each reports its own peak memory.
fn run_all(opts: &Opts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("e2e: {workload} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("e2e: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args.opts)
    } else {
        run_one(&args.workload, &args.opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload gpu-regular --seed 2 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, "gpu-regular");
        assert_eq!((a.opts.seed, a.opts.seconds, a.opts.trace), (2, 3, true));
        for bad in [
            "--workload nope",
            "--seed -1",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--verbose 1",
        ] {
            assert!(args(bad).is_err(), "accepted '{bad}'");
        }
    }

    /// Every workload at tiny size, untraced and traced: the
    /// correctness gate passes and the run prints exactly the
    /// registry's metrics.
    #[test]
    fn every_workload_runs_clean_at_tiny_size() {
        let t = Instant::now();
        for workload in WORKLOADS {
            for trace in [false, true] {
                let opts = Opts {
                    seed: 3,
                    seconds: 0,
                    trace,
                    scale: Scale::Tiny,
                };
                let out = measure(workload, &opts);
                let r = &out.result;
                assert!(r.correct(), "{workload} trace={trace}: {} failed", r.failed);
                assert!(r.attempted > 0);
                let registry = if trace {
                    &report::PER_LAYER[..]
                } else {
                    &report::END_TO_END[..]
                };
                let names: Vec<_> = r.metrics.iter().map(|m| m.name).collect();
                let expected: Vec<_> = registry.iter().map(|(n, _)| *n).collect();
                assert_eq!(names, expected);
                assert_eq!(out.trace.is_some(), trace);
                if !trace {
                    for m in &r.metrics {
                        assert!(m.value > 0.0, "{workload} {} is {}", m.name, m.value);
                    }
                }
            }
        }
        assert!(
            t.elapsed().as_secs_f64() < 5.0,
            "smoke test took {:?}",
            t.elapsed()
        );
    }
}
