//! Integration tests of the `spgemm` command-line tool, driven through
//! the real binary.

use std::path::PathBuf;
use std::process::Command;

fn spgemm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spgemm"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oocgemm_cli_{}_{name}", std::process::id()))
}

#[test]
fn generated_input_runs_every_executor() {
    for executor in [
        "cpu",
        "gpu-sync",
        "gpu-async",
        "hybrid",
        "multi-gpu:2",
        "unified",
    ] {
        let out = spgemm()
            .args(["--gen", "rmat:10:8000:7", "--executor", executor])
            .output()
            .expect("spawn spgemm");
        assert!(
            out.status.success(),
            "executor {executor} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("GFLOPS"),
            "{executor}: no GFLOPS line:\n{stdout}"
        );
        assert!(
            stdout.contains("nnz(C)"),
            "{executor}: no result size:\n{stdout}"
        );
    }
}

#[test]
fn mtx_roundtrip_through_cli() {
    // Write an input, multiply via CLI, read the result back, verify.
    let a = sparse::gen::erdos_renyi(80, 80, 0.06, 3);
    let input = temp("in.mtx");
    let output = temp("out.mtx");
    sparse::io::write_matrix_market(&input, &a).unwrap();

    let out = spgemm()
        .args([
            "--input",
            input.to_str().unwrap(),
            "--executor",
            "gpu-async",
            "--out",
            output.to_str().unwrap(),
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let c = sparse::io::read_matrix_market(&output).unwrap();
    let expect = cpu_spgemm::reference::multiply(&a, &a).unwrap();
    assert!(c.approx_eq(&expect, 1e-9), "CLI result diverged");
    std::fs::remove_file(&input).ok();
    std::fs::remove_file(&output).ok();
}

#[test]
fn trace_output_is_valid_chrome_json() {
    let trace = temp("trace.json");
    let out = spgemm()
        .args([
            "--gen",
            "rmat:9:4000:1",
            "--executor",
            "gpu-async",
            "--trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    let events: serde_json::Value = serde_json::from_str(&json).unwrap();
    let events = events.as_array().unwrap();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e["ph"] == "X"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn suite_input_and_auto_ratio() {
    let out = spgemm()
        .args([
            "--suite",
            "nlp:tiny",
            "--executor",
            "hybrid",
            "--ratio",
            "auto",
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("assignment:"),
        "no hybrid assignment line:\n{stdout}"
    );
}

#[test]
fn bad_arguments_exit_nonzero() {
    for args in [
        vec!["--executor", "warp-drive"],
        vec!["--gen", "not-a-spec"],
        vec!["--suite", "not-a-matrix"],
        // The removed bitmap-sketch estimator. With an input, so the
        // name alone is what fails.
        vec!["--gen", "rmat:6:200:1", "--estimator", "hash-sketch"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert!(
            !out.status.success(),
            "args {args:?} unexpectedly succeeded"
        );
    }
}

#[test]
fn estimator_flags_run_and_report() {
    for kind in ["exact", "upper-bound", "row-sample"] {
        let out = spgemm()
            .args(["--gen", "rmat:10:8000:7", "--estimator", kind])
            .output()
            .expect("spawn spgemm");
        assert!(
            out.status.success(),
            "--estimator {kind}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        if kind == "exact" {
            assert!(!stdout.contains("estimator:"), "{stdout}");
        } else {
            assert!(
                stdout.contains(&format!("estimator: {kind}")),
                "no estimator line for {kind}:\n{stdout}"
            );
        }
    }
}

#[test]
fn host_fault_and_budget_flags_run_and_report() {
    let out = spgemm()
        .args([
            "--gen",
            "rmat:10:8000:7",
            "--executor",
            "gpu-async",
            "--host-fault-seed",
            "11",
            "--host-fault-rate",
            "0.3",
            "--fault-seed",
            "11",
            "--fault-rate",
            "0.1",
            "--deadline-ns",
            "900000000000",
        ])
        .output()
        .expect("spawn spgemm");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("host fault injection: seed 11"),
        "no host-fault line:\n{stdout}"
    );
    assert!(
        stdout.contains("run budget: 900000000000 ns"),
        "no budget line:\n{stdout}"
    );
    assert!(
        stdout.contains("recovery:") && stdout.contains("host faults"),
        "no recovery summary:\n{stdout}"
    );
}

#[test]
fn unmeetable_deadline_is_a_clean_error() {
    // A 1 ns budget cannot be met; the executor must return the
    // DeadlineExceeded error (exit 1 with a message), never hang or
    // panic.
    let out = spgemm()
        .args([
            "--gen",
            "rmat:10:8000:7",
            "--executor",
            "gpu-async",
            "--deadline-ns",
            "1",
        ])
        .output()
        .expect("spawn spgemm");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("deadline exceeded"),
        "wrong failure: {stderr}"
    );
}

#[test]
fn bad_supervision_flags_exit_2() {
    for args in [
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "NaN"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "-0.5"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "1.5"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-rate", "bogus"],
        vec!["--gen", "rmat:10:8000:7", "--host-fault-seed", "-3"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "0"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "-1"],
        vec!["--gen", "rmat:10:8000:7", "--deadline-ns", "bogus"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn repro_rejects_unknown_experiments_and_flags() {
    for bad in ["bogus", "--bogus", "prep"] {
        let out_dir = temp(&format!("repro_{}", bad.trim_start_matches('-')));
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["table1", bad, "--out", out_dir.to_str().unwrap()])
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "repro {bad}: {stderr}");
        assert!(stderr.contains(bad), "repro {bad} names the word: {stderr}");
        assert!(stderr.contains("usage: repro"), "repro {bad}: {stderr}");
        assert!(out.stdout.is_empty(), "repro {bad} ran something");
        assert!(!out_dir.exists(), "repro {bad} created --out");
    }
}

#[test]
fn bad_estimator_flags_exit_2() {
    for args in [
        vec!["--gen", "rmat:10:8000:7", "--estimator", "crystal-ball"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "0"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "1.5"],
        vec!["--gen", "rmat:10:8000:7", "--sample-rate", "bogus"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "0.5"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "inf"],
        vec!["--gen", "rmat:10:8000:7", "--headroom", "bogus"],
    ] {
        let out = spgemm().args(&args).output().expect("spawn spgemm");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn cpu_kernel_flag_validates_and_warns_off_cpu() {
    for kernel in ["merge", "adaptive", "bogus"] {
        let out = spgemm()
            .args(["--gen", "rmat:8:2000:1", "--cpu-kernel", kernel])
            .output()
            .expect("spawn spgemm");
        assert_eq!(out.status.code(), Some(2), "--cpu-kernel {kernel}");
    }
    let out = spgemm()
        .args(["--gen", "rmat:8:2000:1", "--executor", "hybrid"])
        .args(["--cpu-kernel", "dense"])
        .output()
        .expect("spawn spgemm");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cpu-kernel has no effect"), "{stderr}");
}

/// Replays `trace` through `spgemm serve --metrics-out`; returns the
/// process output and the metrics file.
fn serve_trace(trace: &bench::serve::ServeTrace, name: &str) -> (std::process::Output, String) {
    let (path, metrics) = (
        temp(&format!("{name}.json")),
        temp(&format!("{name}_m.json")),
    );
    std::fs::write(&path, serde_json::to_string(trace).unwrap()).unwrap();
    let out = spgemm()
        .args(["serve", "--trace", path.to_str().unwrap()])
        .args(["--metrics-out", metrics.to_str().unwrap()])
        .output()
        .expect("spawn spgemm");
    let text = std::fs::read_to_string(&metrics).unwrap_or_default();
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&metrics).ok();
    (out, text)
}

#[test]
fn serve_metrics_out_deserializes_with_any_tenant_name() {
    let mut trace = bench::serve::gen_trace(6, 2, 7);
    for t in &mut trace.requests {
        t.tenant = "a\"b\\c".to_string();
    }
    let (out, text) = serve_trace(&trace, "odd_tenant");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: oocgemm::Metrics = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("--metrics-out is not a Metrics document ({e}):\n{text}"));
    assert_eq!(metrics.tenants.len(), 1);
    assert_eq!(metrics.tenants[0].tenant, "a\"b\\c");
}

#[test]
fn malformed_trace_requests_are_skipped_not_panicked() {
    // Request 2 is a power the service rejects (k = 0); requests 3 and
    // 4 carry names `spgemm --scheduler` / `--estimator` reject.
    let mut trace = bench::serve::gen_trace(6, 2, 7);
    let power = &mut trace.requests[1];
    (power.op, power.operands, power.k) = ("power".to_string(), vec![0], 0);
    trace.requests[2].scheduler = "Static".to_string();
    trace.requests[3].estimator = "row_sample".to_string();
    let (out, text) = serve_trace(&trace, "malformed");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    for (id, field) in [(2, "k >= 1"), (3, "scheduler"), (4, "estimator")] {
        let skipped = |l: &str| l.contains(&format!("request {id}:")) && l.contains(field);
        assert!(
            stderr.lines().any(skipped),
            "request {id} not skipped:\n{stderr}"
        );
    }
    let metrics: oocgemm::Metrics = serde_json::from_str(&text).unwrap();
    let submitted: u64 = metrics.tenants.iter().map(|t| t.submitted).sum();
    assert_eq!(
        submitted, 3,
        "only the well-formed requests reach the service"
    );
}
