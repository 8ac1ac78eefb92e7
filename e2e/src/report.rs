//! Metric names and units, the result object every run prints last,
//! and the files a run leaves under `results/`.

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// End-to-end metrics, reported by every untraced run. `BENCHMARK.json`
/// lists the same names and units (a unit test checks).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("host_gflops", "GFLOP/s"),
    ("wall_ms_p50", "ms"),
    ("wall_ms_p90", "ms"),
    ("sim_gflops", "GFLOP/s"),
    ("sim_latency_ms_p50", "ms"),
    ("sim_latency_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run. A layer a
/// workload does not exercise reads 0. Counts are per round (one
/// product of every input, or one trace replay).
pub const PER_LAYER: [(&str, &str); 47] = [
    // gpu-spgemm + accum: host-side chunk preparation.
    ("prepare.ms", "ms"),
    ("prepare.self_ms", "ms"),
    // oocgemm::plan
    ("plan.ms", "ms"),
    ("plan.chunks", "count"),
    ("estimate.over_ratio", "ratio"),
    ("estimate.chunk_misses", "count"),
    // oocgemm::executor (recovery included)
    ("execute.self_ms", "ms"),
    ("recovery.resplits", "count"),
    ("recovery.estimate_overflows", "count"),
    ("recovery.demotions", "count"),
    // oocgemm::assemble
    ("assemble.ms", "ms"),
    // gpu-sim
    ("sim.makespan_ms", "ms"),
    ("sim.h2d_busy_frac", "ratio"),
    ("sim.d2h_busy_frac", "ratio"),
    ("sim.kernel_busy_frac", "ratio"),
    ("sim.overlap_efficiency", "ratio"),
    ("sim.row_analysis_ms", "ms"),
    ("sim.symbolic_ms", "ms"),
    ("sim.numeric_ms", "ms"),
    ("sim.d2h_mb", "MiB"),
    ("sim.pool_high_water_mb", "MiB"),
    // oocgemm::hybrid (scheduler auction)
    ("scheduler.gpu_claims", "count"),
    ("scheduler.cpu_steals", "count"),
    ("scheduler.realized_gpu_ratio", "ratio"),
    ("scheduler.gpu_idle_ms", "ms"),
    ("scheduler.cpu_idle_ms", "ms"),
    // cpu-spgemm
    ("cpu_kernel.ms", "ms"),
    ("cpu_kernel.hash_picks", "count"),
    ("cpu_kernel.dense_picks", "count"),
    ("cpu_kernel.merge_picks", "count"),
    // oocgemm::service
    ("service.submit_ms_p50", "ms"),
    ("service.submit_ms_p90", "ms"),
    ("service.step_ms", "ms"),
    ("service.batch_hit_frac", "ratio"),
    ("service.grid_evictions", "count"),
    ("service.grid_rebuilds", "count"),
    ("service.resident_high_water_mb", "MiB"),
    ("service.queued_ms_p50", "ms"),
    ("service.queued_ms_p90", "ms"),
    ("service.shed", "count"),
    ("service.deadline_missed", "count"),
    ("service.refused_frac", "ratio"),
    // The benchmark's own checks.
    ("check.ms", "ms"),
    ("work.flops", "flop"),
    ("work.c_mb", "MiB"),
    ("unattributed.frac", "ratio"),
    ("tracing.overhead_frac", "ratio"),
];

/// One reported value.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a median or percentile.
    pub samples: Option<usize>,
}

/// Collects the values of one registry; [`MetricSet::finish`] insists
/// every name was set, so a run prints exactly the registry's names.
pub struct MetricSet {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, Option<usize>)>,
}

impl MetricSet {
    pub fn new(registry: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            registry,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.insert(name, value, None);
    }

    /// Sets a value computed from `samples` samples.
    pub fn sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.insert(name, value, Some(samples));
    }

    fn insert(&mut self, name: &'static str, value: f64, samples: Option<usize>) {
        assert!(
            self.registry.iter().any(|(n, _)| *n == name),
            "metric {name} is not in the registry"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn finish(self) -> Vec<Metric> {
        self.registry
            .iter()
            .map(|&(name, unit)| {
                let (value, samples) = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never set"));
                Metric {
                    name,
                    unit,
                    value,
                    samples,
                }
            })
            .collect()
    }
}

/// Everything one workload run reports.
pub struct RunResult {
    pub attempted: u64,
    /// Operations that errored or whose product was not bit-identical
    /// to the reference.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `workload metric value unit [n=samples]`, one line per metric.
    pub fn lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("{workload} {} {} {}", m.name, m.value, m.unit));
            if let Some(n) = m.samples {
                out.push_str(&format!(" n={n}"));
            }
            out.push('\n');
        }
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite value with all its digits; JSON has no NaN or infinity.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Host facts recorded with every run.
pub struct Host {
    pub rev: String,
    pub nproc: usize,
    pub host_threads: usize,
}

impl Host {
    pub fn probe(repo_root: &Path) -> Self {
        Host {
            rev: git_head(repo_root).unwrap_or_else(|| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            host_threads: rayon::current_num_threads(),
        }
    }
}

/// The commit checked out at `root`, read from `.git` directly so the
/// benchmark runs no other program and reads nothing outside the tree.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// Where runs leave their files: `history.jsonl` (append-only),
/// `latest.json` and the traced runs' `<workload>.trace.json`.
pub fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The repository the benchmark belongs to.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Appends the run to `history.jsonl` and replaces `latest.json`.
pub fn record(
    dir: &Path,
    host: &Host,
    workload: &str,
    opts: &crate::Opts,
    result: &RunResult,
) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    let line = format!(
        "{{\"rev\": \"{}\", \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \
         \"trace\": {}, \"nproc\": {}, \"host_threads\": {}, \"result\": {}}}\n",
        host.rev,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host.nproc,
        host.host_threads,
        result.json()
    );
    let mut history = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    history.write_all(line.as_bytes())?;
    history.flush()?;
    let tmp = dir.join("latest.json.tmp");
    fs::write(&tmp, &line)?;
    fs::rename(tmp, dir.join("latest.json"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `"name"` values of the array under `key` in `BENCHMARK.json`,
    /// with their units when present.
    fn listed(json: &str, key: &str) -> Vec<(String, Option<String>)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\""))?;
                    let rest = &entry[at + f.len() + 2..];
                    let open = rest.find('"')? + 1;
                    let close = rest[open..].find('"')? + open;
                    Some(rest[open..close].to_string())
                };
                (field("name").expect("entry has a name"), field("unit"))
            })
            .collect()
    }

    fn registry(reg: &[(&str, &str)]) -> Vec<(String, Option<String>)> {
        reg.iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let json = fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        assert_eq!(listed(&json, "end_to_end"), registry(&END_TO_END));
        assert_eq!(listed(&json, "per_layer"), registry(&PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_object_has_the_contract_keys() {
        let mut set = MetricSet::new(&END_TO_END);
        for (name, _) in END_TO_END {
            set.sampled(name, 1.25, 3);
        }
        let result = RunResult {
            attempted: 3,
            failed: 0,
            metrics: set.finish(),
        };
        let json = result.json();
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(json.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(result.lines("w").contains("w wall_ms_p90 1.25 ms n=3\n"));
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    #[should_panic(expected = "never set")]
    fn a_missing_metric_is_a_bug() {
        MetricSet::new(&END_TO_END).finish();
    }
}
