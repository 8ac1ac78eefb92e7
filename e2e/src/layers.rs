//! Accumulators for what a run measures, and their reduction to the
//! end-to-end and per-layer metric sets.

use crate::report::{MetricSet, RunResult, END_TO_END, PER_LAYER};
use crate::stats::{median, self_times, tail};
use crate::trace::Tracer;
use oocgemm::Metrics;

const MIB: f64 = (1u64 << 20) as f64;

/// Host time of one untraced round: one product of every input, or one
/// segment of a service replay.
#[derive(Default)]
pub struct Round {
    /// The interference probe taken for the round, ms.
    pub probe_ms: f64,
    /// Host latency of each operation, ms.
    pub wall_ms: Vec<f64>,
    /// Host time inside the timed calls, ns.
    pub host_ns: u64,
    /// Flops of the bit-identical products.
    pub flops_ok: u64,
}

/// What the untraced rounds measure.
#[derive(Default)]
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    pub rounds: Vec<Round>,
    /// Simulated latency of every bit-identical product, ms.
    pub sim_latency_ms: Vec<f64>,
    /// Flops and simulated busy time of the bit-identical products.
    pub sim_flops: u64,
    pub sim_busy_ns: u64,
}

impl EndToEnd {
    pub fn begin_round(&mut self, probe_ms: f64) {
        self.rounds.push(Round {
            probe_ms,
            ..Round::default()
        });
    }

    /// Records one batch product, in the round begun last, whose
    /// latency is its own wall time and its own simulated time.
    pub fn add_product(&mut self, wall_ns: u64, sim_ns: u64, flops: u64, ok: bool) {
        self.attempted += 1;
        let round = self.rounds.last_mut().expect("a round was begun");
        round.wall_ms.push(wall_ns as f64 / 1e6);
        round.host_ns += wall_ns;
        if ok {
            round.flops_ok += flops;
            self.sim_latency_ms.push(sim_ns as f64 / 1e6);
            self.sim_flops += flops;
            self.sim_busy_ns += sim_ns;
        } else {
            self.failed += 1;
        }
    }

    /// The rounds the host-time metrics come from (see `gate`).
    fn quiet_rounds(&self) -> Vec<&Round> {
        let probes: Vec<f64> = self.rounds.iter().map(|r| r.probe_ms).collect();
        crate::gate::quiet_half(&probes)
            .into_iter()
            .map(|i| &self.rounds[i])
            .collect()
    }

    /// Operations the host-time percentiles would be computed from now.
    pub fn quiet_ops(&self) -> usize {
        self.quiet_rounds().iter().map(|r| r.wall_ms.len()).sum()
    }

    pub fn result(self, setup_s: &[f64], peak_rss_mb: f64) -> RunResult {
        let mut m = MetricSet::new(&END_TO_END);
        m.sampled("setup_s", median(setup_s).unwrap_or(0.0), setup_s.len());
        let quiet = self.quiet_rounds();
        let gflops: Vec<f64> = quiet
            .iter()
            .map(|r| r.flops_ok as f64 / r.host_ns.max(1) as f64)
            .collect();
        m.sampled("host_gflops", median(&gflops).unwrap_or(0.0), gflops.len());
        let wall: Vec<f64> = quiet
            .iter()
            .flat_map(|r| r.wall_ms.iter().copied())
            .collect();
        m.sampled("wall_ms_p50", median(&wall).unwrap_or(0.0), wall.len());
        m.sampled("wall_ms_p90", tail(&wall).unwrap_or(0.0), wall.len());
        m.set(
            "sim_gflops",
            self.sim_flops as f64 / self.sim_busy_ns.max(1) as f64,
        );
        let sim = &self.sim_latency_ms;
        m.sampled("sim_latency_ms_p50", median(sim).unwrap_or(0.0), sim.len());
        m.sampled("sim_latency_ms_p90", tail(sim).unwrap_or(0.0), sim.len());
        m.set("peak_rss_mb", peak_rss_mb);
        RunResult {
            attempted: self.attempted,
            failed: self.failed,
            metrics: m.finish(),
        }
    }
}

/// Service-layer facts of the traced replays.
#[derive(Default)]
pub struct ServiceFacts {
    pub submitted: u64,
    pub completed: u64,
    pub batch_hits: u64,
    pub evictions: u64,
    pub rebuilds: u64,
    pub resident_high_water_bytes: u64,
    pub queued_ms: Vec<f64>,
    pub shed: u64,
    pub deadline_missed: u64,
}

/// What the traced rounds measure besides their spans.
#[derive(Default)]
pub struct Layers {
    pub attempted: u64,
    pub failed: u64,
    /// Traced rounds: one product of every input, or one replay.
    pub rounds: u64,
    /// Metrics returned by every executor run of the traced rounds.
    pub runs: Vec<Metrics>,
    /// Chunks of every plan probe.
    pub plan_chunks: Vec<f64>,
    /// Adaptive CPU kernel row picks: hash, dense, merge.
    pub picks: [u64; 3],
    pub service: ServiceFacts,
    /// Flops and output bytes of one round.
    pub work_flops: u64,
    pub work_c_bytes: u64,
    /// Host time of each operation in the traced and the untraced
    /// rounds of the traced run, ms.
    pub traced_ms: Vec<f64>,
    pub untraced_ms: Vec<f64>,
}

/// Median of `f` over `xs`, 0 when there are none.
fn med<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Simulated kernel time of one phase family (`row_analysis`,
/// `symbolic`, `numeric`), ms.
fn class_ms(m: &Metrics, class: &str) -> f64 {
    m.timeline
        .kernel_classes
        .iter()
        .filter(|k| k.class.name() == class)
        .map(|k| k.busy_ns as f64 / 1e6)
        .fold(0.0, |a, b| a + b)
}

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl Layers {
    /// Reduces the traced run to the per-layer metric set. `root` names
    /// the top-level span of one operation.
    pub fn result(&self, tr: &Tracer, root: &str, untraced: &EndToEnd) -> RunResult {
        let mut m = MetricSet::new(&PER_LAYER);
        let rounds = self.rounds.max(1) as f64;
        let per_round = |v: u64| v as f64 / rounds;
        let spans = |name: &str| {
            let ms = tr.ms(name);
            let n = ms.len();
            (median(&ms).unwrap_or(0.0), n)
        };
        for (metric, span) in [
            ("prepare.ms", "prepare"),
            ("plan.ms", "plan"),
            ("assemble.ms", "assemble"),
            ("cpu_kernel.ms", "cpu_kernel"),
            ("service.step_ms", "service.step"),
            ("check.ms", "check"),
        ] {
            let (v, n) = spans(span);
            m.sampled(metric, v, n);
        }
        for (metric, parent, child) in [
            ("prepare.self_ms", "prepare", "plan"),
            ("execute.self_ms", "execute", "assemble"),
        ] {
            let own = self_times(&tr.ms(parent), &tr.ms(child));
            m.sampled(metric, median(&own).unwrap_or(0.0), own.len());
        }
        let submit = tr.ms("service.submit");
        m.sampled(
            "service.submit_ms_p50",
            median(&submit).unwrap_or(0.0),
            submit.len(),
        );
        m.sampled(
            "service.submit_ms_p90",
            tail(&submit).unwrap_or(0.0),
            submit.len(),
        );

        // Planning and estimation.
        m.sampled(
            "plan.chunks",
            median(&self.plan_chunks).unwrap_or(0.0),
            self.plan_chunks.len(),
        );
        let est = self.runs.iter().filter_map(|r| r.estimator.as_ref());
        let (est_nnz, actual_nnz) = est
            .clone()
            .fold((0, 0), |(e, a), s| (e + s.est_nnz, a + s.actual_nnz));
        m.set("estimate.over_ratio", frac(est_nnz, actual_nnz));
        m.set(
            "estimate.chunk_misses",
            per_round(est.clone().map(|s| s.chunk_misses).sum()),
        );
        m.set(
            "recovery.estimate_overflows",
            per_round(est.map(|s| s.retries).sum()),
        );
        let chunks = self.runs.iter().flat_map(|r| &r.chunks);
        m.set(
            "recovery.resplits",
            per_round(chunks.clone().map(|c| c.resplits).sum()),
        );
        m.set(
            "recovery.demotions",
            per_round(chunks.map(|c| c.demotions).sum()),
        );

        // The simulated device.
        let runs = &self.runs;
        let busy = |f: fn(&Metrics) -> u64| move |r: &Metrics| frac(f(r), r.timeline.makespan_ns);
        m.set(
            "sim.makespan_ms",
            med(runs, |r| r.timeline.makespan_ns as f64 / 1e6),
        );
        m.set(
            "sim.h2d_busy_frac",
            med(runs, busy(|r| r.timeline.h2d.busy_ns)),
        );
        m.set(
            "sim.d2h_busy_frac",
            med(runs, busy(|r| r.timeline.d2h.busy_ns)),
        );
        m.set(
            "sim.kernel_busy_frac",
            med(runs, busy(|r| r.timeline.kernel.busy_ns)),
        );
        m.set(
            "sim.overlap_efficiency",
            med(runs, |r| r.timeline.overlap_efficiency),
        );
        for (metric, class) in [
            ("sim.row_analysis_ms", "row_analysis"),
            ("sim.symbolic_ms", "symbolic"),
            ("sim.numeric_ms", "numeric"),
        ] {
            m.set(metric, med(runs, |r| class_ms(r, class)));
        }
        m.set(
            "sim.d2h_mb",
            med(runs, |r| r.timeline.d2h_bytes as f64 / MIB),
        );
        m.set(
            "sim.pool_high_water_mb",
            med(runs, |r| r.pool_high_water_bytes as f64 / MIB),
        );

        // The hybrid scheduler.
        let sched: Vec<_> = runs.iter().filter_map(|r| r.scheduler).collect();
        m.set(
            "scheduler.gpu_claims",
            per_round(sched.iter().map(|s| s.gpu_claims).sum()),
        );
        m.set(
            "scheduler.cpu_steals",
            per_round(sched.iter().map(|s| s.cpu_steals).sum()),
        );
        m.set(
            "scheduler.realized_gpu_ratio",
            med(&sched, |s| s.realized_gpu_ratio),
        );
        m.set(
            "scheduler.gpu_idle_ms",
            med(&sched, |s| s.gpu_idle_ns as f64 / 1e6),
        );
        m.set(
            "scheduler.cpu_idle_ms",
            med(&sched, |s| s.cpu_idle_ns as f64 / 1e6),
        );

        // CPU kernels.
        for (metric, picks) in [
            ("cpu_kernel.hash_picks", self.picks[0]),
            ("cpu_kernel.dense_picks", self.picks[1]),
            ("cpu_kernel.merge_picks", self.picks[2]),
        ] {
            m.set(metric, per_round(picks));
        }

        // The service frontend.
        let s = &self.service;
        m.set("service.batch_hit_frac", frac(s.batch_hits, s.completed));
        m.set("service.grid_evictions", per_round(s.evictions));
        m.set("service.grid_rebuilds", per_round(s.rebuilds));
        m.set(
            "service.resident_high_water_mb",
            s.resident_high_water_bytes as f64 / MIB,
        );
        let n = s.queued_ms.len();
        m.sampled(
            "service.queued_ms_p50",
            median(&s.queued_ms).unwrap_or(0.0),
            n,
        );
        m.sampled(
            "service.queued_ms_p90",
            tail(&s.queued_ms).unwrap_or(0.0),
            n,
        );
        m.set("service.shed", per_round(s.shed));
        m.set("service.deadline_missed", per_round(s.deadline_missed));
        m.set(
            "service.refused_frac",
            frac(s.shed + s.deadline_missed, s.submitted),
        );

        // Whole-run checks.
        m.set("work.flops", self.work_flops as f64);
        m.set("work.c_mb", self.work_c_bytes as f64 / MIB);
        m.set("unattributed.frac", tr.unattributed(root));
        let overhead = match (median(&self.traced_ms), median(&self.untraced_ms)) {
            (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
            _ => 0.0,
        };
        m.set("tracing.overhead_frac", overhead);

        RunResult {
            attempted: self.attempted + untraced.attempted,
            failed: self.failed + untraced.failed,
            metrics: m.finish(),
        }
    }
}
