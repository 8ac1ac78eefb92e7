//! Error type for the out-of-core framework.

use crate::metrics::Metrics;
use gpu_sim::OutOfDeviceMemory;
use sparse::SparseError;
use std::fmt;

/// Errors produced by the out-of-core executors.
#[derive(Debug)]
pub enum OocError {
    /// The underlying sparse operation failed.
    Sparse(SparseError),
    /// A chunk did not fit in simulated device memory; the plan needs
    /// more panels.
    DeviceMemory(OutOfDeviceMemory),
    /// No panel plan satisfies the device-memory budget.
    Planning(String),
    /// Configuration is internally inconsistent.
    Config(String),
    /// A simulated executor worker was lost: an injected worker-panic
    /// fault with draining disabled, or a chunk that exhausted its
    /// retry budget and could not be demoted.
    Worker {
        /// Which worker was lost (`"gpu"`).
        worker: String,
        /// What happened to it.
        message: String,
    },
    /// A spill directory or manifest is unusable (missing, corrupt, or
    /// inconsistent with the requested operation).
    Spill(String),
    /// The run's simulated-time budget is unmeetable: even after
    /// walking every degradation rung (shrink headroom → force exact →
    /// demote to CPU) the remaining work cannot finish by the
    /// deadline. Carries partial [`Metrics`] so callers can report what
    /// *did* complete. The service frontend catches this per request
    /// and converts it into an
    /// [`Outcome::DeadlineExceeded`](crate::service::Outcome)
    /// completion (carrying the partial metrics) instead of failing the
    /// drain, so one late request never poisons the queue behind it.
    DeadlineExceeded {
        /// The configured deadline, simulated ns.
        deadline_ns: u64,
        /// Simulated time elapsed when the run gave up.
        elapsed_ns: u64,
        /// Work items completed before the deadline hit.
        completed_chunks: usize,
        /// Work items the run started with.
        total_chunks: usize,
        /// Partial metrics: `completion_ns` is the elapsed time, with
        /// the per-chunk counters and degradation events recorded up to
        /// the abort; no timeline block.
        partial: Box<Metrics>,
    },
}

impl fmt::Display for OocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OocError::Sparse(e) => write!(f, "sparse error: {e}"),
            OocError::DeviceMemory(e) => {
                write!(f, "{e} — increase panel counts or device memory")
            }
            OocError::Planning(msg) => write!(f, "planning failed: {msg}"),
            OocError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            OocError::Worker { worker, message } => {
                write!(f, "{worker} worker failed: {message}")
            }
            OocError::Spill(msg) => write!(f, "spill error: {msg}"),
            OocError::DeadlineExceeded {
                deadline_ns,
                elapsed_ns,
                completed_chunks,
                total_chunks,
                ..
            } => write!(
                f,
                "simulated deadline exceeded: {elapsed_ns} ns elapsed against a \
                 {deadline_ns} ns budget ({completed_chunks} of {total_chunks} \
                 chunks completed)"
            ),
        }
    }
}

impl std::error::Error for OocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OocError::Sparse(e) => Some(e),
            OocError::DeviceMemory(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SparseError> for OocError {
    fn from(e: SparseError) -> Self {
        OocError::Sparse(e)
    }
}

impl From<OutOfDeviceMemory> for OocError {
    fn from(e: OutOfDeviceMemory) -> Self {
        OocError::DeviceMemory(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = OocError::Planning("too small".into());
        assert!(e.to_string().contains("too small"));
        let e: OocError = OutOfDeviceMemory {
            requested: 10,
            free: 5,
            capacity: 8,
        }
        .into();
        assert!(e.to_string().contains("panel counts"));
        let e = OocError::Config("bad ratio".into());
        assert!(e.to_string().contains("bad ratio"));
        // Worker loss is simulated; no thread panics.
        let e = OocError::Worker {
            worker: "gpu".into(),
            message: "injected gpu worker fault with 3 chunks assigned".into(),
        };
        assert_eq!(
            e.to_string(),
            "gpu worker failed: injected gpu worker fault with 3 chunks assigned"
        );
    }

    #[test]
    fn deadline_exceeded_reports_progress() {
        let e = OocError::DeadlineExceeded {
            deadline_ns: 1_000,
            elapsed_ns: 1_500,
            completed_chunks: 3,
            total_chunks: 8,
            partial: Box::new(Metrics {
                completion_ns: 1_500,
                ..Metrics::default()
            }),
        };
        let msg = e.to_string();
        assert!(msg.contains("1500 ns"), "{msg}");
        assert!(msg.contains("3 of 8"), "{msg}");
    }
}
