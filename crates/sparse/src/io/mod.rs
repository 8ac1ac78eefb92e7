//! Matrix I/O: Matrix Market text files (the SuiteSparse interchange
//! format the paper's inputs ship in) and a compact binary format for
//! fast reloads.

pub mod binary;
pub mod market;

pub use binary::{read_binary, write_binary};
pub use market::{read_matrix_market, read_matrix_market_str, write_matrix_market};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A path under the system temp directory that no other call returns:
/// `tag`, the process id, and a process-wide counter. Tests running
/// concurrently in one process, or in several, never share a file
/// through it. Nothing is created: the caller makes it a directory (or
/// a single file) and removes it.
pub fn unique_temp_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("{tag}_{}_{n}", std::process::id()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn unique_temp_dirs_differ() {
        let a = super::unique_temp_dir("x");
        assert_ne!(a, super::unique_temp_dir("x"));
        assert!(a.starts_with(std::env::temp_dir()));
    }
}
