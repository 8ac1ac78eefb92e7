//! Spill-to-disk assembly: keep the output matrix on disk, one shard
//! per row panel, with a resumable manifest.
//!
//! The paper's goal is "continuing to scale SpGEMM computations to
//! arbitrarily large matrices" (Section III-A). Its evaluation stops
//! where `C` still fits host memory (60 GB into 128 GB); the next wall
//! is host RAM. This module writes `C` to disk instead of returning it:
//! each row panel of `C` is assembled from its chunks' products and
//! written as one binary shard. What that saves is the assembled copy
//! of `C` that the in-memory executors build next to the chunk products
//! (only one assembled row panel exists at a time). It does not bound
//! peak host memory to a row panel: the run prepares the whole grid
//! first, so every chunk's product is resident before the first shard
//! is written.
//!
//! A [`SpilledMatrix`] is the on-disk handle: a manifest plus
//! `panel_<i>.spb` shards, loadable panel by panel (or fully, for
//! verification at test scale).
//!
//! # Crash safety
//!
//! The manifest (`manifest.spill`) is a small versioned text file that
//! records the panel layout and, per completed shard, its row count,
//! nnz, and an FNV-1a 64 checksum. It is rewritten after every shard,
//! so a run killed mid-spill leaves a manifest describing exactly the
//! shards that finished. [`SpilledMatrix::resume`] reopens such a
//! directory and recomputes only the panels whose shards are missing
//! from the manifest, absent on disk, or fail their checksum —
//! everything intact is kept as-is.

use crate::assemble::assemble;
use crate::chunks::ChunkId;
use crate::config::OocConfig;
use crate::executor::{execution_order, plan_panels, prepare_grid, run_on_device};
use crate::faults::{self, HostFaultKind, HostFaultState};
use crate::plan::PanelPlan;
use crate::recovery::RecoveryReport;
use crate::{OocError, Result};
use gpu_sim::SimTime;
use sparse::io::binary::{read_binary, to_bytes};
use sparse::partition::ColPartitioner;
use sparse::CsrMatrix;
use std::path::{Path, PathBuf};

/// Manifest format tag; bump when the layout changes.
const MANIFEST_VERSION: &str = "SPILL1";
/// Manifest file name inside the spill directory.
const MANIFEST_FILE: &str = "manifest.spill";

/// FNV-1a 64-bit hash — tiny, dependency-free shard checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn spill_err(msg: impl Into<String>) -> OocError {
    OocError::Spill(msg.into())
}

/// Per-shard record in the manifest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ShardMeta {
    nnz: u64,
    checksum: u64,
}

/// An output matrix living on disk as per-row-panel shards.
#[derive(Debug)]
pub struct SpilledMatrix {
    dir: PathBuf,
    /// Row range boundaries: panel `i` covers `rows[i]..rows[i+1]`.
    row_bounds: Vec<usize>,
    n_cols: usize,
    /// `Some` once panel `i`'s shard is on disk and in the manifest.
    shards: Vec<Option<ShardMeta>>,
}

impl SpilledMatrix {
    fn shard_path(dir: &Path, panel: usize) -> PathBuf {
        dir.join(format!("panel_{panel}.spb"))
    }

    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_FILE)
    }

    fn manifest_tmp_path(dir: &Path) -> PathBuf {
        dir.join(format!("{MANIFEST_FILE}.tmp"))
    }

    /// Number of row panels on disk.
    pub fn num_panels(&self) -> usize {
        self.row_bounds.len() - 1
    }

    /// Total rows.
    pub fn n_rows(&self) -> usize {
        *self.row_bounds.last().expect("at least one bound")
    }

    /// Total columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored entries across all completed shards.
    pub fn nnz(&self) -> u64 {
        self.shards.iter().flatten().map(|s| s.nnz).sum()
    }

    /// Directory holding the shards.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Global row range of panel `i`.
    pub fn panel_rows(&self, i: usize) -> std::ops::Range<usize> {
        self.row_bounds[i]..self.row_bounds[i + 1]
    }

    /// True when every panel's shard is recorded in the manifest.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(Option::is_some)
    }

    /// Serializes the manifest and writes it atomically: the text goes
    /// to `manifest.spill.tmp` first and is then renamed over the real
    /// manifest, so a crash mid-write can never leave a truncated
    /// manifest — at worst the old manifest survives next to a complete
    /// `.tmp`, and [`SpilledMatrix::open`] accepts either.
    fn write_manifest(&self) -> Result<()> {
        let mut text = String::new();
        text.push_str(MANIFEST_VERSION);
        text.push('\n');
        text.push_str(&format!("n_cols {}\n", self.n_cols));
        text.push_str("bounds");
        for b in &self.row_bounds {
            text.push_str(&format!(" {b}"));
        }
        text.push('\n');
        for (i, meta) in self.shards.iter().enumerate() {
            if let Some(m) = meta {
                text.push_str(&format!("shard {i} {} {:016x}\n", m.nnz, m.checksum));
            }
        }
        let tmp = Self::manifest_tmp_path(&self.dir);
        std::fs::write(&tmp, text)
            .map_err(|e| spill_err(format!("cannot write manifest temp: {e}")))?;
        std::fs::rename(&tmp, Self::manifest_path(&self.dir))
            .map_err(|e| spill_err(format!("cannot commit manifest: {e}")))
    }

    /// Opens an existing spill directory by parsing its manifest.
    ///
    /// A damaged (absent, truncated, malformed) `manifest.spill` is not
    /// immediately fatal: if a parseable `manifest.spill.tmp` from an
    /// interrupted [`write_manifest`](Self::write_manifest) exists, it
    /// is promoted to the real manifest and used. Fails with
    /// [`OocError::Spill`] only when neither file parses. Shards are
    /// *not* verified here — see [`SpilledMatrix::missing_or_corrupt`].
    pub fn open(dir: &Path) -> Result<Self> {
        let primary = match Self::parse_manifest(dir, &Self::manifest_path(dir)) {
            Ok(s) => return Ok(s),
            Err(e) => e,
        };
        let tmp = Self::manifest_tmp_path(dir);
        match Self::parse_manifest(dir, &tmp) {
            Ok(s) => {
                std::fs::rename(&tmp, Self::manifest_path(dir))
                    .map_err(|e| spill_err(format!("cannot promote manifest temp: {e}")))?;
                Ok(s)
            }
            // The primary failure is the one worth reporting; a missing
            // .tmp is the common case, not the root cause.
            Err(_) => Err(primary),
        }
    }

    /// Parses one manifest file into an in-memory handle.
    fn parse_manifest(dir: &Path, path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| spill_err(format!("cannot read {}: {e}", path.display())))?;
        let mut lines = text.lines();
        match lines.next() {
            Some(v) if v == MANIFEST_VERSION => {}
            Some(v) => {
                return Err(spill_err(format!(
                    "unsupported manifest version {v:?} (expected {MANIFEST_VERSION})"
                )))
            }
            None => return Err(spill_err("empty manifest")),
        }
        let parse_usize = |s: &str, what: &str| -> Result<usize> {
            s.parse()
                .map_err(|_| spill_err(format!("bad {what} {s:?} in manifest")))
        };
        let mut n_cols: Option<usize> = None;
        let mut row_bounds: Vec<usize> = Vec::new();
        let mut shard_lines: Vec<(usize, ShardMeta)> = Vec::new();
        for line in lines {
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("n_cols") => {
                    let v = parts
                        .next()
                        .ok_or_else(|| spill_err("n_cols missing value"))?;
                    n_cols = Some(parse_usize(v, "n_cols")?);
                }
                Some("bounds") => {
                    row_bounds = parts
                        .map(|p| parse_usize(p, "bound"))
                        .collect::<Result<Vec<_>>>()?;
                }
                Some("shard") => {
                    let idx = parse_usize(
                        parts
                            .next()
                            .ok_or_else(|| spill_err("shard missing index"))?,
                        "shard index",
                    )?;
                    let nnz = parse_usize(
                        parts.next().ok_or_else(|| spill_err("shard missing nnz"))?,
                        "shard nnz",
                    )? as u64;
                    let sum = parts
                        .next()
                        .ok_or_else(|| spill_err("shard missing checksum"))?;
                    let checksum = u64::from_str_radix(sum, 16)
                        .map_err(|_| spill_err(format!("bad shard checksum {sum:?}")))?;
                    shard_lines.push((idx, ShardMeta { nnz, checksum }));
                }
                Some(other) => return Err(spill_err(format!("unknown manifest record {other:?}"))),
                None => {} // blank line
            }
        }
        let n_cols = n_cols.ok_or_else(|| spill_err("manifest missing n_cols"))?;
        if row_bounds.len() < 2 || row_bounds.windows(2).any(|w| w[0] > w[1]) {
            return Err(spill_err("manifest bounds missing or not non-decreasing"));
        }
        let num_panels = row_bounds.len() - 1;
        let mut shards = vec![None; num_panels];
        for (idx, meta) in shard_lines {
            if idx >= num_panels {
                return Err(spill_err(format!(
                    "manifest shard {idx} out of range (have {num_panels} panels)"
                )));
            }
            shards[idx] = Some(meta);
        }
        Ok(SpilledMatrix {
            dir: dir.to_path_buf(),
            row_bounds,
            n_cols,
            shards,
        })
    }

    /// Panels whose shard is unusable: absent from the manifest,
    /// missing on disk, or failing its checksum. These are exactly the
    /// panels [`SpilledMatrix::resume`] recomputes.
    pub fn missing_or_corrupt(&self) -> Vec<usize> {
        (0..self.num_panels())
            .filter(|&i| match self.shards[i] {
                None => true,
                Some(meta) => match std::fs::read(Self::shard_path(&self.dir, i)) {
                    Ok(bytes) => fnv1a64(&bytes) != meta.checksum,
                    Err(_) => true,
                },
            })
            .collect()
    }

    /// Writes panel `i`'s shard + updates the manifest on disk.
    fn store_panel(&mut self, i: usize, panel: &CsrMatrix) -> Result<()> {
        let bytes = to_bytes(panel);
        std::fs::write(Self::shard_path(&self.dir, i), &bytes[..])
            .map_err(|e| spill_err(format!("cannot write shard {i}: {e}")))?;
        self.shards[i] = Some(ShardMeta {
            nnz: panel.nnz() as u64,
            checksum: fnv1a64(&bytes[..]),
        });
        self.write_manifest()
    }

    /// Loads one row panel from disk, verifying its checksum and shape.
    pub fn load_panel(&self, i: usize) -> Result<CsrMatrix> {
        if i >= self.num_panels() {
            return Err(spill_err(format!(
                "panel {i} out of range (matrix has {} panels)",
                self.num_panels()
            )));
        }
        let meta = self.shards[i]
            .ok_or_else(|| spill_err(format!("panel {i} was never spilled (incomplete run)")))?;
        let path = Self::shard_path(&self.dir, i);
        let bytes =
            std::fs::read(&path).map_err(|e| spill_err(format!("cannot read shard {i}: {e}")))?;
        let actual = fnv1a64(&bytes);
        if actual != meta.checksum {
            return Err(spill_err(format!(
                "shard {i} checksum mismatch: manifest {:016x}, file {actual:016x}",
                meta.checksum
            )));
        }
        let m = read_binary(&path).map_err(OocError::Sparse)?;
        let rows = self.panel_rows(i);
        if m.n_rows() != rows.len() || m.n_cols() != self.n_cols || m.nnz() as u64 != meta.nnz {
            return Err(spill_err(format!(
                "shard {i} shape mismatch: got {}x{} nnz {}, manifest says {}x{} nnz {}",
                m.n_rows(),
                m.n_cols(),
                m.nnz(),
                rows.len(),
                self.n_cols,
                meta.nnz
            )));
        }
        Ok(m)
    }

    /// Loads and concatenates every shard into one in-memory matrix
    /// (test/verification convenience — defeats the point at scale).
    pub fn load_all(&self) -> Result<CsrMatrix> {
        let panels: Vec<CsrMatrix> = (0..self.num_panels())
            .map(|i| self.load_panel(i))
            .collect::<Result<_>>()?;
        let refs: Vec<&CsrMatrix> = panels.iter().collect();
        sparse::ops::vstack(&refs).map_err(OocError::Sparse)
    }

    /// Removes the shards and manifest from disk. Shards already gone
    /// (e.g. deleted by hand after a partial run) are not an error.
    pub fn remove(self) -> std::io::Result<()> {
        let ignore_missing = |r: std::io::Result<()>| match r {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            other => other,
        };
        for i in 0..self.num_panels() {
            ignore_missing(std::fs::remove_file(Self::shard_path(&self.dir, i)))?;
        }
        ignore_missing(std::fs::remove_file(Self::manifest_tmp_path(&self.dir)))?;
        ignore_missing(std::fs::remove_file(Self::manifest_path(&self.dir)))
    }

    /// Resumes an interrupted [`multiply_to_disk`] run: reopens `dir`,
    /// keeps every shard that passes its checksum, and recomputes only
    /// the missing or corrupt panels from `a` and `b`.
    ///
    /// The inputs and config must match the original run — the panel
    /// layout derived from them is checked against the manifest and a
    /// mismatch is an [`OocError::Spill`].
    pub fn resume(
        a: &CsrMatrix,
        b: &CsrMatrix,
        config: &OocConfig,
        dir: &Path,
    ) -> Result<SpilledRun> {
        use gpu_spgemm::{phases, ChunkJob};
        use sparse::CsrView;

        config.validate()?;
        let mut spilled = Self::open(dir)?;
        let (planner, plan) = plan_panels(a, b, &exact(config))?;
        let mut bounds: Vec<usize> = plan.row_ranges.iter().map(|r| r.start).collect();
        bounds.push(plan.row_ranges.last().map_or(0, |r| r.end));
        if bounds != spilled.row_bounds || b.n_cols() != spilled.n_cols {
            return Err(spill_err(
                "manifest does not match these inputs/config (different panel layout)",
            ));
        }

        let mut recovery = RecoveryReport::default();
        if let Some(p) = &config.host_faults {
            // Transient shard-read failures during verification: each
            // failed read is retried until it takes, costing a re-read
            // rather than a recompute. One roll per panel keeps the
            // draw schedule independent of which shards are damaged.
            let mut state = HostFaultState::new(p.derive(faults::streams::SPILL_READ));
            for _ in 0..spilled.num_panels() {
                while state.roll(HostFaultKind::SpillRead) {
                    recovery.spill_read_faults += 1;
                    recovery.retries += 1;
                }
            }
        }
        let needed = spilled.missing_or_corrupt();
        if !needed.is_empty() {
            let col_panels = ColPartitioner::ParallelPrefixSum.partition(b, &plan.col_ranges);
            let k_c = plan.col_panels();
            for &r in &needed {
                let range = &plan.row_ranges[r];
                let results: Vec<CsrMatrix> = (0..k_c)
                    .map(|c| {
                        phases::prepare_chunk(ChunkJob {
                            a_panel: CsrView::rows(a, range.start, range.end),
                            b_panel: &col_panels[c].matrix,
                            chunk_id: r * k_c + c,
                        })
                        .result
                    })
                    .collect();
                let sub_plan = PanelPlan {
                    row_ranges: std::iter::once(0..range.len()).collect(),
                    col_ranges: plan.col_ranges.clone(),
                };
                let chunk_refs: Vec<(ChunkId, &CsrMatrix)> = results
                    .iter()
                    .enumerate()
                    .map(|(c, m)| (ChunkId { row: 0, col: c }, m))
                    .collect();
                let panel = assemble(&sub_plan, &chunk_refs);
                spilled.store_panel(r, &panel)?;
            }
        }
        let flops = planner.row_flops_prefix().last().copied().unwrap_or(0);
        Ok(SpilledRun {
            c: spilled,
            sim_ns: 0,
            flops,
            plan,
            recomputed_panels: needed.len(),
            recovery,
        })
    }
}

/// A completed spilled run: the timing of the ordinary executor, with
/// the product on disk instead of in memory.
#[derive(Debug)]
pub struct SpilledRun {
    /// The on-disk product.
    pub c: SpilledMatrix,
    /// Simulated completion time, ns (0 for a resumed run — resume is
    /// host-side repair work, not a fresh device simulation).
    pub sim_ns: SimTime,
    /// Total flops.
    pub flops: u64,
    /// The panel plan used.
    pub plan: PanelPlan,
    /// How many panels [`SpilledMatrix::resume`] had to recompute
    /// (0 for a fresh [`multiply_to_disk`] run).
    pub recomputed_panels: usize,
    /// What recovery did: the device run's counts (a fresh
    /// [`multiply_to_disk`] run) plus the spill side's read/write
    /// retries and shard corruptions injected by the configured
    /// [`crate::HostFaultPlan`] (all zeros for a fault-free run).
    pub recovery: RecoveryReport,
}

/// `config` with the estimator forced exact: the spill path sizes disk
/// segments from exact chunk outputs, so it always plans exactly.
fn exact(config: &OocConfig) -> OocConfig {
    config
        .clone()
        .estimator(accum::estimate::EstimateConfig::exact())
}

/// Computes `C = a · b` out-of-core and spills the result to `dir`,
/// one shard per row panel. The grid is prepared in full first, so
/// every chunk's product stays in host memory for the whole run; what
/// spilling saves is the assembled copy of `C`, of which only one row
/// panel exists at a time. The manifest is rewritten after every
/// shard, so an interrupted run can be completed with
/// [`SpilledMatrix::resume`].
/// The device run is [`crate::OutOfCoreGpu::multiply`]'s under the exact
/// planner, fault plans and budget included; its recovery counts are
/// merged into [`SpilledRun::recovery`], and it never changes a shard.
pub fn multiply_to_disk(
    a: &CsrMatrix,
    b: &CsrMatrix,
    config: &OocConfig,
    dir: &Path,
) -> Result<SpilledRun> {
    std::fs::create_dir_all(dir)
        .map_err(|e| OocError::Config(format!("cannot create {}: {e}", dir.display())))?;
    let config = &exact(config);
    let pg = prepare_grid(a, b, config)?;
    let order = execution_order(&pg, config);
    let device = run_on_device(a, &pg, &order, config)?;

    let mut row_bounds: Vec<usize> = pg.plan.row_ranges.iter().map(|r| r.start).collect();
    row_bounds.push(pg.plan.row_ranges.last().map_or(0, |r| r.end));
    let num_panels = row_bounds.len() - 1;
    let mut spilled = SpilledMatrix {
        dir: dir.to_path_buf(),
        row_bounds,
        n_cols: b.n_cols(),
        shards: vec![None; num_panels],
    };
    // Record the layout before any shard lands so even a run killed on
    // the first panel leaves a resumable directory.
    spilled.write_manifest()?;

    // Assemble and spill panel by panel.
    let k_c = pg.plan.col_panels();
    let build_panel = |r: usize| {
        // Build a one-row-panel plan so `assemble` can be reused.
        let range = &pg.plan.row_ranges[r];
        let sub_plan = PanelPlan {
            row_ranges: std::iter::once(0..range.len()).collect(),
            col_ranges: pg.plan.col_ranges.clone(),
        };
        let chunk_refs: Vec<(ChunkId, &CsrMatrix)> = (0..k_c)
            .map(|c| {
                (
                    ChunkId { row: 0, col: c },
                    &pg.chunk(ChunkId { row: r, col: c }).result,
                )
            })
            .collect();
        assemble(&sub_plan, &chunk_refs)
    };
    let mut recovery = device.recovery;
    let mut host = config
        .host_faults
        .as_ref()
        .map(|p| HostFaultState::new(p.derive(faults::streams::SPILL_WRITE)));
    for r in 0..num_panels {
        let panel = build_panel(r);
        if let Some(state) = host.as_mut() {
            // Transient write failures: each failed store is retried
            // until it commits.
            while state.roll(HostFaultKind::SpillWrite) {
                recovery.spill_write_faults += 1;
                recovery.retries += 1;
            }
        }
        spilled.store_panel(r, &panel)?;
        if let Some(state) = host.as_mut() {
            if state.roll(HostFaultKind::Corruption) {
                // Flip a real bit in the committed shard so the FNV-1a
                // checksum machinery is exercised end-to-end, not just
                // a counter.
                let path = SpilledMatrix::shard_path(dir, r);
                let mut bytes = std::fs::read(&path)
                    .map_err(|e| spill_err(format!("cannot re-read shard {r}: {e}")))?;
                if !bytes.is_empty() {
                    let (off, mask) = state.corruption_site(bytes.len() as u64);
                    bytes[off as usize] ^= mask;
                    std::fs::write(&path, &bytes)
                        .map_err(|e| spill_err(format!("cannot corrupt shard {r}: {e}")))?;
                    recovery.corruption_faults += 1;
                }
            }
        }
    }
    if host.is_some() {
        // Verify-and-repair: every shard the fault plan damaged fails
        // its checksum here and is rewritten from the still-in-memory
        // chunk results. The repair sweep does not re-roll corruption,
        // so it terminates after one pass.
        for r in spilled.missing_or_corrupt() {
            let panel = build_panel(r);
            spilled.store_panel(r, &panel)?;
            recovery.retries += 1;
        }
        debug_assert!(spilled.missing_or_corrupt().is_empty());
    }

    Ok(SpilledRun {
        c: spilled,
        sim_ns: device.sim_ns,
        flops: pg.total_flops(),
        plan: pg.plan,
        recomputed_panels: 0,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_spgemm::reference;
    use sparse::gen::erdos_renyi;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = sparse::io::unique_temp_dir(&format!("oocgemm_spill_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn spilled_product_matches_reference() {
        let a = erdos_renyi(500, 500, 0.03, 7);
        let cfg = OocConfig::with_device_memory(1 << 18);
        let dir = temp_dir("match");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        assert!(
            run.c.num_panels() > 1,
            "should have spilled multiple shards"
        );
        assert!(run.c.is_complete());
        let loaded = run.c.load_all().unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(loaded.approx_eq(&expect, 1e-9));
        assert_eq!(run.c.nnz(), expect.nnz() as u64);
        assert_eq!(run.c.n_rows(), 500);
        assert_eq!(run.c.n_cols(), 500);
        // Simulated time identical to the in-memory executor, compared
        // under the exact planner the spill path always uses.
        let in_mem = crate::OutOfCoreGpu::new(cfg.estimator(crate::EstimateConfig::exact()))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.sim_ns, in_mem.sim_ns);
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn panels_load_individually() {
        let a = erdos_renyi(300, 300, 0.05, 9);
        let cfg = OocConfig::with_device_memory(1 << 19);
        let dir = temp_dir("panels");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        let expect = reference::multiply(&a, &a).unwrap();
        for i in 0..run.c.num_panels() {
            let rows = run.c.panel_rows(i);
            let panel = run.c.load_panel(i).unwrap();
            assert_eq!(panel, expect.slice_rows(rows.start, rows.end), "panel {i}");
        }
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn bad_directory_is_reported() {
        let a = erdos_renyi(20, 20, 0.2, 1);
        let cfg = OocConfig::with_device_memory(16 << 20).panels(1, 1);
        let err = multiply_to_disk(&a, &a, &cfg, Path::new("/proc/definitely/not/writable"));
        assert!(err.is_err());
    }

    #[test]
    fn open_roundtrips_manifest() {
        let a = erdos_renyi(200, 200, 0.05, 11);
        let cfg = OocConfig::with_device_memory(1 << 19);
        let dir = temp_dir("open");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        let reopened = SpilledMatrix::open(&dir).unwrap();
        assert_eq!(reopened.n_rows(), run.c.n_rows());
        assert_eq!(reopened.n_cols(), run.c.n_cols());
        assert_eq!(reopened.nnz(), run.c.nnz());
        assert_eq!(reopened.num_panels(), run.c.num_panels());
        assert!(reopened.is_complete());
        assert!(reopened.missing_or_corrupt().is_empty());
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(reopened.load_all().unwrap().approx_eq(&expect, 1e-9));
        reopened.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn load_panel_rejects_out_of_range_and_corruption() {
        let a = erdos_renyi(300, 300, 0.05, 13);
        let cfg = OocConfig::with_device_memory(1 << 18);
        let dir = temp_dir("reject");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        let n = run.c.num_panels();
        assert!(n > 1);
        // Out-of-range panel index is an error, not a panic.
        match run.c.load_panel(n) {
            Err(OocError::Spill(msg)) => assert!(msg.contains("out of range"), "{msg}"),
            other => panic!("expected Spill error, got {other:?}"),
        }
        // Flip one byte in shard 0 → checksum mismatch.
        let shard = SpilledMatrix::shard_path(&dir, 0);
        let mut bytes = std::fs::read(&shard).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&shard, &bytes).unwrap();
        match run.c.load_panel(0) {
            Err(OocError::Spill(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum error, got {other:?}"),
        }
        assert_eq!(run.c.missing_or_corrupt(), vec![0]);
        // Other panels still load.
        run.c.load_panel(1).unwrap();
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn resume_recomputes_only_damaged_panels() {
        let a = erdos_renyi(400, 400, 0.03, 17);
        let cfg = OocConfig::with_device_memory(1 << 18);
        let dir = temp_dir("resume");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        let n = run.c.num_panels();
        assert!(n >= 3, "want several panels, got {n}");
        // Simulate a crash: delete one shard, corrupt another.
        std::fs::remove_file(SpilledMatrix::shard_path(&dir, 1)).unwrap();
        let victim = SpilledMatrix::shard_path(&dir, n - 1);
        let mut bytes = std::fs::read(&victim).unwrap();
        bytes[10] ^= 0x5a;
        std::fs::write(&victim, &bytes).unwrap();

        let resumed = SpilledMatrix::resume(&a, &a, &cfg, &dir).unwrap();
        assert_eq!(resumed.recomputed_panels, 2);
        assert!(resumed.c.is_complete());
        assert!(resumed.c.missing_or_corrupt().is_empty());
        let expect = reference::multiply(&a, &a).unwrap();
        let loaded = resumed.c.load_all().unwrap();
        assert_eq!(
            loaded,
            run.c.load_all().unwrap(),
            "resume must be bit-identical"
        );
        assert!(loaded.approx_eq(&expect, 1e-9));
        // A second resume is a no-op.
        let again = SpilledMatrix::resume(&a, &a, &cfg, &dir).unwrap();
        assert_eq!(again.recomputed_panels, 0);
        again.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn manifest_checksum_flip_recomputes_only_that_panel() {
        let a = erdos_renyi(400, 400, 0.03, 37);
        let cfg = OocConfig::with_device_memory(1 << 18);
        let dir = temp_dir("manifest_flip");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        assert!(run.c.num_panels() >= 3);
        let clean = run.c.load_all().unwrap();
        // Flip one hex digit of shard 1's recorded checksum: the shard
        // bytes are fine, but the manifest no longer vouches for them.
        let manifest = SpilledMatrix::manifest_path(&dir);
        let text = std::fs::read_to_string(&manifest).unwrap();
        let flipped: String = text
            .lines()
            .map(|line| {
                if line.starts_with("shard 1 ") {
                    let mut s = line.to_string();
                    let last = s.pop().unwrap();
                    s.push(if last == '0' { '1' } else { '0' });
                    s
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&manifest, flipped + "\n").unwrap();

        let reopened = SpilledMatrix::open(&dir).unwrap();
        assert_eq!(reopened.missing_or_corrupt(), vec![1]);
        let resumed = SpilledMatrix::resume(&a, &a, &cfg, &dir).unwrap();
        assert_eq!(resumed.recomputed_panels, 1);
        assert!(resumed.c.missing_or_corrupt().is_empty());
        assert_eq!(
            resumed.c.load_all().unwrap(),
            clean,
            "resume after a manifest flip must be bit-identical"
        );
        resumed.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn host_fault_plan_corrupts_and_repairs_shards() {
        let a = erdos_renyi(400, 400, 0.03, 43);
        let dir = temp_dir("host_faults");
        let faulty = OocConfig::with_device_memory(1 << 18).host_faults(
            crate::HostFaultPlan::seeded(11)
                .spill_write_rate(0.4)
                .spill_read_rate(0.4)
                .corruption_rate(0.9),
        );
        let run = multiply_to_disk(&a, &a, &faulty, &dir).unwrap();
        assert!(
            run.recovery.corruption_faults > 0,
            "corruption rate 0.9 over several panels must fire: {}",
            run.recovery.summary()
        );
        assert!(run.recovery.spill_write_faults > 0);
        // The repair sweep left every shard verifiable...
        assert!(run.c.missing_or_corrupt().is_empty());
        // ...and the product is bit-identical to a fault-free run.
        let clean_dir = temp_dir("host_faults_clean");
        let clean =
            multiply_to_disk(&a, &a, &OocConfig::with_device_memory(1 << 18), &clean_dir).unwrap();
        assert_eq!(run.recovery.summary(), {
            let rerun_dir = temp_dir("host_faults_rerun");
            let rerun = multiply_to_disk(&a, &a, &faulty, &rerun_dir).unwrap();
            let s = rerun.recovery.summary();
            rerun.c.remove().unwrap();
            std::fs::remove_dir(&rerun_dir).ok();
            s
        });
        assert_eq!(run.c.load_all().unwrap(), clean.c.load_all().unwrap());
        // Resume under read faults retries reads but recomputes nothing.
        let resumed = SpilledMatrix::resume(&a, &a, &faulty, &dir).unwrap();
        assert_eq!(resumed.recomputed_panels, 0);
        assert!(resumed.recovery.spill_read_faults > 0);
        clean.c.remove().unwrap();
        std::fs::remove_dir(&clean_dir).ok();
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn device_fault_plan_recovers_and_writes_the_clean_shards() {
        let a = erdos_renyi(400, 400, 0.03, 47);
        let clean_cfg = OocConfig::with_device_memory(1 << 18);
        let faulty = (clean_cfg.clone()).fault_plan(gpu_sim::FaultPlan::seeded(5).all_rates(0.2));
        let (clean_dir, dir) = (temp_dir("device_clean"), temp_dir("device_faults"));
        let clean = multiply_to_disk(&a, &a, &clean_cfg, &clean_dir).unwrap();
        let run = multiply_to_disk(&a, &a, &faulty, &dir).unwrap();
        assert_eq!(clean.recovery, RecoveryReport::default());
        assert!(
            run.recovery.faults() > 0 && run.recovery.retries > 0,
            "the device plan must fire and be recovered: {}",
            run.recovery.summary()
        );
        // The device side is the in-memory executor's run, faults and
        // all...
        let in_mem = crate::OutOfCoreGpu::new(exact(&faulty))
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(run.sim_ns, in_mem.sim_ns);
        assert_eq!(run.recovery, in_mem.recovery);
        // ...and the shards are the clean run's, byte for byte.
        assert!(run.c.num_panels() > 1);
        assert_eq!(run.c.num_panels(), clean.c.num_panels());
        for i in 0..run.c.num_panels() {
            let read = |d: &Path| std::fs::read(SpilledMatrix::shard_path(d, i)).unwrap();
            assert_eq!(read(&dir), read(&clean_dir), "shard {i}");
        }
        for (m, d) in [(run.c, &dir), (clean.c, &clean_dir)] {
            m.remove().unwrap();
            std::fs::remove_dir(d).ok();
        }
    }

    #[test]
    fn truncated_manifest_resumes_from_tmp_without_recompute() {
        let a = erdos_renyi(400, 400, 0.03, 29);
        let cfg = OocConfig::with_device_memory(1 << 18);
        let dir = temp_dir("tmp_fallback");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        assert!(run.c.num_panels() > 1);
        // Simulate a crash between writing the temp manifest and the
        // rename: a complete .tmp next to a truncated real manifest.
        let manifest = SpilledMatrix::manifest_path(&dir);
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(SpilledMatrix::manifest_tmp_path(&dir), &text).unwrap();
        // Cut right after the version header: valid tag, nothing else.
        std::fs::write(&manifest, "SPILL1\n").unwrap();

        // open() falls back to the .tmp and promotes it...
        let reopened = SpilledMatrix::open(&dir).unwrap();
        assert!(reopened.is_complete());
        assert!(!SpilledMatrix::manifest_tmp_path(&dir).exists());
        // ...so resume finds every checksummed shard intact.
        let resumed = SpilledMatrix::resume(&a, &a, &cfg, &dir).unwrap();
        assert_eq!(resumed.recomputed_panels, 0);
        let expect = reference::multiply(&a, &a).unwrap();
        assert!(resumed.c.load_all().unwrap().approx_eq(&expect, 1e-9));
        resumed.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn damaged_manifest_without_tmp_still_errors() {
        let a = erdos_renyi(200, 200, 0.05, 31);
        let cfg = OocConfig::with_device_memory(1 << 19);
        let dir = temp_dir("no_tmp");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        std::fs::write(SpilledMatrix::manifest_path(&dir), "SPILL1\ngarbage").unwrap();
        match SpilledMatrix::open(&dir) {
            Err(OocError::Spill(msg)) => {
                assert!(msg.contains("unknown manifest record"), "{msg}")
            }
            other => panic!("expected Spill error, got {other:?}"),
        }
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn resume_rejects_mismatched_inputs() {
        let a = erdos_renyi(200, 200, 0.05, 19);
        let cfg = OocConfig::with_device_memory(1 << 19);
        let dir = temp_dir("mismatch");
        multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        let other = erdos_renyi(150, 150, 0.05, 20);
        match SpilledMatrix::resume(&other, &other, &cfg, &dir) {
            Err(OocError::Spill(msg)) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!("expected Spill mismatch error, got {other:?}"),
        }
        SpilledMatrix::open(&dir).unwrap().remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn remove_tolerates_missing_shards() {
        let a = erdos_renyi(200, 200, 0.05, 23);
        let cfg = OocConfig::with_device_memory(1 << 19);
        let dir = temp_dir("remove");
        let run = multiply_to_disk(&a, &a, &cfg, &dir).unwrap();
        std::fs::remove_file(SpilledMatrix::shard_path(&dir, 0)).unwrap();
        run.c.remove().unwrap();
        std::fs::remove_dir(&dir).ok();
    }
}
