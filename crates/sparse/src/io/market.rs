//! Matrix Market (`.mtx`) reader and writer.
//!
//! Supports the `matrix coordinate (real|integer|pattern)
//! (general|symmetric)` subset, which covers every matrix in the
//! paper's evaluation suite. `pattern` entries get value 1.0;
//! `symmetric` files are expanded to full storage (off-diagonal entries
//! mirrored), matching how SpGEMM codes consume SuiteSparse inputs.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::{Result, SparseError};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
}

/// Reads a Matrix Market file from disk.
pub fn read_matrix_market(path: &Path) -> Result<CsrMatrix> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_from(BufReader::new(file))
}

/// Parses a Matrix Market document from a string.
pub fn read_matrix_market_str(text: &str) -> Result<CsrMatrix> {
    read_matrix_market_from(BufReader::new(text.as_bytes()))
}

fn parse_error(line: usize, msg: impl Into<String>) -> SparseError {
    SparseError::Parse {
        line,
        msg: msg.into(),
    }
}

fn read_matrix_market_from<R: Read>(reader: BufReader<R>) -> Result<CsrMatrix> {
    let mut lines = reader.lines().enumerate();

    // Header line.
    let (line_no, header) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i + 1, line);
                }
            }
            None => return Err(parse_error(0, "empty file")),
        }
    };
    let tokens: Vec<String> = header
        .split_whitespace()
        .map(|t| t.to_ascii_lowercase())
        .collect();
    if tokens.len() < 4 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(parse_error(line_no, "missing %%MatrixMarket matrix header"));
    }
    if tokens[2] != "coordinate" {
        return Err(parse_error(line_no, "only coordinate format is supported"));
    }
    let field = match tokens[3].as_str() {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => {
            return Err(parse_error(
                line_no,
                format!("unsupported field type {other}"),
            ))
        }
    };
    let symmetry = match tokens.get(4).map(|s| s.as_str()).unwrap_or("general") {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        other => {
            return Err(parse_error(
                line_no,
                format!("unsupported symmetry {other}"),
            ))
        }
    };

    // Size line (skipping comments).
    let (size_line_no, size_line) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                let t = line.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, line);
                }
            }
            None => return Err(parse_error(0, "missing size line")),
        }
    };
    let mut it = size_line.split_whitespace();
    let n_rows: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_error(size_line_no, "bad row count"))?;
    let n_cols: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_error(size_line_no, "bad column count"))?;
    let nnz: usize = it
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| parse_error(size_line_no, "bad nnz count"))?;

    let cap = if symmetry == Symmetry::Symmetric {
        nnz * 2
    } else {
        nnz
    };
    let mut coo = CooMatrix::with_capacity(n_rows, n_cols, cap);
    let mut seen = 0usize;
    for (i, line) in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let line_no = i + 1;
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| parse_error(line_no, "bad row index"))?;
        let c: usize = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| parse_error(line_no, "bad column index"))?;
        if r == 0 || c == 0 {
            return Err(parse_error(line_no, "Matrix Market indices are 1-based"));
        }
        let v = match field {
            Field::Pattern => 1.0,
            Field::Real | Field::Integer => it
                .next()
                .and_then(|x| x.parse::<f64>().ok())
                .ok_or_else(|| parse_error(line_no, "bad value"))?,
        };
        coo.push(r - 1, c - 1, v).map_err(|_| {
            parse_error(
                line_no,
                format!("entry ({r}, {c}) outside {n_rows}x{n_cols}"),
            )
        })?;
        if symmetry == Symmetry::Symmetric && r != c {
            coo.push(c - 1, r - 1, v).unwrap();
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_error(
            0,
            format!("expected {nnz} entries, found {seen}"),
        ));
    }
    Ok(coo.to_csr())
}

/// Writes `m` to disk as `matrix coordinate real general`.
pub fn write_matrix_market(path: &Path, m: &CsrMatrix) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "{} {} {}", m.n_rows(), m.n_cols(), m.nnz())?;
    for (r, c, v) in m.iter() {
        writeln!(w, "{} {} {:.17e}", r + 1, c + 1, v)?;
    }
    w.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_general_real() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    3 4 3\n\
                    1 1 1.5\n\
                    2 3 -2.0\n\
                    3 4 0.25\n";
        let m = read_matrix_market_str(text).unwrap();
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 4);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 0), 1.5);
        assert_eq!(m.get(1, 2), -2.0);
        assert_eq!(m.get(2, 3), 0.25);
    }

    #[test]
    fn parses_pattern_symmetric() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n\
                    3 3 2\n\
                    2 1\n\
                    3 3\n";
        let m = read_matrix_market_str(text).unwrap();
        assert_eq!(m.nnz(), 3, "off-diagonal mirrored, diagonal not");
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 2), 1.0);
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 5.0\n";
        assert!(read_matrix_market_str(text).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 5.0\n";
        assert!(read_matrix_market_str(text).is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market_str("hello\n1 1 0\n").is_err());
        assert!(read_matrix_market_str("%%MatrixMarket matrix array real general\n").is_err());
    }

    #[test]
    fn file_roundtrip() {
        let path = crate::io::unique_temp_dir("sparse_mm_test").with_extension("mtx");
        let m = crate::gen::erdos::erdos_renyi(20, 25, 0.15, 5);
        write_matrix_market(&path, &m).unwrap();
        let back = read_matrix_market(&path).unwrap();
        assert_eq!(back, m);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_entries_sum() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    2 2 2\n\
                    1 1 1.0\n\
                    1 1 2.5\n";
        let m = read_matrix_market_str(text).unwrap();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.get(0, 0), 3.5);
    }
}
