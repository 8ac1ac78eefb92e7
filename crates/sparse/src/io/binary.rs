//! Compact little-endian binary CSR format ("SPB1").
//!
//! Layout: magic `SPB1`, then `n_rows`, `n_cols`, `nnz` as `u64`,
//! then the three CSR arrays (`row_offsets` as `u64`, `col_ids` as
//! `u32`, `values` as `f64` bits). Reloading a converted matrix is
//! `O(nnz)` with no parsing — the same reason SpGEMM papers convert
//! `.mtx` inputs to binary before timing.

use crate::csr::{ColId, CsrMatrix};
use crate::{Result, SparseError};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"SPB1";

/// Serializes `m` into an owned byte buffer.
pub fn to_bytes(m: &CsrMatrix) -> Bytes {
    let mut buf = BytesMut::with_capacity(4 + 24 + m.row_offsets().len() * 8 + m.nnz() * (4 + 8));
    buf.put_slice(MAGIC);
    buf.put_u64_le(m.n_rows() as u64);
    buf.put_u64_le(m.n_cols() as u64);
    buf.put_u64_le(m.nnz() as u64);
    for &o in m.row_offsets() {
        buf.put_u64_le(o as u64);
    }
    for &c in m.col_ids() {
        buf.put_u32_le(c);
    }
    for &v in m.values() {
        buf.put_f64_le(v);
    }
    buf.freeze()
}

/// Deserializes a matrix from bytes produced by [`to_bytes`].
pub fn from_bytes(mut data: Bytes) -> Result<CsrMatrix> {
    let fail = |msg: &str| SparseError::Parse {
        line: 0,
        msg: msg.into(),
    };
    if data.remaining() < 4 + 24 {
        return Err(fail("truncated header"));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(fail("bad magic (not an SPB1 file)"));
    }
    let n_rows = data.get_u64_le() as usize;
    let n_cols = data.get_u64_le() as usize;
    let nnz = data.get_u64_le() as usize;
    // Checked arithmetic: forged headers must not wrap the size
    // computation and sneak past the length check into a huge
    // allocation.
    let need = n_rows
        .checked_add(1)
        .and_then(|r| r.checked_mul(8))
        .and_then(|o| nnz.checked_mul(4 + 8).and_then(|e| o.checked_add(e)))
        .ok_or_else(|| fail("header sizes overflow"))?;
    if data.remaining() < need {
        return Err(fail("truncated body"));
    }
    let mut row_offsets = Vec::with_capacity(n_rows + 1);
    for _ in 0..=n_rows {
        row_offsets.push(data.get_u64_le() as usize);
    }
    let mut col_ids: Vec<ColId> = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        col_ids.push(data.get_u32_le());
    }
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        values.push(data.get_f64_le());
    }
    CsrMatrix::from_parts(n_rows, n_cols, row_offsets, col_ids, values)
}

/// Writes `m` to `path` in SPB1 format.
pub fn write_binary(path: &Path, m: &CsrMatrix) -> Result<()> {
    let bytes = to_bytes(m);
    let mut f = std::fs::File::create(path)?;
    f.write_all(&bytes)?;
    Ok(())
}

/// Reads an SPB1 file.
///
/// The 28-byte header (magic + counts) is read and validated against
/// the file's actual length *before* any size derived from it is
/// allocated, so a truncated or forged file is rejected without ever
/// reserving the memory its header claims to need.
pub fn read_binary(path: &Path) -> Result<CsrMatrix> {
    let fail = |msg: &str| SparseError::Parse {
        line: 0,
        msg: msg.into(),
    };
    let mut f = std::fs::File::open(path)?;
    let file_len = f.metadata()?.len();
    if file_len < (4 + 24) as u64 {
        return Err(fail("truncated header"));
    }
    let mut header = [0u8; 4 + 24];
    f.read_exact(&mut header)?;
    if &header[..4] != MAGIC {
        return Err(fail("bad magic (not an SPB1 file)"));
    }
    let field = |i: usize| {
        u64::from_le_bytes(header[4 + i * 8..12 + i * 8].try_into().expect("8 bytes")) as usize
    };
    let (n_rows, nnz) = (field(0), field(2));
    let need = n_rows
        .checked_add(1)
        .and_then(|r| r.checked_mul(8))
        .and_then(|o| nnz.checked_mul(4 + 8).and_then(|e| o.checked_add(e)))
        .ok_or_else(|| fail("header sizes overflow"))?;
    if file_len - (header.len() as u64) < need as u64 {
        return Err(fail("truncated body"));
    }
    // Only now is the header-derived size trusted enough to allocate.
    let mut data = Vec::with_capacity(header.len() + need);
    data.extend_from_slice(&header);
    f.take(need as u64).read_to_end(&mut data)?;
    from_bytes(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::erdos::erdos_renyi;

    #[test]
    fn bytes_roundtrip() {
        let m = erdos_renyi(40, 55, 0.1, 17);
        let b = to_bytes(&m);
        let back = from_bytes(b).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_matrix_roundtrip() {
        let m = CsrMatrix::zeros(0, 0);
        assert_eq!(from_bytes(to_bytes(&m)).unwrap(), m);
        let m = CsrMatrix::zeros(5, 9);
        assert_eq!(from_bytes(to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn rejects_bad_magic() {
        let m = erdos_renyi(5, 5, 0.3, 2);
        let mut raw = to_bytes(&m).to_vec();
        raw[0] = b'X';
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let m = erdos_renyi(5, 5, 0.3, 2);
        let raw = to_bytes(&m);
        for cut in [0usize, 3, 10, raw.len() - 1] {
            assert!(
                from_bytes(raw.slice(..cut)).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn rejects_corrupted_structure() {
        let m = erdos_renyi(6, 6, 0.4, 3);
        let mut raw = to_bytes(&m).to_vec();
        // Corrupt the first row offset (byte 28..36) to a huge value.
        raw[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn forged_header_sizes_are_rejected_not_allocated() {
        let m = erdos_renyi(4, 4, 0.5, 1);
        // Overwrite n_rows (bytes 4..12) with 2^61: (n+1)*8 would wrap
        // to a tiny value without checked arithmetic.
        let mut raw = to_bytes(&m).to_vec();
        raw[4..12].copy_from_slice(&(1u64 << 61).to_le_bytes());
        assert!(from_bytes(Bytes::from(raw)).is_err());
        // Same for nnz (bytes 20..28).
        let mut raw = to_bytes(&m).to_vec();
        raw[20..28].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(from_bytes(Bytes::from(raw)).is_err());
    }

    #[test]
    fn read_binary_rejects_bad_files_without_allocating() {
        let dir = crate::io::unique_temp_dir("sparse_bin_reject_test");
        std::fs::create_dir_all(&dir).unwrap();
        let m = erdos_renyi(20, 20, 0.2, 5);
        let raw = to_bytes(&m).to_vec();

        // Truncated on disk: header claims more body than the file has.
        let path = dir.join("truncated.spb");
        std::fs::write(&path, &raw[..raw.len() - 1]).unwrap();
        assert!(read_binary(&path).is_err());

        // Forged n_rows of 2^61: must be rejected from the length
        // check, not by attempting an ~exabyte allocation.
        let mut forged = raw.clone();
        forged[4..12].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let path = dir.join("forged.spb");
        std::fs::write(&path, &forged).unwrap();
        assert!(read_binary(&path).is_err());

        // Shorter than the header entirely.
        let path = dir.join("stub.spb");
        std::fs::write(&path, b"SPB1\x01").unwrap();
        assert!(read_binary(&path).is_err());

        // Wrong magic.
        let mut bad = raw.clone();
        bad[0] = b'Z';
        let path = dir.join("magic.spb");
        std::fs::write(&path, &bad).unwrap();
        assert!(read_binary(&path).is_err());

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let path = crate::io::unique_temp_dir("sparse_bin_test").with_extension("spb");
        let m = erdos_renyi(30, 30, 0.2, 8);
        write_binary(&path, &m).unwrap();
        assert_eq!(read_binary(&path).unwrap(), m);
        std::fs::remove_file(&path).ok();
    }
}
