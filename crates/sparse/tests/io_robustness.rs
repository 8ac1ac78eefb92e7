//! Robustness of the I/O layer: arbitrary input never panics, and
//! round-trips are lossless for arbitrary valid matrices.

use proptest::prelude::*;
use sparse::io::binary::{from_bytes, read_binary, to_bytes, write_binary};
use sparse::io::market::{read_matrix_market_str, write_matrix_market};
use sparse::io::{read_matrix_market, unique_temp_dir};
use sparse::{CooMatrix, CsrMatrix};

fn temp_spb(tag: &str) -> std::path::PathBuf {
    unique_temp_dir(&format!("sparse_spb_{tag}")).with_extension("spb")
}

fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
    (1..40usize, 1..40usize).prop_flat_map(|(r, c)| {
        prop::collection::vec((0..r, 0..c, -1e6f64..1e6), 0..150).prop_map(move |entries| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in entries {
                coo.push(i, j, v).unwrap();
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(text in "\\PC{0,400}") {
        // Any outcome is fine as long as we do not panic.
        let _ = read_matrix_market_str(&text);
    }

    #[test]
    fn arbitrary_mm_like_text_never_panics(
        body in prop::collection::vec((0u32..100, 0u32..100, -1e9f64..1e9), 0..40),
        rows in 0u32..50,
        cols in 0u32..50,
        nnz in 0u32..60,
    ) {
        let mut text = format!(
            "%%MatrixMarket matrix coordinate real general\n{rows} {cols} {nnz}\n"
        );
        for (r, c, v) in body {
            text.push_str(&format!("{r} {c} {v}\n"));
        }
        let _ = read_matrix_market_str(&text);
    }

    #[test]
    fn arbitrary_bytes_never_panic_binary_reader(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let _ = from_bytes(bytes::Bytes::from(data));
    }

    #[test]
    fn truncated_valid_binary_never_panics(m in arb_matrix(), cut_fraction in 0.0f64..1.0) {
        let raw = to_bytes(&m);
        let cut = ((raw.len() as f64) * cut_fraction) as usize;
        let _ = from_bytes(raw.slice(..cut));
    }

    #[test]
    fn binary_roundtrip_lossless(m in arb_matrix()) {
        let back = from_bytes(to_bytes(&m)).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn matrix_market_roundtrip_lossless(m in arb_matrix()) {
        let path = unique_temp_dir("sparse_mm_prop").with_extension("mtx");
        write_matrix_market(&path, &m).unwrap();
        let back = read_matrix_market(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Text roundtrip preserves structure exactly and values to
        // full precision (we print with 17 significant digits).
        prop_assert_eq!(back.row_offsets(), m.row_offsets());
        prop_assert_eq!(back.col_ids(), m.col_ids());
        prop_assert!(back.approx_eq(&m, 1e-15));
    }

    #[test]
    fn spb_file_roundtrip_lossless(m in arb_matrix()) {
        let path = temp_spb("roundtrip");
        write_binary(&path, &m).unwrap();
        let back = read_binary(&path).unwrap();
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn truncated_spb_file_never_panics(m in arb_matrix(), cut_fraction in 0.0f64..1.0) {
        let raw = to_bytes(&m);
        let cut = ((raw.len() as f64) * cut_fraction) as usize;
        let path = temp_spb("truncated");
        std::fs::write(&path, &raw[..cut]).unwrap();
        let result = read_binary(&path);
        std::fs::remove_file(&path).ok();
        if cut < raw.len() {
            prop_assert!(result.is_err(), "accepted a truncated file (cut {})", cut);
        }
    }

    #[test]
    fn arbitrary_spb_file_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..300)) {
        let path = temp_spb("arbitrary");
        std::fs::write(&path, &data).unwrap();
        let _ = read_binary(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_spb_header_on_disk_never_panics(
        m in arb_matrix(),
        pos in 4usize..28,
        val in any::<u8>(),
    ) {
        let mut raw = to_bytes(&m).to_vec();
        if pos < raw.len() {
            raw[pos] = val;
        }
        let path = temp_spb("header");
        std::fs::write(&path, &raw).unwrap();
        // Either a clean error or (if the header survived mutation
        // compatibly) a parsed matrix — never a panic or huge alloc.
        let _ = read_binary(&path);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_header_fields_never_panic(
        m in arb_matrix(),
        pos in 4usize..28,
        val in any::<u8>(),
    ) {
        let mut raw = to_bytes(&m).to_vec();
        if pos < raw.len() {
            raw[pos] = val;
        }
        let _ = from_bytes(bytes::Bytes::from(raw));
    }
}
