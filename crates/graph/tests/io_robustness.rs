//! Robustness: malformed and adversarial inputs must yield `Err`, never a
//! panic or a structurally invalid graph.

use mic_graph::io::{read_csr_bin, read_edge_list, read_matrix_market, write_csr_bin, IoError};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matrix_market_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(g) = read_matrix_market(&bytes[..]) {
            prop_assert!(g.check_invariants());
        }
    }

    #[test]
    fn matrix_market_textish_never_panics(s in "[%0-9a-zA-Z .\\n-]{0,300}") {
        if let Ok(g) = read_matrix_market(s.as_bytes()) {
            prop_assert!(g.check_invariants());
        }
    }

    #[test]
    fn edge_list_never_panics(s in "[#0-9 \\n-]{0,300}") {
        if let Ok(g) = read_edge_list(s.as_bytes(), None) {
            prop_assert!(g.check_invariants());
        }
    }

    #[test]
    fn csr_bin_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        if let Ok(g) = read_csr_bin(&bytes[..]) {
            prop_assert!(g.check_invariants());
        }
    }

    #[test]
    fn csr_bin_truncations_are_errors(n in 2usize..20, cut in 0usize..64) {
        // A valid file truncated anywhere (except exactly at the end) must
        // be an error, not a bogus graph.
        let g = mic_graph::generators::path(n);
        let mut buf = Vec::new();
        write_csr_bin(&g, &mut buf).unwrap();
        let cut = cut.min(buf.len());
        let truncated = &buf[..buf.len() - cut];
        match read_csr_bin(truncated) {
            Ok(h) => prop_assert!(cut == 0 && h == g),
            Err(_) => prop_assert!(cut > 0),
        }
    }
}

/// A size line is outside input: neither a huge declared `nnz` (once an
/// up-front reservation that aborted the process), nor a row count past the
/// u32 ids (once a builder panic), nor one inside them but far beyond what
/// the entries justify (once the builder's per-row offsets exhausting
/// memory) may take the reader down. Each is a parse error.
#[test]
fn matrix_market_size_line_cannot_abort_the_reader() {
    for size in [
        "4 4 100000000000000",
        "5000000000 5000000000 1",
        "4000000000 4000000000 1",
    ] {
        let text = format!("%%MatrixMarket matrix coordinate pattern symmetric\n{size}\n2 1\n");
        let got = read_matrix_market(text.as_bytes());
        assert!(matches!(got, Err(IoError::Parse { .. })), "{size}: {got:?}");
    }
}

/// Rows no entry names are isolated vertices, and they stay in the graph.
#[test]
fn matrix_market_keeps_trailing_isolated_vertices() {
    let text = "%%MatrixMarket matrix coordinate pattern symmetric\n10 10 1\n2 1\n";
    let g = read_matrix_market(text.as_bytes()).expect("a valid file");
    assert_eq!((g.num_vertices(), g.num_edges()), (10, 1));
}

#[test]
fn corrupted_header_fields_rejected() {
    let g = mic_graph::generators::path(5);
    let mut buf = Vec::new();
    write_csr_bin(&g, &mut buf).unwrap();
    // Corrupt the vertex count to something enormous.
    buf[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(read_csr_bin(&buf[..]).is_err());
}
