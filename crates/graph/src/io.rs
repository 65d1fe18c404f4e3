//! Matrix Market and edge-list I/O.
//!
//! The paper's graphs come from the UF Sparse Matrix Collection, distributed
//! in Matrix Market coordinate format; this module lets users run every
//! kernel and experiment on the real matrices if they have them on disk.

use crate::builder::GraphBuilder;
use crate::csr::{Csr, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// I/O and parse errors.
#[derive(Debug)]
pub enum IoError {
    Io(std::io::Error),
    Parse { line: usize, msg: String },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, msg } => write!(f, "parse error at line {line}: {msg}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Rows a Matrix Market size line may declare for each entry the file
/// holds, beyond [`FREE_ROWS`]. Building the graph allocates per declared
/// row before any edge, so an unchecked size line could ask for any amount
/// of memory from a file of a few bytes. Rows no entry names are isolated
/// vertices; real matrices have few of them per entry.
const ROWS_PER_ENTRY: usize = 64;
/// Rows a size line may declare whatever its entry count.
const FREE_ROWS: usize = 1 << 20;

fn parse_err(line: usize, msg: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        msg: msg.into(),
    }
}

/// Read a Matrix Market file as an undirected graph.
///
/// Accepts `matrix coordinate <field> symmetric|general` headers with any
/// numeric field (values are ignored — we only need the pattern). Entries on
/// the diagonal are dropped; for `general` matrices the upper and lower
/// halves may both be present and are merged.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Csr, IoError> {
    let mut lines = BufReader::new(reader).lines().enumerate();

    // Header line.
    let (lineno, header) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                if !l.trim().is_empty() {
                    break (i + 1, l);
                }
            }
            None => return Err(parse_err(0, "empty file")),
        }
    };
    let h: Vec<&str> = header.split_whitespace().collect();
    if h.len() < 4 || h[0] != "%%MatrixMarket" || h[1] != "matrix" || h[2] != "coordinate" {
        return Err(parse_err(lineno, format!("unsupported header: {header}")));
    }

    // Size line (skip comments/blanks).
    let (lineno, size_line) = loop {
        match lines.next() {
            Some((i, l)) => {
                let l = l?;
                let t = l.trim();
                if !t.is_empty() && !t.starts_with('%') {
                    break (i + 1, l);
                }
            }
            None => return Err(parse_err(0, "missing size line")),
        }
    };
    let parts: Vec<&str> = size_line.split_whitespace().collect();
    if parts.len() != 3 {
        return Err(parse_err(lineno, "size line must have 3 fields"));
    }
    let rows: usize = parts[0]
        .parse()
        .map_err(|_| parse_err(lineno, "bad row count"))?;
    let cols: usize = parts[1]
        .parse()
        .map_err(|_| parse_err(lineno, "bad col count"))?;
    let nnz: usize = parts[2]
        .parse()
        .map_err(|_| parse_err(lineno, "bad nnz count"))?;
    if rows != cols {
        return Err(parse_err(
            lineno,
            format!("matrix must be square, got {rows}x{cols}"),
        ));
    }
    if rows > VertexId::MAX as usize {
        return Err(parse_err(
            lineno,
            format!("{rows} rows exceed the u32 vertex ids"),
        ));
    }

    // The declared `nnz` is not trusted for a reservation: the edge vector
    // grows with the entries actually read.
    let mut b = GraphBuilder::new(rows);
    let mut read = 0usize;
    for (i, l) in lines {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "bad row index"))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "bad col index"))?;
        if r == 0 || c == 0 || r > rows || c > cols {
            return Err(parse_err(
                i + 1,
                "index out of range (Matrix Market is 1-based)",
            ));
        }
        if r != c {
            b.add_edge((r - 1) as VertexId, (c - 1) as VertexId);
        }
        read += 1;
        if read > nnz {
            return Err(parse_err(i + 1, "more entries than declared"));
        }
    }
    if read != nnz {
        return Err(parse_err(
            0,
            format!("declared {nnz} entries but found {read}"),
        ));
    }
    if rows > FREE_ROWS.max(ROWS_PER_ENTRY * read) {
        return Err(parse_err(
            lineno,
            format!(
                "{rows} rows for {read} entries: more than {FREE_ROWS} rows \
                 need at least one entry per {ROWS_PER_ENTRY}"
            ),
        ));
    }
    Ok(b.build())
}

/// Read a Matrix Market file from a path.
pub fn read_matrix_market_path(path: impl AsRef<Path>) -> Result<Csr, IoError> {
    read_matrix_market(std::fs::File::open(path)?)
}

/// Write a graph as a `pattern symmetric` Matrix Market file (lower triangle).
pub fn write_matrix_market<W: Write>(g: &Csr, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(
        w,
        "{} {} {}",
        g.num_vertices(),
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        // Lower triangle, 1-based: row > col.
        writeln!(w, "{} {}", v + 1, u + 1)?;
    }
    w.flush()?;
    Ok(())
}

/// Read a whitespace-separated 0-based edge list (`u v` per line, `#`
/// comments allowed). The vertex count is `max id + 1` unless `n` is given.
pub fn read_edge_list<R: Read>(reader: R, n: Option<usize>) -> Result<Csr, IoError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_id = 0usize;
    for (i, l) in BufReader::new(reader).lines().enumerate() {
        let l = l?;
        let t = l.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut it = t.split_whitespace();
        let u: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "bad source id"))?;
        let v: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "bad target id"))?;
        max_id = max_id.max(u).max(v);
        edges.push((u as VertexId, v as VertexId));
    }
    let n = match n {
        Some(n) => {
            if !edges.is_empty() && max_id >= n {
                return Err(parse_err(0, format!("edge id {max_id} exceeds n = {n}")));
            }
            n
        }
        None => {
            if edges.is_empty() {
                0
            } else {
                max_id + 1
            }
        }
    };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    b.extend(edges);
    Ok(b.build())
}

/// Magic + version header of the binary CSR format.
const CSR_MAGIC: &[u8; 8] = b"MICCSR01";

/// Write a graph in the compact binary CSR format (little-endian):
/// magic, |V| and |adj| as u64, the offset array as u64s, the adjacency
/// array as u32s. Loads back in one pass — the cache format for the
/// paper-sized suite graphs.
pub fn write_csr_bin<W: Write>(g: &Csr, writer: W) -> Result<(), IoError> {
    let mut w = BufWriter::new(writer);
    w.write_all(CSR_MAGIC)?;
    w.write_all(&(g.num_vertices() as u64).to_le_bytes())?;
    w.write_all(&(g.adj().len() as u64).to_le_bytes())?;
    for &x in g.xadj() {
        w.write_all(&(x as u64).to_le_bytes())?;
    }
    for &v in g.adj() {
        w.write_all(&v.to_le_bytes())?;
    }
    w.flush()?;
    Ok(())
}

/// Read a graph written by [`write_csr_bin`]. Validates the header and the
/// structural CSR invariants (via [`Csr::from_parts`]).
pub fn read_csr_bin<R: Read>(reader: R) -> Result<Csr, IoError> {
    let mut r = std::io::BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != CSR_MAGIC {
        return Err(parse_err(0, "bad magic: not a MICCSR01 file"));
    }
    let mut u64buf = [0u8; 8];
    r.read_exact(&mut u64buf)?;
    let n64 = u64::from_le_bytes(u64buf);
    r.read_exact(&mut u64buf)?;
    let m64 = u64::from_le_bytes(u64buf);
    // Ids are u32, so both counts must fit comfortably; also never trust a
    // header enough to pre-commit its full allocation — grow while reading
    // so a truncated or hostile file fails at EOF instead of in the
    // allocator.
    if n64 > u32::MAX as u64 || m64 > u32::MAX as u64 {
        return Err(parse_err(
            0,
            "corrupt CSR: implausible vertex or edge count",
        ));
    }
    let (n, m2) = (n64 as usize, m64 as usize);
    const PRE_RESERVE_CAP: usize = 1 << 22;
    let mut xadj = Vec::with_capacity((n + 1).min(PRE_RESERVE_CAP));
    for i in 0..=n {
        r.read_exact(&mut u64buf)?;
        let x = u64::from_le_bytes(u64buf);
        if x > m64 {
            return Err(parse_err(
                0,
                format!("corrupt CSR: offset {i} beyond adjacency"),
            ));
        }
        xadj.push(x as usize);
    }
    if xadj[0] != 0 || xadj.last().copied() != Some(m2) || xadj.windows(2).any(|w| w[0] > w[1]) {
        return Err(parse_err(
            0,
            "corrupt CSR: offsets are not a valid prefix array",
        ));
    }
    let mut adj = Vec::with_capacity(m2.min(PRE_RESERVE_CAP));
    let mut u32buf = [0u8; 4];
    for _ in 0..m2 {
        r.read_exact(&mut u32buf)?;
        let v = u32::from_le_bytes(u32buf);
        if v as usize >= n {
            return Err(parse_err(0, "corrupt CSR: adjacency id out of range"));
        }
        adj.push(v);
    }
    // Remaining structural invariants (sortedness, symmetry in debug).
    for v in 0..n {
        let seg = &adj[xadj[v]..xadj[v + 1]];
        if seg.windows(2).any(|w| w[0] >= w[1]) || seg.contains(&(v as u32)) {
            return Err(parse_err(0, "corrupt CSR: adjacency not sorted/simple"));
        }
    }
    Ok(Csr::from_parts(xadj, adj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{erdos_renyi_gnm, grid2d, Stencil2};

    #[test]
    fn matrix_market_roundtrip() {
        let g = erdos_renyi_gnm(60, 150, 8);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let h = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = grid2d(7, 5, Stencil2::NinePoint);
        let text: String = g.edges().map(|(u, v)| format!("{u} {v}\n")).collect();
        let h = read_edge_list(text.as_bytes(), Some(g.num_vertices())).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn matrix_market_general_with_values_and_diagonal() {
        let text = "\
%%MatrixMarket matrix coordinate real general
% a comment
3 3 5
1 2 1.5
2 1 1.5
2 2 9.0
3 1 -2.0
1 3 -2.0
";
        let g = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2); // {0,1}, {0,2}; diagonal dropped
    }

    #[test]
    fn rejects_rectangular() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 2\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_entry() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n0 1\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_list_with_comments_and_auto_n() {
        let text = "# demo\n0 1\n\n1 2\n";
        let g = read_edge_list(text.as_bytes(), None).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_id_beyond_n() {
        let text = "0 5\n";
        assert!(read_edge_list(text.as_bytes(), Some(3)).is_err());
    }

    #[test]
    fn csr_bin_roundtrip() {
        let g = erdos_renyi_gnm(300, 900, 12);
        let mut buf = Vec::new();
        write_csr_bin(&g, &mut buf).unwrap();
        let h = read_csr_bin(&buf[..]).unwrap();
        assert_eq!(g, h);
    }

    #[test]
    fn csr_bin_rejects_garbage() {
        assert!(read_csr_bin(&b"NOTACSR!"[..]).is_err());
        assert!(read_csr_bin(&b"MICCSR01\x01"[..]).is_err()); // truncated
    }

    #[test]
    fn csr_bin_empty_graph() {
        let g = Csr::empty(4);
        let mut buf = Vec::new();
        write_csr_bin(&g, &mut buf).unwrap();
        assert_eq!(read_csr_bin(&buf[..]).unwrap(), g);
    }
}
