//! Table I: properties of the test graphs.

use mic_graph::suite::{paper_row, PaperGraph, PaperRow, Scale};

/// One measured row next to the paper's.
#[derive(Clone, Debug, PartialEq)]
pub struct Table1Row {
    pub name: &'static str,
    pub vertices: usize,
    pub edges: usize,
    pub max_degree: usize,
    pub colors: u32,
    pub levels: u32,
    pub paper: PaperRow,
}

/// Measure all seven graphs at `scale`. `#Color` is the sequential greedy
/// count in natural order; `#Level` is a BFS from vertex `|V| / 2`, both
/// exactly as Table I specifies. Each row (graph, coloring and BFS) is one
/// sweep job, and rows keep Table I order for any worker count. Both
/// counts are cached with the suite graph, so a repeat call recomputes
/// neither.
pub fn table1(scale: Scale) -> Vec<Table1Row> {
    crate::sweep::map(&PaperGraph::all(), |_, &pg| {
        let g = super::suite_graph(pg, scale);
        Table1Row {
            name: pg.name(),
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            max_degree: g.max_degree(),
            colors: crate::workload_cache::table1_colors(pg, scale),
            levels: crate::workload_cache::table1_levels(pg, scale),
            paper: paper_row(pg),
        }
    })
}

/// Render measured-vs-paper as a fixed-width table.
pub fn render(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>9} {:>10} {:>6} {:>7} {:>7}   | paper: {:>9} {:>10} {:>6} {:>7} {:>7}\n",
        "Name", "|V|", "|E|", "Δ", "#Color", "#Level", "|V|", "|E|", "Δ", "#Color", "#Level"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<10} {:>9} {:>10} {:>6} {:>7} {:>7}   |        {:>9} {:>10} {:>6} {:>7} {:>7}\n",
            r.name,
            r.vertices,
            r.edges,
            r.max_degree,
            r.colors,
            r.levels,
            r.paper.vertices,
            r.paper.edges,
            r.paper.max_degree,
            r.paper.colors,
            r.paper.levels,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scale_rows_are_plausible() {
        let rows = table1(Scale::Fraction(64));
        assert_eq!(rows.len(), 7);
        for r in &rows {
            assert_eq!(r.vertices, r.paper.vertices / 64);
            assert!(r.edges > 0);
            assert!(
                r.colors >= 2 && (r.colors as usize) <= r.max_degree + 1,
                "{}",
                r.name
            );
            assert!(r.levels >= 2, "{}", r.name);
        }
        // The sweep rows equal a serial loop over freshly built graphs.
        for (r, pg) in rows.iter().zip(PaperGraph::all()) {
            let g = mic_graph::suite::build(pg, Scale::Fraction(64));
            let levels = mic_bfs::seq::bfs(&g, mic_bfs::seq::table1_source(&g)).num_levels;
            let serial = Table1Row {
                name: pg.name(),
                vertices: g.num_vertices(),
                edges: g.num_edges(),
                max_degree: g.max_degree(),
                colors: mic_coloring::seq::greedy_color(&g).num_colors,
                levels,
                paper: paper_row(pg),
            };
            assert_eq!(*r, serial, "{}", pg.name());
        }
        let txt = render(&rows);
        assert!(txt.contains("pwtk") && txt.contains("ldoor"));
    }

    #[test]
    fn pwtk_has_the_deepest_levels_relative_to_size() {
        // pwtk is the paper's outlier: by far the most levels per vertex.
        let rows = table1(Scale::Fraction(64));
        let ratio = |r: &Table1Row| r.levels as f64 / (r.vertices as f64).cbrt();
        let pwtk = rows.iter().find(|r| r.name == "pwtk").unwrap();
        for r in rows.iter().filter(|r| r.name != "pwtk") {
            assert!(
                ratio(pwtk) > ratio(r),
                "pwtk level ratio {} should exceed {} ({})",
                ratio(pwtk),
                ratio(r),
                r.name
            );
        }
    }
}
