//! Exhibits beyond the paper: comparisons the extensions make possible.
//! These run the kernels *natively* (counting rounds/phases — machine-
//! independent quantities), unlike the figure drivers which simulate
//! timing.

use crate::series::{Figure, Series};
use crate::sweep;
use mic_bfs::sssp::{delta_stepping, dijkstra};
use mic_coloring::balance::{class_balance, rebalance};
use mic_coloring::dsatur::dsatur;
use mic_coloring::iterated::iterated_greedy;
use mic_coloring::jones_plassmann::jones_plassmann;
use mic_coloring::parallel::iterative_coloring_traced;
use mic_coloring::seq::greedy_color;
use mic_graph::suite::{PaperGraph, Scale};
use mic_graph::weights::EdgeWeights;
use mic_runtime::{RuntimeModel, Schedule, ThreadPool};

/// Jones–Plassmann vs speculative coloring: rounds and colors per suite
/// graph (JP needs many more rounds; speculation needs conflict repair but
/// converges in 2–3). X-axis = graph index in Table I order.
pub fn jp_vs_speculation(scale: Scale, threads: usize) -> Figure {
    let model = RuntimeModel::OpenMp(Schedule::dynamic100());
    let graphs = super::suite(scale);
    let mut fig = Figure::new(
        format!("Extras: JP vs speculative coloring ({threads} native threads)"),
        (0..graphs.len()).collect(),
    );
    fig.xlabel = "graph (Table I order)".into();
    fig.ylabel = "rounds / colors".into();
    // One sweep job per graph; each drives the native kernels on its own
    // `threads`-wide pool (cross-pool nesting is supported by the runtime).
    let rows: Vec<[f64; 5]> = sweep::map(&graphs, |_, (_, g)| {
        let pool = ThreadPool::new(threads);
        let (spec, _) = iterative_coloring_traced(&pool, g, model);
        let jp = jones_plassmann(&pool, g, model, 42);
        [
            spec.rounds as f64,
            jp.rounds as f64,
            spec.num_colors as f64,
            jp.num_colors as f64,
            greedy_color(g).num_colors as f64,
        ]
    });
    let col = |i: usize| -> Vec<f64> { rows.iter().map(|r| r[i]).collect() };
    fig.push(Series::new("speculative rounds", col(0)));
    fig.push(Series::new("JP rounds", col(1)));
    fig.push(Series::new("speculative colors", col(2)));
    fig.push(Series::new("JP colors", col(3)));
    fig.push(Series::new("greedy colors", col(4)));
    fig
}

/// Δ-stepping phase counts across the Δ sweep on one suite graph with
/// random weights: the classic U-shape (tiny Δ ⇒ Dijkstra-many buckets,
/// huge Δ ⇒ Bellman–Ford-many light rounds).
pub fn delta_sweep(scale: Scale, threads: usize) -> Figure {
    let g = super::suite_graph(PaperGraph::Hood, scale);
    let w = EdgeWeights::random_symmetric(&g, 0.05, 1.0, 7);
    let model = RuntimeModel::OpenMp(Schedule::dynamic100());
    let src = (g.num_vertices() / 2) as u32;
    let reference = dijkstra(&g, &w, src);
    // Δ multipliers of the mean weight, as integer per-mille for the axis.
    let multipliers = [50usize, 200, 1000, 5000, 20000, 100000];
    let mean_w: f64 = w.values().iter().sum::<f64>() / w.values().len() as f64;
    let phases: Vec<f64> = sweep::map(&multipliers, |_, &m| {
        let pool = ThreadPool::new(threads);
        let delta = mean_w * m as f64 / 1000.0;
        let r = delta_stepping(&pool, &g, &w, src, delta, model);
        // Cross-check correctness while we are here.
        debug_assert!(r
            .dist
            .iter()
            .zip(&reference.dist)
            .all(|(a, b)| (a.is_infinite() && b.is_infinite()) || (a - b).abs() < 1e-9));
        r.phases as f64
    });
    let _ = reference;
    let mut fig = Figure::new(
        format!("Extras: delta-stepping phases vs delta (hood, {threads} threads)"),
        multipliers.to_vec(),
    );
    fig.xlabel = "delta (per-mille of mean weight)".into();
    fig.ylabel = "phases".into();
    fig.push(Series::new("phases", phases));
    fig
}

/// Coloring-quality comparison across algorithms: colors used per suite
/// graph for First Fit, DSATUR, Jones–Plassmann, speculative-parallel, and
/// speculative + iterated greedy; plus the First-Fit class imbalance
/// before/after rebalancing.
pub fn coloring_quality(scale: Scale, threads: usize) -> Figure {
    let model = RuntimeModel::OpenMp(Schedule::dynamic100());
    let graphs = super::suite(scale);
    let mut fig = Figure::new(
        "Extras: coloring quality across algorithms",
        (0..graphs.len()).collect(),
    );
    fig.xlabel = "graph (Table I order)".into();
    fig.ylabel = "colors / imbalance".into();
    let rows: Vec<[f64; 7]> = sweep::map(&graphs, |_, (_, g)| {
        let pool = ThreadPool::new(threads);
        let mut c = greedy_color(g);
        let ff = c.num_colors as f64;
        let imb_before = class_balance(&c, g.num_vertices()).imbalance;
        let imb_after = rebalance(g, &mut c, 10).imbalance;
        let ds = dsatur(g).num_colors as f64;
        let jp = jones_plassmann(&pool, g, model, 42).num_colors as f64;
        let (sp, _) = iterative_coloring_traced(&pool, g, model);
        let improved = iterated_greedy(
            g,
            &mic_coloring::seq::Coloring {
                colors: sp.colors.clone(),
                num_colors: sp.num_colors,
            },
            6,
        );
        [
            ff,
            ds,
            jp,
            sp.num_colors as f64,
            improved.num_colors as f64,
            imb_before,
            imb_after,
        ]
    });
    let col = |i: usize| -> Vec<f64> { rows.iter().map(|r| r[i]).collect() };
    fig.push(Series::new("first-fit colors", col(0)));
    fig.push(Series::new("dsatur colors", col(1)));
    fig.push(Series::new("jones-plassmann colors", col(2)));
    fig.push(Series::new("speculative colors", col(3)));
    fig.push(Series::new("speculative+iterated colors", col(4)));
    fig.push(Series::new("FF imbalance before", col(5)));
    fig.push(Series::new("FF imbalance after", col(6)));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jp_needs_more_rounds_but_no_repair() {
        let fig = jp_vs_speculation(Scale::Fraction(128), 4);
        let spec = fig.get("speculative rounds").unwrap();
        let jp = fig.get("JP rounds").unwrap();
        for (s, j) in spec.y.iter().zip(&jp.y) {
            assert!(s <= &4.0, "speculation converges fast, got {s}");
            assert!(j > s, "JP rounds {j} should exceed speculative {s}");
        }
        // Color quality comparable across all three.
        let gc = fig.get("greedy colors").unwrap();
        let jc = fig.get("JP colors").unwrap();
        for (g, j) in gc.y.iter().zip(&jc.y) {
            assert!(*j <= g * 1.8 + 2.0, "JP colors {j} vs greedy {g}");
        }
    }

    #[test]
    fn quality_table_orders_sanely() {
        let fig = coloring_quality(Scale::Fraction(128), 4);
        let ds = fig.get("dsatur colors").unwrap();
        let ff = fig.get("first-fit colors").unwrap();
        let it = fig.get("speculative+iterated colors").unwrap();
        let sp = fig.get("speculative colors").unwrap();
        for i in 0..fig.x.len() {
            assert!(ds.y[i] <= ff.y[i] + 2.0, "DSATUR should be competitive");
            assert!(it.y[i] <= sp.y[i], "iterated never worsens speculation");
        }
        let before = fig.get("FF imbalance before").unwrap();
        let after = fig.get("FF imbalance after").unwrap();
        for (b, a) in before.y.iter().zip(&after.y) {
            assert!(a <= b, "rebalancing must not worsen imbalance");
        }
    }

    #[test]
    fn delta_sweep_is_u_shaped_at_extremes() {
        let fig = delta_sweep(Scale::Fraction(64), 4);
        let p = &fig.get("phases").unwrap().y;
        let min = p.iter().cloned().fold(f64::MAX, f64::min);
        // Both extremes cost more phases than the best middle value.
        assert!(p[0] > min, "tiny delta should pay: {p:?}");
        assert!(
            *p.last().unwrap() >= min,
            "huge delta should not win: {p:?}"
        );
    }
}
