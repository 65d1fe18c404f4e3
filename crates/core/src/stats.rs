//! Aggregation helpers: the paper's speedup methodology.
//!
//! "Speedup value on multiple graphs are geometric mean of the speedup of
//! each graph, which is computed using as baseline the configuration that
//! performs the fastest on 1 thread for that graph."

/// Geometric mean of positive, finite values (1.0 for an empty slice).
///
/// Any other value panics with the value: a NaN, infinite or
/// non-positive speedup is a bug upstream, and skipping it would quietly
/// drop a graph from the suite's mean.
pub(crate) fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let mut log_sum = 0.0f64;
    for &v in values {
        assert!(
            v.is_finite() && v > 0.0,
            "geomean requires positive finite values, got {v}"
        );
        log_sum += v.ln();
    }
    (log_sum / values.len() as f64).exp()
}

/// Per-graph execution costs of several configurations over a thread grid.
/// `cycles[config][graph][ti]` → speedups per config:
/// `geomean_g( baseline_g / cycles[config][g][ti] )` where `baseline_g` is
/// the fastest 1-thread cost across configs for that graph.
pub(crate) fn paper_speedups(cycles: &[Vec<Vec<f64>>]) -> Vec<Vec<f64>> {
    assert!(!cycles.is_empty());
    let n_graphs = cycles[0].len();
    let n_t = cycles[0][0].len();
    for c in cycles {
        assert_eq!(c.len(), n_graphs, "inconsistent graph counts");
        assert!(c.iter().all(|g| g.len() == n_t), "inconsistent grids");
    }
    // Fastest 1-thread configuration per graph.
    let baselines: Vec<f64> = (0..n_graphs)
        .map(|g| cycles.iter().map(|c| c[g][0]).fold(f64::INFINITY, f64::min))
        .collect();
    cycles
        .iter()
        .map(|c| {
            (0..n_t)
                .map(|ti| {
                    let per_graph: Vec<f64> =
                        (0..n_graphs).map(|g| baselines[g] / c[g][ti]).collect();
                    geomean(&per_graph)
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_nonpositive() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "got NaN")]
    fn geomean_rejects_nan() {
        geomean(&[4.0, f64::NAN, 9.0]);
    }

    #[test]
    #[should_panic(expected = "got inf")]
    fn geomean_rejects_infinity() {
        geomean(&[f64::INFINITY, 5.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_negative() {
        geomean(&[2.0, -3.0]);
    }

    #[test]
    fn geomean_extreme_magnitudes_stay_finite() {
        // Log-domain accumulation: the product 1e300 * 1e-300 overflows /
        // underflows in linear space but the mean is exactly 1.
        assert!((geomean(&[1e300, 1e-300]) - 1.0).abs() < 1e-9);
        // Many large values whose product overflows f64.
        let big = [1e308; 8];
        let g = geomean(&big);
        assert!(g.is_finite() && (g / 1e308 - 1.0).abs() < 1e-9);
        // Tiny but positive values stay positive, never rounding to 0 NaNs.
        let tiny = [f64::MIN_POSITIVE; 4];
        assert!(geomean(&tiny) > 0.0);
    }

    #[test]
    fn geomean_is_scale_invariant_and_order_free() {
        let xs = [3.0, 7.0, 11.0, 0.5];
        let scaled: Vec<f64> = xs.iter().map(|v| v * 10.0).collect();
        assert!((geomean(&scaled) / geomean(&xs) - 10.0).abs() < 1e-12);
        let mut rev = xs;
        rev.reverse();
        assert!((geomean(&rev) - geomean(&xs)).abs() < 1e-12);
    }

    #[test]
    fn geomean_of_empty_is_one() {
        // The neutral element: a series over no graphs is flat.
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    #[should_panic(expected = "got NaN")]
    fn speedups_reject_a_nan_point() {
        // Graph 1's t=2 cost is NaN: the series panics instead of
        // averaging over the surviving graph alone.
        let c = vec![vec![100.0, 25.0], vec![90.0, f64::NAN]];
        paper_speedups(&[c]);
    }

    #[test]
    fn speedups_use_fastest_single_thread_baseline() {
        // Two configs, one graph, grid {1, 2}: config B is slower at t=1,
        // so its speedup there is below 1 relative to A's baseline.
        let a = vec![vec![100.0, 50.0]];
        let b = vec![vec![200.0, 40.0]];
        let s = paper_speedups(&[a, b]);
        assert!((s[0][0] - 1.0).abs() < 1e-12);
        assert!((s[0][1] - 2.0).abs() < 1e-12);
        assert!((s[1][0] - 0.5).abs() < 1e-12);
        assert!((s[1][1] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn speedups_geomean_across_graphs() {
        // One config, two graphs with speedups 4 and 9 at t=2.
        let c = vec![vec![100.0, 25.0], vec![90.0, 10.0]];
        let s = paper_speedups(&[c]);
        assert!((s[0][1] - 6.0).abs() < 1e-12);
    }
}
