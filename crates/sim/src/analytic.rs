//! The paper's analytic performance model for layered BFS (§III-C).
//!
//! The computation is `L` synchronized steps, one per BFS level, with `x_l`
//! vertices in level `l`, executed by `t` threads in blocks of `b`
//! vertices. Under the paper's five idealizing assumptions (uniform vertex
//! cost, no cache effects, independent threads, no scheduling or
//! synchronization overhead) the time of level `l` is
//!
//! ```text
//! c(l) = x_l                      if x_l <  b
//! c(l) = ceil(x_l / (t b)) * b    otherwise
//! ```
//!
//! and the achievable speedup is `Σ x_l / Σ c(l)`.
//!
//! The model is an *upper bound* on the parallelism the algorithm exposes;
//! the paper's headline BFS result is that its block-queue implementation
//! tracks this bound up to roughly the core count.

/// The analytic model: block size and the level-width profile.
#[derive(Clone, Debug)]
pub struct BfsModel {
    /// Block size `b` (the paper uses the empirically best, 32).
    pub block: usize,
    /// `x_l`: number of vertices in each BFS level (level 0 = source).
    pub level_widths: Vec<usize>,
}

impl BfsModel {
    /// Model with the paper's block size of 32.
    pub fn paper(level_widths: Vec<usize>) -> Self {
        BfsModel {
            block: 32,
            level_widths,
        }
    }

    /// `c(l)` for a given level width and thread count.
    pub(crate) fn level_cost(&self, x: usize, threads: usize) -> f64 {
        let b = self.block as f64;
        let x_f = x as f64;
        if x < self.block {
            x_f
        } else {
            (x_f / (threads as f64 * b)).ceil() * b
        }
    }

    /// Modeled speedup on `t` threads: `Σ x_l / Σ c(l)`.
    pub fn speedup(&self, threads: usize) -> f64 {
        assert!(threads >= 1);
        let total: f64 = self.level_widths.iter().map(|&x| x as f64).sum();
        if total == 0.0 {
            return 1.0;
        }
        let cost: f64 = self
            .level_widths
            .iter()
            .map(|&x| self.level_cost(x, threads))
            .sum();
        total / cost
    }
}

/// Convenience: modeled speedup for a level profile with the paper's block
/// size of 32.
pub fn bfs_model_speedup(level_widths: &[usize], threads: usize) -> f64 {
    BfsModel::paper(level_widths.to_vec()).speedup(threads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_speedup_is_one_for_wide_multiple_levels() {
        // Levels that are exact multiples of b: c(l) = x_l at t = 1.
        let m = BfsModel {
            block: 32,
            level_widths: vec![64, 128, 320],
        };
        assert!((m.speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_has_no_parallelism() {
        // The paper's extreme case: a long chain, one vertex per level.
        let m = BfsModel::paper(vec![1; 10_000]);
        assert!((m.speedup(121) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_levels_scale_linearly_then_flatten() {
        // Width 816 ≈ pwtk's average level (217918 vertices / 267 levels):
        // the paper notes its speedup slope changes dramatically at 13
        // threads. ceil(816 / (t*32)) drops from 3 to 2 at t=13 (jump),
        // then stays 2 through t=25 (plateau), then 1 from t=26.
        let m = BfsModel::paper(vec![816; 267]);
        let s12 = m.speedup(12);
        let s13 = m.speedup(13);
        let s20 = m.speedup(20);
        let s25 = m.speedup(25);
        let s26 = m.speedup(26);
        assert!((s12 - 816.0 / 96.0).abs() < 1e-9, "s12 = {s12}");
        assert!((s13 - 816.0 / 64.0).abs() < 1e-9, "jump at 13: {s13}");
        assert!(
            (s20 - s13).abs() < 1e-9 && (s25 - s13).abs() < 1e-9,
            "plateau 13..=25"
        );
        assert!(
            (s26 - 816.0 / 32.0).abs() < 1e-9,
            "one round suffices from 26: {s26}"
        );
    }

    #[test]
    fn speedup_monotone_nondecreasing_in_threads() {
        let m = BfsModel::paper(vec![5, 100, 2000, 900, 37, 3]);
        let mut prev = 0.0;
        for t in 1..=130 {
            let s = m.speedup(t);
            assert!(s + 1e-9 >= prev, "not monotone at t={t}");
            prev = s;
        }
    }

    #[test]
    fn narrow_levels_execute_serially() {
        let m = BfsModel {
            block: 32,
            level_widths: vec![10, 20, 31],
        };
        // All below the block size: c(l) = x_l regardless of threads.
        assert!((m.speedup(121) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convenience_fn_agrees() {
        let widths = vec![64, 640, 64];
        let m = BfsModel::paper(widths.clone());
        assert_eq!(m.speedup(8), bfs_model_speedup(&widths, 8));
    }

    #[test]
    fn empty_profile() {
        assert_eq!(bfs_model_speedup(&[], 4), 1.0);
    }
}
