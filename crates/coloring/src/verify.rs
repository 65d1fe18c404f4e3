//! Coloring validity checks.

use crate::UNCOLORED;
use mic_graph::{Csr, VertexId};

/// Error describing why a coloring is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColoringError {
    /// A vertex was never assigned a color.
    Uncolored(VertexId),
    /// Two adjacent vertices share a color.
    Conflict(VertexId, VertexId),
}

impl std::fmt::Display for ColoringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColoringError::Uncolored(v) => write!(f, "vertex {v} is uncolored"),
            ColoringError::Conflict(u, v) => {
                write!(f, "adjacent vertices {u} and {v} share a color")
            }
        }
    }
}

impl std::error::Error for ColoringError {}

/// Check that `colors` is a proper (distance-1) coloring of `g`.
pub fn check_proper(g: &Csr, colors: &[u32]) -> Result<(), ColoringError> {
    assert_eq!(colors.len(), g.num_vertices());
    for v in g.vertices() {
        if colors[v as usize] == UNCOLORED {
            return Err(ColoringError::Uncolored(v));
        }
        for &w in g.neighbors(v) {
            if v < w && colors[v as usize] == colors[w as usize] {
                return Err(ColoringError::Conflict(v, w));
            }
        }
    }
    Ok(())
}

/// Number of distinct colors used (max + 1 over colored vertices).
pub(crate) fn num_colors_used(colors: &[u32]) -> u32 {
    colors
        .iter()
        .copied()
        .filter(|&c| c != UNCOLORED)
        .max()
        .map_or(0, |c| c + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mic_graph::generators::path;

    #[test]
    fn accepts_proper() {
        let g = path(4);
        assert!(check_proper(&g, &[0, 1, 0, 1]).is_ok());
    }

    #[test]
    fn rejects_conflict() {
        let g = path(3);
        assert_eq!(
            check_proper(&g, &[0, 0, 1]),
            Err(ColoringError::Conflict(0, 1))
        );
    }

    #[test]
    fn rejects_uncolored() {
        let g = path(2);
        assert_eq!(
            check_proper(&g, &[0, UNCOLORED]),
            Err(ColoringError::Uncolored(1))
        );
    }

    #[test]
    fn counts_colors() {
        assert_eq!(num_colors_used(&[0, 3, 1]), 4);
        assert_eq!(num_colors_used(&[]), 0);
        assert_eq!(num_colors_used(&[UNCOLORED]), 0);
    }
}
