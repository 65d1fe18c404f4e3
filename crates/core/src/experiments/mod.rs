//! Drivers regenerating every table and figure of the paper.
//!
//! All drivers take a [`mic_graph::suite::Scale`]: `Scale::Full` for the
//! paper-sized runs recorded in EXPERIMENTS.md, a fraction for smoke tests.
//! Scalability curves come from the `mic-sim` machine model fed with
//! instrumented runs of the real kernels (see DESIGN.md for the
//! substitution argument); the kernels themselves run natively in the test
//! suite for correctness.

pub mod ablation;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod scale_free;
pub mod table1;

use mic_graph::suite::{PaperGraph, Scale};
use mic_graph::Csr;
use std::sync::Arc;

/// One suite graph, shared from the process-wide [`crate::workload_cache`]
/// (which also reads it back from the `MIC_STORE` tier if set),
/// so regenerating many figures builds each graph once.
pub(crate) fn suite_graph(g: PaperGraph, scale: Scale) -> Arc<Csr> {
    crate::workload_cache::graph(g, scale, crate::workload_cache::OrderTag::Natural)
}
