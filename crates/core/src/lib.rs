//! Facade and experiment harness for the reproduction of *"An Early
//! Evaluation of the Scalability of Graph Algorithms on the Intel MIC
//! Architecture"* (Saule & Çatalyürek, IPDPS Workshops 2012).
//!
//! The underlying crates are re-exported under short names:
//!
//! - [`graph`] — CSR graphs, generators, the calibrated Table I suite;
//! - [`runtime`] — the OpenMP / Cilk Plus / TBB scheduling models and the
//!   paper's block-accessed queue;
//! - [`sim`] — the KNF-like machine simulator and the analytic BFS model;
//! - [`coloring`], [`bfs`], [`irregular`] — the three kernels.
//!
//! [`experiments`] regenerates every table and figure of the paper:
//!
//! | Exhibit | Function |
//! |---|---|
//! | Table I | [`experiments::table1::table1`] |
//! | Figure 1a/b/c | [`experiments::fig1::fig1`] |
//! | Figure 2 | [`experiments::fig2::fig2`] |
//! | Figure 3a/b/c | [`experiments::fig3::fig3`] |
//! | Figure 4a/b/c/d | [`experiments::fig4::fig4`] |
//! | ablations | [`experiments::ablation`] |
//!
//! Each returns a [`series::Figure`] whose rows print as an ASCII table or
//! CSV; [`exhibit`] registers each one and `mic-bench`'s `all` binary
//! renders them (`all --only <id|group>` for a selection). Experiments
//! take a [`graph::suite::Scale`] so tests can run them on miniatures;
//! the reported numbers in EXPERIMENTS.md use `Scale::Full`.
//!
//! Quick example (the simulated Figure 2 on a tiny suite):
//!
//! ```
//! use mic_eval::experiments::fig2::fig2;
//! use mic_eval::graph::suite::Scale;
//! let fig = fig2(Scale::Fraction(256));
//! assert_eq!(fig.series.len(), 3); // OpenMP, TBB, CilkPlus
//! println!("{}", fig.to_ascii());
//! ```

pub use mic_bfs as bfs;
pub use mic_coloring as coloring;
pub use mic_graph as graph;
pub use mic_irregular as irregular;
pub use mic_obs as obs;
pub use mic_runtime as runtime;
pub use mic_sim as sim;
pub use mic_store as store;

pub mod buildinfo;
pub mod config;
pub mod env;
pub mod exhibit;
pub mod experiments;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod native;
pub mod series;
pub mod stats;
pub mod sweep;
pub mod trace;
pub mod workload_cache;

pub use series::Figure;
