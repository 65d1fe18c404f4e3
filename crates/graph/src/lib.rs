//! Compressed sparse row graphs, generators, orderings, statistics and I/O.
//!
//! This crate is the data substrate for the reproduction of *"An Early
//! Evaluation of the Scalability of Graph Algorithms on the Intel MIC
//! Architecture"* (Saule & Çatalyürek, IPDPS Workshops 2012). It provides:
//!
//! - [`Csr`], an undirected simple graph in compressed sparse row form with
//!   `u32` vertex identifiers (the paper's graphs all fit comfortably);
//! - [`GraphBuilder`], an edge-accumulating builder that
//!   deduplicates, symmetrizes and sorts adjacency lists;
//! - [`generators`], synthetic graph families (stencil grids, random
//!   geometric graphs, Erdős–Rényi, RMAT, paths/stars/trees) used both for
//!   tests and for the calibrated stand-ins for the paper's seven
//!   University-of-Florida matrices;
//! - [`suite`], the calibrated seven-graph suite mirroring Table I of the
//!   paper;
//! - [`ordering`], vertex reorderings (natural, random shuffle, BFS
//!   /Cuthill–McKee, degree) — Figure 2 of the paper is driven by the random
//!   shuffle;
//! - [`stats`], degree and *locality* statistics; the locality profile feeds
//!   the machine simulator's memory model;
//! - [`io`], Matrix Market and binary CSR readers/writers and an edge-list
//!   reader.

pub(crate) mod builder;
pub(crate) mod csr;
pub mod generators;
pub mod io;
pub mod ordering;
pub mod stats;
pub mod suite;

pub use builder::GraphBuilder;
pub use csr::{Csr, VertexId};
pub use ordering::Ordering;
