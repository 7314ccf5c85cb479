//! Core identifiers, errors, and fixed-size record codecs shared by every
//! crate in the GraphZ workspace.
//!
//! GraphZ (Zhou & Hoffmann, ICDE 2018) is an out-of-core graph analytics
//! engine. Everything that crosses the memory/disk boundary in this workspace
//! — edges, vertex values, messages, index entries — is a *fixed-size* record
//! encoded through the [`FixedCodec`] trait defined here, which keeps the
//! storage formats simple, seekable, and byte-order stable.

#![forbid(unsafe_code)]

pub mod cast;
pub mod codec;
pub mod config;
pub mod error;

pub use codec::FixedCodec;
pub use config::{EngineOptions, EngineOptionsBuilder, MemoryBudget};
pub use error::{GraphError, IoContext, IoCtx, Result};

/// One-line import of the names nearly every GraphZ crate needs.
///
/// `use graphz_types::prelude::*;` replaces the multi-line `use` stanzas
/// that used to open each module: the core identifier aliases, the budget and
/// options types, the workspace `Result`/error types, the record codec trait,
/// and the checked-arithmetic funnel ([`cast`], both as a module and its
/// helpers). Everything here is re-exported verbatim, so mixing the prelude
/// with explicit `graphz_types::` paths is always equivalent.
pub mod prelude {
    pub use crate::cast;
    pub use crate::cast::*;
    pub use crate::codec::FixedCodec;
    pub use crate::config::{EngineOptions, EngineOptionsBuilder, MemoryBudget};
    pub use crate::error::{GraphError, IoContext, IoCtx, Result};
    pub use crate::{derive_weight, Degree, Edge, GraphMeta, VertexId, Weight};
}

/// A vertex identifier.
///
/// `u32` supports up to ~4.29 billion vertices, which covers every graph in
/// the paper's evaluation (the largest, YahooWeb, has 1.4B vertices) while
/// halving edge-file size compared to `u64` — exactly the trade the original
/// C++ implementation makes.
pub type VertexId = u32;

/// An out-degree. Bounded by the vertex count, so `u32` suffices.
pub type Degree = u32;

/// An edge weight, used by SSSP and Belief Propagation. Weights are *derived*
/// (hashed from the endpoint pair) rather than stored, so every engine sees
/// identical weights without paying for them in the edge files.
pub type Weight = f32;

/// A directed edge. The on-disk record layout is two little-endian `u32`s
/// (8 bytes), identical to the paper's "1B for each" scaled to `u32` ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    pub src: VertexId,
    pub dst: VertexId,
}

impl Edge {
    #[inline]
    pub fn new(src: VertexId, dst: VertexId) -> Self {
        Edge { src, dst }
    }

    /// The deterministic weight of this edge, in `[1.0, 2.0)`.
    ///
    /// All engines (GraphZ, GraphChi, X-Stream, and the in-memory reference)
    /// call this same function, so weighted algorithms are comparable without
    /// any engine having to persist edge payloads it does not need.
    #[inline]
    pub fn weight(&self) -> Weight {
        derive_weight(self.src, self.dst)
    }
}

/// Deterministic per-edge weight in `[1.0, 2.0)` from a split-mix style hash
/// of the endpoints.
#[inline]
pub fn derive_weight(src: VertexId, dst: VertexId) -> Weight {
    let mut x = ((src as u64) << 32) | dst as u64;
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    1.0 + (x >> 40) as f32 / (1u64 << 24) as f32
}

/// Summary statistics of a stored graph, persisted alongside every on-disk
/// format so consumers never need to re-scan edge files for counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphMeta {
    /// Number of vertices (ids are `0..num_vertices`).
    pub num_vertices: u64,
    /// Number of directed edges.
    pub num_edges: u64,
    /// Number of distinct out-degrees (drives the DOS index size).
    pub unique_degrees: u64,
    /// Largest out-degree in the graph.
    pub max_degree: u64,
}

impl GraphMeta {
    /// Bytes needed to store the raw edge list (two `u32`s per edge).
    pub fn edge_bytes(&self) -> u64 {
        self.num_edges * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_weight_is_deterministic_and_in_range() {
        for s in 0..100u32 {
            for d in 0..20u32 {
                let e = Edge::new(s, d);
                let w = e.weight();
                assert_eq!(w, Edge::new(s, d).weight());
                assert!((1.0..2.0).contains(&w), "weight {w} out of range");
            }
        }
    }

    #[test]
    fn edge_weight_is_not_constant() {
        let w0 = derive_weight(1, 2);
        let w1 = derive_weight(2, 1);
        assert_ne!(w0, w1);
    }

    #[test]
    fn graph_meta_edge_bytes() {
        let m = GraphMeta { num_vertices: 10, num_edges: 7, unique_degrees: 3, max_degree: 4 };
        assert_eq!(m.edge_bytes(), 56);
    }
}
