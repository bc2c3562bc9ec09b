//! The greedy string graph.
//!
//! "Our approach of building the graph is greedy, so each vertex will have
//! at most one incoming edge and at most one outgoing edge. We maintain a
//! bit-vector to store the out-degree information of all vertices. Upon
//! receiving a request to add a candidate edge (u, v, l), we check the
//! bit-vector to find out if either the vertex u or v′ (WC complement of v)
//! has an outgoing edge, and if so, discards the edge. If both vertices
//! have no outgoing edge, we add edges (u, v, l) and (v′, u′, l) to the
//! graph and update the bit-vector." — Section III-C.
//!
//! Because every edge is inserted together with its complement, a vertex's
//! in-degree equals its complement's out-degree, so the single out-degree
//! bit-vector bounds both.
//!
//! The graph lives in *host* memory (the paper: a human-genome graph is
//! ~12 GB, beyond any device), stored as a flat `(target, overlap)` table:
//! 4 + 1 bytes per vertex, the same footprint arithmetic as the paper's.

use genome::readset::VertexId;
use stdx::bytes::{put_u32, put_u64, Cursor};

/// A directed overlap edge `(from, to, overlap)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source vertex.
    pub from: VertexId,
    /// Target vertex.
    pub to: VertexId,
    /// Overlap length in bases.
    pub overlap: u32,
}

/// Why a candidate edge was not inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// `u` already has an outgoing edge.
    SourceBusy,
    /// `v′` already has an outgoing edge (so `v` has an incoming one).
    TargetBusy,
    /// Self-loop (`v == u`) or fold-back (`v == u′`).
    Degenerate,
}

/// Greedy string graph with ≤1 in/out edge per vertex.
#[derive(Debug, Clone)]
pub struct StringGraph {
    /// Per-vertex outgoing edge: target and overlap. `u32::MAX` = none.
    out_target: Vec<u32>,
    out_overlap: Vec<u32>,
    /// Out-degree bit-vector (the structure the paper ships between nodes
    /// in the distributed reduce).
    out_bits: Vec<u64>,
    edges: u64,
}

const NONE: u32 = u32::MAX;

impl StringGraph {
    /// An edgeless graph over `vertex_count` vertices (2 × reads).
    pub fn new(vertex_count: u32) -> Self {
        assert!(
            vertex_count.is_multiple_of(2),
            "vertices come in complement pairs"
        );
        StringGraph {
            out_target: vec![NONE; vertex_count as usize],
            out_overlap: vec![0; vertex_count as usize],
            out_bits: vec![0u64; (vertex_count as usize).div_ceil(64)],
            edges: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> u32 {
        self.out_target.len() as u32
    }

    /// Number of directed edges (complement pairs count as two).
    pub fn edge_count(&self) -> u64 {
        self.edges
    }

    /// `true` if `v` has an outgoing edge.
    pub fn has_out(&self, v: VertexId) -> bool {
        self.out_bits[(v / 64) as usize] >> (v % 64) & 1 == 1
    }

    /// `true` if `v` has an incoming edge (⟺ `v′` has an outgoing one).
    pub fn has_in(&self, v: VertexId) -> bool {
        self.has_out(v ^ 1)
    }

    /// The outgoing edge of `v`, if any.
    pub fn out(&self, v: VertexId) -> Option<Edge> {
        if self.has_out(v) {
            Some(Edge {
                from: v,
                to: self.out_target[v as usize],
                overlap: self.out_overlap[v as usize],
            })
        } else {
            None
        }
    }

    fn set_out(&mut self, v: VertexId, to: VertexId, overlap: u32) {
        self.out_target[v as usize] = to;
        self.out_overlap[v as usize] = overlap;
        self.out_bits[(v / 64) as usize] |= 1 << (v % 64);
    }

    /// Offer a candidate edge `(u, v, l)`. On acceptance both `(u, v, l)`
    /// and `(v′, u′, l)` are inserted and `Ok(())` is returned; otherwise
    /// the reason for rejection.
    pub fn try_add_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        overlap: u32,
    ) -> std::result::Result<(), Rejection> {
        if u == v || v == (u ^ 1) {
            return Err(Rejection::Degenerate);
        }
        if self.has_out(u) {
            return Err(Rejection::SourceBusy);
        }
        if self.has_out(v ^ 1) {
            return Err(Rejection::TargetBusy);
        }
        self.set_out(u, v, overlap);
        self.set_out(v ^ 1, u ^ 1, overlap);
        self.edges += 2;
        Ok(())
    }

    /// Iterate all edges.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.vertex_count()).filter_map(move |v| self.out(v))
    }

    /// Host bytes this graph occupies (the paper's 4 B vertex-id + 1 B
    /// overlap per edge slot, plus the bit-vector).
    pub fn memory_bytes(&self) -> u64 {
        self.out_target.len() as u64 * 5 + self.out_bits.len() as u64 * 8
    }

    /// A copy of the out-degree bit-vector (what the distributed reduce
    /// passes from node to node).
    pub fn out_bits(&self) -> Vec<u64> {
        self.out_bits.clone()
    }

    /// Adopt a bit-vector received from the upstream node (distributed
    /// reduce): vertices marked there are treated as already having an
    /// outgoing edge even though the edge itself lives on another node.
    pub fn merge_out_bits(&mut self, bits: &[u64]) {
        assert_eq!(
            bits.len(),
            self.out_bits.len(),
            "bit-vector length mismatch"
        );
        for (mine, theirs) in self.out_bits.iter_mut().zip(bits) {
            *mine |= theirs;
        }
    }

    /// Check the structural invariants (used by tests and debug builds):
    /// every edge has its complement with the same overlap, and in/out
    /// degrees never exceed one (guaranteed by representation).
    pub fn check_invariants(&self) -> std::result::Result<(), String> {
        for v in 0..self.vertex_count() {
            if let Some(e) = self.out(v) {
                let mirror = self
                    .out(e.to ^ 1)
                    .ok_or_else(|| format!("edge {v}->{} lacks complement", e.to))?;
                if mirror.to != v ^ 1 || mirror.overlap != e.overlap {
                    return Err(format!(
                        "complement of {v}->{} is {}->{} (overlap {} vs {})",
                        e.to,
                        e.to ^ 1,
                        mirror.to,
                        e.overlap,
                        mirror.overlap
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_edge_inserts_complement_pair() {
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 5).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert_eq!(
            g.out(0),
            Some(Edge {
                from: 0,
                to: 2,
                overlap: 5
            })
        );
        assert_eq!(
            g.out(3),
            Some(Edge {
                from: 3,
                to: 1,
                overlap: 5
            })
        );
        assert!(g.has_in(2));
        assert!(g.has_in(1));
        g.check_invariants().unwrap();
    }

    #[test]
    fn busy_source_and_target_are_rejected() {
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 5).unwrap();
        // 0 already has an out-edge.
        assert_eq!(g.try_add_edge(0, 4, 3), Err(Rejection::SourceBusy));
        // 2 already has an in-edge (3 = 2' has an out-edge).
        assert_eq!(g.try_add_edge(4, 2, 3), Err(Rejection::TargetBusy));
        // But 4 -> 6 is free.
        g.try_add_edge(4, 6, 3).unwrap();
        assert_eq!(g.edge_count(), 4);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degenerate_edges_are_rejected() {
        let mut g = StringGraph::new(4);
        assert_eq!(g.try_add_edge(0, 0, 3), Err(Rejection::Degenerate));
        assert_eq!(g.try_add_edge(0, 1, 3), Err(Rejection::Degenerate));
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn greedy_priority_goes_to_first_offer() {
        // Reduce processes partitions in descending overlap order, so the
        // first offer has the longest overlap and must win.
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 90).unwrap();
        assert!(g.try_add_edge(0, 4, 50).is_err());
        assert_eq!(g.out(0).unwrap().overlap, 90);
    }

    #[test]
    fn bit_vector_roundtrip_and_merge() {
        let mut g = StringGraph::new(128);
        g.try_add_edge(0, 64, 9).unwrap();
        let bits = g.out_bits();
        let mut g2 = StringGraph::new(128);
        g2.merge_out_bits(&bits);
        // 0 and 65 are marked busy even though g2 has no local edges.
        assert!(g2.has_out(0));
        assert!(g2.has_out(65));
        assert_eq!(g2.try_add_edge(0, 2, 5), Err(Rejection::SourceBusy));
        assert_eq!(g2.try_add_edge(2, 64, 5), Err(Rejection::TargetBusy));
    }

    #[test]
    fn memory_estimate_matches_paper_arithmetic() {
        // 2.5 B edges × (4 B + 1 B) ≈ 12 GB (paper Section III-C). Our per-
        // vertex table is the same 5 bytes per potential edge slot.
        let g = StringGraph::new(1024);
        assert_eq!(g.memory_bytes(), 1024 * 5 + (1024 / 64) * 8);
    }

    #[test]
    fn edges_iterator_covers_both_directions() {
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 5).unwrap();
        g.try_add_edge(2, 4, 4).unwrap();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "complement pairs")]
    fn odd_vertex_count_panics() {
        StringGraph::new(7);
    }
}

impl StringGraph {
    /// Serialize to a compact byte image (magic, vertex count, per-vertex
    /// target + overlap, out-bits) — the checkpoint format of the
    /// pipeline's resume support.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.out_target.len();
        let mut out = Vec::with_capacity(16 + n * 8 + self.out_bits.len() * 8);
        out.extend_from_slice(b"LSGR");
        put_u32(&mut out, n as u32);
        put_u64(&mut out, self.edges);
        for (&target, &overlap) in self.out_target.iter().zip(&self.out_overlap) {
            put_u32(&mut out, target);
            put_u32(&mut out, overlap);
        }
        for &w in &self.out_bits {
            put_u64(&mut out, w);
        }
        out
    }

    /// Reconstruct from [`StringGraph::to_bytes`] output, the checkpoint
    /// `graph.bin`. The vertex count is checked against the bytes that
    /// follow before the graph is allocated; any failure is a
    /// [`gstream::StreamError::Corrupt`] naming `graph.bin`.
    pub fn from_bytes(bytes: &[u8]) -> gstream::Result<Self> {
        let mut c = Cursor::new(bytes, "graph.bin");
        if c.take(4, "graph magic")? != b"LSGR" {
            return Err(c.corrupt("graph magic", "not LSGR").into());
        }
        let n = c.u32("vertex count")?;
        if n % 2 != 0 {
            return Err(c.corrupt("vertex count", format!("{n} is odd")).into());
        }
        let edges = c.u64("edge count")?;
        // 8 bytes of edge table a vertex, then its out-bit.
        c.count(n.into(), 8, "vertex count")?;
        let mut g = StringGraph::new(n);
        for i in 0..n as usize {
            g.out_target[i] = c.u32("out target")?;
            g.out_overlap[i] = c.u32("out overlap")?;
        }
        for w in g.out_bits.iter_mut() {
            *w = c.u64("out bits")?;
        }
        c.finish()?;
        g.edges = edges;
        Ok(g)
    }
}

#[cfg(test)]
mod byte_image_tests {
    use super::*;

    #[test]
    fn graph_roundtrips_through_bytes() {
        let mut g = StringGraph::new(64);
        g.try_add_edge(0, 2, 9).unwrap();
        g.try_add_edge(2, 62, 7).unwrap();
        let bytes = g.to_bytes();
        let back = StringGraph::from_bytes(&bytes).unwrap();
        assert_eq!(back.edge_count(), g.edge_count());
        for v in 0..g.vertex_count() {
            assert_eq!(back.out(v), g.out(v), "vertex {v}");
        }
        back.check_invariants().unwrap();
    }

    #[test]
    fn corrupt_images_are_rejected() {
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 3).unwrap();
        let bytes = g.to_bytes();
        assert!(StringGraph::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(StringGraph::from_bytes(b"NOPE").is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(StringGraph::from_bytes(&extra).is_err());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = StringGraph::new(0);
        let back = StringGraph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back.vertex_count(), 0);
        assert_eq!(back.edge_count(), 0);
    }
}
