//! Path extraction (first stage of Section III-D).
//!
//! "Traversal begins with vertices with in-degree 0 and out-degree 1 as
//! seeds. Next, from each seed, we continue to extend the path by appending
//! the read-ID and overhang-length of the current vertex ... and stop after
//! we encounter a vertex with no outgoing edge."
//!
//! Two practical matters the paper leaves implicit:
//!
//! * every path has a complementary mirror (the WC-paired edges guarantee
//!   it), which would spell every contig twice — we emit only the
//!   *canonical* orientation (smaller endpoint vertex id);
//! * a perfectly circular component has no seed; we break such cycles at
//!   their smallest vertex so no reads are silently dropped.

use crate::graph::StringGraph;
use genome::readset::VertexId;

/// One step of a path: a vertex and its overhang length (read length minus
/// the overlap with the next vertex; full read length for the last vertex).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The vertex (2·read + strand).
    pub vertex: VertexId,
    /// Bases this vertex contributes to the contig.
    pub overhang: u32,
}

/// An unambiguous path through the string graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Steps in traversal order.
    pub steps: Vec<PathStep>,
}

impl Path {
    /// Total contig length this path spells.
    pub fn contig_len(&self) -> u64 {
        self.steps.iter().map(|s| s.overhang as u64).sum()
    }
}

/// Options for path extraction.
#[derive(Debug, Clone, Copy)]
pub struct TraverseOptions {
    /// Emit reads with no overlaps as single-read paths.
    pub include_singletons: bool,
}

impl Default for TraverseOptions {
    fn default() -> Self {
        TraverseOptions {
            include_singletons: true,
        }
    }
}

fn walk(graph: &StringGraph, seed: VertexId, read_len: u32, visited: &mut [bool]) -> Path {
    let mut steps = Vec::new();
    let mut v = seed;
    loop {
        visited[v as usize] = true;
        visited[(v ^ 1) as usize] = true;
        match graph.out(v) {
            Some(e) if !visited[e.to as usize] => {
                steps.push(PathStep {
                    vertex: v,
                    overhang: read_len - e.overlap,
                });
                v = e.to;
            }
            _ => {
                // Last vertex contributes its whole read.
                steps.push(PathStep {
                    vertex: v,
                    overhang: read_len,
                });
                return Path { steps };
            }
        }
    }
}

/// Extract all paths from the graph. `read_len` is the uniform read length.
pub fn extract_paths(graph: &StringGraph, read_len: u32, opts: TraverseOptions) -> Vec<Path> {
    let n = graph.vertex_count();
    let mut visited = vec![false; n as usize];
    let mut paths = Vec::new();

    // Pass 1: proper seeds (in-degree 0, out-degree 1). The mirror of a
    // seed-to-sink path starts at the sink's complement, which is also a
    // seed; keep the orientation whose seed id is smaller.
    for v in 0..n {
        if visited[v as usize] || !graph.has_out(v) || graph.has_in(v) {
            continue;
        }
        // Find the sink to decide canonical orientation without committing.
        let mut end = v;
        let mut hops = 0u32;
        while let Some(e) = graph.out(end) {
            end = e.to;
            hops += 1;
            if hops > n {
                break; // defensive: cannot happen with degree ≤ 1
            }
        }
        let mirror_seed = end ^ 1;
        if v <= mirror_seed {
            paths.push(walk(graph, v, read_len, &mut visited));
        } else {
            // The mirror will be (or has been) emitted from its own seed;
            // just mark this orientation visited.
            let mut u = v;
            loop {
                visited[u as usize] = true;
                visited[(u ^ 1) as usize] = true;
                match graph.out(u) {
                    Some(e) if !visited[e.to as usize] => u = e.to,
                    _ => break,
                }
            }
        }
    }

    // Pass 2: cycles (every vertex has in and out). Break at the smallest
    // unvisited vertex.
    for v in 0..n {
        if !visited[v as usize] && graph.has_out(v) {
            paths.push(walk(graph, v, read_len, &mut visited));
        }
    }

    // Pass 3: singletons — forward orientation only.
    if opts.include_singletons {
        for v in (0..n).step_by(2) {
            if !visited[v as usize] && !graph.has_out(v) && !graph.has_in(v) {
                visited[v as usize] = true;
                visited[(v ^ 1) as usize] = true;
                paths.push(Path {
                    steps: vec![PathStep {
                        vertex: v,
                        overhang: read_len,
                    }],
                });
            }
        }
    }

    paths
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_graph(edges: &[(u32, u32, u32)], vertices: u32) -> StringGraph {
        let mut g = StringGraph::new(vertices);
        for &(u, v, l) in edges {
            g.try_add_edge(u, v, l).unwrap();
        }
        g
    }

    #[test]
    fn simple_chain_spells_one_path_with_overhangs() {
        // 0 -> 2 (overlap 7), 2 -> 4 (overlap 5); read length 10.
        let g = chain_graph(&[(0, 2, 7), (2, 4, 5)], 8);
        let paths = extract_paths(
            &g,
            10,
            TraverseOptions {
                include_singletons: false,
            },
        );
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(
            p.steps,
            vec![
                PathStep {
                    vertex: 0,
                    overhang: 3
                },
                PathStep {
                    vertex: 2,
                    overhang: 5
                },
                PathStep {
                    vertex: 4,
                    overhang: 10
                },
            ]
        );
        assert_eq!(p.contig_len(), 18);
    }

    #[test]
    fn mirror_path_is_not_duplicated() {
        let g = chain_graph(&[(0, 2, 7)], 4);
        // Edges present: 0->2 and 3->1; both describe the same contig.
        let paths = extract_paths(
            &g,
            10,
            TraverseOptions {
                include_singletons: false,
            },
        );
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn singletons_appear_once_in_forward_orientation() {
        let g = StringGraph::new(6);
        let paths = extract_paths(&g, 10, TraverseOptions::default());
        assert_eq!(paths.len(), 3);
        for (i, p) in paths.iter().enumerate() {
            assert_eq!(p.steps.len(), 1);
            assert_eq!(p.steps[0].vertex, (i * 2) as u32);
            assert_eq!(p.steps[0].overhang, 10);
        }
    }

    #[test]
    fn singletons_can_be_excluded() {
        let g = StringGraph::new(6);
        let paths = extract_paths(
            &g,
            10,
            TraverseOptions {
                include_singletons: false,
            },
        );
        assert!(paths.is_empty());
    }

    #[test]
    fn cycles_are_broken_not_dropped() {
        // 0 -> 2 -> 4 -> 0 : a 3-cycle (plus its mirror 1<-3<-5<-1).
        let mut g = StringGraph::new(6);
        g.try_add_edge(0, 2, 6).unwrap();
        g.try_add_edge(2, 4, 6).unwrap();
        g.try_add_edge(4, 0, 6).unwrap();
        let paths = extract_paths(
            &g,
            10,
            TraverseOptions {
                include_singletons: false,
            },
        );
        assert_eq!(paths.len(), 1);
        let verts: Vec<u32> = paths[0].steps.iter().map(|s| s.vertex).collect();
        assert_eq!(verts.len(), 3);
        assert!(verts.contains(&0) && verts.contains(&2) && verts.contains(&4));
    }

    #[test]
    fn every_read_lands_in_exactly_one_path() {
        let g = chain_graph(&[(0, 2, 7), (2, 4, 5), (6, 8, 3)], 12);
        let paths = extract_paths(&g, 10, TraverseOptions::default());
        let mut seen_reads = std::collections::HashSet::new();
        for p in &paths {
            for s in &p.steps {
                assert!(
                    seen_reads.insert(s.vertex / 2),
                    "read {} in two paths",
                    s.vertex / 2
                );
            }
        }
        assert_eq!(seen_reads.len(), 6); // all 6 reads covered
    }

    #[test]
    fn mid_chain_vertices_are_not_seeds() {
        let g = chain_graph(&[(0, 2, 7), (2, 4, 5)], 6);
        // Vertex 2 has in and out; only 0 (or the mirror 5) seeds.
        let paths = extract_paths(
            &g,
            10,
            TraverseOptions {
                include_singletons: false,
            },
        );
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].steps.first().unwrap().vertex, 0);
    }
}
