//! The k-mer hash graph with host-memory billing.

use crate::kmer::{canonical_kmers, Kmer};
use genome::ReadSet;
use gstream::{HostMem, OverBudget, Reservation};
use std::collections::HashMap;

/// Bytes billed per distinct k-mer node: a hash-table slot (key, coverage
/// counter, two 4-bit edge masks, load-factor slack) in a first-generation
/// assembler. Velvet-class tools spend considerably more; 40 B is a
/// charitable lower bound.
pub const BYTES_PER_NODE: u64 = 40;

/// Per-node payload: coverage and the extension masks for both traversal
/// orientations (`ext[1]` = traversing in canonical orientation,
/// `ext[0]` = traversing the reverse complement).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeData {
    /// Occurrences of this canonical k-mer across the reads.
    pub count: u32,
    /// Extension bitmasks by traversal orientation.
    pub ext: [u8; 2],
}

/// A bidirected de Bruijn graph over canonical k-mers.
pub struct DbgGraph {
    k: usize,
    nodes: HashMap<u64, NodeData>,
    host: HostMem,
    reservations: Vec<Reservation>,
    billed_nodes: u64,
}

impl DbgGraph {
    /// An empty graph for odd `k ≤ 31` (odd k rules out palindromic
    /// k-mers, which would fold both orientations together), billing
    /// memory against `host`.
    pub fn new(k: usize, host: HostMem) -> Self {
        assert!(k % 2 == 1 && k <= Kmer::MAX_K, "k must be odd and ≤ 31");
        DbgGraph {
            k,
            nodes: HashMap::new(),
            host,
            reservations: Vec::new(),
            billed_nodes: 0,
        }
    }

    /// k of this graph.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct canonical k-mers.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Billed bytes so far.
    pub fn billed_bytes(&self) -> u64 {
        self.billed_nodes * BYTES_PER_NODE
    }

    /// Node payload, if present.
    pub fn node(&self, kmer: Kmer) -> Option<NodeData> {
        debug_assert!(kmer.is_canonical());
        self.nodes.get(&kmer.bits()).copied()
    }

    fn touch(&mut self, canonical: Kmer) -> Result<&mut NodeData, OverBudget> {
        if !self.nodes.contains_key(&canonical.bits()) {
            self.reservations.push(self.host.reserve(BYTES_PER_NODE)?);
            self.billed_nodes += 1;
            self.nodes.insert(canonical.bits(), NodeData::default());
        }
        Ok(self
            .nodes
            .get_mut(&canonical.bits())
            .expect("just inserted"))
    }

    /// Insert every k-mer of every read (both strands folded by
    /// canonicalization) and the adjacency between consecutive windows.
    pub fn add_reads(&mut self, reads: &ReadSet) -> Result<(), OverBudget> {
        let k = self.k;
        for read in reads.iter() {
            let codes = read.to_codes();
            if codes.len() < k {
                continue;
            }
            // Count every window.
            for w in canonical_kmers(&read, k) {
                self.touch(w)?.count += 1;
            }
            // Adjacency between consecutive windows.
            let mut window = Kmer::from_codes(&codes[..k]);
            for i in k..codes.len() {
                let c = codes[i];
                let next = window.extend_right(c);
                // Forward edge on the current node.
                let o = window.is_canonical() as usize;
                self.touch(window.canonical())?.ext[o] |= 1 << c;
                // Reciprocal (backward) edge on the next node: extending
                // the next window's reverse complement by the complement
                // of the base that precedes it.
                let p = codes[i - k];
                let o2 = (!next.is_canonical()) as usize;
                self.touch(next.canonical())?.ext[o2] |= 1 << (p ^ 3);
                window = next;
            }
        }
        Ok(())
    }

    /// Drop nodes with coverage below `min_count` (error/low-confidence
    /// k-mers) and prune dangling extension bits. Billed bytes are *not*
    /// returned — the construction peak is what OOMs real assemblers.
    pub fn filter_coverage(&mut self, min_count: u32) {
        if min_count <= 1 {
            return;
        }
        let k = self.k;
        self.nodes.retain(|_, d| d.count >= min_count);
        // Rebuild extension masks against surviving neighbors.
        let survivors: Vec<u64> = self.nodes.keys().copied().collect();
        for bits in survivors {
            let node = Kmer::from_codes(&decode(bits, k));
            let mut data = self.nodes[&bits];
            for o in 0..2 {
                let mut mask = data.ext[o];
                for c in 0..4u8 {
                    if mask & (1 << c) != 0 {
                        let oriented = if o == 1 {
                            node
                        } else {
                            node.reverse_complement()
                        };
                        let next = oriented.extend_right(c).canonical();
                        if !self.nodes.contains_key(&next.bits()) {
                            mask &= !(1 << c);
                        }
                    }
                }
                data.ext[o] = mask;
            }
            self.nodes.insert(bits, data);
        }
    }

    /// Iterate nodes in deterministic (ascending canonical bits) order.
    pub fn nodes_sorted(&self) -> Vec<(Kmer, NodeData)> {
        let mut out: Vec<(u64, NodeData)> = self.nodes.iter().map(|(&b, &d)| (b, d)).collect();
        out.sort_unstable_by_key(|(b, _)| *b);
        out.into_iter()
            .map(|(b, d)| (Kmer::from_codes(&decode(b, self.k)), d))
            .collect()
    }
}

fn decode(bits: u64, k: usize) -> Vec<u8> {
    (0..k)
        .map(|i| ((bits >> (2 * (k - 1 - i))) & 3) as u8)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::PackedSeq;

    fn reads_of(strs: &[&str]) -> ReadSet {
        ReadSet::from_reads(strs[0].len(), strs.iter().map(|s| s.parse().unwrap())).unwrap()
    }

    #[test]
    fn single_read_produces_a_chain() {
        let reads = reads_of(&["ACGTACC"]);
        let mut g = DbgGraph::new(5, HostMem::new(1 << 20));
        g.add_reads(&reads).unwrap();
        assert_eq!(g.node_count(), 3); // ACGTA, CGTAC, GTACC
                                       // Middle node must have exactly one extension each way.
        let mid = Kmer::from_codes(&[1, 2, 3, 0, 1]).canonical(); // CGTAC
        let d = g.node(mid).unwrap();
        assert_eq!(
            d.ext[0].count_ones() + d.ext[1].count_ones(),
            2,
            "one in + one out"
        );
    }

    #[test]
    fn both_strands_fold_to_the_same_nodes() {
        let fwd = reads_of(&["ACGTACC"]);
        let seq: PackedSeq = "ACGTACC".parse().unwrap();
        let rc = ReadSet::from_reads(7, [seq.reverse_complement()]).unwrap();
        let mut g1 = DbgGraph::new(5, HostMem::new(1 << 20));
        g1.add_reads(&fwd).unwrap();
        let mut g2 = DbgGraph::new(5, HostMem::new(1 << 20));
        g2.add_reads(&rc).unwrap();
        let n1: Vec<u64> = g1.nodes_sorted().iter().map(|(k, _)| k.bits()).collect();
        let n2: Vec<u64> = g2.nodes_sorted().iter().map(|(k, _)| k.bits()).collect();
        assert_eq!(n1, n2);
    }

    #[test]
    fn coverage_counts_accumulate() {
        let reads = reads_of(&["ACGTACC", "ACGTACC"]);
        let mut g = DbgGraph::new(5, HostMem::new(1 << 20));
        g.add_reads(&reads).unwrap();
        for (_, d) in g.nodes_sorted() {
            assert_eq!(d.count, 2);
        }
    }

    #[test]
    fn memory_is_billed_per_distinct_kmer() {
        let reads = reads_of(&["ACGTACC"]);
        let host = HostMem::new(1 << 20);
        let mut g = DbgGraph::new(5, host.clone());
        g.add_reads(&reads).unwrap();
        assert_eq!(g.billed_bytes(), 3 * BYTES_PER_NODE);
        assert_eq!(host.used(), 3 * BYTES_PER_NODE);
    }

    #[test]
    fn over_budget_construction_fails() {
        let reads = reads_of(&["ACGTACCGGATCACGATCAGCTCGATCGACTACGACTAGC"]);
        let host = HostMem::new(5 * BYTES_PER_NODE); // room for 5 k-mers only
        let mut g = DbgGraph::new(21, host);
        assert!(g.add_reads(&reads).is_err());
    }

    #[test]
    fn coverage_filter_drops_weak_nodes_and_dangling_edges() {
        let reads = reads_of(&["ACGTACC", "ACGTACC", "ACGTAGG"]);
        let mut g = DbgGraph::new(5, HostMem::new(1 << 20));
        g.add_reads(&reads).unwrap();
        let before = g.node_count();
        g.filter_coverage(2);
        assert!(g.node_count() < before);
        // No extension may point to a removed node.
        for (kmer, d) in g.nodes_sorted() {
            for o in 0..2 {
                for c in 0..4u8 {
                    if d.ext[o] & (1 << c) != 0 {
                        let oriented = if o == 1 {
                            kmer
                        } else {
                            kmer.reverse_complement()
                        };
                        let next = oriented.extend_right(c).canonical();
                        assert!(g.node(next).is_some(), "dangling edge");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be odd")]
    fn even_k_is_rejected() {
        DbgGraph::new(6, HostMem::new(1 << 20));
    }
}
