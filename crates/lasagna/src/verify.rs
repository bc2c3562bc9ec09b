//! Assembly verification against a reference.
//!
//! With error-free simulated reads, every correctly spelled contig must be
//! an exact substring of the reference genome (on either strand). This
//! gives the integration tests — and users of the simulator — a decisive
//! ground truth the paper could not have (its datasets were real).

use genome::sim::is_substring_either_strand;
use genome::PackedSeq;

/// Result of validating contigs against a reference.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Contigs checked.
    pub contigs: u64,
    /// Contigs that align exactly (either strand).
    pub exact: u64,
    /// Contigs that do not occur in the reference (misassemblies).
    pub misassembled: u64,
    /// Fraction of reference bases covered by exact contigs (coarse:
    /// sum of exact contig lengths / reference length, capped at 1).
    pub coverage_estimate: f64,
}

impl VerifyReport {
    /// `true` when no contig is misassembled.
    pub fn all_exact(&self) -> bool {
        self.misassembled == 0
    }
}

/// Count edges whose claimed overlap does not hold on the actual
/// sequences — the false positives that too-narrow fingerprints admit
/// (the paper: 128-bit fingerprints "yield zero false positive edges").
pub fn count_false_edges(graph: &crate::StringGraph, reads: &genome::ReadSet) -> u64 {
    let mut false_edges = 0u64;
    for e in graph.edges() {
        let l = e.overlap as usize;
        let u_seq = reads.vertex_seq(e.from);
        let v_seq = reads.vertex_seq(e.to);
        let n = u_seq.len();
        let suffix_matches = (0..l).all(|k| u_seq.get(n - l + k) == v_seq.get(k));
        if !suffix_matches {
            false_edges += 1;
        }
    }
    false_edges
}

/// Validate `contigs` against `reference`.
pub fn verify_contigs(reference: &PackedSeq, contigs: &[PackedSeq]) -> VerifyReport {
    let mut exact = 0u64;
    let mut exact_bases = 0u64;
    for c in contigs {
        if is_substring_either_strand(c, reference) {
            exact += 1;
            exact_bases += c.len() as u64;
        }
    }
    let misassembled = contigs.len() as u64 - exact;
    VerifyReport {
        contigs: contigs.len() as u64,
        exact,
        misassembled,
        coverage_estimate: (exact_bases as f64 / reference.len().max(1) as f64).min(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_contigs_pass() {
        let reference: PackedSeq = "ACGTACGTAAGGCC".parse().unwrap();
        let contigs = vec![
            "ACGTACGT".parse().unwrap(),
            "AAGGCC".parse().unwrap(),
            // Reverse strand contig.
            "GGCCTT".parse().unwrap(),
        ];
        let report = verify_contigs(&reference, &contigs);
        assert_eq!(report.exact, 3);
        assert!(report.all_exact());
        assert!(report.coverage_estimate > 0.9);
    }

    #[test]
    fn misassemblies_are_counted() {
        let reference: PackedSeq = "AAAAAAAAAA".parse().unwrap();
        let contigs = vec!["AAAA".parse().unwrap(), "CCCC".parse().unwrap()];
        let report = verify_contigs(&reference, &contigs);
        assert_eq!(report.exact, 1);
        assert_eq!(report.misassembled, 1);
        assert!(!report.all_exact());
    }

    #[test]
    fn false_edge_counter_flags_bogus_overlaps() {
        use crate::StringGraph;
        use genome::ReadSet;
        let reads = ReadSet::from_reads(
            6,
            ["ACGTAC", "TACGGA", "GGGGGG"]
                .iter()
                .map(|s| s.parse().unwrap()),
        )
        .unwrap();
        let mut g = StringGraph::new(reads.vertex_count());
        // Genuine: read0 suffix TAC == read1 prefix TAC (l = 3).
        g.try_add_edge(0, 2, 3).unwrap();
        assert_eq!(count_false_edges(&g, &reads), 0);
        // Bogus: read1 -> read2 with no real overlap.
        g.try_add_edge(2, 4, 3).unwrap();
        // The bogus edge and its complement are both false.
        assert_eq!(count_false_edges(&g, &reads), 2);
    }

    #[test]
    fn empty_contig_set_is_trivially_exact() {
        let reference: PackedSeq = "ACGT".parse().unwrap();
        let report = verify_contigs(&reference, &[]);
        assert_eq!(report.contigs, 0);
        assert!(report.all_exact());
        assert_eq!(report.coverage_estimate, 0.0);
    }
}
