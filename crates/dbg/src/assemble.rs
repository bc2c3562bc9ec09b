//! Unitig extraction and the assembler facade.

use crate::graph::DbgGraph;
use crate::kmer::Kmer;
use genome::{PackedSeq, ReadSet};
use gstream::{HostMem, OverBudget};

/// DBG assembler failure modes.
#[derive(Debug)]
pub enum DbgError {
    /// The k-mer table outgrew the host budget (the paper's observation
    /// about first-generation assemblers on large datasets).
    OutOfMemory(OverBudget),
}

impl std::fmt::Display for DbgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbgError::OutOfMemory(e) => write!(f, "k-mer table OOM: host memory {e}"),
        }
    }
}

impl std::error::Error for DbgError {}

impl DbgError {
    /// Bytes in use when the failing reservation was attempted.
    pub fn in_use(&self) -> u64 {
        match self {
            DbgError::OutOfMemory(e) => e.in_use,
        }
    }

    /// Bytes the failing reservation requested.
    pub fn requested(&self) -> u64 {
        match self {
            DbgError::OutOfMemory(e) => e.requested,
        }
    }
}

/// Assembly outcome.
#[derive(Debug, Clone, Default)]
pub struct DbgReport {
    /// Distinct canonical k-mers.
    pub nodes: u64,
    /// Billed construction bytes.
    pub billed_bytes: u64,
    /// Unitigs produced.
    pub unitigs: u64,
    /// Total unitig bases.
    pub total_bases: u64,
    /// N50 of the unitigs.
    pub n50: u64,
    /// Wall seconds of graph construction + traversal.
    pub wall_seconds: f64,
}

/// The de Bruijn baseline assembler.
pub struct DbgAssembler {
    /// Odd k ≤ 31.
    pub k: usize,
    /// Minimum k-mer coverage kept (errors create weak k-mers).
    pub min_count: u32,
    /// Host budget the k-mer table is billed against.
    pub host: HostMem,
}

/// A traversal position: a canonical node read in one orientation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct State {
    node: Kmer,
    /// `true` = canonical orientation.
    forward: bool,
}

impl State {
    fn oriented(&self) -> Kmer {
        if self.forward {
            self.node
        } else {
            self.node.reverse_complement()
        }
    }
}

fn extensions(graph: &DbgGraph, s: State) -> Vec<(u8, State)> {
    let Some(data) = graph.node(s.node) else {
        return Vec::new();
    };
    let mask = data.ext[s.forward as usize];
    (0..4u8)
        .filter(|c| mask & (1 << c) != 0)
        .map(|c| {
            let w = s.oriented().extend_right(c);
            (
                c,
                State {
                    node: w.canonical(),
                    forward: w.is_canonical(),
                },
            )
        })
        .collect()
}

/// In-degree of a state = out-degree of its reversal.
fn back_degree(graph: &DbgGraph, s: State) -> usize {
    extensions(
        graph,
        State {
            node: s.node,
            forward: !s.forward,
        },
    )
    .len()
}

impl DbgAssembler {
    /// Assemble `reads` into unitigs.
    pub fn assemble(&self, reads: &ReadSet) -> Result<(Vec<PackedSeq>, DbgReport), DbgError> {
        let t0 = std::time::Instant::now();
        let mut graph = DbgGraph::new(self.k, self.host.clone());
        graph.add_reads(reads).map_err(DbgError::OutOfMemory)?;
        graph.filter_coverage(self.min_count);

        let mut visited = std::collections::HashSet::new();
        let mut contigs: Vec<PackedSeq> = Vec::new();

        // Unitig semantics: extend while the current state has exactly one
        // extension AND the next state has exactly one way back.
        let unambiguous_next = |g: &DbgGraph, s: State| -> Option<(u8, State)> {
            let ext = extensions(g, s);
            match ext.as_slice() {
                [(c, next)] if back_degree(g, *next) == 1 => Some((*c, *next)),
                _ => None,
            }
        };

        let walk =
            |start: State, graph: &DbgGraph, visited: &mut std::collections::HashSet<u64>| {
                let mut codes = start.oriented().to_codes();
                visited.insert(start.node.bits());
                let mut cur = start;
                loop {
                    match unambiguous_next(graph, cur) {
                        Some((c, next)) if !visited.contains(&next.node.bits()) => {
                            codes.push(c);
                            visited.insert(next.node.bits());
                            cur = next;
                        }
                        _ => break,
                    }
                }
                PackedSeq::from_codes(&codes)
            };

        // Seeds: states whose backward side is not an unambiguous
        // continuation (tips and junction exits), in deterministic order.
        let nodes = graph.nodes_sorted();
        for &(kmer, _) in &nodes {
            for forward in [true, false] {
                let s = State {
                    node: kmer,
                    forward,
                };
                if visited.contains(&kmer.bits()) {
                    break;
                }
                let back = State {
                    node: kmer,
                    forward: !forward,
                };
                let back_continues = unambiguous_next(&graph, back)
                    .is_some_and(|(_, prev)| !visited.contains(&prev.node.bits()));
                if !back_continues {
                    contigs.push(walk(s, &graph, &mut visited));
                    break;
                }
            }
        }
        // Cycle remnants.
        for &(kmer, _) in &nodes {
            if !visited.contains(&kmer.bits()) {
                contigs.push(walk(
                    State {
                        node: kmer,
                        forward: true,
                    },
                    &graph,
                    &mut visited,
                ));
            }
        }

        let mut lengths: Vec<u64> = contigs.iter().map(|c| c.len() as u64).collect();
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = lengths.iter().sum();
        let mut acc = 0;
        let mut n50 = 0;
        for &l in &lengths {
            acc += l;
            if acc * 2 >= total {
                n50 = l;
                break;
            }
        }
        let report = DbgReport {
            nodes: graph.node_count() as u64,
            billed_bytes: graph.billed_bytes(),
            unitigs: contigs.len() as u64,
            total_bases: total,
            n50,
            wall_seconds: t0.elapsed().as_secs_f64(),
        };
        Ok((contigs, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genome::sim::is_substring_either_strand;
    use genome::{GenomeSim, ShotgunSim};

    fn assembler(k: usize, budget: u64) -> DbgAssembler {
        DbgAssembler {
            k,
            min_count: 1,
            host: HostMem::new(budget),
        }
    }

    #[test]
    fn clean_genome_collapses_to_one_unitig() {
        let genome = GenomeSim::uniform(500, 7).generate();
        let reads = ShotgunSim::error_free(60, 20.0, 8).sample(&genome);
        let (contigs, report) = assembler(21, 1 << 24).assemble(&reads).unwrap();
        // A repeat-free genome at dense coverage is a single unitig (plus
        // possibly tiny tip fragments at the ends).
        let longest = contigs.iter().map(|c| c.len()).max().unwrap();
        assert!(
            longest as f64 > 0.9 * genome.len() as f64,
            "longest unitig {longest} of {}",
            genome.len()
        );
        assert!(report.n50 as usize >= longest * 9 / 10);
        for c in &contigs {
            assert!(
                is_substring_either_strand(c, &genome),
                "unitig must be exact"
            );
        }
    }

    #[test]
    fn repeats_longer_than_k_fragment_the_assembly() {
        // The paper's Section II-A1 criticism: k-length windows collapse
        // repeats > k, losing information a string graph would keep.
        let genome = GenomeSim {
            len: 4_000,
            repeat_fraction: 0.003,
            repeat_len: 120, // longer than k = 21, shorter than a read
            seed: 17,
        }
        .generate();
        let reads = ShotgunSim::error_free(100, 20.0, 18).sample(&genome);
        let (dbg_contigs, _) = assembler(21, 1 << 24).assemble(&reads).unwrap();
        let dbg_longest = dbg_contigs.iter().map(|c| c.len()).max().unwrap();
        // The string graph with 63 bp minimum overlaps bridges the 120 bp
        // repeat copies only when reads span them; the DBG at k=21 never
        // can. Its longest unitig must fall well short of the genome.
        assert!(
            dbg_longest < genome.len() / 2,
            "k=21 cannot span 120 bp repeats: longest {dbg_longest}"
        );
    }

    #[test]
    fn budget_overflow_reports_oom() {
        let genome = GenomeSim::uniform(2_000, 9).generate();
        let reads = ShotgunSim::error_free(60, 10.0, 10).sample(&genome);
        match assembler(21, 10_000).assemble(&reads) {
            Err(err @ DbgError::OutOfMemory(_)) => {
                assert!(err.requested() > 0);
                let text = err.to_string();
                assert!(text.starts_with("k-mer table OOM: host memory budget exceeded"));
            }
            other => panic!("expected OOM, got {:?}", other.map(|(c, r)| (c.len(), r))),
        }
    }

    #[test]
    fn coverage_filter_removes_error_kmers() {
        let genome = GenomeSim::uniform(1_500, 31).generate();
        let noisy = ShotgunSim {
            read_len: 80,
            coverage: 30.0,
            strand_flip_prob: 0.5,
            error_rate: 0.01,
            seed: 32,
        }
        .sample(&genome);
        let lenient = DbgAssembler {
            k: 21,
            min_count: 1,
            host: HostMem::new(1 << 26),
        };
        let strict = DbgAssembler {
            k: 21,
            min_count: 3,
            host: HostMem::new(1 << 26),
        };
        let (_, lenient_report) = lenient.assemble(&noisy).unwrap();
        let (_, strict_report) = strict.assemble(&noisy).unwrap();
        // Error k-mers are unique; the filter strips them and contiguity
        // recovers dramatically.
        assert!(
            strict_report.n50 > lenient_report.n50 * 2,
            "strict N50 {} vs lenient {}",
            strict_report.n50,
            lenient_report.n50
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let reads = genome::ReadSet::new(60);
        let (contigs, report) = assembler(21, 1 << 20).assemble(&reads).unwrap();
        assert!(contigs.is_empty());
        assert_eq!(report.nodes, 0);
    }
}
