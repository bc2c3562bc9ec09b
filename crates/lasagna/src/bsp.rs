//! Bulk-synchronous path extraction — the paper's future work, realized.
//!
//! Section IV-D closes with: "We also plan on processing the string graph
//! in parallel using a bulk-synchronous processing model." This module
//! implements that plan for the traversal stage: **pointer jumping**
//! (parallel list ranking) over the successor array. Each superstep doubles
//! every vertex's jump distance — `jump[v] ← jump[jump[v]]` — so after
//! ⌈log₂ n⌉ barriers every vertex knows its chain terminal and its distance
//! to it; paths then materialize with one parallel scatter keyed by
//! `(terminal, distance)`. Supersteps are data-parallel (`vgpu::exec` here,
//! thread blocks on a real GPU) and charged to the device clock.
//!
//! [`extract_paths_bsp`] produces exactly the same paths as the sequential
//! [`crate::traverse::extract_paths`] (property-tested equivalence), so it
//! is a drop-in replacement for the compress phase's first stage.

use crate::graph::StringGraph;
use crate::traverse::{Path, PathStep, TraverseOptions};
use std::collections::HashMap;
use vgpu::exec::{par_parts, par_ranges, part_len, ELEMENT_GRAIN};
use vgpu::{Device, KernelCost};

const NONE: u32 = u32::MAX;

/// Build the successor array and break every cycle at its smallest vertex
/// (cutting the edge *into* it), returning the cycle entry points.
fn successors_with_cycles_broken(graph: &StringGraph) -> (Vec<u32>, Vec<u32>) {
    let n = graph.vertex_count() as usize;
    let mut next: Vec<u32> = (0..n as u32)
        .map(|v| graph.out(v).map_or(NONE, |e| e.to))
        .collect();
    let mut cycle_seeds = Vec::new();
    let mut color = vec![0u8; n]; // 0 unvisited, 1 on trail, 2 done
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut trail = Vec::new();
        let mut v = start;
        loop {
            if color[v] == 2 {
                break; // merges into already-classified territory
            }
            if color[v] == 1 {
                // The trail suffix from v is a cycle; cut before its
                // smallest vertex, which becomes the emission start.
                let pos = trail
                    .iter()
                    .position(|&t| t as usize == v)
                    .expect("on trail");
                let cycle = &trail[pos..];
                let min = *cycle.iter().min().expect("nonempty");
                let pred = cycle
                    .iter()
                    .copied()
                    .find(|&c| next[c as usize] == min)
                    .expect("cycle predecessor");
                next[pred as usize] = NONE;
                cycle_seeds.push(min);
                break;
            }
            color[v] = 1;
            trail.push(v as u32);
            match next[v] {
                NONE => break,
                w => v = w as usize,
            }
        }
        for &t in &trail {
            color[t as usize] = 2;
        }
    }
    (next, cycle_seeds)
}

/// Extract paths by pointer jumping. `device`, when given, is charged one
/// kernel per superstep (the BSP barriers of a GPU implementation).
pub fn extract_paths_bsp(
    graph: &StringGraph,
    read_len: u32,
    opts: TraverseOptions,
    device: Option<&Device>,
) -> Vec<Path> {
    let n = graph.vertex_count() as usize;
    if n == 0 {
        return Vec::new();
    }
    let (next, cycle_seeds) = successors_with_cycles_broken(graph);

    // Pointer jumping: `jump[v]` converges to the chain terminal and
    // `dist[v]` to the hop count. One superstep per round.
    let mut jump = next.clone();
    let mut dist: Vec<u32> = next.iter().map(|&w| (w != NONE) as u32).collect();
    let rounds = (usize::BITS - n.leading_zeros()) as usize + 1;
    let mut jump_next = vec![0u32; n];
    let mut dist_next = vec![0u32; n];
    for _ in 0..rounds {
        if let Some(dev) = device {
            dev.charge_kernel(
                "bsp_pointer_jump",
                KernelCost::new(n as u64 * 2, n as u64 * 16),
            );
        }
        let step = part_len(n, ELEMENT_GRAIN);
        par_parts(
            jump_next
                .chunks_mut(step)
                .zip(dist_next.chunks_mut(step))
                .enumerate(),
            |(part, (jumps, dists))| {
                for (i, (j, d)) in jumps.iter_mut().zip(dists).enumerate() {
                    let v = part * step + i;
                    let t = jump[v];
                    if t == NONE {
                        *j = NONE;
                        *d = dist[v];
                    } else if jump[t as usize] == NONE {
                        *j = t; // t is the terminal
                        *d = dist[v];
                    } else {
                        *j = jump[t as usize];
                        *d = dist[v] + dist[t as usize];
                    }
                }
            },
        );
        std::mem::swap(&mut jump, &mut jump_next);
        std::mem::swap(&mut dist, &mut dist_next);
    }
    // Normalize: a terminal's own jump target is itself.
    let terminal_of = |v: u32| -> u32 {
        if jump[v as usize] == NONE {
            v
        } else {
            jump[v as usize]
        }
    };

    // Decide which chains to emit (the sequential traversal's rules).
    // Regular seeds: out-degree 1, in-degree 0, canonical orientation
    // (seed ≤ complement of terminal). Cycle chains: the orientation whose
    // smallest vertex is smaller than its mirror's smallest vertex.
    let mut emitted: Vec<(u32, u32)> = Vec::new(); // (seed, terminal)
    for v in 0..n as u32 {
        if graph.out(v).is_some() && !graph.has_in(v) {
            let t = terminal_of(v);
            if v <= t ^ 1 {
                emitted.push((v, t));
            }
        }
    }
    for &m in &cycle_seeds {
        // The mirror cycle's smallest vertex is the smallest complement of
        // this chain's vertices; both cycles appear in `cycle_seeds`, so
        // keep the one with the smaller entry.
        let mut mirror_min = u32::MAX;
        let mut v = m;
        loop {
            mirror_min = mirror_min.min(v ^ 1);
            match next[v as usize] {
                NONE => break,
                w => v = w,
            }
        }
        if m < mirror_min {
            emitted.push((m, terminal_of(m)));
        }
    }
    emitted.sort_unstable();

    // Materialize with a parallel scatter: every vertex knows its chain
    // (terminal) and its index from the end (dist).
    let mut path_of_terminal: HashMap<u32, usize> = HashMap::new();
    let mut paths: Vec<Vec<PathStep>> = Vec::with_capacity(emitted.len());
    for &(seed, terminal) in &emitted {
        path_of_terminal.insert(terminal, paths.len());
        paths.push(vec![
            PathStep {
                vertex: NONE,
                overhang: 0
            };
            dist[seed as usize] as usize + 1
        ]);
    }
    if let Some(dev) = device {
        dev.charge_kernel(
            "bsp_scatter_paths",
            KernelCost::new(n as u64, n as u64 * 16),
        );
    }
    // (Scatter is expressed sequentially per chain-membership check but is
    // embarrassingly parallel: no two vertices share a slot.)
    let scatter = |v: u32| {
        let t = terminal_of(v);
        let path_idx = *path_of_terminal.get(&t)?;
        // Mirror-orientation vertices share no terminal with emitted
        // chains, so membership in the map is exact... except the
        // degenerate single-vertex "chain" (a terminal with no
        // pointer at all), which only counts if it is the seed.
        if next[v as usize] == NONE && v != t {
            return None;
        }
        let len = paths[path_idx].len();
        let idx = len - 1 - dist[v as usize] as usize;
        let overhang = match graph.out(v) {
            Some(e) if idx + 1 < len => read_len - e.overlap,
            _ => read_len,
        };
        Some((
            path_idx,
            idx,
            PathStep {
                vertex: v,
                overhang,
            },
        ))
    };
    let mut slots: Vec<(usize, usize, PathStep)> = par_ranges(n, ELEMENT_GRAIN, |part| {
        part.filter_map(|v| scatter(v as u32)).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    slots.sort_unstable_by_key(|(p, i, _)| (*p, *i));
    for (path_idx, idx, step) in slots {
        paths[path_idx][idx] = step;
    }

    let mut out: Vec<Path> = paths.into_iter().map(|steps| Path { steps }).collect();

    // Track chain membership for the singleton pass.
    let mut in_path = vec![false; n];
    for p in &out {
        for s in &p.steps {
            debug_assert_ne!(s.vertex, NONE, "scatter must fill every slot");
            in_path[s.vertex as usize] = true;
            in_path[(s.vertex ^ 1) as usize] = true;
        }
    }

    if opts.include_singletons {
        for v in (0..n as u32).step_by(2) {
            if !in_path[v as usize] && graph.out(v).is_none() && !graph.has_in(v) {
                out.push(Path {
                    steps: vec![PathStep {
                        vertex: v,
                        overhang: read_len,
                    }],
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traverse::extract_paths;
    use stdx::check_cases;

    fn sort_paths(mut paths: Vec<Path>) -> Vec<Path> {
        paths.sort_by_key(|p| p.steps.first().map(|s| s.vertex).unwrap_or(u32::MAX));
        paths
    }

    fn assert_equivalent(graph: &StringGraph, read_len: u32) {
        let opts = TraverseOptions::default();
        let seq = sort_paths(extract_paths(graph, read_len, opts));
        let bsp = sort_paths(extract_paths_bsp(graph, read_len, opts, None));
        assert_eq!(seq, bsp);
    }

    #[test]
    fn matches_sequential_on_simple_chain() {
        let mut g = StringGraph::new(8);
        g.try_add_edge(0, 2, 7).unwrap();
        g.try_add_edge(2, 4, 5).unwrap();
        assert_equivalent(&g, 10);
    }

    #[test]
    fn matches_sequential_on_multiple_chains_and_singletons() {
        let mut g = StringGraph::new(16);
        g.try_add_edge(0, 2, 7).unwrap();
        g.try_add_edge(2, 4, 5).unwrap();
        g.try_add_edge(6, 8, 6).unwrap();
        assert_equivalent(&g, 10);
    }

    #[test]
    fn matches_sequential_on_cycles() {
        let mut g = StringGraph::new(6);
        g.try_add_edge(0, 2, 6).unwrap();
        g.try_add_edge(2, 4, 6).unwrap();
        g.try_add_edge(4, 0, 6).unwrap();
        assert_equivalent(&g, 10);
    }

    #[test]
    fn matches_sequential_on_mixed_orientation_chains() {
        let mut g = StringGraph::new(12);
        // Chain with odd (reverse-strand) vertices in the middle.
        g.try_add_edge(0, 5, 7).unwrap();
        g.try_add_edge(5, 8, 6).unwrap();
        assert_equivalent(&g, 10);
    }

    #[test]
    fn empty_graph_gives_no_paths() {
        let g = StringGraph::new(0);
        assert!(extract_paths_bsp(&g, 10, TraverseOptions::default(), None).is_empty());
    }

    #[test]
    fn singletons_can_be_excluded() {
        let g = StringGraph::new(8);
        let opts = TraverseOptions {
            include_singletons: false,
        };
        assert!(extract_paths_bsp(&g, 10, opts, None).is_empty());
    }

    #[test]
    fn device_supersteps_are_charged() {
        use vgpu::GpuProfile;
        let dev = Device::new(GpuProfile::k40());
        let mut g = StringGraph::new(64);
        g.try_add_edge(0, 2, 7).unwrap();
        extract_paths_bsp(&g, 10, TraverseOptions::default(), Some(&dev));
        assert!(dev.stats().per_kernel.contains_key("bsp_pointer_jump"));
        let jumps = dev.stats().per_kernel["bsp_pointer_jump"].launches;
        assert!(jumps >= 7, "log2(64)+1 rounds expected, got {jumps}");
        assert!(dev.stats().per_kernel.contains_key("bsp_scatter_paths"));
    }

    #[test]
    fn matches_sequential_on_random_greedy_graphs() {
        check_cases(256, |rng| {
            let mut g = StringGraph::new(60);
            for _ in 0..rng.below(90) {
                let (a, b, l) = (rng.below(60), rng.below(60), rng.range(3..10));
                let _ = g.try_add_edge(a as u32, b as u32, l as u32);
            }
            assert_equivalent(&g, 10);
        });
    }
}
