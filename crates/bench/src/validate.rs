//! Programmatic validation of the paper's claims.
//!
//! Each check runs a (fast, scaled) experiment and asserts the *shape* the
//! paper reports — the same judgments EXPERIMENTS.md makes by eye, but
//! executable: `repro validate` prints a pass/fail table, and the
//! integration suite runs the same checks in CI.

use crate::env::Testbed;
use crate::experiments;
use crate::Result;
use std::path::Path;

/// Outcome of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimResult {
    /// Short claim identifier.
    pub claim: String,
    /// Where the paper states it.
    pub source: String,
    /// Did the reproduction uphold it?
    pub pass: bool,
    /// Measured evidence.
    pub evidence: String,
}

stdx::impl_json!(struct ClaimResult { claim, source, pass, evidence });

fn claim(claim: &str, source: &str, pass: bool, evidence: String) -> ClaimResult {
    ClaimResult {
        claim: claim.into(),
        source: source.into(),
        pass,
        evidence,
    }
}

/// Run every claim check at `scale` (large scales are fast; 40,000 runs in
/// seconds). Returns one row per claim.
pub fn validate(scale: u64, workdir: &Path) -> Result<Vec<ClaimResult>> {
    let mut out = Vec::new();

    // --- Single-node pipeline claims (Tables II/III) -------------------
    let runs = experiments::run_testbed(Testbed::queenbee2(), scale, &workdir.join("v_t2"))?;
    {
        let sort_dominant = runs.iter().all(|r| {
            let sort = r.report.phase("sort").unwrap().modeled_seconds;
            r.report
                .phases
                .iter()
                .all(|p| p.phase == "sort" || p.modeled_seconds <= sort)
        });
        out.push(claim(
            "sort is the largest phase on every dataset",
            "Section III-E / Tables II-III",
            sort_dominant,
            runs.iter()
                .map(|r| {
                    format!(
                        "{}: sort {:.3}s of {:.3}s",
                        r.dataset,
                        r.report.phase("sort").unwrap().modeled_seconds,
                        r.report.total_modeled_seconds()
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
        ));

        let totals: Vec<f64> = runs
            .iter()
            .map(|r| r.report.total_modeled_seconds())
            .collect();
        out.push(claim(
            "assembly time grows with dataset size",
            "Tables II-III",
            totals.windows(2).all(|w| w[0] < w[1]),
            format!("{totals:.3?}"),
        ));

        let device_constant = {
            let peaks: Vec<u64> = runs
                .iter()
                .map(|r| r.report.phase("sort").unwrap().device_peak_bytes)
                .collect();
            let spread = *peaks.iter().max().unwrap() as f64
                / (*peaks[1..].iter().min().unwrap_or(&1)).max(1) as f64;
            spread < 2.0
        };
        out.push(claim(
            "device memory per phase is data-size independent",
            "Tables IV-V",
            device_constant,
            "sort-phase device peaks across datasets within 2x".into(),
        ));

        let misassembly_free_edges = runs
            .iter()
            .all(|r| r.misassembled < r.report.contig_stats.count);
        out.push(claim(
            "assemblies produce mostly clean contigs",
            "(sanity)",
            misassembly_free_edges,
            "misassembled < contigs everywhere".into(),
        ));
    }

    // --- 64 GB vs 128 GB (Table III's H.Genome knee) ---------------------
    let small = experiments::run_testbed(Testbed::supermic(), scale, &workdir.join("v_t3"))?;
    {
        let big_hg = runs[3].report.total_modeled_seconds();
        let small_hg = small[3].report.total_modeled_seconds();
        let big_bb = runs[1].report.total_modeled_seconds();
        let small_bb = small[1].report.total_modeled_seconds();
        out.push(claim(
            "halving host memory slows H.Genome far more than smaller sets",
            "Table III discussion",
            (small_hg / big_hg) > (small_bb / big_bb) * 1.1,
            format!(
                "H.Genome x{:.2} vs Bumblebee x{:.2}",
                small_hg / big_hg,
                small_bb / big_bb
            ),
        ));
    }

    // --- SGA comparison (Table VI) --------------------------------------
    {
        let rows = experiments::table6(scale, &small, &runs)?;
        let oom_pattern = rows[3].sga_64_wall.is_none()
            && rows[3].sga_128_wall.is_some()
            && rows[..3].iter().all(|r| r.sga_64_wall.is_some());
        out.push(claim(
            "SGA OOMs on H.Genome at 64 GB only",
            "Table VI",
            oom_pattern,
            rows.iter()
                .map(|r| {
                    format!(
                        "{}: 64={} 128={}",
                        r.dataset,
                        r.sga_64_wall.map_or("OOM".into(), |s| format!("{s:.2}s")),
                        r.sga_128_wall.map_or("OOM".into(), |s| format!("{s:.2}s"))
                    )
                })
                .collect::<Vec<_>>()
                .join("; "),
        ));
    }

    // --- Sort sweeps (Figs. 8-9) ----------------------------------------
    {
        let points = experiments::fig8(scale, &workdir.join("v_f8"))?;
        let host_effect = {
            let at = |h: usize, d: usize| {
                points
                    .iter()
                    .find(|p| p.host_block_pairs == h && p.device_block_pairs == d)
                    .map(|p| p.modeled_seconds)
            };
            let hosts: Vec<usize> = {
                let mut v: Vec<usize> = points.iter().map(|p| p.host_block_pairs).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let devs: Vec<usize> = {
                let mut v: Vec<usize> = points.iter().map(|p| p.device_block_pairs).collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let host_ratio = at(hosts[0], devs[devs.len() - 1]).unwrap()
                / at(hosts[hosts.len() - 1], devs[devs.len() - 1]).unwrap();
            let dev_ratio = at(hosts[hosts.len() - 1], devs[0]).unwrap()
                / at(hosts[hosts.len() - 1], devs[devs.len() - 1]).unwrap();
            (host_ratio, dev_ratio)
        };
        out.push(claim(
            "host block-size matters more than device block-size",
            "Fig. 8",
            host_effect.0 > host_effect.1,
            format!(
                "host sweep x{:.2}, device sweep x{:.2}",
                host_effect.0, host_effect.1
            ),
        ));

        let passes_monotone = {
            let mut by_host: Vec<(usize, u32)> = points
                .iter()
                .map(|p| (p.host_block_pairs, p.disk_passes))
                .collect();
            by_host.sort_unstable();
            by_host.windows(2).all(|w| w[0].1 >= w[1].1)
        };
        out.push(claim(
            "disk passes shrink as the host block grows",
            "Section III-B / Fig. 8",
            passes_monotone,
            "pass counts non-increasing in m_h".into(),
        ));

        let f9 = experiments::fig9(scale, &workdir.join("v_f9"))?;
        let best = |gpu: &str| {
            f9.iter()
                .filter(|p| p.gpu == gpu)
                .map(|p| p.modeled_seconds)
                .fold(f64::INFINITY, f64::min)
        };
        out.push(claim(
            "GPU ordering V100 < P100 < P40 < K40 in sorting",
            "Fig. 9",
            best("V100") < best("P100") && best("P100") < best("P40") && best("P40") < best("K40"),
            format!(
                "best seconds: V100 {:.4}, P100 {:.4}, P40 {:.4}, K40 {:.4}",
                best("V100"),
                best("P100"),
                best("P40"),
                best("K40")
            ),
        ));
    }

    // --- Distributed scaling (Fig. 10) ----------------------------------
    {
        let points = experiments::fig10(scale, &[1, 2, 4], &workdir.join("v_f10"))?;
        let monotone = points
            .windows(2)
            .all(|w| w[0].total_modeled > w[1].total_modeled);
        let shuffle_only_multi = points[0]
            .phases
            .iter()
            .find(|(n, _)| n == "shuffle")
            .map(|(_, s)| *s)
            .unwrap_or(0.0)
            == 0.0
            && points[1]
                .phases
                .iter()
                .find(|(n, _)| n == "shuffle")
                .map(|(_, s)| *s)
                .unwrap_or(0.0)
                > 0.0;
        let same_edges = points.windows(2).all(|w| w[0].edges == w[1].edges);
        out.push(claim(
            "distributed assembly scales and shuffle appears only beyond one node",
            "Fig. 10",
            monotone && shuffle_only_multi && same_edges,
            format!(
                "totals {:?}, edges equal: {same_edges}",
                points
                    .iter()
                    .map(|p| (p.nodes, p.total_modeled))
                    .collect::<Vec<_>>()
            ),
        ));
    }

    // --- Fingerprint width (Section IV-B) --------------------------------
    {
        let rows = experiments::fpcheck(scale, &workdir.join("v_fp"))?;
        let full = rows.iter().find(|r| r.bits == 128).unwrap();
        let narrow = rows
            .iter()
            .filter(|r| r.bits <= 24)
            .map(|r| r.false_edges)
            .sum::<u64>();
        out.push(claim(
            "128-bit fingerprints admit zero false edges; narrow ones collide",
            "Section IV-B",
            full.false_edges == 0 && narrow > 0,
            format!(
                "128-bit: {} false; <=24-bit: {narrow} false",
                full.false_edges
            ),
        ));
    }

    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole claim suite at a tiny scale: the executable form of
    /// EXPERIMENTS.md. One failing claim = a regression in the repro.
    #[test]
    fn all_paper_claims_hold_at_small_scale() {
        let dir = stdx::tempdir().unwrap();
        let results = validate(60_000, dir.path()).unwrap();
        let failures: Vec<&ClaimResult> = results.iter().filter(|r| !r.pass).collect();
        assert!(failures.is_empty(), "failed claims: {:#?}", failures);
        assert!(results.len() >= 9, "expected at least 9 claims");
    }
}
