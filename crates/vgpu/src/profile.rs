//! GPU product profiles used by the analytic timing model.
//!
//! The numbers are the published specifications of the boards the paper
//! evaluates on (Section IV-B and Fig. 9). Only *ratios* matter for the
//! reproduced figures: sorting on these devices is memory-bandwidth-bound,
//! so e.g. the P40 (346 GB/s) losing to the P100 (732 GB/s) despite having
//! more cores — an observation the paper calls out explicitly — falls out
//! of the model.

/// Static description of a GPU product.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuProfile {
    /// Marketing name, e.g. `"K40"`.
    pub name: String,
    /// Number of CUDA cores.
    pub cuda_cores: u32,
    /// Boost clock in MHz.
    pub boost_clock_mhz: u32,
    /// Peak memory bandwidth in GB/s.
    pub mem_bandwidth_gb_s: f64,
    /// Physical device memory in bytes.
    pub device_mem_bytes: u64,
    /// Effective host↔device interconnect bandwidth in GB/s (PCIe gen3 x16
    /// sustains ~12 GB/s in practice).
    pub pcie_gb_s: f64,
}

impl GpuProfile {
    /// NVIDIA Tesla K40: the paper's single-node flagship (Tables II/IV).
    pub fn k40() -> Self {
        GpuProfile {
            name: "K40".into(),
            cuda_cores: 2880,
            boost_clock_mhz: 875,
            mem_bandwidth_gb_s: 288.0,
            device_mem_bytes: 12 << 30,
            pcie_gb_s: 12.0,
        }
    }

    /// NVIDIA Tesla K20X: the SuperMic cluster GPU (Tables III/V, Fig. 10).
    pub fn k20x() -> Self {
        GpuProfile {
            name: "K20X".into(),
            cuda_cores: 2688,
            boost_clock_mhz: 732,
            mem_bandwidth_gb_s: 250.0,
            device_mem_bytes: 6 << 30,
            pcie_gb_s: 12.0,
        }
    }

    /// NVIDIA Tesla P40 (Fig. 9): many cores, modest bandwidth.
    pub fn p40() -> Self {
        GpuProfile {
            name: "P40".into(),
            cuda_cores: 3840,
            boost_clock_mhz: 1531,
            mem_bandwidth_gb_s: 346.0,
            device_mem_bytes: 24 << 30,
            pcie_gb_s: 12.0,
        }
    }

    /// NVIDIA Tesla P100 (Fig. 9).
    pub fn p100() -> Self {
        GpuProfile {
            name: "P100".into(),
            cuda_cores: 3584,
            boost_clock_mhz: 1480,
            mem_bandwidth_gb_s: 732.0,
            device_mem_bytes: 16 << 30,
            pcie_gb_s: 12.0,
        }
    }

    /// NVIDIA Tesla V100 (Fig. 9): the fastest device in the paper.
    pub fn v100() -> Self {
        GpuProfile {
            name: "V100".into(),
            cuda_cores: 5120,
            boost_clock_mhz: 1530,
            mem_bandwidth_gb_s: 900.0,
            device_mem_bytes: 16 << 30,
            pcie_gb_s: 14.0,
        }
    }

    /// All profiles swept by the paper's Fig. 9, in its plotting order.
    pub fn fig9_lineup() -> Vec<GpuProfile> {
        vec![Self::k40(), Self::p40(), Self::p100(), Self::v100()]
    }

    /// Aggregate compute throughput in operations per second. The model
    /// treats one scalar op per core per clock; absolute values are
    /// irrelevant as long as they scale like the hardware does.
    pub fn compute_ops_per_s(&self) -> f64 {
        self.cuda_cores as f64 * self.boost_clock_mhz as f64 * 1e6
    }

    /// Sustained memory bandwidth in bytes per second. Real streaming
    /// workloads achieve roughly 70% of peak; the constant cancels in all
    /// cross-device comparisons.
    pub fn sustained_mem_bytes_per_s(&self) -> f64 {
        self.mem_bandwidth_gb_s * 1e9 * 0.7
    }

    /// Host↔device transfer bandwidth in bytes per second.
    pub fn pcie_bytes_per_s(&self) -> f64 {
        self.pcie_gb_s * 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_have_expected_capacities() {
        assert_eq!(GpuProfile::k40().device_mem_bytes, 12 << 30);
        assert_eq!(GpuProfile::k20x().device_mem_bytes, 6 << 30);
        assert_eq!(GpuProfile::p40().device_mem_bytes, 24 << 30);
        assert_eq!(GpuProfile::p100().device_mem_bytes, 16 << 30);
        assert_eq!(GpuProfile::v100().device_mem_bytes, 16 << 30);
    }

    #[test]
    fn bandwidth_ordering_matches_paper_fig9() {
        // The paper: V100 fastest; P40 slower than P100 despite more cores,
        // because sorting is bandwidth-bound.
        let k40 = GpuProfile::k40().sustained_mem_bytes_per_s();
        let p40 = GpuProfile::p40().sustained_mem_bytes_per_s();
        let p100 = GpuProfile::p100().sustained_mem_bytes_per_s();
        let v100 = GpuProfile::v100().sustained_mem_bytes_per_s();
        assert!(v100 > p100 && p100 > p40 && p40 > k40);
    }

    #[test]
    fn compute_throughput_scales_with_cores_and_clock() {
        let k40 = GpuProfile::k40();
        assert_eq!(k40.compute_ops_per_s(), 2880.0 * 875.0 * 1e6);
        // V100 has both more cores and a higher clock than K40.
        assert!(GpuProfile::v100().compute_ops_per_s() > k40.compute_ops_per_s());
    }

    #[test]
    fn fig9_lineup_has_four_devices() {
        let names: Vec<_> = GpuProfile::fig9_lineup()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(names, vec!["K40", "P40", "P100", "V100"]);
    }
}
