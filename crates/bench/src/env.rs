//! Scaled testbeds.

use genome::DatasetPreset;
use gstream::{HostMem, IoStats, SpillDir};
use lasagna::{AssemblyConfig, Pipeline};
use std::path::Path;
use vgpu::{Device, GpuProfile};

/// One of the paper's machines.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// Machine label as used in the paper.
    pub name: &'static str,
    /// Host memory in bytes at paper scale.
    pub host_bytes: u64,
    /// GPU model (its device memory is taken from the profile).
    pub gpu: GpuProfile,
}

impl Testbed {
    /// QueenBee II node: 128 GB host, one K40 (Tables II/IV).
    pub fn queenbee2() -> Self {
        Testbed {
            name: "QueenBee II (128 GB, K40)",
            host_bytes: 128 << 30,
            gpu: GpuProfile::k40(),
        }
    }

    /// SuperMic node: 64 GB host, one K20X (Tables III/V, Fig. 10).
    pub fn supermic() -> Self {
        Testbed {
            name: "SuperMic (64 GB, K20X)",
            host_bytes: 64 << 30,
            gpu: GpuProfile::k20x(),
        }
    }
}

/// A testbed shrunk by the scale factor.
#[derive(Debug, Clone)]
pub struct ScaledEnv {
    /// The machine being modeled.
    pub testbed: Testbed,
    /// Shrink factor (matches the dataset scale).
    pub scale: u64,
}

impl ScaledEnv {
    /// Scaled host budget in bytes.
    pub fn host_bytes(&self) -> u64 {
        (self.testbed.host_bytes / self.scale).max(64 << 10)
    }

    /// Scaled device capacity in bytes.
    pub fn device_bytes(&self) -> u64 {
        (self.testbed.gpu.device_mem_bytes / self.scale).max(16 << 10)
    }

    /// A fresh host budget.
    pub fn host(&self) -> HostMem {
        HostMem::new(self.host_bytes())
    }

    /// A fresh device.
    pub fn device(&self) -> Device {
        Device::with_capacity(self.testbed.gpu.clone(), self.device_bytes())
    }

    /// A pipeline for `preset` working under `workdir`.
    pub fn pipeline(&self, preset: DatasetPreset, workdir: &Path) -> lasagna::Result<Pipeline> {
        let scaled = preset.scaled(self.scale);
        let config = AssemblyConfig::for_dataset(scaled.l_min, scaled.read_len as u32);
        let spill = SpillDir::create(workdir, IoStats::default())?;
        Pipeline::new(self.device(), self.host(), spill, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_preserves_host_to_device_ratio() {
        let env = ScaledEnv {
            testbed: Testbed::queenbee2(),
            scale: 20_000,
        };
        let ratio_paper = 128.0 / 12.0;
        let ratio_scaled = env.host_bytes() as f64 / env.device_bytes() as f64;
        assert!((ratio_paper - ratio_scaled).abs() / ratio_paper < 0.01);
    }

    #[test]
    fn supermic_has_half_the_memory_of_queenbee() {
        // Power-of-two scale, so the divisions are exact.
        let q = ScaledEnv {
            testbed: Testbed::queenbee2(),
            scale: 1024,
        };
        let s = ScaledEnv {
            testbed: Testbed::supermic(),
            scale: 1024,
        };
        assert_eq!(q.host_bytes(), 2 * s.host_bytes());
        assert_eq!(q.device_bytes(), 2 * s.device_bytes());
    }

    #[test]
    fn extreme_scales_clamp_to_workable_minimums() {
        let env = ScaledEnv {
            testbed: Testbed::supermic(),
            scale: u64::MAX,
        };
        assert!(env.host_bytes() >= 64 << 10);
        assert!(env.device_bytes() >= 16 << 10);
    }

    #[test]
    fn pipeline_construction_succeeds_at_default_scale() {
        let dir = stdx::tempdir().unwrap();
        let env = ScaledEnv {
            testbed: Testbed::queenbee2(),
            scale: crate::DEFAULT_SCALE,
        };
        env.pipeline(DatasetPreset::HChr14, dir.path()).unwrap();
    }
}
