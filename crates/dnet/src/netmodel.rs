//! Interconnect bandwidth model and counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use stdx::lock;

/// Point-to-point network model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetModel {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bytes_per_s: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl NetModel {
    /// 56 Gb/s FDR InfiniBand (the SuperMic interconnect, Section IV-B) at
    /// ~80% efficiency.
    pub fn infiniband_56g() -> Self {
        NetModel {
            bandwidth_bytes_per_s: 56e9 / 8.0 * 0.8,
            latency_s: 2e-6,
        }
    }

    /// Modeled seconds to move `bytes` in one message.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel::infiniband_56g()
    }
}

/// Shared network counters (clones share state).
#[derive(Debug, Clone)]
pub struct NetStats {
    model: NetModel,
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    bytes: AtomicU64,
    messages: AtomicU64,
    seconds: Mutex<f64>,
}

impl NetStats {
    /// Fresh counters over `model`.
    pub fn new(model: NetModel) -> Self {
        NetStats {
            model,
            inner: Arc::new(Inner {
                bytes: AtomicU64::new(0),
                messages: AtomicU64::new(0),
                seconds: Mutex::new(0.0),
            }),
        }
    }

    /// The model in effect.
    pub fn model(&self) -> NetModel {
        self.model
    }

    /// Record one cross-node message of `bytes`; returns its modeled
    /// duration.
    pub fn add_message(&self, bytes: u64) -> f64 {
        let secs = self.model.transfer_seconds(bytes);
        self.inner.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.inner.messages.fetch_add(1, Ordering::Relaxed);
        *lock(&self.inner.seconds) += secs;
        secs
    }

    /// Total bytes moved across the network.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.load(Ordering::Relaxed)
    }

    /// Total messages sent.
    pub fn messages(&self) -> u64 {
        self.inner.messages.load(Ordering::Relaxed)
    }

    /// Total modeled network seconds.
    pub fn seconds(&self) -> f64 {
        *lock(&self.inner.seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_latency_plus_bandwidth_term() {
        let m = NetModel {
            bandwidth_bytes_per_s: 100.0,
            latency_s: 0.5,
        };
        assert!((m.transfer_seconds(200) - 2.5).abs() < 1e-12);
        assert!((m.transfer_seconds(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_accumulate_across_clones() {
        let stats = NetStats::new(NetModel::infiniband_56g());
        let clone = stats.clone();
        clone.add_message(1000);
        stats.add_message(2000);
        assert_eq!(stats.bytes(), 3000);
        assert_eq!(stats.messages(), 2);
        assert!(stats.seconds() > 0.0);
    }

    #[test]
    fn infiniband_beats_ethernet() {
        // 10 GbE at the same ~80% efficiency.
        let ethernet_10g = NetModel {
            bandwidth_bytes_per_s: 10e9 / 8.0 * 0.8,
            latency_s: 20e-6,
        };
        let big = 1 << 30;
        assert!(
            NetModel::infiniband_56g().transfer_seconds(big) < ethernet_10g.transfer_seconds(big)
        );
    }
}
