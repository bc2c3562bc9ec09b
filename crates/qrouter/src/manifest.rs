//! The versioned cluster manifest: which shards exist, which replicas
//! serve each one, and which contig store they were all built from.
//!
//! The manifest is the router's single source of truth. Shard
//! assignment is *deterministic and baked in*: shard `s` of `n` owns
//! every minimizer hash with [`qserve::shard_of_hash`]`(h, n) == s`, so
//! the manifest never carries a hash range table — only the shard
//! count. The `store_checksum` pins every replica to the same contig
//! store build; a router refuses to merge candidate votes across
//! replicas that answer for different stores, because summed votes are
//! only meaningful over one postings partition.

use crate::RouterError;

/// Current manifest schema version.
///
/// Version history: `1` — initial schema (shard count, store checksum,
/// per-shard replica address lists).
pub const MANIFEST_VERSION: u32 = 1;

/// One shard's serving replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard id in `0..n_shards`.
    pub shard: u32,
    /// Replica addresses (`host:port`), each serving the full contig
    /// store plus this shard's slice of the minimizer postings.
    pub replicas: Vec<String>,
}

stdx::impl_json!(struct ShardEntry { shard, replicas });

/// The whole cluster's layout, serialized as JSON beside the bench
/// artifacts and fed to `lasagna-cli query --router`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterManifest {
    /// Schema version; readers reject versions they do not know.
    pub version: u32,
    /// Number of shards the postings space is split into.
    pub n_shards: u32,
    /// Checksum of the contig store every replica serves
    /// ([`qserve::ContigStore::checksum`]); vote merging is only sound
    /// when every shard answered for the same store.
    pub store_checksum: u64,
    /// The store/index generation every replica should be serving
    /// (`0` = no pin: whatever each replica's work dir calls active).
    /// The router seeds its generation pin from this and advances it
    /// only through [`crate::Router::rollout`], so a manifest written
    /// after a rollout replays the same pin on restart.
    pub generation: u64,
    /// One entry per shard, in shard order.
    pub shards: Vec<ShardEntry>,
}

stdx::impl_json!(struct ClusterManifest { version, n_shards, store_checksum, generation, shards });

impl ClusterManifest {
    /// An empty manifest for `n_shards` shards over one store; replicas
    /// are added per shard with [`ClusterManifest::add_replica`].
    pub fn new(n_shards: u32, store_checksum: u64) -> ClusterManifest {
        ClusterManifest {
            version: MANIFEST_VERSION,
            n_shards,
            store_checksum,
            generation: 0,
            shards: (0..n_shards)
                .map(|shard| ShardEntry {
                    shard,
                    replicas: Vec::new(),
                })
                .collect(),
        }
    }

    /// Register a replica address for `shard`.
    pub fn add_replica(&mut self, shard: u32, addr: impl Into<String>) {
        self.shards[shard as usize].replicas.push(addr.into());
    }

    /// Validate the manifest's internal consistency: known version,
    /// shard list matching `n_shards` in order, and at least one
    /// replica per shard (a shard with no replicas could never answer,
    /// which would silently drop its slice of the vote space).
    pub fn validate(&self) -> Result<(), RouterError> {
        let fail = |detail: String| Err(RouterError::Manifest(detail));
        if self.version != MANIFEST_VERSION {
            return fail(format!(
                "unsupported manifest version {} (expected {MANIFEST_VERSION})",
                self.version
            ));
        }
        if self.n_shards == 0 {
            return fail("manifest declares zero shards".to_string());
        }
        if self.shards.len() != self.n_shards as usize {
            return fail(format!(
                "manifest lists {} shard entries for n_shards = {}",
                self.shards.len(),
                self.n_shards
            ));
        }
        for (i, entry) in self.shards.iter().enumerate() {
            if entry.shard != i as u32 {
                return fail(format!(
                    "shard entry {i} carries id {} (entries must be dense and ordered)",
                    entry.shard
                ));
            }
            if entry.replicas.is_empty() {
                return fail(format!(
                    "shard {i} has no replicas; its slice of the vote space could never answer"
                ));
            }
        }
        Ok(())
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        stdx::json::to_string_pretty(self)
    }

    /// Parse and validate a manifest from JSON.
    pub fn from_json(s: &str) -> Result<ClusterManifest, RouterError> {
        let m: ClusterManifest = stdx::json::from_str(s)
            .map_err(|e| RouterError::Manifest(format!("manifest parse: {e}")))?;
        m.validate()?;
        Ok(m)
    }

    /// Write the manifest to `path` as JSON.
    pub fn save(&self, path: &std::path::Path) -> Result<(), RouterError> {
        std::fs::write(path, self.to_json())
            .map_err(|e| RouterError::Manifest(format!("manifest write {}: {e}", path.display())))
    }

    /// Read and validate a manifest from `path`.
    pub fn load(path: &std::path::Path) -> Result<ClusterManifest, RouterError> {
        let s = std::fs::read_to_string(path)
            .map_err(|e| RouterError::Manifest(format!("manifest read {}: {e}", path.display())))?;
        Self::from_json(&s)
    }

    /// Every distinct replica address across all shards, in first-seen
    /// order — the health prober's sweep list.
    pub fn all_replicas(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for entry in &self.shards {
            for r in &entry.replicas {
                if !seen.contains(r) {
                    seen.push(r.clone());
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest_2x2() -> ClusterManifest {
        let mut m = ClusterManifest::new(2, 0xFEED);
        m.add_replica(0, "127.0.0.1:7000");
        m.add_replica(0, "127.0.0.1:7001");
        m.add_replica(1, "127.0.0.1:7002");
        m.add_replica(1, "127.0.0.1:7003");
        m
    }

    #[test]
    fn roundtrips_through_json() {
        let mut m = manifest_2x2();
        m.generation = 42;
        let back = ClusterManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.generation, 42);
    }

    #[test]
    fn validation_rejects_broken_layouts() {
        let mut wrong_version = manifest_2x2();
        wrong_version.version = 99;
        assert!(wrong_version.validate().is_err());

        let mut missing_shard = manifest_2x2();
        missing_shard.shards.pop();
        assert!(missing_shard.validate().is_err());

        let mut empty_shard = manifest_2x2();
        empty_shard.shards[1].replicas.clear();
        assert!(empty_shard.validate().is_err());

        let mut out_of_order = manifest_2x2();
        out_of_order.shards.swap(0, 1);
        assert!(out_of_order.validate().is_err());

        assert!(ClusterManifest::new(0, 1).validate().is_err());
    }

    #[test]
    fn all_replicas_deduplicates_shared_processes() {
        // One process can serve two shards (distinct indexes, same
        // port); the prober must still ping it once.
        let mut m = ClusterManifest::new(2, 1);
        m.add_replica(0, "h:1");
        m.add_replica(1, "h:1");
        m.add_replica(1, "h:2");
        assert_eq!(m.all_replicas(), vec!["h:1".to_string(), "h:2".to_string()]);
    }

    #[test]
    fn save_and_load() {
        let dir = stdx::tempdir().unwrap();
        let path = dir.path().join("cluster.json");
        let m = manifest_2x2();
        m.save(&path).unwrap();
        assert_eq!(ClusterManifest::load(&path).unwrap(), m);
    }
}
