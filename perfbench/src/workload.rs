//! The three workloads: who the tenants are, what the server runs, what is
//! prefilled, and which op streams drive the timed window. `README.md` in
//! this directory records why each was chosen and what it loads.

use crate::gen::{mix, Op, Pattern, SplitMix64, Stream};
use themis_baselines::Algorithm;
use themis_core::entity::JobMeta;
use themis_core::policy::Policy;
use themis_device::DeviceConfig;
use themis_fs::BurstBufferFs;
use themis_server::ServerConfig;
use themis_stage::{ClassWeights, DrainConfig, StagingConfig, TrafficClass};

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 3] = ["small_ops", "fair_large", "staged_spill"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    SmallOps,
    FairLarge,
    StagedSpill,
}

/// Everything a run needs to know about its workload.
pub struct Spec {
    pub name: Name,
    pub seed: u64,
    pub policy: Policy,
    pub tenants: Vec<JobMeta>,
    pub files: u32,
    pub file_len: u64,
    /// Unit of writes, and of the version bookkeeping reads are checked by.
    pub block_len: u64,
    /// Requests in flight per stream.
    pub depth: usize,
    pub staging: Option<StagingConfig>,
}

/// High and low watermarks of the staged workload's burst-buffer shard.
pub const HIGH_WATERMARK: u64 = 64 << 20;
const LOW_WATERMARK: u64 = 32 << 20;
/// `staged_spill` flushes its file after every this many writes.
pub const FLUSH_EVERY: u64 = 32;
/// Piece size of `fair_large`'s read-back.
const READ_BACK_LEN: u64 = 256 << 10;
/// The driver sends no heartbeats (requests keep tenants alive), so the job
/// monitor's timeout is set above any run's length: a tenant registered at
/// the start of a long set-up must not expire before the window opens.
const HEARTBEAT_TIMEOUT_NS: u64 = 3_600_000_000_000;

impl Spec {
    pub fn new(name: &str, seed: u64) -> Option<Spec> {
        let spec = match name {
            "small_ops" => {
                // 4096 tenants: 64 users in 8 groups, 1–4 nodes per job.
                let mut rng = SplitMix64::new(mix(seed, 0x7E4A));
                let tenants = (0..4096u64)
                    .map(|t| {
                        let user = (t % 64) as u32 + 1;
                        let group = (user - 1) % 8 + 1;
                        JobMeta::new(t + 1, user, group, rng.below(4) as u32 + 1)
                    })
                    .collect();
                Spec {
                    name: Name::SmallOps,
                    seed,
                    policy: "group-user-size-fair".parse().expect("valid policy"),
                    tenants,
                    files: 64,
                    file_len: 1 << 20,
                    block_len: 4 << 10,
                    depth: 4,
                    staging: None,
                }
            }
            "fair_large" => Spec {
                name: Name::FairLarge,
                seed,
                policy: Policy::size_fair(),
                tenants: [1u32, 2, 4, 8]
                    .iter()
                    .enumerate()
                    .map(|(i, &nodes)| JobMeta::new(i as u64 + 1, i as u32 + 1, 1u32, nodes))
                    .collect(),
                files: 4,
                file_len: 64 << 20,
                block_len: 1 << 20,
                depth: 32,
                staging: None,
            },
            "staged_spill" => Spec {
                name: Name::StagedSpill,
                seed,
                policy: Policy::size_fair(),
                tenants: vec![JobMeta::new(1u64, 1u32, 1u32, 1)],
                files: 1,
                file_len: 256 << 20,
                block_len: 1 << 20,
                depth: 1,
                staging: Some(StagingConfig {
                    backing_device: DeviceConfig::capacity_hdd(),
                    sharding: None,
                    drain: DrainConfig {
                        high_watermark_bytes: HIGH_WATERMARK,
                        low_watermark_bytes: LOW_WATERMARK,
                        classes: ClassWeights::default().enable(
                            TrafficClass::Replicate,
                            ClassWeights::default().weight(TrafficClass::Replicate),
                        ),
                        ..DrainConfig::default()
                    },
                    durability: Some("durability=local_plus_one".parse().expect("valid spec")),
                }),
            },
            _ => return None,
        };
        Some(spec)
    }

    pub fn blocks_per_file(&self) -> u64 {
        self.file_len / self.block_len
    }

    /// Burst-buffer path of file `file`.
    pub fn path(&self, file: u32) -> String {
        format!("/bench/f{file:02}")
    }

    /// The streams of the timed window.
    pub fn streams(&self) -> Vec<Stream> {
        let rng = SplitMix64::new(mix(self.seed, self.name as u64));
        match self.name {
            Name::SmallOps => vec![Stream::Mixed {
                rng,
                tenants: self.tenants.len() as u32,
                files: self.files,
                blocks: self.blocks_per_file(),
                block_len: self.block_len,
            }],
            Name::FairLarge => (0..self.tenants.len() as u32)
                .map(|j| Stream::Cyclic {
                    tenant: j,
                    file: j,
                    next: mix(self.seed, j as u64) % self.blocks_per_file(),
                    blocks: self.blocks_per_file(),
                    block_len: self.block_len,
                })
                .collect(),
            Name::StagedSpill => vec![Stream::Spill {
                rng,
                blocks: self.blocks_per_file(),
                block_len: self.block_len,
            }],
        }
    }

    /// The first `n` ops of the window's streams, taken round-robin.
    pub fn prefix(&self, n: usize) -> Vec<Op> {
        let mut streams = self.streams();
        let k = streams.len();
        (0..n)
            .map(|i| {
                streams[i % k]
                    .next_op()
                    .expect("window streams are infinite")
            })
            .collect()
    }

    /// One pass of `fair_large`'s read-back after the window: each job reads
    /// its whole file back at the window's depth. Empty for the other
    /// workloads.
    pub fn read_back_streams(&self) -> Vec<Stream> {
        if self.name != Name::FairLarge {
            return Vec::new();
        }
        (0..self.tenants.len() as u32)
            .map(|j| Stream::ReadBack {
                tenant: j,
                file: j,
                next: 0,
                count: self.file_len / READ_BACK_LEN,
                len: READ_BACK_LEN,
            })
            .collect()
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            algorithm: Algorithm::Themis(self.policy.clone()),
            heartbeat_timeout_ns: HEARTBEAT_TIMEOUT_NS,
            rng_seed: mix(self.seed, 0x5EED),
            staging: self.staging.clone(),
            ..ServerConfig::default()
        }
    }

    /// Creates every file at its full length with version 0 of each block.
    pub fn prefill(&self, fs: &BurstBufferFs, pattern: &Pattern) {
        fs.mkdir_all("/bench", 0).expect("mkdir /bench");
        for file in 0..self.files {
            let path = self.path(file);
            fs.create(&path, 0).expect("create bench file");
            for block in 0..self.blocks_per_file() {
                let data = pattern.block(file, block, 0, self.block_len);
                fs.write_at(&path, block * self.block_len, &data, 0)
                    .expect("prefill write");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_stream_is_a_function_of_the_seed() {
        for name in NAMES {
            let ops = |seed| Spec::new(name, seed).expect("known workload").prefix(4000);
            assert_eq!(ops(1), ops(1), "{name}: same seed, same stream");
            assert_ne!(ops(1), ops(2), "{name}: another seed, another stream");
        }
    }

    #[test]
    fn tenants_and_watermarks_match_the_stated_workloads() {
        let small = Spec::new("small_ops", 5).expect("known workload");
        assert_eq!(small.tenants.len(), 4096);
        assert!(small.tenants.iter().all(|m| (1..=4).contains(&m.nodes)));
        assert_eq!(small.files as u64 * small.file_len, 64 << 20);
        let fair = Spec::new("fair_large", 5).expect("known workload");
        let nodes: Vec<u32> = fair.tenants.iter().map(|m| m.nodes).collect();
        assert_eq!(nodes, [1, 2, 4, 8]);
        let spill = Spec::new("staged_spill", 5).expect("known workload");
        let drain = spill.staging.expect("staging on").drain;
        assert_eq!(spill.file_len, 4 * drain.high_watermark_bytes);
        assert_eq!(drain.low_watermark_bytes, 32 << 20);
        assert!(Spec::new("nope", 5).is_none());
    }
}
