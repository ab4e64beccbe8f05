//! The per-server drain pipeline: configuration, the reserved drain job-id
//! range, and the bookkeeping of extents in flight between the
//! burst-buffer shard and the capacity tier.
//!
//! The pipeline does not move bytes itself — the server core (or the
//! simulator) reads the extent snapshot from the shard, charges the
//! burst-buffer and capacity devices, and writes to the
//! [`BackingStore`]. The pipeline's job is to make that flow
//! *policy-visible*: every drain is an ordinary [`IoRequest`] under the
//! drain job identity ([`TrafficClass::meta`]), admitted to the
//! server's [`PolicyEngine`](themis_core::engine::PolicyEngine) (wrapped in a
//! [`StagedEngine`](crate::engine::StagedEngine)), so drain bandwidth is
//! arbitrated exactly like foreground bandwidth.

use crate::backing::BackingStore;
use crate::class::TrafficClass;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_device::DeviceConfig;
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// First job id of the reserved drain-job range (class 0 of the internal
/// traffic-class layout). Each server's drain traffic runs under
/// `DRAIN_JOB_BASE + server_index`, so per-server drain streams stay
/// distinguishable in telemetry.
///
/// This is the workspace-wide reserved range exported by the core crate
/// ([`themis_core::entity::RESERVED_JOB_BASE`]), sub-divided per class by
/// [`themis_core::entity::RESERVED_CLASS_SPAN`]; the client and server use
/// the core constant to reject client traffic inside it, so the boundary
/// cannot drift between the layers.
pub const DRAIN_JOB_BASE: u64 = themis_core::entity::RESERVED_JOB_BASE;

/// Reserved user id of drain traffic.
pub const DRAIN_USER_ID: u32 = u32::MAX;

/// Reserved group id of drain traffic.
pub const DRAIN_GROUP_ID: u32 = u32::MAX;

/// Configuration of one server's drain pipeline. Per-class weights and
/// enablement live in the [`ClassWeights`](crate::class::ClassWeights)
/// builder carried by [`DrainConfig::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainConfig {
    /// When the shard's resident bytes exceed this watermark, clean (already
    /// drained) extents are evicted…
    pub high_watermark_bytes: u64,
    /// …until resident bytes fall back to this watermark. Eviction never
    /// touches dirty extents — data whose only copy is in the burst buffer
    /// is never dropped.
    pub low_watermark_bytes: u64,
    /// Per-class foreground:class weights and enablement. A weight of `8`
    /// means foreground traffic collectively receives 8× the device time of
    /// that class while both are backlogged; when the foreground goes idle,
    /// the class expands into the idle capacity (opportunity fairness,
    /// extended to every internal class). Enablement governs the classes
    /// whose pipelines synthesize traffic unprompted (scrub, rebalance,
    /// replicate); demand-driven drain/restore run regardless.
    pub classes: crate::class::ClassWeights,
    /// Pause between the end of one scrub pass over the capacity tier and
    /// the start of the next (virtual ns). `0` means back-to-back passes.
    pub scrub_interval_ns: u64,
    /// Maximum number of extents in flight between the shard and the
    /// capacity tier at once, per direction (pipelining depth).
    pub max_inflight: usize,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            high_watermark_bytes: 768 << 20,
            low_watermark_bytes: 512 << 20,
            classes: crate::class::ClassWeights::default(),
            scrub_interval_ns: 1_000_000_000,
            max_inflight: 4,
        }
    }
}

impl DrainConfig {
    /// The per-class weights this configuration assigns the staged engine.
    pub fn class_weights(&self) -> crate::class::ClassWeights {
        self.classes
    }

    /// Validates the configuration: watermarks ordered, weights and
    /// pipelining depth non-zero.
    pub fn validate(&self) -> Result<(), String> {
        if self.low_watermark_bytes > self.high_watermark_bytes {
            return Err(format!(
                "low watermark {} exceeds high watermark {}",
                self.low_watermark_bytes, self.high_watermark_bytes
            ));
        }
        self.classes.validate()?;
        if self.max_inflight == 0 {
            return Err("max_inflight must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Configuration of the whole staging subsystem on one server: the capacity
/// tier's device model plus the drain pipeline parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagingConfig {
    /// Device model of the capacity tier absorbing drained extents. Used
    /// when `sharding` is `None`; a sharded tier models each child with
    /// its own device and charges tier I/O against the slowest of them.
    pub backing_device: DeviceConfig,
    /// Shard the capacity tier: build a
    /// [`ShardedStore`](crate::shard::ShardedStore) from this spec instead
    /// of a single [`CapacityTier`](crate::backing::CapacityTier).
    pub sharding: Option<crate::shard::ShardSpec>,
    /// Drain pipeline parameters.
    pub drain: DrainConfig,
    /// Durability demand: which writes owe an asynchronous replica (and
    /// which acks must wait for one). `None` means every write is
    /// `local_only` — no replica tier is modelled and the replicate class
    /// stays idle.
    pub durability: Option<themis_core::durability::DurabilitySpec>,
}

impl Default for StagingConfig {
    fn default() -> Self {
        StagingConfig {
            backing_device: DeviceConfig::capacity_hdd(),
            sharding: None,
            drain: DrainConfig::default(),
            durability: None,
        }
    }
}

/// A point-in-time snapshot of one server's staging state, reported through
/// the `DrainStatus` control-plane message.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DrainStatus {
    /// Bytes resident in the burst-buffer shard (clean + dirty).
    pub resident_bytes: u64,
    /// Bytes in dirty extents (not yet drained to the capacity tier).
    pub dirty_bytes: u64,
    /// Bytes stored in the capacity tier.
    pub backing_bytes: u64,
    /// Extents currently in flight between the shard and the capacity tier.
    pub inflight_extents: usize,
    /// Total bytes drained to the capacity tier since boot.
    pub drained_bytes: u64,
    /// Total drain operations completed since boot.
    pub drained_ops: u64,
    /// Total bytes reclaimed by watermark eviction since boot.
    pub evicted_bytes: u64,
    /// Total extents evicted since boot.
    pub evicted_extents: u64,
    /// Bytes of restore (stage-in) work admitted and not yet completed —
    /// the restore *backlog*. Clients and the harness read this to observe
    /// queue delay on the stage-in path: a read of evicted data lands behind
    /// this many policy-arbitrated bytes.
    pub pending_restore_bytes: u64,
    /// Total bytes restored from the capacity tier since boot.
    pub restored_bytes: u64,
    /// Total restore operations completed since boot.
    pub restored_ops: u64,
}

impl DrainStatus {
    /// Whether the shard is fully drained (no dirty bytes, nothing in
    /// flight).
    pub fn is_clean(&self) -> bool {
        self.dirty_bytes == 0 && self.inflight_extents == 0
    }

    /// Whether the restore pipeline is idle (no stage-in backlog).
    pub fn restore_idle(&self) -> bool {
        self.pending_restore_bytes == 0
    }
}

/// One extent travelling through the pipeline.
#[derive(Debug, Clone)]
pub struct InflightDrain {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Dirty generation captured when the drain was admitted; the shard only
    /// marks the extent clean if the generation still matches at completion
    /// (a concurrent overwrite re-dirties it).
    pub generation: u64,
    /// Extent length at admission time.
    pub bytes: u64,
}

/// Per-server drain bookkeeping: which extents are in flight, admission
/// capacity, and the registry counters of drained and evicted work (lane
/// `"drain"`).
#[derive(Debug)]
pub struct DrainPipeline {
    server: usize,
    config: DrainConfig,
    inflight: HashMap<u64, InflightDrain>,
    inflight_keys: HashSet<(String, u64)>,
    drained_bytes: Counter,
    drained_ops: Counter,
    evicted_bytes: Counter,
    evicted_extents: Counter,
}

impl DrainPipeline {
    /// Creates the pipeline of `server` under `config`, counting into
    /// `registry` (lane `"drain"` on `server`).
    pub fn new(server: usize, config: DrainConfig, registry: &MetricsRegistry) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Drain.name());
        DrainPipeline {
            server,
            config,
            inflight: HashMap::new(),
            inflight_keys: HashSet::new(),
            drained_bytes: registry.counter(key, "drained_bytes"),
            drained_ops: registry.counter(key, "drained_ops"),
            evicted_bytes: registry.counter(key, "evicted_bytes"),
            evicted_extents: registry.counter(key, "evicted_extents"),
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &DrainConfig {
        &self.config
    }

    /// The drain job identity of this server.
    pub fn meta(&self) -> JobMeta {
        TrafficClass::Drain.meta(self.server)
    }

    /// How many more drains may be admitted right now.
    pub fn admission_capacity(&self) -> usize {
        self.config.max_inflight.saturating_sub(self.inflight.len())
    }

    /// Extent keys currently in flight (excluded from re-admission).
    pub fn inflight_keys(&self) -> &HashSet<(String, u64)> {
        &self.inflight_keys
    }

    /// Number of extents in flight.
    pub fn inflight_len(&self) -> usize {
        self.inflight.len()
    }

    /// Whether any in-flight extent belongs to `path`.
    pub fn has_inflight_for(&self, path: &str) -> bool {
        self.inflight_keys.iter().any(|(p, _)| p == path)
    }

    /// Admits a drain of one extent: records it in flight and returns the
    /// [`IoRequest`] to feed to the policy engine. The request is a *read* of
    /// the burst-buffer device (the drain's cost on the contended resource);
    /// the matching capacity-tier write is charged by the caller when the
    /// read completes.
    pub fn admit(
        &mut self,
        seq: u64,
        path: String,
        stripe: u64,
        generation: u64,
        bytes: u64,
        now_ns: u64,
    ) -> IoRequest {
        self.inflight_keys.insert((path.clone(), stripe));
        self.inflight.insert(
            seq,
            InflightDrain {
                path,
                stripe,
                generation,
                bytes,
            },
        );
        IoRequest::new(seq, self.meta(), OpKind::Read, bytes, now_ns)
    }

    /// Looks up an in-flight drain by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&InflightDrain> {
        self.inflight.get(&seq)
    }

    /// Completes a drain: removes it from the in-flight set and accounts the
    /// drained bytes. Returns the completed record.
    pub fn complete(&mut self, seq: u64) -> Option<InflightDrain> {
        let d = self.inflight.remove(&seq)?;
        self.inflight_keys.remove(&(d.path.clone(), d.stripe));
        self.drained_bytes.add(d.bytes);
        self.drained_ops.inc();
        Some(d)
    }

    /// Accounts a watermark eviction of `bytes` across `extents` extents.
    pub fn record_eviction(&mut self, extents: u64, bytes: u64) {
        self.evicted_extents.add(extents);
        self.evicted_bytes.add(bytes);
    }

    /// Builds the status snapshot given the shard-side numbers the pipeline
    /// itself does not track. Restore-side counters are zero; the caller
    /// merges them from its [`RestorePipeline`] via
    /// [`RestorePipeline::fill_status`].
    pub fn status(&self, resident_bytes: u64, dirty_bytes: u64, backing_bytes: u64) -> DrainStatus {
        DrainStatus {
            resident_bytes,
            dirty_bytes,
            backing_bytes,
            inflight_extents: self.inflight.len(),
            drained_bytes: self.drained_bytes.get(),
            drained_ops: self.drained_ops.get(),
            evicted_bytes: self.evicted_bytes.get(),
            evicted_extents: self.evicted_extents.get(),
            pending_restore_bytes: 0,
            restored_bytes: 0,
            restored_ops: 0,
        }
    }
}

/// Writes one drained extent to the capacity tier, then re-probes that the
/// extent is still legitimate — the **delete-wins** rule for the
/// unlink/truncate-vs-drain race.
///
/// In a threaded deployment, a peer server can `unlink` or truncate the
/// path between the drain's `snapshot_extent_on` and this `write_back`:
/// both purge the shard extents *and* call [`BackingStore::remove_path`],
/// but a write-back that lands afterwards would resurrect a stale copy in
/// the shared tier — readable forever via stage-in even though the data is
/// gone. Probing *after* the write closes the window: whichever order the
/// two raced in, an extent that can no longer legitimately exist ends up
/// with no tier copy.
///
/// `still_valid` is the caller's probe; it must return `false` for both
/// races — the server probes `stat(path).size > stripe_start`, which a bare
/// existence check would not catch for truncate (the path survives, its
/// extents do not).
///
/// Returns `true` when the copy was kept, `false` when delete won and the
/// path's tier copies were dropped.
pub fn write_back_guarded(
    backing: &dyn BackingStore,
    path: &str,
    stripe: u64,
    data: &[u8],
    still_valid: impl FnOnce() -> bool,
) -> bool {
    backing.write_back(path, stripe, data);
    if still_valid() {
        true
    } else {
        backing.remove_path(path);
        false
    }
}

/// One extent travelling through the restore pipeline: where it must land
/// and how.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RestoreTarget {
    /// Shard (server index) the extent is restored onto.
    pub shard: usize,
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length recorded at eviction time (the request's cost on the
    /// burst device).
    pub bytes: u64,
    /// Whether the extent re-enters the shard pinned dirty
    /// (restore-for-write) instead of clean (stage-in / read-through).
    pub pin_dirty: bool,
}

impl RestoreTarget {
    /// The `(shard, path, stripe)` key waiters subscribe to.
    pub fn key(&self) -> (usize, String, u64) {
        (self.shard, self.path.clone(), self.stripe)
    }
}

/// Per-server restore bookkeeping: the queue of extents waiting for
/// admission, the extents in flight, and the registry counters of stage-in
/// work (lane `"restore"`).
///
/// Mirrors [`DrainPipeline`] for the opposite direction: the pipeline
/// decides *what* needs to come back and synthesizes the policy-visible
/// [`IoRequest`]s (under the [`TrafficClass::Restore`] identity); the server
/// core moves the bytes when the engine releases each request.
///
/// The backlog is **derived**, not stored: `requested_bytes` grows when a
/// restore is queued and `completed_bytes` grows (by the same admitted cost)
/// when it lands, so `pending = requested - completed`. `completed_bytes`
/// sorts before `requested_bytes`, so a registry snapshot loads the
/// follower first (see `MetricsRegistry::snapshot`).
#[derive(Debug)]
pub struct RestorePipeline {
    server: usize,
    max_inflight: usize,
    queue: VecDeque<RestoreTarget>,
    inflight: HashMap<u64, RestoreTarget>,
    /// Keys queued or in flight, for deduplication: many waiters may need
    /// the same extent, which must be restored exactly once.
    pending_keys: HashSet<(usize, String, u64)>,
    requested_bytes: Counter,
    completed_bytes: Counter,
    restored_bytes: Counter,
    restored_ops: Counter,
}

impl RestorePipeline {
    /// Creates the restore pipeline of `server` admitting at most
    /// `max_inflight` extents at a time, counting into `registry` (lane
    /// `"restore"` on `server`).
    pub fn new(server: usize, max_inflight: usize, registry: &MetricsRegistry) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Restore.name());
        RestorePipeline {
            server,
            max_inflight: max_inflight.max(1),
            queue: VecDeque::new(),
            inflight: HashMap::new(),
            pending_keys: HashSet::new(),
            requested_bytes: registry.counter(key, "requested_bytes"),
            completed_bytes: registry.counter(key, "completed_bytes"),
            restored_bytes: registry.counter(key, "restored_bytes"),
            restored_ops: registry.counter(key, "restored_ops"),
        }
    }

    /// The restore job identity of this server.
    pub fn meta(&self) -> JobMeta {
        TrafficClass::Restore.meta(self.server)
    }

    /// Whether `target`'s extent is already queued or in flight.
    pub fn is_pending(&self, key: &(usize, String, u64)) -> bool {
        self.pending_keys.contains(key)
    }

    /// Enqueues a restore target. Deduplicates by `(shard, path, stripe)`;
    /// a pin-dirty request upgrades an already-queued clean restore (a
    /// writer is now waiting on it), never the reverse. Returns whether a
    /// new entry was queued.
    pub fn request(&mut self, target: RestoreTarget) -> bool {
        let key = target.key();
        if self.pending_keys.contains(&key) {
            if target.pin_dirty {
                for queued in self.queue.iter_mut() {
                    if queued.key() == key {
                        queued.pin_dirty = true;
                    }
                }
                for inflight in self.inflight.values_mut() {
                    if inflight.key() == key {
                        inflight.pin_dirty = true;
                    }
                }
            }
            return false;
        }
        self.pending_keys.insert(key);
        self.requested_bytes.add(target.bytes.max(1));
        self.queue.push_back(target);
        true
    }

    /// Admits the next queued restore under sequence number `seq`,
    /// returning the [`IoRequest`] to feed to the policy engine — a *write*
    /// of the burst-buffer device (the restore's cost on the contended
    /// resource); the matching capacity-tier read is charged by the caller
    /// when the engine releases the request. `None` when the queue is empty
    /// or the pipelining depth is reached.
    pub fn admit_next(&mut self, seq: u64, now_ns: u64) -> Option<IoRequest> {
        if self.inflight.len() >= self.max_inflight {
            return None;
        }
        let target = self.queue.pop_front()?;
        let bytes = target.bytes.max(1);
        let request = IoRequest::new(seq, self.meta(), OpKind::Write, bytes, now_ns);
        self.inflight.insert(seq, target);
        Some(request)
    }

    /// Looks up an in-flight restore by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&RestoreTarget> {
        self.inflight.get(&seq)
    }

    /// Completes a restore: removes it from the in-flight set, accounts
    /// `actual_bytes` restored (the tier copy's true length — `0` when the
    /// tier no longer held the extent), and returns the target so the caller
    /// can notify waiters.
    pub fn complete(&mut self, seq: u64, actual_bytes: u64) -> Option<RestoreTarget> {
        let target = self.inflight.remove(&seq)?;
        self.pending_keys.remove(&target.key());
        // Completed at the *admitted* cost, matching `requested_bytes`' unit,
        // so the derived backlog nets out exactly; the tier copy's true
        // length is accounted separately.
        self.completed_bytes.add(target.bytes.max(1));
        self.restored_bytes.add(actual_bytes);
        self.restored_ops.inc();
        Some(target)
    }

    /// Bytes of restore work admitted and not yet completed (queued plus in
    /// flight) — the backlog surfaced as
    /// [`DrainStatus::pending_restore_bytes`]. The completed counter is
    /// loaded first, so the difference never goes negative.
    pub fn pending_bytes(&self) -> u64 {
        let completed = self.completed_bytes.get();
        let requested = self.requested_bytes.get();
        debug_assert!(completed <= requested);
        requested.saturating_sub(completed)
    }

    /// Whether any restore work is queued or in flight.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || !self.inflight.is_empty()
    }

    /// Merges this pipeline's counters into a status snapshot.
    pub fn fill_status(&self, status: &mut DrainStatus) {
        status.pending_restore_bytes = self.pending_bytes();
        status.restored_bytes = self.restored_bytes.get();
        status.restored_ops = self.restored_ops.get();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_identity_is_reserved_and_per_server() {
        let a = TrafficClass::Drain.meta(0);
        let b = TrafficClass::Drain.meta(3);
        assert_eq!(TrafficClass::of(a.job), Some(TrafficClass::Drain));
        assert_eq!(TrafficClass::of(b.job), Some(TrafficClass::Drain));
        assert_ne!(a.job, b.job);
        assert_eq!(
            TrafficClass::of(JobMeta::new(1u64, 1u32, 1u32, 4).job),
            None
        );
        // Ordinary job ids are far below the reserved range.
        assert_eq!(
            TrafficClass::of(JobMeta::new(1u64 << 40, 1u32, 1u32, 4).job),
            None
        );
    }

    #[test]
    fn config_validation() {
        let base = DrainConfig::default();
        assert!(base.validate().is_ok());
        let inverted = DrainConfig {
            low_watermark_bytes: base.high_watermark_bytes + 1,
            ..base
        };
        assert!(inverted.validate().is_err());
        for class in [
            TrafficClass::Drain,
            TrafficClass::Restore,
            TrafficClass::Scrub,
        ] {
            let zero_weight = DrainConfig {
                classes: base.classes.with_weight(class, 0),
                ..base
            };
            assert!(zero_weight.validate().is_err(), "{class}");
        }
        let zero_inflight = DrainConfig {
            max_inflight: 0,
            ..base
        };
        assert!(zero_inflight.validate().is_err());
        // The per-class weight builder carries every knob.
        let weights = DrainConfig {
            classes: base
                .classes
                .with_weight(TrafficClass::Drain, 6)
                .with_weight(TrafficClass::Restore, 3)
                .with_weight(TrafficClass::Scrub, 12),
            ..base
        }
        .class_weights();
        assert_eq!(weights.weight(TrafficClass::Drain), 6);
        assert_eq!(weights.weight(TrafficClass::Restore), 3);
        assert_eq!(weights.weight(TrafficClass::Scrub), 12);
    }

    #[test]
    fn restore_identity_is_a_distinct_reserved_class() {
        let d = TrafficClass::Drain.meta(2);
        let r = TrafficClass::Restore.meta(2);
        assert_eq!(TrafficClass::of(d.job), Some(TrafficClass::Drain));
        assert_eq!(TrafficClass::of(r.job), Some(TrafficClass::Restore));
        assert_eq!(
            TrafficClass::of(JobMeta::new(1u64, 1u32, 1u32, 4).job),
            None
        );
        assert_ne!(d.job, r.job);
    }

    #[test]
    fn restore_pipeline_dedups_upgrades_and_accounts() {
        let mut p = RestorePipeline::new(1, 2, &MetricsRegistry::new());
        let clean = RestoreTarget {
            shard: 1,
            path: "/f".into(),
            stripe: 0,
            bytes: 1 << 20,
            pin_dirty: false,
        };
        assert!(p.request(clean.clone()));
        // A second request for the same extent dedups…
        assert!(!p.request(clean.clone()));
        // …and a pin-dirty request upgrades the queued entry in place.
        assert!(!p.request(RestoreTarget {
            pin_dirty: true,
            ..clean.clone()
        }));
        assert!(p.request(RestoreTarget {
            stripe: 1,
            ..clean.clone()
        }));
        assert!(p.request(RestoreTarget {
            stripe: 2,
            ..clean.clone()
        }));
        assert_eq!(p.pending_bytes(), 3 << 20);
        assert!(p.is_busy());
        // Admission respects the pipelining depth.
        let r0 = p.admit_next(10, 0).expect("first admit");
        assert_eq!(TrafficClass::of(r0.meta.job), Some(TrafficClass::Restore));
        // A restore's cost on the contended burst device is the write-back
        // of the extent into the shard.
        assert_eq!(r0.kind, OpKind::Write);
        assert_eq!(r0.bytes, 1 << 20);
        let _r1 = p.admit_next(11, 0).expect("second admit");
        assert!(p.admit_next(12, 0).is_none(), "depth 2 reached");
        // The upgraded pin survives into flight.
        assert!(p.inflight(10).unwrap().pin_dirty);
        assert_eq!(p.pending_bytes(), 3 << 20);
        // Completion frees depth, re-allows the key, and accounts actuals.
        let done = p.complete(10, 1 << 20).unwrap();
        assert_eq!(done.stripe, 0);
        assert!(!p.is_pending(&(1, "/f".to_string(), 0)));
        assert!(p.admit_next(12, 0).is_some());
        let mut status = DrainStatus::default();
        p.fill_status(&mut status);
        assert_eq!(status.restored_bytes, 1 << 20);
        assert_eq!(status.restored_ops, 1);
        assert_eq!(status.pending_restore_bytes, 2 << 20);
        assert!(!status.restore_idle());
    }

    #[test]
    fn write_back_guarded_applies_delete_wins() {
        use crate::backing::CapacityTier;
        let tier = CapacityTier::hdd();
        // Normal drain: the path exists after the write-back, the copy
        // stays.
        assert!(write_back_guarded(&tier, "/live", 0, &[1u8; 64], || true));
        assert_eq!(tier.bytes_for("/live"), 64);
        // The race: an unlink lands between the drain's snapshot and its
        // write-back (the existence probe runs after the write and sees the
        // file gone). Delete must win — no stale copy survives in the tier,
        // including copies of *other* stripes written earlier.
        tier.write_back("/gone", 1, &[2u8; 32]);
        assert!(!write_back_guarded(&tier, "/gone", 0, &[2u8; 64], || false));
        assert_eq!(tier.bytes_for("/gone"), 0);
        assert!(!tier.contains("/gone", 0));
        assert!(!tier.contains("/gone", 1));
    }

    #[test]
    fn admission_tracks_inflight_and_capacity() {
        let mut p = DrainPipeline::new(
            1,
            DrainConfig {
                max_inflight: 2,
                ..DrainConfig::default()
            },
            &MetricsRegistry::new(),
        );
        assert_eq!(p.admission_capacity(), 2);
        let r = p.admit(7, "/ckpt".into(), 0, 42, 1 << 20, 100);
        assert_eq!(r.seq, 7);
        assert_eq!(TrafficClass::of(r.meta.job), Some(TrafficClass::Drain));
        assert_eq!(r.kind, OpKind::Read);
        assert_eq!(r.bytes, 1 << 20);
        assert_eq!(p.admission_capacity(), 1);
        assert!(p.inflight_keys().contains(&("/ckpt".to_string(), 0)));
        assert!(p.has_inflight_for("/ckpt"));
        let d = p.complete(7).unwrap();
        assert_eq!(d.generation, 42);
        assert_eq!(p.admission_capacity(), 2);
        assert!(!p.has_inflight_for("/ckpt"));
        assert!(p.complete(7).is_none());
    }

    #[test]
    fn status_aggregates_counters() {
        let mut p = DrainPipeline::new(0, DrainConfig::default(), &MetricsRegistry::new());
        p.admit(1, "/a".into(), 0, 1, 100, 0);
        p.complete(1);
        p.record_eviction(2, 300);
        let s = p.status(1_000, 400, 100);
        assert_eq!(s.drained_bytes, 100);
        assert_eq!(s.drained_ops, 1);
        assert_eq!(s.evicted_bytes, 300);
        assert_eq!(s.evicted_extents, 2);
        assert_eq!(s.resident_bytes, 1_000);
        assert!(!s.is_clean());
        assert!(p.status(0, 0, 100).is_clean());
    }
}
