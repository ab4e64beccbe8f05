//! The per-server durability replication pipeline: the bookkeeping of the
//! replica *debt* acknowledged writes create and the synthesis of the
//! policy-visible copy traffic that pays it down.
//!
//! Durability classes split a write's lifecycle from its guarantee: the
//! burst buffer acks against local NVMe, and writes whose
//! [`DurabilityMode`] owes a replica are copied to the replica tier
//! *asynchronously*, as ordinary [`IoRequest`]s under the
//! [`TrafficClass::Replicate`] identity. The pipeline does not move bytes itself — the server core (or
//! the simulator) reads the extent, verifies it (through the
//! `verified_read_back` seam when the source is no longer burst-resident;
//! unverifiable bytes are **never** replicated), charges the devices, and
//! writes the replica. The pipeline's job is to make the debt
//! *policy-visible and observable*:
//!
//! * every queued byte of replica debt is surfaced as replication **lag**
//!   (`requested - completed`, saturating — the satellite-1 audit rule for
//!   independently-maintained totals);
//! * each copy is admitted through the staged engine's replicate lane, so
//!   the bandwidth replication steals from foreground is bounded by
//!   [`ClassWeights`](crate::class::ClassWeights)' replicate weight exactly
//!   like drain/restore/scrub/rebalance;
//! * `sync` writes park their acks on the pipeline
//!   ([`ReplicatePipeline::record_sync_deferred`]) until the replica lands,
//!   so a client never observes a success the replica tier could still
//!   lose.

use crate::class::TrafficClass;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use themis_core::durability::DurabilityMode;
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// One extent owing a replica: where the copy comes from and what debt it
/// retires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaTarget {
    /// Path of the file the extent belongs to.
    pub path: String,
    /// Stripe index of the extent.
    pub stripe: u64,
    /// Extent length at enqueue time (the admitted cost on the burst
    /// device; the copy itself reads the extent's *current* bytes, so a
    /// grown extent still replicates whole).
    pub bytes: u64,
    /// The durability mode that created the debt. `Sync` targets carry
    /// deferred acks the server releases on completion.
    pub mode: DurabilityMode,
}

impl ReplicaTarget {
    /// The `(path, stripe)` key replication work deduplicates on.
    pub fn key(&self) -> (String, u64) {
        (self.path.clone(), self.stripe)
    }
}

/// A point-in-time snapshot of one server's replication state, reported
/// through the `ReplicateStatus` control-plane message.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicateStatus {
    /// Whether a durability spec gave the pipeline work to do.
    pub enabled: bool,
    /// Extents queued for replication (debt not yet admitted).
    pub queued_extents: u64,
    /// Copies currently in flight.
    pub inflight: u64,
    /// Total bytes of replica debt enqueued since boot.
    pub requested_bytes: u64,
    /// Total bytes of replica debt retired since boot (at the admitted
    /// cost, success or failure — the unit matching `requested_bytes`).
    pub completed_bytes: u64,
    /// Replication lag: debt enqueued but not yet retired. Derived
    /// `requested - completed` saturating — independently-maintained totals
    /// saturate instead of trusting update order (the satellite-1 audit
    /// rule).
    pub lag_bytes: u64,
    /// Total bytes actually landed on the replica tier since boot.
    pub replicated_bytes: u64,
    /// Total extents replicated since boot.
    pub replicated_extents: u64,
    /// Copies abandoned because the source bytes could not be verified —
    /// unverifiable data is never replicated (the PR 5 seam rule).
    pub failed_replications: u64,
    /// `sync` write acks deferred until their replica lands.
    pub sync_acks_deferred: u64,
    /// Deferred `sync` acks released by a landed replica.
    pub sync_acks_released: u64,
}

impl ReplicateStatus {
    /// Whether the pipeline is fully caught up: no lag, nothing in flight,
    /// and no `sync` ack still parked.
    pub fn is_idle(&self) -> bool {
        self.lag_bytes == 0
            && self.inflight == 0
            && self.sync_acks_deferred == self.sync_acks_released
    }
}

/// Per-server replication bookkeeping: the queue of extents owing a
/// replica, the copies in flight, and the registry counters of replication
/// work (lane `"replicate"`).
///
/// The lag is **derived**, not stored: `replicate_completed_bytes` sorts
/// before `replicate_requested_bytes`, so a registry snapshot reads the
/// follower first and `requested - completed` is non-negative in any
/// snapshot (the follower-sorts-first naming convention, see
/// `MetricsRegistry::snapshot`).
#[derive(Debug)]
pub struct ReplicatePipeline {
    server: usize,
    enabled: bool,
    max_inflight: usize,
    queue: VecDeque<ReplicaTarget>,
    /// Keys queued or in flight, for deduplication: a re-dirtied extent
    /// already owing a replica owes exactly one copy (the copy reads the
    /// latest bytes at execution time).
    pending_keys: HashSet<(String, u64)>,
    inflight: HashMap<u64, ReplicaTarget>,
    requested_bytes: Counter,
    completed_bytes: Counter,
    replicated_bytes: Counter,
    replicated_extents: Counter,
    failed_replications: Counter,
    sync_acks_deferred: Counter,
    sync_acks_released: Counter,
}

impl ReplicatePipeline {
    /// Creates the replication pipeline of `server`, admitting at most
    /// `max_inflight` copies at a time and counting into `registry` (lane
    /// `"replicate"` on `server`). A disabled pipeline accepts no debt —
    /// the server constructs it disabled when no durability spec demands
    /// replicas.
    pub fn new(
        server: usize,
        enabled: bool,
        max_inflight: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let key = SeriesKey::class(server, TrafficClass::Replicate.name());
        ReplicatePipeline {
            server,
            enabled,
            max_inflight: max_inflight.max(1),
            queue: VecDeque::new(),
            pending_keys: HashSet::new(),
            inflight: HashMap::new(),
            requested_bytes: registry.counter(key, "replicate_requested_bytes"),
            completed_bytes: registry.counter(key, "replicate_completed_bytes"),
            replicated_bytes: registry.counter(key, "replicate_replicated_bytes"),
            replicated_extents: registry.counter(key, "replicated_extents"),
            failed_replications: registry.counter(key, "failed_replications"),
            sync_acks_deferred: registry.counter(key, "sync_acks_deferred"),
            sync_acks_released: registry.counter(key, "sync_acks_released"),
        }
    }

    /// The replicate job identity of this server.
    pub fn meta(&self) -> JobMeta {
        TrafficClass::Replicate.meta(self.server)
    }

    /// Whether a durability spec gave this pipeline work to do.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the replica debt of one acknowledged write. Returns whether
    /// new debt was queued: `local_only` writes owe nothing, a disabled
    /// pipeline takes nothing, and an extent already owing a copy owes
    /// exactly one (the copy reads the latest bytes when it executes).
    pub fn note_write(
        &mut self,
        path: impl Into<String>,
        stripe: u64,
        bytes: u64,
        mode: DurabilityMode,
    ) -> bool {
        if !self.enabled || !mode.replicates() {
            return false;
        }
        let path = path.into();
        let key = (path.clone(), stripe);
        if self.pending_keys.contains(&key) {
            // One pending copy suffices, but a sync write behind it must
            // still defer its ack on the *pending* copy — upgrade the mode
            // so status reporting reflects the strongest waiter.
            if mode.defers_ack() {
                for queued in self.queue.iter_mut() {
                    if queued.key() == key {
                        queued.mode = DurabilityMode::Sync;
                    }
                }
                for inflight in self.inflight.values_mut() {
                    if inflight.key() == key {
                        inflight.mode = DurabilityMode::Sync;
                    }
                }
            }
            return false;
        }
        let bytes = bytes.max(1);
        self.pending_keys.insert(key);
        self.requested_bytes.add(bytes);
        self.queue.push_back(ReplicaTarget {
            path,
            stripe,
            bytes,
            mode,
        });
        true
    }

    /// Admits the next queued copy under sequence number `seq`, returning
    /// the [`IoRequest`] to feed to the policy engine — a *read* of the
    /// burst-buffer device (the copy's cost on the contended resource);
    /// the matching replica-tier write is charged by the caller when the
    /// engine releases the request. `None` when the queue is empty or the
    /// pipelining depth is reached.
    pub fn admit_next(&mut self, seq: u64, now_ns: u64) -> Option<IoRequest> {
        if self.inflight.len() >= self.max_inflight {
            return None;
        }
        let target = self.queue.pop_front()?;
        let request = IoRequest::new(seq, self.meta(), OpKind::Read, target.bytes, now_ns);
        self.inflight.insert(seq, target);
        Some(request)
    }

    /// Looks up an in-flight copy by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&ReplicaTarget> {
        self.inflight.get(&seq)
    }

    /// Completes a copy: removes it from the in-flight set, retires its
    /// debt at the admitted cost, and returns the target so the caller can
    /// account the outcome ([`record_replicated`](Self::record_replicated)
    /// or [`record_failed`](Self::record_failed)) and release any deferred
    /// `sync` acks.
    pub fn complete(&mut self, seq: u64) -> Option<ReplicaTarget> {
        let target = self.inflight.remove(&seq)?;
        self.pending_keys.remove(&target.key());
        self.completed_bytes.add(target.bytes);
        Some(target)
    }

    /// Accounts one replica landed on the replica tier (`bytes` is the
    /// copy's true length).
    pub fn record_replicated(&mut self, bytes: u64) {
        self.replicated_bytes.add(bytes);
        self.replicated_extents.inc();
    }

    /// Accounts a copy abandoned because its source bytes could not be
    /// verified (or no longer exist) — the debt is retired without a
    /// replica, and the failure is visible rather than laundered.
    pub fn record_failed(&mut self) {
        self.failed_replications.inc();
    }

    /// Accounts a `sync` write ack parked until its replica lands.
    pub fn record_sync_deferred(&mut self) {
        self.sync_acks_deferred.inc();
    }

    /// Accounts a parked `sync` ack released by a landed replica.
    pub fn record_sync_released(&mut self) {
        self.sync_acks_released.inc();
    }

    /// Bytes of replica debt not yet retired (queued plus in flight) — the
    /// live replication lag. The completed counter is loaded first, so the
    /// difference never goes negative.
    pub fn lag_bytes(&self) -> u64 {
        let completed = self.completed_bytes.get();
        self.requested_bytes.get().saturating_sub(completed)
    }

    /// Whether any replication work is queued or in flight.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || !self.inflight.is_empty()
    }

    /// Builds the status snapshot.
    pub fn status(&self) -> ReplicateStatus {
        let completed = self.completed_bytes.get();
        let requested = self.requested_bytes.get();
        ReplicateStatus {
            enabled: self.enabled,
            queued_extents: self.queue.len() as u64,
            inflight: self.inflight.len() as u64,
            requested_bytes: requested,
            completed_bytes: completed,
            lag_bytes: requested.saturating_sub(completed),
            replicated_bytes: self.replicated_bytes.get(),
            replicated_extents: self.replicated_extents.get(),
            failed_replications: self.failed_replications.get(),
            sync_acks_deferred: self.sync_acks_deferred.get(),
            sync_acks_released: self.sync_acks_released.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_only_and_disabled_pipelines_take_no_debt() {
        let mut off = ReplicatePipeline::new(0, false, 4, &MetricsRegistry::new());
        assert!(!off.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        assert!(!off.is_busy());
        let mut on = ReplicatePipeline::new(0, true, 4, &MetricsRegistry::new());
        assert!(!on.note_write("/f", 0, 1 << 20, DurabilityMode::LocalOnly));
        assert!(!on.is_busy());
        assert!(on.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        assert!(on.is_busy());
        assert_eq!(on.lag_bytes(), 1 << 20);
    }

    #[test]
    fn dedup_keeps_one_copy_and_upgrades_to_sync() {
        let mut p = ReplicatePipeline::new(1, true, 4, &MetricsRegistry::new());
        assert!(p.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        // The re-dirtied extent owes exactly one copy…
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::LocalPlusOne));
        // …and a sync writer behind it upgrades the pending copy's mode.
        assert!(!p.note_write("/f", 0, 1 << 20, DurabilityMode::Sync));
        assert_eq!(p.lag_bytes(), 1 << 20);
        let r = p.admit_next(10, 0).expect("admit");
        assert_eq!(TrafficClass::of(r.meta.job), Some(TrafficClass::Replicate));
        assert_eq!(r.kind, OpKind::Read);
        assert_eq!(p.inflight(10).unwrap().mode, DurabilityMode::Sync);
    }

    #[test]
    fn depth_limits_inflight_and_completion_retires_debt() {
        let mut p = ReplicatePipeline::new(0, true, 2, &MetricsRegistry::new());
        for stripe in 0..3u64 {
            assert!(p.note_write("/ckpt", stripe, 1 << 20, DurabilityMode::LocalPlusOne));
        }
        assert!(p.admit_next(1, 0).is_some());
        assert!(p.admit_next(2, 0).is_some());
        assert!(p.admit_next(3, 0).is_none(), "depth 2 reached");
        assert_eq!(p.lag_bytes(), 3 << 20);
        let done = p.complete(1).expect("complete");
        assert_eq!(done.path, "/ckpt");
        p.record_replicated(done.bytes);
        assert_eq!(p.lag_bytes(), 2 << 20);
        // The retired key may be re-dirtied into new debt.
        assert!(p.note_write("/ckpt", done.stripe, 1 << 20, DurabilityMode::LocalPlusOne));
        // Depth freed: admission resumes.
        assert!(p.admit_next(3, 0).is_some());
        let s = p.status();
        assert_eq!(s.requested_bytes, 4 << 20);
        assert_eq!(s.completed_bytes, 1 << 20);
        assert_eq!(s.lag_bytes, 3 << 20);
        assert_eq!(s.replicated_extents, 1);
        assert!(!s.is_idle());
    }

    #[test]
    fn failed_copies_retire_debt_without_replicas() {
        let mut p = ReplicatePipeline::new(0, true, 4, &MetricsRegistry::new());
        p.note_write("/gone", 0, 1 << 20, DurabilityMode::LocalPlusOne);
        p.admit_next(1, 0).unwrap();
        p.complete(1).unwrap();
        p.record_failed();
        let s = p.status();
        assert_eq!(s.lag_bytes, 0);
        assert_eq!(s.replicated_bytes, 0);
        assert_eq!(s.failed_replications, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn sync_ack_parking_blocks_idle_until_released() {
        let mut p = ReplicatePipeline::new(0, true, 4, &MetricsRegistry::new());
        p.note_write("/db", 0, 4096, DurabilityMode::Sync);
        p.record_sync_deferred();
        p.admit_next(1, 0).unwrap();
        let done = p.complete(1).unwrap();
        assert!(done.mode.defers_ack());
        p.record_replicated(4096);
        assert!(!p.status().is_idle(), "parked ack still outstanding");
        p.record_sync_released();
        let s = p.status();
        assert_eq!(s.sync_acks_deferred, 1);
        assert_eq!(s.sync_acks_released, 1);
        assert!(s.is_idle());
    }

    #[test]
    fn telemetry_mirrors_every_counter() {
        let registry = MetricsRegistry::new();
        let mut p = ReplicatePipeline::new(0, true, 4, &registry);
        p.note_write("/f", 0, 1000, DurabilityMode::Sync);
        p.record_sync_deferred();
        p.admit_next(1, 0).unwrap();
        p.complete(1).unwrap();
        p.record_replicated(1000);
        p.record_sync_released();
        p.note_write("/f", 1, 500, DurabilityMode::LocalPlusOne);
        p.admit_next(2, 0).unwrap();
        p.complete(2).unwrap();
        p.record_failed();
        let snap = registry.snapshot(0);
        let c = |name: &str| snap.counter(0, 0, "replicate", name);
        assert_eq!(c("replicate_requested_bytes"), 1500);
        assert_eq!(c("replicate_completed_bytes"), 1500);
        assert_eq!(c("replicate_replicated_bytes"), 1000);
        assert_eq!(c("replicated_extents"), 1);
        assert_eq!(c("failed_replications"), 1);
        assert_eq!(c("sync_acks_deferred"), 1);
        assert_eq!(c("sync_acks_released"), 1);
        // The registry view and the pipeline's own status agree.
        let s = p.status();
        assert_eq!(s.requested_bytes, 1500);
        assert_eq!(s.completed_bytes, 1500);
        assert_eq!(s.lag_bytes, 0);
    }
}
