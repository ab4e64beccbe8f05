//! The per-server rebalance pipeline: extent migration after a shard-map
//! change, admitted through the policy engine as
//! [`TrafficClass::Rebalance`](crate::TrafficClass::Rebalance) traffic —
//! the last reserved class.
//!
//! Where drain is driven by dirty foreground writes, restore by foreground
//! misses, and scrub by the pass timer, rebalance is driven by *placement*:
//! whenever the sharded capacity tier's map generation moves past the
//! generation this pipeline last converged on (a backend added, a backend
//! retired, ranges re-assigned, the replication factor changed), a
//! migration pass walks the tier's logical keyspace and synthesizes one
//! policy-visible [`IoRequest`] per misplaced extent. The server core
//! executes each migration through
//! [`ShardedStore::apply_migration`](crate::shard::ShardedStore::apply_migration)
//! when the engine releases the request, so every copy is re-verified
//! against its write-back checksum before it moves — a migration can heal
//! an under-replicated range but can never launder a corrupt extent past
//! the scrubber.
//!
//! The lane runs at its [`ClassWeights`](crate::ClassWeights) weight
//! against the foreground like every other class: a reshard behind a busy
//! foreground costs the foreground a bounded share of device time and
//! expands into idle capacity when the foreground goes quiet.

use crate::shard::{MigrationPlan, ShardedStore};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use themis_core::entity::JobMeta;
use themis_core::request::{IoRequest, OpKind};
use themis_telemetry::{Counter, MetricsRegistry, SeriesKey};

/// A point-in-time snapshot of one server's rebalance state, reported
/// through the `RebalanceStatus` control-plane message.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalanceStatus {
    /// Whether automatic migration on shard-map changes is enabled.
    pub enabled: bool,
    /// Whether the tier behind this server is sharded at all (`false`
    /// means a plain single-backend tier: every other field stays zero).
    pub sharded: bool,
    /// The tier's current map generation.
    pub generation: u64,
    /// The generation the tier last fully converged on. Equal to
    /// `generation` when no migration is owed.
    pub converged_generation: u64,
    /// The current shard map in its textual `lo-hi=child` syntax.
    pub map: String,
    /// The configured replication factor.
    pub replication: usize,
    /// Whether a migration pass is currently in progress.
    pub pass_active: bool,
    /// Migrations admitted and not yet completed.
    pub inflight: usize,
    /// Bytes of migration work admitted since boot.
    pub requested_bytes: u64,
    /// Bytes whose migration completed since boot.
    pub migrated_bytes: u64,
    /// Bytes of admitted migrations that have not completed yet — derived
    /// as a saturating difference because the underlying counters are
    /// loaded independently (see `pending_restore_bytes` in `DrainStatus`
    /// for the same hazard).
    pub pending_bytes: u64,
    /// Extents whose placement this pipeline corrected since boot.
    pub migrated_extents: u64,
    /// Replica copies written by migrations since boot.
    pub copies_written: u64,
    /// Stale replicas pruned from retired placements since boot.
    pub removed_extents: u64,
    /// Migrations that found the extent already converged or deleted by the
    /// time they executed (delete-wins / a newer map took over).
    pub superseded_extents: u64,
    /// Migrations refused because no replica verified against its checksum
    /// (the extent is left in place for the scrubber to quarantine).
    pub failed_extents: u64,
    /// Completed migration passes since boot.
    pub passes_completed: u64,
}

impl RebalanceStatus {
    /// Whether the tier's placement matches its current map with no work
    /// in flight and nothing refused.
    pub fn is_converged(&self) -> bool {
        !self.pass_active
            && self.inflight == 0
            && self.generation == self.converged_generation
            && self.failed_extents == 0
    }
}

/// Pre-resolved registry handles mirroring [`RebalancePipeline`]'s
/// cumulative counters (lane `"rebalance"`).
#[derive(Debug)]
struct RebalanceStats {
    requested_bytes: Counter,
    migrated_bytes: Counter,
    migrated_extents: Counter,
    copies_written: Counter,
    removed_extents: Counter,
    superseded_extents: Counter,
    failed_extents: Counter,
    passes_completed: Counter,
}

/// Per-server rebalance bookkeeping: the pass cursor over the sharded
/// tier's logical keyspace, migrations in flight, and cumulative counters.
///
/// Mirrors [`ScrubPipeline`](crate::scrub::ScrubPipeline): the pipeline
/// decides *what* to migrate and synthesizes the policy-visible requests
/// under the rebalance identity; the server core executes each migration
/// when the engine releases it.
#[derive(Debug)]
pub struct RebalancePipeline {
    server: usize,
    enabled: bool,
    max_inflight: usize,
    /// Last key examined this pass; `None` at the start of a pass.
    cursor: Option<(String, u64)>,
    pass_active: bool,
    cursor_exhausted: bool,
    /// Generation the active pass is converging toward.
    target_generation: u64,
    /// Generation the tier last converged on.
    converged_generation: u64,
    /// A forced pass was demanded (heal scan) — runs even when `enabled`
    /// is false and even without a generation change.
    forced: bool,
    inflight: HashMap<u64, MigrationPlan>,
    requested_bytes: u64,
    migrated_bytes: u64,
    migrated_extents: u64,
    copies_written: u64,
    removed_extents: u64,
    superseded_extents: u64,
    failed_extents: u64,
    passes_completed: u64,
    stats: Option<RebalanceStats>,
}

impl RebalancePipeline {
    /// Creates the rebalance pipeline of `server`: `enabled` migrates
    /// automatically whenever the shard map's generation moves, admitting
    /// at most `max_inflight` migrations at a time.
    pub fn new(server: usize, enabled: bool, max_inflight: usize) -> Self {
        RebalancePipeline {
            server,
            enabled,
            max_inflight: max_inflight.max(1),
            cursor: None,
            pass_active: false,
            cursor_exhausted: false,
            target_generation: 0,
            converged_generation: 0,
            forced: false,
            inflight: HashMap::new(),
            requested_bytes: 0,
            migrated_bytes: 0,
            migrated_extents: 0,
            copies_written: 0,
            removed_extents: 0,
            superseded_extents: 0,
            failed_extents: 0,
            passes_completed: 0,
            stats: None,
        }
    }

    /// Resolves registry handles (lane `"rebalance"` on this pipeline's
    /// server) so every subsequent outcome is mirrored into `registry`.
    pub fn attach_telemetry(&mut self, registry: &MetricsRegistry) {
        let key = SeriesKey::class(self.server, crate::TrafficClass::Rebalance.name());
        self.stats = Some(RebalanceStats {
            requested_bytes: registry.counter(key, "rebalance_requested_bytes"),
            migrated_bytes: registry.counter(key, "rebalance_migrated_bytes"),
            migrated_extents: registry.counter(key, "migrated_extents"),
            copies_written: registry.counter(key, "copies_written"),
            removed_extents: registry.counter(key, "removed_extents"),
            superseded_extents: registry.counter(key, "superseded_extents"),
            failed_extents: registry.counter(key, "failed_extents"),
            passes_completed: registry.counter(key, "passes_completed"),
        });
    }

    /// The rebalance job identity of this server.
    pub fn meta(&self) -> JobMeta {
        crate::TrafficClass::Rebalance.meta(self.server)
    }

    /// Whether automatic migration on map changes is enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Demands a migration pass even without a generation change — the
    /// heal scan: a pass over a converged map re-replicates any range a
    /// lost replica left under-replicated.
    pub fn force_pass(&mut self) {
        self.forced = true;
    }

    /// Admits the next misplaced extent this server owns under sequence
    /// number `seq`, starting a pass first when the tier's generation has
    /// moved (or a heal pass was forced). Returns the [`IoRequest`] to
    /// feed to the policy engine — a *write* costed at the extent's length
    /// (the migration streams one verified copy through a policy-granted
    /// service slot; the matching capacity-tier transfers are charged by
    /// the caller when the engine releases the request). `None` when no
    /// pass is due, the cursor is exhausted, or the pipelining depth is
    /// reached.
    ///
    /// `owns` decides which extents this server migrates (stripe → shard
    /// ownership, the same closure the scrubber uses), so a multi-server
    /// deployment migrates the shared tier exactly once.
    pub fn admit_next(
        &mut self,
        seq: u64,
        now_ns: u64,
        store: &ShardedStore,
        owns: impl Fn(&str, u64) -> bool,
    ) -> Option<IoRequest> {
        if !self.pass_active {
            let generation = store.generation();
            let due = self.forced || (self.enabled && generation > self.converged_generation);
            if !due {
                return None;
            }
            self.pass_active = true;
            self.cursor = None;
            self.cursor_exhausted = false;
            self.forced = false;
            self.target_generation = generation;
        }
        if self.cursor_exhausted || self.inflight.len() >= self.max_inflight {
            return None;
        }
        loop {
            let Some((path, stripe, plan)) = store.next_misplaced_after(self.cursor.as_ref())
            else {
                self.cursor_exhausted = true;
                return None;
            };
            self.cursor = Some((path.clone(), stripe));
            if !owns(&path, stripe) {
                continue;
            }
            let bytes = plan.bytes.max(1);
            self.requested_bytes += bytes;
            if let Some(s) = &self.stats {
                s.requested_bytes.add(bytes);
            }
            self.inflight.insert(seq, plan);
            return Some(IoRequest::new(
                seq,
                self.meta(),
                OpKind::Write,
                bytes,
                now_ns,
            ));
        }
    }

    /// Looks up an in-flight migration by request sequence number.
    pub fn inflight(&self, seq: u64) -> Option<&MigrationPlan> {
        self.inflight.get(&seq)
    }

    /// Completes a migration: removes it from the in-flight set and
    /// returns the plan so the caller can execute it and record the
    /// outcome with one of the `record_*` methods.
    pub fn complete(&mut self, seq: u64) -> Option<MigrationPlan> {
        self.inflight.remove(&seq)
    }

    /// Records an executed migration (`bytes` moved, `copies` replicas
    /// written, `removed` stale replicas pruned).
    pub fn record_migrated(&mut self, bytes: u64, copies: usize, removed: usize) {
        self.migrated_bytes += bytes;
        self.migrated_extents += 1;
        self.copies_written += copies as u64;
        self.removed_extents += removed as u64;
        if let Some(s) = &self.stats {
            s.migrated_bytes.add(bytes);
            s.migrated_extents.inc();
            s.copies_written.add(copies as u64);
            s.removed_extents.add(removed as u64);
        }
    }

    /// Records a migration that found nothing left to do (the extent was
    /// deleted or a newer pass already converged it).
    pub fn record_superseded(&mut self) {
        self.superseded_extents += 1;
        if let Some(s) = &self.stats {
            s.superseded_extents.inc();
        }
    }

    /// Records a migration refused because no replica verified — the
    /// extent stays put for the scrubber.
    pub fn record_failed(&mut self) {
        self.failed_extents += 1;
        if let Some(s) = &self.stats {
            s.failed_extents.inc();
        }
    }

    /// Finishes the pass if its cursor is exhausted and every in-flight
    /// migration has landed. The converged generation advances to the pass
    /// target; if the map moved again mid-pass, the next
    /// [`admit_next`](Self::admit_next) immediately starts a follow-up
    /// pass. Returns the generation converged on.
    pub fn finish_pass_if_idle(&mut self) -> Option<u64> {
        if !self.pass_active || !self.cursor_exhausted || !self.inflight.is_empty() {
            return None;
        }
        self.pass_active = false;
        self.cursor = None;
        self.cursor_exhausted = false;
        self.converged_generation = self.converged_generation.max(self.target_generation);
        self.passes_completed += 1;
        if let Some(s) = &self.stats {
            s.passes_completed.inc();
        }
        Some(self.converged_generation)
    }

    /// Whether any migration work is admitted and unfinished.
    pub fn is_busy(&self) -> bool {
        !self.inflight.is_empty()
    }

    /// Whether a pass still owes work for `store`'s current generation.
    pub fn owes_work(&self, store: &ShardedStore) -> bool {
        self.pass_active || (self.enabled && store.generation() > self.converged_generation)
    }

    /// Builds the status snapshot for the tier behind `store` (pass
    /// `None` for a plain, unsharded tier).
    pub fn status(&self, store: Option<&ShardedStore>) -> RebalanceStatus {
        let (sharded, generation, map, replication) = match store {
            Some(s) => (true, s.generation(), s.map_text(), s.replication()),
            None => (false, 0, String::new(), 0),
        };
        RebalanceStatus {
            enabled: self.enabled,
            sharded,
            generation,
            converged_generation: self.converged_generation,
            map,
            replication,
            pass_active: self.pass_active,
            inflight: self.inflight.len(),
            requested_bytes: self.requested_bytes,
            migrated_bytes: self.migrated_bytes,
            // Independently-maintained totals: saturate instead of trusting
            // update order (the satellite-1 audit rule).
            pending_bytes: self.requested_bytes.saturating_sub(self.migrated_bytes),
            migrated_extents: self.migrated_extents,
            copies_written: self.copies_written,
            removed_extents: self.removed_extents,
            superseded_extents: self.superseded_extents,
            failed_extents: self.failed_extents,
            passes_completed: self.passes_completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::{BackingStore, CapacityTier};
    use crate::shard::{MigrationOutcome, ShardMap, ShardSpec};
    use std::sync::Arc;
    use themis_device::DeviceConfig;

    fn seeded_store(extents: u64) -> ShardedStore {
        let store = ShardSpec::hdd_plus_ssd(1).build().unwrap();
        for stripe in 0..extents {
            store.write_back("/ckpt", stripe, &[stripe as u8; 32]);
        }
        store
    }

    /// Drives the pipeline to quiescence against `store`, applying each
    /// migration exactly as the server core would. Returns the requests
    /// released.
    fn drain_pipeline(p: &mut RebalancePipeline, store: &ShardedStore) -> Vec<IoRequest> {
        let mut seq = 1u64;
        let mut released = Vec::new();
        loop {
            while let Some(req) = p.admit_next(seq, 0, store, |_, _| true) {
                let plan = p.complete(req.seq).expect("inflight");
                match store.apply_migration(&plan) {
                    MigrationOutcome::Migrated {
                        bytes,
                        copies,
                        removed,
                    } => p.record_migrated(bytes, copies, removed),
                    MigrationOutcome::Superseded => p.record_superseded(),
                    MigrationOutcome::Failed => p.record_failed(),
                }
                released.push(req);
                seq += 1;
            }
            if p.finish_pass_if_idle().is_none() || !p.owes_work(store) {
                break;
            }
        }
        released
    }

    #[test]
    fn idle_until_the_generation_moves_then_converges() {
        let store = seeded_store(16);
        let mut p = RebalancePipeline::new(0, true, 4);
        assert!(p.admit_next(1, 0, &store, |_, _| true).is_none());
        assert!(p.status(Some(&store)).is_converged());

        // Add a backend, retire child 0, double the replication.
        store.add_backend(Arc::new(CapacityTier::new(DeviceConfig::optane_ssd())));
        store
            .install_map(ShardMap::parse("00-7f=1,80-ff=2").unwrap(), 2)
            .unwrap();
        assert!(p.owes_work(&store));
        let released = drain_pipeline(&mut p, &store);
        assert!(!released.is_empty());
        assert!(released
            .iter()
            .all(|r| crate::TrafficClass::of(r.meta.job) == Some(crate::TrafficClass::Rebalance)));
        assert!(store.verify_placement().converged());
        let status = p.status(Some(&store));
        assert!(status.is_converged(), "{status:?}");
        assert_eq!(status.generation, 1);
        assert_eq!(status.converged_generation, 1);
        assert_eq!(status.migrated_extents, 16);
        assert_eq!(status.failed_extents, 0);
        assert_eq!(status.pending_bytes, 0);
        assert_eq!(status.passes_completed, 1);
        assert_eq!(status.map, "00-7f=1,80-ff=2");
        assert_eq!(status.replication, 2);
    }

    #[test]
    fn disabled_pipeline_only_moves_when_forced() {
        let store = seeded_store(4);
        let mut p = RebalancePipeline::new(0, false, 4);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        assert!(p.admit_next(1, 0, &store, |_, _| true).is_none());
        assert!(!store.verify_placement().converged());
        // A forced heal pass migrates regardless of `enabled`.
        p.force_pass();
        drain_pipeline(&mut p, &store);
        assert!(store.verify_placement().converged());
    }

    #[test]
    fn ownership_filter_splits_the_work() {
        let store = seeded_store(16);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        // Only extents hashed onto (retired) child 0 are misplaced; server
        // 0 owns the even stripes among them and its pass leaves the odd
        // ones for server 1's pipeline.
        let misplaced_even = (0..16u64)
            .filter(|s| s % 2 == 0 && crate::shard::shard_byte("/ckpt", *s) < 0x80)
            .count() as u64;
        assert!(misplaced_even > 0, "hash spread left nothing to migrate");
        let mut p0 = RebalancePipeline::new(0, true, 4);
        let mut seq = 1u64;
        loop {
            while let Some(req) = p0.admit_next(seq, 0, &store, |_, s| s % 2 == 0) {
                let plan = p0.complete(req.seq).unwrap();
                match store.apply_migration(&plan) {
                    MigrationOutcome::Migrated {
                        bytes,
                        copies,
                        removed,
                    } => p0.record_migrated(bytes, copies, removed),
                    MigrationOutcome::Superseded => p0.record_superseded(),
                    MigrationOutcome::Failed => p0.record_failed(),
                }
                seq += 1;
            }
            if p0.finish_pass_if_idle().is_some() {
                break;
            }
        }
        assert_eq!(p0.status(Some(&store)).migrated_extents, misplaced_even);
        assert!(!store.verify_placement().converged());
        let mut p1 = RebalancePipeline::new(1, true, 4);
        drain_pipeline(&mut p1, &store);
        assert!(store.verify_placement().converged());
    }

    #[test]
    fn depth_limits_inflight_and_busy_tracks_it() {
        let store = seeded_store(8);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        let mut p = RebalancePipeline::new(0, true, 2);
        assert!(p.admit_next(1, 0, &store, |_, _| true).is_some());
        assert!(p.admit_next(2, 0, &store, |_, _| true).is_some());
        assert!(p.admit_next(3, 0, &store, |_, _| true).is_none());
        assert!(p.is_busy());
        assert_eq!(p.status(Some(&store)).inflight, 2);
        let plan = p.complete(1).unwrap();
        assert_eq!(
            store.apply_migration(&plan),
            MigrationOutcome::Migrated {
                bytes: 32,
                copies: 1,
                removed: 1
            }
        );
        p.record_migrated(32, 1, 1);
        assert!(p.admit_next(3, 0, &store, |_, _| true).is_some());
    }

    #[test]
    fn telemetry_mirrors_every_counter() {
        let registry = MetricsRegistry::new();
        let store = seeded_store(4);
        store
            .install_map(ShardMap::parse("00-ff=1").unwrap(), 1)
            .unwrap();
        let mut p = RebalancePipeline::new(0, true, 4);
        p.attach_telemetry(&registry);
        drain_pipeline(&mut p, &store);
        let snap = registry.snapshot(0);
        let status = p.status(Some(&store));
        assert_eq!(
            snap.counter(0, 0, "rebalance", "rebalance_migrated_bytes"),
            status.migrated_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "rebalance_requested_bytes"),
            status.requested_bytes
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "migrated_extents"),
            status.migrated_extents
        );
        assert_eq!(
            snap.counter(0, 0, "rebalance", "passes_completed"),
            status.passes_completed
        );
    }
}
